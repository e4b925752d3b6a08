import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (hamming, oracle_ap, oracle_map, oracle_rank, pack_codes, ranked_codes,
                      relevance, unpack_codes)
from xmodhash import retrieval
from xmodhash.errors import EvaluationError, FormatError, ValidationError
from xmodhash.retrieval import CodeSet, evaluate, rank_by_hamming, read_codes, write_codes


def signs_from_bits(bit_rows):
    return np.array([[1.0 if b else -1.0 for b in row] for row in bit_rows])


def random_signs(rng, n, r):
    return np.where(rng.random((n, r)) < 0.5, -1.0, 1.0)


# ------------------------------------------------------------------- packing

def test_pack_unpack_round_trip():
    rng = np.random.default_rng(0)
    for r in (1, 7, 64, 65, 128, 130):
        signs = random_signs(rng, 20, r)
        codes = pack_codes(signs)
        assert np.array_equal(unpack_codes(codes), signs.astype(np.int8))


def test_pack_rejects_non_sign_values():
    with pytest.raises(ValidationError):
        pack_codes(np.array([[1.0, 0.0]]))


def test_unused_high_bits_are_zero():
    rng = np.random.default_rng(1)
    codes = pack_codes(random_signs(rng, 10, 70))
    assert np.all(codes.words[:, -1] >> np.uint64(6) == 0)


def test_codeset_rejects_dirty_high_bits():
    words = np.full((1, 1), np.uint64(0xFFFFFFFFFFFFFFFF))
    with pytest.raises(ValidationError):
        CodeSet(r=8, words=words)


# ------------------------------------------------------------------- hamming

def test_hamming_identity_and_complement():
    rng = np.random.default_rng(2)
    signs = random_signs(rng, 1, 96)
    a = pack_codes(signs).words[0]
    b = pack_codes(-signs).words[0]
    assert hamming(a, a) == 0
    assert hamming(a, b) == 96


def test_hamming_hand_case():
    # bits written most-significant-first: 10110010 vs 00111010
    a = pack_codes(signs_from_bits([[1, 0, 1, 1, 0, 0, 1, 0]])).words[0]
    b = pack_codes(signs_from_bits([[0, 0, 1, 1, 1, 0, 1, 0]])).words[0]
    # XOR is 10001000, so exactly 2 bits differ
    assert hamming(a, b) == 2


def test_hamming_length_mismatch():
    with pytest.raises(ValidationError):
        hamming(np.zeros(1, dtype=np.uint64), np.zeros(2, dtype=np.uint64))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=100))
def test_hamming_matches_unpacked_disagreements(seed, r):
    rng = np.random.default_rng(seed)
    signs = random_signs(rng, 3, r)
    codes = pack_codes(signs)
    a, b, c = codes.words
    expected = int(np.sum(signs[0] != signs[1]))
    assert hamming(a, b) == expected
    # metric axioms on the triple
    assert hamming(a, b) == hamming(b, a)
    assert hamming(a, a) == 0
    assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


# ------------------------------------------------------------------- ranking

def test_rank_puts_query_first():
    rng = np.random.default_rng(3)
    signs = random_signs(rng, 12, 32)
    db = pack_codes(signs)
    ranked = rank_by_hamming(db.words[7], db)
    assert ranked[0] == 7


def test_rank_ties_break_by_index():
    signs = np.ones((5, 8))
    db = pack_codes(signs)
    query = pack_codes(-np.ones((1, 8))).words[0]
    assert np.array_equal(rank_by_hamming(query, db), np.arange(5))


def test_rank_returns_int64_indices():
    rng = np.random.default_rng(13)
    db = pack_codes(random_signs(rng, 30, 96))
    assert rank_by_hamming(db.words[0], db).dtype == np.int64


def test_rank_is_permutation():
    rng = np.random.default_rng(4)
    db = pack_codes(random_signs(rng, 30, 24))
    ranked = rank_by_hamming(db.words[0], db)
    assert sorted(ranked) == list(range(30))


def test_rank_empty_db():
    db = CodeSet(r=16, words=np.zeros((0, 1), dtype=np.uint64))
    query = np.zeros(1, dtype=np.uint64)
    assert rank_by_hamming(query, db).size == 0


def test_rank_matches_naive_oracle():
    rng = np.random.default_rng(5)
    signs = random_signs(rng, 200, 48)
    db = pack_codes(signs)
    unpacked = unpack_codes(db)
    for qi in (0, 13, 57):
        ranked = rank_by_hamming(db.words[qi], db)
        assert list(ranked) == oracle_rank(unpacked[qi], unpacked)


@pytest.mark.parametrize("r, key_type", [(255, np.uint8), (256, np.uint16)])
def test_rank_matches_naive_oracle_at_key_width_boundary(r, key_type):
    rng = np.random.default_rng(r)
    signs = random_signs(rng, 120, r)
    signs[60:70] = signs[5]  # exact ties, broken by ascending index
    db = pack_codes(signs)
    unpacked = unpack_codes(db)
    dist = retrieval._distances(db.words[:3], db, np.empty((3, db.n), dtype=key_type))
    for qi in range(3):
        assert list(dist[qi]) == [hamming(db.words[qi], row) for row in db.words]
    for qi in (0, 5, 64, 119):
        ranked = rank_by_hamming(db.words[qi], db)
        assert list(ranked) == oracle_rank(unpacked[qi], unpacked)


# ------------------------------------------------------------------- metrics

def _single_class_labels(query_classes, db_classes, c):
    """Query and database label matrices, one class per instance."""
    ql = np.zeros((c, len(query_classes)))
    ql[query_classes, np.arange(len(query_classes))] = 1
    dl = np.zeros((c, len(db_classes)))
    dl[db_classes, np.arange(len(db_classes))] = 1
    return ql, dl


@pytest.mark.parametrize("c", [1, 6, 8, 9, 16, 17, 32, 33, 64, 65, 130])
def test_label_masks_match_label_products(c):
    rng = np.random.default_rng(c)
    ql = (rng.random((c, 7)) < 2.0 / c).astype(float)
    dl = (rng.random((c, 40)) < 2.0 / c).astype(float)
    dl[c - 1, 0] = ql[c - 1, 0] = 1.0  # the highest class bit is in use
    query_masks, db_masks = retrieval._label_masks(ql), retrieval._label_masks(dl)
    words = max(1, -(-c // 64))
    assert db_masks.shape == (40, words) and query_masks.shape == (7, words)
    assert db_masks.dtype == np.min_scalar_type((1 << min(c, 64)) - 1)
    for qi in range(7):
        shared = (db_masks & query_masks[qi]).any(axis=1)
        assert np.array_equal(shared, relevance(ql, dl, qi))


@pytest.mark.parametrize("bad", [2.0, 0.5, -1.0, np.nan])
def test_judge_rejects_non_binary_labels(bad):
    dl = np.array([[1.0, 0.0], [0.0, 1.0]])
    ql = np.array([[1.0], [0.0]])
    queries, db = pack_codes(np.ones((1, 8))), pack_codes(np.ones((2, 8)))
    with pytest.raises(ValidationError, match="query label entries must be 0 or 1"):
        evaluate(queries, db, np.where(ql == 1, bad, ql), dl)
    with pytest.raises(ValidationError, match="database label entries must be 0 or 1"):
        evaluate(queries, db, ql, np.where(dl == 1, bad, dl))


def test_evaluate_rejects_label_vectors():
    with pytest.raises(ValidationError, match="query labels must be a c x n matrix, got ndim=1"):
        evaluate(*ranked_codes(2), np.ones(1), np.ones((1, 2)))


def test_evaluate_rejects_labels_for_other_code_counts():
    labels = _single_class_labels([0], [0, 0, 0], c=1)
    with pytest.raises(ValidationError, match="labels cover 1 queries and 3 database"):
        evaluate(*ranked_codes(4), *labels)


def test_ap_all_relevant():
    labels = _single_class_labels([0], [0, 0, 0, 0], c=2)
    result, _ = evaluate(*ranked_codes(4), *labels, cutoff=4)
    assert result.value == 1.0 and result.excluded_queries == 0


def test_ap_hand_case():
    # relevance down the ranking is [1, 0, 1, 0] -> (1/2)(1/1 + 2/3)
    labels = _single_class_labels([0], [0, 1, 0, 1], c=2)
    result, _ = evaluate(*ranked_codes(4), *labels, cutoff=4)
    assert result.value == pytest.approx(0.833333, abs=1e-6)


def test_ap_empty_ground_truth_flagged():
    labels = _single_class_labels([0], [1, 1], c=2)
    with pytest.raises(EvaluationError, match="empty ground truth"):
        evaluate(*ranked_codes(2), *labels, cutoff=2)
    result, _ = evaluate(*ranked_codes(2), *labels, cutoff=2, include_empty=True)
    assert result.value == 0.0 and result.excluded_queries == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_ap_is_one_iff_relevant_items_lead(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    db_classes = rng.integers(0, 2, n)
    if not db_classes.any():
        db_classes[0] = 1
    # database item p sits at rank p, so db_classes is the relevance in rank order
    labels = _single_class_labels([1], list(db_classes), c=2)
    result, _ = evaluate(*ranked_codes(n), *labels, cutoff=n)
    rel = db_classes == 1
    leading_block = bool(np.all(np.flatnonzero(rel) == np.arange(rel.sum())))
    assert (result.value == 1.0) == leading_block


def test_ap_cutoff_validated():
    labels = _single_class_labels([0], [0], c=1)
    with pytest.raises(ValidationError, match="cutoff 2 exceeds ranking length 1"):
        evaluate(*ranked_codes(1), *labels, cutoff=2)


def test_map_perfect_single_query():
    rng = np.random.default_rng(6)
    signs = random_signs(rng, 6, 16)
    db = pack_codes(signs)
    queries = pack_codes(signs[:1])
    labels = _single_class_labels([0], [0] * 6, c=2)
    result, _ = evaluate(queries, db, *labels)
    assert result.value == 1.0 and result.excluded_queries == 0


def test_map_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    db_signs = random_signs(rng, 300, 32)
    query_signs = random_signs(rng, 50, 32)
    db = pack_codes(db_signs)
    queries = pack_codes(query_signs)
    query_classes = rng.integers(0, 4, 50)
    db_classes = rng.integers(0, 4, 300)
    labels = _single_class_labels(query_classes, db_classes, c=4)
    result, _ = evaluate(queries, db, *labels)
    expected, excluded = oracle_map(queries, db, *labels)
    assert result.value == expected
    assert result.excluded_queries == excluded


def test_map_mismatched_code_length():
    a = pack_codes(np.ones((2, 8)))
    b = pack_codes(np.ones((2, 16)))
    labels = _single_class_labels([0, 0], [0, 0], c=1)
    with pytest.raises(ValidationError, match="code lengths differ"):
        evaluate(a, b, *labels)


def test_map_all_empty_is_error():
    signs = np.ones((2, 8))
    labels = _single_class_labels([0, 0], [1, 1], c=2)
    with pytest.raises(EvaluationError):
        evaluate(pack_codes(signs), pack_codes(signs), *labels)


def test_map_include_empty_flag():
    signs = np.ones((2, 8))
    labels = _single_class_labels([0, 1], [0, 0], c=2)
    strict, _ = evaluate(pack_codes(signs), pack_codes(signs), *labels)
    padded, _ = evaluate(pack_codes(signs), pack_codes(signs), *labels, include_empty=True)
    assert strict.value == 1.0 and strict.excluded_queries == 1
    assert padded.value == 0.5 and padded.excluded_queries == 0


def test_topn_all_relevant():
    rng = np.random.default_rng(8)
    signs = random_signs(rng, 10, 16)
    db = pack_codes(signs)
    queries = pack_codes(signs[:2])
    labels = _single_class_labels([0, 0], [0] * 10, c=1)
    _, curve = evaluate(queries, db, *labels, include_empty=True, n_points=[10])
    assert curve == [(10, 1.0)]


def test_topn_monotone_relevance_toy():
    # all relevant items strictly closer than all irrelevant ones
    base = np.ones((1, 16))
    db_signs = np.vstack([np.ones((4, 16)), -np.ones((6, 16))])
    db = pack_codes(db_signs)
    queries = pack_codes(base)
    labels = _single_class_labels([0], [0] * 4 + [1] * 6, c=2)
    curve = dict(evaluate(queries, db, *labels, include_empty=True,
                          n_points=[1, 2, 3, 4, 6])[1])
    assert curve[1] == curve[2] == curve[3] == curve[4] == 1.0
    assert curve[6] == pytest.approx(4 / 6)


def test_topn_random_base_rate():
    rng = np.random.default_rng(9)
    p = 0.3
    db = pack_codes(random_signs(rng, 400, 32))
    queries = pack_codes(random_signs(rng, 200, 32))
    db_classes = (rng.random(400) > p).astype(int)  # class 0 with probability p
    labels = _single_class_labels([0] * 200, db_classes, c=2)
    (_, precision), = evaluate(queries, db, *labels, include_empty=True, n_points=[100])[1]
    sigma = np.sqrt(p * (1 - p) / (100 * 200))
    assert abs(precision - p) < 3 * sigma + 0.02


def test_topn_matches_oracle_counts():
    rng = np.random.default_rng(10)
    db_signs = random_signs(rng, 60, 24)
    query_signs = random_signs(rng, 9, 24)
    db, queries = pack_codes(db_signs), pack_codes(query_signs)
    classes_q = rng.integers(0, 3, 9)
    classes_db = rng.integers(0, 3, 60)
    labels = _single_class_labels(classes_q, classes_db, c=3)
    for n_top, precision in evaluate(queries, db, *labels, include_empty=True,
                                     n_points=[5, 20])[1]:
        total = 0.0
        for qi in range(9):
            ranked = oracle_rank(unpack_codes(queries)[qi], unpack_codes(db))
            rel = relevance(*labels, qi)
            total += sum(rel[i] for i in ranked[:n_top]) / n_top
        assert precision == total / 9


def test_topn_validates_points():
    db = pack_codes(np.ones((3, 8)))
    queries = pack_codes(np.ones((1, 8)))
    labels = _single_class_labels([0], [0, 0, 0], c=1)
    with pytest.raises(ValidationError, match="top-N point 4 outside"):
        evaluate(queries, db, *labels, include_empty=True, n_points=[4])


def test_cutoff_below_one_rejected():
    labels = _single_class_labels([0], [0, 0, 0], c=1)
    for cutoff in (0, -5):
        with pytest.raises(ValidationError, match="cutoff must be at least 1"):
            evaluate(*ranked_codes(3), *labels, cutoff=cutoff)


# ----------------------------------------------------------- block engine

def _oracle_scores(rankings, query_labels, db_labels, cutoff, include_empty, n_points):
    """Query-by-query mAP (None if no query is kept) and top-N from the naive
    rankings (oracle_rank of each query) and the AP oracle."""
    total, kept, excluded = 0.0, 0, 0
    sums = [0.0] * len(n_points)
    for qi, ranked in enumerate(rankings):
        relevant = relevance(query_labels, db_labels, qi)
        ap, empty = oracle_ap(ranked, relevant, cutoff)
        if empty and not include_empty:
            excluded += 1
        else:
            total += ap
            kept += 1
        for col, n_top in enumerate(n_points):
            sums[col] += int(sum(relevant[i] for i in ranked[:n_top])) / n_top
    curve = [(n_top, sums[col] / len(rankings)) for col, n_top in enumerate(n_points)]
    return (total / kept if kept else None), excluded, curve


# (r, c) cases; six classes keep the bare r id
_ENGINE_CASES = [pytest.param(r, c, id=str(r) if c == 6 else f"{r}-c{c}")
                 for c in (6, 64, 65, 130) for r in (8, 64, 96, 130, 255, 256)]


@pytest.mark.parametrize("r, c", _ENGINE_CASES)
@pytest.mark.parametrize("n_query", [1, 4, 11])
def test_block_engine_matches_oracles(monkeypatch, r, n_query, c):
    # four queries per block: 4 is one block, 11 straddles two block boundaries;
    # r = 255 / 256 is the uint8 / uint16 distance boundary, c = 65 and 130
    # need two and three mask words
    n_db, points = 90, [1, 7, 90]
    monkeypatch.setattr(retrieval, "_BLOCK_CELLS", 4 * n_db)
    rng = np.random.default_rng(r * 100 + n_query)
    db = pack_codes(random_signs(rng, n_db, r))
    queries = pack_codes(random_signs(rng, n_query, r))
    # about a fifth of the pairs share a label whatever the class count
    density = min(0.2, 0.5 / np.sqrt(c))
    ql = (rng.random((c, n_query)) < density).astype(float)
    dl = (rng.random((c, n_db)) < density).astype(float)
    db_bits = unpack_codes(db)
    rankings = [oracle_rank(q, db_bits) for q in unpack_codes(queries)]
    for cutoff in (None, 5, 30):
        for include_empty in (False, True):
            want_map, want_excluded, want_curve = _oracle_scores(
                rankings, ql, dl, cutoff or n_db, include_empty, points)
            if want_map is None:
                with pytest.raises(EvaluationError):
                    evaluate(queries, db, ql, dl, cutoff=cutoff, n_points=points)
                continue
            got, curve = evaluate(queries, db, ql, dl, cutoff=cutoff,
                                  include_empty=include_empty, n_points=points)
            assert got.value == want_map and got.excluded_queries == want_excluded
            assert curve == want_curve
    for qi in range(n_query):
        assert list(rank_by_hamming(queries.words[qi], db)) == rankings[qi]


def test_block_engine_memory_is_bounded_per_block_cell():
    # ten full blocks of 20 000-item rankings.  The buffers are allocated once
    # per call: one byte per block cell each for distances and relevance, plus
    # a few database-length rows and the label masks, whatever the query count
    rng = np.random.default_rng(13)
    n_db, r = 20_000, 32
    height = retrieval._BLOCK_CELLS // n_db
    db = pack_codes(random_signs(rng, n_db, r))
    queries = pack_codes(random_signs(rng, 10 * height, r))
    ql = (rng.random((24, queries.n)) < 0.1).astype(float)
    dl = (rng.random((24, n_db)) < 0.1).astype(float)
    tracemalloc.start()
    try:
        evaluate(queries, db, ql, dl, include_empty=True, n_points=[50, 500])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (height * n_db) < 4.0


# ------------------------------------------------------------------ code files

def test_code_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    codes = pack_codes(random_signs(rng, 25, 70))
    path = tmp_path / "c.abc"
    write_codes(codes, path)
    back = read_codes(path)
    assert back.n == 25 and back.r == 70
    assert back.words.tobytes() == codes.words.tobytes()


def test_code_file_io_holds_no_second_copy_of_the_words(tmp_path):
    codes = pack_codes(random_signs(np.random.default_rng(14), 100_000, 64))
    path = tmp_path / "c.abc"
    tracemalloc.start()
    try:
        write_codes(codes, path)
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        back = read_codes(path)
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.words.tobytes() == codes.words.tobytes()
    assert write_peak <= 0.25 * codes.words.nbytes
    assert read_peak <= 1.25 * codes.words.nbytes


def test_code_file_huge_count_fails_before_allocating(tmp_path):
    import struct
    path = tmp_path / "c.abc"
    path.write_bytes(b"ABC1" + struct.pack("<QI", 2 ** 60, 64) + bytes(8))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="payload is 8 bytes"):
            read_codes(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_code_file_bad_magic(tmp_path):
    path = tmp_path / "c.abc"
    path.write_bytes(b"XYZ1" + bytes(12))
    with pytest.raises(FormatError):
        read_codes(path)


def test_code_file_truncated(tmp_path):
    rng = np.random.default_rng(12)
    codes = pack_codes(random_signs(rng, 4, 64))
    path = tmp_path / "c.abc"
    write_codes(codes, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        read_codes(path)


def test_code_file_dirty_spare_bits(tmp_path):
    path = tmp_path / "c.abc"
    import struct
    payload = struct.pack("<Q", 0xFFFFFFFFFFFFFFFF)
    path.write_bytes(b"ABC1" + struct.pack("<QI", 1, 8) + payload)
    with pytest.raises(FormatError):
        read_codes(path)
