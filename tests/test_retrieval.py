import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hamming, oracle_ap, oracle_map, oracle_rank, ranked_codes, unpack_codes
from xmodhash import retrieval
from xmodhash.errors import EvaluationError, FormatError, ValidationError
from xmodhash.retrieval import (CodeSet, RelevanceJudge, evaluate, pack_codes,
                                rank_by_hamming, read_codes, write_codes)


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
        CodeSet(n=1, r=8, words=words)


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
    db = CodeSet(n=0, r=16, words=np.zeros((0, 1), dtype=np.uint64))
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


# ------------------------------------------------------------------- metrics

def _judge_single_class(query_classes, db_classes, c):
    ql = np.zeros((c, len(query_classes)))
    ql[query_classes, np.arange(len(query_classes))] = 1
    dl = np.zeros((c, len(db_classes)))
    dl[db_classes, np.arange(len(db_classes))] = 1
    return RelevanceJudge(ql, dl)


def test_ap_all_relevant():
    judge = _judge_single_class([0], [0, 0, 0, 0], c=2)
    result, _ = evaluate(*ranked_codes(4), judge, cutoff=4)
    assert result.value == 1.0 and result.excluded_queries == 0


def test_ap_hand_case():
    # relevance down the ranking is [1, 0, 1, 0] -> (1/2)(1/1 + 2/3)
    judge = _judge_single_class([0], [0, 1, 0, 1], c=2)
    result, _ = evaluate(*ranked_codes(4), judge, cutoff=4)
    assert result.value == pytest.approx(0.833333, abs=1e-6)


def test_ap_empty_ground_truth_flagged():
    judge = _judge_single_class([0], [1, 1], c=2)
    with pytest.raises(EvaluationError, match="empty ground truth"):
        evaluate(*ranked_codes(2), judge, cutoff=2)
    result, _ = evaluate(*ranked_codes(2), judge, cutoff=2, include_empty=True)
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
    judge = _judge_single_class([1], list(db_classes), c=2)
    result, _ = evaluate(*ranked_codes(n), judge, cutoff=n)
    rel = db_classes == 1
    leading_block = bool(np.all(np.flatnonzero(rel) == np.arange(rel.sum())))
    assert (result.value == 1.0) == leading_block


def test_ap_cutoff_validated():
    judge = _judge_single_class([0], [0], c=1)
    with pytest.raises(ValidationError, match="cutoff 2 exceeds ranking length 1"):
        evaluate(*ranked_codes(1), judge, cutoff=2)


def test_map_perfect_single_query():
    rng = np.random.default_rng(6)
    signs = random_signs(rng, 6, 16)
    db = pack_codes(signs)
    queries = pack_codes(signs[:1])
    judge = _judge_single_class([0], [0] * 6, c=2)
    result, _ = evaluate(queries, db, judge)
    assert result.value == 1.0 and result.excluded_queries == 0


def test_map_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    db_signs = random_signs(rng, 300, 32)
    query_signs = random_signs(rng, 50, 32)
    db = pack_codes(db_signs)
    queries = pack_codes(query_signs)
    query_classes = rng.integers(0, 4, 50)
    db_classes = rng.integers(0, 4, 300)
    judge = _judge_single_class(query_classes, db_classes, c=4)
    result, _ = evaluate(queries, db, judge)
    expected, excluded = oracle_map(queries, db, judge.query_labels, judge.db_labels)
    assert result.value == expected
    assert result.excluded_queries == excluded


def test_map_mismatched_code_length():
    a = pack_codes(np.ones((2, 8)))
    b = pack_codes(np.ones((2, 16)))
    judge = _judge_single_class([0, 0], [0, 0], c=1)
    with pytest.raises(ValidationError, match="code lengths differ"):
        evaluate(a, b, judge)


def test_map_all_empty_is_error():
    signs = np.ones((2, 8))
    judge = _judge_single_class([0, 0], [1, 1], c=2)
    with pytest.raises(EvaluationError):
        evaluate(pack_codes(signs), pack_codes(signs), judge)


def test_map_include_empty_flag():
    signs = np.ones((2, 8))
    judge = _judge_single_class([0, 1], [0, 0], c=2)
    strict, _ = evaluate(pack_codes(signs), pack_codes(signs), judge)
    padded, _ = evaluate(pack_codes(signs), pack_codes(signs), judge, include_empty=True)
    assert strict.value == 1.0 and strict.excluded_queries == 1
    assert padded.value == 0.5 and padded.excluded_queries == 0


def test_topn_all_relevant():
    rng = np.random.default_rng(8)
    signs = random_signs(rng, 10, 16)
    db = pack_codes(signs)
    queries = pack_codes(signs[:2])
    judge = _judge_single_class([0, 0], [0] * 10, c=1)
    _, curve = evaluate(queries, db, judge, include_empty=True, n_points=[10])
    assert curve == [(10, 1.0)]


def test_topn_monotone_relevance_toy():
    # all relevant items strictly closer than all irrelevant ones
    base = np.ones((1, 16))
    db_signs = np.vstack([np.ones((4, 16)), -np.ones((6, 16))])
    db = pack_codes(db_signs)
    queries = pack_codes(base)
    judge = _judge_single_class([0], [0] * 4 + [1] * 6, c=2)
    curve = dict(evaluate(queries, db, judge, include_empty=True, n_points=[1, 2, 3, 4, 6])[1])
    assert curve[1] == curve[2] == curve[3] == curve[4] == 1.0
    assert curve[6] == pytest.approx(4 / 6)


def test_topn_random_base_rate():
    rng = np.random.default_rng(9)
    p = 0.3
    db = pack_codes(random_signs(rng, 400, 32))
    queries = pack_codes(random_signs(rng, 200, 32))
    db_classes = (rng.random(400) > p).astype(int)  # class 0 with probability p
    judge = _judge_single_class([0] * 200, db_classes, c=2)
    (_, precision), = evaluate(queries, db, judge, include_empty=True, n_points=[100])[1]
    sigma = np.sqrt(p * (1 - p) / (100 * 200))
    assert abs(precision - p) < 3 * sigma + 0.02


def test_topn_matches_oracle_counts():
    rng = np.random.default_rng(10)
    db_signs = random_signs(rng, 60, 24)
    query_signs = random_signs(rng, 9, 24)
    db, queries = pack_codes(db_signs), pack_codes(query_signs)
    classes_q = rng.integers(0, 3, 9)
    classes_db = rng.integers(0, 3, 60)
    judge = _judge_single_class(classes_q, classes_db, c=3)
    for n_top, precision in evaluate(queries, db, judge, include_empty=True,
                                     n_points=[5, 20])[1]:
        total = 0.0
        for qi in range(9):
            ranked = oracle_rank(unpack_codes(queries)[qi], unpack_codes(db))
            rel = judge.relevance(qi)
            total += sum(rel[i] for i in ranked[:n_top]) / n_top
        assert precision == total / 9


def test_topn_validates_points():
    db = pack_codes(np.ones((3, 8)))
    queries = pack_codes(np.ones((1, 8)))
    judge = _judge_single_class([0], [0, 0, 0], c=1)
    with pytest.raises(ValidationError, match="top-N point 4 outside"):
        evaluate(queries, db, judge, include_empty=True, n_points=[4])


def test_cutoff_below_one_rejected():
    judge = _judge_single_class([0], [0, 0, 0], c=1)
    for cutoff in (0, -5):
        with pytest.raises(ValidationError, match="cutoff must be at least 1"):
            evaluate(*ranked_codes(3), judge, cutoff=cutoff)


# ----------------------------------------------------------- block engine

def _oracle_scores(queries, db, judge, cutoff, include_empty, n_points):
    """Query-by-query mAP (None if no query is kept) and top-N from the naive
    rank and AP oracles."""
    qb, dbb = unpack_codes(queries), unpack_codes(db)
    total, kept, excluded = 0.0, 0, 0
    sums = [0.0] * len(n_points)
    for qi in range(queries.n):
        ranked = oracle_rank(qb[qi], dbb)
        relevant = judge.relevance(qi)
        ap, empty = oracle_ap(ranked, relevant, cutoff)
        if empty and not include_empty:
            excluded += 1
        else:
            total += ap
            kept += 1
        for col, n_top in enumerate(n_points):
            sums[col] += int(sum(relevant[i] for i in ranked[:n_top])) / n_top
    curve = [(n_top, sums[col] / queries.n) for col, n_top in enumerate(n_points)]
    return (total / kept if kept else None), excluded, curve


@pytest.mark.parametrize("r", [8, 64, 96, 130])
@pytest.mark.parametrize("n_query", [1, 4, 11])
def test_block_engine_matches_oracles(monkeypatch, r, n_query):
    # four queries per block: 4 is one block, 11 straddles two block boundaries
    n_db, points = 90, [1, 7, 90]
    monkeypatch.setattr(retrieval, "_BLOCK_CELLS", 4 * n_db)
    rng = np.random.default_rng(r * 100 + n_query)
    db = pack_codes(random_signs(rng, n_db, r))
    queries = pack_codes(random_signs(rng, n_query, r))
    ql = (rng.random((6, n_query)) < 0.2).astype(float)
    dl = (rng.random((6, n_db)) < 0.2).astype(float)
    judge = RelevanceJudge(ql, dl)
    for cutoff in (None, 5, 30):
        for include_empty in (False, True):
            want_map, want_excluded, want_curve = _oracle_scores(
                queries, db, judge, cutoff or n_db, include_empty, points)
            if want_map is None:
                with pytest.raises(EvaluationError):
                    evaluate(queries, db, judge, cutoff=cutoff, n_points=points)
                continue
            got, curve = evaluate(queries, db, judge, cutoff=cutoff,
                                  include_empty=include_empty, n_points=points)
            assert got.value == want_map and got.excluded_queries == want_excluded
            assert curve == want_curve
    for qi in range(n_query):
        ranked = rank_by_hamming(queries.words[qi], db)
        assert list(ranked) == oracle_rank(unpack_codes(queries)[qi], unpack_codes(db))


# ------------------------------------------------------------------ code files

def test_code_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    codes = pack_codes(random_signs(rng, 25, 70))
    path = tmp_path / "c.abc"
    write_codes(codes, path)
    back = read_codes(path)
    assert back.n == 25 and back.r == 70
    assert back.words.tobytes() == codes.words.tobytes()


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
