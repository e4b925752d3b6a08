"""Brute-force checks of the pipeline's outputs, independent of xmodhash.retrieval.

Codes are read straight from the documented ABC1 layout and unpacked to bits;
the distance is the count of disagreeing signs, ties go to the lower database
index, and average precision is a walk down the ranking one position at a
time.  The checks run on a fixed, seeded sample of queries per direction:

- ``xmodhash eval`` on just the sampled queries must give the oracle's mAP
  and top-N precision;
- the full run's mAP must beat the mAP of random codes over a larger seeded
  sample of the same queries and labels;
- each sampled lookup must return the code that bulk ``encode`` gave its row
  and the oracle's top-100 order.
"""

import struct
from pathlib import Path

import numpy as np

TOLERANCE = 1e-9


def read_abc(path):
    """ABC1 file -> (words n x ceil(r/64) uint64, r)."""
    buf = Path(path).read_bytes()
    n, r = struct.unpack_from("<QI", buf, 4)
    width = (r + 63) // 64
    return np.frombuffer(buf, dtype="<u8", count=n * width, offset=16).reshape(n, width), r


def write_abc(path, words, r):
    with open(path, "wb") as f:
        f.write(b"ABC1" + struct.pack("<QI", words.shape[0], r))
        f.write(np.ascontiguousarray(words, dtype="<u8").tobytes())


def read_amx(path):
    buf = Path(path).read_bytes()
    dtype = {0: "<f4", 1: "<f8"}[buf[4]]
    rows, cols = struct.unpack_from("<QQ", buf, 8)
    return np.frombuffer(buf, dtype=dtype, count=rows * cols, offset=24).reshape(rows, cols)


def write_amx(path, values):
    values = np.ascontiguousarray(values, dtype="<f8")
    with open(path, "wb") as f:
        f.write(b"AMX1" + bytes([1, 0, 0, 0]) + struct.pack("<QQ", *values.shape))
        f.write(values.tobytes())


def bits_of(words, r):
    """Unpacked 0/1 bits, n x r; bit j lives in word j // 64 at position j % 64."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8).reshape(words.shape[0], -1)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :r]


def ranking(query_bits, db_bits):
    """Database indices by sign disagreement, ties by ascending index."""
    dist = (db_bits != query_bits[None, :]).sum(axis=1)
    return np.lexsort((np.arange(db_bits.shape[0]), dist))


def rank_walk_ap(relevant_in_order):
    hits, total = 0, 0.0
    for rank, rel in enumerate(relevant_in_order.tolist(), start=1):
        if rel:
            hits += 1
            total += hits / rank
    return total / hits if hits else None


def random_code_map(rng, queries, r, db_n, query_labels, db_labels):
    """mAP of random codes for the given query columns, via cumulative hits."""
    db_bits = rng.integers(0, 2, (db_n, r), dtype=np.uint8)
    aps = []
    for q in queries:
        order = ranking(rng.integers(0, 2, r, dtype=np.uint8), db_bits)
        rel = ((query_labels[:, q] @ db_labels) > 0)[order]
        ranks = np.flatnonzero(rel) + 1
        if ranks.size:
            aps.append(float(np.mean(np.arange(1, ranks.size + 1) / ranks)))
    return sum(aps) / len(aps)


def oracle_scores(query_bits, db_bits, query_labels, db_labels, topn):
    """(mAP over queries with a relevant item, {N: mean precision at N})."""
    aps, prec = [], {n: 0.0 for n in topn}
    for q in range(query_bits.shape[0]):
        order = ranking(query_bits[q], db_bits)
        rel = ((query_labels[:, q] @ db_labels) > 0)[order]
        ap = rank_walk_ap(rel)
        if ap is not None:
            aps.append(ap)
        for n in topn:
            prec[n] += int(rel[:n].sum()) / n
    return sum(aps) / len(aps), {n: v / query_bits.shape[0] for n, v in prec.items()}


def check_outputs(p, rep, lookup_tops, seed, k, k_baseline):
    """Run every oracle check on one repetition's outputs; returns {name: passed}."""
    from workload import parse_metrics, run_cli

    w = p.w
    topn = [int(n) for n in w.topn.split(",")]
    query_labels = read_amx(p.inputs["query_labels"])
    db_labels = read_amx(p.inputs["db_labels"])
    rng = np.random.default_rng([seed, 0x0AC1E])
    sample = np.sort(rng.choice(len(lookup_tops), size=k, replace=False))
    baseline_sample = rng.choice(w.n_query, size=min(k_baseline, w.n_query), replace=False)
    sample_labels = p.out / "check_labels.amx"
    write_amx(sample_labels, query_labels[:, sample])
    checks = {}
    for task, query_name, db_name in (("i2t", "query_1", "db_2"), ("t2i", "query_2", "db_1")):
        query_words, r = read_abc(p.codes[query_name])
        db_words, _ = read_abc(p.codes[db_name])
        sample_codes = p.out / f"check_{task}.abc"
        write_abc(sample_codes, query_words[sample], r)
        _, code, stdout = run_cli(p.eval_argv(task, sample_codes, p.codes[db_name],
                                              sample_labels, p.inputs["db_labels"]))
        got = parse_metrics(stdout) if code == 0 else {}
        db_bits = bits_of(db_words, r)
        want_map, want_prec = oracle_scores(bits_of(query_words[sample], r), db_bits,
                                            query_labels[:, sample], db_labels, topn)
        checks[f"{task}.map_matches_oracle"] = abs(got.get("map", np.nan) - want_map) <= TOLERANCE
        checks[f"{task}.topn_matches_oracle"] = all(
            abs(got.get(f"precision_at_{n}", np.nan) - want_prec[n]) <= TOLERANCE for n in topn)
        random_map = random_code_map(rng, baseline_sample, r, db_bits.shape[0], query_labels,
                                     db_labels)
        checks[f"{task}.map_beats_random"] = rep["metrics"][task]["map"] > random_map

    query_words, r = read_abc(p.codes["query_1"])
    db_bits = bits_of(read_abc(p.codes["db_2"])[0], r)
    same_code, same_top = True, True
    for row in sample:
        words, top = lookup_tops[int(row)]
        same_code &= bool(np.array_equal(words, query_words[row]))
        want_top = ranking(bits_of(words[None, :], r)[0], db_bits)[:len(top)]
        same_top &= bool(np.array_equal(top, want_top))
    checks["lookup.code_matches_bulk_encode"] = same_code
    checks["lookup.top100_matches_oracle"] = same_top
    return checks
