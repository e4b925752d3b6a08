"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criterion 10 needs externally supplied real-data
features (see README) and is skipped when they are absent.
"""

import itertools
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from collective_trainer import (CollectiveState, constraint_residuals, latent_of,
                                objective_from_features, update_latent, update_projection,
                                update_rotation)
from conftest import (cli_env, dense, fd_gradient, gradient_scale, naive_objective,
                      oracle_map, pack_codes, random_feasible_latent, random_labelset,
                      ranked_codes, relevance)
from dense_fit import fit_kernel_dense, kernelize
from xmodhash import dataio
from xmodhash.dataio import FeatureMatrix, RawLabelMatrix
from xmodhash.encoder import encode, fit_pipeline
from xmodhash.labelspace import normalize_labels
from xmodhash.retrieval import evaluate, rank_by_hamming
from xmodhash.rng import component_rng
from xmodhash.trainer import (TrainConfig, objective_value, train, update_codes,
                              update_label_projection)

# ridge-to-label oracle baseline on the criterion-6 dataset, frozen before
# the hashing pipeline was built (see _ridge_label_oracle for the recipe)
FROZEN_ORACLE_MAP = {"i2t": 0.9998765429511451, "t2i": 0.9999213285687327}


def _report(criterion: int, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def _ap_from_scores(scores, relevant):
    ranked = np.argsort(-scores, kind="stable")
    hits = np.flatnonzero(relevant[ranked])
    if hits.size == 0:
        return None
    return sum((i + 1) / (int(rank) + 1) for i, rank in enumerate(hits)) / hits.size


def _ridge_label_oracle(data):
    """Continuous baseline: ridge-regress kernel features onto labels, rank by
    predicted-label dot products, and score with the same mAP definition."""
    predicted = {}
    for t, (km, phi, x_query) in enumerate(
            ((data["km1"], data["phi1"], data["x1_q"]),
             (data["km2"], data["phi2"], data["x2_q"])), start=1):
        gram = phi.T @ phi
        gram[np.diag_indices_from(gram)] += 1.0
        w = np.linalg.solve(gram, phi.T @ data["lab_tr"].T)
        predicted[f"db{t}"] = phi @ w
        predicted[f"q{t}"] = kernelize(x_query, km) @ w
    result = {}
    for task, (qs, dbs) in (("i2t", (predicted["q1"], predicted["db2"])),
                            ("t2i", (predicted["q2"], predicted["db1"]))):
        aps = [_ap_from_scores(qs[qi] @ dbs.T, data["relevant"][qi])
               for qi in range(qs.shape[0])]
        aps = [ap for ap in aps if ap is not None]
        result[task] = sum(aps) / len(aps)
    return result


@pytest.fixture(scope="module")
def pipeline():
    """Criterion-6 dataset and retrieval results for r in {16, 32, 64}."""
    start = time.perf_counter()
    x1_all, x2_all, raw = dataio.generate_synthetic(1200, 5, 32, 16, 0.3, seed=7)
    data = {
        "x1_tr": FeatureMatrix(x1_all.values[:1000], 1),
        "x1_q": FeatureMatrix(x1_all.values[1000:], 1),
        "x2_tr": FeatureMatrix(x2_all.values[:1000], 2),
        "x2_q": FeatureMatrix(x2_all.values[1000:], 2),
        "lab_tr": raw.values[:, :1000],
        "lab_q": raw.values[:, 1000:],
    }
    data["labels"] = normalize_labels(RawLabelMatrix(data["lab_tr"]))
    data["relevant"] = [(data["lab_q"][:, qi] @ data["lab_tr"]) > 0 for qi in range(200)]
    data["km1"], data["phi1"] = fit_kernel_dense(data["x1_tr"], 500, 0)
    data["km2"], data["phi2"] = fit_kernel_dense(data["x2_tr"], 1000, 0)

    def run_bits(r):
        enc, _, _ = fit_pipeline([data["x1_tr"], data["x2_tr"]], data["labels"],
                                 TrainConfig(r=r, seed=0), (500, 1000))
        db = {t: encode(data[f"x{t}_tr"], enc, t) for t in (1, 2)}
        queries = {t: encode(data[f"x{t}_q"], enc, t) for t in (1, 2)}
        return {
            "i2t": evaluate(queries[1], db[2], data["lab_q"], data["lab_tr"])[0].value,
            "t2i": evaluate(queries[2], db[1], data["lab_q"], data["lab_tr"])[0].value,
        }

    results = {}
    results[32] = run_bits(32)
    rng = component_rng(0, "random-baseline")
    db_rand = pack_codes(np.where(rng.random((1000, 32)) < 0.5, -1.0, 1.0))
    q_rand = pack_codes(np.where(rng.random((200, 32)) < 0.5, -1.0, 1.0))
    random_map = evaluate(q_rand, db_rand, data["lab_q"], data["lab_tr"])[0].value
    oracle = _ridge_label_oracle(data)
    # generation, kernelization, the r=32 pipeline, and both baselines
    data["criterion6_seconds"] = time.perf_counter() - start
    results[16] = run_bits(16)
    results[64] = run_bits(64)
    data["results"] = results
    data["random_map"] = random_map
    data["oracle"] = oracle
    data["setup_seconds"] = time.perf_counter() - start
    return data


def test_criterion_1_constraint_suite():
    start = time.perf_counter()
    _, _, raw = dataio.generate_synthetic(500, 5, 32, 16, 0.3, seed=0)
    labels = normalize_labels(raw)
    worst = {}
    for r in (16, 32):
        cfg = TrainConfig(r=r, seed=0)
        m, _ = train(labels, cfg)
        res = constraint_residuals(latent_of(m, labels, cfg), update_codes(m, raw.values))
        worst[r] = res
        assert res["latent_gram"] < 1e-8 * 500
        assert res["latent_balance"] < 1e-6 * np.sqrt(500)
        assert res["codes_binary"] == 0.0
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    _report(1, ok, f"gram<={max(w['latent_gram'] for w in worst.values()):.1e}, "
                   f"balance<={max(w['latent_balance'] for w in worst.values()):.1e}, "
                   f"{elapsed:.1f}s")


def test_criterion_2_monotone_descent():
    worst_increase = -np.inf
    for seed in range(5):
        _, _, raw = dataio.generate_synthetic(500, 5, 32, 16, 0.3, seed=seed)
        labels = normalize_labels(raw)
        cfg = TrainConfig(r=16, max_iters=30, rel_tol=1e-30, seed=seed)
        _, report = train(labels, cfg)
        h = report.objective_history
        assert report.iterations_run == 30
        for prev, cur in zip(h, h[1:]):
            worst_increase = max(worst_increase, (cur - prev) / abs(prev))
            assert cur - prev <= 1e-9 * abs(prev)
    _report(2, worst_increase <= 1e-9, f"worst relative increase {worst_increase:.2e}")


def test_criterion_3_substep_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(0)

    # P-step (reference trainer) and M-step: vanishing finite-difference gradients
    v = random_feasible_latent(rng, 3, 12)
    phix = rng.standard_normal((6, 12))
    p_hat = update_projection(phix @ v.T, 12)
    f_p = lambda p: float(np.sum((phix - p @ v) ** 2))
    rel_p = np.abs(fd_gradient(f_p, p_hat)).max() / gradient_scale(f_p, p_hat, rng)
    assert rel_p < 1e-5

    n, c, r = 30, 3, 4
    labels = random_labelset(rng, c, n, multi=True)
    v = random_feasible_latent(rng, r, n)
    rot = np.linalg.qr(rng.standard_normal((r, r)))[0]
    b = np.where(rng.random((r, n)) < 0.5, -1.0, 1.0)
    cfg = TrainConfig(r=r, omega=0.5)
    l, g = dense(labels)
    m_hat = update_label_projection(rot @ v @ g.T, b @ l.T, labels, cfg)

    def f_m(m):
        big = (rot @ v).T @ (m @ l) - r * (g.T @ g)
        return float(np.sum(big ** 2) + cfg.omega * np.sum((b - m @ l) ** 2))

    rel_m = np.abs(fd_gradient(f_m, m_hat)).max() / gradient_scale(f_m, m_hat, rng)
    assert rel_m < 1e-5

    # R-step (reference trainer): trace at the Procrustes solution beats 1000
    # random rotations
    m = rng.standard_normal((r, c))
    target = r * (m @ (l @ g.T)) @ (g @ v.T)
    rot_hat = update_rotation(m, labels, v @ g.T)
    best_trace = np.sum(rot_hat * target)
    for _ in range(1000):
        q, rr = np.linalg.qr(rng.standard_normal((r, r)))
        assert np.sum((q * np.sign(np.diag(rr))) * target) <= best_trace + 1e-9 * abs(best_trace)

    # V-step: inner product beats 1000 random feasible points, for the
    # reference trainer's step (lambda = 1, P = I, so Z is any r x n matrix)
    r_v, n_v = 5, 40
    z = rng.standard_normal((r_v, n_v))
    labels_v = random_labelset(rng, 2, n_v)
    cfg_v = TrainConfig(r=r_v)
    v_hat = update_latent(np.eye(r_v), np.zeros((r_v, 2)), labels_v, [z],
                          [np.eye(r_v)], cfg_v, (1.0,), rng=np.random.default_rng(1))
    best_score = np.sum(v_hat * z)
    for _ in range(1000):
        assert np.sum(random_feasible_latent(rng, r_v, n_v) * z) \
            <= best_score + 1e-9 * abs(best_score)

    # and for train's own step (the V that latent_of rebuilds from M) on its
    # score Z = A G, with c >= r multi-label labels
    c_v = 7
    labels_v = random_labelset(rng, c_v, n_v, multi=True)
    m_v = rng.standard_normal((r_v, c_v))
    v_hat = latent_of(m_v, labels_v, cfg_v)
    z = r_v * (m_v @ labels_v.lgt) @ dense(labels_v)[1]
    best_score = np.sum(v_hat * z)
    for _ in range(1000):
        assert np.sum(random_feasible_latent(rng, r_v, n_v) * z) \
            <= best_score + 1e-9 * abs(best_score)

    # B-step: exhaustive enumeration over all 4096 sign matrices
    m_b = rng.standard_normal((3, 4))
    b_hat = update_codes(m_b, np.eye(4))
    ours = np.sum((b_hat - m_b) ** 2)
    best = min(np.sum((np.array(cand).reshape(3, 4) - m_b) ** 2)
               for cand in itertools.product((-1.0, 1.0), repeat=12))
    assert ours <= best + 1e-12

    elapsed = time.perf_counter() - start
    _report(3, elapsed < 120.0,
            f"P rel {rel_p:.1e}, M rel {rel_m:.1e}, R/V/B optimal, {elapsed:.1f}s")


def test_criterion_4_dense_oracle_equivalence():
    rng = np.random.default_rng(4)
    # the reference trainer's objective with reconstruction terms, and
    # train's own objective (lambda = 0), on the same states
    worst = 0.0
    for trial in range(20):
        n, c, r, k = int(rng.integers(10, 51)), 3, 4, 6
        labels = random_labelset(rng, c, n, multi=bool(trial % 2))
        state = CollectiveState(latent=random_feasible_latent(rng, r, n),
                                rotation=np.linalg.qr(rng.standard_normal((r, r)))[0],
                                label_proj=rng.standard_normal((r, c)),
                                codes=np.where(rng.random((r, n)) < 0.5, -1.0, 1.0),
                                proj=[rng.standard_normal((k, r))])
        phix = [rng.standard_normal((k, n))]
        cfg = TrainConfig(r=r, omega=rng.random())
        lambdas = (rng.random(),)
        fast = objective_from_features(state, labels, phix, cfg, lambdas)
        naive = naive_objective(state, labels, cfg, phix, lambdas)
        rel = abs(fast - naive) / abs(naive)
        worst = max(worst, rel)
        assert rel < 1e-9
        l, g = dense(labels)
        ours = objective_value(state.label_proj, state.rotation @ state.latent @ g.T,
                               state.codes @ l.T, labels, cfg)
        naive = naive_objective(state, labels, cfg)
        rel = abs(ours - naive) / abs(naive)
        worst = max(worst, rel)
        assert rel < 1e-9
    _report(4, worst < 1e-9, f"worst relative gap {worst:.2e} over 20 states, both objectives")


def test_criterion_5_metric_oracle():
    # hand-computed case: relevance [1, 0, 1, 0] down the ranking
    ql = np.array([[1.0], [0.0]])
    dl = np.array([[1.0, 0, 1, 0], [0.0, 1, 0, 1]])
    ap, _ = evaluate(*ranked_codes(4), ql, dl, cutoff=4)
    assert ap.value == pytest.approx(0.833333, abs=1e-6)

    rng = np.random.default_rng(5)
    exact = 0
    for pattern in range(10):
        db_signs = np.where(rng.random((300, 32)) < 0.5, -1.0, 1.0)
        q_signs = np.where(rng.random((50, 32)) < 0.5, -1.0, 1.0)
        db, queries = pack_codes(db_signs), pack_codes(q_signs)
        c = 4
        ql = np.zeros((c, 50))
        ql[rng.integers(0, c, 50), np.arange(50)] = 1
        dl = np.zeros((c, 300))
        dl[rng.integers(0, c, 300), np.arange(300)] = 1
        ours, _ = evaluate(queries, db, ql, dl)
        expected, excluded = oracle_map(queries, db, ql, dl)
        assert ours.value == expected and ours.excluded_queries == excluded
        top = dict(evaluate(queries, db, ql, dl, include_empty=True, n_points=[10, 50])[1])
        for n_top in (10, 50):
            total = 0.0
            for qi in range(50):
                ranked = rank_by_hamming(queries.words[qi], db)
                total += int(relevance(ql, dl, qi)[ranked[:n_top]].sum()) / n_top
            assert top[n_top] == total / 50
        exact += 1
    _report(5, exact == 10, f"{exact}/10 patterns matched brute force exactly")


def test_criterion_6_end_to_end_retrieval(pipeline):
    res = pipeline["results"][32]
    rand = pipeline["random_map"]
    live_oracle = pipeline["oracle"]
    checks = []
    for task in ("i2t", "t2i"):
        # the frozen constant guards against pipeline drift; the live value is
        # allowed tiny platform jitter in the continuous-score ranking
        assert abs(live_oracle[task] - FROZEN_ORACLE_MAP[task]) < 1e-3
        checks.append(res[task] - rand >= 0.40)
        checks.append(res[task] >= FROZEN_ORACLE_MAP[task] - 0.05)
    elapsed = pipeline["criterion6_seconds"]
    ok = all(checks) and elapsed < 60.0
    _report(6, ok, f"i2t {res['i2t']:.4f}, t2i {res['t2i']:.4f}, random {rand:.4f}, "
                   f"oracle {FROZEN_ORACLE_MAP['i2t']:.4f}/{FROZEN_ORACLE_MAP['t2i']:.4f}, "
                   f"{elapsed:.1f}s")


def test_criterion_7_code_length_trend(pipeline):
    r16 = pipeline["results"][16]
    r64 = pipeline["results"][64]
    ok = (r64["i2t"] >= r16["i2t"] - 0.02) and (r64["t2i"] >= r16["t2i"] - 0.02)
    _report(7, ok, f"r=16 i2t {r16['i2t']:.4f} t2i {r16['t2i']:.4f}; "
                   f"r=64 i2t {r64['i2t']:.4f} t2i {r64['t2i']:.4f}")


def test_criterion_8_scaling_and_memory():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "xmodhash", "bench",
         "--sizes", "2000,4000,8000,16000", "--bits", "32"],
        capture_output=True, text=True, cwd="/", env=cli_env())
    assert proc.returncode == 0, proc.stderr
    slope_line = [ln for ln in proc.stdout.splitlines() if ln.startswith("slope,32,")]
    slope = float(slope_line[0].split(",")[2])
    assert slope <= 1.25

    # memory discipline: peak allocation during train stays within the linear
    # budget (an n x n array alone would need 3.2 GB at this size)
    n, c, k, r = 20000, 10, 500, 32
    _, _, raw = dataio.generate_synthetic(n, c, 32, 16, 0.3, seed=0)
    labels = normalize_labels(raw)
    cfg = TrainConfig(r=r, max_iters=3, rel_tol=1e-300, seed=0)
    budget = 16 * n * (k + c + r)
    tracemalloc.start()
    train(labels, cfg)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    elapsed = time.perf_counter() - start
    ok = slope <= 1.25 and peak < budget and elapsed < 300.0
    _report(8, ok, f"slope {slope:.3f}, peak {peak / 1e6:.0f}MB of "
                   f"{budget / 1e6:.0f}MB budget, {elapsed:.0f}s")


def test_train_holds_no_code_sized_array_before_final_sign():
    # the start draws only M_0, and the sweeps run over the label
    # patterns, so the one r x n array is the final B = sign(M L)
    n, c, r = 20000, 10, 32
    _, _, raw = dataio.generate_synthetic(n, c, 32, 16, 0.3, seed=0)
    labels = normalize_labels(raw)
    cfg = TrainConfig(r=r, max_iters=3, rel_tol=1e-300, seed=0)
    tracemalloc.start()
    train(labels, cfg)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak <= 1.5 * 8 * r * n


def test_criterion_9_cli_determinism(tmp_path):
    def cli(*argv):
        proc = subprocess.run([sys.executable, "-m", "xmodhash", *argv],
                              capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    data = tmp_path / "data"
    cli("synth", "--n", "200", "--c", "4", "--seed", "11", "--out", str(data))
    common = ["--x1", str(data / "x1.amx"), "--x2", str(data / "x2.amx"),
              "--labels", str(data / "labels.amx"), "--bits", "16",
              "--k1", "64", "--k2", "64", "--max-iters", "5"]
    cli("train", *common, "--out", str(tmp_path / "a.amh"))
    cli("train", *common, "--out", str(tmp_path / "b.amh"))
    models_equal = (tmp_path / "a.amh").read_bytes() == (tmp_path / "b.amh").read_bytes()

    cli("encode", "--model", str(tmp_path / "a.amh"), "--features", str(data / "x1.amx"),
        "--modality", "1", "--out", str(tmp_path / "q.abc"))
    cli("encode", "--model", str(tmp_path / "a.amh"), "--features", str(data / "x2.amx"),
        "--modality", "2", "--out", str(tmp_path / "db.abc"))
    eval_args = ["eval", "--query-codes", str(tmp_path / "q.abc"),
                 "--db-codes", str(tmp_path / "db.abc"),
                 "--query-labels", str(data / "labels.amx"),
                 "--db-labels", str(data / "labels.amx"), "--topn", "10,50"]
    evals_equal = cli(*eval_args) == cli(*eval_args)
    ok = models_equal and evals_equal
    _report(9, ok, f"model archives identical: {models_equal}, "
                   f"eval output identical: {evals_equal}")


def test_criterion_10_real_data_reproduction():
    data_dir = os.environ.get("MIRFLICKR25K_DIR")
    if not data_dir:
        print("criterion 10: SKIP (set MIRFLICKR25K_DIR to run the real-data mode)")
        pytest.skip("MIRFLICKR25K_DIR not set; real-data mode needs external features")
    root = Path(data_dir)
    x1_tr = dataio.read_matrix(root / "train_img.amx")
    x2_tr = dataio.read_matrix(root / "train_txt.amx")
    lab_tr = dataio.read_labels(root / "train_labels.amx")
    labels = normalize_labels(lab_tr)
    x1_q = dataio.read_matrix(root / "query_img.amx")
    x2_q = dataio.read_matrix(root / "query_txt.amx")
    lab_q = dataio.read_labels(root / "query_labels.amx")

    enc, _, _ = fit_pipeline([x1_tr, x2_tr], labels, TrainConfig(r=128, seed=0), (500, 1000))
    i2t = evaluate(encode(x1_q, enc, 1), encode(x2_tr, enc, 2),
                   lab_q.values, lab_tr.values)[0].value
    t2i = evaluate(encode(x2_q, enc, 2), encode(x1_tr, enc, 1),
                   lab_q.values, lab_tr.values)[0].value
    ok = abs(i2t - 0.7523) <= 0.03 and abs(t2i - 0.8339) <= 0.03
    _report(10, ok, f"128-bit mAP i2t {i2t:.4f} (target 0.7523), "
                    f"t2i {t2i:.4f} (target 0.8339)")
