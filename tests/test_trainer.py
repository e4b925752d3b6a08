import itertools
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collective_trainer
from collective_trainer import (CollectiveState, constraint_residuals, init_collective,
                                init_rotation_and_projection, latent_of,
                                objective_from_features, train_collective, update_latent,
                                update_projection, update_rotation)
from conftest import (dense, fd_gradient, gradient_scale, naive_objective,
                      random_feasible_latent, random_labelset)
from xmodhash.errors import DegenerateDataError, NumericalError, ValidationError
from xmodhash.rng import component_rng
from xmodhash.trainer import (TrainConfig, init_state, objective_value, train, update_codes,
                              update_label_projection)


# ---------------------------------------------------------------- init_state

def test_init_is_deterministic():
    # M_0 is the first r x c draw of the seed's init stream; the reference
    # trainer draws the same M_0 and then its R_0: both start at one M_0
    rng = np.random.default_rng(0)
    labels = random_labelset(rng, 3, 20)
    m = init_state(labels, TrainConfig(r=4, seed=7))
    assert init_state(labels, TrainConfig(r=4, seed=7)).tobytes() == m.tobytes()
    stream = component_rng(7, "init")
    assert m.tobytes() == stream.standard_normal((4, 3)).tobytes()
    q, rr = np.linalg.qr(stream.standard_normal((4, 4)))
    rot, m_ref = init_rotation_and_projection(labels, TrainConfig(r=4, seed=7))
    assert rot.tobytes() == (q * np.sign(np.diag(rr))).tobytes()
    assert m_ref.tobytes() == m.tobytes()


def _start_of(labels, cfg):
    """The seeded start's M_0, its V_0, and B_0 = sign(M_0 L)."""
    m = init_state(labels, cfg)
    return m, latent_of(m, labels, cfg), update_codes(m, dense(labels)[0])


def test_init_satisfies_invariants():
    rng = np.random.default_rng(1)
    labels = random_labelset(rng, 4, 50)
    res = constraint_residuals(*_start_of(labels, TrainConfig(r=8, seed=1))[1:])
    rot = init_rotation_and_projection(labels, TrainConfig(r=8, seed=1))[0]
    assert np.abs(rot.T @ rot - np.eye(8)).max() < 1e-8
    assert res["latent_gram"] < 1e-8 * 50
    assert res["latent_balance"] < 1e-6 * np.sqrt(50)
    assert res["codes_binary"] == 0.0


def test_init_rejects_infeasible_code_length():
    rng = np.random.default_rng(2)
    labels = random_labelset(rng, 2, 6)
    with pytest.raises(ValidationError):
        init_state(labels, TrainConfig(r=6, seed=0))


# -------------------------------------- update_projection (reference trainer)

def test_projection_recovers_exact_factor():
    rng = np.random.default_rng(3)
    v = random_feasible_latent(rng, 4, 30)
    p_true = rng.standard_normal((7, 4))
    assert np.allclose(update_projection(p_true @ v @ v.T, 30), p_true, atol=1e-10)


def test_projection_hand_case():
    v = np.array([[1.0, -1.0]])
    phix = np.array([[2.0, 4.0]])
    assert update_projection(phix @ v.T, 2)[0, 0] == pytest.approx(-1.0)


def test_projection_gradient_vanishes():
    rng = np.random.default_rng(4)
    v = random_feasible_latent(rng, 3, 12)
    phix = rng.standard_normal((6, 12))
    p_hat = update_projection(phix @ v.T, 12)

    def f(p):
        return float(np.sum((phix - p @ v) ** 2))

    scale = gradient_scale(f, p_hat, rng)
    assert np.abs(fd_gradient(f, p_hat)).max() < 1e-6 * scale


# ---------------------------------------------------- update_label_projection

def test_label_projection_gradient_vanishes():
    rng = np.random.default_rng(5)
    n, c, r = 30, 3, 4
    labels = random_labelset(rng, c, n, multi=True)
    v = random_feasible_latent(rng, r, n)
    rot = np.linalg.qr(rng.standard_normal((r, r)))[0]
    b = np.where(rng.random((r, n)) < 0.5, -1.0, 1.0)
    cfg = TrainConfig(r=r, omega=0.7)
    l, g = dense(labels)
    m_hat = update_label_projection(rot @ v @ g.T, b @ l.T, labels, cfg)

    def f(m):
        big = (rot @ v).T @ (m @ l) - r * (g.T @ g)
        return float(np.sum(big ** 2) + cfg.omega * np.sum((b - m @ l) ** 2))

    scale = gradient_scale(f, m_hat, rng)
    assert np.abs(fd_gradient(f, m_hat)).max() < 1e-5 * scale


def test_label_projection_single_class_matches_line_search():
    rng = np.random.default_rng(6)
    n, r = 20, 3
    labels = random_labelset(rng, 1, n)
    assert labels.c == 1
    v = random_feasible_latent(rng, r, n)
    rot = np.linalg.qr(rng.standard_normal((r, r)))[0]
    b = np.where(rng.random((r, n)) < 0.5, -1.0, 1.0)
    cfg = TrainConfig(r=r, omega=0.4)
    l, g = dense(labels)
    m_hat = update_label_projection(rot @ v @ g.T, b @ l.T, labels, cfg)

    def f(m):
        big = (rot @ v).T @ (m @ l) - r * (g.T @ g)
        return float(np.sum(big ** 2) + cfg.omega * np.sum((b - m @ l) ** 2))

    # golden-section search along each coordinate around the returned optimum
    phi = (np.sqrt(5) - 1) / 2
    for i in range(r):
        lo, hi = m_hat[i, 0] - 2.0, m_hat[i, 0] + 2.0

        def f1(t, i=i):
            m = m_hat.copy()
            m[i, 0] = t
            return f(m)

        while hi - lo > 1e-10:
            mid1 = hi - phi * (hi - lo)
            mid2 = lo + phi * (hi - lo)
            if f1(mid1) < f1(mid2):
                hi = mid2
            else:
                lo = mid1
        assert (lo + hi) / 2 == pytest.approx(m_hat[i, 0], abs=1e-4)


def test_label_projection_shape():
    rng = np.random.default_rng(7)
    labels = random_labelset(rng, 5, 40)
    v = random_feasible_latent(rng, 16, 40)
    b = np.where(rng.random((16, 40)) < 0.5, -1.0, 1.0)
    l, g = dense(labels)
    assert update_label_projection(v @ g.T, b @ l.T, labels,
                                   TrainConfig(r=16)).shape == (16, 5)


def test_label_projection_solve_failure_names_the_solve():
    # a non-finite B L^T makes the right-hand side, and so the solve, non-finite
    rng = np.random.default_rng(8)
    labels = random_labelset(rng, 3, 20)
    v_gt, b_lt = np.zeros((4, 3)), np.full((4, 3), np.inf)
    with pytest.raises(NumericalError, match=r"^label-projection solve "):
        update_label_projection(v_gt, b_lt, labels, TrainConfig(r=4))


# --------------------------------------- update_rotation (reference trainer)

def _rotation_inputs(rng, r, c, n):
    labels = random_labelset(rng, c, n, multi=True)
    v = random_feasible_latent(rng, r, n)
    l, g = dense(labels)
    lead = r * (l @ g.T) @ (g @ v.T)          # c x r factor multiplying M from the right
    return labels, v, lead


def test_rotation_identity_target():
    rng = np.random.default_rng(8)
    labels, v, lead = _rotation_inputs(rng, 4, 6, 30)
    m = np.linalg.pinv(lead)                   # makes the Procrustes target I_r
    assert np.allclose(update_rotation(m, labels, v @ dense(labels)[1].T), np.eye(4),
                       atol=1e-8)


def test_rotation_orthogonal_target():
    rng = np.random.default_rng(9)
    labels, v, lead = _rotation_inputs(rng, 4, 6, 30)
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    m = q @ np.linalg.pinv(lead)
    assert np.allclose(update_rotation(m, labels, v @ dense(labels)[1].T), q, atol=1e-8)


def test_rotation_beats_random_rotations():
    rng = np.random.default_rng(10)
    r, c, n = 6, 4, 40
    labels = random_labelset(rng, c, n, multi=True)
    v = random_feasible_latent(rng, r, n)
    m = rng.standard_normal((r, c))
    l, g = dense(labels)
    target = r * (m @ (l @ g.T)) @ (g @ v.T)
    best = update_rotation(m, labels, v @ g.T)
    best_trace = np.sum(best * target)
    for _ in range(1000):
        q, rr = np.linalg.qr(rng.standard_normal((r, r)))
        q *= np.sign(np.diag(rr))
        assert np.sum(q * target) <= best_trace + 1e-9 * abs(best_trace)


def test_rotation_is_orthogonal():
    rng = np.random.default_rng(11)
    labels = random_labelset(rng, 3, 25)
    v = random_feasible_latent(rng, 5, 25)
    rot = update_rotation(rng.standard_normal((5, 3)), labels, v @ dense(labels)[1].T)
    assert np.abs(rot.T @ rot - np.eye(5)).max() < 1e-8


# ------------------------------------------ update_latent (reference trainer)

def _latent_with_score(rng, r, n, z):
    """Call update_latent with inputs engineered so the score matrix equals z."""
    labels = random_labelset(rng, 2, n)
    cfg = TrainConfig(r=r, seed=0)
    m = np.zeros((r, 2))
    rot = np.eye(r)
    v = update_latent(rot, m, labels, [z], [np.eye(r)], cfg, (1.0,),
                      rng=np.random.default_rng(99))
    return v


def test_latent_recovers_feasible_score_matrix():
    rng = np.random.default_rng(12)
    r, n = 4, 24
    v0 = random_feasible_latent(rng, r, n)
    v = _latent_with_score(rng, r, n, v0)
    assert np.sum(v * v0) == pytest.approx(n * r, rel=1e-9)


def test_latent_feasible_for_random_scores():
    rng = np.random.default_rng(13)
    for trial in range(5):
        r, n = 5, 35
        z = rng.standard_normal((r, n)) * 10.0 ** rng.integers(-2, 3)
        v = _latent_with_score(rng, r, n, z)
        assert np.abs(v @ v.T - n * np.eye(r)).max() < 1e-8 * n
        assert np.linalg.norm(v @ np.ones(n)) < 1e-6 * np.sqrt(n)


def test_latent_feasible_when_rank_deficient():
    rng = np.random.default_rng(14)
    r, n = 6, 30
    z = np.outer(rng.standard_normal(r), rng.standard_normal(n))  # rank 1
    v = _latent_with_score(rng, r, n, z)
    assert np.abs(v @ v.T - n * np.eye(r)).max() < 1e-8 * n
    assert np.linalg.norm(v @ np.ones(n)) < 1e-6 * np.sqrt(n)


def test_latent_feasible_for_graded_spectrum():
    # singular values spread over 16 decades straddle the rank cut; the
    # directions kept just above it must still be balanced and orthonormal
    rng = np.random.default_rng(22)
    r, n = 8, 60
    for trial in range(20):
        u = np.linalg.qr(rng.standard_normal((r, r)))[0]
        w = np.linalg.qr(rng.standard_normal((n, r)))[0]
        z = (u * 10.0 ** -rng.uniform(0, 16, r)) @ w.T
        v = _latent_with_score(rng, r, n, z)
        assert np.abs(v @ v.T - n * np.eye(r)).max() < 1e-8 * n
        assert np.linalg.norm(v @ np.ones(n)) < 1e-6 * np.sqrt(n)


def test_latent_beats_random_feasible_points():
    rng = np.random.default_rng(15)
    r, n = 5, 40
    z = rng.standard_normal((r, n))
    v_hat = _latent_with_score(rng, r, n, z)
    best = np.sum(v_hat * z)
    for _ in range(1000):
        sample = random_feasible_latent(rng, r, n)
        assert np.sum(sample * z) <= best + 1e-9 * abs(best)


def test_latent_degenerate_error():
    rng = np.random.default_rng(16)
    with pytest.raises(DegenerateDataError):
        _latent_with_score(rng, 4, 20, np.zeros((4, 20)))


# ----------------------------------------------------------------- update_codes

def test_codes_hand_case():
    m = np.array([[0.5, -0.2], [0.0, 3.0]])
    assert np.array_equal(update_codes(m, np.eye(2)), [[1.0, -1.0], [1.0, 1.0]])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_codes_elementwise_optimal(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, 4))
    b = update_codes(m, np.eye(4))
    ml = m @ np.eye(4)
    for flipped in (-1.0, 1.0):
        assert np.all((b - ml) ** 2 <= (flipped - ml) ** 2 + 1e-15)


def test_codes_match_exhaustive_search():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((3, 4))
    b = update_codes(m, np.eye(4))
    ml = m @ np.eye(4)
    ours = np.sum((b - ml) ** 2)
    best = min(np.sum((np.array(cand).reshape(3, 4) - ml) ** 2)
               for cand in itertools.product((-1.0, 1.0), repeat=12))
    assert ours == pytest.approx(best, rel=1e-12)


# --------------------------------------------------------------- objective_value

def _objective_of(m, latent, codes, labels, cfg):
    l, g = dense(labels)
    return objective_value(m, latent @ g.T, codes @ l.T, labels, cfg)


def _exact_fit_state():
    l = np.array([[1.0, 1, 0, 0], [0, 0, 1, 1]])
    from xmodhash.dataio import RawLabelMatrix
    from xmodhash.labelspace import normalize_labels
    labels = normalize_labels(RawLabelMatrix(l))
    m = np.array([[1.0, -1.0], [1.0, 1.0]])
    u = np.array([[1.0, 1, -1, -1], [1.0, 1, 1, 1]])
    p = np.random.default_rng(18).standard_normal((5, 2))
    state = CollectiveState(latent=u, rotation=np.eye(2), label_proj=m,
                            codes=m @ l, proj=[p])
    return state, labels, [p @ u]


def test_objective_zero_at_exact_fit():
    state, labels, phix = _exact_fit_state()
    cfg = TrainConfig(r=2, omega=0.3)
    assert objective_from_features(state, labels, phix, cfg, (0.8,)) == pytest.approx(
        0.0, abs=1e-8)
    assert _objective_of(state.label_proj, state.latent, state.codes, labels,
                         cfg) == pytest.approx(0.0, abs=1e-8)


def test_objective_nonnegative_and_matches_dense():
    rng = np.random.default_rng(19)
    n, c, r, k = 30, 3, 4, 6
    for trial in range(20):
        labels = random_labelset(rng, c, n, multi=bool(trial % 2))
        v = random_feasible_latent(rng, r, n)
        rot = np.linalg.qr(rng.standard_normal((r, r)))[0]
        phix = [rng.standard_normal((k, n))]
        state = CollectiveState(latent=v, rotation=rot,
                                label_proj=rng.standard_normal((r, c)),
                                codes=np.where(rng.random((r, n)) < 0.5, -1.0, 1.0),
                                proj=[rng.standard_normal((k, r))])
        cfg = TrainConfig(r=r, omega=rng.random())
        lambdas = (rng.random(),)
        fast = objective_from_features(state, labels, phix, cfg, lambdas)
        naive = naive_objective(state, labels, cfg, phix, lambdas)
        assert fast >= 0.0
        assert fast == pytest.approx(naive, rel=1e-9)
        ours = _objective_of(state.label_proj, rot @ v, state.codes, labels, cfg)
        assert ours >= 0.0
        assert ours == pytest.approx(naive_objective(state, labels, cfg), rel=1e-9)


def test_objective_small_case_matches_dense():
    rng = np.random.default_rng(20)
    n, c, r = 6, 2, 2
    labels = random_labelset(rng, c, n)
    state = CollectiveState(latent=random_feasible_latent(rng, r, n),
                            rotation=np.linalg.qr(rng.standard_normal((r, r)))[0],
                            label_proj=rng.standard_normal((r, c)),
                            codes=np.where(rng.random((r, n)) < 0.5, -1.0, 1.0),
                            proj=[rng.standard_normal((3, r))])
    phix = [rng.standard_normal((3, n))]
    cfg = TrainConfig(r=r, omega=0.5)
    assert objective_from_features(state, labels, phix, cfg, (0.5,)) == pytest.approx(
        naive_objective(state, labels, cfg, phix, (0.5,)), rel=1e-9)


# ------------------------------------------------------------------------ train

def test_train_monotone_descent(small_synth):
    # the labels alone leave Y with rank c < r, so the latent step completes;
    # the reference trainer at lambda > 0 has full rank
    cfg = TrainConfig(r=16, max_iters=15, rel_tol=1e-30, seed=0)
    phix = [small_synth["phi1"].T, small_synth["phi2"].T]
    for _, report in (train(small_synth["labels"], cfg),
                      train_collective(phix, small_synth["labels"], cfg, (0.5, 0.5))):
        h = report.objective_history
        assert len(h) == report.iterations_run + 1
        for prev, cur in zip(h, h[1:]):
            assert cur <= prev + 1e-9 * abs(prev)


def test_train_keeps_every_latent_direction_at_full_rank(small_synth, monkeypatch):
    # the start's score matrix comes from the labels alone and has rank below
    # r, so building V_0 completes once; every sweep's latent step, with the
    # features in its score, must not
    completions, at_start = [], []
    complete, init = collective_trainer._complete_balanced_basis, init_collective

    def counted_completion(*args, **kwargs):
        completions.append(args)
        return complete(*args, **kwargs)

    def counted_init(*args, **kwargs):
        start = init(*args, **kwargs)
        at_start.append(len(completions))
        return start

    monkeypatch.setattr(collective_trainer, "_complete_balanced_basis", counted_completion)
    monkeypatch.setattr(collective_trainer, "init_collective", counted_init)
    cfg = TrainConfig(r=16, seed=0)
    state, _ = train_collective([small_synth["phi1"].T, small_synth["phi2"].T],
                                small_synth["labels"], cfg, (0.5, 0.5))
    assert at_start == [1]
    assert len(completions) == 1, "latent step completed a full-rank score matrix"
    res = constraint_residuals(state.latent, state.codes)
    n = small_synth["labels"].n
    assert res["latent_gram"] < 1e-8 * n
    assert res["latent_balance"] < 1e-6 * np.sqrt(n)


@pytest.mark.parametrize("max_iters, rel_tol", [(8, 1e-30), (30, 1e-3)])
def test_train_runs_one_p_step_per_latent(small_synth, monkeypatch, max_iters, rel_tol):
    # the reference trainer's start fits P to the starting V and each later
    # P step follows a sweep that another sweep follows, so P is fit once to
    # every V a latent step reads
    calls = []

    def counted(phi_vt_t, n):
        calls.append(n)
        return update_projection(phi_vt_t, n)

    monkeypatch.setattr(collective_trainer, "update_projection", counted)
    cfg = TrainConfig(r=8, max_iters=max_iters, rel_tol=rel_tol, seed=1)
    _, report = train_collective([small_synth["phi1"].T, small_synth["phi2"].T],
                                 small_synth["labels"], cfg, (0.5, 0.5))
    assert len(calls) == 2 * report.iterations_run


def test_train_history_ends_at_objective_value(small_synth):
    labels = small_synth["labels"]
    phix = [small_synth["phi1"].T, small_synth["phi2"].T]
    cfg = TrainConfig(r=12, max_iters=4, rel_tol=1e-30, seed=3)
    state, report = train_collective(phix, labels, cfg, (0.5, 0.5))
    assert report.objective_history[-1] == objective_from_features(
        state, labels, phix, cfg, (0.5, 0.5))
    # the sweeps track V G^T, and the V rebuilt from the final M matches it
    # to rounding
    m, report = train(labels, cfg)
    assert report.objective_history[-1] == pytest.approx(
        _objective_of(m, latent_of(m, labels, cfg), update_codes(m, dense(labels)[0]),
                      labels, cfg), rel=1e-12)


def test_train_history_starts_at_objective_value(small_synth):
    labels = small_synth["labels"]
    phix = [small_synth["phi1"].T, small_synth["phi2"].T]
    cfg = TrainConfig(r=12, max_iters=2, rel_tol=1e-30, seed=3)
    _, report = train_collective(phix, labels, cfg, (0.5, 0.5))
    start, _ = init_collective(phix, labels, cfg)
    assert report.objective_history[0] == objective_from_features(
        start, labels, phix, cfg, (0.5, 0.5))
    _, report = train(labels, cfg)
    assert report.objective_history[0] == pytest.approx(
        _objective_of(*_start_of(labels, cfg), labels, cfg), rel=1e-12)


@pytest.mark.parametrize("case", ["single-label", "multi-label", "one pattern"])
def test_train_starts_at_the_latent_and_code_minimizer(case):
    # the start's V and B are the joint minimizer at the seeded M_0: no
    # random feasible V and B there do better
    rng = np.random.default_rng(33)
    n, r = 60, 6
    if case == "one pattern":
        l = np.zeros((3, n))
        l[1] = 1.0
        from xmodhash.dataio import RawLabelMatrix
        from xmodhash.labelspace import normalize_labels
        labels = normalize_labels(RawLabelMatrix(l))
    else:
        labels = random_labelset(rng, 4, n, multi=case == "multi-label")
    cfg = TrainConfig(r=r, max_iters=1, seed=8)
    _, report = train(labels, cfg)
    start = report.objective_history[0]
    m = init_state(labels, cfg)
    for _ in range(50):
        codes = np.where(rng.random((r, n)) < 0.5, -1.0, 1.0)
        worse = _objective_of(m, random_feasible_latent(rng, r, n), codes, labels, cfg)
        assert start <= worse + 1e-9 * abs(worse)


def test_train_final_state_feasible(small_synth):
    labels = small_synth["labels"]
    cfg = TrainConfig(r=12, max_iters=10, rel_tol=1e-30, seed=2)
    m, _ = train(labels, cfg)
    res = constraint_residuals(latent_of(m, labels, cfg), update_codes(m, dense(labels)[0]))
    assert res["latent_gram"] < 1e-8 * labels.n
    assert res["latent_balance"] < 1e-6 * np.sqrt(labels.n)
    assert res["codes_binary"] == 0.0


def test_train_deterministic(small_synth):
    cfg = TrainConfig(r=8, max_iters=6, rel_tol=1e-30, seed=5)
    labels = small_synth["labels"]
    a_m, a_report = train(labels, cfg)
    b_m, b_report = train(labels, cfg)
    # the model is M alone; the codes are rebuilt from it
    assert isinstance(a_m, np.ndarray) and a_m.shape == (8, labels.c)
    assert a_m.tobytes() == b_m.tobytes()
    l = dense(labels)[0]
    assert update_codes(a_m, l).tobytes() == update_codes(b_m, l).tobytes()
    assert a_report.objective_history == b_report.objective_history


def test_train_handles_multi_label_data():
    rng = np.random.default_rng(21)
    labels = random_labelset(rng, 4, 120, multi=True)
    cfg = TrainConfig(r=8, max_iters=5, rel_tol=1e-30, seed=3)
    m, report = train(labels, cfg)
    h = report.objective_history
    for prev, cur in zip(h, h[1:]):
        assert cur <= prev + 1e-9 * abs(prev)
    res = constraint_residuals(latent_of(m, labels, cfg), update_codes(m, dense(labels)[0]))
    assert res["latent_gram"] < 1e-8 * 120
    assert res["codes_binary"] == 0.0


def test_train_converges_with_loose_tolerance(small_synth):
    cfg = TrainConfig(r=8, max_iters=30, rel_tol=1e-3, seed=1)
    _, report = train(small_synth["labels"], cfg)
    assert report.converged
    assert report.iterations_run < 30


def _repeated_patterns(rng, c, n, u):
    """Labels drawn from u fixed multi-label patterns, so each repeats ~n/u times."""
    patterns = rng.random((c, u)) < 0.4
    patterns[rng.integers(0, c, u), np.arange(u)] = True
    from xmodhash.dataio import RawLabelMatrix
    from xmodhash.labelspace import normalize_labels
    return normalize_labels(RawLabelMatrix(patterns[:, rng.integers(0, u, n)].astype(float)))


def assert_close(expected, got):
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("case, r", [("single-label", 12), ("c above r", 4)])
def test_reference_with_rotation_frozen_at_identity_matches(case, r, monkeypatch):
    # the rotation only ever multiplies V, and R V is feasible whenever V is,
    # so the latent step's optimal R V, and with it M, the codes and every
    # objective value, are the same for every R: freezing R at I changes none
    # of them
    rng = np.random.default_rng(34)
    n = 240
    labels = (random_labelset(rng, 4, n) if case == "single-label"
              else random_labelset(rng, 12, n, multi=True))
    phix = [rng.standard_normal((6, n)), rng.standard_normal((5, n))]
    cfg = TrainConfig(r=r, max_iters=6, rel_tol=1e-30, seed=4)
    procrustes, procrustes_report = train_collective(phix, labels, cfg, (0.0, 0.0))

    monkeypatch.setattr(collective_trainer, "_haar_orthogonal", lambda _, size: np.eye(size))
    monkeypatch.setattr(collective_trainer, "update_rotation", lambda *_: np.eye(r))
    frozen, frozen_report = train_collective(phix, labels, cfg, (0.0, 0.0))
    assert np.array_equal(frozen.rotation, np.eye(r))
    assert not np.allclose(procrustes.rotation, np.eye(r))
    g = dense(labels)[1]
    assert_close(procrustes.label_proj, frozen.label_proj)
    assert_close(procrustes.rotation @ procrustes.latent @ g.T, frozen.latent @ g.T)
    assert np.array_equal(procrustes.codes, frozen.codes)
    assert np.allclose(frozen_report.objective_history, procrustes_report.objective_history,
                       rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("case, r", [
    ("single-label", 12), ("multi-label", 8), ("c above r", 4), ("repeated patterns", 10),
])
def test_label_space_path_matches_full_trainer(case, r):
    # train never forms V; the full factorization at lambda = 0 is its
    # oracle: same seeded start, same optimum of every step
    rng = np.random.default_rng(31)
    n = 240
    labels = {
        "single-label": lambda: random_labelset(rng, 4, n),
        "multi-label": lambda: random_labelset(rng, 5, n, multi=True),
        "c above r": lambda: random_labelset(rng, 12, n, multi=True),
        "repeated patterns": lambda: _repeated_patterns(rng, 5, n, 9),
    }[case]()
    phix = [rng.standard_normal((6, n)), rng.standard_normal((5, n))]
    cfg = TrainConfig(r=r, max_iters=6, rel_tol=1e-30, seed=4)
    full, full_report = train_collective(phix, labels, cfg, (0.0, 0.0))
    m, report = train(labels, cfg)
    l, g = dense(labels)
    latent, codes = latent_of(m, labels, cfg), update_codes(m, l)
    assert_close(full.label_proj, m)
    # train's V is the reference's R V
    assert_close(full.rotation @ full.latent @ g.T, latent @ g.T)
    assert np.array_equal(full.codes, codes)
    assert np.allclose(report.objective_history, full_report.objective_history,
                       rtol=1e-12, atol=0.0)
    assert (report.iterations_run, report.converged) == (6, False)
    res = constraint_residuals(latent, codes)
    assert res["latent_gram"] < 1e-8 * n
    assert res["latent_balance"] < 1e-6 * np.sqrt(n)
    assert res["codes_binary"] == 0.0


def test_label_space_path_trains_on_one_label_pattern():
    # one shared label vector leaves the latent step no signal: every V is
    # optimal, and both paths complete all r directions at random
    from xmodhash.dataio import RawLabelMatrix
    from xmodhash.labelspace import normalize_labels
    rng = np.random.default_rng(32)
    l = np.zeros((3, 50))
    l[0] = 1.0
    labels = normalize_labels(RawLabelMatrix(l))
    phix = [rng.standard_normal((4, 50)), rng.standard_normal((3, 50))]
    cfg = TrainConfig(r=4, max_iters=3, rel_tol=1e-30, seed=0)
    full, full_report = train_collective(phix, labels, cfg, (0.0, 0.0))
    m, report = train(labels, cfg)
    assert np.allclose(report.objective_history, full_report.objective_history,
                       rtol=1e-12, atol=0.0)
    codes = update_codes(m, dense(labels)[0])
    assert np.array_equal(codes, full.codes)
    res = constraint_residuals(latent_of(m, labels, cfg), codes)
    assert res["latent_gram"] < 1e-8 * 50
    assert res["latent_balance"] < 1e-6 * np.sqrt(50)


def test_default_config_values():
    cfg = TrainConfig(r=32)
    assert [f.name for f in fields(TrainConfig)] == ["r", "omega", "max_iters", "rel_tol",
                                                      "seed"]
    assert cfg.omega == 0.5
    assert cfg.max_iters == 30
    assert cfg.rel_tol == 1e-5


def test_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(r=0)
    with pytest.raises(ValidationError):
        TrainConfig(r=4, rel_tol=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(r=4, max_iters=0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match=f"omega must be >= 0 and finite, got {bad}"):
            TrainConfig(r=4, omega=bad)
