import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (fd_gradient, gradient_scale, naive_objective, objective_from_features,
                      random_feasible_latent, random_labelset)
from xmodhash import trainer
from xmodhash.errors import DegenerateDataError, ValidationError
from xmodhash.trainer import (ModelState, TrainConfig, constraint_residuals, init_state,
                              train, update_codes, update_label_projection, update_latent,
                              update_projection, update_rotation)


def cfg_for(r, n_modalities=1, **kw):
    kw.setdefault("lambdas", tuple(0.5 for _ in range(n_modalities)))
    return TrainConfig(r=r, **kw)


# ---------------------------------------------------------------- init_state

def test_init_is_deterministic():
    rng = np.random.default_rng(0)
    labels = random_labelset(rng, 3, 20)
    phix = [rng.standard_normal((5, 20))]
    a, a_phi_vt = init_state(phix, labels, cfg_for(4, seed=7))
    b, b_phi_vt = init_state(phix, labels, cfg_for(4, seed=7))
    assert a.latent.tobytes() == b.latent.tobytes()
    assert a.rotation.tobytes() == b.rotation.tobytes()
    assert a.label_proj.tobytes() == b.label_proj.tobytes()
    assert a.codes.tobytes() == b.codes.tobytes()
    assert a.proj[0].tobytes() == b.proj[0].tobytes()
    assert a_phi_vt[0].tobytes() == b_phi_vt[0].tobytes()


def test_init_satisfies_invariants():
    rng = np.random.default_rng(1)
    labels = random_labelset(rng, 4, 50)
    state, _ = init_state([rng.standard_normal((6, 50))], labels, cfg_for(8, seed=1))
    res = constraint_residuals(state)
    assert res["rotation"] < 1e-8
    assert res["latent_gram"] < 1e-8 * 50
    assert res["latent_balance"] < 1e-6 * np.sqrt(50)
    assert res["codes_binary"] == 0.0


def test_init_rejects_infeasible_code_length():
    rng = np.random.default_rng(2)
    labels = random_labelset(rng, 2, 6)
    with pytest.raises(ValidationError):
        init_state([rng.standard_normal((3, 6))], labels, cfg_for(6, seed=0))


# ---------------------------------------------------------- update_projection

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
    cfg = cfg_for(r, omega=0.7)
    m_hat = update_label_projection(v, rot, b, labels, cfg)
    l, g = labels.labels, labels.normalized

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
    cfg = cfg_for(r, omega=0.4)
    m_hat = update_label_projection(v, rot, b, labels, cfg)
    l, g = labels.labels, labels.normalized

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
    rot = np.eye(16)
    b = np.where(rng.random((16, 40)) < 0.5, -1.0, 1.0)
    assert update_label_projection(v, rot, b, labels, cfg_for(16)).shape == (16, 5)


# -------------------------------------------------------------- update_rotation

def _rotation_inputs(rng, r, c, n):
    labels = random_labelset(rng, c, n, multi=True)
    v = random_feasible_latent(rng, r, n)
    l, g = labels.labels, labels.normalized
    lead = r * (l @ g.T) @ (g @ v.T)          # c x r factor multiplying M from the right
    return labels, v, lead


def test_rotation_identity_target():
    rng = np.random.default_rng(8)
    labels, v, lead = _rotation_inputs(rng, 4, 6, 30)
    m = np.linalg.pinv(lead)                   # makes the Procrustes target I_r
    assert np.allclose(update_rotation(m, labels, v), np.eye(4), atol=1e-8)


def test_rotation_orthogonal_target():
    rng = np.random.default_rng(9)
    labels, v, lead = _rotation_inputs(rng, 4, 6, 30)
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    m = q @ np.linalg.pinv(lead)
    assert np.allclose(update_rotation(m, labels, v), q, atol=1e-8)


def test_rotation_beats_random_rotations():
    rng = np.random.default_rng(10)
    r, c, n = 6, 4, 40
    labels = random_labelset(rng, c, n, multi=True)
    v = random_feasible_latent(rng, r, n)
    m = rng.standard_normal((r, c))
    l, g = labels.labels, labels.normalized
    target = r * (m @ (l @ g.T)) @ (g @ v.T)
    best = update_rotation(m, labels, v)
    best_trace = np.sum(best * target)
    for _ in range(1000):
        q, rr = np.linalg.qr(rng.standard_normal((r, r)))
        q *= np.sign(np.diag(rr))
        assert np.sum(q * target) <= best_trace + 1e-9 * abs(best_trace)


def test_rotation_is_orthogonal():
    rng = np.random.default_rng(11)
    labels = random_labelset(rng, 3, 25)
    v = random_feasible_latent(rng, 5, 25)
    rot = update_rotation(rng.standard_normal((5, 3)), labels, v)
    assert np.abs(rot.T @ rot - np.eye(5)).max() < 1e-8


# ---------------------------------------------------------------- update_latent

def _latent_with_score(rng, r, n, z):
    """Call update_latent with inputs engineered so the score matrix equals z."""
    labels = random_labelset(rng, 2, n)
    cfg = TrainConfig(r=r, lambdas=(1.0,), seed=0)
    m = np.zeros((r, 2))
    rot = np.eye(r)
    v = update_latent(rot, m, labels, [z], [np.eye(r)], cfg,
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

def _identity_labelset(n):
    eye = np.eye(n)
    from xmodhash.dataio import RawLabelMatrix
    from xmodhash.labelspace import normalize_labels
    return normalize_labels(RawLabelMatrix(eye))


def test_codes_hand_case():
    labels = _identity_labelset(2)
    m = np.array([[0.5, -0.2], [0.0, 3.0]])
    assert np.array_equal(update_codes(m, labels), [[1.0, -1.0], [1.0, 1.0]])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_codes_elementwise_optimal(seed):
    rng = np.random.default_rng(seed)
    labels = _identity_labelset(4)
    m = rng.standard_normal((3, 4))
    b = update_codes(m, labels)
    ml = m @ labels.labels
    for flipped in (-1.0, 1.0):
        assert np.all((b - ml) ** 2 <= (flipped - ml) ** 2 + 1e-15)


def test_codes_match_exhaustive_search():
    rng = np.random.default_rng(17)
    labels = _identity_labelset(4)
    m = rng.standard_normal((3, 4))
    b = update_codes(m, labels)
    ml = m @ labels.labels
    ours = np.sum((b - ml) ** 2)
    best = min(np.sum((np.array(cand).reshape(3, 4) - ml) ** 2)
               for cand in itertools.product((-1.0, 1.0), repeat=12))
    assert ours == pytest.approx(best, rel=1e-12)


# --------------------------------------------------------------- objective_value

def _exact_fit_state():
    l = np.array([[1.0, 1, 0, 0], [0, 0, 1, 1]])
    from xmodhash.dataio import RawLabelMatrix
    from xmodhash.labelspace import normalize_labels
    labels = normalize_labels(RawLabelMatrix(l))
    m = np.array([[1.0, -1.0], [1.0, 1.0]])
    u = np.array([[1.0, 1, -1, -1], [1.0, 1, 1, 1]])
    p = np.random.default_rng(18).standard_normal((5, 2))
    state = ModelState(latent=u, rotation=np.eye(2), label_proj=m,
                       codes=m @ l, proj=[p])
    return state, labels, [p @ u]


def test_objective_zero_at_exact_fit():
    state, labels, phix = _exact_fit_state()
    cfg = TrainConfig(r=2, omega=0.3, lambdas=(0.8,))
    assert objective_from_features(state, labels, phix, cfg) == pytest.approx(0.0, abs=1e-8)


def test_objective_nonnegative_and_matches_dense():
    rng = np.random.default_rng(19)
    n, c, r, k = 30, 3, 4, 6
    for trial in range(20):
        labels = random_labelset(rng, c, n, multi=bool(trial % 2))
        v = random_feasible_latent(rng, r, n)
        rot = np.linalg.qr(rng.standard_normal((r, r)))[0]
        phix = [rng.standard_normal((k, n))]
        state = ModelState(latent=v, rotation=rot,
                           label_proj=rng.standard_normal((r, c)),
                           codes=np.where(rng.random((r, n)) < 0.5, -1.0, 1.0),
                           proj=[rng.standard_normal((k, r))])
        cfg = TrainConfig(r=r, omega=rng.random(), lambdas=(rng.random(),))
        fast = objective_from_features(state, labels, phix, cfg)
        dense = naive_objective(state, labels, phix, cfg)
        assert fast >= 0.0
        assert fast == pytest.approx(dense, rel=1e-9)


def test_objective_small_case_matches_dense():
    rng = np.random.default_rng(20)
    n, c, r = 6, 2, 2
    labels = random_labelset(rng, c, n)
    state = ModelState(latent=random_feasible_latent(rng, r, n),
                       rotation=np.linalg.qr(rng.standard_normal((r, r)))[0],
                       label_proj=rng.standard_normal((r, c)),
                       codes=np.where(rng.random((r, n)) < 0.5, -1.0, 1.0),
                       proj=[rng.standard_normal((3, r))])
    phix = [rng.standard_normal((3, n))]
    cfg = TrainConfig(r=r, omega=0.5, lambdas=(0.5,))
    assert objective_from_features(state, labels, phix, cfg) == pytest.approx(
        naive_objective(state, labels, phix, cfg), rel=1e-9)


# ------------------------------------------------------------------------ train

def test_train_monotone_descent(small_synth):
    # lambdas of 0 leave Y with rank c < r, so the latent step completes
    for lambdas in ((0.5, 0.5), (0.0, 0.0)):
        cfg = TrainConfig(r=16, lambdas=lambdas, max_iters=15, rel_tol=1e-30, seed=0)
        _, report = train([small_synth["phi1"].T, small_synth["phi2"].T],
                          small_synth["labels"], cfg)
        h = report.objective_history
        assert len(h) == report.iterations_run + 1
        for prev, cur in zip(h, h[1:]):
            assert cur <= prev + 1e-9 * abs(prev)


def test_train_keeps_every_latent_direction_at_full_rank(small_synth, monkeypatch):
    def no_completion(*args, **kwargs):
        raise AssertionError("latent step completed a full-rank score matrix")

    monkeypatch.setattr(trainer, "_complete_balanced_basis", no_completion)
    cfg = TrainConfig(r=16, seed=0)
    state, _ = train([small_synth["phi1"].T, small_synth["phi2"].T],
                     small_synth["labels"], cfg)
    res = constraint_residuals(state)
    assert res["latent_gram"] < 1e-8 * state.n
    assert res["latent_balance"] < 1e-6 * np.sqrt(state.n)


@pytest.mark.parametrize("max_iters, rel_tol", [(8, 1e-30), (30, 1e-3)])
def test_train_runs_one_p_step_per_latent(small_synth, monkeypatch, max_iters, rel_tol):
    # init_state fits P to the starting V and each later P step follows a
    # sweep that another sweep follows, so P is fit once to every V a
    # latent step reads
    calls = []

    def counted(phi_vt_t, n):
        calls.append(n)
        return update_projection(phi_vt_t, n)

    monkeypatch.setattr(trainer, "update_projection", counted)
    cfg = TrainConfig(r=8, max_iters=max_iters, rel_tol=rel_tol, seed=1)
    _, report = train([small_synth["phi1"].T, small_synth["phi2"].T],
                      small_synth["labels"], cfg)
    assert len(calls) == 2 * report.iterations_run


def test_train_history_ends_at_objective_value(small_synth):
    phix = [small_synth["phi1"].T, small_synth["phi2"].T]
    cfg = TrainConfig(r=12, max_iters=4, rel_tol=1e-30, seed=3)
    state, report = train(phix, small_synth["labels"], cfg)
    assert report.objective_history[-1] == objective_from_features(
        state, small_synth["labels"], phix, cfg)


def test_train_history_starts_at_objective_value(small_synth):
    phix = [small_synth["phi1"].T, small_synth["phi2"].T]
    cfg = TrainConfig(r=12, max_iters=2, rel_tol=1e-30, seed=3)
    _, report = train(phix, small_synth["labels"], cfg)
    start, _ = init_state(phix, small_synth["labels"], cfg)
    assert report.objective_history[0] == objective_from_features(
        start, small_synth["labels"], phix, cfg)


def test_train_final_state_feasible(small_synth):
    cfg = TrainConfig(r=12, max_iters=10, rel_tol=1e-30, seed=2)
    state, _ = train([small_synth["phi1"].T, small_synth["phi2"].T],
                     small_synth["labels"], cfg)
    res = constraint_residuals(state)
    assert res["rotation"] < 1e-8
    assert res["latent_gram"] < 1e-8 * state.n
    assert res["latent_balance"] < 1e-6 * np.sqrt(state.n)
    assert res["codes_binary"] == 0.0


def test_train_deterministic(small_synth):
    cfg = TrainConfig(r=8, max_iters=6, rel_tol=1e-30, seed=5)
    phix = [small_synth["phi1"].T, small_synth["phi2"].T]
    a_state, a_report = train(phix, small_synth["labels"], cfg)
    b_state, b_report = train(phix, small_synth["labels"], cfg)
    assert a_state.latent.tobytes() == b_state.latent.tobytes()
    assert a_state.codes.tobytes() == b_state.codes.tobytes()
    assert a_state.rotation.tobytes() == b_state.rotation.tobytes()
    assert a_report.objective_history == b_report.objective_history


def test_train_handles_multi_label_data():
    rng = np.random.default_rng(21)
    labels = random_labelset(rng, 4, 120, multi=True)
    phix = [rng.standard_normal((20, 120)), rng.standard_normal((15, 120))]
    cfg = TrainConfig(r=8, max_iters=5, rel_tol=1e-30, seed=3)
    state, report = train(phix, labels, cfg)
    h = report.objective_history
    for prev, cur in zip(h, h[1:]):
        assert cur <= prev + 1e-9 * abs(prev)
    res = constraint_residuals(state)
    assert res["latent_gram"] < 1e-8 * 120
    assert res["codes_binary"] == 0.0


def test_train_converges_with_loose_tolerance(small_synth):
    cfg = TrainConfig(r=8, max_iters=30, rel_tol=1e-3, seed=1)
    _, report = train([small_synth["phi1"].T, small_synth["phi2"].T],
                      small_synth["labels"], cfg)
    assert report.converged
    assert report.iterations_run < 30


def test_default_config_values():
    cfg = TrainConfig(r=32)
    assert cfg.omega == 0.5
    assert cfg.lambdas == (0.5, 0.5)
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
        with pytest.raises(ValidationError, match=f"lambdas must be >= 0 and finite, got {bad}"):
            TrainConfig(r=4, lambdas=(0.5, bad))
