import tracemalloc

import numpy as np
import pytest

from dense_fit import fit_kernel_dense, fit_ridge_dense, kernelize
from xmodhash import kernelfeat
from xmodhash.dataio import FeatureMatrix
from xmodhash.encoder import fit_ridge_encoder
from xmodhash.errors import DegenerateDataError, ValidationError
from xmodhash.kernelfeat import KernelMap, estimate_width, fit_kernel, select_anchors


def fm(values):
    return FeatureMatrix(np.asarray(values, dtype=np.float64))


def test_anchors_full_sample_is_permutation():
    assert sorted(select_anchors(12, 12, seed=9)) == list(range(12))


def test_anchors_deterministic():
    a = select_anchors(30, 10, seed=4)
    assert np.array_equal(select_anchors(30, 10, seed=4), a)
    assert not np.array_equal(select_anchors(30, 10, seed=5), a)
    # each modality draws from its own stream
    assert not np.array_equal(select_anchors(30, 10, seed=4, modality=1),
                              select_anchors(30, 10, seed=4, modality=2))


def test_anchors_distinct_rows():
    anchors = select_anchors(1000, 500, seed=0)
    assert len(set(anchors)) == 500 and 0 <= anchors.min() and anchors.max() < 1000


def test_anchors_too_many():
    with pytest.raises(ValidationError, match="cannot sample 4 anchors from 3"):
        select_anchors(3, 4, seed=0)
    with pytest.raises(ValidationError, match="need at least one anchor"):
        select_anchors(3, 0, seed=0)


def test_width_mean_of_distances():
    # one training point sitting on an anchor, second anchor 4 away
    anchors = np.array([[0.0, 0.0], [4.0, 0.0]])
    assert estimate_width(np.array([[0.0, 0.0]]), anchors) == pytest.approx(2.0)


def test_width_degenerate():
    points = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DegenerateDataError):
        estimate_width(points, np.array([[1.0, 1.0]]))
    with pytest.raises(ValidationError, match="non-empty k x d"):
        estimate_width(points, np.array([1.0, 1.0]))


def test_width_scale_equivariant():
    rng = np.random.default_rng(2)
    values = rng.standard_normal((40, 3))
    anchors = rng.standard_normal((5, 3))
    base = estimate_width(values, anchors)
    scaled = estimate_width(3.5 * values, 3.5 * anchors)
    assert scaled == pytest.approx(3.5 * base, rel=1e-12)


def test_width_sampling_is_seeded():
    # more rows than the 2000-row sample cap, so the width samples; at the
    # cap it takes every row
    a = kernelfeat._width_sample(2500, 1, 0)
    assert len(set(a)) == 2000 and a.max() < 2500
    assert np.array_equal(kernelfeat._width_sample(2500, 1, 0), a)
    assert not np.array_equal(kernelfeat._width_sample(2500, 2, 0), a)
    assert not np.array_equal(kernelfeat._width_sample(2500, 1, 1),
                              kernelfeat._width_sample(2500, 1, 2))
    assert np.array_equal(kernelfeat._width_sample(2000, 1, 0), np.arange(2000))
    # the fit takes its width over the sampled rows
    rng = np.random.default_rng(3)
    x = fm(rng.standard_normal((2500, 3)))
    km, _, _ = fit_kernel(x, 4, 1, np.ones((1, 1)), np.zeros(2500, dtype=np.intp), modality=2)
    assert np.array_equal(km.anchors, x.values[select_anchors(2500, 4, 1, modality=2)])
    points = x.values[kernelfeat._width_sample(2500, 1, 2)]
    assert km.sigma == estimate_width(points, km.anchors)


def test_width_of_float32_rows_casts_only_the_sample(monkeypatch):
    # gathering before the float64 cast gives the same anchors and sigma and
    # never holds a float64 copy of every row; the training pass runs in
    # blocks of one step
    monkeypatch.setattr(kernelfeat, "_FIT_BLOCK_CELLS", kernelfeat._BLOCK_CELLS)
    rng = np.random.default_rng(4)
    x32 = FeatureMatrix(rng.standard_normal((40_000, 64)).astype(np.float32))
    x64 = FeatureMatrix(x32.values.astype(np.float64))
    codes, index = np.ones((1, 1)), np.zeros(40_000, dtype=np.intp)
    tracemalloc.start()
    try:
        km, _, _ = fit_kernel(x32, 50, 0, codes, index)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ref, _, _ = fit_kernel(x64, 50, 0, codes, index)
    assert km.sigma == ref.sigma and np.array_equal(km.anchors, ref.anchors)
    assert peak < x64.values.nbytes / 4


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fit_kernel_anchors_own_their_data(dtype):
    # the map copies its anchors out of the gathered rows, so it pins none
    # of the width sample
    rng = np.random.default_rng(12)
    x = FeatureMatrix(rng.standard_normal((60, 5)).astype(dtype))
    km, _, _ = fit_kernel(x, 7, 0, np.ones((1, 1)), np.zeros(60, dtype=np.intp))
    assert km.anchors.flags.owndata and km.anchors.shape == (7, 5)
    assert km.anchors.dtype == np.float64


@pytest.mark.parametrize("d, k", [(128, 500), (64, 1000), (128, 300)])
def test_width_equals_the_direct_expression(d, k):
    # the width's distances are the map's: (-2 x.a + ||x||^2) + ||a||^2, clipped
    rng = np.random.default_rng(d + k)
    points = rng.standard_normal((2000, d))
    anchors = points[rng.choice(2000, size=k, replace=False)]
    sq = (-2.0 * (points @ anchors.T)
          + np.sum(points * points, axis=1)[:, None]) + np.sum(anchors * anchors, axis=1)
    direct = np.sqrt(np.maximum(sq, 0.0))
    ours = kernelfeat._sq_distances(points, anchors, np.sum(anchors * anchors, axis=1),
                                    np.empty((2000, k)))
    assert np.array_equal(np.sqrt(ours), direct)
    assert estimate_width(points, anchors) == float(direct.mean())


def test_kernel_value_at_anchor_is_one():
    anchors = np.array([[1.0, 2.0], [3.0, -1.0]])
    km = KernelMap(anchors, sigma=2.0, center=np.zeros(2))
    phi = kernelize(fm([[1.0, 2.0]]), km)
    assert phi[0, 0] == pytest.approx(1.0)


def test_kernel_scalar_value():
    km = KernelMap(np.array([[5.0]]), sigma=5.0, center=np.zeros(1))
    phi = kernelize(fm([[0.0]]), km)
    assert phi[0, 0] == pytest.approx(np.exp(-0.5), abs=1e-6)


def reference_kernel(x, anchors, sigma):
    """exp(-d^2 / (2 sigma^2)) from explicit point-anchor differences."""
    d2 = np.sum((x[:, None, :] - anchors[None, :, :]) ** 2, axis=2)
    return np.exp(-d2 / (2.0 * sigma * sigma))


@pytest.mark.parametrize("cells", [20, 3])
def test_kernelize_matches_reference_across_block_boundaries(monkeypatch, cells):
    # 5 anchors: 20 cells give 4-row blocks, 3 cells fall back to 1-row blocks
    monkeypatch.setattr(kernelfeat, "_BLOCK_CELLS", cells)
    rng = np.random.default_rng(8)
    anchors = rng.standard_normal((5, 3))
    center = rng.random(5)
    km = KernelMap(anchors, sigma=1.5, center=center)
    block = max(1, cells // 5)
    for n in sorted({1, block - 1, block, block + 1, 3 * block + 2} - {0}):
        x = rng.standard_normal((n, 3))
        phi = kernelize(fm(x), km)
        assert phi.shape == (n, 5)
        assert np.abs(phi + center - reference_kernel(x, anchors, 1.5)).max() < 1e-12


def test_kernelize_float32_rows_match_float64(monkeypatch):
    monkeypatch.setattr(kernelfeat, "_BLOCK_CELLS", 12)
    rng = np.random.default_rng(9)
    km = KernelMap(rng.standard_normal((4, 3)), sigma=1.2, center=rng.random(4))
    x32 = rng.standard_normal((11, 3)).astype(np.float32)
    a = kernelize(FeatureMatrix(x32), km)
    b = kernelize(FeatureMatrix(x32.astype(np.float64)), km)
    assert a.dtype == np.float64
    assert np.array_equal(a, b)


def test_training_pass_centers_columns(monkeypatch):
    # against an all-ones code column the right-hand side is the column sums
    # of the centered features, which centering zeroes
    monkeypatch.setattr(kernelfeat, "_BLOCK_CELLS", 30)
    monkeypatch.setattr(kernelfeat, "_FIT_BLOCK_CELLS", 70)     # 6-row blocks
    rng = np.random.default_rng(4)
    x = fm(rng.standard_normal((100, 3)))
    km, _, rhs = fit_kernel(x, 10, 0, np.ones((100, 1)), np.arange(100))
    assert np.abs(rhs).max() < 1e-9 * 100
    # stored center equals the column mean of the raw kernel matrix
    raw = kernelize(x, KernelMap(km.anchors, km.sigma, center=np.zeros(10)))
    assert np.abs(km.center - raw.mean(axis=0)).max() < 1e-12


def test_query_pass_reuses_center():
    rng = np.random.default_rng(5)
    x = fm(rng.standard_normal((50, 3)))
    km, _, _ = fit_kernel(x, 8, 0, np.ones((50, 1)), np.arange(50))
    frozen = km.center.copy()
    kernelize(fm(rng.standard_normal((20, 3))), km)
    assert np.array_equal(km.center, frozen)


def test_raw_kernel_values_in_unit_interval():
    rng = np.random.default_rng(6)
    x = fm(rng.standard_normal((30, 4)))
    km, phi = fit_kernel_dense(x, 6, seed=1)
    raw = phi + km.center
    assert np.all(raw > 0) and np.all(raw <= 1.0 + 1e-15)


def test_kernelize_is_row_independent():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((25, 4))
    anchors = rng.standard_normal((5, 4))
    km = KernelMap(anchors, sigma=1.5, center=np.zeros(5))
    phi = kernelize(fm(x), km)
    perm = rng.permutation(25)
    phi_perm = kernelize(fm(x[perm]), km)
    assert np.array_equal(phi_perm, phi[perm])


def test_kernel_map_validation():
    with pytest.raises(ValidationError):
        KernelMap(np.ones((2, 2)), sigma=0.0, center=np.zeros(2))
    with pytest.raises(ValidationError):
        KernelMap(np.array([[np.inf, 0.0]]), sigma=1.0, center=np.zeros(1))
    with pytest.raises(ValidationError, match="center"):
        KernelMap(np.ones((2, 2)), sigma=1.0, center=None)
    with pytest.raises(ValidationError, match="expected \\(2,\\)"):
        KernelMap(np.ones((2, 2)), sigma=1.0, center=np.zeros(3))
    with pytest.raises(ValidationError, match="NaN or Inf"):
        KernelMap(np.ones((2, 2)), sigma=1.0, center=np.array([0.0, np.nan]))
    with pytest.raises(TypeError):
        KernelMap(np.ones((2, 2)), sigma=1.0)


def test_kernel_map_caches_anchor_norms():
    anchors = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 0.5]])
    km = KernelMap(anchors, sigma=1.0, center=np.zeros(3))
    assert np.array_equal(km.anchor_sq, [5.0, 10.0, 0.25])


def _codes(rng, n, r):
    return np.where(rng.random((n, r)) < 0.5, -1.0, 1.0)


# the map runs in steps of cells // k rows (one row minimum); a fit block is
# a whole number of steps.  Each row's code is codes[index[row]]: one code
# per row in order, or u < n distinct codes repeated in shuffled order
@pytest.mark.parametrize("n, k, cells, fit_cells, u", [
    pytest.param(7, 1, 4, 12, 7, id="7-1-4-12"),      # below one 12-row block, in 4-row steps
    pytest.param(12, 1, 4, 12, 12, id="12-1-4-12"),   # exactly one block
    pytest.param(6, 6, 12, 36, 6, id="6-6-12-36"),    # exactly one 6-row block, in 2-row steps
    pytest.param(11, 6, 12, 24, 11, id="11-6-12-24"),  # 4-row blocks, the last one partial
    pytest.param(40, 1, 4, 12, 40, id="40-1-4-12"),   # 12-row blocks, the last one partial
    pytest.param(5, 3, 2, 2, 5, id="5-3-2-2"),        # fewer cells than anchors: 1-row blocks
    pytest.param(40, 3, 6, 18, 7, id="40-3-6-18-7-codes"),   # 6-row blocks, 7 distinct codes
])
def test_streamed_fit_matches_the_dense_fit(monkeypatch, n, k, cells, fit_cells, u):
    monkeypatch.setattr(kernelfeat, "_BLOCK_CELLS", cells)
    monkeypatch.setattr(kernelfeat, "_FIT_BLOCK_CELLS", fit_cells)
    rng = np.random.default_rng(n * 10 + k)
    x = fm(rng.standard_normal((n, 3)))
    codes = _codes(rng, u, 5)
    index = np.arange(n) if u == n else rng.permutation(np.arange(n) % u)
    km, gram, rhs = fit_kernel(x, k, 2, codes, index)
    dense_km, phi = fit_kernel_dense(x, k, 2)
    assert np.array_equal(km.anchors, dense_km.anchors) and km.sigma == dense_km.sigma
    assert np.abs(km.center - dense_km.center).max() <= 1e-12
    proj = fit_ridge_encoder(gram, rhs, 0.5)
    dense_proj = fit_ridge_dense(phi, codes[index], 0.5)
    assert np.abs(proj - dense_proj).max() <= 1e-9 * np.abs(dense_proj).max()
    assert np.array_equal(kernelize(x, km) @ proj >= 0, phi @ dense_proj >= 0)


def test_fit_blocks_map_each_row_as_encode_does(monkeypatch):
    # BLAS may round a row differently by its place in a matrix product, so
    # the fit maps its rows in encode's steps: 7-row steps, 35-row blocks
    monkeypatch.setattr(kernelfeat, "_BLOCK_CELLS", 7 * 50)
    rng = np.random.default_rng(16)
    x = fm(rng.standard_normal((400, 128)))
    km = KernelMap(x.values[:50], sigma=16.0, center=np.zeros(50))
    fit_rows = np.vstack([phi.copy() for _, phi in kernelfeat._kernel_blocks(x, km, 35 * 50)])
    assert np.array_equal(fit_rows, kernelize(x, km))


def test_one_row_has_no_kernel_width():
    # k <= n makes the one row its own anchor, so every distance is 0
    x = fm([[1.0, -2.0]])
    with pytest.raises(DegenerateDataError):
        fit_kernel(x, 1, 0, np.ones((1, 3)), np.arange(1))


def test_streamed_fit_of_float32_rows_matches_float64(monkeypatch):
    monkeypatch.setattr(kernelfeat, "_BLOCK_CELLS", 12)
    monkeypatch.setattr(kernelfeat, "_FIT_BLOCK_CELLS", 24)     # 4-row blocks
    rng = np.random.default_rng(13)
    x32 = rng.standard_normal((11, 3)).astype(np.float32)
    codes = _codes(rng, 11, 4)
    ours = fit_kernel(FeatureMatrix(x32), 6, 0, codes, np.arange(11))
    ref = fit_kernel(FeatureMatrix(x32.astype(np.float64)), 6, 0, codes, np.arange(11))
    assert ours[0].center.tobytes() == ref[0].center.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(ours[1:], ref[1:]))
