import numpy as np
import pytest

from xmodhash.dataio import FeatureMatrix
from xmodhash.errors import DegenerateDataError, ValidationError
from xmodhash.kernelfeat import (KernelMap, estimate_width, fit_kernel, kernelize,
                                 select_anchors)


def fm(values, modality=0):
    return FeatureMatrix(np.asarray(values, dtype=np.float64), modality_id=modality)


def test_anchors_full_sample_is_permutation():
    rng = np.random.default_rng(0)
    x = fm(rng.standard_normal((12, 4)))
    anchors = select_anchors(x, 12, seed=9)
    assert sorted(map(tuple, anchors)) == sorted(map(tuple, x.values))


def test_anchors_deterministic():
    x = fm(np.random.default_rng(1).standard_normal((30, 5)))
    a = select_anchors(x, 10, seed=4)
    b = select_anchors(x, 10, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, select_anchors(x, 10, seed=5))


def test_anchors_distinct_rows():
    x = fm(np.arange(20.0).reshape(10, 2))
    anchors = select_anchors(x, 10, seed=0)
    assert len({tuple(row) for row in anchors}) == 10


def test_anchors_too_many():
    with pytest.raises(ValidationError):
        select_anchors(fm(np.zeros((3, 2))), 4, seed=0)


def test_width_mean_of_distances():
    # one training point sitting on an anchor, second anchor 4 away
    x = fm([[0.0, 0.0]])
    anchors = np.array([[0.0, 0.0], [4.0, 0.0]])
    assert estimate_width(x, anchors) == pytest.approx(2.0)


def test_width_degenerate():
    x = fm([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DegenerateDataError):
        estimate_width(x, np.array([[1.0, 1.0]]))


def test_width_scale_equivariant():
    rng = np.random.default_rng(2)
    values = rng.standard_normal((40, 3))
    anchors = rng.standard_normal((5, 3))
    base = estimate_width(fm(values), anchors)
    scaled = estimate_width(fm(3.5 * values), 3.5 * anchors)
    assert scaled == pytest.approx(3.5 * base, rel=1e-12)


def test_width_sampling_is_seeded():
    rng = np.random.default_rng(3)
    x = fm(rng.standard_normal((500, 3)))
    anchors = rng.standard_normal((4, 3))
    a = estimate_width(x, anchors, sample_cap=50, seed=1)
    b = estimate_width(x, anchors, sample_cap=50, seed=1)
    assert a == b


def test_kernel_value_at_anchor_is_one():
    anchors = np.array([[1.0, 2.0], [3.0, -1.0]])
    km = KernelMap(anchors, sigma=2.0)
    phi = kernelize(fm([[1.0, 2.0]]), km)
    # first pass stores the center; add it back to see the raw kernel value
    assert phi.values[0, 0] + km.center[0] == pytest.approx(1.0)


def test_kernel_scalar_value():
    km = KernelMap(np.array([[5.0]]), sigma=5.0)
    phi = kernelize(fm([[0.0]]), km)
    assert phi.values[0, 0] + km.center[0] == pytest.approx(np.exp(-0.5), abs=1e-6)


def test_training_pass_centers_columns():
    rng = np.random.default_rng(4)
    x = fm(rng.standard_normal((100, 3)))
    km, phi = fit_kernel(x, 10, seed=0)
    assert np.abs(phi.sum(axis=0)).max() < 1e-9 * 100
    # stored center equals the column mean of the raw kernel matrix
    raw = phi + km.center
    assert np.abs(km.center - raw.mean(axis=0)).max() < 1e-12


def test_query_pass_reuses_center():
    rng = np.random.default_rng(5)
    x = fm(rng.standard_normal((50, 3)))
    km, _ = fit_kernel(x, 8, seed=0)
    frozen = km.center.copy()
    kernelize(fm(rng.standard_normal((20, 3))), km)
    assert np.array_equal(km.center, frozen)


def test_raw_kernel_values_in_unit_interval():
    rng = np.random.default_rng(6)
    x = fm(rng.standard_normal((30, 4)))
    km, phi = fit_kernel(x, 6, seed=1)
    raw = phi + km.center
    assert np.all(raw > 0) and np.all(raw <= 1.0 + 1e-15)


def test_kernelize_is_row_independent():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((25, 4))
    anchors = rng.standard_normal((5, 4))
    km = KernelMap(anchors, sigma=1.5, center=np.zeros(5))
    phi = kernelize(fm(x), km).values
    perm = rng.permutation(25)
    phi_perm = kernelize(fm(x[perm]), km).values
    assert np.array_equal(phi_perm, phi[perm])


def test_dimension_mismatch():
    km = KernelMap(np.zeros((2, 3)) + 1.0, sigma=1.0)
    with pytest.raises(ValidationError):
        kernelize(fm(np.ones((4, 2))), km)


def test_kernel_map_validation():
    with pytest.raises(ValidationError):
        KernelMap(np.ones((2, 2)), sigma=0.0)
    with pytest.raises(ValidationError):
        KernelMap(np.array([[np.inf, 0.0]]), sigma=1.0)
