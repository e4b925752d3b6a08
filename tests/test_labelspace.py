import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense, semantic_affinity_block
from xmodhash import trainer
from xmodhash.dataio import RawLabelMatrix
from xmodhash.errors import ValidationError
from xmodhash.labelspace import normalize_labels


def labelset(values):
    return normalize_labels(RawLabelMatrix(np.asarray(values, dtype=float)))


def test_unit_column_is_fixed_point():
    ls = labelset([[1, 0], [0, 1], [0, 0]])
    assert np.array_equal(dense(ls)[1][:, 0], [1, 0, 0])


def test_multi_label_column_normalized():
    ls = labelset([[1, 1], [1, 0], [0, 1]])
    assert dense(ls)[1][:, 0] == pytest.approx([0.7071068, 0.7071068, 0.0], abs=1e-7)


def test_all_columns_unit_norm():
    rng = np.random.default_rng(0)
    l = (rng.random((6, 40)) < 0.4).astype(float)
    l[rng.integers(0, 6, 40), np.arange(40)] = 1.0
    ls = labelset(l)
    assert np.abs(np.linalg.norm(ls.normalized, axis=0) - 1.0).max() < 1e-12


def test_grams_are_the_label_products():
    # the first and last columns repeat; the second case has up to 24 labels
    # per column.  G, built from the 0/1 column sums, and L L^T (integers)
    # must equal the full-matrix values bit for bit.  L G^T and G G^T are
    # summed over the distinct columns weighted by their counts, so they
    # equal that product bit for bit and the n-column products to rounding
    rng = np.random.default_rng(3)
    many = (rng.random((24, 4000)) < rng.random((1, 4000))).astype(float)
    many[rng.integers(0, 24, 4000), np.arange(4000)] = 1.0
    for l in (np.array([[1, 1, 0, 1, 1], [0, 1, 1, 1, 0], [1, 0, 0, 1, 1]], dtype=float),
              many):
        ls = labelset(l)
        g = l / np.linalg.norm(l, axis=0, keepdims=True)
        assert dense(ls)[1].tobytes() == g.tobytes()
        assert ls.llt.tobytes() == (l @ l.T).tobytes()
        first = np.unique(ls.index, return_index=True)[1]
        p, g_u = l[:, first], g[:, first]
        assert ls.lgt.tobytes() == ((p * ls.counts) @ g_u.T).tobytes()
        assert ls.ggt.tobytes() == ((g_u * ls.counts) @ g_u.T).tobytes()
        assert np.all(np.abs(ls.lgt - l @ g.T) <= 1e-13 * np.abs(l @ g.T))
        assert np.all(np.abs(ls.ggt - g @ g.T) <= 1e-13 * np.abs(g @ g.T))


def test_normalize_labels_builds_no_c_by_n_matrix():
    # single-label c = 10, n = 80 000: one c x n float64 matrix is 6.1 MiB,
    # and a G built over all n columns would add it to the packed keys
    c, n = 10, 80_000
    rng = np.random.default_rng(5)
    l = np.zeros((c, n))
    l[rng.integers(0, c, n), np.arange(n)] = 1.0
    raw = RawLabelMatrix(l)
    tracemalloc.start()
    try:
        normalize_labels(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < c * n * 8


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_label_patterns_rebuild_the_labels(seed):
    # c up to 20 spans more than one packed byte per instance
    rng = np.random.default_rng(seed)
    c, n = rng.integers(1, 21), rng.integers(1, 60)
    l = (rng.random((c, n)) < rng.random()).astype(float)
    l[rng.integers(0, c, n), np.arange(n)] = 1.0
    ls = labelset(l)
    u = ls.patterns.shape[1]
    assert ls.index.shape == (n,)
    assert np.array_equal(ls.patterns[:, ls.index], l)
    assert np.array_equal(ls.normalized[:, ls.index], l / np.linalg.norm(l, axis=0))
    assert np.array_equal(ls.counts, np.bincount(ls.index, minlength=u))
    assert len({col.tobytes() for col in ls.patterns.T}) == u


def test_labelset_keeps_nothing_n_wide_but_the_index():
    # 3 distinct columns over n instances: only the n-entry row index may grow
    # with n; L and G as c x n float64 would add 160 bytes per instance
    n = 30_000
    l = np.tile(np.array([[1, 0, 1], [0, 1, 1]] + [[0, 0, 0]] * 8, dtype=float), n // 3)
    ls = labelset(l)
    assert ls.patterns.shape == (10, 3) and ls.n == n
    arrays = [v for v in vars(ls).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) <= 8 * n + 4096


def test_identical_columns_have_affinity_one():
    ls = labelset([[1, 1], [1, 1], [0, 0]])
    block = semantic_affinity_block(ls, [0], [1])
    assert block[0, 0] == pytest.approx(1.0)


def test_affinity_diagonal_is_one():
    ls = labelset([[1, 0, 1], [0, 1, 1]])
    block = semantic_affinity_block(ls, range(3), range(3))
    assert np.diag(block) == pytest.approx(np.ones(3))


def test_disjoint_classes_have_zero_affinity():
    ls = labelset([[1, 0], [0, 1]])
    assert semantic_affinity_block(ls, [0], [1])[0, 0] == 0.0


def test_affinity_matches_brute_force():
    ls = labelset([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    block = semantic_affinity_block(ls, range(3), range(3))
    g = dense(ls)[1]
    expected = np.array([[g[:, i] @ g[:, j] for j in range(3)] for i in range(3)])
    assert np.allclose(block, expected, atol=1e-15)


def test_affinity_out_of_range():
    ls = labelset([[1, 0], [0, 1]])
    with pytest.raises(ValidationError):
        semantic_affinity_block(ls, [0, 2], [0])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_affinity_entries_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    c, n = rng.integers(2, 6), rng.integers(2, 10)
    l = (rng.random((c, n)) < 0.5).astype(float)
    l[rng.integers(0, c, n), np.arange(n)] = 1.0
    block = semantic_affinity_block(labelset(l), range(n), range(n))
    assert block.min() >= 0.0 and block.max() <= 1.0 + 1e-12


def test_trainer_never_uses_affinity_block():
    # structural guard: training must stay free of pairwise-affinity calls
    source = inspect.getsource(trainer)
    assert "semantic_affinity_block" not in source
