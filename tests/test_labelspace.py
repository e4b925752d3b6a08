import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import semantic_affinity_block
from xmodhash import trainer
from xmodhash.dataio import RawLabelMatrix
from xmodhash.errors import ValidationError
from xmodhash.labelspace import label_patterns, normalize_labels


def labelset(values):
    return normalize_labels(RawLabelMatrix(np.asarray(values, dtype=float)))


def test_unit_column_is_fixed_point():
    ls = labelset([[1, 0], [0, 1], [0, 0]])
    assert np.array_equal(ls.normalized[:, 0], [1, 0, 0])


def test_multi_label_column_normalized():
    ls = labelset([[1, 1], [1, 0], [0, 1]])
    assert ls.normalized[:, 0] == pytest.approx([0.7071068, 0.7071068, 0.0], abs=1e-7)


def test_all_columns_unit_norm():
    rng = np.random.default_rng(0)
    l = (rng.random((6, 40)) < 0.4).astype(float)
    l[rng.integers(0, 6, 40), np.arange(40)] = 1.0
    ls = labelset(l)
    assert np.abs(np.linalg.norm(ls.normalized, axis=0) - 1.0).max() < 1e-12


def test_grams_are_the_label_products():
    ls = labelset([[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 0, 1]])
    l, g = ls.labels, ls.normalized
    assert np.array_equal(ls.llt, l @ l.T)
    assert np.array_equal(ls.lgt, l @ g.T)
    assert np.array_equal(ls.ggt, g @ g.T)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_label_patterns_rebuild_the_labels(seed):
    # c up to 20 spans more than one packed byte per instance
    rng = np.random.default_rng(seed)
    c, n = rng.integers(1, 21), rng.integers(1, 60)
    l = (rng.random((c, n)) < rng.random()).astype(float)
    l[rng.integers(0, c, n), np.arange(n)] = 1.0
    ls = labelset(l)
    patterns, counts, inverse = label_patterns(ls)
    u = patterns.n
    assert np.array_equal(patterns.labels[:, inverse], ls.labels)
    assert np.array_equal(patterns.normalized[:, inverse], ls.normalized)
    assert np.array_equal(counts, np.bincount(inverse, minlength=u))
    assert len({col.tobytes() for col in patterns.labels.T}) == u


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
    g = ls.normalized
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
