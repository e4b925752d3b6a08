import numpy as np
import pytest

from conftest import fd_gradient, gradient_scale, prep_modality
from xmodhash.dataio import FeatureMatrix, RawLabelMatrix, generate_synthetic
from xmodhash.encoder import HashEncoder, encode, fit_ridge_encoder
from xmodhash.errors import NumericalError, ValidationError
from xmodhash.kernelfeat import KernelMap
from xmodhash.labelspace import normalize_labels
from xmodhash.retrieval import unpack_codes
from xmodhash.trainer import TrainConfig, train


def test_identity_features_halve_codes():
    rng = np.random.default_rng(0)
    b = np.where(rng.random((5, 3)) < 0.5, -1.0, 1.0)
    p = fit_ridge_encoder(np.eye(5), b, ridge=1.0)
    assert np.allclose(p, b / 2.0, atol=1e-12)


def test_recovery_with_tiny_ridge():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 6))
    w = rng.standard_normal((6, 4))
    p = fit_ridge_encoder(x, x @ w, ridge=1e-10)
    assert np.abs(p - w).max() < 1e-6


def test_ridge_gradient_vanishes():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, 5))
    b = np.where(rng.random((20, 3)) < 0.5, -1.0, 1.0)
    ridge = 0.8
    p_hat = fit_ridge_encoder(x, b, ridge)

    def f(p):
        return float(np.sum((b - x @ p) ** 2) + ridge * np.sum(p ** 2))

    scale = gradient_scale(f, p_hat, rng)
    assert np.abs(fd_gradient(f, p_hat)).max() < 1e-6 * scale


def test_ridge_rejects_nonpositive_weight():
    with pytest.raises(ValidationError):
        fit_ridge_encoder(np.eye(2), np.ones((2, 1)), ridge=0.0)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_ridge_flags_numerical_failure():
    huge = np.full((3, 2), 1e308)
    with pytest.raises(NumericalError):
        fit_ridge_encoder(huge, np.ones((3, 1)), ridge=1.0)


def _fitted_encoder(rng):
    anchors = rng.standard_normal((6, 4))
    km = KernelMap(anchors, sigma=2.0, center=np.zeros(6))
    proj = rng.standard_normal((6, 8))
    return HashEncoder(proj=[proj], kernels=[km])


def test_encode_deterministic():
    rng = np.random.default_rng(3)
    enc = _fitted_encoder(rng)
    x = FeatureMatrix(rng.standard_normal((10, 4)))
    a = encode(x, enc, 1)
    b = encode(x, enc, 1)
    assert a.words.tobytes() == b.words.tobytes()


def test_negated_projection_flips_every_bit():
    rng = np.random.default_rng(4)
    enc = _fitted_encoder(rng)
    x = FeatureMatrix(rng.standard_normal((10, 4)))
    flipped = HashEncoder(proj=[-enc.proj[0]], kernels=enc.kernels)
    a = unpack_codes(encode(x, enc, 1))
    b = unpack_codes(encode(x, flipped, 1))
    assert np.array_equal(a, -b)


def test_encode_dimension_mismatch_names_dims():
    rng = np.random.default_rng(5)
    enc = _fitted_encoder(rng)
    with pytest.raises(ValidationError, match="4"):
        encode(FeatureMatrix(rng.standard_normal((3, 7))), enc, 1)


def test_encode_requires_frozen_center():
    rng = np.random.default_rng(6)
    km = KernelMap(rng.standard_normal((4, 3)), sigma=1.0)
    enc = HashEncoder(proj=[rng.standard_normal((4, 8))], kernels=[km])
    with pytest.raises(ValidationError):
        encode(FeatureMatrix(rng.standard_normal((2, 3))), enc, 1)


def test_training_bits_reproduced_on_clean_data():
    # threshold calibrated on seed 0: observed agreement is 1.0 on noise-free
    # synthetic data, so the 95% floor leaves plenty of margin
    x1, x2, raw = generate_synthetic(150, 5, 10, 8, 0.0, seed=0)
    labels = normalize_labels(raw)
    km1, phi1 = prep_modality(x1, 40, 0)
    km2, phi2 = prep_modality(x2, 40, 0)
    cfg = TrainConfig(r=16, max_iters=10, seed=0)
    state, _ = train([phi1.T, phi2.T], labels, cfg)
    for km, phi, modality, x in ((km1, phi1, 1, x1), (km2, phi2, 2, x2)):
        proj = fit_ridge_encoder(phi, state.codes.T, ridge=1.0)
        enc = HashEncoder(proj=[proj], kernels=[km])
        x_query = FeatureMatrix(x.values, modality_id=modality)
        bits = unpack_codes(encode(x_query, enc, 1)).astype(np.float64)
        agreement = np.mean(bits == state.codes.T)
        assert agreement >= 0.95


def test_duplicate_rows_train_and_encode():
    # every row appears twice and every row is an anchor, so each kernel
    # column has an identical twin; training and the ridge fits still solve
    x1, x2, raw = generate_synthetic(40, 4, 10, 8, 0.3, seed=2)
    labels = normalize_labels(RawLabelMatrix(np.hstack([raw.values, raw.values])))
    maps, phis, xs = [], [], []
    for modality, x in ((1, x1), (2, x2)):
        doubled = FeatureMatrix(np.vstack([x.values, x.values]), modality_id=modality)
        km, phi = prep_modality(doubled, 80, 0)
        assert len({tuple(row) for row in km.anchors}) == 40
        maps.append(km)
        phis.append(phi)
        xs.append(doubled)
    state, _ = train([phi.T for phi in phis], labels, TrainConfig(r=16, max_iters=5, seed=0))
    proj = [fit_ridge_encoder(phi, state.codes.T, ridge=1.0) for phi in phis]
    assert all(np.all(np.isfinite(p)) for p in proj)
    enc = HashEncoder(proj=proj, kernels=maps)
    for modality, x in ((1, xs[0]), (2, xs[1])):
        bits = unpack_codes(encode(x, enc, modality))
        assert np.array_equal(bits[:40], bits[40:])
