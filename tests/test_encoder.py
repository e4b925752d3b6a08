import tracemalloc

import numpy as np
import pytest

from conftest import fd_gradient, gradient_scale, unpack_codes
from dense_fit import fit_ridge_dense
from xmodhash import encoder, kernelfeat
from xmodhash.cli import main
from xmodhash.dataio import (FeatureMatrix, RawLabelMatrix, generate_synthetic, load_model,
                             save_model, write_matrix)
from xmodhash.encoder import (REQUIRED_SECTIONS, HashEncoder, encode, fit_pipeline,
                              fit_ridge_encoder, from_archive, to_archive)
from xmodhash.errors import FormatError, NumericalError, ValidationError
from xmodhash.kernelfeat import KernelMap
from xmodhash.labelspace import normalize_labels
from xmodhash.trainer import TrainConfig, update_codes


def test_identity_features_halve_codes():
    rng = np.random.default_rng(0)
    b = np.where(rng.random((5, 3)) < 0.5, -1.0, 1.0)
    p = fit_ridge_dense(np.eye(5), b, ridge=1.0)
    assert np.allclose(p, b / 2.0, atol=1e-12)


def test_recovery_with_tiny_ridge():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 6))
    w = rng.standard_normal((6, 4))
    p = fit_ridge_dense(x, x @ w, ridge=1e-10)
    assert np.abs(p - w).max() < 1e-6


def test_ridge_gradient_vanishes():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, 5))
    b = np.where(rng.random((20, 3)) < 0.5, -1.0, 1.0)
    ridge = 0.8
    p_hat = fit_ridge_dense(x, b, ridge)

    def f(p):
        return float(np.sum((b - x @ p) ** 2) + ridge * np.sum(p ** 2))

    scale = gradient_scale(f, p_hat, rng)
    assert np.abs(fd_gradient(f, p_hat)).max() < 1e-6 * scale


def test_ridge_rejects_nonpositive_weight():
    with pytest.raises(ValidationError):
        fit_ridge_dense(np.eye(2), np.ones((2, 1)), ridge=0.0)


@pytest.mark.parametrize("ridge", [np.inf, np.nan])
def test_ridge_rejects_non_finite_weight(ridge):
    # an infinite weight would solve to P = 0, so every code bit would read +1
    with pytest.raises(ValidationError, match=f"ridge weight must be positive and finite, "
                                              f"got {ridge}"):
        fit_ridge_dense(np.eye(2), np.ones((2, 1)), ridge=ridge)


def test_ridge_checks_the_product_shapes():
    with pytest.raises(ValidationError, match=r"Gram matrix \(3, 3\) and right-hand side "
                                              r"\(2, 1\) disagree on feature count"):
        fit_ridge_encoder(np.eye(3), np.ones((2, 1)), ridge=1.0)
    with pytest.raises(ValidationError, match="disagree on feature count"):
        fit_ridge_encoder(np.ones((3, 2)), np.ones((3, 1)), ridge=1.0)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_ridge_flags_numerical_failure():
    huge = np.full((3, 2), 1e308)
    with pytest.raises(NumericalError):
        fit_ridge_dense(huge, np.ones((3, 1)), ridge=1.0)


def test_ridge_solve_failure_names_the_solve():
    # -I plus the ridge 1 is the zero matrix, which LAPACK cannot factor
    with pytest.raises(NumericalError, match=r"^ridge solve failed "):
        fit_ridge_encoder(-np.eye(2), np.ones((2, 1)), ridge=1.0)


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


def test_encoder_projection_rows_must_match_anchors():
    rng = np.random.default_rng(7)
    km = KernelMap(rng.standard_normal((6, 4)), sigma=1.0, center=np.zeros(6))
    with pytest.raises(ValidationError, match="5 projection rows, 6 anchors"):
        HashEncoder(proj=[rng.standard_normal((5, 8))], kernels=[km])


def test_encode_requires_frozen_center():
    rng = np.random.default_rng(6)
    anchors = rng.standard_normal((4, 3))
    with pytest.raises(TypeError):
        KernelMap(anchors, sigma=1.0)
    # the stored center is what encode subtracts before projecting
    center = rng.random(4)
    proj = rng.standard_normal((4, 8))
    enc = HashEncoder(proj=[proj], kernels=[KernelMap(anchors, sigma=1.0, center=center)])
    x = rng.standard_normal((9, 3))
    d2 = np.sum((x[:, None, :] - anchors[None, :, :]) ** 2, axis=2)
    expected = np.where((np.exp(-d2 / 2.0) - center) @ proj >= 0, 1, -1)
    assert np.array_equal(unpack_codes(encode(FeatureMatrix(x), enc, 1)), expected)


def test_bulk_encode_matches_row_at_a_time_across_blocks(monkeypatch):
    # 6 anchors and 18 cells: 3-row blocks, 11 rows end in a partial block
    monkeypatch.setattr(kernelfeat, "_BLOCK_CELLS", 18)
    rng = np.random.default_rng(10)
    enc = _fitted_encoder(rng)
    x = rng.standard_normal((11, 4))
    bulk = encode(FeatureMatrix(x), enc, 1)
    rows = [encode(FeatureMatrix(x[i:i + 1]), enc, 1).words for i in range(11)]
    assert bulk.words.tobytes() == np.vstack(rows).tobytes()


def test_encode_float32_rows_match_float64(monkeypatch):
    monkeypatch.setattr(kernelfeat, "_BLOCK_CELLS", 18)
    rng = np.random.default_rng(11)
    enc = _fitted_encoder(rng)
    x32 = rng.standard_normal((11, 4)).astype(np.float32)
    a = encode(FeatureMatrix(x32), enc, 1)
    b = encode(FeatureMatrix(x32.astype(np.float64)), enc, 1)
    assert a.words.tobytes() == b.words.tobytes()


def test_encode_memory_stays_below_one_kernel_matrix():
    rng = np.random.default_rng(12)
    n, d, k, r = 20000, 16, 256, 32
    km = KernelMap(rng.standard_normal((k, d)), sigma=4.0, center=np.zeros(k))
    enc = HashEncoder(proj=[rng.standard_normal((k, r))], kernels=[km])
    x = FeatureMatrix(rng.standard_normal((n, d)))
    tracemalloc.start()
    try:
        codes = encode(x, enc, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes.n == n
    assert peak < 0.5 * n * k * 8


def test_fit_pipeline_holds_one_kernel_matrix_at_a_time():
    # training reads the labels only, and each modality's kernel fit streams
    # its rows into the ridge products: no n x k matrix at any time
    n, k = 20000, 200
    x1, x2, raw = generate_synthetic(n, 4, 8, 6, 0.3, seed=0)
    labels = normalize_labels(raw)
    tracemalloc.start()
    try:
        fit_pipeline([x1, x2], labels, TrainConfig(r=8, max_iters=2, seed=0), (k, k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * n * k * 8


def test_fit_pipeline_peak_does_not_grow_with_the_training_codes():
    # training returns R and M only, and each kernel fit gathers its blocks'
    # codes by label pattern, so from 20 000 to 80 000 rows the peak grows by
    # far less than the 29.3 MiB of one more r x n float64 code array; at
    # k = 200 a fit block is 5 242 rows, so both sizes run full blocks
    def peak(n):
        x1, x2, raw = generate_synthetic(n, 10, 8, 4, 0.3, 3)
        labels = normalize_labels(raw)
        tracemalloc.start()
        try:
            fit_pipeline([x1, x2], labels, TrainConfig(r=64, max_iters=2, seed=0), (200, 200))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(80000) - peak(20000) < 4 * 2 ** 20


def test_training_bits_reproduced_on_clean_data():
    # threshold calibrated on seed 0: observed agreement is 1.0 on noise-free
    # synthetic data, so the 95% floor leaves plenty of margin
    x1, x2, raw = generate_synthetic(150, 5, 10, 8, 0.0, seed=0)
    labels = normalize_labels(raw)
    enc, m, _ = fit_pipeline([x1, x2], labels, TrainConfig(r=16, max_iters=10, seed=0),
                             (40, 40))
    codes = update_codes(m, raw.values)
    for modality, x in ((1, x1), (2, x2)):
        bits = unpack_codes(encode(x, enc, modality)).astype(np.float64)
        agreement = np.mean(bits == codes.T)
        assert agreement >= 0.95


def test_duplicate_rows_train_and_encode():
    # every row appears twice and every row is an anchor, so each kernel
    # column has an identical twin; training and the ridge fits still solve
    x1, x2, raw = generate_synthetic(40, 4, 10, 8, 0.3, seed=2)
    labels = normalize_labels(RawLabelMatrix(np.hstack([raw.values, raw.values])))
    xs = [FeatureMatrix(np.vstack([x.values, x.values])) for x in (x1, x2)]
    enc, _, _ = fit_pipeline(xs, labels, TrainConfig(r=16, max_iters=5, seed=0), (80, 80))
    assert all(len({tuple(row) for row in km.anchors}) == 40 for km in enc.kernels)
    assert all(np.all(np.isfinite(p)) for p in enc.proj)
    for modality, x in ((1, xs[0]), (2, xs[1])):
        bits = unpack_codes(encode(x, enc, modality))
        assert np.array_equal(bits[:40], bits[40:])


@pytest.fixture(scope="module")
def fitted():
    x1, x2, raw = generate_synthetic(120, 4, 10, 8, 0.3, seed=5)
    cfg = TrainConfig(r=16, max_iters=4, seed=5)
    labels = normalize_labels(raw)
    enc, m, report = fit_pipeline([x1, x2], labels, cfg, (30, 40), ridge=0.7)
    return {"xs": (x1, x2), "labels": labels, "cfg": cfg, "enc": enc, "m": m,
            "report": report}


def test_fit_pipeline_takes_the_modality_from_the_position(fitted):
    # modality_id is ignored: inputs tagged either way round fit the same map
    # and encoder as the untagged ones generate_synthetic returns
    assert [x.modality_id for x in fitted["xs"]] == [0, 0]
    for tags in ((1, 2), (2, 1)):
        tagged = [FeatureMatrix(x.values, modality_id=t) for x, t in zip(fitted["xs"], tags)]
        enc, _, _ = fit_pipeline(tagged, fitted["labels"], fitted["cfg"], (30, 40), ridge=0.7)
        for ours, untagged in zip(enc.kernels, fitted["enc"].kernels):
            assert np.array_equal(ours.anchors, untagged.anchors)
            assert ours.sigma == untagged.sigma
        assert all(np.array_equal(a, b) for a, b in zip(enc.proj, fitted["enc"].proj))


def test_archive_round_trip_encodes_identically(fitted, tmp_path):
    path = tmp_path / "m.amh"
    save_model(to_archive(fitted["enc"], fitted["m"], fitted["report"], fitted["cfg"],
                          0.7), path)
    loaded = from_archive(load_model(path))
    for modality, x in enumerate(fitted["xs"], start=1):
        ours = encode(x, fitted["enc"], modality).words
        assert encode(x, loaded, modality).words.tobytes() == ours.tobytes()


def test_archive_with_reconstruction_weights_encodes_identically(fitted, tmp_path):
    # archives written while training took the weights lambda_1 and lambda_2
    # still carry them; nothing reads them, so they load and encode as before
    archive = to_archive(fitted["enc"], fitted["m"], fitted["report"], fitted["cfg"], 0.7)
    archive.metadata.update(lambda_1="0.0", lambda_2="0.0")
    save_model(archive, tmp_path / "old.amh")
    loaded = from_archive(load_model(tmp_path / "old.amh"))
    for modality, x in enumerate(fitted["xs"], start=1):
        ours = encode(x, fitted["enc"], modality).words
        assert encode(x, loaded, modality).words.tobytes() == ours.tobytes()


def test_to_archive_writes_the_required_layout(fitted):
    archive = to_archive(fitted["enc"], fitted["m"], fitted["report"], fitted["cfg"], 0.7)
    assert tuple(archive.sections) == REQUIRED_SECTIONS
    n = fitted["labels"].n
    assert all(n not in values.shape for values in archive.sections.values())
    assert set(archive.metadata) == {"r", "omega", "lambda_h", "sigma_1", "sigma_2", "k_1",
                                     "k_2", "seed", "iterations", "converged",
                                     "objective_history"}
    assert archive.metadata["lambda_h"] == "0.7"
    assert (archive.metadata["k_1"], archive.metadata["k_2"]) == ("30", "40")


@pytest.mark.parametrize("edit, message", [
    (lambda a: a.sections.update(V=np.zeros((16, 120))), "unknown section name 'V'"),
    (lambda a: a.sections.pop("M"), "archive missing mandatory sections: M"),
    (lambda a: a.metadata.pop("sigma_1"), "archive missing metadata key sigma_1"),
    (lambda a: a.sections.update(P_1=np.zeros((30, 16))), "unknown section name 'P_1'"),
])
def test_from_archive_checks_the_layout(fitted, edit, message):
    archive = to_archive(fitted["enc"], fitted["m"], fitted["report"], fitted["cfg"], 0.7)
    edit(archive)
    with pytest.raises(FormatError) as caught:
        from_archive(archive)
    assert str(caught.value) == message


def test_archive_without_unread_metadata_encodes_identically(fitted, tmp_path):
    # encode reads sigma_t alone among the metadata keys
    archive = to_archive(fitted["enc"], fitted["m"], fitted["report"], fitted["cfg"], 0.7)
    for key in ("r", "omega", "seed", "iterations", "objective_history"):
        del archive.metadata[key]
    save_model(archive, tmp_path / "bare.amh")
    loaded = from_archive(load_model(tmp_path / "bare.amh"))
    for modality, x in enumerate(fitted["xs"], start=1):
        ours = encode(x, fitted["enc"], modality).words
        assert encode(x, loaded, modality).words.tobytes() == ours.tobytes()


def test_encode_names_the_archive_missing_a_kernel_width(fitted, tmp_path, capsys):
    archive = to_archive(fitted["enc"], fitted["m"], fitted["report"], fitted["cfg"], 0.7)
    del archive.metadata["sigma_2"]
    model, features, out = tmp_path / "m.amh", tmp_path / "x2.amx", tmp_path / "c.abc"
    save_model(archive, model)
    write_matrix(fitted["xs"][1], features)
    code = main(["encode", "--model", str(model), "--features", str(features),
                 "--modality", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {model}: archive missing metadata key sigma_2\n"
    assert not out.exists()


def test_to_archive_names_the_modality_count(fitted):
    x1, x2 = fitted["xs"]
    cfg = TrainConfig(r=8, max_iters=2)
    enc, m, report = fit_pipeline([x1, x2, x1], fitted["labels"], cfg, (10, 10, 10))
    with pytest.raises(ValidationError, match="a model archive holds 2 modalities, got 3"):
        to_archive(enc, m, report, cfg, 1.0)


@pytest.mark.parametrize("value", ["x.149", "", "abc"])
def test_from_archive_bad_sigma_is_format_error(fitted, value):
    archive = to_archive(fitted["enc"], fitted["m"], fitted["report"], fitted["cfg"], 0.7)
    archive.metadata["sigma_2"] = value
    with pytest.raises(FormatError, match="sigma_2"):
        from_archive(archive)


@pytest.mark.parametrize("kwargs, n_labels, message", [
    ({"ridge": 0.0}, 60, "ridge weight must be positive"),
    ({"k": (0, 10)}, 60, "modality 1 needs 1 to 60 anchors, got k=0"),
    ({"k": (10, 61)}, 60, "modality 2 needs 1 to 60 anchors, got k=61"),
    ({}, 59, "x1 has 60 instances but labels have 59"),
    ({"cfg": TrainConfig(r=60)}, 60, r"code length r=60 needs at least r\+1=61 instances"),
    ({"k": (10,)}, 60, "2 modalities need as many anchor counts, got 1"),
    ({"k": (10, 10, 10)}, 60, "2 modalities need as many anchor counts, got 3"),
    ({"ridge": np.inf}, 60, "ridge weight must be positive and finite, got inf"),
])
def test_fit_pipeline_checks_arguments_before_kernelizing(monkeypatch, kwargs, n_labels,
                                                          message):
    def no_kernel(*args, **kw):
        raise AssertionError("kernelized before the arguments were checked")

    def no_training(*args, **kw):
        raise AssertionError("trained before the arguments were checked")

    monkeypatch.setattr(kernelfeat, "select_anchors", no_kernel)
    monkeypatch.setattr(encoder, "train", no_training)
    x1, x2, raw = generate_synthetic(60, 3, 6, 5, 0.3, seed=1)
    labels = normalize_labels(RawLabelMatrix(raw.values[:, :n_labels]))
    with pytest.raises(ValidationError, match=message):
        fit_pipeline([x1, x2], labels, **{"cfg": TrainConfig(r=8, max_iters=2), "k": (10, 10),
                                          **kwargs})
