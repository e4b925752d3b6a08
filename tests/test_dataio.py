import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodhash import dataio
from xmodhash.dataio import (FeatureMatrix, ModelArchive, RawLabelMatrix,
                             generate_synthetic, load_model, read_labels,
                             read_matrix, save_model, write_matrix)
from xmodhash.errors import FormatError, ValidationError


def amx_bytes(values, dtype_code=1):
    values = np.asarray(values, dtype=np.float64 if dtype_code else np.float32)
    header = b"AMX1" + bytes([dtype_code, 0, 0, 0])
    header += struct.pack("<QQ", *values.shape)
    return header + values.astype(f"<f{8 if dtype_code else 4}").tobytes()


def test_read_matrix_identity(tmp_path):
    path = tmp_path / "m.amx"
    path.write_bytes(amx_bytes([[1.0, 2.0], [3.0, 4.0]]))
    m = read_matrix(path)
    assert np.array_equal(m.values, [[1.0, 2.0], [3.0, 4.0]])


def test_round_trip_bitwise(tmp_path):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((50, 7))
        path = tmp_path / f"m{seed}.amx"
        write_matrix(FeatureMatrix(values), path)
        back = read_matrix(path)
        assert back.values.dtype == np.float64
        assert back.values.tobytes() == values.tobytes()


def test_round_trip_preserves_f32(tmp_path):
    values = np.random.default_rng(0).standard_normal((4, 3)).astype(np.float32)
    path = tmp_path / "m.amx"
    write_matrix(FeatureMatrix(values), path)
    back = read_matrix(path)
    assert back.values.dtype == np.float32
    assert back.values.tobytes() == values.tobytes()


def test_truncated_payload_is_format_error(tmp_path):
    full = amx_bytes(np.zeros((3, 2)))
    path = tmp_path / "short.amx"
    path.write_bytes(full[:24 + 5 * 8])  # declares 3x2 but carries 5 values
    with pytest.raises(FormatError):
        read_matrix(path)


def test_trailing_bytes_are_format_error(tmp_path):
    path = tmp_path / "long.amx"
    path.write_bytes(amx_bytes(np.zeros((2, 2))) + b"junk")
    with pytest.raises(FormatError):
        read_matrix(path)


def test_bad_magic_is_format_error(tmp_path):
    path = tmp_path / "bad.amx"
    path.write_bytes(b"NOPE" + bytes(28))
    # falls through to the CSV parser, which cannot parse it either
    with pytest.raises(FormatError):
        read_matrix(path)


def test_nan_entry_is_validation_error(tmp_path):
    path = tmp_path / "nan.amx"
    path.write_bytes(amx_bytes([[np.nan]]))
    with pytest.raises(ValidationError):
        read_matrix(path)


def test_zero_dimension_rejected(tmp_path):
    with pytest.raises(ValidationError):
        write_matrix(np.zeros((0, 3)), tmp_path / "z.amx")


def test_single_value_file_size(tmp_path):
    # 24-byte header (magic, dtype, padding, two u64 dims) + one f64 value
    path = tmp_path / "one.amx"
    write_matrix(FeatureMatrix(np.array([[-0.5]])), path)
    assert path.stat().st_size == 32


def test_write_is_deterministic(tmp_path):
    values = np.random.default_rng(1).standard_normal((6, 5))
    write_matrix(FeatureMatrix(values), tmp_path / "a.amx")
    write_matrix(FeatureMatrix(values), tmp_path / "b.amx")
    assert (tmp_path / "a.amx").read_bytes() == (tmp_path / "b.amx").read_bytes()


def test_csv_labels(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("1,0\n0,1\n")
    labels = read_labels(path)
    assert np.array_equal(labels.values, np.eye(2))


def test_all_zero_label_column_names_index(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("1,0,1\n0,0,1\n")
    with pytest.raises(ValidationError, match="column 1"):
        read_labels(path)


def test_non_binary_label_rejected(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("1,2\n0,1\n")
    with pytest.raises(ValidationError):
        read_labels(path)


def test_csv_matrix_reads_floats(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.5,-2.0\n0.25,3.0\n")
    m = read_matrix(path)
    assert np.array_equal(m.values, [[1.5, -2.0], [0.25, 3.0]])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_property(tmp_path_factory, rows, cols, seed):
    values = np.random.default_rng(seed).standard_normal((rows, cols))
    path = tmp_path_factory.mktemp("rt") / "m.amx"
    write_matrix(FeatureMatrix(values), path)
    assert read_matrix(path).values.tobytes() == values.tobytes()


def _tiny_archive():
    rng = np.random.default_rng(7)
    sections = {name: rng.standard_normal((3, 4)) for name in dataio.REQUIRED_SECTIONS}
    metadata = {
        "r": "16", "omega": "0.5", "lambda_1": "0.5", "lambda_2": "0.5",
        "sigma_1": repr(1.25), "sigma_2": repr(2.5), "k_1": "3", "k_2": "3",
        "seed": "123456789", "iterations": "7",
        "objective_history": ",".join(repr(x) for x in [9.5, 3.25, 1.125]),
    }
    return ModelArchive(sections=sections, metadata=metadata)


def test_model_round_trip_bitwise(tmp_path):
    archive = _tiny_archive()
    path = tmp_path / "m.amh"
    save_model(archive, path)
    back = load_model(path)
    assert set(back.sections) == set(archive.sections)
    for name, values in archive.sections.items():
        assert back.sections[name].tobytes() == values.tobytes()
    assert back.metadata == archive.metadata
    assert int(back.metadata["seed"]) == 123456789


def test_model_unknown_section_is_format_error(tmp_path):
    archive = _tiny_archive()
    path = tmp_path / "m.amh"
    save_model(archive, path)
    buf = bytearray(path.read_bytes())
    # rename the serialized "R" section so the loader sees an unknown name
    idx = buf.find(b"\x01\x00\x00\x00R")
    assert idx >= 0
    buf[idx + 4] = ord("Q")
    path.write_bytes(bytes(buf))
    with pytest.raises(FormatError):
        load_model(path)


def test_model_missing_section_is_format_error(tmp_path):
    # serialize an archive that simply leaves "R" out
    archive = _tiny_archive()
    del archive.sections["R"]
    parts = [b"AMH1", struct.pack("<I", len(archive.sections) + 1)]
    for name, values in archive.sections.items():
        encoded = name.encode()
        parts += [struct.pack("<I", len(encoded)), encoded, amx_bytes(values)]
    meta = "\n".join(f"{k}={v}" for k, v in archive.metadata.items()).encode()
    parts += [struct.pack("<I", 4), b"meta", meta]
    path = tmp_path / "m.amh"
    path.write_bytes(b"".join(parts))
    with pytest.raises(FormatError, match="R"):
        load_model(path)


@pytest.mark.parametrize("old, new", [
    (b"\x01\x00\x00\x00R", b"\x01\x00\x00\x00\xff"),    # section name
    (b"seed=", b"se\xffd="),                                 # metadata
])
def test_model_non_utf8_text_is_format_error(tmp_path, old, new):
    path = tmp_path / "m.amh"
    save_model(_tiny_archive(), path)
    buf = path.read_bytes()
    assert buf.count(old) == 1
    path.write_bytes(buf.replace(old, new))
    with pytest.raises(FormatError):
        load_model(path)


def test_model_save_requires_sections():
    archive = _tiny_archive()
    del archive.sections["R"]
    with pytest.raises(ValidationError, match="R"):
        save_model(archive, "/tmp/should-not-exist.amh")


def test_model_bad_magic(tmp_path):
    path = tmp_path / "m.amh"
    path.write_bytes(b"AMH2" + bytes(16))
    with pytest.raises(FormatError):
        load_model(path)


def test_synthetic_noise_free_classes_identical():
    x1, x2, labels = generate_synthetic(40, 4, 8, 6, 0.0, seed=11)
    classes = np.argmax(labels.values, axis=0)
    for cls in range(4):
        members = np.flatnonzero(classes == cls)
        if members.size > 1:
            assert np.array_equal(x1.values[members[0]], x1.values[members[1]])
            assert np.array_equal(x2.values[members[0]], x2.values[members[1]])


def test_synthetic_deterministic():
    a = generate_synthetic(50, 3, 8, 6, 0.4, seed=5)
    b = generate_synthetic(50, 3, 8, 6, 0.4, seed=5)
    assert a[0].values.tobytes() == b[0].values.tobytes()
    assert a[1].values.tobytes() == b[1].values.tobytes()
    assert a[2].values.tobytes() == b[2].values.tobytes()


def test_synthetic_class_balance():
    _, _, labels = generate_synthetic(1000, 5, 8, 6, 0.1, seed=0)
    counts = labels.values.sum(axis=1)
    assert counts.min() >= 100 and counts.max() <= 300


def test_synthetic_centroids_separated():
    x1, _, labels = generate_synthetic(60, 5, 8, 6, 0.0, seed=2)
    classes = np.argmax(labels.values, axis=0)
    cent = np.stack([x1.values[classes == cls][0] for cls in range(5)])
    gaps = np.linalg.norm(cent[:, None] - cent[None, :], axis=2)
    assert gaps[~np.eye(5, dtype=bool)].min() >= 2.0 - 1e-9


def test_synthetic_rejects_small_n():
    with pytest.raises(ValidationError):
        generate_synthetic(3, 5, 8, 6, 0.1, seed=0)


def test_label_matrix_type_checks():
    with pytest.raises(ValidationError):
        RawLabelMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValidationError, match="column 0"):
        RawLabelMatrix(np.array([[0.0, 1.0], [0.0, 1.0]]))
