import io
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodhash import dataio
from xmodhash.dataio import (FeatureMatrix, ModelArchive, RawLabelMatrix,
                             generate_synthetic, load_model, read_labels,
                             read_matrix, save_model, write_matrix)
from xmodhash.encoder import REQUIRED_SECTIONS, from_archive
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


@pytest.mark.parametrize("read", [read_matrix, read_labels])
def test_huge_declared_payload_fails_before_allocating(tmp_path, read):
    # 2^40 x 2^20 f64 values would need 2^63 bytes; the header is checked
    # against the file's size before anything is allocated
    path = tmp_path / "huge.amx"
    path.write_bytes(b"AMX1" + bytes([1, 0, 0, 0]) + struct.pack("<QQ", 2 ** 40, 2 ** 20)
                     + bytes(8))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated AMX1 payload"):
            read(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def _peak_per_byte(fn, nbytes):
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / nbytes


def test_matrix_io_holds_no_second_copy_of_the_payload(tmp_path):
    # the payload goes straight between file and array: a read holds the
    # result (plus FeatureMatrix's 1-byte-per-value finiteness mask) and a
    # write holds nothing beyond the caller's array
    values = np.random.default_rng(3).standard_normal((1000, 500))
    path = tmp_path / "m.amx"
    assert _peak_per_byte(lambda: write_matrix(values, path), values.nbytes) <= 0.25
    assert _peak_per_byte(lambda: read_matrix(path), values.nbytes) <= 1.25
    assert read_matrix(path).values.tobytes() == values.tobytes()


def test_label_read_holds_no_second_copy_of_the_payload(tmp_path):
    labels = (np.random.default_rng(4).random((20, 25_000)) < 0.1).astype(np.float64)
    labels[0] = 1.0
    path = tmp_path / "labels.amx"
    write_matrix(labels, path)
    assert _peak_per_byte(lambda: read_labels(path), labels.nbytes) <= 1.5


@pytest.mark.parametrize("values, dtype_code", [
    (np.asfortranarray(np.arange(12.0).reshape(3, 4)), 1),
    (np.arange(12.0).reshape(4, 3).T, 1),
    (np.arange(12, dtype=np.float32).reshape(3, 4) / 7, 0),
])
def test_write_matrix_layouts_give_the_reference_bytes(tmp_path, values, dtype_code):
    path = tmp_path / "m.amx"
    write_matrix(values, path)
    assert path.read_bytes() == amx_bytes(values, dtype_code)


def test_payload_read_fails_when_the_file_ends_early():
    # the file had 8 bytes left when it was sized, then shrank to 4
    with pytest.raises(FormatError, match="^4 bytes arrived$"):
        dataio._read_array(io.BytesIO(bytes(4)), (1,), "<f8", 8, 8,
                           lambda got: f"{got} bytes arrived")


def _read_through_pipe(tmp_path, data, read):
    """``read`` of a named pipe that a second thread fills with ``data``."""
    path = tmp_path / "pipe"
    os.mkfifo(path)
    writer = threading.Thread(target=lambda: path.write_bytes(data), daemon=True)
    writer.start()
    try:
        result = read(path)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    return result


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_matrix_from_a_pipe(tmp_path):
    # a pipe reports no size, so its payload is read before it is checked
    values = np.random.default_rng(5).standard_normal((40, 3))
    back = _read_through_pipe(tmp_path, amx_bytes(values), read_matrix)
    assert back.values.tobytes() == values.tobytes()


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


@pytest.mark.parametrize("rows, cols", [(2 ** 64 - 1, 0), (0, 3)])
def test_zero_dimension_header_is_format_error(tmp_path, rows, cols):
    # 0 payload bytes pass the size check; the header itself is rejected
    path = tmp_path / "z.amx"
    path.write_bytes(b"AMX1" + bytes([1, 0, 0, 0]) + struct.pack("<QQ", rows, cols))
    with pytest.raises(FormatError, match=f"declares a {rows}x{cols} matrix"):
        read_matrix(path)


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
    sections = {name: rng.standard_normal((3, 4)) for name in REQUIRED_SECTIONS}
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


@pytest.mark.parametrize("brk", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_model_metadata_keeps_line_breaks_other_than_newline(tmp_path, brk):
    # lines are joined with "\n" alone, so only "\n" may split them again
    archive = _tiny_archive()
    archive.metadata["note"] = f"a{brk}b"
    archive.metadata[f"key{brk}"] = "value"
    path = tmp_path / "m.amh"
    save_model(archive, path)
    assert load_model(path).metadata == archive.metadata


def test_model_unknown_section_is_format_error(tmp_path):
    archive = _tiny_archive()
    path = tmp_path / "m.amh"
    save_model(archive, path)
    buf = bytearray(path.read_bytes())
    # rename the serialized "M" section so the loader sees an unknown name
    idx = buf.find(b"\x01\x00\x00\x00M")
    assert idx >= 0
    buf[idx + 4] = ord("Q")
    path.write_bytes(bytes(buf))
    # the container reads any name; the model layout is checked by from_archive
    assert "Q" in load_model(path).sections
    with pytest.raises(FormatError, match="unknown section name 'Q'"):
        from_archive(load_model(path))


def test_model_missing_section_is_format_error(tmp_path):
    # serialize an archive that simply leaves "M" out
    archive = _tiny_archive()
    del archive.sections["M"]
    parts = [b"AMH1", struct.pack("<I", len(archive.sections) + 1)]
    for name, values in archive.sections.items():
        encoded = name.encode()
        parts += [struct.pack("<I", len(encoded)), encoded, amx_bytes(values)]
    meta = "\n".join(f"{k}={v}" for k, v in archive.metadata.items()).encode()
    parts += [struct.pack("<I", 4), b"meta", meta]
    path = tmp_path / "m.amh"
    path.write_bytes(b"".join(parts))
    with pytest.raises(FormatError, match="archive missing mandatory sections: M"):
        from_archive(load_model(path))


@pytest.mark.parametrize("old, new", [
    (b"\x01\x00\x00\x00M", b"\x01\x00\x00\x00\xff"),    # section name
    (b"seed=", b"se\xffd="),                                 # metadata
])
def test_model_non_utf8_text_is_format_error(tmp_path, old, new):
    path = tmp_path / "m.amh"
    save_model(_tiny_archive(), path)
    buf = path.read_bytes()
    assert buf.count(old) == 1
    path.write_bytes(buf.replace(old, new))
    # bad metadata fails in load_model; a bad section name decodes to one
    # outside the model layout, which from_archive rejects
    with pytest.raises(FormatError):
        from_archive(load_model(path))


def test_model_round_trip_keeps_any_section_names(tmp_path):
    # the container is not tied to the model layout: any names, in order
    rng = np.random.default_rng(9)
    archive = ModelArchive(
        sections={name: rng.standard_normal((2, 3)) for name in ("V", "R", "B", "\u00e9t\u00e9")},
        metadata={"note": "free"})
    path = tmp_path / "m.amh"
    save_model(archive, path)
    back = load_model(path)
    assert list(back.sections) == list(archive.sections)
    assert all(back.sections[n].tobytes() == a.tobytes() for n, a in archive.sections.items())
    assert back.metadata == archive.metadata


def test_model_save_refuses_a_section_named_meta(tmp_path):
    # load_model takes a "meta" section for the metadata, so it could not read one back
    archive = _tiny_archive()
    archive.sections["meta"] = np.zeros((1, 1))
    path = tmp_path / "m.amh"
    with pytest.raises(ValidationError, match="section name 'meta' is reserved"):
        save_model(archive, path)
    assert not path.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda a: a.sections.update({"\ud800": np.zeros((1, 1))}),
     "section name '\\ud800' is not encodable as UTF-8"),
    (lambda a: a.metadata.update(note="\ud800"),
     "metadata entry 'note' is not encodable as UTF-8"),
])
def test_model_save_refuses_text_that_is_not_utf8(tmp_path, edit, message):
    # a lone surrogate is a str but has no UTF-8 encoding
    archive = _tiny_archive()
    edit(archive)
    path = tmp_path / "m.amh"
    with pytest.raises(ValidationError) as caught:
        save_model(archive, path)
    assert str(caught.value) == message
    assert not path.exists()


def test_model_bad_magic(tmp_path):
    path = tmp_path / "m.amh"
    path.write_bytes(b"AMH2" + bytes(16))
    with pytest.raises(FormatError):
        load_model(path)


def _amh_bytes(sections, count=None):
    """AMH1 bytes of (name, payload) pairs followed by an empty 'meta' section."""
    parts = [b"AMH1", struct.pack("<I", len(sections) + 1 if count is None else count)]
    for name, payload in [*sections, (b"meta", b"")]:
        parts += [struct.pack("<I", len(name)), name, payload]
    return b"".join(parts)


_R = amx_bytes(np.zeros((3, 2)))  # 24 + 48 bytes
_R_AT = 13  # section R's AMX1 blob starts after 8 + 4 + 1 bytes
_HUGE = b"AMX1" + bytes([1, 0, 0, 0]) + struct.pack("<QQ", 2 ** 40, 2 ** 20) + bytes(8)


@pytest.mark.parametrize("data, message", [
    pytest.param(b"AMH1\x01\x00", "{path}: truncated archive header", id="archive-header"),
    pytest.param(b"AMH1\x02\x00\x00\x00\x01\x00", "{path}: truncated section header",
                 id="section-header"),
    pytest.param(b"AMH1\x02\x00\x00\x00\x05\x00\x00\x00R", "{path}: truncated section name",
                 id="section-name"),
    pytest.param(_amh_bytes([(b"R", _R)])[:_R_AT + 10],
                 "{path}: section 'R': truncated AMX1 header", id="section-amx-header"),
    pytest.param(_amh_bytes([(b"R", _R)])[:_R_AT + 24 + 20],
                 "{path}: section 'R': truncated AMX1 payload: declared 3x2 needs 48 bytes, "
                 "20 available",
                 id="section-payload"),
    pytest.param(_amh_bytes([(b"R", _HUGE)]),
                 "{path}: section 'R': truncated AMX1 payload: declared "
                 "1099511627776x1048576 needs 9223372036854775808 bytes, 16 available",
                 id="huge-section-payload"),
    pytest.param(_amh_bytes([(b"R", _R[:16] + struct.pack("<Q", 0))]),
                 "{path}: section 'R': AMX1 header declares a 3x0 matrix; "
                 "both dimensions must be >= 1",
                 id="zero-dimension-section"),
    pytest.param(_amh_bytes([(b"R", _R), (b"R", _R)]), "{path}: duplicate section name 'R'",
                 id="duplicate-section"),
    pytest.param(_amh_bytes([(b"meta", b""), (b"R", _R)]),
                 "{path}: 'meta' must be the final section", id="meta-not-last"),
    pytest.param(_amh_bytes([(b"R", _R)], count=1),
                 "{path}: final section is 'R', expected 'meta'", id="final-not-meta"),
    pytest.param(b"AMH1" + bytes(4), "{path}: archive has no metadata section", id="no-meta"),
])
def test_model_malformed_archive_fails_before_allocating(tmp_path, data, message):
    path = tmp_path / "m.amh"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as caught:
            load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(caught.value) == message.format(path=path)
    assert peak < 2 ** 20


def test_load_model_holds_one_copy_of_the_archive(tmp_path):
    # sections are read straight into their arrays: about 1.00x the file,
    # where reading the whole file first and copying each section out is 2x
    rng = np.random.default_rng(8)
    archive = _tiny_archive()
    archive.sections = {name: rng.standard_normal((200, 160))
                        for name in REQUIRED_SECTIONS}
    path = tmp_path / "m.amh"
    save_model(archive, path)
    assert _peak_per_byte(lambda: load_model(path), path.stat().st_size) <= 1.25


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_model_from_a_pipe(tmp_path):
    archive = _tiny_archive()
    saved = tmp_path / "m.amh"
    save_model(archive, saved)
    back = _read_through_pipe(tmp_path, saved.read_bytes(), load_model)
    assert back.metadata == archive.metadata
    assert {name: a.tobytes() for name, a in back.sections.items()} == {
        name: a.tobytes() for name, a in archive.sections.items()}


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
