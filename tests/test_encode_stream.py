"""`xmodhash encode` reads an AMX1 feature file in row blocks as it hashes it.

The streamed codes must equal those of the in-memory path, `encode` of
`read_matrix`, byte for byte; a bad file must fail with the in-memory
path's exit code and message, naming the file, and leave no output behind.
"""

import gc
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from xmodhash import dataio, kernelfeat
from xmodhash.cli import main
from xmodhash.encoder import encode, from_archive
from xmodhash.errors import FormatError
from xmodhash.retrieval import CodeSet, _pack_bits, write_codes

K1 = 16     # modality-1 anchors of the trained model
STEP = 3    # rows per kernel step once _BLOCK_CELLS is patched to STEP * K1


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def train_model(capsys, tmp_path, d1, k1, bits="8"):
    data = tmp_path / "data"
    assert run(capsys, "synth", "--n", "200", "--c", "3", "--d1", d1, "--d2", "6",
               "--seed", "4", "--out", data)[0] == 0
    model = tmp_path / "model.amh"
    assert run(capsys, "train", "--x1", data / "x1.amx", "--x2", data / "x2.amx",
               "--labels", data / "labels.amx", "--out", model, "--bits", bits,
               "--k1", k1, "--k2", "16", "--max-iters", "2")[0] == 0
    return model


@pytest.fixture()
def model(tmp_path, capsys):
    return train_model(capsys, tmp_path, 8, K1)


@pytest.fixture()
def small_steps(monkeypatch):
    monkeypatch.setattr(kernelfeat, "_BLOCK_CELLS", STEP * K1)


def rows(n, d=8, seed=0):
    return np.random.default_rng(seed).standard_normal((n, d))


def cli_codes(capsys, model, features, tmp_path):
    out = tmp_path / "cli.abc"
    code, _, err = run(capsys, "encode", "--model", model, "--features", features,
                       "--modality", "1", "--out", out)
    assert code == 0, err
    return out.read_bytes()


def in_memory_codes(model, path, tmp_path):
    out = tmp_path / "ref.abc"
    write_codes(encode(dataio.read_matrix(path), from_archive(dataio.load_model(model)), 1),
                out)
    return out.read_bytes()


@pytest.mark.parametrize("n", [1, STEP - 1, STEP, STEP + 1, 3 * STEP + 2])
def test_streamed_codes_equal_in_memory_codes(model, small_steps, tmp_path, capsys, n):
    path = tmp_path / "x.amx"
    dataio.write_matrix(rows(n, seed=n), path)
    assert cli_codes(capsys, model, path, tmp_path) == in_memory_codes(model, path, tmp_path)


def test_streamed_float32_codes_equal_in_memory_codes(model, small_steps, tmp_path, capsys):
    path = tmp_path / "x32.amx"
    dataio.write_matrix(rows(3 * STEP + 2).astype(np.float32), path)
    assert cli_codes(capsys, model, path, tmp_path) == in_memory_codes(model, path, tmp_path)


def test_csv_codes_equal_in_memory_codes(model, small_steps, tmp_path, capsys):
    path = tmp_path / "x.csv"
    path.write_text("".join(",".join(map(repr, row)) + "\n"
                            for row in rows(3 * STEP + 2).tolist()))
    assert cli_codes(capsys, model, path, tmp_path) == in_memory_codes(model, path, tmp_path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipe_codes_equal_in_memory_codes(model, small_steps, tmp_path, capsys):
    path = tmp_path / "x.amx"
    dataio.write_matrix(rows(3 * STEP + 2), path)
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    try:
        streamed = cli_codes(capsys, model, pipe, tmp_path)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert streamed == in_memory_codes(model, path, tmp_path)


def test_encode_command_holds_a_block_not_the_feature_matrix(tmp_path, capsys):
    # 20 000 x 128 float64 rows, the benchmark database's modality-1 shape
    model = train_model(capsys, tmp_path, 128, 128, bits="32")
    values = rows(20000, d=128)
    path = tmp_path / "db.amx"
    dataio.write_matrix(values, path)
    out = tmp_path / "db.abc"
    tracemalloc.start()
    try:
        code = main(["encode", "--model", str(model), "--features", str(path),
                     "--modality", "1", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 0.25 * values.nbytes


def _with_bad_value(value):
    def edit(path):
        bad = rows(3 * STEP + 2)
        bad[-1, 5] = value      # the last block holds the last two rows
        dataio.write_matrix(bad, path)
    return edit


def _truncated(path):
    path.write_bytes(path.read_bytes()[:-5])


def _trailing(path):
    path.write_bytes(path.read_bytes() + b"xyz")


def _six_wide(path):
    dataio.write_matrix(rows(3 * STEP + 2, d=6), path)


def _zero_wide(path):
    path.write_bytes(b"AMX1" + bytes([1, 0, 0, 0]) + struct.pack("<QQ", 2 ** 64 - 1, 0))


@pytest.mark.parametrize("corrupt, message", [
    (_with_bad_value(np.nan), "feature matrix contains NaN or Inf entries"),
    (_with_bad_value(-np.inf), "feature matrix contains NaN or Inf entries"),
    (_truncated, "truncated AMX1 payload: declared 11x8 needs 704 bytes, 699 available"),
    (_trailing, "3 trailing bytes after AMX1 payload"),
    (_six_wide, "modality 1 expects 8-dimensional features, got 6"),
    (_zero_wide, "AMX1 header declares a 18446744073709551615x0 matrix; "
                 "both dimensions must be >= 1"),
])
def test_bad_feature_file_is_exit_2_naming_the_file(model, small_steps, tmp_path, capsys,
                                                    corrupt, message):
    path = tmp_path / "x.amx"
    dataio.write_matrix(rows(3 * STEP + 2), path)
    corrupt(path)
    out = tmp_path / "c.abc"
    code, stdout, err = run(capsys, "encode", "--model", model, "--features", path,
                            "--modality", "1", "--out", out)
    gc.collect()    # an unclosed file would warn here, inside the test
    assert (code, stdout, err) == (2, "", f"error: {path}: {message}\n")
    assert not out.exists()


def test_wrong_dimension_is_reported_before_any_row_is_read(model, tmp_path, capsys):
    # the in-memory path read the whole file first and reported the NaN
    bad = rows(4, d=6)
    bad[-1, 0] = np.nan
    path = tmp_path / "x.amx"
    dataio.write_matrix(bad, path)
    code, _, err = run(capsys, "encode", "--model", model, "--features", path,
                       "--modality", "1", "--out", tmp_path / "c.abc")
    assert (code, err) == (2, f"error: {path}: modality 1 expects 8-dimensional features, "
                              f"got 6\n")


def test_file_that_shrinks_while_it_is_read_is_format_error(model, small_steps, tmp_path):
    # 128 000 payload bytes, more than the reader buffers when it opens the file
    path = tmp_path / "x.amx"
    dataio.write_matrix(rows(2000), path)
    enc = from_archive(dataio.load_model(model))
    with dataio.open_matrix(path) as x:
        os.truncate(path, 24 + 1000 * 8 * 8)
        with pytest.raises(FormatError) as caught:
            encode(x, enc, 1)
    assert str(caught.value) == (f"{path}: truncated AMX1 payload: declared 2000x8 needs "
                                 f"128000 bytes, 64000 available")


@pytest.mark.parametrize("r", [1, 7, 8, 32, 63, 64, 65, 130])
def test_pack_bits_matches_the_padded_reference(r):
    # the reference pads each row to whole words before packing
    bits = np.random.default_rng(r).random((5, r)) < 0.5
    width = (r + 63) // 64
    padded = np.zeros((5, 64 * width), dtype=np.uint8)
    padded[:, :r] = bits
    reference = np.packbits(padded, axis=1, bitorder="little").view("<u8")
    words = np.zeros((5, width), dtype="<u8")
    for part in (slice(0, 2), slice(2, 5)):
        _pack_bits(bits[part], words[part])
    assert CodeSet(r=r, words=words).words.tobytes() == reference.tobytes()
