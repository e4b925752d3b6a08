"""`xmodhash train` reads its AMX1 feature files in row blocks as it fits.

A fit from open AMX1 files must write the archive of the in-memory fit
(and of the CSV files) byte for byte; each feature file must be read twice,
once for the anchors and the width sample and once for the training pass;
a NaN anywhere in a feature file must fail with exit code 2 and that
file's name; and the command's memory must not grow with the training rows
beyond what the labels need.
"""

import collections
import gc
import struct
import tracemalloc

import numpy as np
import pytest

from xmodhash import dataio, kernelfeat
from xmodhash.cli import main
from xmodhash.dataio import FeatureMatrix, generate_synthetic, open_matrix, save_model
from xmodhash.encoder import fit_pipeline, to_archive
from xmodhash.labelspace import normalize_labels
from xmodhash.rng import component_rng
from xmodhash.trainer import TrainConfig


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_gather_returns_the_rows_in_index_order(monkeypatch, tmp_path, dtype):
    monkeypatch.setattr(dataio, "_GATHER_CELLS", 3 * 5)     # 3-row blocks, the last partial
    values = np.random.default_rng(1).standard_normal((11, 5)).astype(dtype)
    path = tmp_path / "x.amx"
    dataio.write_matrix(values, path)
    idx = np.array([10, 0, 4, 3, 9, 4, 2])     # unsorted, one row twice
    with open_matrix(path) as x:
        rows = x.gather(idx)
        assert x.gather(idx[::-1]).tobytes() == values[idx[::-1]].tobytes()    # read again
    assert rows.dtype == dtype and rows.tobytes() == values[idx].tobytes()
    assert FeatureMatrix(values).gather(idx).tobytes() == rows.tobytes()


def _archive_bytes(xs, labels, cfg, k, path):
    enc, m, report = fit_pipeline(xs, labels, cfg, k, ridge=0.7)
    save_model(to_archive(enc, m, report, cfg, 0.7), path)
    return path.read_bytes()


def _write_csv(values, path):
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in values.tolist()))


# n = 2 503 samples the width from 2 000 rows; n <= 2 000 takes every row.
# With small_steps the map runs in 5-row steps inside 20-row fit blocks and
# the gathers read 6- and 8-row blocks (d = 10 and 7), so every pass spans
# many reads and n is a multiple of none of them; at the real sizes n is
# not a multiple of the step either.
@pytest.mark.parametrize("n, k, dtype, small_steps", [
    pytest.param(2503, 40, np.float64, True, id="sampled-width-f64"),
    pytest.param(2503, 40, np.float32, True, id="sampled-width-f32"),
    pytest.param(2503, 40, np.float64, False, id="sampled-width-real-sizes"),
    pytest.param(1999, 40, np.float32, True, id="whole-file-width-f32"),
    pytest.param(300, 300, np.float64, False, id="k-equals-n"),
])
def test_fit_from_files_equals_the_fit_in_memory(monkeypatch, tmp_path, n, k, dtype,
                                                 small_steps):
    if small_steps:
        monkeypatch.setattr(kernelfeat, "_BLOCK_CELLS", 5 * k)
        monkeypatch.setattr(kernelfeat, "_FIT_BLOCK_CELLS", 20 * k)
        monkeypatch.setattr(dataio, "_GATHER_CELLS", 6 * 10)
    x1, x2, raw = generate_synthetic(n, 4, 10, 7, 0.4, seed=n)
    values = [x.values.astype(dtype) for x in (x1, x2)]
    labels = normalize_labels(raw)
    cfg = TrainConfig(r=8, max_iters=2, seed=3)
    ks = (k, k - 1)
    in_memory = _archive_bytes([FeatureMatrix(v) for v in values], labels, cfg, ks,
                               tmp_path / "memory.amh")
    amx = [tmp_path / "x1.amx", tmp_path / "x2.amx"]
    for v, path in zip(values, amx):
        dataio.write_matrix(v, path)
    with open_matrix(amx[0]) as f1, open_matrix(amx[1]) as f2:
        assert isinstance(f1, dataio.MatrixRows) and isinstance(f2, dataio.MatrixRows)
        assert _archive_bytes([f1, f2], labels, cfg, ks, tmp_path / "files.amh") == in_memory
    csv = [tmp_path / "x1.csv", tmp_path / "x2.csv"]
    for v, path in zip(values, csv):
        _write_csv(v, path)
    with open_matrix(csv[0]) as f1, open_matrix(csv[1]) as f2:
        assert _archive_bytes([f1, f2], labels, cfg, ks, tmp_path / "csv.amh") == in_memory


# n = 2 100 samples the width from 2 000 rows; n = 1 500 takes every row
@pytest.mark.parametrize("n", [2100, 1500])
def test_train_reads_each_feature_file_twice(monkeypatch, tmp_path, capsys, n):
    data, model = tmp_path / "data", tmp_path / "m.amh"
    assert run(capsys, "synth", "--n", n, "--c", "3", "--d1", "5", "--d2", "4",
               "--seed", "2", "--out", data)[0] == 0
    passes, blocks = collections.Counter(), dataio.MatrixRows.blocks

    def counted(self, height):
        passes[str(self.path)] += 1
        return blocks(self, height)

    monkeypatch.setattr(dataio.MatrixRows, "blocks", counted)
    code, _, err = run(capsys, "train", "--x1", data / "x1.amx", "--x2", data / "x2.amx",
                       "--labels", data / "labels.amx", "--out", model, "--bits", "8",
                       "--k1", "16", "--k2", "12", "--max-iters", "2")
    assert (code, err) == (0, "")
    assert passes == {str(data / "x1.amx"): 2, str(data / "x2.amx"): 2}


def test_train_names_the_feature_file_holding_a_nan(tmp_path, capsys):
    data, n, k2, seed = tmp_path / "data", 2100, 16, 7
    assert run(capsys, "synth", "--n", n, "--c", "3", "--d1", "5", "--d2", "4",
               "--seed", "2", "--out", data)[0] == 0
    # a row that neither modality 2's anchors nor its width sample read
    read = set(component_rng(seed, "anchors-2").choice(n, size=k2, replace=False))
    read |= set(component_rng(seed, "width-sample-2").choice(n, size=2000, replace=False))
    row = min(set(range(n)) - read)
    x2 = dataio.read_matrix(data / "x2.amx").values
    x2[row, 1] = np.nan
    dataio.write_matrix(x2, data / "x2.amx")
    model = tmp_path / "m.amh"
    code, out, err = run(capsys, "train", "--x1", data / "x1.amx", "--x2", data / "x2.amx",
                         "--labels", data / "labels.amx", "--out", model, "--bits", "8",
                         "--k1", "16", "--k2", k2, "--max-iters", "2", "--seed", seed)
    gc.collect()    # an unclosed file would warn here, inside the test
    assert (code, out, err) == (2, "", f"error: {data / 'x2.amx'}: feature matrix contains "
                                       f"NaN or Inf entries\n")
    assert not model.exists()


def _write_rows(path, n, d, seed, chunk=10_000):
    """An n x d float64 AMX1 file, written a chunk of rows at a time."""
    rng = np.random.default_rng(seed)
    with path.open("wb") as f:
        f.write(b"AMX1" + bytes([1, 0, 0, 0]) + struct.pack("<QQ", n, d))
        for lo in range(0, n, chunk):
            f.write(rng.standard_normal((min(chunk, n - lo), d)).tobytes())


def _train_peak(tmp_path, n, c):
    paths = [tmp_path / "x1.amx", tmp_path / "x2.amx", tmp_path / "labels.amx"]
    _write_rows(paths[0], n, 128, 1)
    _write_rows(paths[1], n, 64, 2)
    labels = np.zeros((c, n))
    labels[np.random.default_rng(3).integers(0, c, size=n), np.arange(n)] = 1.0
    dataio.write_matrix(labels, paths[2])
    del labels
    tracemalloc.start()
    try:
        code = main(["train", "--x1", str(paths[0]), "--x2", str(paths[1]),
                     "--labels", str(paths[2]), "--out", str(tmp_path / "m.amh"),
                     "--bits", "64", "--k1", "200", "--k2", "200", "--max-iters", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        for path in paths:
            path.unlink()
    assert code == 0
    return peak


def test_train_command_peak_grows_less_than_the_labels(tmp_path, capsys):
    # reading both feature files whole grows the peak by about 96 MiB here
    c = 10
    small, large = _train_peak(tmp_path, 20_000, c), _train_peak(tmp_path, 80_000, c)
    capsys.readouterr()
    assert large - small < c * (80_000 - 20_000) * 8     # one c x n float64 label matrix
