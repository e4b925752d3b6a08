import re
import struct

import numpy as np
import pytest

from conftest import pack_codes
from xmodhash import cli, dataio, kernelfeat, retrieval
from xmodhash.cli import build_parser, main
from xmodhash.encoder import fit_pipeline, to_archive
from xmodhash.labelspace import normalize_labels
from xmodhash.retrieval import write_codes
from xmodhash.trainer import TrainConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_class_labels(path, classes, c):
    labels = np.zeros((c, len(classes)))
    labels[classes, np.arange(len(classes))] = 1.0
    dataio.write_matrix(labels, path)


@pytest.fixture()
def synth_dir(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, _ = run(capsys, "synth", "--n", "60", "--c", "3", "--d1", "8",
                     "--d2", "6", "--noise", "0.2", "--seed", "4", "--out", str(out))
    assert code == 0
    return out


def train_args(synth_dir, model_path, **overrides):
    args = {"--x1": str(synth_dir / "x1.amx"), "--x2": str(synth_dir / "x2.amx"),
            "--labels": str(synth_dir / "labels.amx"), "--out": str(model_path),
            "--bits": "8", "--k1": "16", "--k2": "16", "--max-iters": "4"}
    args.update(overrides)
    return ["train"] + [part for pair in args.items() for part in pair]


def test_synth_writes_three_files(synth_dir):
    for name in ("x1.amx", "x2.amx", "labels.amx"):
        assert (synth_dir / name).exists()


def test_synth_is_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code, _, _ = run(capsys, "synth", "--n", "50", "--c", "4", "--out", str(out))
        assert code == 0
    for name in ("x1.amx", "x2.amx", "labels.amx"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_validation_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "synth", "--n", "3", "--c", "5",
                       "--out", str(tmp_path / "x"))
    assert code == 2
    assert "n >= c" in err


@pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
def test_synth_rejects_a_bad_noise_scale(tmp_path, capsys, noise):
    out = tmp_path / "data"
    code, stdout, err = run(capsys, "synth", "--n", "20", "--c", "2", "--noise", noise,
                            "--out", str(out))
    assert code == 2 and stdout == ""
    assert f"noise scale must be >= 0 and finite, got {float(noise)}" in err
    assert not out.exists()


def test_train_end_to_end(synth_dir, tmp_path, capsys):
    model = tmp_path / "model.amh"
    code, out, _ = run(capsys, *train_args(synth_dir, model))
    assert code == 0
    assert model.exists()
    assert "final objective" in out and "sweeps" in out
    archive = dataio.load_model(model)
    assert archive.sections["M"].shape == (8, 3)
    assert archive.metadata["r"] == "8"
    history = [float(x) for x in archive.metadata["objective_history"].split(",")]
    assert all(b <= a + 1e-9 * abs(a) for a, b in zip(history, history[1:]))


def test_train_missing_labels_is_exit_2(synth_dir, tmp_path, capsys):
    code, _, err = run(capsys, *train_args(synth_dir, tmp_path / "m.amh",
                                           **{"--labels": str(synth_dir / "nope.amx")}))
    assert code == 2
    assert "nope.amx" in err


def test_train_archive_equals_library_fit(synth_dir, tmp_path, capsys):
    model = tmp_path / "cli.amh"
    assert run(capsys, *train_args(synth_dir, model, **{"--lambda-h": "0.5"}))[0] == 0
    xs = [dataio.read_matrix(synth_dir / f"x{t}.amx") for t in (1, 2)]
    labels = normalize_labels(dataio.read_labels(synth_dir / "labels.amx"))
    cfg = TrainConfig(r=8, max_iters=4)
    fitted = fit_pipeline(xs, labels, cfg, (16, 16), ridge=0.5)
    dataio.save_model(to_archive(*fitted, cfg, 0.5), tmp_path / "lib.amh")
    assert model.read_bytes() == (tmp_path / "lib.amh").read_bytes()


@pytest.mark.parametrize("flag, value, message", [
    ("--lambda-h", "0", "ridge weight must be positive"),
    ("--lambda-h", "inf", "ridge weight must be positive and finite, got inf"),
    ("--omega", "-1", "omega must be >= 0"),
    ("--omega", "nan", "omega must be >= 0 and finite, got nan"),
    ("--omega", "inf", "omega must be >= 0 and finite, got inf"),
    ("--bits", "0", "code length must be >= 1"),
    ("--max-iters", "0", "max_iters must be >= 1"),
    ("--tol", "0", "rel_tol must be positive"),
    ("--k1", "0", "modality 1 needs 1 to 60 anchors"),
    ("--k2", "61", "modality 2 needs 1 to 60 anchors"),
    ("--bits", "64", "code length r=64 needs at least r+1=65 instances"),
])
def test_train_bad_arguments_fail_before_kernel_work(synth_dir, tmp_path, capsys,
                                                     monkeypatch, flag, value, message):
    def no_kernel(*args, **kwargs):
        raise AssertionError("kernelized before the arguments were checked")

    monkeypatch.setattr(kernelfeat, "kernelize", no_kernel)
    model = tmp_path / "m.amh"
    code, out, err = run(capsys, *train_args(synth_dir, model, **{flag: value}))
    assert code == 2 and out == ""
    assert message in err
    assert not model.exists()


def test_train_rejects_a_reconstruction_weight_flag(synth_dir, tmp_path, capsys):
    model = tmp_path / "m.amh"
    with pytest.raises(SystemExit) as caught:
        main(train_args(synth_dir, model, **{"--lambda1": "0.5"}))
    assert caught.value.code == 2
    assert "unrecognized arguments: --lambda1 0.5" in capsys.readouterr().err
    assert not model.exists()


def test_train_rejects_a_reconstruction_weight_config_key(synth_dir, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("lambda1=0.5\n")
    model = tmp_path / "m.amh"
    code, out, err = run(capsys, *train_args(synth_dir, model), "--config", str(config))
    assert code == 2 and out == ""
    assert "run.cfg:1: unknown key 'lambda1'" in err
    assert not model.exists()


def test_train_deterministic(synth_dir, tmp_path, capsys):
    a, b = tmp_path / "a.amh", tmp_path / "b.amh"
    assert run(capsys, *train_args(synth_dir, a))[0] == 0
    assert run(capsys, *train_args(synth_dir, b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_encode_and_eval_pipeline(synth_dir, tmp_path, capsys):
    model = tmp_path / "model.amh"
    assert run(capsys, *train_args(synth_dir, model))[0] == 0
    codes1 = tmp_path / "c1.abc"
    codes2 = tmp_path / "c2.abc"
    for modality, out in ((1, codes1), (2, codes2)):
        features = synth_dir / f"x{modality}.amx"
        code, _, _ = run(capsys, "encode", "--model", str(model), "--features",
                         str(features), "--modality", str(modality), "--out", str(out))
        assert code == 0
    code, out, _ = run(capsys, "eval", "--query-codes", str(codes1),
                       "--db-codes", str(codes2),
                       "--query-labels", str(synth_dir / "labels.amx"),
                       "--db-labels", str(synth_dir / "labels.amx"),
                       "--topn", "5,10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "metric,task,bits,value"
    assert lines[1].startswith("map,i2t,8,")
    assert any(line.startswith("precision_at_5,") for line in lines)


def test_train_and_eval_at_128_bits(tmp_path, capsys):
    # multi-word codes (two 64-bit words per instance) through the full pipeline
    data = tmp_path / "data"
    assert run(capsys, "synth", "--n", "150", "--c", "3", "--seed", "1",
               "--out", str(data))[0] == 0
    model = tmp_path / "m.amh"
    code, _, _ = run(capsys, "train", "--x1", str(data / "x1.amx"),
                     "--x2", str(data / "x2.amx"), "--labels", str(data / "labels.amx"),
                     "--out", str(model), "--bits", "128", "--k1", "32", "--k2", "32",
                     "--max-iters", "3")
    assert code == 0
    codes = tmp_path / "c.abc"
    assert run(capsys, "encode", "--model", str(model), "--features",
               str(data / "x1.amx"), "--modality", "1", "--out", str(codes))[0] == 0
    code, out, _ = run(capsys, "eval", "--query-codes", str(codes),
                       "--db-codes", str(codes),
                       "--query-labels", str(data / "labels.amx"),
                       "--db-labels", str(data / "labels.amx"))
    assert code == 0
    map_line = [ln for ln in out.splitlines() if ln.startswith("map,")][0]
    assert map_line.split(",")[2] == "128"
    assert float(map_line.split(",")[3]) > 0.9


def test_encode_deterministic(synth_dir, tmp_path, capsys):
    model = tmp_path / "model.amh"
    assert run(capsys, *train_args(synth_dir, model))[0] == 0
    a, b = tmp_path / "a.abc", tmp_path / "b.abc"
    for out in (a, b):
        code, _, _ = run(capsys, "encode", "--model", str(model), "--features",
                         str(synth_dir / "x1.amx"), "--modality", "1", "--out", str(out))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_encode_wrong_dimensions(synth_dir, tmp_path, capsys):
    model = tmp_path / "model.amh"
    assert run(capsys, *train_args(synth_dir, model))[0] == 0
    code, _, err = run(capsys, "encode", "--model", str(model), "--features",
                       str(synth_dir / "x2.amx"), "--modality", "1",
                       "--out", str(tmp_path / "c.abc"))
    assert code == 2
    assert "8" in err and "6" in err  # expected vs actual feature dimension


def test_encode_zero_dimension_features_is_exit_2(synth_dir, tmp_path, capsys):
    model = tmp_path / "model.amh"
    assert run(capsys, *train_args(synth_dir, model))[0] == 0
    features = tmp_path / "z.amx"
    features.write_bytes(b"AMX1" + bytes([1, 0, 0, 0]) + struct.pack("<QQ", 2 ** 64 - 1, 0))
    code, out, err = run(capsys, "encode", "--model", str(model), "--features",
                         str(features), "--modality", "1", "--out", str(tmp_path / "c.abc"))
    assert code == 2 and out == ""
    assert "declares a 18446744073709551615x0 matrix" in err


def _rename_section_r(path):
    buf = path.read_bytes()
    at = buf.index(b"\x01\x00\x00\x00R") + 4    # the one-byte name of section "R"
    path.write_bytes(buf[:at] + b"\xff" + buf[at + 1:])


def _malform_sigma(path):
    path.write_bytes(re.sub(rb"sigma_1=[^\n]*", b"sigma_1=x.149", path.read_bytes()))


def _edit_section(path, name, edit):
    archive = dataio.load_model(path)
    archive.sections[name] = edit(archive.sections[name])
    dataio.save_model(archive, path)


def _truncate_ph_1(path):
    _edit_section(path, "Ph_1", lambda p: p[:10])


def _nan_ph_1(path):
    _edit_section(path, "Ph_1", lambda p: np.full_like(p, np.nan))


def _inf_kcenter_1(path):
    _edit_section(path, "kcenter_1", lambda c: np.where(np.arange(c.size) == 3, np.inf, c))


def _stack_kcenter_1(path):
    _edit_section(path, "kcenter_1", lambda c: np.vstack([c, c]))


def _inf_sigma_1(path):
    path.write_bytes(re.sub(rb"sigma_1=[^\n]*", b"sigma_1=inf", path.read_bytes()))


@pytest.mark.parametrize("corrupt, message", [
    (_rename_section_r, "unknown section name"),
    (_malform_sigma, "metadata sigma_1 is not a number"),
    (_truncate_ph_1, "modality 1: 10 projection rows, 16 anchors"),
    (_nan_ph_1, "modality 1: projection contains NaN or Inf entries"),
    (_inf_sigma_1, "kernel width must be finite and positive, got inf"),
    (_inf_kcenter_1, "kernel center contains NaN or Inf entries"),
    (_stack_kcenter_1, "section kcenter_1 is 2x16, expected 1x16"),
])
def test_encode_corrupt_archive_is_exit_2(synth_dir, tmp_path, capsys, corrupt, message):
    model = tmp_path / "model.amh"
    assert run(capsys, *train_args(synth_dir, model))[0] == 0
    corrupt(model)
    code, _, err = run(capsys, "encode", "--model", str(model), "--features",
                       str(synth_dir / "x1.amx"), "--modality", "1",
                       "--out", str(tmp_path / "c.abc"))
    assert code == 2
    assert f"{model}: " in err
    assert message in err


def test_encode_rejects_archive_with_training_sized_sections(synth_dir, tmp_path, capsys):
    # the older layout also stored the r x n latent matrix V and codes B
    model = tmp_path / "model.amh"
    assert run(capsys, *train_args(synth_dir, model))[0] == 0
    archive = dataio.load_model(model)
    archive.sections = {"V": np.zeros((8, 60)), **archive.sections, "B": np.ones((8, 60))}
    dataio.save_model(archive, model)
    code, _, err = run(capsys, "encode", "--model", str(model), "--features",
                       str(synth_dir / "x1.amx"), "--modality", "1",
                       "--out", str(tmp_path / "c.abc"))
    assert code == 2
    assert f"{model}: unknown section name 'V'" in err
    assert not (tmp_path / "c.abc").exists()


def test_encode_rejects_archive_with_latent_projections(synth_dir, tmp_path, capsys):
    # the older layout also stored the latent projections P_1 and P_2 after M
    model = tmp_path / "model.amh"
    assert run(capsys, *train_args(synth_dir, model))[0] == 0
    archive = dataio.load_model(model)
    sections = list(archive.sections.items())
    old = [("P_1", np.zeros((16, 8))), ("P_2", np.zeros((16, 8)))]
    archive.sections = dict(sections[:2] + old + sections[2:])
    dataio.save_model(archive, model)
    code, _, err = run(capsys, "encode", "--model", str(model), "--features",
                       str(synth_dir / "x1.amx"), "--modality", "1",
                       "--out", str(tmp_path / "c.abc"))
    assert code == 2
    assert f"{model}: unknown section name 'P_1'" in err
    assert not (tmp_path / "c.abc").exists()


def test_eval_perfect_toy(tmp_path, capsys):
    plus = np.ones((2, 16))
    minus = -np.ones((2, 16))
    write_codes(pack_codes(np.vstack([plus, minus])), tmp_path / "db.abc")
    write_codes(pack_codes(np.vstack([plus[:1], minus[:1]])), tmp_path / "q.abc")
    write_class_labels(tmp_path / "dbl.amx", [0, 0, 1, 1], c=2)
    write_class_labels(tmp_path / "ql.amx", [0, 1], c=2)
    code, out, _ = run(capsys, "eval", "--query-codes", str(tmp_path / "q.abc"),
                       "--db-codes", str(tmp_path / "db.abc"),
                       "--query-labels", str(tmp_path / "ql.amx"),
                       "--db-labels", str(tmp_path / "dbl.amx"))
    assert code == 0
    assert "map,i2t,16,1.0" in out.splitlines()


def test_eval_mismatched_code_lengths(tmp_path, capsys):
    write_codes(pack_codes(np.ones((2, 8))), tmp_path / "q.abc")
    write_codes(pack_codes(np.ones((2, 16))), tmp_path / "db.abc")
    write_class_labels(tmp_path / "l.amx", [0, 0], c=1)
    code, _, err = run(capsys, "eval", "--query-codes", str(tmp_path / "q.abc"),
                       "--db-codes", str(tmp_path / "db.abc"),
                       "--query-labels", str(tmp_path / "l.amx"),
                       "--db-labels", str(tmp_path / "l.amx"))
    assert code == 2
    assert "8" in err and "16" in err


@pytest.mark.parametrize("query_classes, db_classes, message", [
    ([0, 1, 0], [0, 0, 1, 1], "labels cover 3 queries and 4 database items, codes 2 and 4"),
    ([0, 1], [0, 0, 1], "labels cover 2 queries and 3 database items, codes 2 and 4"),
], ids=["query", "database"])
def test_eval_code_and_label_counts_must_agree(tmp_path, capsys, monkeypatch,
                                               query_classes, db_classes, message):
    def no_ranking(*args):
        raise AssertionError("distances computed before the counts were checked")

    monkeypatch.setattr(retrieval, "_distances", no_ranking)
    write_codes(pack_codes(np.ones((4, 8))), tmp_path / "db.abc")
    write_codes(pack_codes(np.ones((2, 8))), tmp_path / "q.abc")
    write_class_labels(tmp_path / "dbl.amx", db_classes, c=2)
    write_class_labels(tmp_path / "ql.amx", query_classes, c=2)
    code, out, err = run(capsys, "eval", "--query-codes", str(tmp_path / "q.abc"),
                         "--db-codes", str(tmp_path / "db.abc"),
                         "--query-labels", str(tmp_path / "ql.amx"),
                         "--db-labels", str(tmp_path / "dbl.amx"))
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("extra, message", [
    (["--cutoff", "-5"], "--cutoff must be >= 0"),
    (["--cutoff", "-19999"], "--cutoff must be >= 0"),
    (["--cutoff", "5"], "cutoff 5 exceeds ranking length 4"),
    (["--topn", "0"], "top-N point 0 outside [1, 4]"),
    (["--topn", "2,5"], "top-N point 5 outside [1, 4]"),
])
def test_eval_bad_arguments_fail_before_ranking(tmp_path, capsys, monkeypatch, extra,
                                                message):
    def no_ranking(*args):
        raise AssertionError("distances computed before the arguments were checked")

    monkeypatch.setattr(retrieval, "_distances", no_ranking)
    write_codes(pack_codes(np.ones((4, 8))), tmp_path / "db.abc")
    write_codes(pack_codes(np.ones((1, 8))), tmp_path / "q.abc")
    write_class_labels(tmp_path / "dbl.amx", [0, 0, 1, 1], c=2)
    write_class_labels(tmp_path / "ql.amx", [0], c=2)
    code, out, err = run(capsys, "eval", "--query-codes", str(tmp_path / "q.abc"),
                         "--db-codes", str(tmp_path / "db.abc"),
                         "--query-labels", str(tmp_path / "ql.amx"),
                         "--db-labels", str(tmp_path / "dbl.amx"), *extra)
    assert code == 2 and out == ""
    assert message in err

def test_bench_tiny_sizes(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "40,80", "--bits", "8",
                       "--c", "3", "--sweeps", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,bits,seconds"
    assert lines[1].startswith("40,8,") and lines[2].startswith("80,8,")
    assert lines[3].startswith("slope,8,")


@pytest.mark.parametrize("sizes", ["200", "200,200"])
def test_bench_needs_two_distinct_sizes(capsys, monkeypatch, sizes):
    def no_training(*args, **kwargs):
        raise AssertionError("bench generated data before checking --sizes")

    monkeypatch.setattr(dataio, "generate_synthetic", no_training)
    code, out, err = run(capsys, "bench", "--sizes", sizes, "--bits", "8")
    assert code == 2 and out == ""
    assert "--sizes needs two or more distinct sizes" in err


@pytest.mark.parametrize("bits, message", [
    ("8,64", "code length r=64 needs at least r+1=65 instances"),
    ("0", "code length must be >= 1"),
], ids=["8,64", "0"])
def test_bench_checks_every_bits_value_first(capsys, monkeypatch, bits, message):
    def no_data(*args, **kwargs):
        raise AssertionError("bench generated data before checking --bits")

    monkeypatch.setattr(dataio, "generate_synthetic", no_data)
    code, out, err = run(capsys, "bench", "--sizes", "40,80", "--bits", bits,
                         "--c", "3", "--sweeps", "2")
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("sizes, c, message", [
    ("5,8", "10", "need n >= c, got n=5 < c=10"),
    ("40,80", "1", "need at least 2 classes, got c=1"),
], ids=["n-below-c", "one-class"])
def test_bench_checks_sizes_against_class_count_first(capsys, monkeypatch, sizes, c, message):
    def no_data(*args, **kwargs):
        raise AssertionError("bench generated data before checking --sizes against --c")

    monkeypatch.setattr(dataio, "generate_synthetic", no_data)
    code, out, err = run(capsys, "bench", "--sizes", sizes, "--bits", "2", "--c", c)
    assert code == 2 and out == ""
    assert message in err


def test_train_degenerate_data_is_exit_3(tmp_path, capsys):
    # identical rows make every point coincide with every anchor (width 0)
    flat = np.ones((20, 4))
    dataio.write_matrix(flat, tmp_path / "x1.amx")
    dataio.write_matrix(flat[:, :3], tmp_path / "x2.amx")
    write_class_labels(tmp_path / "labels.amx", [i % 2 for i in range(20)], c=2)
    code, _, err = run(capsys, "train", "--x1", str(tmp_path / "x1.amx"),
                       "--x2", str(tmp_path / "x2.amx"),
                       "--labels", str(tmp_path / "labels.amx"),
                       "--out", str(tmp_path / "m.amh"),
                       "--bits", "4", "--k1", "8", "--k2", "8")
    assert code == 3
    assert "width" in err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("n=30\nc=3\nseed=9\n")
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "synth", "--config", str(config), "--c", "4",
                     "--out", str(out_dir))
    assert code == 0
    labels = dataio.read_labels(out_dir / "labels.amx")
    assert labels.c == 4      # flag beats the config file
    assert labels.n == 30     # config beats the default


def test_config_unknown_key_rejected(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("bogus=1\n")
    code, _, err = run(capsys, "synth", "--config", str(config),
                       "--out", str(tmp_path / "o"))
    assert code == 2
    assert "bogus" in err


@pytest.mark.parametrize("content, message", [
    (b"n=30\nc=abc\n", "run.cfg:2: bad value for c"),
    (b"seed=9\n# caf\xe9\n", "run.cfg:2: not UTF-8"),
])
def test_config_malformed_value_is_exit_2(tmp_path, capsys, content, message):
    config = tmp_path / "run.cfg"
    config.write_bytes(content)
    code, _, err = run(capsys, "synth", "--config", str(config),
                       "--out", str(tmp_path / "o"))
    assert code == 2
    assert message in err


def test_help_lists_defaults():
    parser = build_parser()
    for command, flags in (("train", ["--omega", "--k1", "--k2", "--lambda-h",
                                      "--max-iters", "--tol", "--bits"]),
                           ("synth", ["--noise", "--seed"])):
        sub = parser._subparsers._group_actions[0].choices[command]
        text = sub.format_help()
        for flag in flags:
            assert flag in text
    train_help = parser._subparsers._group_actions[0].choices["train"].format_help()
    assert "default: 0.5" in train_help       # omega
    assert "default: 500" in train_help       # k1
    assert "default: 1000" in train_help      # k2
    assert "default: 30" in train_help        # max-iters


def _subparsers(parser):
    return parser._subparsers._group_actions[0].choices


def test_named_command_parser_matches_the_full_parser():
    full = build_parser()
    for command in _subparsers(full):
        named = build_parser(command)
        assert list(_subparsers(named)) == list(_subparsers(full))
        assert named.format_help() == full.format_help()
        for other, sub in _subparsers(named).items():
            if other == command:
                assert sub.format_help() == _subparsers(full)[other].format_help()
            else:
                assert [a.dest for a in sub._actions] == ["help"]


def test_main_builds_only_the_named_command(monkeypatch, capsys, tmp_path):
    built = []

    def spy(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    assert main(["synth", "--n", "40", "--c", "2", "--out", str(tmp_path)]) == 0
    with pytest.raises(SystemExit):
        main(["--help"])
    assert built == ["synth", None]
