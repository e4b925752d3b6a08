"""Command-line entry point: synth / train / encode / eval / bench.

Flag precedence is command line > config file > built-in defaults.  The
config file uses the same plain key=value lines as the model metadata
section; unknown keys are rejected.  Exit codes: 0 success, 2 input or
validation problem, 3 numerical failure.
"""

import argparse
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import dataio, labelspace, retrieval, trainer
from .encoder import encode, fit_pipeline, from_archive, to_archive
from .errors import NumericalError, ValidationError


@dataclass
class Opt:
    flag: str
    type: type
    default: object
    help: str
    required: bool = False

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


def _bool(text) -> bool:
    if isinstance(text, bool):
        return text
    if text.lower() in ("1", "true", "yes"):
        return True
    if text.lower() in ("0", "false", "no"):
        return False
    raise ValidationError(f"expected a boolean, got {text!r}")


# Timed training runs per bench size; the fastest is reported, so a run that
# shares the CPU with another process does not set the slope.
_BENCH_RUNS = 3

# the training defaults are TrainConfig's own, so they are stated once
_TRAIN = {f.name: f.default for f in fields(trainer.TrainConfig)}

_SPECS: dict[str, list[Opt]] = {
    "synth": [
        Opt("--n", int, 1000, "number of instances"),
        Opt("--c", int, 5, "number of classes"),
        Opt("--d1", int, 32, "modality-1 feature dimension"),
        Opt("--d2", int, 16, "modality-2 feature dimension"),
        Opt("--noise", float, 0.3, "per-coordinate Gaussian noise scale"),
        Opt("--seed", int, 0, "random seed"),
        Opt("--out", str, None, "output directory for x1.amx, x2.amx, labels.amx",
            required=True),
    ],
    "train": [
        Opt("--x1", str, None, "modality-1 feature file (AMX1 or CSV)", required=True),
        Opt("--x2", str, None, "modality-2 feature file (AMX1 or CSV)", required=True),
        Opt("--labels", str, None, "label file (AMX1 or CSV, 0/1 entries)", required=True),
        Opt("--out", str, None, "output model archive (.amh)", required=True),
        Opt("--bits", int, 32, "code length in bits"),
        Opt("--omega", float, _TRAIN["omega"], "weight of the code-quantization term"),
        Opt("--k1", int, 500, "modality-1 anchor count"),
        Opt("--k2", int, 1000, "modality-2 anchor count"),
        Opt("--lambda-h", float, 1.0, "hash-encoder ridge weight"),
        Opt("--max-iters", int, _TRAIN["max_iters"], "maximum training sweeps"),
        Opt("--tol", float, _TRAIN["rel_tol"], "relative objective decrease that stops training"),
        Opt("--seed", int, _TRAIN["seed"], "random seed"),
    ],
    "encode": [
        Opt("--model", str, None, "trained model archive (.amh)", required=True),
        Opt("--features", str, None, "raw feature file to encode", required=True),
        Opt("--modality", int, None, "which modality the features belong to (1 or 2)",
            required=True),
        Opt("--out", str, None, "output code file (.abc)", required=True),
    ],
    "eval": [
        Opt("--query-codes", str, None, "query code file (.abc)", required=True),
        Opt("--db-codes", str, None, "database code file (.abc)", required=True),
        Opt("--query-labels", str, None, "query label file", required=True),
        Opt("--db-labels", str, None, "database label file", required=True),
        Opt("--task", str, "i2t", "task tag copied into the output CSV"),
        Opt("--cutoff", int, 0, "ranking cutoff for mAP; 0 means the full database"),
        Opt("--topn", str, "", "comma-separated top-N precision points, e.g. 50,100"),
        Opt("--include-empty", _bool, False,
            "count empty-ground-truth queries as AP=0 instead of excluding them"),
    ],
    "bench": [
        Opt("--sizes", str, "2000,4000,8000,16000", "comma-separated training sizes"),
        Opt("--bits", str, "32", "comma-separated code lengths"),
        Opt("--c", int, 10, "synthetic class count"),
        Opt("--sweeps", int, 5, "fixed training sweeps per size"),
        Opt("--seed", int, 0, "random seed"),
    ],
}

_HELP = {
    "synth": "generate a seeded synthetic two-modality dataset",
    "train": "learn codes from the labels, then fit a kernel map and hash encoder per modality",
    "encode": "hash raw features with a trained model",
    "eval": "rank query codes against database codes and print metric CSV",
    "bench": "time training across synthetic sizes and fit a log-log slope",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser; given a ``command``, only that subcommand gets its
    arguments, while every subcommand stays registered with its help line."""
    parser = argparse.ArgumentParser(prog="xmodhash",
                                     description="cross-modal hashing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, opts in _SPECS.items():
        p = sub.add_parser(name, help=_HELP[name])
        if command is not None and name != command:
            continue
        p.add_argument("--config", type=str, default=argparse.SUPPRESS,
                       help="key=value config file; flags on the command line win")
        for opt in opts:
            text = opt.help if opt.required else f"{opt.help} (default: {opt.default})"
            if opt.type is _bool:
                p.add_argument(opt.flag, nargs="?", const=True, type=_bool,
                               default=argparse.SUPPRESS, help=text)
            else:
                p.add_argument(opt.flag, type=opt.type, default=argparse.SUPPRESS,
                               help=text)
    return parser


def _merge_options(args: argparse.Namespace) -> dict:
    """Apply precedence: explicit flags > config file entries > defaults."""
    opts = {opt.dest: opt for opt in _SPECS[args.command]}
    values = {dest: opt.default for dest, opt in opts.items()}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            text = Path(config_path).read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            lineno = e.object.count(b"\n", 0, e.start) + 1
            raise ValidationError(f"{config_path}:{lineno}: not UTF-8 text ({e})") from e
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            key = key.strip()
            if not sep:
                raise ValidationError(f"{config_path}:{lineno}: expected key=value")
            if key not in opts:
                raise ValidationError(f"{config_path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = opts[key].type(raw.strip())
            except ValueError as e:
                raise ValidationError(f"{config_path}:{lineno}: bad value for {key}: {e}") from e
    for dest in opts:
        if hasattr(args, dest):
            values[dest] = getattr(args, dest)
    missing = [opts[d].flag for d, v in values.items() if v is None and opts[d].required]
    if missing:
        raise ValidationError(f"missing required flags: {', '.join(missing)}")
    return values


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        items = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as e:
        raise ValidationError(f"{flag} must be a comma-separated integer list: {e}") from e
    if not items:
        raise ValidationError(f"{flag} must name at least one value")
    return items


def cmd_synth(v: dict) -> int:
    x1, x2, labels = dataio.generate_synthetic(v["n"], v["c"], v["d1"], v["d2"],
                                               v["noise"], v["seed"])
    out = Path(v["out"])
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_matrix(x1, out / "x1.amx")
    dataio.write_matrix(x2, out / "x2.amx")
    dataio.write_matrix(labels.values, out / "labels.amx")
    print(f"wrote {out / 'x1.amx'}, {out / 'x2.amx'}, {out / 'labels.amx'}")
    return 0


def cmd_train(v: dict) -> int:
    cfg = trainer.TrainConfig(r=v["bits"], omega=v["omega"], max_iters=v["max_iters"],
                              rel_tol=v["tol"], seed=v["seed"])
    # the feature files stay open, their rows read in blocks by the kernel fit
    with dataio.open_matrix(v["x1"]) as x1, dataio.open_matrix(v["x2"]) as x2:
        labels = labelspace.normalize_labels(dataio.read_labels(v["labels"]))
        enc, m, report = fit_pipeline([x1, x2], labels, cfg, (v["k1"], v["k2"]),
                                      v["lambda_h"])
    dataio.save_model(to_archive(enc, m, report, cfg, v["lambda_h"]), v["out"])
    print(f"final objective {report.objective_history[-1]!r} "
          f"after {report.iterations_run} sweeps (converged={report.converged})")
    return 0


def cmd_encode(v: dict) -> int:
    if v["modality"] not in (1, 2):
        raise ValidationError(f"--modality must be 1 or 2, got {v['modality']}")
    archive = dataio.load_model(v["model"])
    try:
        enc = from_archive(archive)
    except ValidationError as e:
        raise type(e)(f"{v['model']}: {e}") from e
    del archive     # the encoder holds every array encode reads
    features, dim = v["features"], enc.kernels[v["modality"] - 1].anchors.shape[1]
    # errors met while the rows are read name the file themselves
    with dataio.open_matrix(features) as x:
        if x.dim != dim:
            raise ValidationError(f"{features}: modality {v['modality']} expects "
                                  f"{dim}-dimensional features, got {x.dim}")
        codes = encode(x, enc, v["modality"])
    retrieval.write_codes(codes, v["out"])
    print(f"wrote {codes.n} codes of {codes.r} bits to {v['out']}")
    return 0


def cmd_eval(v: dict) -> int:
    if any(ch in v["task"] for ch in ",\n\r"):
        raise ValidationError(
            f"--task must not contain a comma or a line break, got {v['task']!r}")
    queries = retrieval.read_codes(v["query_codes"])
    db = retrieval.read_codes(v["db_codes"])
    query_labels = dataio.read_labels(v["query_labels"])
    db_labels = dataio.read_labels(v["db_labels"])
    if v["cutoff"] < 0:
        raise ValidationError(
            f"--cutoff must be >= 0 (0 means the full database), got {v['cutoff']}")
    points = _parse_int_list(v["topn"], "--topn") if v["topn"] else []
    result, curve = retrieval.evaluate(queries, db, query_labels.values, db_labels.values,
                                       cutoff=v["cutoff"] or None,
                                       include_empty=v["include_empty"], n_points=points)
    task, bits = v["task"], queries.r
    lines = ["metric,task,bits,value",
             f"map,{task},{bits},{result.value!r}",
             f"excluded_queries,{task},{bits},{result.excluded_queries}"]
    for n_top, precision in curve:
        lines.append(f"precision_at_{n_top},{task},{bits},{precision!r}")
    print("\n".join(lines))
    return 0


def cmd_bench(v: dict) -> int:
    sizes = _parse_int_list(v["sizes"], "--sizes")
    if len(set(sizes)) < 2:
        raise ValidationError(f"--sizes needs two or more distinct sizes to fit a slope, "
                              f"got {v['sizes']!r}")
    # fixed sweep count so per-size times are directly comparable; every
    # code length and size is checked before the first line of output
    cfgs = [trainer.TrainConfig(r=bits, max_iters=v["sweeps"], rel_tol=1e-300,
                                seed=v["seed"])
            for bits in _parse_int_list(v["bits"], "--bits")]
    for cfg in cfgs:
        trainer.check_code_length(cfg.r, min(sizes))
    dataio.check_synthetic_size(min(sizes), v["c"])
    print("n,bits,seconds")
    for cfg in cfgs:
        seconds = []
        for n in sizes:
            # training reads the labels only; they depend on n, c and the seed
            labels = labelspace.normalize_labels(
                dataio.generate_synthetic(n, v["c"], 32, 16, 0.3, v["seed"])[2])
            runs = []
            for _ in range(_BENCH_RUNS):
                start = time.perf_counter()
                trainer.train(labels, cfg)
                runs.append(time.perf_counter() - start)
            seconds.append(min(runs))
            print(f"{n},{cfg.r},{seconds[-1]!r}")
        slope = np.polyfit(np.log(sizes), np.log(seconds), 1)[0]
        print(f"slope,{cfg.r},{float(slope)!r}")
    return 0


_COMMANDS = {"synth": cmd_synth, "train": cmd_train, "encode": cmd_encode,
             "eval": cmd_eval, "bench": cmd_bench}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the first word that names a command is the one argparse picks: the
    # top-level parser has no option that takes a value
    command = next((word for word in argv if word in _SPECS), None)
    args = build_parser(command).parse_args(argv)
    try:
        values = _merge_options(args)
        return _COMMANDS[args.command](values)
    except NumericalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
