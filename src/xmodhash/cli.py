"""Command-line entry point: synth / train / encode / eval / bench.

Flag precedence is command line > config file > built-in defaults.  The
config file uses the same plain key=value lines as the model metadata
section; unknown keys are rejected.  Exit codes: 0 success, 2 input or
validation problem, 3 numerical failure.
"""

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataio, kernelfeat, labelspace, retrieval, trainer
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
        Opt("--omega", float, 0.5, "weight of the code-quantization term"),
        Opt("--lambda1", float, 0.5, "modality-1 reconstruction weight"),
        Opt("--lambda2", float, 0.5, "modality-2 reconstruction weight"),
        Opt("--k1", int, 500, "modality-1 anchor count"),
        Opt("--k2", int, 1000, "modality-2 anchor count"),
        Opt("--lambda-h", float, 1.0, "hash-encoder ridge weight"),
        Opt("--max-iters", int, 30, "maximum training sweeps"),
        Opt("--tol", float, 1e-5, "relative objective decrease that stops training"),
        Opt("--sigma-sample-cap", int, 2000, "sample cap for the kernel width estimate"),
        Opt("--seed", int, 0, "random seed"),
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
        Opt("--d1", int, 32, "modality-1 feature dimension"),
        Opt("--d2", int, 16, "modality-2 feature dimension"),
        Opt("--noise", float, 0.3, "synthetic noise scale"),
        Opt("--k1", int, 500, "modality-1 anchor count"),
        Opt("--k2", int, 1000, "modality-2 anchor count"),
        Opt("--sweeps", int, 5, "fixed training sweeps per size"),
        Opt("--seed", int, 0, "random seed"),
    ],
}

_HELP = {
    "synth": "generate a seeded synthetic two-modality dataset",
    "train": "kernelize features, learn codes, and fit the hash encoders",
    "encode": "hash raw features with a trained model",
    "eval": "rank query codes against database codes and print metric CSV",
    "bench": "time training across synthetic sizes and fit a log-log slope",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xmodhash",
                                     description="cross-modal hashing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in _SPECS.items():
        p = sub.add_parser(command, help=_HELP[command])
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
    cfg = trainer.TrainConfig(r=v["bits"], omega=v["omega"],
                              lambdas=(v["lambda1"], v["lambda2"]),
                              max_iters=v["max_iters"], rel_tol=v["tol"], seed=v["seed"])
    xs = [dataio.read_matrix(v["x1"]), dataio.read_matrix(v["x2"])]
    labels = labelspace.normalize_labels(dataio.read_labels(v["labels"]))
    enc, state, report = fit_pipeline(xs, labels, cfg, (v["k1"], v["k2"]), v["lambda_h"],
                                      v["sigma_sample_cap"])
    dataio.save_model(to_archive(enc, state, report, cfg, v["lambda_h"]), v["out"])
    print(f"final objective {report.objective_history[-1]!r} "
          f"after {report.iterations_run} sweeps (converged={report.converged})")
    return 0


def cmd_encode(v: dict) -> int:
    if v["modality"] not in (1, 2):
        raise ValidationError(f"--modality must be 1 or 2, got {v['modality']}")
    enc = from_archive(dataio.load_model(v["model"]))
    codes = encode(dataio.read_matrix(v["features"]), enc, v["modality"])
    retrieval.write_codes(codes, v["out"])
    print(f"wrote {codes.n} codes of {codes.r} bits to {v['out']}")
    return 0


def cmd_eval(v: dict) -> int:
    queries = retrieval.read_codes(v["query_codes"])
    db = retrieval.read_codes(v["db_codes"])
    query_labels = dataio.read_labels(v["query_labels"])
    db_labels = dataio.read_labels(v["db_labels"])
    if queries.n != query_labels.n:
        raise ValidationError(
            f"{queries.n} query codes but {query_labels.n} query labels")
    if db.n != db_labels.n:
        raise ValidationError(f"{db.n} database codes but {db_labels.n} database labels")
    if v["cutoff"] < 0:
        raise ValidationError(
            f"--cutoff must be >= 0 (0 means the full database), got {v['cutoff']}")
    points = _parse_int_list(v["topn"], "--topn") if v["topn"] else []
    judge = retrieval.RelevanceJudge(query_labels.values, db_labels.values)
    result, curve = retrieval.evaluate(queries, db, judge, cutoff=v["cutoff"] or None,
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
    bit_lengths = _parse_int_list(v["bits"], "--bits")
    print("n,bits,seconds")
    for bits in bit_lengths:
        seconds = []
        for n in sizes:
            x1, x2, raw = dataio.generate_synthetic(n, v["c"], v["d1"], v["d2"],
                                                    v["noise"], v["seed"])
            labels = labelspace.normalize_labels(raw)
            _, phi1 = kernelfeat.fit_kernel(x1, min(v["k1"], n), v["seed"])
            _, phi2 = kernelfeat.fit_kernel(x2, min(v["k2"], n), v["seed"])
            # fixed sweep count so per-size times are directly comparable
            cfg = trainer.TrainConfig(r=bits, max_iters=v["sweeps"], rel_tol=1e-300,
                                      seed=v["seed"])
            start = time.perf_counter()
            trainer.train([phi1.T, phi2.T], labels, cfg)
            seconds.append(time.perf_counter() - start)
            print(f"{n},{bits},{seconds[-1]!r}")
        slope = np.polyfit(np.log(sizes), np.log(seconds), 1)[0]
        print(f"slope,{bits},{float(slope)!r}")
    return 0


_COMMANDS = {"synth": cmd_synth, "train": cmd_train, "encode": cmd_encode,
             "eval": cmd_eval, "bench": cmd_bench}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
