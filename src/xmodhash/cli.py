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
from .encoder import HashEncoder, encode, fit_ridge_encoder
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
        for lineno, line in enumerate(Path(config_path).read_text().splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            key = key.strip()
            if not sep:
                raise ValidationError(f"{config_path}:{lineno}: expected key=value")
            if key not in opts:
                raise ValidationError(f"{config_path}:{lineno}: unknown key {key!r}")
            values[key] = opts[key].type(raw.strip())
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


def _fit_kernel(x, k: int, seed: int, sample_cap: int) -> tuple[kernelfeat.KernelMap, np.ndarray]:
    anchors = kernelfeat.select_anchors(x, k, seed)
    sigma = kernelfeat.estimate_width(x, anchors, sample_cap=sample_cap, seed=seed)
    km = kernelfeat.KernelMap(anchors=anchors, sigma=sigma)
    phi = kernelfeat.kernelize(x, km)
    return km, phi.values


def cmd_train(v: dict) -> int:
    x1 = dataio.read_matrix(v["x1"])
    x2 = dataio.read_matrix(v["x2"])
    x1.modality_id, x2.modality_id = 1, 2
    labels = labelspace.normalize_labels(dataio.read_labels(v["labels"]))
    if not (x1.n == x2.n == labels.n):
        raise ValidationError(
            f"instance counts disagree: x1 has {x1.n}, x2 has {x2.n}, labels have {labels.n}")
    km1, phi1 = _fit_kernel(x1, v["k1"], v["seed"], v["sigma_sample_cap"])
    km2, phi2 = _fit_kernel(x2, v["k2"], v["seed"], v["sigma_sample_cap"])
    cfg = trainer.TrainConfig(r=v["bits"], omega=v["omega"],
                              lambdas=(v["lambda1"], v["lambda2"]),
                              max_iters=v["max_iters"], rel_tol=v["tol"], seed=v["seed"])
    state, report = trainer.train([phi1.T, phi2.T], labels, cfg)
    codes_t = state.codes.T
    ph = [fit_ridge_encoder(phi, codes_t, v["lambda_h"]) for phi in (phi1, phi2)]
    archive = dataio.ModelArchive(
        sections={
            "V": state.latent, "R": state.rotation, "M": state.label_proj,
            "B": state.codes,
            "P_1": state.proj[0], "P_2": state.proj[1],
            "Ph_1": ph[0], "Ph_2": ph[1],
            "anchors_1": km1.anchors, "anchors_2": km2.anchors,
            "kcenter_1": km1.center.reshape(1, -1), "kcenter_2": km2.center.reshape(1, -1),
        },
        metadata={
            "r": str(cfg.r), "omega": repr(cfg.omega),
            "lambda_1": repr(cfg.lambdas[0]), "lambda_2": repr(cfg.lambdas[1]),
            "lambda_h": repr(v["lambda_h"]),
            "sigma_1": repr(km1.sigma), "sigma_2": repr(km2.sigma),
            "k_1": str(v["k1"]), "k_2": str(v["k2"]),
            "seed": str(cfg.seed), "iterations": str(report.iterations_run),
            "converged": str(report.converged).lower(),
            "objective_history": ",".join(repr(x) for x in report.objective_history),
        })
    dataio.save_model(archive, v["out"])
    print(f"final objective {report.objective_history[-1]!r} "
          f"after {report.iterations_run} sweeps (converged={report.converged})")
    return 0


def _encoder_from_archive(archive: dataio.ModelArchive) -> HashEncoder:
    kernels = []
    for t in (1, 2):
        kernels.append(kernelfeat.KernelMap(
            anchors=archive.sections[f"anchors_{t}"],
            sigma=float(archive.metadata[f"sigma_{t}"]),
            center=archive.sections[f"kcenter_{t}"][0]))
    ridge = float(archive.metadata.get("lambda_h", "1.0"))
    return HashEncoder(proj=[archive.sections["Ph_1"], archive.sections["Ph_2"]],
                       kernels=kernels, ridge=ridge)


def cmd_encode(v: dict) -> int:
    if v["modality"] not in (1, 2):
        raise ValidationError(f"--modality must be 1 or 2, got {v['modality']}")
    archive = dataio.load_model(v["model"])
    features = dataio.read_matrix(v["features"])
    features.modality_id = v["modality"]
    codes = encode(features, _encoder_from_archive(archive), v["modality"])
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
    bit_lengths = _parse_int_list(v["bits"], "--bits")
    print("n,bits,seconds")
    for bits in bit_lengths:
        seconds = []
        for n in sizes:
            x1, x2, raw = dataio.generate_synthetic(n, v["c"], v["d1"], v["d2"],
                                                    v["noise"], v["seed"])
            labels = labelspace.normalize_labels(raw)
            _, phi1 = _fit_kernel(x1, min(v["k1"], n), v["seed"], 2000)
            _, phi2 = _fit_kernel(x2, min(v["k2"], n), v["seed"], 2000)
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
