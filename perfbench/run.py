"""xmodhash benchmark: fit / search workloads, end-to-end and per-layer.

Usage (from the repository root; no install needed):

    python3 perfbench/run.py --workload fit --seed 1 --seconds 30 --trace 0

Each run starts fresh processes with the BLAS thread count pinned: first a
set-up process several times over (imports, seeded data generation, writing
the AMX1 inputs; ``setup_s`` is the median of their wall times), then one
measuring process (see ``workload.py``).  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run next to an
untraced one.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record,
including the environment and the spans, goes to ``perfbench/.work/``.

The exit code is 0 only when every command, lookup, oracle check and
determinism check passed.  See README.md in this directory.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKLOADS = ("fit", "search")
SETUPS = 9              # set-up processes per run; setup_s is their median
BLAS_THREADS = 1        # one thread: steady timings, bitwise-repeatable BLAS
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s", "train_s": "s", "encode_s": "s", "eval_s": "s", "pipeline_s": "s",
    "lookup_p50_ms": "ms", "lookup_p95_ms": "ms", "peak_rss_mb": "MB",
    "map_i2t": "mAP", "map_t2i": "mAP",
}

# per-layer metric -> (span or counter name, field, unit).  The fields: "s" and
# "self_s" of a span, a counter's "sum" over the repetition, or its "mean" per
# call of the span that counts it.
PER_LAYER = {
    "kernelfeat.kernelize.s": ("kernelfeat.kernelize", "s", "s"),
    "kernelfeat.kernelize.cells": ("kernelfeat.kernelize.cells", "sum", "count"),
    "kernelfeat.estimate_width.s": ("kernelfeat.estimate_width", "s", "s"),
    "kernelfeat.select_anchors.s": ("kernelfeat.select_anchors", "s", "s"),
    "trainer.train.s": ("trainer.train", "s", "s"),
    "trainer.train.self_s": ("trainer.train", "self_s", "s"),
    "trainer.init_state.s": ("trainer.init_state", "s", "s"),
    "trainer.update_projection.s": ("trainer.update_projection", "s", "s"),
    "trainer.update_label_projection.s": ("trainer.update_label_projection", "s", "s"),
    "trainer.update_rotation.s": ("trainer.update_rotation", "s", "s"),
    "trainer.update_latent.s": ("trainer.update_latent", "s", "s"),
    "trainer.update_codes.s": ("trainer.update_codes", "s", "s"),
    "trainer.objective_value.s": ("trainer.objective_value", "s", "s"),
    "trainer.sweeps": ("trainer.train.sweeps", "sum", "count"),
    "trainer.update_latent.accept_ratio": ("trainer.update_latent.accepted", "mean", "ratio"),
    "encoder.fit_ridge_encoder.s": ("encoder.fit_ridge_encoder", "s", "s"),
    "encoder.encode.s": ("encoder.encode", "s", "s"),
    "encoder.encode.rows": ("encoder.encode.rows", "sum", "count"),
    "retrieval.mean_average_precision.s": ("retrieval.mean_average_precision", "s", "s"),
    "retrieval.topn_precision_curve.s": ("retrieval.topn_precision_curve", "s", "s"),
    "retrieval.average_precision.s": ("retrieval.average_precision", "s", "s"),
    "retrieval.RelevanceJudge.relevance.s": ("retrieval.RelevanceJudge.relevance", "s", "s"),
    "retrieval.rank_by_hamming.s": ("retrieval.rank_by_hamming", "s", "s"),
    "retrieval.rank_by_hamming.calls": ("retrieval.rank_by_hamming.calls", "sum", "count"),
    "retrieval.rank_by_hamming.pairs": ("retrieval.rank_by_hamming.pairs", "sum", "count"),
    "retrieval.pack_codes.s": ("retrieval.pack_codes", "s", "s"),
    "retrieval.write_codes.s": ("retrieval.write_codes", "s", "s"),
    "retrieval.read_codes.s": ("retrieval.read_codes", "s", "s"),
    "dataio.read_matrix.s": ("dataio.read_matrix", "s", "s"),
    "dataio.read_labels.s": ("dataio.read_labels", "s", "s"),
    "dataio.save_model.s": ("dataio.save_model", "s", "s"),
    "dataio.load_model.s": ("dataio.load_model", "s", "s"),
    "dataio.model_bytes": ("dataio.save_model.bytes", "mean", "bytes"),
    "labelspace.normalize_labels.s": ("labelspace.normalize_labels", "s", "s"),
    "cli.cmd_train.self_s": ("cli.cmd_train", "self_s", "s"),
    "cli.cmd_encode.self_s": ("cli.cmd_encode", "self_s", "s"),
    "cli.cmd_eval.self_s": ("cli.cmd_eval", "self_s", "s"),
    "trace_overhead_s": ("trace_overhead_s", "s", "s"),
}


def digest_files(paths) -> dict:
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in sorted(paths)}


def code_digest() -> str:
    """One sha256 over the program's and the benchmark's source files."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as e:
        return f"unavailable ({e})"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: list, env: dict, capture: bool = False) -> subprocess.CompletedProcess:
    """Run workload.py; unless captured, its stdout passes through to stderr."""
    return subprocess.run([sys.executable, str(HERE / "workload.py")] + args, env=env,
                          stdout=subprocess.PIPE if capture else sys.stderr, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)


def environment(measured: dict) -> dict:
    return dict(measured, nproc=len(os.sched_getaffinity(0)),
                blas_threads_pinned=BLAS_THREADS, python=platform.python_version(),
                platform=platform.platform(), git_commit=git_commit(),
                code_sha256=code_digest())


def check_determinism(key: str, digests: dict) -> bool:
    """Same workload, seed, code and set-up must give the same input and output digests.

    The key carries the code digest and the numpy / BLAS / Python set-up, so a
    run on other code or another set-up starts a new record instead of being
    compared with this one.
    """
    path = WORK / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        return known[key] == digests
    known[key] = digests
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "xmodhash" / "__init__.py").is_file():
        print(f"error: no xmodhash package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]

    setup_times, input_digests = [], []
    for _ in range(SETUPS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = run_child(["setup"] + common, env, capture=True)
        if proc.returncode != 0:
            print(f"error: set-up exited with code {proc.returncode}", file=sys.stderr)
            return 1
        setup_times.append(float(proc.stdout.split()[-1]) - start)
        input_digests.append(digest_files((work / "data").iterdir()))
    inputs_repeat = all(d == input_digests[0] for d in input_digests)

    proc = run_child(["measure", "--seconds", str(args.seconds), "--trace", str(args.trace)]
                     + common, env)
    if proc.returncode != 0:
        print(f"error: measurement exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads((work / "measure.json").read_text())
    checks = dict(result["checks"], inputs_repeat=inputs_repeat)
    env_record = environment(result["environment"])
    if not result["failed"]:
        digests = {"inputs": input_digests[0], "outputs": result["digests"]}
        setup = ",".join(str(env_record[k]) for k in ("numpy", "blas", "blas_threads", "python"))
        key = f"{args.workload}:seed={args.seed}:code={env_record['code_sha256']}:env={setup}"
        checks["digests_match_earlier_runs"] = check_determinism(key, digests)
    failed = result["failed"] + sum(not ok for ok in checks.values())
    attempted = result["attempted"] + len(checks)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_record,
        "setup_s_samples": setup_times, "checks": checks,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "measure": result,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    metrics = {}
    if args.trace == 0 and "end_to_end" in result:
        values = dict(result["end_to_end"], setup_s=statistics.median(setup_times))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    elif args.trace == 1 and "layers" in result:
        metrics = layer_metrics(result["layers"], result["trace_overhead_s"])
    print_report(record, metrics)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def layer_metrics(layers: dict, trace_overhead_s: float) -> dict:
    """The per-layer metrics from the traced run; a layer that did not run reads 0."""
    spans, counters = layers["spans"], layers["counters"]
    metrics = {}
    for name, (source, field, unit) in PER_LAYER.items():
        if name == "trace_overhead_s":
            value = trace_overhead_s
        elif field in ("s", "self_s"):
            value = spans.get(source, {}).get(field, 0.0)
        elif field == "sum":
            value = counters.get(source, 0.0)
        else:
            calls = counters.get(source.rsplit(".", 1)[0] + ".calls", 0.0)
            value = counters.get(source, 0.0) / calls if calls else 0.0
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def print_report(record: dict, metrics: dict) -> None:
    env = record["environment"]
    m = record["measure"]
    print(f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}"
          f"  trace {record['trace']}  repetitions {m['reps']} untraced, {m['traced_reps']} traced")
    print("environment " + "  ".join(f"{k}={v}" for k, v in sorted(env.items())))
    for name, ok in sorted(record["checks"].items()):
        print(f"check {name:40s} {'ok' if ok else 'FAILED'}")
    print(f"fail_ratio {record['failed']}/{record['attempted']} = {record['fail_ratio']:.6g}")
    if "lookup_samples" in m:
        print(f"lookup latency over {m['lookup_samples']} requests (closed loop, one client); "
              f"p99 {m['lookup_p99_ms']:.4f} ms (recorded, not a gated metric)")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    if record["trace"] and "layers" in m:
        print(f"{'span':40s} {'calls':>8s} {'busy_s':>10s} {'self_s':>10s}  parents")
        for name, rec in m["layers"]["spans"].items():
            parents = ",".join(sorted(rec["parents"]))
            print(f"{name:40s} {rec['calls']:8.0f} {rec['s']:10.4f} {rec['self_s']:10.4f}"
                  f"  {parents}")


if __name__ == "__main__":
    sys.exit(main())
