"""One benchmark workload process: ``setup`` writes the inputs, ``measure`` runs them.

``setup`` generates the workload's seeded two-modality dataset and writes the
AMX1 files the program reads.  ``measure`` repeats the pipeline

    xmodhash train -> 4 x xmodhash encode -> 2 x xmodhash eval -> lookups

through the public entry points (``cli.main`` for the commands,
``encoder.encode`` + ``retrieval.rank_by_hamming`` for lookups) until its time
is used, checks the outputs against the brute-force oracle, and writes one
JSON record.  With ``--trace 1`` it alternates untraced and traced repetitions
so the per-layer numbers and the tracing overhead come from one process.

Both modes expect ``src/`` on ``sys.path`` and the BLAS thread count already
pinned in the environment; ``run.py`` starts them that way.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    n_train: int        # training rows; they are also the first database rows
    n_heldout: int      # database rows beyond the training set
    n_query: int        # query rows per direction
    c: int              # classes
    p_extra: float      # chance of each non-base class (0 = single-label)
    bits: int
    k1: int
    k2: int
    sweeps: int
    topn: str
    lookups: int        # timed lookup requests per repetition, in 7 equal bursts
    d1: int = 128
    d2: int = 64
    noise: float = 0.5


# Each repetition takes a few seconds, so a run holds ten or more of them and
# every median draws on samples spread over the whole run.  On a shared host
# the CPU speed drifts over tens of seconds; a median of three long samples
# follows the drift inside a run, a median of many short ones averages it.
WORKLOADS = {
    # Kernelize, the trainer updates and the ridge fit dominate.
    "fit": Workload("fit", n_train=4000, n_heldout=0, n_query=200, c=10, p_extra=0.0,
                    bits=64, k1=500, k2=1000, sweeps=8, topn="100", lookups=490),
    # Ranking and the metrics dominate; dense multi-label relevance.
    "search": Workload("search", n_train=4000, n_heldout=16000, n_query=250, c=24,
                       p_extra=0.08, bits=32, k1=300, k2=300, sweeps=3, topn="50,100,500",
                       lookups=700),
}

CENTROID_GAP = 2.5      # distance between any two class centroids
LOOKUP_WARMUP = 5       # untimed requests at the start of every burst
MAX_MEASURE_S = 120     # keeps a run on a slow machine inside its time limit
LOOKUP_BURSTS = 7       # one burst of lookups after each of the 7 commands
LOOKUP_TOP = 100
CHECK_QUERIES = 16      # fixed sample of queries per direction checked by the oracle
BASELINE_QUERIES = 200  # queries per direction scored with random codes
INPUTS = ("train_x1", "train_x2", "train_labels", "db_x1", "db_x2", "db_labels",
          "query_x1", "query_x2", "query_labels")


def input_paths(w: Workload, data: Path) -> dict:
    paths = {name: data / f"{name}.amx" for name in INPUTS}
    if w.n_heldout == 0:    # the training set is the database
        for part in ("x1", "x2", "labels"):
            paths[f"db_{part}"] = paths[f"train_{part}"]
    return paths


def generate(w: Workload, seed: int):
    """Seeded dataset: rows are training, then held-out database, then queries.

    Each row has one uniform base class plus every other class with chance
    ``p_extra``; its features in each modality are the sum of its classes'
    centroids plus isotropic Gaussian noise.  The centroids are orthogonal
    and every pair is ``CENTROID_GAP`` apart, so the classes are equally hard
    for every seed and mAP moves little from seed to seed.
    """
    streams = np.random.SeedSequence(seed).spawn(3)
    n = w.n_train + w.n_heldout + w.n_query
    rng = np.random.default_rng(streams[0])
    labels = rng.random((w.c, n)) < w.p_extra
    labels[rng.integers(0, w.c, size=n), np.arange(n)] = True
    labels = labels.astype(np.float64)
    feats = []
    for stream, d in zip(streams[1:3], (w.d1, w.d2)):
        rng = np.random.default_rng(stream)
        q, _ = np.linalg.qr(rng.standard_normal((d, w.c)))
        centroids = CENTROID_GAP / np.sqrt(2.0) * q.T
        feats.append(labels.T @ centroids + w.noise * rng.standard_normal((n, d)))
    return feats[0], feats[1], labels


def cmd_setup(w: Workload, seed: int, data: Path) -> None:
    from xmodhash import dataio

    x1, x2, labels = generate(w, seed)
    n_db = w.n_train + w.n_heldout
    rows = {"train": slice(0, w.n_train), "db": slice(0, n_db), "query": slice(n_db, None)}
    data.mkdir(parents=True, exist_ok=True)
    for part, sl in rows.items():
        if part == "db" and w.n_heldout == 0:
            continue
        dataio.write_matrix(x1[sl], data / f"{part}_x1.amx")
        dataio.write_matrix(x2[sl], data / f"{part}_x2.amx")
        dataio.write_matrix(labels[:, sl], data / f"{part}_labels.amx")
    # the parent reads this system-wide monotonic timestamp as "inputs ready"
    print(time.clock_gettime(time.CLOCK_MONOTONIC))


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_cli(argv: list) -> tuple:
    """Run one xmodhash command in-process; returns (seconds, exit code, stdout)."""
    from xmodhash import cli

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return time.perf_counter() - start, code, out.getvalue()


def parse_metrics(csv_text: str) -> dict:
    """Metric CSV (metric,task,bits,value) -> {metric: value}."""
    rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
    return {row[0]: float(row[3]) for row in rows if len(row) == 4}


class Pipeline:
    """File layout and command lines of one workload's pipeline."""

    def __init__(self, w: Workload, seed: int, data: Path, out: Path):
        self.w, self.seed, self.out = w, seed, out
        self.inputs = input_paths(w, data)
        self.model = out / "model.amh"
        self.codes = {name: out / f"{name}.abc" for name in ("query_1", "query_2", "db_1", "db_2")}

    def train_argv(self):
        w, i = self.w, self.inputs
        return ["train", "--x1", i["train_x1"], "--x2", i["train_x2"],
                "--labels", i["train_labels"], "--out", self.model, "--bits", w.bits,
                "--k1", w.k1, "--k2", w.k2, "--max-iters", w.sweeps, "--tol", "1e-300",
                "--seed", self.seed]

    def encode_argvs(self):
        for name, path in self.codes.items():
            part, modality = name.split("_")
            yield ["encode", "--model", self.model, "--modality", modality,
                   "--features", self.inputs[f"{part}_x{modality}"], "--out", path]

    def eval_argv(self, task, query_codes, db_codes, query_labels, db_labels):
        return ["eval", "--query-codes", query_codes, "--db-codes", db_codes,
                "--query-labels", query_labels, "--db-labels", db_labels,
                "--task", task, "--topn", self.w.topn]

    def eval_argvs(self):
        labels = (self.inputs["query_labels"], self.inputs["db_labels"])
        yield "i2t", self.eval_argv("i2t", self.codes["query_1"], self.codes["db_2"], *labels)
        yield "t2i", self.eval_argv("t2i", self.codes["query_2"], self.codes["db_1"], *labels)

    def output_digests(self) -> dict:
        digests = {"model.amh": sha256(self.model)}
        digests.update({f"{n}.abc": sha256(p) for n, p in self.codes.items()})
        return digests


def build_encoder(archive):
    """HashEncoder from an AMH1 archive's documented sections and metadata."""
    from xmodhash.encoder import HashEncoder
    from xmodhash.kernelfeat import KernelMap

    kernels = [KernelMap(anchors=archive.sections[f"anchors_{t}"],
                         sigma=float(archive.metadata[f"sigma_{t}"]),
                         center=archive.sections[f"kcenter_{t}"][0]) for t in (1, 2)]
    return HashEncoder(proj=[archive.sections["Ph_1"], archive.sections["Ph_2"]], kernels=kernels)


class LookupClient:
    """One closed-loop client: each request hashes one raw modality-1 query row,
    ranks the modality-2 database codes and keeps the top 100."""

    def __init__(self, p: Pipeline):
        from xmodhash import dataio, retrieval

        self.enc = build_encoder(dataio.load_model(p.model))
        self.db = retrieval.read_codes(p.codes["db_2"])
        self.queries = dataio.read_matrix(p.inputs["query_x1"]).values
        self.sent = 0
        self.tops = {}          # query row -> (code words, top-100 indices) of its first request

    def burst(self, count: int, tracer) -> list:
        """Send warm-up requests, then ``count`` timed ones, one after another;
        returns the latencies of the timed ones.

        The warm-up refills the caches the preceding command evicted, so the
        percentiles describe a warm client rather than which request of a
        burst happened to come first.
        """
        from xmodhash import dataio, encoder, retrieval

        latencies = []
        for i in range(LOOKUP_WARMUP + count):
            row = self.sent % self.queries.shape[0]
            self.sent += 1
            context = tracer.span("bench.lookup") if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            with context:
                x = dataio.FeatureMatrix(self.queries[row:row + 1], modality_id=1)
                code = encoder.encode(x, self.enc, 1)
                top = retrieval.rank_by_hamming(code.words[0], self.db)[:LOOKUP_TOP]
            if i >= LOOKUP_WARMUP:
                latencies.append(time.perf_counter() - start)
            if row not in self.tops:
                self.tops[row] = (code.words[0].copy(), top.copy())
        return latencies


def run_rep(p: Pipeline, tracer, client: dict) -> dict:
    """One repetition of the pipeline's commands, with a burst of lookups after
    each command so the latency samples spread over the whole run.

    ``client["lookup"]`` holds the LookupClient; the first repetition creates
    it as soon as its database codes exist and catches up on the bursts it
    missed, so every repetition sends the same number of requests.
    """
    rep = {"failed": 0, "attempted": 0, "encode_s": 0.0, "eval_s": 0.0,
           "metrics": {}, "lookup_s": []}
    burst = p.w.lookups // LOOKUP_BURSTS

    def command(argv, trace_name):
        context = tracer.span(trace_name) if tracer else contextlib.nullcontext()
        with context:
            seconds, code, stdout = run_cli(argv)
        rep["attempted"] += 1
        if code != 0:
            rep["failed"] += 1
            print(f"command failed with exit code {code}: xmodhash {' '.join(map(str, argv))}",
                  file=sys.stderr)
        elif "lookup" in client:
            rep["lookup_s"] += client["lookup"].burst(burst, tracer)
        return seconds, stdout

    rep["train_s"] = command(p.train_argv(), "bench.train")[0]
    for argv in p.encode_argvs():
        rep["encode_s"] += command(argv, "bench.encode")[0]
    if not rep["failed"] and "lookup" not in client:
        client["lookup"] = LookupClient(p)
        rep["lookup_s"] += client["lookup"].burst(5 * burst, tracer)   # train + 4 encodes
    for task, argv in p.eval_argvs():
        seconds, stdout = command(argv, "bench.eval")
        rep["eval_s"] += seconds
        rep["metrics"][task] = parse_metrics(stdout)
    rep["pipeline_s"] = rep["train_s"] + rep["encode_s"] + rep["eval_s"]
    rep["attempted"] += len(rep["lookup_s"])
    if not rep["failed"]:
        rep["digests"] = p.output_digests()
    return rep


def blas_environment() -> dict:
    """numpy version, BLAS vendor and the thread count the loaded BLAS reports."""
    import ctypes

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"numpy": np.__version__, "blas": f"{info.get('name')} {info.get('version')}",
              "blas_threads": "unknown"}
    libs = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
            if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["blas_threads"] = fn()
                return record
    return record


def cmd_measure(w: Workload, seed: int, data: Path, work: Path, seconds: float,
                trace: bool) -> dict:
    import oracle
    from spans import Tracer

    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    p = Pipeline(w, seed, data, out)
    tracer = Tracer() if trace else None
    plain, traced, layer_reps, client = [], [], [], {}
    start = time.perf_counter()
    while True:
        plain.append(run_rep(p, None, client))
        if tracer:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_rep(p, tracer, client))
            finally:
                tracer.uninstall()
            layer_reps.append((tracer.summary(), dict(tracer.counters)))
        if any(r["failed"] for r in plain + traced):
            break
        elapsed = time.perf_counter() - start
        projected = elapsed * (1 + 1 / len(plain))   # after one more repetition
        min_reps = 1 if trace else 3     # the median then drops a slow first repetition
        if projected > MAX_MEASURE_S or (len(plain) >= min_reps and projected > seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reps = plain + traced
    result = {
        "reps": len(plain),
        "traced_reps": len(traced),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "checks": {},
        "environment": blas_environment(),
    }
    if result["failed"]:
        return result

    def med(key, of=plain):
        return statistics.median(r[key] for r in of)

    lookups = [t for r in plain for t in r["lookup_s"]]
    p50, p95, p99 = (1e3 * np.percentile(lookups, (50, 95, 99))).tolist()
    result["end_to_end"] = {
        "train_s": med("train_s"), "encode_s": med("encode_s"), "eval_s": med("eval_s"),
        "pipeline_s": med("train_s") + med("encode_s") + med("eval_s"),
        "lookup_p50_ms": p50, "lookup_p95_ms": p95,
        "peak_rss_mb": peak_rss_mb,
        "map_i2t": plain[0]["metrics"]["i2t"]["map"],
        "map_t2i": plain[0]["metrics"]["t2i"]["map"],
    }
    # p99 is recorded but not reported as a metric: host-level stalls on a
    # small shared VM move it by 25-45% from run to run
    result["lookup_p99_ms"] = p99
    result["lookup_samples"] = len(lookups)
    keys = ("train_s", "encode_s", "eval_s", "pipeline_s")
    result["repetitions"] = [{key: r[key] for key in keys} for r in plain]
    result["eval_metrics"] = plain[0]["metrics"]

    # every repetition, traced or not, must reproduce the same outputs
    digests = [r["digests"] for r in reps]
    result["digests"] = digests[0]
    result["checks"]["outputs_repeat"] = all(d == digests[0] for d in digests)
    result["checks"].update(oracle.check_outputs(p, plain[0], client["lookup"].tops, seed,
                                                 CHECK_QUERIES, BASELINE_QUERIES))

    if trace:
        result["trace_overhead_s"] = med("pipeline_s", traced) - med("pipeline_s")
        result["layers"] = layer_summary(layer_reps)
        fields = ("id", "name", "start", "end", "parent", "trace")
        (work / "spans.json").write_text(json.dumps([dict(zip(fields, s)) for s in tracer.spans]))
    return result


def layer_summary(layer_reps: list) -> dict:
    """Median over traced repetitions of each span's and counter's per-rep value."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "parents": {}}
    spans = {}
    for name in sorted({name for summary, _ in layer_reps for name in summary}):
        recs = [summary.get(name, empty) for summary, _ in layer_reps]
        spans[name] = {key: statistics.median(r[key] for r in recs)
                       for key in ("calls", "s", "self_s")}
        spans[name]["parents"] = recs[-1]["parents"]
    counters = {key: statistics.median(c.get(key, 0.0) for _, c in layer_reps)
                for key in sorted({key for _, c in layer_reps for key in c})}
    return {"spans": spans, "counters": counters}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    data = args.work / "data"
    if args.mode == "setup":
        cmd_setup(w, args.seed, data)
        return 0
    result = cmd_measure(w, args.seed, data, args.work, args.seconds, bool(args.trace))
    (args.work / "measure.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
