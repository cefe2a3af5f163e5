"""Benchmark of the zombiescan detection pipeline, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is imported from `src/` of
that checkout; corpora and outputs go to `.bench_work/`. One run:

1. checks the golden anchor: the stage sequence on the committed
   `tests/data/zombie_5x500` must give the confusion and community count
   recorded in `tests/data/pilot_results.json`;
2. generates the workload's corpus from the seed (untimed, in a child
   process, cached by workload, shape, seed and generator version);
3. runs `setup` (parse, graph build, cache write) SETUP_REPEATS times;
4. runs `analysis` (cache to evaluation files) until S seconds have passed
   and at least MIN_ANALYSES times, checking the outputs of every run.

With `--trace 0` it reports the end-to-end metrics: medians of setup and
analysis time, the process's peak RSS, recall, precision and the share of
operations that passed their checks. The two times are scaled to a nominal
machine speed by a reference kernel timed around every operation (see
`Reference`); the raw wall-clock medians are printed in the table. With
`--trace 1` it alternates traced and untraced analyses and reports per-layer
metrics from the spans, which it also writes to
`.bench_work/trace-<workload>-s<seed>.json`. The last line of standard
output is one JSON object:
`{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
Each run is one process with one thread; run each workload in a fresh
process, because peak RSS only ever rises.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
ANCHOR = ROOT / "tests" / "data" / "zombie_5x500"
PILOT = ROOT / "tests" / "data" / "pilot_results.json"

SETUP_REPEATS = 3
MIN_ANALYSES = 3  # with --trace 1: this many traced and as many untraced
# About the median time of the reference kernel on an Intel Xeon at 2.1 GHz
# (2 vCPUs, Python 3.11, numpy 2.4).
REFERENCE_NOMINAL_S = 0.2


def _import_program():
    """Import zombiescan from this checkout's src/, or exit if it is not there."""
    src = ROOT / "src"
    if not (src / "zombiescan" / "__init__.py").is_file() or not PILOT.is_file():
        sys.exit(f"error: {ROOT} holds no zombiescan checkout (src/ and tests/data/)")
    sys.path.insert(0, str(src))
    import zombiescan

    if Path(zombiescan.__file__).resolve().parent != src / "zombiescan":
        sys.exit(f"error: imported zombiescan from {zombiescan.__file__}, not {src}")
    return zombiescan


zombiescan = _import_program()

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import stages  # noqa: E402
from corpus import Shape  # noqa: E402


@dataclass(frozen=True)
class Workload:
    shape: Shape
    io_source: str
    planted_partition: bool  # rank the planted partition instead of running Louvain


# Why each workload exists is recorded in BENCHMARK.json. The blocks are
# dense enough, and no arc joins two blocks, so that Louvain's local moves
# settle in the same number of sweeps whatever the seed: the seed changes the
# inputs, not the work. Every community's fence also sits well above the
# zombies' importance, so recall does not hinge on the seed either.
WORKLOADS = {
    "dense-10x800": Workload(
        Shape(blocks=10, block_size=800, p_in=0.15),
        "local", False),
    "many-400x50": Workload(
        Shape(blocks=400, block_size=50, p_in=0.7),
        "profile", False),
    "rerank-50k": Workload(
        Shape(blocks=50, block_size=1000, p_in=0.04),
        "local", True),
}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "analysis_s": "s",
    "peak_rss_mb": "MiB",
    "recall": "ratio",
    "precision": "ratio",
    "ops_ok": "ratio",
}

SPAN_METRICS = (  # per-layer self time, summed per operation, median over operations
    "ingest.parse_weibo_network", "graph.build_graph", "ingest.cache_save",
    "ingest.cache_load", "graph.symmetrize", "community.louvain", "community.modularity",
    "community.write_partition_csv", "community.read_partition_csv",
    "ingest.parse_profiles", "rank.rank_all_communities", "rank.write_ranks_csv",
    "detect.detect_zombies", "detect.write_report_csv", "detect.write_summary_json",
    "evaluate.read_truth_csv", "evaluate.confusion", "evaluate.write_metrics_json",
    "evaluate.parse_region_profiles", "evaluate.region_distribution",
    "evaluate.write_regions_csv",
)
LAYERS = ("ingest", "graph", "community", "rank", "detect", "evaluate")


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "zombiescan": zombiescan.__version__,
        "ZOMBIESCAN_THREADS": os.environ.get("ZOMBIESCAN_THREADS"),
        "generator_version": corpus.GENERATOR_VERSION,
    }


class Reference:
    """Fixed work of the kinds the pipeline does, timed between operations.

    On a shared host the speed of identical work drifts by up to 50 % over
    minutes, which is far more than the changes the benchmark should see.
    Dividing an operation's time by the mean of the reference times just
    before and just after it cancels most of that drift. The kernel parses
    integers from text, runs a dict-heavy Python loop and scatters with
    numpy; it never calls the program, so the program's speed still shows.
    """

    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        self.values = rng.random(1 << 20)
        self.index = rng.integers(0, 1 << 20, size=1 << 20)
        self.text = " ".join(map(str, range(400_000))).encode("ascii")
        self.times = [self.measure()]

    def measure(self) -> float:
        start = time.perf_counter()
        sum(map(int, self.text.split()))
        counts: dict[int, int] = {}
        for i in range(300_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        for _ in range(6):
            np.bincount(self.index, weights=self.values)
        return time.perf_counter() - start

    def scale(self, seconds: float) -> float:
        """Scale the time of the operation that just ended to the nominal speed."""
        self.times.append(self.measure())
        return seconds * REFERENCE_NOMINAL_S / ((self.times[-2] + self.times[-1]) / 2)


class Run:
    """Counts operations and collects the problems of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, label: str, fn):
        """Call fn() as one operation; returns (result, ok), result None on an exception."""
        self.attempted += 1
        gc.collect()
        try:
            result, problems = fn()
        except Exception:  # a failing stage is a failed operation, not a crash
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None, False
        if problems:
            for p in problems:
                print(f"check failed in {label}: {p}", file=sys.stderr)
            self.failed += 1
        return result, not problems


def golden_anchor(run: Run, out: Path) -> None:
    """The stage sequence on the committed corpus must reproduce the pilot record."""
    pilot = json.loads(PILOT.read_text())["zombie_5x500"]
    out.mkdir(parents=True, exist_ok=True)

    def once():
        tracer = stages.Tracer(False)
        stages.setup(tracer, ANCHOR / "weibo_network.txt", out / "graph.bin")
        res = stages.analysis(tracer, ANCHOR, out / "graph.bin", out, "local")
        problems = stages.check_analysis(res, out, pilot["criteria"])
        got = {"tp": res.tp, "fn": res.fn, "fp": res.fp, "tn": res.tn}
        if got != pilot["confusion"]:
            problems.append(f"anchor confusion {got} differs from {pilot['confusion']}")
        if res.communities != pilot["communities"]:
            problems.append(f"anchor found {res.communities} communities, "
                            f"pilot has {pilot['communities']}")
        return res, problems

    run.op("golden anchor", once)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    traced = bool(args.trace)
    pilot_criteria = json.loads(PILOT.read_text())["zombie_5x500"]["criteria"]

    WORK.mkdir(exist_ok=True)
    out = WORK / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    try:
        run = Run()
        golden_anchor(run, out / "anchor")
        corpus_dir = corpus.cached_corpus(WORK / "corpora", args.workload, wl.shape,
                                          args.seed, with_partition=wl.planted_partition)
        network = corpus_dir / "weibo_network.txt"
        with network.open() as fh:
            declared_arcs = int(fh.readline().split()[1])
        partition = corpus_dir / "partition.csv" if wl.planted_partition else None
        cache = out / "graph.bin"
        tracer = stages.Tracer(traced)
        reference = Reference()

        setups, setup_s = [], []
        for i in range(SETUP_REPEATS):
            def one_setup():
                res = stages.setup(tracer, network, cache)
                ok = res.arcs_parsed == declared_arcs == res.graph_arcs
                return res, [] if ok else [f"parsed {res.arcs_parsed} arcs and built "
                                           f"{res.graph_arcs}, file declares {declared_arcs}"]
            res, ok = run.op(f"setup {i}", one_setup)
            scaled = reference.scale(res.seconds if res else 0.0)
            if ok:
                setups.append(res)
                setup_s.append(scaled)

        analyses: list[tuple[stages.AnalysisResult, bool]] = []  # (result, traced)
        analysis_s = []
        first_digest = None
        start = time.perf_counter()
        while (len(analyses) < MIN_ANALYSES * (2 if traced else 1)
               or time.perf_counter() - start < args.seconds):
            with_spans = traced and len(analyses) % 2 == 1
            op_tracer = tracer if with_spans else stages.Tracer(False)

            def one_analysis():
                nonlocal first_digest
                res = stages.analysis(op_tracer, corpus_dir, cache, out, wl.io_source,
                                      partition)
                problems = stages.check_analysis(res, out, pilot_criteria)
                digest = hashlib.sha256((out / "report.csv").read_bytes()).hexdigest()
                first_digest = first_digest or digest
                if digest != first_digest:
                    problems.append("report.csv differs from the first run's")
                return res, problems

            res, ok = run.op(f"analysis {len(analyses)}", one_analysis)
            scaled = reference.scale(res.seconds if res else 0.0)
            if res is None:
                if time.perf_counter() - start >= args.seconds:
                    break
                continue
            analyses.append((res, with_spans))
            analysis_s.append(scaled)

        metrics = (per_layer(tracer, setups, analyses) if traced
                   else end_to_end(run, setup_s, analysis_s, analyses[:1]))
        raw = {"setup_s": [r.seconds for r in setups],
               "analysis_s": [r.seconds for r, _ in analyses],
               "reference_s": reference.times}
        if traced:
            write_trace(tracer, WORK / f"trace-{args.workload}-s{args.seed}.json", args)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    report(args, wl, metrics, raw, run)
    return 0


def end_to_end(run: Run, setup_s: list[float], analysis_s: list[float],
               analyses) -> dict:
    """The end-to-end metrics from the scaled times and the first analysis."""
    if not setup_s or not analyses:
        raise SystemExit("error: no setup or analysis operation completed")
    first = analyses[0][0]
    return {
        "setup_s": setup_s,
        "analysis_s": analysis_s,
        "peak_rss_mb": [stages.maxrss_mb()],
        "recall": [stages.finite(first.recall)],
        "precision": [stages.finite(first.precision)],
        "ops_ok": [(run.attempted - run.failed) / run.attempted],
    }


def per_layer(tracer: stages.Tracer, setups, analyses) -> dict:
    traced = [r for r, t in analyses if t]
    plain = [r for r, t in analyses if not t]
    if not setups or not traced or not plain:
        raise SystemExit("error: no setup or analysis operation completed")
    roots = {i: s for i, s in enumerate(tracer.spans) if s.parent is None}
    per_op: dict[int, dict[str, float]] = {i: {} for i in roots}
    for i, s in enumerate(tracer.spans):
        if s.parent is not None:
            totals = per_op[s.op]
            totals[s.name] = totals.get(s.name, 0.0) + tracer.self_time(i)
    setup_ops = [i for i, s in roots.items() if s.name == "setup"]
    analysis_ops = [i for i, s in roots.items() if s.name == "analysis"]

    out: dict[str, list[float]] = {}
    for name in SPAN_METRICS:
        ops = setup_ops if name in ("ingest.parse_weibo_network", "graph.build_graph",
                                    "ingest.cache_save") else analysis_ops
        out[name + "_s"] = [per_op[i].get(name, 0.0) for i in ops]
    first = setups[0]
    out["ingest.parse_arcs_per_s"] = [
        first.arcs_parsed / per_op[i]["ingest.parse_weibo_network"] for i in setup_ops]
    out["ingest.cache_bytes_per_arc"] = [first.cache_bytes / max(first.graph_arcs, 1)]
    out["graph.bytes_per_arc"] = [first.graph_bytes / max(first.graph_arcs, 1)]

    res = traced[0]
    intra = res.intra_arcs
    arc_sweeps = float(sum(it * intra[cid] for cid, it in res.iterations.items()))
    out["community.levels"] = [float(res.levels or 0)]
    out["community.communities"] = [float(res.communities)]
    out["community.modularity"] = [stages.finite(res.modularity)]
    out["community.disconnected"] = [float(res.disconnected)]
    out["rank.sweeps_total"] = [float(sum(res.iterations.values()))]
    out["rank.sweeps_max"] = [float(max(res.iterations.values()))]
    out["rank.nonconverged"] = [float(res.nonconverged)]
    out["rank.arc_sweeps"] = [arc_sweeps]
    out["rank.arc_sweeps_per_s"] = [
        arc_sweeps / per_op[i]["rank.rank_all_communities"] for i in analysis_ops]
    out["detect.flagged"] = [float(res.flagged)]
    out["detect.skipped_small"] = [float(res.skipped_small)]
    for layer in LAYERS:
        out[f"{layer}.maxrss_mb"] = [max((s.maxrss_mb for s in tracer.spans
                                          if s.name.startswith(layer + ".")), default=0.0)]
    traced_s = [tracer.spans[i].end - tracer.spans[i].start for i in analysis_ops]
    out["trace.analysis_s"] = traced_s
    out["trace.setup_s"] = [tracer.spans[i].end - tracer.spans[i].start for i in setup_ops]
    out["trace.unspanned_s"] = [tracer.self_time(i) for i in analysis_ops]
    out["trace.overhead_s"] = [statistics.median(traced_s)
                               - statistics.median(r.seconds for r in plain)]
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in (("_per_s", "1/s"), ("_per_arc", "B"), ("_mb", "MiB"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "ratio" if name == "community.modularity" else "count"


def write_trace(tracer: stages.Tracer, path: Path, args) -> None:
    spans = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
              "op": s.op, "maxrss_mb": s.maxrss_mb} for s in tracer.spans]
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "settings": stages.SETTINGS, "machine": machine(),
                                "spans": spans}, indent=1) + "\n")


def report(args, wl: Workload, metrics: dict, raw: dict, run: Run) -> None:
    """Print a table of every metric's samples and raw times, then the JSON result line."""
    print(f"# workload {args.workload} seed {args.seed} io_source {wl.io_source} "
          f"planted_partition {wl.planted_partition}")
    print(f"# machine {json.dumps(machine())}")
    print(f"# settings {json.dumps(stages.SETTINGS)}")
    print(f"# {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'n':>3} unit")
    rows = list(metrics.items()) + [(f"raw.{k}", v) for k, v in raw.items() if v]
    for name, values in rows:
        q1, med, q3 = quartiles(values)
        print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(values):12.6g} "
              f"{len(values):3d} {unit_of(name)}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": statistics.median(values), "unit": unit_of(name)}
                    for name, values in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
