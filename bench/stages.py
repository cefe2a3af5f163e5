"""The stage sequence of `zombiescan pipeline`, called layer by layer.

`setup` is the one-time `convert` (parse, graph build, cache write) and
`analysis` is one detection run from the cache to the evaluation files.
Both call only the package's public names and the `read_*`/`write_*`
functions the CLI uses, in the order the CLI uses them, so the files they
write equal the CLI's byte for byte. Every call sits in a span of the
`Tracer` passed in; a disabled tracer records nothing.
"""

from __future__ import annotations

import contextlib
import math
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from zombiescan import (LouvainConfig, RankConfig, cache_load, cache_save, confusion,
                        detect_zombies, louvain, metrics, modularity, parse_profiles,
                        parse_weibo_network, rank_all_communities, region_distribution,
                        symmetrize)
from zombiescan.community import read_partition_csv, write_partition_csv
from zombiescan.detect import write_report_csv, write_summary_json
from zombiescan.evaluate import write_metrics_json, write_regions_csv
from zombiescan.rank import write_ranks_csv
from zombiescan.synth import read_truth_csv

# The defaults of `zombiescan pipeline` (cli.DEFAULTS), pinned here so the
# benchmark keeps measuring the same configuration.
SETTINGS = {
    "louvain_seed": 0,
    "epsilon": 1e-7,
    "max_levels": 100,
    "damping": 0.85,
    "tol": 1e-10,
    "rank_max_iters": 1000,
    "mode": "uneven",
    "min_size": 5,
    "quartile_method": "linear",
}


def maxrss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int  # index of the root span of the operation
    maxrss_mb: float


class Tracer:
    """Keeps spans (name, start, end, parent) in memory until the run ends."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    def span(self, name: str):
        return _SpanContext(self, name) if self.enabled else _NULL

    def self_time(self, index: int) -> float:
        """Duration of a span minus the time its direct children cover."""
        s = self.spans[index]
        children = sum(c.end - c.start for c in self.spans if c.parent == index)
        return (s.end - s.start) - children


class _SpanContext:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        parent = t._open[-1] if t._open else None
        self.index = len(t.spans)
        op = t.spans[parent].op if parent is not None else self.index
        t.spans.append(Span(self.name, 0.0, 0.0, parent, op, 0.0))
        t._open.append(self.index)
        t.spans[self.index].start = time.perf_counter()

    def __exit__(self, *exc):
        s = self.tracer.spans[self.index]
        s.end = time.perf_counter()
        s.maxrss_mb = maxrss_mb()
        self.tracer._open.pop()
        return False


_NULL = contextlib.nullcontext()


@dataclass
class SetupResult:
    seconds: float
    arcs_parsed: int
    graph_arcs: int
    graph_bytes: int
    cache_bytes: int


def setup(tracer: Tracer, network: Path, cache: Path) -> SetupResult:
    """`zombiescan convert`: parse the network text, build the graph, write the cache."""
    start = time.perf_counter()
    with tracer.span("setup"):
        with tracer.span("ingest.parse_weibo_network"):
            raw = parse_weibo_network(network)
        with tracer.span("graph.build_graph"):
            graph = raw.to_graph()
        with tracer.span("ingest.cache_save"):
            cache_save(graph, cache)
    seconds = time.perf_counter() - start
    graph_bytes = sum(a.nbytes for a in (graph.out_indptr, graph.out_indices,
                                         graph.in_indptr, graph.in_indices))
    return SetupResult(seconds, raw.arc_count, graph.edge_count, graph_bytes,
                       cache.stat().st_size)


@dataclass
class AnalysisResult:
    seconds: float
    nodes: int
    arcs: int
    assignment: np.ndarray
    communities: int
    levels: int | None  # None when the partition was read from a file
    modularity: float | None
    iterations: dict[int, int]  # community id -> power-iteration sweeps
    nonconverged: int
    flagged: int
    skipped_small: int
    tp: int
    fn: int
    fp: int
    tn: int
    recall: float | None
    precision: float | None
    # counted outside the timed region, for traced runs only
    disconnected: int | None = None
    intra_arcs: np.ndarray | None = None  # per community


def analysis(tracer: Tracer, corpus: Path, cache: Path, out: Path, io_source: str,
             partition: Path | None = None) -> AnalysisResult:
    """One detection run from the cache to metrics.json and regions.csv.

    With `partition`, the supplied file replaces community detection and the
    JSON outputs name the manifests the `detect` and `evaluate` subcommands
    write; otherwise they name the pipeline's `manifest.json`.
    """
    cfg = SETTINGS
    levels = q_std = None
    start = time.perf_counter()
    with tracer.span("analysis"):
        with tracer.span("ingest.cache_load"):
            graph = cache_load(cache)
        if partition is not None:
            with tracer.span("community.read_partition_csv"):
                part = read_partition_csv(partition, graph.node_count)
        else:
            with tracer.span("graph.symmetrize"):
                und = symmetrize(graph)
            with tracer.span("community.louvain"):
                dendrogram = louvain(und, LouvainConfig(max_levels=cfg["max_levels"],
                                                        min_gain=cfg["epsilon"],
                                                        seed=cfg["louvain_seed"]))
            part = dendrogram.partition
            levels = len(dendrogram.levels)
            with tracer.span("community.modularity"):
                if und.total_weight > 0:
                    q_std = modularity(und, part, "standard")
                    modularity(und, part, "distinct-pairs")
                else:
                    q_std = float("nan")
            with tracer.span("community.write_partition_csv"):
                write_partition_csv(part, out / "partition.csv")
        profiles = None
        if io_source == "profile":
            with tracer.span("ingest.parse_profiles"):
                profiles = parse_profiles(corpus / "user_profile.txt")
        rank_cfg = RankConfig(damping=cfg["damping"], tolerance=cfg["tol"],
                              max_iterations=cfg["rank_max_iters"], mode=cfg["mode"])
        with tracer.span("rank.rank_all_communities"):
            vectors = rank_all_communities(graph, part, rank_cfg, profiles, io_source)
        with tracer.span("rank.write_ranks_csv"):
            write_ranks_csv(out / "ranks.csv", graph, part, vectors, profiles, io_source)
        with tracer.span("detect.detect_zombies"):
            report = detect_zombies(vectors, cfg["min_size"], cfg["quartile_method"])
        with tracer.span("detect.write_report_csv"):
            write_report_csv(report, out / "report.csv")
        with tracer.span("detect.write_summary_json"):
            write_summary_json(report, out / "summary.json",
                               "manifest.json" if partition is None
                               else "report.manifest.json")
        with tracer.span("evaluate.read_truth_csv"):
            truth = read_truth_csv(corpus / "truth.csv")
        with tracer.span("evaluate.confusion"):
            cm = confusion(report.labels(), truth.labels())
            ms = metrics(cm)
        with tracer.span("evaluate.write_metrics_json"):
            write_metrics_json(cm, ms, out / "metrics.json",
                               "manifest.json" if partition is None
                               else "metrics.manifest.json")
        with tracer.span("evaluate.parse_region_profiles"):
            region_profiles = parse_profiles(corpus / "user_profile.txt")
        with tracer.span("evaluate.region_distribution"):
            counts = region_distribution(report, region_profiles)
        with tracer.span("evaluate.write_regions_csv"):
            write_regions_csv(counts, out / "regions.csv")
    seconds = time.perf_counter() - start
    if tracer.enabled:
        disconnected = disconnected_communities(graph, part.assignment)
        intra_arcs = intra_arcs_per_community(graph, part.assignment)
    else:
        disconnected = intra_arcs = None
    return AnalysisResult(
        seconds=seconds, nodes=graph.node_count, arcs=graph.edge_count,
        assignment=part.assignment, communities=part.community_count,
        levels=levels, modularity=q_std,
        iterations={cid: v.iterations for cid, v in vectors.items()},
        nonconverged=sum(1 for v in vectors.values() if not v.converged),
        flagged=report.zombie_count, skipped_small=report.skipped_small_communities,
        tp=cm.tp, fn=cm.fn, fp=cm.fp, tn=cm.tn, recall=ms.recall, precision=ms.precision,
        disconnected=disconnected, intra_arcs=intra_arcs)


# ---- checks -------------------------------------------------------------------


def check_report(path: Path, node_count: int) -> list[str]:
    """Problems with a report CSV: every node exactly once, each community summing to 1."""
    lines = path.read_bytes().split(b"\n")
    if lines[0] != b"node_id,community_id,pagerank,threshold,label" or lines[-1] != b"":
        return ["report.csv has a wrong header or no final newline"]
    try:
        rows = [line.split(b",") for line in lines[1:-1]]
        nodes = np.asarray([int(r[0]) for r in rows], dtype=np.int64)
        comms = np.asarray([int(r[1]) for r in rows], dtype=np.int64)
        values = np.asarray([float(r[2]) for r in rows])
    except (ValueError, IndexError):
        return ["report.csv has a malformed row"]
    problems = []
    if nodes.shape[0] != node_count or not np.array_equal(np.sort(nodes),
                                                          np.arange(node_count)):
        problems.append("report.csv does not list every node exactly once")
    if comms.shape[0] and comms.min() >= 0:
        present = np.bincount(comms) > 0
        sums = np.bincount(comms, weights=values)[present]
        worst = float(np.abs(sums - 1.0).max())
        if not worst <= 1e-9:
            problems.append(f"a community's importance sums to 1 +- {worst:.3g}")
    else:
        problems.append("report.csv has a negative community id")
    return problems


def check_analysis(result: AnalysisResult, out: Path, criteria: dict) -> list[str]:
    """Per-operation checks; an empty list means the operation passed."""
    problems = check_report(out / "report.csv", result.nodes)
    if result.tp + result.fn + result.fp + result.tn != result.nodes:
        problems.append("confusion total differs from the node count")
    if result.nonconverged:
        problems.append(f"{result.nonconverged} communities did not converge")
    negatives = result.fp + result.tn
    fpr = result.fp / negatives if negatives else 0.0
    if result.recall is None or result.recall < criteria["recall_floor"]:
        problems.append(f"recall {result.recall} below {criteria['recall_floor']}")
    if fpr > criteria["false_positive_rate_ceiling"]:
        problems.append(f"false-positive rate {fpr} above "
                        f"{criteria['false_positive_rate_ceiling']}")
    return problems


def disconnected_communities(graph, assignment: np.ndarray) -> int:
    """Communities whose induced undirected subgraph has more than one component."""
    n = graph.node_count
    src = np.repeat(np.arange(n), np.diff(graph.out_indptr))
    dst = graph.out_indices.astype(np.int64)
    intra = assignment[src] == assignment[dst]
    src, dst = src[intra], dst[intra]
    label = np.arange(n)
    while True:  # min-label propagation with pointer jumping
        prev = label
        label = label.copy()
        np.minimum.at(label, src, label[dst])
        np.minimum.at(label, dst, label[src])
        label = label[label]
        if np.array_equal(label, prev):
            break
    roots = np.unique(label)
    components = np.bincount(assignment[roots], minlength=int(assignment.max()) + 1)
    return int((components > 1).sum())


def intra_arcs_per_community(graph, assignment: np.ndarray) -> np.ndarray:
    src = np.repeat(np.arange(graph.node_count), np.diff(graph.out_indptr))
    comm_src = assignment[src]
    intra = comm_src == assignment[graph.out_indices]
    return np.bincount(comm_src[intra], minlength=int(assignment.max()) + 1)


def finite(value) -> float:
    return 0.0 if value is None or not math.isfinite(value) else float(value)
