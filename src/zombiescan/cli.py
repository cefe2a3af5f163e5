"""Command-line pipeline: convert, communities, rank, detect, evaluate.

Every command records a run manifest next to its outputs: the exact
configuration, input and output digests, per-stage timings, and summary
numbers. Re-running with the same inputs and configuration reproduces
byte-identical CSV/report outputs.

Exit codes: 0 success, 2 input or validation error, 3 at least one
community failed to converge (outputs are still written), 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .community import (LouvainConfig, louvain, modularity, read_partition_csv,
                        write_partition_csv)
from .detect import (QUARTILE_METHODS, detect_zombies, read_report_csv,
                     write_report_csv, write_summary_json)
from .errors import CacheError, ParseError, ValidationError
from .evaluate import (confusion, degree_histogram, metrics, region_distribution,
                       write_histogram_csv, write_metrics_json, write_regions_csv)
from .graph import DirectedGraph, symmetrize
from .ingest import (cache_load, cache_save, parse_profiles, parse_uidlist,
                     parse_weibo_network)
from .rank import RankConfig, rank_all_communities, read_ranks_csv, write_ranks_csv
from .synth import SynthConfig, emit_weibo_format, generate, read_truth_csv

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGED = 3
EXIT_IO = 4

DEFAULTS = {
    "seed": 0,
    "epsilon": 1e-7,
    "max_levels": 100,
    "damping": 0.85,
    "tol": 1e-10,
    "max_iters": 1000,
    "mode": "uneven",
    "io_source": "local",
    "min_size": 5,
    "quartile_method": "linear",
}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Manifest:
    """Accumulates everything a run did; serialized as JSON beside the outputs."""

    def __init__(self, command: str, config: dict):
        self.data = {
            "tool": "zombiescan",
            "version": __version__,
            "command": command,
            "config": config,
            "inputs": [],
            "outputs": [],
            "timings_s": {},
            "summary": {},
        }

    def add_input(self, path) -> None:
        p = Path(path)
        self.data["inputs"].append({"path": str(p), "sha256": _sha256(p)})

    def add_output(self, path) -> None:
        p = Path(path)
        self.data["outputs"].append({"path": str(p), "sha256": _sha256(p)})

    @contextmanager
    def timed(self, stage: str):
        start = time.perf_counter()
        yield
        self.data["timings_s"][stage] = round(time.perf_counter() - start, 6)

    def write(self, path) -> str:
        p = Path(path)
        with open(p, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, indent=2)
            fh.write("\n")
        return p.name


def _manifest_path(primary_output) -> Path:
    p = Path(primary_output)
    return p.with_name(p.stem + ".manifest.json")


@contextmanager
def _removing_on_error():
    """Yield a callable that declares output paths; unlink them if the run fails."""
    declared: list[Path] = []

    def declare(path) -> Path:
        p = Path(path)
        declared.append(p)
        return p

    try:
        yield declare
    except BaseException:
        for p in declared:
            p.unlink(missing_ok=True)
        raise


def _load_profiles(path):
    if path is None:
        return None
    return parse_profiles(path)


# ---- subcommand handlers ----------------------------------------------------


def _cmd_convert(args) -> int:
    manifest = Manifest("convert", {"network": str(args.network), "cache": str(args.cache)})
    manifest.add_input(args.network)
    with _removing_on_error() as declare:
        with manifest.timed("parse"):
            raw = parse_weibo_network(args.network)
            graph = raw.to_graph()
        with manifest.timed("cache_save"):
            cache_save(graph, declare(args.cache))
        manifest.data["summary"] = {
            "nodes": raw.node_count,
            "declared_relationships": raw.declared_edge_count,
            "parsed_arcs": raw.arc_count,
            "graph_arcs": graph.edge_count,
            "dropped_self_loops": graph.dropped_self_loops,
            "dropped_duplicates": graph.dropped_duplicates,
        }
        manifest.add_output(args.cache)
        manifest.write(declare(_manifest_path(args.cache)))
    for key, value in manifest.data["summary"].items():
        print(f"{key}: {value}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    manifest = Manifest("stats", {"cache": str(args.cache), "bin_width": args.bin_width})
    manifest.add_input(args.cache)
    with _removing_on_error() as declare:
        with manifest.timed("load"):
            graph = cache_load(args.cache)
        with manifest.timed("histogram"):
            hist = degree_histogram(graph, args.bin_width)
        print(f"nodes: {graph.node_count}")
        print(f"arcs: {graph.edge_count}")
        if args.output:
            write_histogram_csv(hist, declare(args.output))
            manifest.add_output(args.output)
            manifest.data["summary"] = {"nodes": graph.node_count,
                                        "arcs": graph.edge_count,
                                        "bins": len(hist)}
            manifest.write(declare(_manifest_path(args.output)))
        else:
            print("bin_lower,count")
            for lower, count in hist:
                print(f"{lower},{count}")
    return EXIT_OK


def _louvain_stage(graph: DirectedGraph, seed: int, epsilon: float, max_levels: int):
    und = symmetrize(graph)
    cfg = LouvainConfig(max_levels=max_levels, min_gain=epsilon, seed=seed)
    dendrogram = louvain(und, cfg)
    part = dendrogram.partition
    if und.total_weight > 0:
        q_std = modularity(und, part, "standard")
        q_lit = modularity(und, part, "distinct-pairs")
    else:
        q_std = q_lit = float("nan")
    return part, q_std, q_lit


def _cmd_communities(args) -> int:
    config = {"cache": str(args.cache), "seed": args.seed, "epsilon": args.epsilon,
              "max_iters": args.max_iters, "output": str(args.output)}
    manifest = Manifest("communities", config)
    manifest.add_input(args.cache)
    with _removing_on_error() as declare:
        with manifest.timed("load"):
            graph = cache_load(args.cache)
        with manifest.timed("louvain"):
            part, q_std, q_lit = _louvain_stage(graph, args.seed, args.epsilon,
                                                args.max_iters)
        uids = None
        if args.uids:
            manifest.add_input(args.uids)
            uids = [uid for _, uid in parse_uidlist(args.uids)]
            if len(uids) != graph.node_count:
                raise ValidationError(
                    f"uid list has {len(uids)} entries, graph has {graph.node_count}")
        write_partition_csv(part, declare(args.output), uids)
        manifest.data["summary"] = {
            "communities": part.community_count,
            "modularity_standard": q_std,
            "modularity_distinct_pairs": q_lit,
        }
        manifest.add_output(args.output)
        manifest.write(declare(_manifest_path(args.output)))
    print(f"communities: {part.community_count}")
    print(f"modularity_standard: {q_std!r}")
    print(f"modularity_distinct_pairs: {q_lit!r}")
    return EXIT_OK


def _cmd_rank(args) -> int:
    config = {"cache": str(args.cache), "partition": str(args.partition),
              "damping": args.damping, "tol": args.tol, "max_iters": args.max_iters,
              "mode": args.mode, "io_source": args.io_source,
              "output": str(args.output)}
    manifest = Manifest("rank", config)
    manifest.add_input(args.cache)
    manifest.add_input(args.partition)
    with _removing_on_error() as declare:
        with manifest.timed("load"):
            graph = cache_load(args.cache)
            part = read_partition_csv(args.partition, graph.node_count)
        profiles = None
        if args.profiles:
            manifest.add_input(args.profiles)
            profiles = _load_profiles(args.profiles)
        cfg = RankConfig(damping=args.damping, tolerance=args.tol,
                         max_iterations=args.max_iters, mode=args.mode)
        with manifest.timed("pagerank"):
            vectors = rank_all_communities(graph, part, cfg, profiles, args.io_source)
        write_ranks_csv(declare(args.output), graph, part, vectors, profiles,
                        args.io_source)
        nonconverged = sum(1 for v in vectors.values() if not v.converged)
        manifest.data["summary"] = {
            "communities": part.community_count,
            "nonconverged_communities": nonconverged,
        }
        manifest.add_output(args.output)
        manifest.write(declare(_manifest_path(args.output)))
    print(f"communities_ranked: {part.community_count}")
    if nonconverged:
        print(f"nonconverged_communities: {nonconverged}", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_detect(args) -> int:
    config = {"ranks": str(args.ranks), "min_size": args.min_size,
              "quartile_method": args.quartile_method, "output": str(args.output),
              "summary": str(args.summary)}
    manifest = Manifest("detect", config)
    manifest.add_input(args.ranks)
    with _removing_on_error() as declare:
        vectors = read_ranks_csv(args.ranks)
        with manifest.timed("detect"):
            report = detect_zombies(vectors, args.min_size, args.quartile_method)
        write_report_csv(report, declare(args.output))
        manifest.add_output(args.output)
        manifest_name = _manifest_path(args.output).name
        write_summary_json(report, declare(args.summary), manifest_name)
        manifest.add_output(args.summary)
        manifest.data["summary"] = {
            "flagged": report.zombie_count,
            "total": report.total,
            "proportion": report.proportion,
        }
        manifest.write(declare(_manifest_path(args.output)))
    print(f"flagged: {report.zombie_count}")
    print(f"total: {report.total}")
    print(f"zombie_proportion: {report.proportion!r}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    config = {"report": str(args.report), "truth": str(args.truth),
              "output": str(args.output),
              "regions": str(args.regions) if args.regions else None}
    manifest = Manifest("evaluate", config)
    manifest.add_input(args.report)
    manifest.add_input(args.truth)
    with _removing_on_error() as declare:
        predicted = read_report_csv(args.report)
        truth = read_truth_csv(args.truth)
        truth_labels = truth.labels()
        missing = sorted(set(truth_labels) - set(predicted))
        if missing:
            raise ValidationError(
                f"truth labels nodes absent from the report: {missing[:10]}"
                + (" ..." if len(missing) > 10 else ""))
        if len(predicted) > len(truth_labels):
            # scoring a labeled subsample: restrict predictions to it
            predicted = {n: predicted[n] for n in truth_labels}
        cm = confusion(predicted, truth_labels)
        ms = metrics(cm)
        manifest_name = _manifest_path(args.output).name
        write_metrics_json(cm, ms, declare(args.output), manifest_name)
        manifest.add_output(args.output)
        manifest.data["summary"] = {
            "tp": cm.tp, "fn": cm.fn, "fp": cm.fp, "tn": cm.tn,
            "accuracy": ms.accuracy, "precision": ms.precision,
            "recall": ms.recall, "f1": ms.f1,
        }
        if args.regions:
            manifest.add_input(args.regions)
            profiles = _load_profiles(args.regions)
            flagged = [n for n, z in predicted.items() if z]
            counts: dict[str, int] = {}
            for node in flagged:
                prof = profiles[node] if node < len(profiles) else None
                region = prof.region if prof is not None and prof.region else "unknown"
                counts[region] = counts.get(region, 0) + 1
            regions_out = args.regions_out or Path(args.output).with_name("regions.csv")
            write_regions_csv(counts, declare(regions_out))
            manifest.add_output(regions_out)
        manifest.write(declare(_manifest_path(args.output)))
    print(f"confusion: tp={cm.tp} fn={cm.fn} fp={cm.fp} tn={cm.tn}")
    for name in ("accuracy", "precision", "recall", "f1"):
        value = getattr(ms, name)
        print(f"{name}: {'undefined' if value is None else repr(value)}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    cfg = SynthConfig.from_json(args.config)
    manifest = Manifest("synth", cfg.to_json_dict())
    manifest.add_input(args.config)
    with _removing_on_error() as declare:
        with manifest.timed("generate"):
            graph, truth, profiles = generate(cfg)
        with manifest.timed("emit"):
            paths = emit_weibo_format(graph, truth, profiles, args.output)
        for p in paths.values():
            declare(p)
            manifest.add_output(p)
        manifest.data["summary"] = {
            "nodes": graph.node_count,
            "arcs": graph.edge_count,
            "zombies": int(truth.is_zombie.sum()),
        }
        manifest.write(declare(Path(args.output) / "manifest.json"))
    for name, p in paths.items():
        print(f"{name}: {p}")
    return EXIT_OK


def _find_network_inputs(source: Path) -> dict[str, Path | None]:
    """Locate corpus files for `pipeline` given a network file or a directory."""
    if source.is_dir():
        candidates = {"network": ["weibo_network.txt", "weibo_network"],
                      "uidlist": ["uidlist.txt", "uidlist"],
                      "profiles": ["user_profile.txt", "user_profile1.txt", "user_profile"],
                      "truth": ["truth.csv"]}
        found: dict[str, Path | None] = {}
        for key, names in candidates.items():
            found[key] = next((source / n for n in names if (source / n).exists()), None)
        if found["network"] is None:
            raise ValidationError(f"no network file found in {source}")
        return found
    if not source.exists():
        raise ValidationError(f"input {source} does not exist")
    sibling = {
        "network": source,
        "uidlist": None,
        "profiles": None,
        "truth": None,
    }
    for key, names in (("uidlist", ["uidlist.txt"]), ("profiles", ["user_profile.txt"]),
                       ("truth", ["truth.csv"])):
        cand = source.parent / names[0]
        sibling[key] = cand if cand.exists() else None
    return sibling


def _cmd_pipeline(args) -> int:
    source = Path(args.input)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    inputs = _find_network_inputs(source)
    config = {
        "input": str(source), "output": str(out),
        "seed": args.seed, "epsilon": args.epsilon, "max_levels": args.max_iters,
        "damping": args.damping, "tol": args.tol, "rank_max_iters": args.rank_max_iters,
        "mode": args.mode, "io_source": args.io_source,
        "min_size": args.min_size, "quartile_method": args.quartile_method,
    }
    manifest = Manifest("pipeline", config)
    for key in ("network", "uidlist", "profiles", "truth"):
        if inputs[key] is not None:
            manifest.add_input(inputs[key])

    exit_code = EXIT_OK
    with _removing_on_error() as declare:
        with manifest.timed("convert"):
            raw = parse_weibo_network(inputs["network"])
            graph = raw.to_graph()
            cache_save(graph, declare(out / "graph.bin"))
        print(f"convert: nodes={raw.node_count} arcs={graph.edge_count}")

        with manifest.timed("communities"):
            part, q_std, q_lit = _louvain_stage(graph, args.seed, args.epsilon,
                                                args.max_iters)
            write_partition_csv(part, declare(out / "partition.csv"))
        print(f"communities: {part.community_count} "
              f"modularity_standard={q_std!r} modularity_distinct_pairs={q_lit!r}")

        # one parse serves both the profile IO source and the region breakdown
        needs_profiles = args.io_source == "profile" or inputs["truth"] is not None
        profiles = _load_profiles(inputs["profiles"]) if needs_profiles else None
        cfg = RankConfig(damping=args.damping, tolerance=args.tol,
                         max_iterations=args.rank_max_iters, mode=args.mode)
        with manifest.timed("rank"):
            vectors = rank_all_communities(graph, part, cfg, profiles, args.io_source)
            write_ranks_csv(declare(out / "ranks.csv"), graph, part, vectors,
                            profiles, args.io_source)
        nonconverged = sum(1 for v in vectors.values() if not v.converged)
        if nonconverged:
            print(f"rank: nonconverged_communities={nonconverged}", file=sys.stderr)
            exit_code = EXIT_NONCONVERGED

        with manifest.timed("detect"):
            report = detect_zombies(vectors, args.min_size, args.quartile_method)
            write_report_csv(report, declare(out / "report.csv"))
            write_summary_json(report, declare(out / "summary.json"), "manifest.json")
        print(f"detect: flagged={report.zombie_count} total={report.total} "
              f"proportion={report.proportion!r}")

        summary = {
            "nodes": graph.node_count,
            "arcs": graph.edge_count,
            "communities": part.community_count,
            "modularity_standard": q_std,
            "modularity_distinct_pairs": q_lit,
            "flagged": report.zombie_count,
            "proportion": report.proportion,
            "nonconverged_communities": nonconverged,
        }

        if inputs["truth"] is not None:
            with manifest.timed("evaluate"):
                truth = read_truth_csv(inputs["truth"])
                cm = confusion(report.labels(), truth.labels())
                ms = metrics(cm)
                write_metrics_json(cm, ms, declare(out / "metrics.json"), "manifest.json")
                if profiles is not None:
                    counts = region_distribution(report, profiles)
                    write_regions_csv(counts, declare(out / "regions.csv"))
            summary["accuracy"] = ms.accuracy
            summary["precision"] = ms.precision
            summary["recall"] = ms.recall
            summary["f1"] = ms.f1
            print(f"evaluate: tp={cm.tp} fn={cm.fn} fp={cm.fp} tn={cm.tn}")

        manifest.data["summary"] = summary
        for p in sorted(out.iterdir()):
            if p.name != "manifest.json" and p.is_file():
                manifest.add_output(p)
        manifest.write(declare(out / "manifest.json"))
    return exit_code


# ---- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zombiescan",
        description="Detect zombie follower accounts via per-community importance ranking.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="parse a network text file into a binary cache")
    p.add_argument("network")
    p.add_argument("--cache", required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("stats", help="node/arc counts and a degree histogram")
    p.add_argument("cache")
    p.add_argument("--bin-width", type=int, default=1)
    p.add_argument("-o", "--output", default=None, help="histogram CSV (default stdout)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("communities", help="find communities by modularity optimization")
    p.add_argument("cache")
    p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    p.add_argument("--epsilon", type=float, default=DEFAULTS["epsilon"],
                   help="stop when a level improves modularity by less than this")
    p.add_argument("--max-iters", type=int, default=DEFAULTS["max_levels"])
    p.add_argument("--uids", default=None, help="uid list; substitutes ids in the CSV")
    p.add_argument("-o", "--output", required=True, help="partition CSV")
    p.set_defaults(func=_cmd_communities)

    p = sub.add_parser("rank", help="per-community importance scores")
    p.add_argument("cache")
    p.add_argument("partition")
    p.add_argument("--damping", type=float, default=DEFAULTS["damping"])
    p.add_argument("--tol", type=float, default=DEFAULTS["tol"])
    p.add_argument("--max-iters", type=int, default=DEFAULTS["max_iters"])
    p.add_argument("--mode", choices=["even", "uneven"], default=DEFAULTS["mode"])
    p.add_argument("--io-source", choices=["local", "profile"],
                   default=DEFAULTS["io_source"])
    p.add_argument("--profiles", default=None)
    p.add_argument("-o", "--output", required=True, help="ranks CSV")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("detect", help="flag zombies below each community's IQR fence")
    p.add_argument("ranks")
    p.add_argument("--min-size", type=int, default=DEFAULTS["min_size"])
    p.add_argument("--quartile-method", choices=list(QUARTILE_METHODS),
                   default=DEFAULTS["quartile_method"])
    p.add_argument("-o", "--output", required=True, help="report CSV")
    p.add_argument("--summary", required=True, help="summary JSON")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("evaluate", help="confusion matrix and metrics vs ground truth")
    p.add_argument("report")
    p.add_argument("truth")
    p.add_argument("-o", "--output", required=True, help="metrics JSON")
    p.add_argument("--regions", default=None, help="profiles file for a region breakdown")
    p.add_argument("--regions-out", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    p.add_argument("config", help="JSON generator configuration")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("pipeline", help="convert, communities, rank, detect, evaluate")
    p.add_argument("input", help="network file or corpus directory")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    p.add_argument("--epsilon", type=float, default=DEFAULTS["epsilon"])
    p.add_argument("--max-iters", type=int, default=DEFAULTS["max_levels"])
    p.add_argument("--damping", type=float, default=DEFAULTS["damping"])
    p.add_argument("--tol", type=float, default=DEFAULTS["tol"])
    p.add_argument("--rank-max-iters", type=int, default=DEFAULTS["max_iters"])
    p.add_argument("--mode", choices=["even", "uneven"], default=DEFAULTS["mode"])
    p.add_argument("--io-source", choices=["local", "profile"],
                   default=DEFAULTS["io_source"])
    p.add_argument("--min-size", type=int, default=DEFAULTS["min_size"])
    p.add_argument("--quartile-method", choices=list(QUARTILE_METHODS),
                   default=DEFAULTS["quartile_method"])
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, CacheError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
