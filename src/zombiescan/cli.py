"""Command-line pipeline: convert, communities, rank, detect, evaluate.

Each stage maps options and in-memory inputs to output files and summary
numbers. A subcommand loads its inputs from files and runs one stage;
`pipeline` runs the stages in order on what the previous one returned.
Every command writes a manifest (configuration, input and output digests,
per-stage timings, summary). Outputs are staged in a hidden directory and
moved into place, manifest last, once every stage has succeeded.

Exit codes: 0 success, 2 input or validation error, 3 at least one
community failed to converge (outputs are still written), 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from . import __version__
from .community import (LouvainConfig, louvain, modularity, read_partition_csv,
                        write_partition_csv)
from .detect import (QUARTILE_METHODS, detect_zombies, read_report_csv,
                     write_report_csv, write_summary_json)
from .errors import CacheError, ParseError, ValidationError
from .evaluate import (confusion, degree_histogram, metrics, region_distribution,
                       write_histogram_csv, write_metrics_json, write_regions_csv)
from .graph import symmetrize
from .ingest import (cache_load, cache_save, parse_profiles, parse_uidlist,
                     parse_weibo_network)
from .rank import RankConfig, rank_all_communities, read_ranks_csv, write_ranks_csv
from .synth import SynthConfig, emit_weibo_format, generate, read_truth_csv
from .textio import write_json

EXIT_OK, EXIT_INPUT, EXIT_NONCONVERGED, EXIT_IO = 0, 2, 3, 4


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Run:
    """One command's manifest, plus the outputs it stages until the commit."""

    def __init__(self, args):
        config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
        self.data = {"tool": "zombiescan", "version": __version__,
                     "command": args.command, "config": config, "inputs": [],
                     "outputs": [], "timings_s": {}, "summary": {}}
        primary = args.cache if args.command == "convert" else args.output
        if args.command in ("synth", "pipeline"):
            self.manifest_path = Path(primary) / "manifest.json"
        else:  # stats printing to stdout writes no manifest
            self.manifest_path = Path(primary).with_suffix(".manifest.json") if primary else None
        self.staged: dict[Path, Path] = {}  # final path -> staged path
        self.staging_dirs: dict[Path, Path] = {}

    def input(self, path) -> Path:
        self.data["inputs"].append({"path": str(path), "sha256": _sha256(path)})
        return Path(path)

    def staging(self, directory: Path) -> Path:
        """The hidden directory inside `directory` that holds this run's outputs."""
        if directory not in self.staging_dirs:
            directory.mkdir(parents=True, exist_ok=True)
            self.staging_dirs[directory] = Path(
                tempfile.mkdtemp(prefix=".zombiescan-", dir=directory))
        return self.staging_dirs[directory]

    def output(self, path) -> Path:
        """Where to write the output `path` until the run commits."""
        final = Path(path)
        self.staged[final] = self.staging(final.parent) / final.name
        return self.staged[final]

    def stage(self, name: str, fn, *inputs):
        """Time `fn(run, *inputs) -> (result, summary)`, record the summary, return result."""
        start = time.perf_counter()
        result, summary = fn(self, *inputs)
        self.data["timings_s"][name] = round(time.perf_counter() - start, 6)
        self.data["summary"].update(summary)
        return result

    def commit(self) -> None:
        """Digest the staged outputs, write the manifest, move everything into place."""
        self.data["outputs"] = [{"path": str(final), "sha256": _sha256(staged)}
                                for final, staged in self.staged.items()]
        if self.manifest_path is not None:
            write_json(self.data, self.output(self.manifest_path))
            # a kill between two replaces then leaves no manifest vouching
            # for an earlier run's files beside this run's
            self.manifest_path.unlink(missing_ok=True)
        for final, staged in self.staged.items():  # the manifest comes last
            os.replace(staged, final)


# stages: (run, inputs...) -> (result, summary), reading and writing files through `run`
def _convert(run: Run, network, cache):
    raw = parse_weibo_network(run.input(network))
    graph = raw.to_graph()
    cache_save(graph, run.output(cache))
    return graph, {"nodes": raw.node_count, "declared_relationships": raw.declared_edge_count,
                   "parsed_arcs": raw.arc_count, "graph_arcs": graph.edge_count,
                   "dropped_self_loops": graph.dropped_self_loops,
                   "dropped_duplicates": graph.dropped_duplicates}


def _stats(run: Run, args, graph):
    hist = degree_histogram(graph, args.bin_width)
    write_histogram_csv(hist, run.output(args.output) if args.output else sys.stdout)
    return None, {"nodes": graph.node_count, "arcs": graph.edge_count, "bins": len(hist)}


def _communities(run: Run, args, graph, uids, out):
    und = symmetrize(graph)
    cfg = LouvainConfig(max_levels=args.max_levels, min_gain=args.epsilon, seed=args.seed)
    dend = louvain(und, cfg)
    part = dend.partition
    # undefined without edges: null in the manifest, not a bare NaN
    q_std, q_lit = (modularity(und, part, variant) if und.total_weight > 0 else None
                    for variant in ("standard", "distinct-pairs"))
    write_partition_csv(part, run.output(out), uids)
    return part, {"communities": part.community_count,
                  "modularity_standard": q_std, "modularity_distinct_pairs": q_lit,
                  "louvain_levels": [{"nodes": level.node_count, "visits": level.visits,
                                      "moves": level.moves, "modularity": level.modularity}
                                     for level in dend.levels]}


def _rank(run: Run, args, graph, part, profiles, out):
    cfg = RankConfig(damping=args.damping, tolerance=args.tol,
                     max_iterations=args.rank_max_iters, mode=args.mode)
    vectors = rank_all_communities(graph, part, cfg, profiles, args.io_source)
    write_ranks_csv(run.output(out), graph, part, vectors, profiles, args.io_source)
    nonconverged = sum(not v.converged for v in vectors.values())
    return vectors, {"communities": part.community_count, "nonconverged_communities": nonconverged}


def _detect(run: Run, args, vectors, out, summary_out):
    report = detect_zombies(vectors, args.min_size, args.quartile_method)
    write_report_csv(report, run.output(out))
    write_summary_json(report, run.output(summary_out), run.manifest_path.name)
    return report, {"flagged": report.zombie_count, "total": report.total,
                    "zombie_proportion": report.proportion}


def _evaluate(run: Run, predicted, truth, profiles, out, regions_out):
    labels = truth.labels()
    # a truth file may label the first nodes only: score those
    predicted = predicted[:len(labels)]
    cm = confusion(predicted, labels)
    ms = metrics(cm)
    write_metrics_json(cm, ms, run.output(out), run.manifest_path.name)
    if profiles is not None:
        write_regions_csv(region_distribution(predicted, profiles), run.output(regions_out))
    return None, {**vars(cm), **vars(ms)}  # tp, fn, fp, tn, accuracy, ..., f1


def _synth(run: Run, cfg: SynthConfig, out: Path):
    graph, truth, profiles = generate(cfg)
    for path in emit_weibo_format(graph, truth, profiles, run.staging(out)).values():
        run.output(out / path.name)
    return None, {"nodes": graph.node_count, "arcs": graph.edge_count,
                  "zombies": int(truth.is_zombie.sum())}


def _cmd_convert(run: Run, args) -> None:
    run.stage("convert", _convert, args.network, args.cache)


def _cmd_stats(run: Run, args) -> None:
    run.stage("stats", _stats, args, cache_load(run.input(args.cache)))


def _cmd_communities(run: Run, args) -> None:
    graph = cache_load(run.input(args.cache))
    uids = parse_uidlist(run.input(args.uids)) if args.uids else None
    run.stage("communities", _communities, args, graph, uids, args.output)


def _cmd_rank(run: Run, args) -> None:
    if args.io_source == "profile" and not args.profiles:
        raise ValidationError("--io-source profile needs a profile file: pass --profiles")
    graph = cache_load(run.input(args.cache))
    part = read_partition_csv(run.input(args.partition), graph.node_count)
    profiles = parse_profiles(run.input(args.profiles)) if args.profiles else None
    run.stage("rank", _rank, args, graph, part, profiles, args.output)


def _cmd_detect(run: Run, args) -> None:
    vectors = read_ranks_csv(run.input(args.ranks))
    run.stage("detect", _detect, args, vectors, args.output, args.summary)


def _cmd_evaluate(run: Run, args) -> None:
    predicted = read_report_csv(run.input(args.report))
    truth = read_truth_csv(run.input(args.truth))
    profiles = parse_profiles(run.input(args.regions)) if args.regions else None
    regions_out = args.regions_out or Path(args.output).with_name("regions.csv")
    run.stage("evaluate", _evaluate, predicted, truth, profiles, args.output, regions_out)


def _cmd_synth(run: Run, args) -> None:
    cfg = SynthConfig.from_json(run.input(args.config))
    run.data["config"] = dataclasses.asdict(cfg)
    run.stage("synth", _synth, cfg, Path(args.output))


def _find_corpus(source: Path) -> dict[str, Path | None]:
    """Corpus files for `pipeline`: in a directory, or beside a network file."""
    folder = source if source.is_dir() else source.parent
    candidates = {"network": ("weibo_network.txt", "weibo_network"), "truth": ("truth.csv",),
                  "profiles": ("user_profile.txt", "user_profile1.txt", "user_profile")}
    found = {key: next((folder / n for n in names if (folder / n).is_file()), None)
             for key, names in candidates.items()}
    found["network"] = found["network"] if source.is_dir() else source
    if found["network"] is None:
        raise ValidationError(f"no network file found in {source}")
    return found


def _cmd_pipeline(run: Run, args) -> None:
    out = Path(args.output)
    files = _find_corpus(Path(args.input))
    if args.io_source == "profile" and not files["profiles"]:
        raise ValidationError("--io-source profile needs a profile file (user_profile.txt) "
                              f"beside {files['network']}")
    graph = run.stage("convert", _convert, files["network"], out / "graph.bin")
    part = run.stage("communities", _communities, args, graph, None, out / "partition.csv")
    # one parse serves both the profile IO source and the region breakdown
    profiles = None
    if files["profiles"] and (args.io_source == "profile" or files["truth"]):
        profiles = parse_profiles(run.input(files["profiles"]))
    vectors = run.stage("rank", _rank, args, graph, part, profiles, out / "ranks.csv")
    report = run.stage("detect", _detect, args, vectors, out / "report.csv",
                       out / "summary.json")
    if files["truth"]:
        truth = read_truth_csv(run.input(files["truth"]))
        run.stage("evaluate", _evaluate, report.labels(), truth, profiles,
                  out / "metrics.json", out / "regions.csv")


def _run(args) -> int:
    """Run a command; commit its outputs, print its summary, return its exit code."""
    run = Run(args)
    try:
        args.func(run, args)
        run.commit()
    finally:
        for directory in run.staging_dirs.values():
            shutil.rmtree(directory, ignore_errors=True)
    # stats without -o writes its histogram to stdout, so the summary goes to stderr
    stream = sys.stderr if args.command == "stats" and not args.output else sys.stdout
    for key, value in run.data["summary"].items():
        if value is None:
            value = "undefined"
        elif isinstance(value, list):
            value = json.dumps(value)
        print(f"{key}: {value}", file=stream)
    nonconverged = run.data["summary"].get("nonconverged_communities")
    if nonconverged:
        print(f"nonconverged_communities: {nonconverged}", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zombiescan",
        description="Detect zombie follower accounts via per-community importance ranking.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    louvain_cfg, rank_cfg = LouvainConfig(), RankConfig()
    rank_defaults = inspect.signature(rank_all_communities).parameters
    detect_defaults = inspect.signature(detect_zombies).parameters

    # option groups shared by a subcommand and `pipeline`; defaults come from the library
    def louvain_options(p):
        p.add_argument("--seed", type=int, default=louvain_cfg.seed)
        p.add_argument("--epsilon", type=float, default=louvain_cfg.min_gain,
                       help="stop when a level improves modularity by less than this")
        p.add_argument("--max-iters", dest="max_levels", type=int, metavar="K",
                       default=louvain_cfg.max_levels, help="cap on Louvain levels")

    def rank_options(p, max_iters_flag):
        p.add_argument("--damping", type=float, default=rank_cfg.damping)
        p.add_argument("--tol", type=float, default=rank_cfg.tolerance)
        p.add_argument(max_iters_flag, dest="rank_max_iters", type=int, metavar="N",
                       default=rank_cfg.max_iterations, help="cap on power-iteration sweeps")
        p.add_argument("--mode", choices=["even", "uneven"], default=rank_cfg.mode)
        p.add_argument("--io-source", choices=["local", "profile"],
                       default=rank_defaults["io_source"].default)

    def detect_options(p):
        p.add_argument("--min-size", type=int,
                       default=detect_defaults["min_community_size"].default)
        p.add_argument("--quartile-method", choices=list(QUARTILE_METHODS),
                       default=detect_defaults["method"].default)

    def command(name, func, help, *positionals, output=None):
        p = sub.add_parser(name, help=help)
        for arg in positionals:
            p.add_argument(arg)
        if output is not None:
            p.add_argument("-o", "--output", required=True, help=output)
        p.set_defaults(func=func)
        return p

    p = command("convert", _cmd_convert, "parse a network text file into a binary cache",
                "network")
    p.add_argument("--cache", required=True)
    p = command("stats", _cmd_stats, "node/arc counts and a degree histogram", "cache")
    p.add_argument("--bin-width", type=int, default=1)
    p.add_argument("-o", "--output", default=None, help="histogram CSV (default stdout)")
    p = command("communities", _cmd_communities,
                "find communities by modularity optimization", "cache", output="partition CSV")
    louvain_options(p)
    p.add_argument("--uids", default=None, help="uid list; adds a uid column to the CSV")
    p = command("rank", _cmd_rank, "per-community importance scores", "cache", "partition",
                output="ranks CSV")
    rank_options(p, "--max-iters")
    p.add_argument("--profiles", default=None)
    p = command("detect", _cmd_detect, "flag zombies below each community's IQR fence",
                "ranks", output="report CSV")
    detect_options(p)
    p.add_argument("--summary", required=True, help="summary JSON")
    p = command("evaluate", _cmd_evaluate, "confusion matrix and metrics vs ground truth",
                "report", "truth", output="metrics JSON")
    p.add_argument("--regions", default=None, help="profiles file for a region breakdown")
    p.add_argument("--regions-out", default=None, help="region CSV (default: beside -o)")
    p = command("synth", _cmd_synth, "generate a synthetic corpus with ground truth",
                output="output directory")
    p.add_argument("config", help="JSON generator configuration")
    p = command("pipeline", _cmd_pipeline, "convert, communities, rank, detect, evaluate",
                output="output directory")
    p.add_argument("input", help="network file or corpus directory")
    louvain_options(p)
    rank_options(p, "--rank-max-iters")
    detect_options(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ParseError, ValidationError, CacheError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
