"""Tests of the benchmark itself: `python3 -m pytest bench/tests` from the repo root."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpus  # noqa: E402
import run  # noqa: E402
import stages  # noqa: E402
from zombiescan.cli import main as cli_main  # noqa: E402

# Small corpora of each workload's shape: same densities where the blocks
# allow, fewer and smaller blocks.
SMALL = {
    "dense-10x800": dataclasses.replace(run.WORKLOADS["dense-10x800"].shape,
                                        blocks=3, block_size=200),
    "many-400x50": dataclasses.replace(run.WORKLOADS["many-400x50"].shape, blocks=12),
    "rerank-50k": dataclasses.replace(run.WORKLOADS["rerank-50k"].shape,
                                      blocks=4, block_size=200, p_in=0.08),
}
CRITERIA = json.loads(run.PILOT.read_text())["zombie_5x500"]["criteria"]


def small_corpus(tmp_path: Path, name: str, seed: int = 3) -> Path:
    out = tmp_path / "corpus"
    corpus.write_corpus(corpus.generate(SMALL[name], seed), out,
                        with_partition=run.WORKLOADS[name].planted_partition)
    return out


def bench_outputs(corpus_dir: Path, out: Path, name: str) -> stages.AnalysisResult:
    wl = run.WORKLOADS[name]
    out.mkdir()
    tracer = stages.Tracer(True)
    stages.setup(tracer, corpus_dir / "weibo_network.txt", out / "graph.bin")
    partition = corpus_dir / "partition.csv" if wl.planted_partition else None
    return stages.analysis(tracer, corpus_dir, out / "graph.bin", out, wl.io_source,
                           partition)


@pytest.mark.parametrize("name", ["dense-10x800", "many-400x50"])
def test_stages_equal_pipeline_byte_for_byte(tmp_path, name):
    corpus_dir = small_corpus(tmp_path, name)
    bench_outputs(corpus_dir, tmp_path / "bench", name)
    cli = tmp_path / "cli"
    assert cli_main(["pipeline", str(corpus_dir), "-o", str(cli),
                     "--io-source", run.WORKLOADS[name].io_source]) == 0
    for f in ("graph.bin", "partition.csv", "ranks.csv", "report.csv", "summary.json",
              "metrics.json", "regions.csv"):
        assert (tmp_path / "bench" / f).read_bytes() == (cli / f).read_bytes(), f


def test_rerank_stages_equal_subcommands_byte_for_byte(tmp_path):
    corpus_dir = small_corpus(tmp_path, "rerank-50k")
    bench_outputs(corpus_dir, tmp_path / "bench", "rerank-50k")
    cli = tmp_path / "cli"
    cli.mkdir()
    assert cli_main(["convert", str(corpus_dir / "weibo_network.txt"),
                     "--cache", str(cli / "graph.bin")]) == 0
    assert cli_main(["rank", str(cli / "graph.bin"), str(corpus_dir / "partition.csv"),
                     "-o", str(cli / "ranks.csv")]) == 0
    assert cli_main(["detect", str(cli / "ranks.csv"), "-o", str(cli / "report.csv"),
                     "--summary", str(cli / "summary.json")]) == 0
    assert cli_main(["evaluate", str(cli / "report.csv"), str(corpus_dir / "truth.csv"),
                     "-o", str(cli / "metrics.json"),
                     "--regions", str(corpus_dir / "user_profile.txt")]) == 0
    for f in ("graph.bin", "ranks.csv", "report.csv", "summary.json", "metrics.json",
              "regions.csv"):
        assert (tmp_path / "bench" / f).read_bytes() == (cli / f).read_bytes(), f


def test_same_seed_gives_byte_identical_corpora(tmp_path):
    shape = SMALL["rerank-50k"]
    dirs = []
    for i, seed in enumerate((5, 5, 6)):
        d = tmp_path / f"c{i}"
        corpus.write_corpus(corpus.generate(shape, seed), d, with_partition=True)
        dirs.append(d)
    files = sorted(p.name for p in dirs[0].iterdir())
    assert files == ["partition.csv", "truth.csv", "uidlist.txt", "user_profile.txt",
                     "weibo_network.txt"]
    for f in files:
        assert (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes(), f
    assert (dirs[0] / "weibo_network.txt").read_bytes() \
        != (dirs[2] / "weibo_network.txt").read_bytes()


def test_cached_corpus_matches_direct_generation(tmp_path):
    shape = SMALL["many-400x50"]
    cached = corpus.cached_corpus(tmp_path / "cache", "many", shape, 9)
    direct = tmp_path / "direct"
    corpus.write_corpus(corpus.generate(shape, 9), direct)
    for p in direct.iterdir():
        assert (cached / p.name).read_bytes() == p.read_bytes(), p.name
    for seed in (10, 11, 12):  # a fourth seed evicts the least recently used
        corpus.cached_corpus(tmp_path / "cache", "many", shape, seed)
    kept = sorted(p.name.rsplit("-", 2)[1] for p in (tmp_path / "cache").iterdir())
    assert kept == ["s10", "s11", "s12"] and corpus.CACHE_KEEP == 3


def test_generated_graph_matches_planted_shape():
    shape = SMALL["dense-10x800"]
    c = corpus.generate(shape, 1)
    keys = c.sources * c.node_count + c.targets
    assert (np.diff(keys) > 0).all()  # sorted, no repeated arc
    assert (c.sources != c.targets).all()
    assert c.is_zombie.sum() == shape.blocks * shape.zombies_per_block
    assert (np.bincount(c.block_ids) == shape.block_size).all()
    intra = c.block_ids[c.sources] == c.block_ids[c.targets]
    assert intra.all()
    fans = np.bincount(c.targets, minlength=c.node_count)
    assert fans[c.is_zombie].max() <= corpus.ZOMBIE_MAX_IN_DEGREE


def test_skip_sample_is_sorted_distinct_and_near_expectation():
    rng = np.random.Generator(np.random.PCG64(0))
    idx = corpus._skip_sample(rng, 1_000_000, 0.01)
    assert (np.diff(idx) > 0).all() and idx[0] >= 0 and idx[-1] < 1_000_000
    assert abs(idx.shape[0] - 10_000) < 500


def test_render_ints():
    values = np.array([0, 7, 10, 99, 100, 123456, 1000000])
    seps = np.array([32] * 6 + [10], dtype=np.uint8)
    assert corpus.render_ints(values, seps) == b"0 7 10 99 100 123456 1000000\n"


def test_network_text_round_trips_through_the_parser(tmp_path):
    from zombiescan import parse_weibo_network

    c = corpus.generate(SMALL["many-400x50"], 2)
    path = tmp_path / "net.txt"
    path.write_bytes(corpus.network_text(c))
    graph = parse_weibo_network(path).to_graph()
    src = np.repeat(np.arange(graph.node_count), np.diff(graph.out_indptr))
    assert np.array_equal(src, c.sources)
    assert np.array_equal(graph.out_indices, c.targets)


def test_checks_pass_clean_outputs_and_reject_a_corrupted_report(tmp_path):
    corpus_dir = small_corpus(tmp_path, "dense-10x800")
    out = tmp_path / "bench"
    res = bench_outputs(corpus_dir, out, "dense-10x800")
    assert stages.check_analysis(res, out, CRITERIA) == []
    report = out / "report.csv"
    clean = report.read_text().splitlines(keepends=True)

    report.write_text("".join(clean[:-1]))  # a node is missing
    assert any("exactly once" in p for p in stages.check_analysis(res, out, CRITERIA))

    report.write_text("".join(clean[:2] + clean[1:-1]))  # a node listed twice
    assert any("exactly once" in p for p in stages.check_report(report, res.nodes))

    node, comm, value, rest = clean[1].split(",", 3)
    report.write_text("".join(clean[:1] + [f"{node},{comm},{float(value) * 1.5!r},{rest}"]
                              + clean[2:]))
    assert any("sums to 1" in p for p in stages.check_report(report, res.nodes))

    report.write_text("".join(clean[:1] + ["garbage\n"] + clean[2:]))
    assert stages.check_report(report, res.nodes) == ["report.csv has a malformed row"]

    bad = dataclasses.replace(res, tp=res.tp - 1, recall=0.1)
    report.write_text("".join(clean))
    problems = stages.check_analysis(bad, out, CRITERIA)
    assert any("confusion total" in p for p in problems)
    assert any("recall" in p for p in problems)


def test_golden_anchor_passes(tmp_path):
    counter = run.Run()
    run.golden_anchor(counter, tmp_path)
    assert (counter.attempted, counter.failed) == (1, 0)


def test_spans_cover_every_stage_call(tmp_path):
    corpus_dir = small_corpus(tmp_path, "many-400x50")
    wl = run.WORKLOADS["many-400x50"]
    out = tmp_path / "bench"
    out.mkdir()
    tracer = stages.Tracer(True)
    stages.setup(tracer, corpus_dir / "weibo_network.txt", out / "graph.bin")
    stages.analysis(tracer, corpus_dir, out / "graph.bin", out, wl.io_source)
    roots = [i for i, s in enumerate(tracer.spans) if s.parent is None]
    assert [tracer.spans[i].name for i in roots] == ["setup", "analysis"]
    for root in roots:
        span = tracer.spans[root]
        mine = [i for i, s in enumerate(tracer.spans) if s.op == root]
        total = sum(tracer.self_time(i) for i in mine)
        assert total == pytest.approx(span.end - span.start, rel=1e-9)
        assert tracer.self_time(root) < 0.05 * (span.end - span.start)
    names = {s.name for s in tracer.spans}
    assert set(run.SPAN_METRICS) - names == {"community.read_partition_csv"}
    assert stages.Tracer(False).span("x").__enter__() is None


def test_disconnected_communities():
    from zombiescan import build_graph

    # community 0 = {0, 1} joined, community 1 = {2, 3, 4} with 4 cut off
    graph = build_graph([(0, 1, 0), (2, 3, 1), (4, 0, 0)], 5)
    assert stages.disconnected_communities(graph, np.array([0, 0, 1, 1, 1])) == 1
    assert stages.disconnected_communities(graph, np.array([0, 0, 1, 1, 0])) == 0


def test_fails_without_a_program_to_measure(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "many-400x50",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_a_run_reports(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25

    corpus_dir = small_corpus(tmp_path, "many-400x50")
    out = tmp_path / "bench"
    out.mkdir()
    tracer = stages.Tracer(True)
    setups = [stages.setup(tracer, corpus_dir / "weibo_network.txt", out / "graph.bin")]
    analyses = [(stages.analysis(stages.Tracer(False), corpus_dir, out / "graph.bin", out,
                                 "profile"), False),
                (stages.analysis(tracer, corpus_dir, out / "graph.bin", out, "profile"), True)]
    layer = run.per_layer(tracer, setups, analyses)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == {name: run.unit_of(name) for name in layer}
    assert layer["community.communities"] == [12.0]
    assert layer["rank.arc_sweeps"][0] > layer["rank.sweeps_total"][0] > 0

    counter = run.Run()
    counter.attempted, counter.failed = 4, 1
    e2e = run.end_to_end(counter, [1.5], [2.5, 3.5], analyses)
    assert set(e2e) == set(run.END_TO_END)
    assert (e2e["setup_s"], e2e["analysis_s"], e2e["ops_ok"]) == ([1.5], [2.5, 3.5], [0.75])


def test_reference_scales_by_the_mean_of_the_times_around_an_operation():
    reference = run.Reference()
    assert 0 < reference.times[0] < 10
    reference.times = [0.5 * run.REFERENCE_NOMINAL_S]
    reference.measure = lambda: 1.5 * run.REFERENCE_NOMINAL_S
    assert reference.scale(3.0) == pytest.approx(3.0)
    assert reference.scale(3.0) == pytest.approx(2.0)
    assert len(reference.times) == 3
