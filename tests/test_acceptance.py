"""End-to-end acceptance checks.

Each test prints one `ACCEPTANCE <tag>: PASS/FAIL` line (visible with
pytest -s). Thresholds and tolerances are fixed here; the committed
corpora under tests/data/ and the pilot numbers in pilot_results.json are
the calibration record.
"""

import io
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from zombiescan import (ConfusionMatrix, LouvainConfig, Partition, RankConfig,
                        build_graph, detect_zombies, iqr_threshold,
                        louvain, metrics, modularity, move_gain, pagerank, quartiles,
                        symmetrize)
from zombiescan.cli import main
from zombiescan.ingest import parse_weibo_network, write_weibo_network
from zombiescan.synth import SynthConfig, emit_weibo_format, generate, read_truth_csv

from conftest import DATA
from oracles import (modularity_dense, modularity_dense_fast, pagerank_dense,
                     rand_index)

PLANTED = Path(DATA) / "planted_4x50"
ZOMBIE = Path(DATA) / "zombie_5x500"


@contextmanager
def criterion(tag: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {tag}: FAIL")
        raise
    print(f"ACCEPTANCE {tag}: PASS")


def random_und(rng, n, p):
    arcs = [(u, v, 0) for u in range(n) for v in range(n)
            if u != v and rng.random() < p]
    return symmetrize(build_graph(arcs, n))


def dense_adjacency(und):
    n = und.node_count
    a = np.zeros((n, n))
    for u in range(n):
        ids, w = und.neighbors(u)
        for v, wv in zip(ids, w):
            a[u, int(v)] = wv
    return a


def test_01_modularity_gain_matches_scratch_recompute():
    with criterion("01 modularity-gain-oracle"):
        start = time.perf_counter()
        rng = np.random.Generator(np.random.PCG64(424242))
        checked = 0
        for trial in range(100):
            n = int(rng.integers(4, 41))
            und = random_und(rng, n, 0.2)
            if und.total_weight == 0:
                continue
            labels = np.asarray(rng.integers(0, 4, size=n))
            a = dense_adjacency(und)
            q_before = modularity_dense_fast(a, labels)
            for node in range(n):
                for target in rng.choice(4, size=2, replace=False):
                    target = int(target)
                    if target == labels[node]:
                        continue
                    moved = labels.copy()
                    moved[node] = target
                    scratch = modularity_dense_fast(a, moved) - q_before
                    incremental = move_gain(und, labels, node, target)
                    assert abs(incremental - scratch) < 1e-12
                    checked += 1
        elapsed = time.perf_counter() - start
        assert checked > 1000
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_02_closed_form_modularity():
    with criterion("02 closed-form-modularity"):
        arcs = [(u, v, 0) for u in range(10) for v in range(10) if u < v]
        arcs += [(u + 10, v + 10, 0) for u in range(10) for v in range(10) if u < v]
        und = symmetrize(build_graph(arcs, 20))
        cliques = Partition([0] * 10 + [1] * 10)
        assert abs(modularity(und, cliques, "standard") - 0.5) <= 1e-12
        assert abs(modularity(und, Partition.singletons(20), "distinct-pairs")) <= 1e-12


def test_03_louvain_recovery_on_committed_corpus():
    with criterion("03 louvain-planted-recovery"):
        start = time.perf_counter()
        g = parse_weibo_network(PLANTED / "weibo_network.txt").to_graph()
        truth = read_truth_csv(PLANTED / "truth.csv")
        dend = louvain(symmetrize(g), LouvainConfig())
        agreement = rand_index(dend.partition.assignment, truth.block_ids)
        q = modularity(symmetrize(g), dend.partition, "standard")
        elapsed = time.perf_counter() - start
        assert agreement >= 0.95, f"pairwise agreement {agreement:.4f}"
        assert 0.3 <= q <= 0.7, f"modularity {q:.4f} outside the plausible band"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_04_pagerank_matches_dense_oracle():
    with criterion("04 pagerank-dense-oracle"):
        rng = np.random.Generator(np.random.PCG64(777))
        for trial in range(50):
            n = int(rng.integers(2, 31))
            arcs = sorted({(int(u), int(v))
                           for u, v in zip(rng.integers(0, n, size=3 * n),
                                           rng.integers(0, n, size=3 * n))
                           if u != v})
            g = build_graph([(u, v, 0) for u, v in arcs], n)
            io = rng.random(n)
            vec = pagerank(g, RankConfig(mode="uneven", tolerance=1e-14), io)
            oracle = pagerank_dense(n, arcs, 0.85, io)
            assert np.abs(vec.values - oracle).max() < 1e-10
            assert abs(vec.values.sum() - 1.0) <= 1e-10


def test_05_even_uneven_consistency():
    with criterion("05 even-uneven-consistency"):
        rng = np.random.Generator(np.random.PCG64(555))
        for trial in range(20):
            n = int(rng.integers(2, 25))
            arcs = sorted({(int(u), int(v))
                           for u, v in zip(rng.integers(0, n, size=2 * n),
                                           rng.integers(0, n, size=2 * n))
                           if u != v})
            g = build_graph([(u, v, 0) for u, v in arcs], n)
            even = pagerank(g, RankConfig(mode="even"))
            constant = float(rng.uniform(0.1, 1.0))
            uneven = pagerank(g, RankConfig(mode="uneven"), np.full(n, constant))
            assert np.abs(even.values - uneven.values).max() < 1e-10


def test_06_detection_arithmetic():
    with criterion("06 detection-arithmetic"):
        assert quartiles([1, 2, 3, 4, 5]) == (2.0, 4.0)
        assert iqr_threshold([1, 2, 3, 4, 5]) == -1.0
        from zombiescan.rank import ImportanceVector

        vec = ImportanceVector(np.array([0.24, 0.24, 0.24, 0.24, 0.04]),
                               np.arange(5), 1, 0.0, True)
        report = detect_zombies({0: vec})
        assert list(report.zombie_nodes()) == [4]
        assert report.zombie_count == 1


def test_07_planted_zombie_recall_end_to_end(tmp_path):
    with criterion("07 planted-zombie-recall"):
        start = time.perf_counter()
        out = tmp_path / "run"
        assert main(["pipeline", str(ZOMBIE), "-o", str(out)]) == 0
        elapsed = time.perf_counter() - start
        data = json.loads((out / "metrics.json").read_text())
        recall = data["tp"] / (data["tp"] + data["fn"])
        fpr = data["fp"] / (data["fp"] + data["tn"])
        assert recall >= 0.8, f"recall {recall:.3f}"
        assert fpr <= 0.1, f"false-positive rate {fpr:.3f}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_08_labeled_sample_arithmetic():
    with criterion("08 labeled-sample-arithmetic"):
        ms = metrics(ConfusionMatrix(tp=41, fn=17, fp=9, tn=33))
        assert ms.accuracy == 0.74
        assert ms.precision == 0.82
        assert ms.recall == 41 / 58
        assert abs(ms.recall - 0.7069) < 1e-4


def test_09_format_fidelity(tmp_path):
    with criterion("09 format-fidelity"):
        golden = ["2 2\n0 1 1 1\n1 1 0 1\n",
                  "3 2\n0 2 1 0 2 0\n1 0\n2 0\n",
                  "1 0\n0 0\n",
                  "3 3\n0 2 1 1 2 0\n1 1 0 1\n2 0\n"]
        for text in golden:
            raw = parse_weibo_network(io.StringIO(text))
            buf = io.StringIO()
            write_weibo_network(raw, buf)
            again = parse_weibo_network(io.StringIO(buf.getvalue()))
            assert sorted(zip(raw.sources, raw.targets, raw.flags)) == \
                sorted(zip(again.sources, again.targets, again.flags))
        # synth emitter output re-ingests to an identical graph
        cfg = SynthConfig(block_sizes=(25, 25), p_in=0.2, p_out=0.01,
                          reciprocity=0.4, zombie_fraction=0.1,
                          zombie_out_degree=(4, 8), zombie_max_in_degree=1, seed=99)
        g, truth, profiles = generate(cfg)
        paths = emit_weibo_format(g, truth, profiles, tmp_path / "corpus")
        assert parse_weibo_network(paths["network"]).to_graph() == g
        # and the committed corpus parses to a graph that re-emits identically
        committed = parse_weibo_network(PLANTED / "weibo_network.txt").to_graph()
        buf = io.StringIO()
        write_weibo_network(committed, buf)
        assert parse_weibo_network(io.StringIO(buf.getvalue())).to_graph() == committed


def test_10_pipeline_determinism(tmp_path):
    with criterion("10 pipeline-determinism"):
        for run in ("a", "b"):
            assert main(["pipeline", str(PLANTED), "-o", str(tmp_path / run)]) == 0
        for name in ("report.csv", "partition.csv", "ranks.csv", "summary.json",
                     "metrics.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name


def test_oracle_cross_validation():
    """The fast vectorized oracle agrees with the double-loop one."""
    rng = np.random.Generator(np.random.PCG64(31337))
    for _ in range(5):
        n = int(rng.integers(4, 15))
        und = random_und(rng, n, 0.3)
        if und.total_weight == 0:
            continue
        labels = rng.integers(0, 3, size=n)
        a = dense_adjacency(und)
        assert modularity_dense_fast(a, labels) == \
            pytest.approx(modularity_dense(a, labels, True), abs=1e-12)


def test_pilot_results_match_committed_record(tmp_path):
    """The committed pilot numbers still describe what the pipeline does."""
    pilot = json.loads((Path(DATA) / "pilot_results.json").read_text())
    out = tmp_path / "run"
    assert main(["pipeline", str(ZOMBIE), "-o", str(out)]) == 0
    data = json.loads((out / "metrics.json").read_text())
    recorded = pilot["zombie_5x500"]["confusion"]
    assert {k: data[k] for k in ("tp", "fn", "fp", "tn")} == recorded
