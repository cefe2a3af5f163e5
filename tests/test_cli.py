import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from zombiescan import LouvainConfig, cache_load, louvain, symmetrize
from zombiescan.cli import main

from conftest import DATA

PLANTED = f"{DATA}/planted_4x50"
SRC = str(Path(__file__).resolve().parents[1] / "src")


def files_under(root):
    return {p for p in Path(root).rglob("*") if p.is_file()}


def without_manifest_key(path):
    data = json.loads(Path(path).read_text())
    data.pop("manifest")
    return data


def write_corpus(tmp_path, seed=5):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "block_sizes": [40, 40], "p_in": 0.15, "p_out": 0.005, "reciprocity": 0.3,
        "zombie_fraction": 0.1, "zombie_out_degree": [5, 10],
        "zombie_max_in_degree": 1, "seed": seed}))
    out = tmp_path / "corpus"
    assert main(["synth", str(cfg), "-o", str(out)]) == 0
    return out


class TestConvert:
    def test_prints_counts_and_writes_cache(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        cache = tmp_path / "g.bin"
        assert main(["convert", str(corpus / "weibo_network.txt"),
                     "--cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "nodes: 80" in out
        assert "parsed_arcs:" in out
        assert cache.exists()
        assert (tmp_path / "g.manifest.json").exists()

    def test_parse_error_exits_2_and_removes_partial_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\n0 1 1 7\n1 0\n")
        cache = tmp_path / "g.bin"
        assert main(["convert", str(bad), "--cache", str(cache)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not cache.exists()

    def test_missing_input_exits_nonzero(self, tmp_path):
        assert main(["convert", str(tmp_path / "nope.txt"),
                     "--cache", str(tmp_path / "g.bin")]) in (2, 4)


class TestStats:
    def test_histogram_csv(self, tmp_path):
        corpus = write_corpus(tmp_path)
        cache = tmp_path / "g.bin"
        main(["convert", str(corpus / "weibo_network.txt"), "--cache", str(cache)])
        hist = tmp_path / "hist.csv"
        assert main(["stats", str(cache), "-o", str(hist), "--bin-width", "4"]) == 0
        lines = hist.read_text().splitlines()
        assert lines[0] == "bin_lower,count"
        assert sum(int(l.split(",")[1]) for l in lines[1:]) == 80

    def test_stdout_holds_only_the_csv(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        cache = tmp_path / "g.bin"
        main(["convert", str(corpus / "weibo_network.txt"), "--cache", str(cache)])
        hist = tmp_path / "hist.csv"
        assert main(["stats", str(cache), "-o", str(hist)]) == 0
        capsys.readouterr()
        assert main(["stats", str(cache)]) == 0
        captured = capsys.readouterr()
        assert captured.out.encode() == hist.read_bytes()
        assert "nodes: 80" in captured.err


def reject_constant(name):
    raise ValueError(f"bare {name} in JSON")


class TestCommunities:
    def test_edgeless_graph_records_null_modularity(self, tmp_path, capsys):
        net = tmp_path / "weibo_network.txt"
        net.write_text("3 0\n0 0\n1 0\n2 0\n")
        cache, part = tmp_path / "g.bin", tmp_path / "p.csv"
        assert main(["convert", str(net), "--cache", str(cache)]) == 0
        assert main(["communities", str(cache), "-o", str(part)]) == 0
        manifest = json.loads((tmp_path / "p.manifest.json").read_text(),
                              parse_constant=reject_constant)
        summary = manifest["summary"]
        assert summary["modularity_standard"] is None
        assert summary["modularity_distinct_pairs"] is None
        assert summary["louvain_levels"] == []
        assert "modularity_standard: undefined" in capsys.readouterr().out

    def test_manifest_counts_sweeps_per_level(self, tmp_path, capsys):
        part = tmp_path / "p.csv"
        cache = tmp_path / "g.bin"
        main(["convert", f"{PLANTED}/weibo_network.txt", "--cache", str(cache)])
        assert main(["communities", str(cache), "-o", str(part)]) == 0
        summary = json.loads((tmp_path / "p.manifest.json").read_text())["summary"]
        levels = summary["louvain_levels"]
        dend = louvain(symmetrize(cache_load(cache)), LouvainConfig())
        assert levels and levels == [
            {"nodes": level.node_count, "visits": level.visits, "moves": level.moves,
             "modularity": level.modularity} for level in dend.levels]
        for level in levels:
            assert level["visits"] >= level["nodes"] and level["moves"] >= 1
        assert levels[-1]["modularity"] == pytest.approx(summary["modularity_standard"])
        # printed as JSON, like the manifest
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("louvain_levels: ")]
        assert [json.loads(line.split(": ", 1)[1]) for line in printed] == [levels]

    # SHA-256 of partition.csv; the file holds only integers, so the digest
    # is the same on every platform
    PINNED_PARTITIONS = {
        "planted_4x50": "ffdf52e1fdf6ecd96127cc4b24e07fd29042df69ac2dd4b8ed5a7477bdfbb5ad",
        "zombie_5x500": "85831d3f5e0f5f7d864ddc660d1390df0d12f34ef32093f0aba8275b9403b342",
    }

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(PINNED_PARTITIONS))
    def test_committed_corpus_partitions_are_pinned(self, tmp_path, name, seed):
        cache, part = tmp_path / "g.bin", tmp_path / "p.csv"
        assert main(["convert", f"{DATA}/{name}/weibo_network.txt", "--cache", str(cache)]) == 0
        assert main(["communities", str(cache), "-o", str(part), "--seed", str(seed)]) == 0
        assert hashlib.sha256(part.read_bytes()).hexdigest() == self.PINNED_PARTITIONS[name]

    # SHA-256 of the `pipeline` ranks.csv and report.csv (default settings).
    # Their floats are written with repr, so a score or fence that moves in
    # its last bit changes the digest.
    PINNED_FLOAT_OUTPUTS = {
        ("planted_4x50", "local"): (
            "2e2708ace75ea873392a0b71cb0d0ec377b08eddd4d36d46b04382d5eb8595e2",
            "c974679791af3dfc8d04b29b02009e7237a2ef50cf0e13dd5837455cc5676ceb"),
        ("planted_4x50", "profile"): (
            "e22929b916f454cd14fbec8eaec8e48329e85bf1f22d53598db5c4132715809a",
            "d8ab622af5b75bb66f7e0d1a1780a473e315198f03c9399d1cf1e9d23d5323c6"),
        ("zombie_5x500", "local"): (
            "bd5625b7ea700045a6cf04929f97877be3f0d768cc6bcff8133a0569c9ccff73",
            "de974352e5651fcc6b17f02349d516bc9c7dbaa85dd597f8b5509c02442b86e1"),
        ("zombie_5x500", "profile"): (
            "44d6b6c83ffa91499e4d09aedee8baea64a8cceef980fd36bd2f06adeac1ef32",
            "338518f39dab06463bdebcc30dc9bf2a301a754a72f59af495dd6beb001269a1"),
    }

    @pytest.mark.parametrize("name,io_source", sorted(PINNED_FLOAT_OUTPUTS))
    def test_committed_corpus_float_outputs_are_pinned(self, tmp_path, name, io_source):
        run = tmp_path / "run"
        assert main(["pipeline", f"{DATA}/{name}", "-o", str(run),
                     "--io-source", io_source]) == 0
        assert tuple(hashlib.sha256((run / f).read_bytes()).hexdigest()
                     for f in ("ranks.csv", "report.csv")) == \
            self.PINNED_FLOAT_OUTPUTS[(name, io_source)]

    def test_prints_both_modularity_variants(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        cache = tmp_path / "g.bin"
        main(["convert", str(corpus / "weibo_network.txt"), "--cache", str(cache)])
        part = tmp_path / "partition.csv"
        assert main(["communities", str(cache), "-o", str(part)]) == 0
        out = capsys.readouterr().out
        assert "communities:" in out
        assert "modularity_standard:" in out
        assert "modularity_distinct_pairs:" in out

    def test_uid_substitution(self, tmp_path):
        corpus = write_corpus(tmp_path)
        cache = tmp_path / "g.bin"
        main(["convert", str(corpus / "weibo_network.txt"), "--cache", str(cache)])
        part = tmp_path / "partition.csv"
        assert main(["communities", str(cache), "-o", str(part),
                     "--uids", str(corpus / "uidlist.txt")]) == 0
        lines = part.read_text().splitlines()
        assert lines[0] == "node_id,community_id,uid"
        assert lines[1].startswith("0,") and lines[1].endswith(",1000000")
        # the uid column rides along: rank accepts the file and ranks as without it
        plain = tmp_path / "plain.csv"
        assert main(["communities", str(cache), "-o", str(plain)]) == 0
        for source, ranks in ((part, "ranks_uid.csv"), (plain, "ranks_plain.csv")):
            assert main(["rank", str(cache), str(source), "-o", str(tmp_path / ranks)]) == 0
        assert ((tmp_path / "ranks_uid.csv").read_bytes()
                == (tmp_path / "ranks_plain.csv").read_bytes())


class TestRankAndDetect:
    def test_rank_nonconvergence_exits_3_but_writes_output(self, tmp_path, capsys):
        # bipartite walk 0 <-> {1, 2} never settles at damping 1
        net = tmp_path / "net.txt"
        net.write_text("3 4\n0 2 1 1 2 1\n1 1 0 1\n2 1 0 1\n")
        cache = tmp_path / "g.bin"
        main(["convert", str(net), "--cache", str(cache)])
        part = tmp_path / "partition.csv"
        part.write_text("node_id,community_id\n0,0\n1,0\n2,0\n")
        ranks = tmp_path / "ranks.csv"
        code = main(["rank", str(cache), str(part), "-o", str(ranks),
                     "--damping", "1.0", "--max-iters", "5", "--mode", "even"])
        assert code == 3
        assert ranks.exists()
        assert "nonconverged" in capsys.readouterr().err

    def test_detect_on_uniform_ranks_reports_zero_proportion(self, tmp_path, capsys):
        ranks = tmp_path / "ranks.csv"
        rows = ["node_id,community_id,io,pagerank,converged"]
        rows += [f"{i},0,0.5,0.2,true" for i in range(5)]
        rows += [f"{i},1,0.5,0.25,true" for i in range(5, 10)]
        ranks.write_text("\n".join(rows) + "\n")
        report = tmp_path / "report.csv"
        summary = tmp_path / "summary.json"
        assert main(["detect", str(ranks), "-o", str(report),
                     "--summary", str(summary)]) == 0
        data = json.loads(summary.read_text())
        assert data["proportion"] == 0.0
        assert "zombie_proportion: 0.0" in capsys.readouterr().out

    def test_detect_on_oversized_community_id_exits_2(self, tmp_path, capsys):
        ranks = tmp_path / "ranks.csv"
        ranks.write_text("node_id,community_id,io,pagerank,converged\n"
                         "0,99999999999999999999,0.5,1.0,true\n")
        out = tmp_path / "out"
        assert main(["detect", str(ranks), "-o", str(out / "report.csv"),
                     "--summary", str(out / "summary.json")]) == 2
        assert ("error: bad ranks row: ['0', '99999999999999999999', '0.5', '1.0', 'true']"
                in capsys.readouterr().err)
        assert not out.exists() or not files_under(out)

    def test_detect_on_ranks_without_a_node_exits_2(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["pipeline", PLANTED, "-o", str(run)]) == 0
        lines = (run / "ranks.csv").read_text().splitlines(keepends=True)
        assert lines[1].startswith("0,")
        ranks = tmp_path / "ranks.csv"
        ranks.write_text(lines[0] + "".join(lines[2:]))  # no row for node 0
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["detect", str(ranks), "-o", str(out / "report.csv"),
                     "--summary", str(out / "summary.json")]) == 2
        # the ranks reader refuses it: 199 rows must list nodes 0..198
        assert capsys.readouterr().err == "error: no row for node 0; node 199 is outside 0..198\n"
        assert not out.exists() or not files_under(out)

    def test_profile_io_without_profiles_exits_2_before_reading(self, tmp_path, capsys):
        out = tmp_path / "ranks.csv"
        assert main(["rank", str(tmp_path / "absent.bin"), str(tmp_path / "absent.csv"),
                     "-o", str(out), "--io-source", "profile"]) == 2
        assert capsys.readouterr().err == \
            "error: --io-source profile needs a profile file: pass --profiles\n"
        assert not out.exists()

    def test_pipeline_profile_io_without_profiles_exits_2_before_reading(self, tmp_path,
                                                                         capsys):
        lone = tmp_path / "lone"
        lone.mkdir()
        net = lone / "weibo_network.txt"
        net.write_text("not a network\n")  # never parsed
        run = tmp_path / "run"
        assert main(["pipeline", str(lone), "-o", str(run), "--io-source", "profile"]) == 2
        assert capsys.readouterr().err == ("error: --io-source profile needs a profile file "
                                           f"(user_profile.txt) beside {net}\n")
        assert not run.exists()

    def test_summary_names_manifest(self, tmp_path):
        ranks = tmp_path / "ranks.csv"
        rows = ["node_id,community_id,io,pagerank,converged"]
        rows += [f"{i},0,0.5,0.2,true" for i in range(5)]
        ranks.write_text("\n".join(rows) + "\n")
        assert main(["detect", str(ranks), "-o", str(tmp_path / "report.csv"),
                     "--summary", str(tmp_path / "summary.json")]) == 0
        data = json.loads((tmp_path / "summary.json").read_text())
        assert data["manifest"] == "report.manifest.json"
        assert (tmp_path / "report.manifest.json").exists()


class TestEvaluate:
    def test_labeled_sample_matrix_yields_074_accuracy(self, tmp_path):
        # encode tp=41 fn=17 fp=9 tn=33 as labels over 100 nodes
        report_rows = ["node_id,community_id,pagerank,threshold,label"]
        truth_rows = ["node_id,block_id,is_zombie,region"]
        node = 0
        for count, predicted, actual in ((41, "zombie", 1), (17, "normal", 1),
                                         (9, "zombie", 0), (33, "normal", 0)):
            for _ in range(count):
                report_rows.append(f"{node},0,0.1,0.2,{predicted}")
                truth_rows.append(f"{node},0,{actual},Beijing")
                node += 1
        report = tmp_path / "report.csv"
        truth = tmp_path / "truth.csv"
        report.write_text("\n".join(report_rows) + "\n")
        truth.write_text("\n".join(truth_rows) + "\n")
        metrics_path = tmp_path / "metrics.json"
        assert main(["evaluate", str(report), str(truth), "-o", str(metrics_path)]) == 0
        data = json.loads(metrics_path.read_text())
        assert data["accuracy"] == 0.74
        assert data["tp"] == 41 and data["fn"] == 17
        assert data["precision"] == 0.82
        assert data["manifest"] == "metrics.manifest.json"

    def test_truth_subset_is_scored_on_that_subset(self, tmp_path):
        report = tmp_path / "report.csv"
        report.write_text("node_id,community_id,pagerank,threshold,label\n"
                          "0,0,0.1,0.2,zombie\n1,0,0.3,0.2,normal\n2,0,0.3,0.2,normal\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("node_id,block_id,is_zombie,region\n0,0,1,Beijing\n")
        out = tmp_path / "metrics.json"
        assert main(["evaluate", str(report), str(truth), "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["tp"] == 1 and data["tn"] == 0

    def test_report_that_skips_a_node_exits_2(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["pipeline", PLANTED, "-o", str(run)]) == 0
        lines = (run / "report.csv").read_text().splitlines(keepends=True)
        report = tmp_path / "report.csv"
        report.write_text("".join(lines[:6] + lines[7:]))  # no row for node 5
        metrics_path = tmp_path / "metrics.json"
        capsys.readouterr()
        assert main(["evaluate", str(report), f"{PLANTED}/truth.csv",
                     "-o", str(metrics_path)]) == 2
        assert "error: no row for node 5; node 199 is outside 0..198" in capsys.readouterr().err
        assert not metrics_path.exists()

    def test_region_breakdown(self, tmp_path):
        corpus = write_corpus(tmp_path)
        run = tmp_path / "run"
        assert main(["pipeline", str(corpus), "-o", str(run)]) == 0
        regions = tmp_path / "regions.csv"
        assert main(["evaluate", str(run / "report.csv"), str(corpus / "truth.csv"),
                     "-o", str(tmp_path / "metrics.json"),
                     "--regions", str(corpus / "user_profile.txt"),
                     "--regions-out", str(regions)]) == 0
        lines = regions.read_text().splitlines()
        assert lines[0] == "region,count"


PIPELINE_DATA_FILES = ("graph.bin", "partition.csv", "ranks.csv", "report.csv",
                       "summary.json", "metrics.json", "regions.csv")
PIPELINE_DIGESTS = json.loads((Path(DATA) / "pipeline_digests.json").read_text())


def pipeline_fingerprint(run):
    """SHA-256 of each data file of a `pipeline` run, and its manifest's
    modularity values as float.hex(); the manifest itself holds timings."""
    summary = json.loads((Path(run) / "manifest.json").read_text())["summary"]
    return {
        "files": {f: hashlib.sha256((Path(run) / f).read_bytes()).hexdigest()
                  for f in PIPELINE_DATA_FILES},
        "modularity_standard": summary["modularity_standard"].hex(),
        "modularity_distinct_pairs": summary["modularity_distinct_pairs"].hex(),
        "louvain_levels": [level["modularity"].hex() for level in summary["louvain_levels"]],
    }


class TestPipeline:
    # keyed "corpus/io-source/mode"; regenerate an entry with pipeline_fingerprint
    # only for a change that moves an output on purpose, and say so
    @pytest.mark.parametrize("setting", sorted(PIPELINE_DIGESTS))
    def test_committed_corpus_outputs_match_their_digests(self, tmp_path, setting):
        name, io_source, mode = setting.split("/")
        run = tmp_path / "run"
        assert main(["pipeline", f"{DATA}/{name}", "-o", str(run),
                     "--io-source", io_source, "--mode", mode]) == 0
        assert pipeline_fingerprint(run) == PIPELINE_DIGESTS[setting]

    def test_runs_made_twice_are_byte_identical(self, tmp_path):
        for run in ("run_a", "run_b"):
            assert main(["pipeline", PLANTED, "-o", str(tmp_path / run)]) == 0
        for name in ("partition.csv", "ranks.csv", "report.csv", "summary.json",
                     "metrics.json", "graph.bin"):
            a = (tmp_path / "run_a" / name).read_bytes()
            b = (tmp_path / "run_b" / name).read_bytes()
            assert a == b, name

    def test_equals_composition_of_subcommands(self, tmp_path):
        corpus = write_corpus(tmp_path)
        run = tmp_path / "run"
        assert main(["pipeline", str(corpus), "-o", str(run)]) == 0
        stages = tmp_path / "stages"
        stages.mkdir()
        assert main(["convert", str(corpus / "weibo_network.txt"),
                     "--cache", str(stages / "graph.bin")]) == 0
        assert main(["communities", str(stages / "graph.bin"),
                     "-o", str(stages / "partition.csv")]) == 0
        assert main(["rank", str(stages / "graph.bin"), str(stages / "partition.csv"),
                     "-o", str(stages / "ranks.csv")]) == 0
        assert main(["detect", str(stages / "ranks.csv"),
                     "-o", str(stages / "report.csv"),
                     "--summary", str(stages / "summary.json")]) == 0
        assert main(["evaluate", str(stages / "report.csv"), str(corpus / "truth.csv"),
                     "-o", str(stages / "metrics.json"),
                     "--regions", str(corpus / "user_profile.txt")]) == 0
        for name in ("graph.bin", "partition.csv", "ranks.csv", "report.csv", "regions.csv"):
            assert (run / name).read_bytes() == (stages / name).read_bytes(), name
        for name in ("summary.json", "metrics.json"):
            assert without_manifest_key(run / name) == without_manifest_key(stages / name)

    def test_manifest_records_config_inputs_outputs(self, tmp_path):
        run = tmp_path / "run"
        assert main(["pipeline", PLANTED, "-o", str(run)]) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["command"] == "pipeline"
        assert manifest["config"]["seed"] == 0
        assert manifest["config"]["damping"] == 0.85
        assert manifest["config"]["quartile_method"] == "linear"
        assert any(i["path"].endswith("weibo_network.txt") for i in manifest["inputs"])
        assert all("sha256" in o for o in manifest["outputs"])
        assert "communities" in manifest["timings_s"]
        assert manifest["summary"]["communities"] == 4

    def test_manifest_lists_only_this_runs_outputs(self, tmp_path):
        run = tmp_path / "run"
        assert main(["pipeline", PLANTED, "-o", str(run)]) == 0
        assert (run / "metrics.json").exists()
        lone = tmp_path / "lone"
        lone.mkdir()
        net = lone / "weibo_network.txt"
        net.write_bytes((Path(PLANTED) / "weibo_network.txt").read_bytes())
        assert main(["pipeline", str(net), "-o", str(run)]) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        assert [Path(o["path"]).name for o in manifest["outputs"]] == [
            "graph.bin", "partition.csv", "ranks.csv", "report.csv", "summary.json"]

    def test_labelled_subsample_is_scored_like_evaluate(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("weibo_network.txt", "user_profile.txt"):
            (corpus / name).write_bytes((Path(PLANTED) / name).read_bytes())
        truth = (Path(PLANTED) / "truth.csv").read_text().splitlines(keepends=True)
        (corpus / "truth.csv").write_text("".join(truth[:61]))  # header + nodes 0..59
        run = tmp_path / "run"
        assert main(["pipeline", str(corpus), "-o", str(run)]) == 0
        assert main(["evaluate", str(run / "report.csv"), str(corpus / "truth.csv"),
                     "-o", str(tmp_path / "metrics.json"),
                     "--regions", str(corpus / "user_profile.txt")]) == 0
        metrics = without_manifest_key(run / "metrics.json")
        assert metrics["tp"] + metrics["fn"] + metrics["fp"] + metrics["tn"] == 60
        assert metrics == without_manifest_key(tmp_path / "metrics.json")
        assert (run / "regions.csv").read_bytes() == (tmp_path / "regions.csv").read_bytes()

    def test_killed_run_leaves_no_final_named_output(self, tmp_path):
        # the child kills itself while writing report.csv, after three outputs
        out = tmp_path / "run"
        code = ("import os, signal, sys\n"
                "import zombiescan.cli as cli\n"
                "cli.write_report_csv = lambda *a: os.kill(os.getpid(), signal.SIGKILL)\n"
                f"sys.exit(cli.main(['pipeline', {PLANTED!r}, '-o', {str(out)!r}]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
        assert proc.returncode == -signal.SIGKILL
        for name in ("graph.bin", "partition.csv", "ranks.csv", "report.csv",
                     "manifest.json"):
            assert not (out / name).exists(), name

    def test_run_killed_during_its_commit_leaves_no_stale_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert main(["pipeline", PLANTED, "-o", str(out)]) == 0
        # a second run with other ranks kills itself once ranks.csv is in place
        code = ("import os, signal, sys\n"
                "import zombiescan.cli as cli\n"
                "real, done = os.replace, []\n"
                "def replace(src, dst):\n"
                "    real(src, dst)\n"
                "    done.append(dst)\n"
                "    if len(done) == 3:\n"
                "        os.kill(os.getpid(), signal.SIGKILL)\n"
                "os.replace = replace\n"
                f"sys.exit(cli.main(['pipeline', {PLANTED!r}, '-o', {str(out)!r},"
                " '--damping', '0.5']))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        before = (out / "ranks.csv").read_bytes()
        proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
        assert proc.returncode == -signal.SIGKILL
        assert (out / "ranks.csv").read_bytes() != before  # the directory is mixed
        if (out / "manifest.json").exists():
            manifest = json.loads((out / "manifest.json").read_text())
            for entry in manifest["outputs"]:
                digest = hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()
                assert entry["sha256"] == digest, entry["path"]

    def test_network_file_without_truth_skips_evaluate(self, tmp_path):
        corpus = write_corpus(tmp_path)
        lone = tmp_path / "lone"
        lone.mkdir()
        net = lone / "weibo_network.txt"
        net.write_bytes((corpus / "weibo_network.txt").read_bytes())
        run = tmp_path / "run"
        assert main(["pipeline", str(net), "-o", str(run)]) == 0
        assert not (run / "metrics.json").exists()
        assert (run / "report.csv").exists()

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["pipeline", PLANTED, "-o", str(a), "--seed", "0"]) == 0
        assert main(["pipeline", PLANTED, "-o", str(b), "--seed", "99"]) == 0
        # same corpus, different sweep order; partitions may or may not differ,
        # but both runs must be internally consistent
        for run in (a, b):
            manifest = json.loads((run / "manifest.json").read_text())
            assert manifest["summary"]["communities"] == 4

    def test_negative_profile_count_falls_back_to_local_degrees(self, tmp_path, caplog):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("weibo_network.txt", "user_profile.txt", "truth.csv"):
            (corpus / name).write_bytes((Path(PLANTED) / name).read_bytes())
        lines = (corpus / "user_profile.txt").read_text().split("\n")
        fields = lines[3].split("\t")
        fields[5:7] = ["-5", "10"]  # node 3: followers, followees
        lines[3] = "\t".join(fields)
        (corpus / "user_profile.txt").write_text("\n".join(lines))
        runs = {}
        for source in ("local", "profile"):
            runs[source] = tmp_path / source
            assert main(["pipeline", str(corpus), "-o", str(runs[source]),
                         "--io-source", source]) == 0
        assert "1 numeric profile fields were blank, negative or unparseable" in caplog.text
        assert "1 of 200 nodes lack profile counts" in caplog.text
        io = {source: (run / "ranks.csv").read_text().split("\n")[4].split(",")[2]
              for source, run in runs.items()}
        assert io["profile"] == io["local"]
        out = tmp_path / "detect"
        assert main(["detect", str(runs["profile"] / "ranks.csv"), "-o", str(out / "report.csv"),
                     "--summary", str(out / "summary.json")]) == 0


# each config next to the start of its one-line error
MALFORMED_SYNTH_CONFIGS = {
    "invalid-json": (b"{", "line 1: invalid JSON"),
    "not-utf8": (b"\xff", "line 1: byte 0xff is not UTF-8 text"),
    "nested-too-deeply": (b"[" * 100_000 + b"]" * 100_000,
                          "line 1: invalid JSON: nested too deeply"),
    "top-level-list": (b"[1]", "synth config must be a JSON object"),
    "regions-list": (b'{"regions": ["a"]}', "regions must map names to finite"),
    "block-size-string": (b'{"block_sizes": ["a"]}', "block_sizes must be a nonempty list"),
    "block-sizes-number": (b'{"block_sizes": 5}', "block_sizes must be a nonempty list"),
    "block-size-float": (b'{"block_sizes": [3, 2.5]}', "block_sizes must be a nonempty list"),
    "p-in-string": (b'{"p_in": "x"}', "p_in must be a number"),
    "seed-string": (b'{"seed": "1"}', "seed must be a non-negative integer"),
    "degree-range-short": (b'{"zombie_out_degree": [1]}',
                           "zombie_out_degree must be a (lo, hi) pair"),
    "degree-float": (b'{"zombie_out_degree": [1.5, 2]}',
                     "zombie_out_degree must be a (lo, hi) pair"),
}


class TestSynth:
    @pytest.mark.parametrize("name", ["planted_4x50", "zombie_5x500"])
    def test_regenerates_committed_corpus(self, tmp_path, name):
        out = tmp_path / name
        assert main(["synth", f"{DATA}/{name}.config.json", "-o", str(out)]) == 0
        for file in ("weibo_network.txt", "uidlist.txt", "user_profile.txt", "truth.csv"):
            assert (out / file).read_bytes() == Path(f"{DATA}/{name}/{file}").read_bytes(), file
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config == json.loads(Path(f"{DATA}/{name}/manifest.json").read_text())["config"]

    @pytest.mark.parametrize("text, error", MALFORMED_SYNTH_CONFIGS.values(),
                             ids=MALFORMED_SYNTH_CONFIGS.keys())
    def test_malformed_config_exits_2(self, tmp_path, capsys, text, error):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(text)
        assert main(["synth", str(cfg), "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


class TestTextEncoding:
    def copy_planted(self, tmp_path, replace):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("weibo_network.txt", "uidlist.txt", "user_profile.txt", "truth.csv"):
            data = (Path(PLANTED) / name).read_bytes()
            if name in replace:
                data = data.replace(b"Beijing", replace[name])
            (corpus / name).write_bytes(data)
        return corpus

    def test_utf8_region_names_reach_regions_csv(self, tmp_path):
        chinese = "北京".encode("utf-8")
        corpus = self.copy_planted(tmp_path, {"user_profile.txt": chinese,
                                              "truth.csv": chinese})
        run = tmp_path / "run"
        assert main(["pipeline", str(corpus), "-o", str(run)]) == 0
        assert (run / "regions.csv").read_text(encoding="utf-8") == "region,count\n北京,2\n"

    @pytest.mark.parametrize("name", ["user_profile.txt", "truth.csv"])
    def test_stray_latin1_byte_exits_2_naming_the_line(self, tmp_path, capsys, name):
        corpus = self.copy_planted(tmp_path, {name: "Pékin".encode("latin-1")})
        lines = (corpus / name).read_bytes().split(b"\n")
        first = next(i for i, line in enumerate(lines, 1) if b"\xe9" in line)
        run = tmp_path / "run"
        assert main(["pipeline", str(corpus), "-o", str(run)]) == 2
        assert f"error: line {first}: byte 0xe9 is not UTF-8 text" in capsys.readouterr().err
        assert not run.exists() or not files_under(run)


class TestManifests:
    def test_digests_match_files_and_outputs_are_the_files_written(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"block_sizes": [40, 40], "p_in": 0.15, "p_out": 0.005,
                                   "zombie_fraction": 0.1, "zombie_out_degree": [5, 10],
                                   "seed": 5}))
        c, w = tmp_path / "corpus", tmp_path / "work"
        w.mkdir()
        commands = [
            (["synth", str(cfg), "-o", str(c)], c / "manifest.json"),
            (["convert", str(c / "weibo_network.txt"), "--cache", str(w / "g.bin")],
             w / "g.manifest.json"),
            (["stats", str(w / "g.bin"), "-o", str(w / "hist.csv")], w / "hist.manifest.json"),
            (["communities", str(w / "g.bin"), "-o", str(w / "p.csv")], w / "p.manifest.json"),
            (["rank", str(w / "g.bin"), str(w / "p.csv"), "-o", str(w / "r.csv"),
              "--profiles", str(c / "user_profile.txt")], w / "r.manifest.json"),
            (["detect", str(w / "r.csv"), "-o", str(w / "d.csv"),
              "--summary", str(w / "s.json")], w / "d.manifest.json"),
            (["evaluate", str(w / "d.csv"), str(c / "truth.csv"), "-o", str(w / "m.json"),
              "--regions", str(c / "user_profile.txt")], w / "m.manifest.json"),
            (["pipeline", str(c), "-o", str(w / "run")], w / "run" / "manifest.json"),
        ]
        for argv, manifest_path in commands:
            before = files_under(tmp_path)
            assert main(argv) == 0, argv[0]
            written = files_under(tmp_path) - before
            manifest = json.loads(manifest_path.read_text())
            listed = [Path(o["path"]) for o in manifest["outputs"]]
            assert len(listed) == len(set(listed))
            assert set(listed) == written - {manifest_path}, argv[0]
            assert manifest["inputs"], argv[0]
            for entry in manifest["inputs"] + manifest["outputs"]:
                digest = hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()
                assert entry["sha256"] == digest, (argv[0], entry["path"])

    def test_failed_run_leaves_nothing_behind(self, tmp_path):
        # the truth file fails to read after every other stage staged its files
        lone = tmp_path / "lone"
        lone.mkdir()
        net = lone / "weibo_network.txt"
        net.write_bytes((Path(PLANTED) / "weibo_network.txt").read_bytes())
        (lone / "truth.csv").write_text("not a truth file\n")
        run = tmp_path / "run"
        assert main(["pipeline", str(net), "-o", str(run)]) == 2
        assert list(run.iterdir()) == []

    @pytest.mark.parametrize("flags", [["--tol", "nan", "--epsilon", "nan"], ["--tol", "inf"],
                                       ["--epsilon", "inf"]])
    def test_non_finite_setting_exits_2(self, tmp_path, flags):
        run = tmp_path / "run"
        code = main(["pipeline", PLANTED, "-o", str(run), *flags])
        manifest = run / "manifest.json"
        if manifest.exists():  # a bare NaN or Infinity is not JSON
            json.loads(manifest.read_text(), parse_constant=reject_constant)
        assert code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert "zombiescan" in capsys.readouterr().out
