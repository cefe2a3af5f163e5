import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zombiescan import ValidationError, detect_zombies, iqr_threshold, quartiles
from zombiescan.detect import read_report_csv, write_report_csv, write_summary_json
from zombiescan.rank import ImportanceVector


def vec(values, members=None, converged=True):
    values = np.asarray(values, dtype=np.float64)
    if members is None:
        members = np.arange(values.shape[0])
    return ImportanceVector(values, np.asarray(members), 1, 0.0, converged)


class TestQuartiles:
    def test_exact_indices(self):
        assert quartiles([1, 2, 3, 4, 5]) == (2.0, 4.0)

    def test_single_element(self):
        assert quartiles([7]) == (7.0, 7.0)

    def test_interpolated(self):
        # h = 0.75 and h = 2.25 under linear interpolation
        q1, q3 = quartiles([1, 2, 3, 4])
        assert q1 == pytest.approx(1.75, abs=1e-15)
        assert q3 == pytest.approx(3.25, abs=1e-15)

    def test_nearest_rank(self):
        assert quartiles([1, 2, 3, 4], method="nearest") == (2.0, 3.0)

    def test_unsorted_input(self):
        assert quartiles([5, 1, 3, 2, 4]) == (2.0, 4.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            quartiles([])

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            quartiles([1.0], method="midpoint")


class TestIqrThreshold:
    def test_one_to_five(self):
        assert iqr_threshold([1, 2, 3, 4, 5]) == -1.0

    def test_constant_values_give_threshold_at_value(self):
        assert iqr_threshold([0.2] * 6) == 0.2

    def test_descending_ranks_example(self):
        assert iqr_threshold([0.3, 0.25, 0.2, 0.15, 0.1]) == pytest.approx(0.0, abs=1e-15)


class TestDetectZombies:
    def test_symmetric_community_flags_nobody(self):
        report = detect_zombies({0: vec([0.5, 0.5])}, min_community_size=2)
        assert report.zombie_count == 0
        assert report.proportion == 0.0

    def test_zero_iqr_with_genuine_outlier(self):
        report = detect_zombies({0: vec([0.24, 0.24, 0.24, 0.24, 0.04])})
        assert report.zombie_count == 1
        assert list(np.flatnonzero(report.labels())) == [4]
        assert report.thresholds.tolist() == [0.24] * 5

    def test_negative_threshold_flags_nothing(self):
        report = detect_zombies({0: vec([1, 2, 3, 4, 5])})
        assert report.zombie_count == 0
        assert report.thresholds.tolist() == [-1.0] * 5

    def test_small_communities_skipped(self):
        report = detect_zombies({0: vec([0.9, 0.05, 0.05], members=[0, 1, 2]),
                                 1: vec([0.2] * 5, members=[3, 4, 5, 6, 7])},
                                min_community_size=5)
        assert report.skipped_small_communities == 1
        assert report.zombie_count == 0
        assert np.isnan(report.thresholds[0])

    def test_default_min_size_shields_tiny_communities(self):
        # 4 members max under the default floor of 5: never any zombie
        ranks = {c: vec(np.linspace(0.01, 1.0, c + 1),
                        members=range(c * (c + 1) // 2, (c + 1) * (c + 2) // 2))
                 for c in range(4)}
        report = detect_zombies(ranks)
        assert report.zombie_count == 0

    def test_proportion_is_exact_ratio(self):
        report = detect_zombies({0: vec([0.24, 0.24, 0.24, 0.24, 0.04])})
        assert report.proportion == report.zombie_count / report.total == 0.2

    def test_rows_sorted_by_node_id(self):
        report = detect_zombies({0: vec([0.1, 0.4], members=[1, 3]),
                                 1: vec([0.3, 0.2], members=[2, 0])},
                                min_community_size=2)
        assert report.community_ids.tolist() == [1, 0, 1, 0]
        assert report.values.tolist() == [0.2, 0.1, 0.3, 0.4]

    def test_empty_ranks_rejected(self):
        with pytest.raises(ValidationError):
            detect_zombies({})

    def test_unknown_method_rejected_before_fencing(self):
        # 2 members are below the floor of 5: no community is fenced
        with pytest.raises(ValidationError, match="unknown quartile method 'bogus'"):
            detect_zombies({0: vec([0.5, 0.5])}, 5, "bogus")

    @pytest.mark.parametrize("ranks", [
        {0: vec([0.5, 0.5], members=[0, 1]), 1: vec([0.5, 0.5], members=[1, 2])},
        {0: vec([0.5, 0.5, 0.5], members=[1, 2, 1])},
    ], ids=["two-vectors", "one-vector"])
    def test_node_listed_twice_rejected(self, ranks):
        with pytest.raises(ValidationError, match="node 1 listed twice in the ranks"):
            detect_zombies(ranks, min_community_size=2)

    @pytest.mark.parametrize("ranks,message", [
        ({0: vec([0.5, 0.5], members=[0, 2]), 1: vec([0.5], members=[3])},
         "no rank for node 1; node 3 is outside 0..2"),
        ({0: vec([0.5, 0.5, 0.5], members=[-1, 0, 1])},
         "no rank for node 2; node -1 is outside 0..2"),
        ({0: vec([0.5, 0.5, 0.5], members=[0, 1, 2 ** 40])},
         f"no rank for node 2; node {2 ** 40} is outside 0..2"),
    ], ids=["gap", "negative", "huge"])
    def test_node_without_a_rank_rejected(self, ranks, message):
        # n members cover nodes 0..n-1, so a member outside leaves a node out
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            detect_zombies(ranks, min_community_size=2)

    def test_scale_equivariance_spot_check(self):
        values = [0.24, 0.24, 0.24, 0.24, 0.04]
        base = detect_zombies({0: vec(values)})
        for c in (3.0, 0.125, 1024.0):
            scaled = detect_zombies({0: vec([v * c for v in values])})
            assert np.array_equal(scaled.is_zombie, base.is_zombie)
            assert scaled.thresholds[0] == pytest.approx(base.thresholds[0] * c, rel=1e-12)

    @given(st.lists(st.integers(0, 1000), min_size=5, max_size=40),
           st.integers(-8, 8))
    @settings(max_examples=60, deadline=None)
    def test_scale_equivariance_power_of_two(self, ints, exponent):
        # power-of-two scaling is exact in binary floating point
        c = 2.0 ** exponent
        values = [float(i) for i in ints]
        base = detect_zombies({0: vec(values)})
        scaled = detect_zombies({0: vec([v * c for v in values])})
        assert np.array_equal(scaled.is_zombie, base.is_zombie)

    @given(st.lists(st.integers(0, 100), min_size=5, max_size=25), st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_lowering_a_flagged_value_never_unflags(self, ints, drop):
        values = np.asarray([float(i) for i in ints])
        report = detect_zombies({0: vec(values)})
        flagged = np.flatnonzero(report.is_zombie)
        if flagged.size == 0:
            return
        node = int(flagged[0])
        lowered = values.copy()
        lowered[node] -= drop
        report2 = detect_zombies({0: vec(lowered)})
        assert report2.is_zombie[node]


def test_planted_zombies_in_one_community_are_recalled():
    # one block at the committed generator parameters: 50 zombies with
    # near-zero inbound weight among 450 normals
    from zombiescan import RankConfig, SynthConfig, generate, pagerank
    from zombiescan.rank import io_scores_for

    cfg = SynthConfig(block_sizes=(500,), p_in=0.06, p_out=0.0, reciprocity=0.3,
                      zombie_fraction=0.1, zombie_out_degree=(20, 40),
                      zombie_max_in_degree=1, seed=7)
    g, truth, _ = generate(cfg)
    io = io_scores_for(g)
    vector = pagerank(g, RankConfig(), io)
    report = detect_zombies({0: vector})
    planted = {int(z) for z in np.flatnonzero(truth.labels())}
    flagged = {int(n) for n in np.flatnonzero(report.labels())}
    recall = len(flagged & planted) / len(planted)
    assert recall >= 0.8


class TestReportFiles:
    def test_csv_round_trip(self, tmp_path):
        report = detect_zombies({0: vec([0.24, 0.24, 0.24, 0.24, 0.04])})
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        labels = read_report_csv(path)
        assert labels.dtype == bool
        assert labels.tolist() == [False, False, False, False, True]

    def test_rows_read_in_any_order(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("node_id,community_id,pagerank,threshold,label\n"
                        "2,0,0.1,,zombie\n0,0,0.1,,normal\n1,0,0.1,,zombie\n")
        assert read_report_csv(path).tolist() == [False, True, True]

    def test_summary_json(self, tmp_path):
        import json

        report = detect_zombies({0: vec([0.24, 0.24, 0.24, 0.24, 0.04])})
        path = tmp_path / "summary.json"
        write_summary_json(report, path, manifest_name="report.manifest.json")
        data = json.loads(path.read_text())
        assert data["flagged"] == 1
        assert data["total"] == 5
        assert data["proportion"] == 0.2
        assert data["method"] == "linear"
        assert data["min_size"] == 5
        assert data["manifest"] == "report.manifest.json"

    def test_skipped_community_has_blank_threshold(self, tmp_path):
        report = detect_zombies({0: vec([0.5, 0.5])})
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[1].split(",")[3] == ""

    @pytest.mark.parametrize("rows,match", [
        (["0,0,0.1,,zombie", "1,0,0.1,,garbage"], "bad report row"),
        (["0,0,0.1,,zombie", "1,0,0.1,,Zombie"], "bad report row"),
        (["0,0,0.1,,normal", "0,0,0.1,,zombie"], "listed twice"),
        (["0,x,y,z,normal"], "bad report row"),
        (["0,99999999999999999999,0.1,,normal"], "bad report row"),
        (["0,0,nan,,normal"], "bad report row"),
        (["0,0,0.1,inf,normal"], "bad report row"),
        (["0,0,0.1,z,normal"], "bad report row"),
        (["1,0,0.1,,normal", "2,0,0.1,,normal"], r"node 2 outside 0\.\.1, "),  # no node 0
        (["0,0,0.1,,normal", "-1,0,0.1,,normal"], r"node -1 outside 0\.\.1, "),
    ])
    def test_unknown_label_or_repeated_node_rejected(self, tmp_path, rows, match):
        path = tmp_path / "report.csv"
        path.write_text("node_id,community_id,pagerank,threshold,label\n"
                        + "\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match=match):
            read_report_csv(path)
