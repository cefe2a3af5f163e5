import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zombiescan import (ConfusionMatrix, ValidationError, build_graph, confusion,
                        degree_histogram, detect_zombies, metrics,
                        region_distribution)
from zombiescan.rank import ImportanceVector

from conftest import profile_table, random_graph
from oracles import transposed

# 100 manually labeled accounts, rows read as truth: 41/17 over 9/33
LABELED_SAMPLE = ConfusionMatrix(tp=41, fn=17, fp=9, tn=33)


class TestConfusion:
    def test_perfect_predictions(self):
        truth = np.arange(10) < 4
        cm = confusion(truth, truth)
        assert (cm.fp, cm.fn) == (0, 0)
        assert cm.tp == 4 and cm.tn == 6

    def test_all_predicted_normal(self):
        truth = np.arange(10) < 3
        predicted = np.zeros(10, dtype=bool)
        cm = confusion(predicted, truth)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (0, 3, 0, 7)

    def test_labeled_sample_total(self):
        assert LABELED_SAMPLE.total == 100

    def test_node_set_mismatch_lists_ids(self):
        with pytest.raises(ValidationError, match="no prediction for 2"):
            confusion(np.array([True, False]), np.array([True, False, True]))

    def test_missing_truth_names_the_first_node(self):
        with pytest.raises(ValidationError, match="no truth for 1 "):
            confusion(np.array([True, False, True]), np.array([True]))

    def test_swapping_maps_transposes(self):
        rng = np.random.Generator(np.random.PCG64(12))
        predicted = rng.integers(2, size=40).astype(bool)
        truth = rng.integers(2, size=40).astype(bool)
        cm = confusion(predicted, truth)
        swapped = confusion(truth, predicted)
        assert swapped == transposed(cm)
        assert (swapped.fp, swapped.fn) == (cm.fn, cm.fp)

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_counts_sum_to_node_count(self, pairs):
        predicted, truth = np.array(pairs, dtype=bool).T
        assert confusion(predicted, truth).total == len(pairs)


class TestMetrics:
    def test_labeled_sample_accuracy(self):
        assert metrics(LABELED_SAMPLE).accuracy == 0.74

    def test_labeled_sample_precision_recall(self):
        ms = metrics(LABELED_SAMPLE)
        assert ms.precision == 41 / 50 == 0.82
        assert ms.recall == 41 / 58
        assert ms.recall == pytest.approx(0.7069, abs=1e-4)

    def test_undefined_precision(self):
        ms = metrics(ConfusionMatrix(tp=0, fn=5, fp=0, tn=5))
        assert ms.precision is None
        assert ms.recall == 0.0
        assert ms.f1 is None

    def test_perfect_matrix(self):
        ms = metrics(ConfusionMatrix(tp=5, fn=0, fp=0, tn=5))
        assert (ms.accuracy, ms.precision, ms.recall, ms.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_all_wrong_matrix(self):
        ms = metrics(ConfusionMatrix(tp=0, fn=5, fp=5, tn=0))
        assert ms.accuracy == 0.0

    def test_f1_is_harmonic_mean(self):
        ms = metrics(LABELED_SAMPLE)
        assert ms.f1 == pytest.approx(
            2 * ms.precision * ms.recall / (ms.precision + ms.recall), abs=1e-15)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValidationError):
            metrics(ConfusionMatrix(0, 0, 0, 0))


def report_with_zombies(zombie_nodes, total):
    values = np.full(total, 0.24)
    values[list(zombie_nodes)] = 0.001
    vec = ImportanceVector(values, np.arange(total), 1, 0.0, True)
    return detect_zombies({0: vec})


class TestRegionDistribution:
    def test_counts_by_region(self):
        report = report_with_zombies([0, 1, 2, 3], 20)
        profiles = profile_table(20, regions=["Beijing" if i < 3 else "Shanghai"
                                              for i in range(20)])
        assert region_distribution(report, profiles) == {"Beijing": 3, "Shanghai": 1}

    def test_missing_profile_goes_to_unknown(self):
        report = report_with_zombies([0], 10)
        profiles = profile_table(10, regions=[None] * 10)
        assert region_distribution(report, profiles) == {"unknown": 1}

    def test_ids_outside_the_profiles_go_to_unknown(self):
        profiles = profile_table(3, regions=["Shanghai", "Shanghai", "Beijing"])
        flagged = np.array([True, False, False, True, True])
        assert region_distribution(flagged, profiles) == {"unknown": 2, "Shanghai": 1}

    def test_report_and_its_labels_count_alike(self):
        report = report_with_zombies([1, 4, 11], 16)
        profiles = profile_table(10, regions=["Beijing", "Shanghai"] * 5)
        counts = region_distribution(report, profiles)
        assert counts == region_distribution(report.labels(), profiles)
        assert counts == {"Shanghai": 1, "Beijing": 1, "unknown": 1}

    def test_counts_match_generator(self):
        rng = np.random.Generator(np.random.PCG64(7))
        regions = ["Beijing", "Shanghai", "Chengdu"]
        assigned = [regions[int(rng.integers(3))] for _ in range(30)]
        zombies = [0, 5, 9, 13, 22]
        report = report_with_zombies(zombies, 30)
        profiles = profile_table(30, regions=assigned)
        expected: dict[str, int] = {}
        for z in zombies:
            expected[assigned[z]] = expected.get(assigned[z], 0) + 1
        assert region_distribution(report, profiles) == expected


class TestDegreeHistogram:
    def test_two_cycle(self, two_cycle):
        assert degree_histogram(two_cycle, 1) == [(2, 2)]

    def test_star(self):
        g = build_graph([(i, 0, 0) for i in range(1, 6)], 6)
        assert degree_histogram(g, 1) == [(1, 5), (5, 1)]

    def test_counts_sum_to_node_count(self):
        for bin_width in (1, 2, 5):
            g, _ = random_graph(14, 30, 0.2)
            hist = degree_histogram(g, bin_width)
            assert sum(c for _, c in hist) == 30

    def test_matches_scalar_recount(self):
        g, arcs = random_graph(15, 25, 0.3)
        totals = [0] * 25
        for u, v in set(arcs):
            totals[u] += 1
            totals[v] += 1
        expected: dict[int, int] = {}
        for t in totals:
            b = (t // 3) * 3
            expected[b] = expected.get(b, 0) + 1
        assert dict(degree_histogram(g, 3)) == expected

    def test_bad_bin_width_rejected(self, two_cycle):
        with pytest.raises(ValidationError):
            degree_histogram(two_cycle, 0)
