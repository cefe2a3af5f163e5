import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zombiescan import ValidationError, build_graph, symmetrize

from conftest import random_graph
from oracles import arcs_with_flags, is_reciprocal


class TestBuildGraph:
    def test_two_cycle(self, two_cycle):
        assert two_cycle.edge_count == 2
        assert two_cycle.degrees(0) == (1, 1)
        assert two_cycle.degrees(1) == (1, 1)

    def test_self_loop_dropped(self):
        g = build_graph([(0, 0, 0)], 1)
        assert g.edge_count == 0
        assert g.dropped_self_loops == 1

    def test_reciprocal_flag_materializes_reverse_arc(self):
        g = build_graph([(0, 1, 1)], 2)
        assert g.edge_count == 2
        assert g.has_arc(0, 1) and g.has_arc(1, 0)
        assert is_reciprocal(g, 0, 1)

    def test_duplicates_dropped_and_counted(self):
        g = build_graph([(0, 1, 0), (0, 1, 0), (1, 2, 0)], 3)
        assert g.edge_count == 2
        assert g.dropped_duplicates == 1

    def test_materialized_reverse_is_not_a_duplicate(self):
        g = build_graph([(0, 1, 1), (1, 0, 1)], 2)
        assert g.edge_count == 2
        assert g.dropped_duplicates == 0

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValidationError, match="arc #1"):
            build_graph([(0, 1, 0), (0, 2, 0)], 2)

    def test_reingestion_is_idempotent(self):
        g, _ = random_graph(7, 15, 0.2)
        again = build_graph(arcs_with_flags(g), g.node_count)
        assert again == g
        assert again.dropped_duplicates == 0
        assert again.dropped_self_loops == 0

    def test_degree_sums_match_edge_count(self):
        g, _ = random_graph(3, 20, 0.15)
        assert g.in_degrees.sum() == g.out_degrees.sum() == g.edge_count

    def test_empty_graph(self):
        g = build_graph([], 3)
        assert g.edge_count == 0
        assert g.degrees(2) == (0, 0)


class TestSymmetrize:
    def test_two_cycle_collapses_to_one_edge(self, two_cycle):
        und = symmetrize(two_cycle)
        assert und.total_weight == 1.0
        ids, w = und.neighbors(0)
        assert list(ids) == [1] and list(w) == [1.0]

    def test_single_arc_gives_one_edge(self):
        und = symmetrize(build_graph([(0, 1, 0)], 2))
        assert und.total_weight == 1.0

    def test_directed_triangle(self, triangle):
        und = symmetrize(triangle)
        assert und.total_weight == 3.0
        for u in range(3):
            assert und.degree_weights[u] == 2.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_undirected_degree_counts_distinct_neighbors(self, seed):
        g, arcs = random_graph(seed, 12, 0.2)
        und = symmetrize(g)
        neighbors = [set() for _ in range(12)]
        for u, v in arcs:
            neighbors[u].add(v)
            neighbors[v].add(u)
        for u in range(12):
            assert und.degree_weights[u] == len(neighbors[u])


def test_degrees_validates_node_id(two_cycle):
    with pytest.raises(ValidationError):
        two_cycle.degrees(5)


def test_star_degrees():
    g = build_graph([(i, 0, 0) for i in range(1, 6)], 6)
    assert g.degrees(0) == (5, 0)
    assert g.degrees(1) == (0, 1)
