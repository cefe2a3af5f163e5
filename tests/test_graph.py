import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zombiescan import ValidationError, build_graph, graph, symmetrize
from zombiescan.graph import (ROW_BLOCK_SIZE, DirectedGraph, UndirectedGraph, _build_graph,
                              _check_arcs, _pair_keys, _row_fault, _sorted_member)

from conftest import random_graph
from oracles import (arcs_with_flags, build_graph_lexsort, csr_from_arcs_lexsort,
                     from_edges_lexsort, is_reciprocal, out_row, row_fault_rows,
                     row_index_weights, symmetrize_lexsort)


class TestBuildGraph:
    def test_two_cycle(self, two_cycle):
        assert two_cycle.edge_count == 2
        assert two_cycle.in_degrees.tolist() == [1, 1]
        assert two_cycle.out_degrees.tolist() == [1, 1]

    def test_in_adjacency_built_on_first_use(self):
        g = build_graph([(0, 1, 0), (2, 1, 1)], 3)
        assert g.in_degrees.tolist() == [0, 2, 1]
        assert g.in_indices[g.in_indptr[1]:g.in_indptr[2]].tolist() == [0, 2]
        assert g.in_degrees.dtype == np.diff(g.in_indptr).dtype

    def test_self_loop_dropped(self):
        g = build_graph([(0, 0, 0)], 1)
        assert g.edge_count == 0
        assert g.dropped_self_loops == 1

    def test_reciprocal_flag_materializes_reverse_arc(self):
        g = build_graph([(0, 1, 1)], 2)
        assert g.edge_count == 2
        assert out_row(g, 0).tolist() == [1] and out_row(g, 1).tolist() == [0]
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

    @pytest.mark.parametrize("arcs,message", [
        ([(-1, 0, 0)], r"^arc #0 \(-1->0\) has an endpoint outside \[0, 2\)$"),
        ([(0, 2, 0)], r"^arc #0 \(0->2\) has an endpoint outside \[0, 2\)$"),
        ([(0, 1, 1), (1, 0, 0), (1, 2, 0), (-1, 0, 0)],
         r"^arc #2 \(1->2\) has an endpoint outside \[0, 2\)$"),
    ], ids=["negative-source", "target-equal-to-n", "after-good-arcs"])
    def test_first_bad_arc_is_named(self, arcs, message):
        with pytest.raises(ValidationError, match=message):
            build_graph(arcs, 2)
        # the parser's narrow columns take the same check
        src, dst, flag = np.array(arcs).T
        with pytest.raises(ValidationError, match=message):
            _build_graph(src.astype(np.int32), dst.astype(np.int32), flag.astype(np.uint8), 2)

    @pytest.mark.parametrize("flag", [2, -1])
    def test_flag_other_than_0_or_1_rejected(self, flag):
        with pytest.raises(ValidationError, match=f"arc #1 has relationship flag {flag}"):
            build_graph([(0, 1, 0), (1, 2, flag)], 3)

    def test_first_bad_arc_of_either_kind_is_named(self):
        with pytest.raises(ValidationError, match=r"^arc #1 \(0->5\) has an endpoint outside"):
            build_graph([(0, 1, 0), (0, 5, 0), (1, 2, 7)], 3)

    @pytest.mark.parametrize("arcs,dtype", [
        ([(0, 1.7, 0)], "float64"),
        ([(0, 1, 0), (2 ** 70, 1, 0)], "object"),
        ([(0, 1, 0), (2 ** 63, 1, 0)], "float64"),
        (np.array([[0, 1, 0]], dtype=np.float32), "float32"),
    ], ids=["fraction", "beyond-int64", "beyond-int64-by-one", "float-array"])
    def test_id_that_is_no_int64_integer_rejected(self, arcs, dtype):
        # taken as they are: 1.7 is not truncated to 1, nor 2**70 left to overflow
        with pytest.raises(ValidationError, match=f"^arcs hold {dtype} values, not integers"):
            build_graph(arcs, 3)

    @pytest.mark.parametrize("arcs,named", [
        ([(0, 1, 0), (0, 2 ** 63, 0)], ": arc #1 has target 9.223372036854776e+18"),
        ([(0, 1, 0), (2 ** 70, 1, 0)], ": arc #1 has source 1180591620717411303424"),
        ([(0, 1, 0), (1, 2, 0.5)], ": arc #1 has flag 0.5"),
        ([(0, 1, 0), (1, float("nan"), 0)], ": arc #1 has target nan"),
        ([("0", "1", "0")], ": arc #0 has source '0'"),
        ([(0, 1.0, 0)], ""),  # whole numbers, refused as floats: no arc to name
    ], ids=["beyond-int64-by-one", "beyond-int64", "fraction-flag", "nan", "strings",
            "whole-floats"])
    def test_refusal_of_a_value_names_the_arc_and_the_value(self, arcs, named):
        with pytest.raises(ValidationError,
                           match=re.escape(f"not integers within int64{named}") + "$"):
            build_graph(arcs, 3)

    def test_valid_arcs_are_checked_without_a_mask(self):
        # minima and maxima decide a valid list: a mask would trace 1 byte per arc
        src = np.arange(1_000_000) % 7
        flag = (src % 2).astype(np.uint8)
        tracemalloc.start()
        try:
            _check_arcs(src, src[::-1], flag, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000

    def test_reingestion_is_idempotent(self):
        g, _ = random_graph(7, 15, 0.2)
        again = build_graph(arcs_with_flags(g), g.node_count)
        assert again == g
        assert again.dropped_duplicates == 0
        assert again.dropped_self_loops == 0

    def test_degree_sums_match_edge_count(self):
        g, _ = random_graph(3, 20, 0.15)
        assert g.in_degrees.sum() == g.out_degrees.sum() == g.edge_count

    def test_equal_graphs_are_unhashable(self):
        a, b = build_graph([(0, 1, 0)], 2), build_graph([(0, 1, 0)], 2)
        assert a == b
        with pytest.raises(TypeError):
            hash(a)

    def test_empty_graph(self):
        g = build_graph([], 3)
        assert g.edge_count == 0
        assert (g.in_degrees[2], g.out_degrees[2]) == (0, 0)


@st.composite
def csr_tables(draw):
    """(indptr, indices, n) of up to 6 rows: rows as drawn or sorted without
    repeats, ids in [0, n) or from -1 to n, and at times one offset moved."""
    n = draw(st.integers(0, 6))
    low, high = (-1, n) if draw(st.booleans()) else (0, max(n - 1, 0))
    rows = draw(st.lists(st.lists(st.integers(low, high), max_size=5), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [sorted(set(row)) for row in rows]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    if draw(st.integers(0, 4)) == 0:
        indptr[draw(st.integers(0, n))] += draw(st.sampled_from([-1, 1]))
    return indptr, np.array([v for row in rows for v in row], dtype=np.int32), n


class TestRowRule:
    @given(csr_tables())
    # a self-loop in the first row and a descent in the last: the descent is named
    @example((np.array([0, 1, 1, 3]), np.array([0, 1, 0], dtype=np.int32), 3))
    @settings(max_examples=300, deadline=None)
    def test_first_fault_matches_the_rows(self, table):
        indptr, indices, n = table
        want = row_fault_rows(indptr, indices, n)
        for size in (1, 3, ROW_BLOCK_SIZE):
            with mock.patch.object(graph, "ROW_BLOCK_SIZE", size):
                assert _row_fault(indptr, indices, n) == want


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

    def test_keys_are_freed_before_the_row_index_is_built(self):
        # the peak is the pair keys (8 B per entry here, where few arcs are
        # mutual) beside the int32 indices made from them; the keys are
        # written, cleared of repeats and freed before the constructor runs,
        # and the unit weights store no entry (12.35 B per entry measured)
        rng = np.random.Generator(np.random.PCG64(41))
        n = 5000
        src = np.repeat(np.arange(n), 24)
        g = build_graph(np.column_stack([src, rng.integers(0, n, size=src.shape[0]),
                                         np.zeros_like(src)]), n)
        tracemalloc.start()
        try:
            und = symmetrize(g)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        entries = und.indices.shape[0]
        assert entries > 230_000
        assert peak < 13 * entries
        # what stays is the int32 indices and three node arrays of 8 B each
        # (offsets, weighted degrees, loop weights), with a little to spare
        assert und.weights.strides == (0,) and not und.weights.flags.writeable
        assert retained < 4 * entries + 32 * n

    def test_constructor_makes_no_array_of_entry_length(self):
        # the weighted degrees and loop weights are summed row block by row
        # block: two node arrays and a few arrays of one block
        rng = np.random.Generator(np.random.PCG64(43))
        n = 5000
        src = np.repeat(np.arange(n), 24)
        und = symmetrize(build_graph(np.column_stack(
            [src, rng.integers(0, n, size=src.shape[0]), np.zeros_like(src)]), n))
        tracemalloc.start()
        try:
            again = UndirectedGraph(n, und.indptr, und.indices, und.weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert und.indices.shape[0] > 230_000
        assert again.total_weight == und.total_weight
        assert peak < 16 * n + 32 * ROW_BLOCK_SIZE

    @pytest.mark.parametrize("size", [1, 3, ROW_BLOCK_SIZE])
    def test_row_sums_match_the_row_index(self, monkeypatch, size):
        # rows of many entries with uneven weights, self-loops included, and
        # nodes 0, 1 and 58, 59 without entries
        monkeypatch.setattr(graph, "ROW_BLOCK_SIZE", size)
        rng = np.random.Generator(np.random.PCG64(47))
        u, v = rng.integers(2, 58, size=(2, 600))
        w = rng.random(600) * 10.0 ** rng.integers(-8, 8, 600)
        und = UndirectedGraph.from_edges(60, u, v, w)
        degrees, loops = row_index_weights(und)
        assert np.diff(und.indptr).max() > 3 and loops.any()
        assert und.degree_weights.view(np.int64).tolist() == degrees.view(np.int64).tolist()
        assert und.loop_weights.view(np.int64).tolist() == loops.view(np.int64).tolist()

    @pytest.mark.parametrize("size", [1, 3, ROW_BLOCK_SIZE])
    def test_keys_in_blocks_match_the_lexsort(self, monkeypatch, size):
        # repeats cleared across block bounds: mutual arcs, and rows longer
        # than a block
        monkeypatch.setattr(graph, "ROW_BLOCK_SIZE", size)
        for seed in range(5):
            g = random_graph(seed, 30, 0.3)[0]
            und = symmetrize(g)
            assert_same_arrays((und.indptr, und.indices, und.weights), symmetrize_lexsort(g))

    @pytest.mark.parametrize("u", [-2, -1, 3])
    def test_neighbors_refuses_a_node_outside_the_graph(self, u):
        und = symmetrize(build_graph([(0, 1, 0), (1, 2, 0)], 3))
        with pytest.raises(ValidationError, match=f"node {u} outside"):
            und.neighbors(u)

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


def test_star_degrees():
    g = build_graph([(i, 0, 0) for i in range(1, 6)], 6)
    assert (g.in_degrees[0], g.out_degrees[0]) == (5, 0)
    assert (g.in_degrees[1], g.out_degrees[1]) == (0, 1)


def assert_same_arrays(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@st.composite
def arc_triples(draw, max_nodes=12, max_arcs=80):
    """(node_count, int64 (source, target, flag) rows) with repeats and loops."""
    n = draw(st.integers(1, max_nodes))
    node = st.integers(0, n - 1)
    rows = draw(st.lists(st.tuples(node, node, st.integers(0, 1)), max_size=max_arcs))
    return n, np.array(rows, dtype=np.int64).reshape(-1, 3)


def narrow_build(triples: np.ndarray, node_count: int):
    """_build_graph on int32 ids and uint8 flags, the columns a parse returns."""
    return _build_graph(triples[:, 0].astype(np.int32), triples[:, 1].astype(np.int32),
                        triples[:, 2].astype(np.uint8), node_count)


class TestNarrowColumns:
    """Narrow columns build the graph that the int64 triples build."""

    @given(arc_triples())
    @settings(max_examples=80, deadline=None)
    def test_matches_int64_triples(self, case):
        n, triples = case
        g, wide = narrow_build(triples, n), build_graph(triples, n)
        assert_same_arrays((g.out_indptr, g.out_indices), (wide.out_indptr, wide.out_indices))
        assert (g.dropped_self_loops, g.dropped_duplicates) == \
            (wide.dropped_self_loops, wide.dropped_duplicates)

    @pytest.mark.parametrize("rows", [
        # every flagged arc's reverse is listed, so no key is merged
        [(0, 1, 1), (1, 0, 1), (1, 2, 0), (2, 3, 1), (3, 2, 1)],
        # 1->0 and 1->2 are missing; 1->0 is asked for twice by a repeated arc
        [(0, 1, 1), (0, 1, 1), (2, 1, 1), (3, 2, 0), (3, 0, 1), (0, 3, 0)],
        # 0->3 is missing before every listed key and 3->2 after them
        [(3, 0, 1), (1, 2, 0), (2, 3, 1)],
        # self-loops, one of them flagged, beside a missing reverse
        [(0, 0, 1), (1, 2, 1), (2, 2, 0), (3, 1, 0), (3, 3, 0)],
    ], ids=["all-reverses-listed", "reverses-missing-one-twice", "missing-at-both-ends",
            "self-loops"])
    def test_matches_reference(self, rows):
        triples = np.array(rows, dtype=np.int64)
        g = narrow_build(triples, 4)
        *arrays, loops, duplicates = build_graph_lexsort(triples, 4)
        assert_same_arrays((g.out_indptr, g.out_indices, g.in_indptr, g.in_indices), arrays)
        assert (g.dropped_self_loops, g.dropped_duplicates) == (loops, duplicates)


@st.composite
def listed_arcs(draw):
    """(node_count, int64 rows): a drawn graph's own arc list in CSR order with
    its reciprocal flags, as a network file written from it lists them, then
    changed by one drawn perturbation where the graph has what it needs."""
    n, triples = draw(arc_triples())
    rows = arcs_with_flags(build_graph(triples, n))
    flagged = [i for i, (_, _, f) in enumerate(rows) if f]
    kind = draw(st.sampled_from(["none", "clear-flag", "remove-reverse", "repeat-arc",
                                 "self-loop", "swap-rows"]))
    if kind == "clear-flag" and flagged:  # its reverse stays flagged
        i = draw(st.sampled_from(flagged))
        rows[i] = rows[i][:2] + (0,)
    elif kind == "remove-reverse" and flagged:  # the flagged arc asks for it back
        u, v, _ = rows[draw(st.sampled_from(flagged))]
        rows.remove((v, u, 1))
    elif kind == "repeat-arc" and rows:
        rows.insert(draw(st.integers(0, len(rows))), rows[draw(st.integers(0, len(rows) - 1))])
    elif kind == "self-loop":
        u = draw(st.integers(0, n - 1))
        rows.insert(draw(st.integers(0, len(rows))), (u, u, draw(st.integers(0, 1))))
    elif kind == "swap-rows":
        by_row = [[r for r in rows if r[0] == u] for u in range(n)]
        listed = [u for u in range(n) if by_row[u]]
        if len(listed) > 1:
            a, b = draw(st.lists(st.sampled_from(listed), min_size=2, max_size=2, unique=True))
            by_row[a], by_row[b] = by_row[b], by_row[a]
            rows = [r for row in by_row for r in row]
    return n, np.array(rows, dtype=np.int64).reshape(-1, 3)


class TestListedArcs:
    """A graph's own arc list builds without the sort, the dedup or the
    reverse-arc lookup, and any change to it builds the reference graph."""

    @pytest.mark.parametrize("loop", [None, (7, 7, 1)], ids=["as-listed", "with-self-loop"])
    def test_skip_the_dedup_and_the_lookup(self, loop):
        g, _ = random_graph(5, 40, 0.3)
        rows = arcs_with_flags(g)
        assert any(f for _, _, f in rows)
        if loop:
            rows.insert(len(rows) // 2, loop)
        with mock.patch.object(graph, "_drop_repeats", wraps=graph._drop_repeats) as dedup, \
                mock.patch.object(graph, "_sorted_member",
                                  wraps=graph._sorted_member) as lookup:
            built = narrow_build(np.array(rows, dtype=np.int64), g.node_count)
        assert built == g
        assert (built.dropped_self_loops, built.dropped_duplicates) == (1 if loop else 0, 0)
        assert not dedup.called
        assert not lookup.called

    @given(listed_arcs())
    @settings(max_examples=150, deadline=None)
    def test_matches_lexsort(self, case):
        n, triples = case
        g = narrow_build(triples, n)
        *arrays, loops, duplicates = build_graph_lexsort(triples, n)
        assert_same_arrays((g.out_indptr, g.out_indices, g.in_indptr, g.in_indices), arrays)
        assert (g.dropped_self_loops, g.dropped_duplicates) == (loops, duplicates)


# summed left to right these give different doubles in different orders
ORDER_SENSITIVE = [0.1, 0.2, 0.7, 0.3, 1.0]


@st.composite
def weighted_edges(draw):
    n, triples = draw(arc_triples(max_nodes=6, max_arcs=120))
    w = draw(st.lists(st.sampled_from(ORDER_SENSITIVE), min_size=triples.shape[0],
                      max_size=triples.shape[0]))
    return n, triples[:, 0], triples[:, 1], np.array(w, dtype=np.float64)


class TestKeyedSorts:
    """One sort of src * node_count + dst gives the lexsort builds exactly."""

    @given(arc_triples())
    @settings(max_examples=60, deadline=None)
    def test_csr_from_arcs_matches_lexsort(self, case):
        n, triples = case
        src, dst = triples[:, 0], triples[:, 1]
        # repeated arcs and self-loops kept: the in-CSR is the out-CSR of the reversed arcs
        g = DirectedGraph(n, *csr_from_arcs_lexsort(src, dst, n))
        assert_same_arrays((g.in_indptr, g.in_indices), csr_from_arcs_lexsort(dst, src, n))

    @given(arc_triples())
    @settings(max_examples=60, deadline=None)
    def test_build_graph_matches_lexsort(self, case):
        n, triples = case
        g = build_graph(triples, n)
        *arrays, loops, duplicates = build_graph_lexsort(triples, n)
        assert_same_arrays((g.out_indptr, g.out_indices, g.in_indptr, g.in_indices), arrays)
        assert (g.dropped_self_loops, g.dropped_duplicates) == (loops, duplicates)

    @given(arc_triples())
    @settings(max_examples=60, deadline=None)
    def test_symmetrize_matches_lexsort(self, case):
        n, triples = case
        g = build_graph(triples, n)
        und = symmetrize(g)
        assert_same_arrays((und.indptr, und.indices, und.weights), symmetrize_lexsort(g))

    @given(st.lists(st.integers(0, 30), unique=True), st.lists(st.integers(-2, 40)))
    @settings(max_examples=60, deadline=None)
    def test_sorted_member_matches_isin(self, keys, queries):
        keys = np.sort(np.array(keys, dtype=np.int64))
        queries = np.sort(np.array(queries, dtype=np.int64))
        assert _sorted_member(keys, queries).tolist() == np.isin(queries, keys).tolist()

    @given(weighted_edges())
    @settings(max_examples=80, deadline=None)
    @example((2, np.array([0, 1, 0]), np.array([1, 0, 1]), np.array([0.1, 0.2, 0.7])))
    @example((2, np.array([1, 0, 0]), np.array([0, 1, 1]), np.array([0.7, 0.2, 0.1])))
    def test_from_edges_matches_lexsort(self, case):
        n, u, v, w = case
        und = UndirectedGraph.from_edges(n, u, v, w)
        assert_same_arrays((und.indptr, und.indices, und.weights),
                           from_edges_lexsort(n, u, v, w))

    def test_from_edges_sums_parallel_weights_in_input_order(self):
        # thousands of parallel entries in shuffled order: an unstable sort
        # would sum them in another order and round differently
        rng = np.random.Generator(np.random.PCG64(3))
        u = rng.integers(0, 4, size=3000)
        v = rng.integers(0, 4, size=3000)
        w = rng.choice(ORDER_SENSITIVE, size=3000)
        und = UndirectedGraph.from_edges(4, u, v, w)
        expected = from_edges_lexsort(4, u, v, w)
        assert_same_arrays((und.indptr, und.indices, und.weights), expected)
        reversed_sum = from_edges_lexsort(4, u[::-1], v[::-1], w[::-1])[2]
        assert not np.array_equal(expected[2], reversed_sum)

    def test_pair_keys_guard_int64_overflow(self):
        limit = 3_037_000_499
        last = np.array([limit - 1])
        assert int(_pair_keys(last, last, limit)[0]) == limit * limit - 1 < 2 ** 63
        with pytest.raises(ValidationError, match="overflow"):
            _pair_keys(np.array([0]), np.array([1]), limit + 1)
