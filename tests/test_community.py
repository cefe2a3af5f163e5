import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zombiescan import (LouvainConfig, Partition, ValidationError, build_graph, graph, louvain,
                        modularity, move_gain, symmetrize)
from zombiescan.community import _aggregate, read_partition_csv, write_partition_csv
from zombiescan.graph import ROW_BLOCK_SIZE, UndirectedGraph

from conftest import random_graph
from oracles import (aggregate_lexsort, aggregate_row_index, dense_adjacency, flattened,
                     modularity_dense, modularity_row_index, one_level_numpy_scalars,
                     one_level_queue_numpy_scalars, self_weight)

TWO_TRIANGLES = [(0, 1, 0), (1, 2, 0), (2, 0, 0), (3, 4, 0), (4, 5, 0), (5, 3, 0)]


def und_from_arcs(arcs, n):
    return symmetrize(build_graph(arcs, n))


def random_weighted_graph(rng):
    """Repeated pairs and self-loops, weights whose sums depend on order."""
    n = int(rng.integers(2, 40))
    m = int(rng.integers(1, 4 * n))
    return UndirectedGraph.from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                                      rng.choice([0.1, 0.2, 0.7, 1.5], size=m))


def clique_arcs(nodes):
    return [(u, v, 0) for u in nodes for v in nodes if u < v]


@st.composite
def tie_graphs(draw):
    """A small unit-weight graph full of ties under a random relabelling: a
    ring lattice, a star, a complete graph, a circulant (regular) graph, or
    a sparse random graph, where lone nodes stay good candidates."""
    n = draw(st.integers(3, 24))
    family = draw(st.sampled_from(["ring", "star", "complete", "circulant", "sparse"]))
    if family == "ring":
        jumps = range(1, draw(st.integers(1, (n - 1) // 2)) + 1)
    elif family == "circulant":
        jumps = draw(st.sets(st.integers(1, n // 2), min_size=1))
    if family in ("ring", "circulant"):
        pairs = [(i, (i + s) % n) for i in range(n) for s in jumps]
    elif family == "star":
        pairs = [(0, i) for i in range(1, n)]
    elif family == "complete":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                              .filter(lambda p: p[0] != p[1]), min_size=1, max_size=2 * n))
    label = draw(st.permutations(range(n)))
    edges = np.array(sorted({(min(label[a], label[b]), max(label[a], label[b]))
                             for a, b in pairs}))
    return UndirectedGraph.from_edges(n, edges[:, 0], edges[:, 1], np.ones(edges.shape[0]))


class TestModularity:
    def test_singleton_distinct_pairs_is_exactly_zero(self):
        for seed in range(5):
            g, _ = random_graph(seed, 14, 0.2)
            und = symmetrize(g)
            q = modularity(und, Partition.singletons(14), "distinct-pairs")
            assert q == 0.0

    def test_two_triangles_standard_half(self):
        und = und_from_arcs(TWO_TRIANGLES, 6)
        p = Partition([0, 0, 0, 1, 1, 1])
        assert modularity(und, p, "standard") == pytest.approx(0.5, abs=1e-12)
        # confirmed by the dense double loop with the diagonal included
        oracle = modularity_dense(dense_adjacency(und), p.assignment, True)
        assert oracle == pytest.approx(0.5, abs=1e-12)

    def test_two_triangles_distinct_pairs_two_thirds(self):
        und = und_from_arcs(TWO_TRIANGLES, 6)
        p = Partition([0, 0, 0, 1, 1, 1])
        assert modularity(und, p, "distinct-pairs") == pytest.approx(2 / 3, abs=1e-12)
        oracle = modularity_dense(dense_adjacency(und), p.assignment, False)
        assert oracle == pytest.approx(2 / 3, abs=1e-12)

    @pytest.mark.parametrize("variant,diag", [("standard", True), ("distinct-pairs", False)])
    def test_matches_dense_oracle_on_random_partitions(self, variant, diag):
        rng = np.random.Generator(np.random.PCG64(17))
        for seed in range(10):
            n = int(rng.integers(5, 25))
            g, _ = random_graph(seed + 100, n, 0.25)
            und = symmetrize(g)
            if und.total_weight == 0:
                continue
            p = Partition(rng.integers(0, 4, size=n))
            expected = modularity_dense(dense_adjacency(und), p.assignment, diag)
            assert modularity(und, p, variant) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("variant", ["standard", "distinct-pairs"])
    def test_bits_match_the_row_index_sums(self, variant):
        # blocks of one row (size 1), of a few rows and of the whole graph:
        # a community's sum is added across blocks in entry order
        rng = np.random.Generator(np.random.PCG64(31))
        for _ in range(40):
            und = random_weighted_graph(rng)
            p = Partition(rng.integers(0, 4, size=und.node_count))
            want = modularity_row_index(und, p.assignment, variant).hex()
            for size in (1, 3, ROW_BLOCK_SIZE):
                with mock.patch.object(graph, "ROW_BLOCK_SIZE", size):
                    assert modularity(und, p, variant).hex() == want

    def test_self_loop_entries_are_the_diagonal_entries(self):
        rng = np.random.Generator(np.random.PCG64(32))
        for _ in range(40):
            und = random_weighted_graph(rng)
            rows = np.repeat(np.arange(und.node_count), np.diff(und.indptr))
            loops = np.flatnonzero(rows == und.indices)
            assert und.loop_weights.dtype == np.float64
            assert np.flatnonzero(und.loop_weights).tolist() == rows[loops].tolist()
            assert und.loop_weights[rows[loops]].tolist() == und.weights[loops].tolist()
        assert symmetrize(build_graph([], 3)).loop_weights.tolist() == [0.0, 0.0, 0.0]

    def test_aggregated_loop_weights_are_the_community_self_loops(self):
        und = corpus_graph("zombie_5x500")
        p = Partition(louvain(und).levels[0].assignment)
        agg = _aggregate(und, p)
        assert agg.loop_weights.tolist() == [self_weight(agg, c)
                                             for c in range(agg.node_count)]
        rows = np.repeat(np.arange(und.node_count), np.diff(und.indptr))
        intra = p.assignment[rows] == p.assignment[und.indices]
        holds_intra = np.zeros(agg.node_count, dtype=bool)
        holds_intra[p.assignment[rows[intra]]] = True
        assert np.array_equal(agg.loop_weights != 0.0, holds_intra)

    def test_standard_range_bounds(self):
        und = und_from_arcs(TWO_TRIANGLES, 6)
        for labels in ([0] * 6, [0, 1, 2, 3, 4, 5], [0, 0, 1, 1, 2, 2]):
            q = modularity(und, Partition(labels), "standard")
            assert -0.5 - 1e-12 <= q <= 1.0 + 1e-12

    def test_size_mismatch_rejected(self):
        und = und_from_arcs(TWO_TRIANGLES, 6)
        with pytest.raises(ValidationError):
            modularity(und, Partition([0, 0]), "standard")

    def test_edgeless_graph_rejected(self):
        und = symmetrize(build_graph([], 3))
        with pytest.raises(ValidationError):
            modularity(und, Partition.singletons(3), "standard")


class TestMoveGain:
    def test_disconnected_community_has_negative_gain(self):
        und = und_from_arcs(TWO_TRIANGLES, 6)
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert move_gain(und, labels, 0, 1) < 0

    def test_joining_a_neighbor_from_isolation_gains(self):
        und = und_from_arcs([(0, 1, 0)], 2)
        assert move_gain(und, np.array([0, 1]), 1, 0) > 0

    def test_inputs_it_would_misread_are_refused(self):
        # on the path 0-5, -1 would wrap to the last community or node, and
        # node 6 is past the end
        und = und_from_arcs([(u, u + 1, 0) for u in range(5)], 6)
        labels = np.array([0, 0, 0, 1, 1, 2])
        for node, target, message in ((2, -1, "target community -1 is negative"),
                                      (-1, 0, r"node -1 outside \[0, 6\)"),
                                      (6, 0, r"node 6 outside \[0, 6\)")):
            with pytest.raises(ValidationError, match=message):
                move_gain(und, labels, node, target)
        for short_or_long in (labels[:5], np.append(labels, 0), labels.reshape(2, 3)):
            with pytest.raises(ValidationError, match="graph has 6 nodes"):
                move_gain(und, short_or_long, 2, 1)
        # a target past the last community is an empty one, and stays allowed
        assert move_gain(und, labels, 2, 3) < 0
        # float labels would be cast to int, and a nan resolution scores nan
        with pytest.raises(ValidationError, match="float64 values, not integer community ids"):
            move_gain(und, labels + 0.5, 2, 1)
        for resolution in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValidationError, match="resolution must be positive and finite"):
                move_gain(und, labels, 2, 1, resolution)

    def test_matches_recompute_from_scratch(self):
        rng = np.random.Generator(np.random.PCG64(5150))
        for seed in range(8):
            n = int(rng.integers(6, 13))
            g, _ = random_graph(seed + 300, n, 0.3)
            und = symmetrize(g)
            if und.total_weight == 0:
                continue
            labels = np.asarray(rng.integers(0, 3, size=n))
            a = dense_adjacency(und)
            for node in range(n):
                for target in range(3):
                    if target == labels[node]:
                        continue
                    before = modularity_dense(a, labels, True)
                    moved = labels.copy()
                    moved[node] = target
                    after = modularity_dense(a, moved, True)
                    assert move_gain(und, labels, node, target) == \
                        pytest.approx(after - before, abs=1e-12)


class TestLouvain:
    def test_two_disjoint_ten_cliques(self):
        arcs = clique_arcs(range(10)) + clique_arcs(range(10, 20))
        und = und_from_arcs(arcs, 20)
        dend = louvain(und, LouvainConfig(seed=1))
        p = dend.partition
        assert p.community_count == 2
        assert len(set(p.assignment[:10])) == 1
        assert len(set(p.assignment[10:])) == 1
        assert modularity(und, p, "standard") == pytest.approx(0.5, abs=1e-12)

    def test_complete_graph_is_one_community(self):
        und = und_from_arcs(clique_arcs(range(5)), 5)
        assert louvain(und, LouvainConfig(seed=3)).partition.community_count == 1

    @pytest.mark.parametrize("field", ["min_gain", "resolution"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_setting_is_refused(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be .* finite$"):
            LouvainConfig(**{field: value})

    @pytest.mark.parametrize("cap", [0, -1, 2.5, np.nan, "5", True])
    def test_level_cap_must_be_a_positive_integer(self, cap):
        # range() of louvain's level loop takes no float
        with pytest.raises(ValidationError, match="^max_levels must be an integer of at least 1$"):
            LouvainConfig(max_levels=cap)
        assert LouvainConfig(max_levels=np.int64(2)).max_levels == 2

    def test_modularity_non_decreasing_across_levels(self):
        g, _ = random_graph(8, 40, 0.08)
        und = symmetrize(g)
        dend = louvain(und, LouvainConfig(seed=2))
        mods = [level.modularity for level in dend.levels]
        assert all(b >= a - 1e-12 for a, b in zip(mods, mods[1:]))

    def test_beats_singleton_partition(self):
        g, _ = random_graph(9, 30, 0.1)
        und = symmetrize(g)
        dend = louvain(und, LouvainConfig(seed=4))
        q = modularity(und, dend.partition, "standard")
        q0 = modularity(und, Partition.singletons(30), "standard")
        assert q >= q0

    def test_dendrogram_composes_to_flattened(self):
        g, _ = random_graph(10, 35, 0.09)
        dend = louvain(symmetrize(g), LouvainConfig(seed=5))
        assert Partition(flattened(dend)) == dend.partition

    def test_deterministic_for_fixed_seed(self):
        g, _ = random_graph(12, 40, 0.1)
        und = symmetrize(g)
        a = louvain(und, LouvainConfig(seed=7)).partition
        b = louvain(und, LouvainConfig(seed=7)).partition
        assert a == b

    def test_edgeless_graph_stays_singletons(self):
        und = symmetrize(build_graph([], 4))
        dend = louvain(und)
        assert dend.partition == Partition.singletons(4)
        assert dend.levels == []

    def test_planted_partition_recovery(self):
        # committed corpus: 4 blocks x 50, p_in 0.3, p_out 0.01, seed 1234
        from conftest import DATA
        from oracles import adjusted_rand_index
        from zombiescan.ingest import parse_weibo_network
        from zombiescan.synth import read_truth_csv

        g = parse_weibo_network(f"{DATA}/planted_4x50/weibo_network.txt").to_graph()
        truth = read_truth_csv(f"{DATA}/planted_4x50/truth.csv")
        und = symmetrize(g)
        dend = louvain(und, LouvainConfig())
        ari = adjusted_rand_index(dend.partition.assignment, truth.block_ids)
        assert ari >= 0.95
        q = modularity(und, dend.partition, "standard")
        q_planted = modularity(und, Partition(truth.block_ids), "standard")
        assert abs(q - q_planted) <= 0.02

    def test_aggregation_preserves_modularity(self):
        g, _ = random_graph(6, 25, 0.15)
        und = symmetrize(g)
        rng = np.random.Generator(np.random.PCG64(0))
        p = Partition(rng.integers(0, 4, size=25))
        agg = _aggregate(und, p)
        q_orig = modularity(und, p, "standard")
        q_agg = modularity(agg, Partition.singletons(agg.node_count), "standard")
        assert q_agg == pytest.approx(q_orig, abs=1e-12)
        assert agg.total_weight == pytest.approx(und.total_weight, abs=1e-9)

    @pytest.mark.parametrize("size", [1, 3, ROW_BLOCK_SIZE])
    def test_aggregate_gives_from_edges_the_row_index_edges(self, monkeypatch, size):
        # the same edges in the same order, loop weights summed to the same
        # bits, whichever blocks the rows fall into
        monkeypatch.setattr(graph, "ROW_BLOCK_SIZE", size)
        rng = np.random.Generator(np.random.PCG64(33))
        cases = [random_weighted_graph(rng) for _ in range(40)]
        cases += [symmetrize(random_graph(seed, 30, 0.2)[0]) for seed in range(5)]
        calls = []
        from_edges = UndirectedGraph.from_edges.__func__

        def spy(cls, n, u, v, w):
            calls.append((n, u, v, w))
            return from_edges(cls, n, u, v, w)

        monkeypatch.setattr(UndirectedGraph, "from_edges", classmethod(spy))
        for und in cases:
            for labels in (rng.integers(0, 4, size=und.node_count),
                           np.zeros(und.node_count, dtype=np.int64), np.arange(und.node_count)):
                p = Partition(labels)
                calls.clear()
                _aggregate(und, p)
                (n, *edges), = calls
                assert n == p.community_count
                want = aggregate_row_index(und, p.assignment, p.community_count)
                for got, expected in zip(edges, want):
                    assert got.dtype == expected.dtype
                    assert got.tobytes() == expected.tobytes()

    def test_aggregate_matches_lexsort_reference(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(100):
            n = int(rng.integers(1, 50))
            m = int(rng.integers(0, 5 * n))
            # repeated pairs and self-loops, weights whose sums depend on order
            und = UndirectedGraph.from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                                             rng.random(m) * rng.choice([0.1, 1.0, 7.0], m))
            p = Partition(rng.integers(0, int(rng.integers(1, n + 1)), size=n))
            agg = _aggregate(und, p)
            expected = aggregate_lexsort(und, p.assignment, p.community_count)
            for got, want in zip((agg.indptr, agg.indices, agg.weights), expected):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def planted_graph():
    """50 blocks of 200 nodes, 40 arcs out of each node into its own block
    and 500 arcs between blocks, symmetrized: 659,026 entries, far more than
    a row block; and the blocks as a partition."""
    rng = np.random.Generator(np.random.PCG64(53))
    n, size = 10_000, 200
    src = np.repeat(np.arange(n), 40)
    dst = (src // size) * size + rng.integers(0, size, src.shape[0])
    cross = rng.integers(0, n, size=(2, 500))
    src, dst = np.concatenate([src, cross[0]]), np.concatenate([dst, cross[1]])
    g = build_graph(np.column_stack([src, dst, np.zeros_like(src)]), n)
    return symmetrize(g), Partition(np.arange(n) // size)


def traced_peak(f, *args) -> int:
    """Peak bytes that tracemalloc saw allocated while f ran."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """modularity and the aggregation read the entries a row block at a
    time: they allocate node and community arrays and the temporaries of a
    few blocks, and no array as long as the entries, not even a mask."""

    @pytest.fixture(scope="class")
    def planted(self):
        return planted_graph()

    @pytest.mark.parametrize("variant", ["standard", "distinct-pairs"])
    def test_modularity_makes_no_array_of_entry_length(self, planted, variant):
        und, p = planted
        peak = traced_peak(modularity, und, p, variant)
        bound = 16 * und.node_count + 32 * ROW_BLOCK_SIZE
        assert und.indices.shape[0] > bound  # one byte per entry would break it
        assert peak < bound

    def test_aggregate_makes_no_array_of_entry_length(self, planted):
        und, p = planted
        peak = traced_peak(_aggregate, und, p)
        # the aggregated graph, and its from_edges input, hold about as many
        # entries as the 500 arcs between blocks
        bound = 16 * und.node_count + 48 * ROW_BLOCK_SIZE
        assert und.indices.shape[0] > bound
        assert peak < bound


def corpus_graph(name):
    from conftest import DATA
    from zombiescan.ingest import parse_weibo_network

    return symmetrize(parse_weibo_network(f"{DATA}/{name}/weibo_network.txt").to_graph())


@pytest.fixture
def tallies(monkeypatch):
    """The unit-weight tallies of the local moves, one entry per visit that counted."""
    from collections import _count_elements

    import zombiescan.community as community

    counted = []

    def spy(mapping, items):
        counted.append(None)
        return _count_elements(mapping, items)

    monkeypatch.setattr(community, "_count_elements", spy)
    return counted


class TestLocalMoves:
    """The queue-driven local moves reproduce the numpy-scalar queue oracle
    exactly, and on the committed corpora also the full-sweep oracle."""

    def assert_same_as_queue_oracle(self, und, seed, resolution=1.0):
        from random import Random

        from zombiescan.community import _one_level

        rng, oracle_rng = Random(seed), Random(seed)
        raw, visits, moves = _one_level(und, rng, resolution)
        expected, oracle_visits, oracle_moves = one_level_queue_numpy_scalars(
            und, oracle_rng, resolution)
        assert raw.dtype == np.int64 and np.array_equal(raw, expected)
        assert (visits, moves) == (oracle_visits, oracle_moves)
        assert rng.getstate() == oracle_rng.getstate()
        # every node outside its own starting community moved at least once,
        # and the first pass visits every node
        assert moves >= int((raw != np.arange(und.node_count)).sum())
        assert visits >= und.node_count
        return raw, moves, rng.getstate()

    def assert_same_as_full_sweep(self, und, seed):
        from random import Random

        raw, moves, rng_state = self.assert_same_as_queue_oracle(und, seed)
        rng = Random(seed)
        expected, improved = one_level_numpy_scalars(und, rng, 1.0)
        assert np.array_equal(raw, expected)
        assert (moves > 0) == improved
        assert rng.getstate() == rng_state
        return raw

    @pytest.mark.parametrize("name", ["planted_4x50", "zombie_5x500"])
    def test_committed_corpora_and_their_aggregated_level(self, name):
        und = corpus_graph(name)
        for seed in (0, 1):
            raw = self.assert_same_as_full_sweep(und, seed)
        agg = _aggregate(und, Partition(raw))
        # the aggregated level is weighted and carries self-loops
        assert any(self_weight(agg, u) > 0 for u in range(agg.node_count))
        assert (agg.weights != 1.0).any()
        for seed in (0, 1):
            self.assert_same_as_full_sweep(agg, seed)

    def test_random_weighted_graphs_with_self_loops(self):
        rng = np.random.Generator(np.random.PCG64(21))
        for seed in range(20):
            und = random_weighted_graph(rng)
            self.assert_same_as_queue_oracle(und, seed,
                                             resolution=float(rng.choice([0.5, 1.0, 2.0])))

    @pytest.mark.parametrize("resolution", [0.5, 2.0])
    def test_unit_weight_graphs_count_their_tallies(self, tallies, resolution):
        for seed in range(10):
            before = len(tallies)
            self.assert_same_as_queue_oracle(
                symmetrize(random_graph(seed + 200, 30, 0.15)[0]), seed, resolution)
            assert len(tallies) > before
        # in a run only level 0 counts: the aggregated level carries self-loops
        del tallies[:]
        dend = louvain(corpus_graph("planted_4x50"), LouvainConfig(resolution=resolution))
        assert len(tallies) == dend.levels[0].visits

    def test_a_self_loop_takes_the_weighted_tally(self, tallies):
        und = symmetrize(random_graph(7, 30, 0.15)[0])
        rows = np.repeat(np.arange(30), np.diff(und.indptr))
        upper = rows < und.indices
        # the same unit-weight edges plus a unit self-loop at node 0
        looped = UndirectedGraph.from_edges(30, np.r_[rows[upper], 0],
                                            np.r_[und.indices[upper], 0],
                                            np.ones(int(upper.sum()) + 1))
        assert (looped.weights == 1.0).all() and self_weight(looped, 0) == 1.0
        for seed in range(5):
            self.assert_same_as_queue_oracle(looped, seed)
        assert not tallies

    def test_one_weight_other_than_one_takes_the_weighted_tally(self, tallies):
        und = symmetrize(random_graph(8, 30, 0.15)[0])
        rows = np.repeat(np.arange(30), np.diff(und.indptr))
        weights = und.weights.copy()
        u, v = rows[0], und.indices[0]
        weights[((rows == u) & (und.indices == v)) | ((rows == v) & (und.indices == u))] = 1.5
        heavy = UndirectedGraph(und.node_count, und.indptr, und.indices, weights)
        assert np.count_nonzero(heavy.weights != 1.0) == 2  # one edge, in both rows
        for seed in range(5):
            self.assert_same_as_queue_oracle(heavy, seed)
        assert not tallies

    def test_queue_fixed_point_can_leave_a_full_sweep_move(self):
        from random import Random

        from zombiescan.community import _one_level

        # a star 0-{1, 2, 6}, a path 2-3-4 and an isolated node 5
        edges = np.array([(0, 1), (0, 2), (0, 6), (2, 3), (3, 4)])
        und = UndirectedGraph.from_edges(7, edges[:, 0], edges[:, 1], np.ones(5))
        raw = self.assert_same_as_queue_oracle(und, 0)[0]
        assert raw.tolist() == [0, 0, 0, 3, 3, 5, 0]
        # node 2 joins 0 on a tie with {3, 4}; then 1 and 6, which are not its
        # neighbours, join 0 and raise its total without re-queueing 2, so a
        # full sweep still moves 2 to {3, 4}
        assert move_gain(und, raw, 2, 3) > 0
        swept, _ = one_level_numpy_scalars(und, Random(0), 1.0)
        assert swept.tolist() == [0, 0, 3, 3, 3, 5, 0]

    def test_levels_record_sweeps_and_moves(self):
        und = corpus_graph("zombie_5x500")
        dend = louvain(und, LouvainConfig())
        assert dend.levels
        for level in dend.levels:
            assert level.visits >= level.node_count and level.moves >= 1

    def test_a_graph_with_nothing_to_move_takes_one_sweep(self):
        from random import Random

        from zombiescan.community import _one_level

        # two self-loops, no edges between the nodes: no move can gain
        und = UndirectedGraph.from_edges(2, np.array([0, 1]), np.array([0, 1]),
                                         np.array([1.0, 1.0]))
        raw, visits, moves = _one_level(und, Random(0), 1.0)
        assert list(raw) == [0, 1] and (visits, moves) == (2, 0)

    @given(tie_graphs(), st.integers(0, 2 ** 32),
           st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]) | st.floats(0.25, 4.0))
    @settings(max_examples=300, deadline=None)
    def test_unit_graphs_full_of_ties(self, und, seed, resolution):
        # lone neighbours share one tally key; each is scored in a row scan
        assert (und.weights == 1.0).all() and not und.loop_weights.any()
        self.assert_same_as_queue_oracle(und, seed, resolution)

    def test_a_row_that_lists_a_neighbour_twice_counts_it_twice(self, tallies):
        # hand-built: the path 0-1-2 with the edge {0, 1} listed twice in both
        # rows, so 0 and 1 link with 2 and a lone 0 counts 2 for node 1
        und = UndirectedGraph(3, np.array([0, 2, 5, 6]), np.array([1, 1, 0, 0, 2, 1]),
                              np.ones(6))
        assert (und.weights == 1.0).all() and not und.loop_weights.any()
        for seed in range(10):
            for resolution in (0.5, 1.0, 2.0):
                self.assert_same_as_queue_oracle(und, seed, resolution)
        assert tallies


class TestPartition:
    def test_dense_relabeling_by_first_appearance(self):
        p = Partition([5, 5, 2, 9, 2])
        assert list(p.assignment) == [0, 0, 1, 2, 1]
        assert p.community_count == 3

    @pytest.mark.parametrize("assignment", [[0.5, 0.7, 1.9], np.array([0.0, 1.0]),
                                            ["0", "1"]])
    def test_assignment_that_is_not_integer_rejected(self, assignment):
        with pytest.raises(ValidationError, match="values, not integer community ids"):
            Partition(assignment)

    def test_bool_and_empty_assignments_are_taken(self):
        assert Partition(np.array([True, False, True])) == Partition([0, 1, 0])
        assert Partition([]).community_count == 0

    def test_equal_partitions_are_unhashable(self):
        a, b = Partition([0, 1, 0]), Partition([5, 7, 5])
        assert a == b
        with pytest.raises(TypeError):
            hash(a)

    def test_csv_round_trip(self, tmp_path):
        p = Partition([0, 1, 0, 2, 1])
        path = tmp_path / "partition.csv"
        write_partition_csv(p, path)
        assert read_partition_csv(path, 5) == p

    def test_csv_with_uids(self, tmp_path):
        p = Partition([0, 1])
        path = tmp_path / "partition.csv"
        write_partition_csv(p, path, uids=["u100", "u200"])
        assert path.read_text() == "node_id,community_id,uid\n0,0,u100\n1,1,u200\n"
        assert read_partition_csv(path, 2) == p
        with pytest.raises(ValidationError, match="uid list has 1 entries"):
            write_partition_csv(p, tmp_path / "short.csv", uids=["u100"])
        assert not (tmp_path / "short.csv").exists()

    def test_csv_incomplete_coverage_rejected(self, tmp_path):
        path = tmp_path / "partition.csv"
        path.write_text("node_id,community_id\n0,0\n")
        with pytest.raises(ValidationError, match="^no row for node 1 in the partition$"):
            read_partition_csv(path, 2)

    def test_csv_negative_community_ids_read(self, tmp_path):
        path = tmp_path / "partition.csv"
        path.write_text("node_id,community_id\n0,-1\n1,5\n2,-1\n")
        assert read_partition_csv(path, 3) == Partition([0, 1, 0])


def test_self_loop_degree_convention():
    # one edge {0,1} plus a self-loop of weight 2 at node 0
    und = UndirectedGraph.from_edges(2, np.array([0, 0]), np.array([1, 0]),
                                     np.array([1.0, 2.0]))
    assert und.degree_weights[0] == 3.0  # self-loop counts once
    assert und.degree_weights[1] == 1.0
    assert und.total_weight == 2.0
    assert self_weight(und, 0) == 2.0
