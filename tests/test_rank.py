import dataclasses
import io
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zombiescan import (Partition, RankConfig, ValidationError, build_graph, cache_load,
                        io_scores_for, pagerank, rank_all_communities)
from zombiescan.cli import main
from zombiescan.community import read_partition_csv
from zombiescan.rank import _whole, read_ranks_csv, write_ranks_csv

from conftest import DATA, profile_table, random_graph
from oracles import io_score, out_row, pagerank_dense, pagerank_sweeps, rank_reference


def whole_graph(arcs, n):
    return build_graph([(u, v, 0) for u, v in arcs], n)


def weights_of(g, io):
    """Arc weights aligned with g's out-adjacency, split by io (evenly for None)."""
    return _whole(g, io)[0].weights


def power_iterate(g, arc_weights, damping):
    """Yield (vector, l1_residual) after each sweep of g as one community, from uniform."""
    blocks, _ = _whole(g)
    blocks.weights = arc_weights  # the layout of one community keeps the CSR order
    x = np.full(g.node_count, 1.0 / g.node_count)
    while True:
        x, residual = blocks.sweep(x, damping)
        yield x, float(residual[0])


def community_arcs(arcs, members):
    """The arcs between members, relabelled to ranks in the member list."""
    local = {u: i for i, u in enumerate(members)}
    return [(local[u], local[v]) for u, v in arcs if u in local and v in local]


class TestIoScore:
    @pytest.mark.parametrize("fans,follows,expected", [
        (100, 0, 1.0),
        (0, 50, 0.0),
        (30, 70, 0.3),
        (0, 0, 0.0),
    ])
    def test_arithmetic(self, fans, follows, expected):
        assert io_score(fans, follows) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            io_score(-1, 0)

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_range(self, fans, follows):
        assert 0.0 <= io_score(fans, follows) <= 1.0


class TestIoScoresFor:
    def test_two_cycle_symmetric(self):
        g = whole_graph([(0, 1), (1, 0)], 2)
        assert list(io_scores_for(g)) == [0.5, 0.5]

    def test_star_hub_is_one_leaves_zero(self):
        g = whole_graph([(i, 0) for i in range(1, 5)], 5)
        scores = io_scores_for(g)
        assert scores[0] == 1.0
        assert list(scores[1:]) == [0.0] * 4

    def test_matches_scalar_recomputation(self):
        g, _ = random_graph(31, 5, 0.5)
        scores = io_scores_for(g)
        for u in range(5):
            fans, follows = g.in_degrees[u], g.out_degrees[u]
            assert scores[u] == io_score(fans, follows)

    def test_profile_source(self, caplog):
        g = whole_graph([(0, 1), (1, 0)], 2)
        profiles = profile_table(2, followers=[30, 100], followees=[70, 0])
        with caplog.at_level(logging.WARNING):
            scores = io_scores_for(g, "profile", profiles)
        assert list(scores) == [0.3, 1.0]
        assert messages(caplog, "zombiescan.rank") == []

    def test_profile_fallback_tallied(self, caplog):
        g = whole_graph([(0, 1), (1, 0)], 2)
        profiles = profile_table(2, followers=[30, None], followees=[70, None])
        with caplog.at_level(logging.WARNING):
            scores = io_scores_for(g, "profile", profiles)
        assert scores[1] == 0.5  # local degrees of the 2-cycle
        assert messages(caplog, "zombiescan.rank") == [
            "1 of 2 nodes lack profile counts; used local degrees"]


class TestTransitionWeights:
    def test_proportional_split(self):
        g = whole_graph([(0, 1), (0, 2)], 3)
        w = weights_of(g, np.array([0.0, 0.6, 0.2]))
        row = dict(zip(out_row(g, 0), w[:2]))
        assert row[1] == pytest.approx(0.75)
        assert row[2] == pytest.approx(0.25)

    def test_zero_denominator_even_fallback(self):
        g = whole_graph([(0, 1), (0, 2)], 3)
        w = weights_of(g, np.array([0.0, 0.0, 0.0]))
        assert list(w[:2]) == [0.5, 0.5]

    def test_single_followee_gets_everything(self):
        g = whole_graph([(0, 1)], 2)
        w = weights_of(g, np.array([0.0, 0.4]))
        assert w[0] == 1.0

    def test_rows_are_stochastic(self):
        g, _ = random_graph(41, 25, 0.2)
        rng = np.random.Generator(np.random.PCG64(1))
        w = weights_of(g, rng.random(25))
        for u in range(25):
            lo, hi = g.out_indptr[u], g.out_indptr[u + 1]
            if hi > lo:
                assert abs(w[lo:hi].sum() - 1.0) < 1e-12


class TestPagerank:
    def test_two_cycle_even_split(self):
        g = whole_graph([(0, 1), (1, 0)], 2)
        vec = pagerank(g, RankConfig(mode="even"))
        assert vec.values == pytest.approx([0.5, 0.5], abs=1e-12)
        assert vec.converged

    def test_single_arc_sink_dominates(self):
        g = whole_graph([(0, 1)], 2)
        vec = pagerank(g, RankConfig(mode="even"))
        assert vec.values[1] > vec.values[0]
        assert vec.values.sum() == pytest.approx(1.0, abs=1e-10)
        oracle = pagerank_dense(2, [(0, 1)], 0.85)
        assert vec.values == pytest.approx(oracle, abs=1e-10)

    def test_uneven_three_node_community_matches_dense_oracle(self):
        arcs = [(0, 1), (0, 2), (1, 0), (2, 0)]
        io = np.array([0.5, 0.8, 0.2])
        g = whole_graph(arcs, 3)
        vec = pagerank(g, RankConfig(mode="uneven", tolerance=1e-12), io)
        oracle = pagerank_dense(3, arcs, 0.85, io)
        assert np.abs(vec.values - oracle).max() < 1e-10

    def test_every_iterate_sums_to_one(self):
        g, arcs = random_graph(51, 12, 0.2)
        weights = weights_of(g, io_scores_for(g))
        for i, (x, _) in enumerate(power_iterate(g, weights, 0.85)):
            assert x.sum() == pytest.approx(1.0, abs=1e-10)
            if i > 20:
                break

    def test_residual_non_increasing(self):
        for seed in (60, 61, 62):
            g, _ = random_graph(seed, 15, 0.15)
            weights = weights_of(g, io_scores_for(g))
            residuals = []
            for _, r in power_iterate(g, weights, 0.85):
                residuals.append(r)
                if len(residuals) >= 40:
                    break
            assert all(b <= a + 1e-12 for a, b in zip(residuals[1:], residuals[2:]))

    def test_even_uneven_equivalence_with_constant_io(self):
        for seed in (70, 71):
            g, _ = random_graph(seed, 14, 0.2)
            even = pagerank(g, RankConfig(mode="even"))
            uneven = pagerank(g, RankConfig(mode="uneven"), np.full(14, 0.7))
            assert np.abs(even.values - uneven.values).max() < 1e-10

    def test_permutation_equivariance(self):
        _, arcs = random_graph(81, 10, 0.25)
        arcs = sorted(set(arcs))
        rng = np.random.Generator(np.random.PCG64(9))
        perm = rng.permutation(10)
        io = rng.random(10)
        base = pagerank(whole_graph(arcs, 10), RankConfig(), io)
        permuted_arcs = [(perm[u], perm[v]) for u, v in arcs]
        permuted = pagerank(whole_graph(permuted_arcs, 10), RankConfig(), io[np.argsort(perm)])
        # node u in the base graph is node perm[u] in the permuted graph
        assert np.abs(base.values - permuted.values[perm]).max() < 1e-12

    def test_uneven_requires_io(self):
        g = whole_graph([(0, 1)], 2)
        with pytest.raises(ValidationError):
            pagerank(g, RankConfig(mode="uneven"))

    def test_nonconvergence_flagged(self):
        # bipartite walk {0} <-> {1, 2} oscillates forever at damping 1
        g = whole_graph([(0, 1), (0, 2), (1, 0), (2, 0)], 3)
        vec = pagerank(g, RankConfig(mode="even", damping=1.0, max_iterations=5,
                                        tolerance=1e-12))
        assert vec.iterations == 5

    def test_dangling_mass_redistributed(self):
        # 1 and 2 have no out-arcs; walk must still sum to 1
        g = whole_graph([(0, 1), (0, 2)], 3)
        vec = pagerank(g, RankConfig(mode="even"))
        assert vec.values.sum() == pytest.approx(1.0, abs=1e-10)
        oracle = pagerank_dense(3, [(0, 1), (0, 2)], 0.85)
        assert vec.values == pytest.approx(oracle, abs=1e-10)


class TestRankAllCommunities:
    def test_singleton_community_is_unit(self, two_cycle):
        vectors = rank_all_communities(two_cycle, Partition.singletons(2))
        assert list(vectors[0].values) == [1.0]
        assert list(vectors[1].values) == [1.0]

    def test_disconnected_two_cycles(self):
        g = build_graph([(0, 1, 0), (1, 0, 0), (2, 3, 0), (3, 2, 0)], 4)
        vectors = rank_all_communities(g, Partition([0, 0, 1, 1]))
        for cid in (0, 1):
            assert vectors[cid].values == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_matches_per_community_dense_oracle(self):
        g, arcs = random_graph(91, 40, 0.12)
        rng = np.random.Generator(np.random.PCG64(3))
        p = Partition(rng.integers(0, 4, size=40))
        vectors = rank_all_communities(g, p, RankConfig(tolerance=1e-12))
        arcset = set(arcs)
        for cid in range(p.community_count):
            members = np.flatnonzero(p.assignment == cid).tolist()
            local_arcs = community_arcs(arcset, members)
            io = io_scores_for(whole_graph(local_arcs, len(members)))
            oracle = pagerank_dense(len(members), local_arcs, 0.85, io)
            assert np.abs(vectors[cid].values - oracle).max() < 1e-8
            assert vectors[cid].values.sum() == pytest.approx(1.0, abs=1e-10)

    def test_block_kernel_equals_ranking_each_community_alone(self):
        rng = np.random.Generator(np.random.PCG64(12))
        local_arcs = [
            [(u, v) for u in range(20) for v in range(20) if u != v and rng.random() < 0.2],
            # only 0-3 follow anyone inside: 12 dangling members
            [(u, v) for u in range(4) for v in range(16) if u != v and rng.random() < 0.7],
            # {0} <-> {1, 2} oscillates and settles slowly; 3 is dangling
            [(0, 1), (0, 2), (1, 0), (2, 0), (1, 3)],
            [],  # singleton
        ]
        sizes = [20, 16, 4, 1]
        n = sum(sizes)
        # community-local -> node id; ids interleave across communities but keep local order
        node = [np.sort(ids) for ids in np.split(rng.permutation(n), np.cumsum(sizes)[:-1])]
        arcs = {(int(node[c][u]), int(node[c][v])) for c, la in enumerate(local_arcs)
                for u, v in la}
        assignment = np.repeat(np.arange(4), sizes)[np.argsort(np.concatenate(node))]
        while len(arcs) < sum(map(len, local_arcs)) + 40:  # arcs across communities
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            if assignment[u] != assignment[v]:
                arcs.add((u, v))
        g = build_graph([(u, v, 0) for u, v in sorted(arcs)], n)
        p = Partition(assignment)
        cfg = RankConfig(max_iterations=60)
        vectors = rank_all_communities(g, p, cfg)

        capped, wide_dangling = [], 0
        for cid in range(p.community_count):
            members = np.flatnonzero(p.assignment == cid)
            local_arcs = community_arcs(arcs, members.tolist())
            alone_graph = whole_graph(local_arcs, len(members))
            io = io_scores_for(alone_graph)
            alone = pagerank(alone_graph, cfg, io)
            reference, sweeps = pagerank_sweeps(len(members), local_arcs, cfg.damping,
                                                io, cfg.tolerance, cfg.max_iterations)
            assert np.array_equal(alone.values, reference) and alone.iterations == sweeps
            assert np.array_equal(vectors[cid].members, members)
            assert np.array_equal(vectors[cid].values, alone.values)
            assert vectors[cid].iterations == alone.iterations
            if alone.iterations == cfg.max_iterations:
                capped.append(cid)
            if (alone_graph.out_degrees == 0).sum() >= 8:
                # here np.sum's pairwise order and a running sum give different bytes
                running, _ = pagerank_sweeps(len(members), local_arcs, cfg.damping, io,
                                             cfg.tolerance, cfg.max_iterations, True)
                assert not np.array_equal(running, reference)
                wide_dangling += 1
        # one community runs on alone after the others stop, from a later position
        assert len(capped) == 1 and capped[0] > 0
        assert wide_dangling == 1
        assert np.bincount(p.assignment).min() == 1


class TestRanksCsv:
    def test_round_trip(self, tmp_path):
        g = build_graph([(0, 1, 0), (1, 0, 0), (2, 3, 0), (3, 2, 0)], 4)
        p = Partition([0, 0, 1, 1])
        vectors = rank_all_communities(g, p)
        path = tmp_path / "ranks.csv"
        write_ranks_csv(path, g, p, vectors)
        loaded = read_ranks_csv(path)
        for cid, vec in vectors.items():
            assert np.array_equal(loaded[cid].members, vec.members)
            assert np.array_equal(loaded[cid].values, vec.values)
            assert loaded[cid].converged == vec.converged
            assert np.array_equal(loaded[cid].io, vec.io)

    def test_committed_ranks_rewrite_byte_for_byte(self, tmp_path):
        # profile io differs from the local-degree io the writer would compute
        run = tmp_path / "run"
        assert main(["pipeline", f"{DATA}/zombie_5x500", "-o", str(run),
                     "--io-source", "profile"]) == 0
        g = cache_load(run / "graph.bin")
        p = read_partition_csv(run / "partition.csv", g.node_count)
        out = tmp_path / "ranks.csv"
        write_ranks_csv(out, g, p, read_ranks_csv(run / "ranks.csv"))
        assert out.read_bytes() == (run / "ranks.csv").read_bytes()

    @pytest.mark.parametrize("rows", [
        ["0,0,0.5,nan,true", "1,0,0.5,0.5,true"],
        ["0,0,0.5,0.5,true", "1,0,0.5,inf,true"],
        ["0,0,0.5,0.5,true", "0,0,0.5,0.5,true"],
        ["0,0,0.5,0.5,true", "1,0,0.5,0.5,yes"],
        ["0,0,banana,1.0,true"],
        ["0,0,1.5,1.0,true"],
        ["0,0,-0.5,1.0,true"],
        ["0,0,nan,1.0,true"],
    ], ids=["nan", "inf", "node-twice", "converged-not-boolean", "io-not-a-number",
            "io-above-one", "io-negative", "io-nan"])
    def test_bad_rows_rejected(self, tmp_path, rows):
        path = tmp_path / "ranks.csv"
        path.write_text("\n".join(["node_id,community_id,io,pagerank,converged", *rows]) + "\n")
        with pytest.raises(ValidationError):
            read_ranks_csv(path)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def messages(caplog, name):
    return [r.getMessage() for r in caplog.records if r.name == name]


def assert_ranks_like_reference(caplog, g, p, cfg, profiles, source):
    """rank_all_communities equals the pre-layout path bit for bit, warnings
    included; returns the reference's io and compaction count."""
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        vectors = rank_all_communities(g, p, cfg, profiles, source)
        expected, io, takes = rank_reference(g, p.assignment, p.community_count, cfg,
                                             profiles, source)
    assert messages(caplog, "zombiescan.rank") == messages(caplog, "oracles.rank")
    assert sorted(vectors) == sorted(expected)
    for cid, (values, members, sweeps, residual, converged) in expected.items():
        vec = vectors[cid]
        assert bits(vec.values) == bits(values)
        assert vec.members.tolist() == members.tolist()
        assert (vec.iterations, vec.residual.hex(), vec.converged) == \
            (sweeps, residual.hex(), converged)
        assert bits(vec.io) == bits(io[members])
    return io, takes


@st.composite
def ranking_cases(draw):
    n = draw(st.integers(1, 14))
    node = st.integers(0, n - 1)
    g = build_graph(draw(st.lists(st.tuples(node, node, st.just(0)), max_size=45)), n)
    p = Partition(np.asarray(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))))
    counts = st.none() | st.integers(0, 4)
    rows = draw(st.integers(0, n))  # nodes past the profile table fall back too
    profiles = profile_table(rows, followers=[draw(counts) for _ in range(rows)],
                             followees=[draw(counts) for _ in range(rows)])
    cfg = RankConfig(mode=draw(st.sampled_from(["even", "uneven"])),
                     max_iterations=draw(st.sampled_from([1, 2, 3, 6, 1000])))
    return g, p, cfg, profiles, draw(st.sampled_from(["local", "profile"]))


class TestLayoutAgainstReference:
    @given(ranking_cases())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_rank_all_communities_is_bit_exact(self, caplog, case):
        assert_ranks_like_reference(caplog, *case)

    def test_cases_the_property_must_reach(self, caplog):
        # A: 12 nodes, rows of 8+ arcs (a pairwise sum would round them otherwise),
        # capped; B: a singleton; C: a 100-node cycle, settled after one sweep;
        # D: 6 nodes without arcs; E: e follows e+1 and e+2, whose profiles
        # give io 0, and e+3 to e+5 follow no one
        rng = np.random.Generator(np.random.PCG64(5))
        arcs = [(u, v) for u in range(12) for v in range(12) if u != v and rng.random() < 0.9]
        arcs += [(13 + i, 13 + (i + 1) % 100) for i in range(100)]
        e = 119
        arcs += [(e, e + 1), (e, e + 2), (e + 1, e + 3), (e + 2, e), (3, e), (e, 13)]
        n = 125
        p = Partition(np.repeat([0, 1, 2, 3, 4], [12, 1, 100, 6, 6]))
        g = whole_graph(arcs, n)
        followers = [None] * n
        followees = [None] * n
        for u in (e + 1, e + 2):
            followers[u], followees[u] = 0, 7
        profiles = profile_table(n, followers=followers, followees=followees)
        for mode in ("even", "uneven"):
            for source in ("local", "profile"):
                cfg = RankConfig(mode=mode, max_iterations=4)
                io, takes = assert_ranks_like_reference(caplog, g, p, cfg, profiles, source)
                assert takes >= 1  # the settled cycle leaves the working set
                assert "power iteration stopped at 4 sweeps" in caplog.text
                if source == "profile":
                    assert io[e + 1] == io[e + 2] == 0.0  # e's followees: the even split
                    assert "123 of 125 nodes lack profile counts" in caplog.text
        assert g.out_degrees[:12].min() >= 8
        singleton = rank_all_communities(g, p)[1]
        assert singleton.values.tolist() == [1.0] and singleton.io.tolist() == [0.0]


class TestRanksWriterIo:
    @given(ranking_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_with_or_without_io_on_the_vectors(self, case, data):
        g, p, cfg, profiles, source = case
        vectors = rank_all_communities(g, p, cfg, profiles, source)
        stripped = {c: dataclasses.replace(v, io=None) if data.draw(st.booleans()) else v
                    for c, v in vectors.items()}
        if data.draw(st.booleans()):  # a community no vector covers reads pagerank 0, true
            cid = data.draw(st.sampled_from(sorted(vectors)))
            del stripped[cid]
            vectors = {**vectors, cid: dataclasses.replace(
                vectors[cid], values=np.zeros(len(vectors[cid].members)), converged=True)}
        texts = []
        for given_vectors in (vectors, stripped):
            buf = io.StringIO()
            write_ranks_csv(buf, g, p, given_vectors, profiles, source)
            texts.append(buf.getvalue())
        assert texts[0] == texts[1]
