"""Per-community importance ranking by damped power iteration.

Accounts inside one community are ranked by a random-walk stationary
weight. In "even" mode a node splits its weight equally over its
followees. In "uneven" mode the split is proportional to each followee's
IO credibility score

    io = fans / (followees + fans)

so that well-followed accounts absorb more weight and accounts that only
follow others absorb almost none. Nodes without outgoing arcs redistribute
their weight uniformly over the community, which keeps every iterate a
probability vector.

Communities never exchange weight, so one sweep over all intra-community
arcs advances every community at once (the local step of Kamvar et al.
2003, "BlockRank"). The arcs keep their CSR order and nodes their ids. A
sweep runs over blocks of whole rows (`graph.row_blocks`, about 8,192 arcs
each): it repeats the block's source weights by their out-degrees and adds
them into the targets with `np.add.at`, which adds each target's inflow in
arc order from 0.0, as one `np.bincount` over every arc would. So it stores
no arc sources and makes no array of arc length; the intra arcs and their
walk weights are found block by block the same way. Every arc into a node
comes from the node's own community, so its inflow adds up in the order it
would for that community alone; the per-community sums run over the nodes
gathered community by community, in id order, so each community rounds,
and stops, exactly as it would alone. They are grouped by node count: the
communities of one count are the rows of one 2-D array (a view when they
are side by side), summed in one step, each row as `np.sum` sums it alone.
A whole graph is one community.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .community import Partition
from .errors import ValidationError, _integral
from .graph import DirectedGraph, row_blocks
from .textio import (ASCII, check_nodes, code_column, float_column, read_bytes, split_csv,
                     write_csv)

log = logging.getLogger(__name__)

__all__ = ["RankConfig", "ImportanceVector", "io_scores_for", "pagerank",
           "rank_all_communities", "write_ranks_csv", "read_ranks_csv"]


@dataclass(frozen=True)
class RankConfig:
    damping: float = 0.85
    tolerance: float = 1e-10
    max_iterations: int = 1000
    mode: str = "uneven"

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValidationError("damping must be in (0, 1]")
        if not 0 < self.tolerance < np.inf:  # nan too
            raise ValidationError("tolerance must be positive and finite")
        if not (_integral(self.max_iterations) and self.max_iterations >= 1):
            raise ValidationError("max_iterations must be an integer of at least 1")
        if self.mode not in ("even", "uneven"):
            raise ValidationError("mode must be 'even' or 'uneven'")


@dataclass
class ImportanceVector:
    """Result of one community's power iteration.

    values are aligned with `members` (parent node ids, sorted) and sum to 1;
    io, if known, holds the members' io scores in the same order. The writer
    and `detect_zombies` take a dict of vectors (`_node_order`) only when
    members is a 1-D integer array, values and io (if set) are 1-D and as
    long, and the members of all the vectors list each node 0..n-1 once.
    """

    values: np.ndarray
    members: np.ndarray
    iterations: int
    residual: float
    converged: bool
    io: np.ndarray | None = None


def _assignment(g: DirectedGraph, p: Partition) -> np.ndarray:
    if p.node_count != g.node_count:
        raise ValidationError(
            f"partition covers {p.node_count} nodes, graph has {g.node_count}")
    return p.assignment


def _intra(g: DirectedGraph, assignment: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Targets of the arcs inside one community, in CSR order as intp, and
    each node's count of them (its intra out-degree)."""
    follows = np.empty(g.node_count, dtype=np.int64)
    # one array for all the arcs, shrunk at the end: a piece per block would
    # come from the malloc heap (each is under the mmap threshold) and leave
    # it grown after the pieces are freed
    kept, count = np.empty(g.edge_count, dtype=np.intp), 0
    for lo, hi, start, end in row_blocks(g.out_indptr):
        targets = g.out_indices[start:end]
        offsets = g.out_indptr[lo:hi + 1] - start
        inside = np.flatnonzero(np.repeat(assignment[lo:hi], np.diff(offsets))
                                == assignment.take(targets))
        kept[count:count + inside.shape[0]] = targets.take(inside)
        count += inside.shape[0]
        follows[lo:hi] = np.diff(inside.searchsorted(offsets))  # intra arcs before each row end
    kept.resize(count, refcheck=False)  # in place; no view of it is left
    return kept, follows


def _io_scores(n: int, targets: np.ndarray, follows: np.ndarray, source: str,
               profiles) -> np.ndarray:
    """IO scores in [0, 1] of nodes 0..n-1, local degrees counted over the
    given arcs only."""
    if source not in ("local", "profile"):
        raise ValidationError("io source must be 'local' or 'profile'")
    fans = np.bincount(targets, minlength=n).astype(np.float64)
    follows = follows.astype(np.float64)
    if source == "profile":
        if profiles is None:
            raise ValidationError("profile io source requires profiles")
        rows = min(n, len(profiles))
        known = np.flatnonzero(~(profiles.followers_missing[:rows]
                                 | profiles.followees_missing[:rows]))
        fans[known], follows[known] = profiles.followers[known], profiles.followees[known]
        fallback = n - known.shape[0]
        if fallback:
            log.warning("%d of %d nodes lack profile counts; used local degrees", fallback, n)
    total = fans + follows
    return np.divide(fans, total, out=np.zeros(n), where=total > 0)


def io_scores_for(g: DirectedGraph, source: str = "local", profiles=None) -> np.ndarray:
    """IO scores for all nodes of g taken as one community.

    source "local" uses in/out degrees within g; "profile" uses global
    follower/followee counts, falling back to local degrees node by node
    when counts are missing (tallied in a warning).
    """
    return _io_scores(g.node_count, g.out_indices, g.out_degrees, source, profiles)


def _row_blocks(degrees: np.ndarray) -> list[tuple[int, int, int, int]]:
    """`row_blocks` of the rows with these out-degrees."""
    return row_blocks(np.concatenate(([0], np.cumsum(degrees))))


def _walk_weights(targets: np.ndarray, degrees: np.ndarray, blocks, io=None) -> np.ndarray:
    """Walk weight of each arc, rows in node order: an even split without io,
    else io[v] / sum of io over u's followees for arc u->v (summed in arc
    order), or an even split where that sum is 0 so no walk weight is lost.
    `blocks` are the rows' `row_blocks`."""
    share = 1.0 / np.maximum(degrees, 1)  # of an even split
    if io is None:
        return np.repeat(share, degrees)
    weights = np.empty(targets.shape[0])
    for lo, hi, start, end in blocks:
        counts, block = degrees[lo:hi], weights[start:end]
        np.take(io, targets[start:end], out=block)
        row_sum = np.bincount(np.repeat(np.arange(hi - lo), counts), block, hi - lo)
        even = row_sum == 0
        block /= np.repeat(np.where(even, 1.0, row_sum), counts)
        if even.any():
            block[np.repeat(even, counts)] = np.repeat(share[lo:hi][even], counts[even])
    return weights


def _segment_sums(a: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each consecutive slice of a, in np.sum's own summation order.

    The slices of one length are summed in one step, as the rows of a 2-D
    array: numpy sums each row as np.sum sums that slice alone. The array is
    a view of a when those slices lie side by side, else a gather. Empty
    slices sum to 0.0."""
    starts = np.cumsum(counts) - counts
    sums = np.zeros(counts.shape[0])
    # bincount, not np.unique: a first np.unique imports numpy.ma
    for length in (np.flatnonzero(np.bincount(counts)[1:]) + 1).tolist():
        which = np.flatnonzero(counts == length)
        first, k = int(starts[which[0]]), which.shape[0]
        # slices of one length start at least `length` apart
        if starts[which[-1]] - first == length * (k - 1):
            rows = a[first:first + length * k].reshape(k, length)
        else:
            rows = a[starts[which, None] + np.arange(length)]
        sums[which] = rows.sum(axis=1)
    return sums


class _Communities:
    """Communities ranked side by side, their nodes numbered 0..n-1.

    Node i belongs to community[i] and owns the next degrees[i] arcs, in
    CSR order; arc targets are node numbers and weights the walk weights.
    `order` lists the nodes community by community, in number order, and
    `dangling` those of them without an out-arc; `blocks` are the rows'
    `row_blocks`, for a sweep.
    """

    def __init__(self, community: np.ndarray, count: int, degrees: np.ndarray,
                 targets: np.ndarray, weights: np.ndarray, blocks):
        self.community, self.degrees = community, degrees
        self.targets, self.weights = targets, weights
        self.sizes = np.bincount(community, minlength=count)
        self.arc_counts = np.bincount(community, degrees, count).astype(np.int64)
        self.order = np.argsort(community, kind="stable")
        self.dangling = self.order[degrees[self.order] == 0]
        self.dangling_counts = np.bincount(community[self.dangling], minlength=count)
        self.blocks = blocks

    def take(self, keep: np.ndarray) -> tuple["_Communities", np.ndarray]:
        """The communities at indices `keep` (ascending), and which nodes stay."""
        kept = np.zeros(self.sizes.shape[0], dtype=bool)
        kept[keep] = True
        nodes = kept[self.community]
        arcs = np.repeat(nodes, self.degrees)
        number = np.cumsum(nodes) - 1  # of each staying node, in the new set
        degrees = self.degrees[nodes]
        return _Communities((np.cumsum(kept) - 1)[self.community[nodes]], keep.shape[0],
                            degrees, number[self.targets[arcs]], self.weights[arcs],
                            _row_blocks(degrees)), nodes

    def sweep(self, x: np.ndarray, damping: float) -> tuple[np.ndarray, np.ndarray]:
        """One damped step of every community: the new x and each community's L1 change."""
        inflow = np.zeros(x.shape[0])
        for lo, hi, start, end in self.blocks:
            flow = np.repeat(x[lo:hi], self.degrees[lo:hi])
            flow *= self.weights[start:end]
            np.add.at(inflow, self.targets[start:end], flow)
        mass = _segment_sums(x[self.dangling], self.dangling_counts)
        new_x = (((1.0 - damping) / self.sizes)[self.community]
                 + damping * (inflow + (mass / self.sizes)[self.community]))
        return new_x, _segment_sums(np.abs(new_x - x)[self.order], self.sizes)


def _whole(g: DirectedGraph, io=None) -> _Communities:
    """g taken as one community, weighted by io or split evenly."""
    if io is not None:
        io = np.asarray(io, dtype=np.float64)
        if io.shape[0] != g.node_count:
            raise ValidationError("io scores must cover every node")
        bad = ~(np.isfinite(io) & (io >= 0.0))
        if bad.any():
            u = int(np.argmax(bad))
            raise ValidationError(f"node {u} has io score {float(io[u])}; "
                                  "it must be finite and non-negative")
    targets, degrees = g.out_indices.astype(np.intp), g.out_degrees
    blocks = row_blocks(g.out_indptr)
    return _Communities(np.zeros(g.node_count, dtype=np.intp), 1, degrees, targets,
                        _walk_weights(targets, degrees, blocks, io), blocks)


def _iterate(work: _Communities, cfg: RankConfig):
    """Sweep from uniform until each community converges or hits the cap.

    Returns x by node and each community's sweep count and last residual.
    The working set drops stopped communities once they hold half its
    nodes and arcs, so a slow community sweeps little else.
    """
    count = work.sizes.shape[0]
    x = 1.0 / work.sizes[work.community]
    iterations = np.zeros(count, dtype=np.int64)
    residuals = np.full(count, np.inf)
    work_x = x
    ids = np.arange(count)  # id of each working community
    where = np.arange(x.shape[0])  # node id of each working node
    live = np.ones(count, dtype=bool)
    while live.any():
        work_x, residual = work.sweep(work_x, cfg.damping)
        iterations[ids[live]] += 1
        residuals[ids[live]] = residual[live]
        done = live & ((residual < cfg.tolerance) | (iterations[ids] >= cfg.max_iterations))
        if not done.any():
            continue
        finished = done[work.community]
        x[where[finished]] = work_x[finished]
        live &= ~done
        size = work.sizes + work.arc_counts
        if live.any() and 2 * size[live].sum() < size.sum():
            keep = np.flatnonzero(live)
            work, nodes = work.take(keep)
            work_x, where, ids = work_x[nodes], where[nodes], ids[keep]
            live = live[keep]
    return x, iterations, residuals


def _rank(work: _Communities, cfg: RankConfig, io=None) -> dict[int, ImportanceVector]:
    """Rank every community, keyed by its index; io by node id, if given, rides along."""
    x, iterations, residuals = _iterate(work, cfg)
    converged = residuals < cfg.tolerance
    for sweeps, residual in zip(iterations[~converged].tolist(),
                                residuals[~converged].tolist()):
        log.warning("power iteration stopped at %d sweeps with residual %.3g", sweeps, residual)
    c = work.community
    return _vectors(c, work.order, x, io, converged[c], iterations[c], residuals[c])


def _vectors(community: np.ndarray, order: np.ndarray, values: np.ndarray, io,
             converged: np.ndarray, iterations: np.ndarray,
             residuals: np.ndarray) -> dict[int, ImportanceVector]:
    """{community id: vector} of node-order columns: node i is in community[i]
    with value values[i], io score io[i] (io may be None) and flag
    converged[i]; iterations[i] and residuals[i] are its community's.
    `order` is the stable argsort of community. The communities come in
    order of their first node, each with its members ascending; one
    converged when each of its nodes did."""
    grouped = community[order]
    new = np.ones(order.shape[0], dtype=bool)
    np.not_equal(grouped[1:], grouped[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    first = order[starts]
    bounds = np.append(starts, order.shape[0]).tolist()
    ids, sweeps = grouped[starts].tolist(), iterations[first].tolist()
    last = residuals[first].tolist()
    done = np.logical_and.reduceat(converged[order], starts).tolist()
    vectors = {}
    for k in np.argsort(first).tolist():
        members = order[bounds[k]:bounds[k + 1]]
        vectors[ids[k]] = ImportanceVector(values[members], members, sweeps[k], last[k],
                                           done[k], None if io is None else io[members])
    return vectors


def pagerank(g: DirectedGraph, cfg: RankConfig | None = None, io=None) -> ImportanceVector:
    """Importance of every node of g taken as one community; values sum to 1.

    Uneven mode requires io scores. Hitting the iteration cap returns the
    last iterate with converged=False; the caller decides what to do.
    """
    cfg = cfg or RankConfig()
    if g.node_count == 0:
        raise ValidationError("cannot rank an empty graph")
    if cfg.mode == "uneven" and io is None:
        raise ValidationError("uneven mode requires io scores")
    return _rank(_whole(g, io if cfg.mode == "uneven" else None), cfg)[0]


def rank_all_communities(g: DirectedGraph, p: Partition, cfg: RankConfig | None = None,
                         profiles=None, io_source: str = "local") -> dict[int, ImportanceVector]:
    """Rank every community independently; returns {community id: vector}.

    Each vector carries its members' io scores, in either mode."""
    cfg = cfg or RankConfig()
    assignment = _assignment(g, p)
    targets, follows = _intra(g, assignment)
    blocks = _row_blocks(follows)  # planned once, for the walk weights and the sweeps
    io = _io_scores(g.node_count, targets, follows, io_source, profiles)
    weights = _walk_weights(targets, follows, blocks, io if cfg.mode == "uneven" else None)
    return _rank(_Communities(assignment, p.community_count, follows, targets, weights, blocks),
                 cfg, io)


_RANKS_HEADER = ("node_id", "community_id", "io", "pagerank", "converged")


def write_ranks_csv(destination, g: DirectedGraph, p: Partition,
                    vectors: dict[int, ImportanceVector], profiles=None,
                    io_source: str = "local") -> None:
    """Emit `node_id,community_id,io,pagerank,converged` rows in node order.

    The vectors must rank each node of g once (`_node_order`), and their
    member sets must be the communities of p (`_check_grouping`), since the
    ranks reader groups the rows by `community_id`. io is what the vectors
    carry; nodes of vectors without it are scored here."""
    n = g.node_count
    assignment = _assignment(g, p)
    community, pr_col, io_col, scored, conv_col = _node_order(vectors, n)
    _check_grouping(list(vectors), community, assignment, p.community_count)
    if not scored.all():
        io_col[~scored] = _io_scores(n, *_intra(g, assignment), io_source,
                                     profiles)[~scored]
    converged = np.array(["false", "true"], dtype=object)[conv_col.astype(np.intp)].tolist()
    write_csv(destination, _RANKS_HEADER, [range(n), assignment, io_col, pr_col, converged])


def _check_grouping(ids: list, community: np.ndarray, assignment: np.ndarray,
                    count: int) -> None:
    """Refuse vectors whose member sets are not the communities of a
    partition: node i is in the vector keyed ids[community[i]] and in
    community assignment[i] of count. One scatter each way names a community
    of each vector and a vector of each community; every node must agree
    with both. A vector without members holds no community."""
    part = np.zeros(len(ids), dtype=np.intp)
    part[community] = assignment
    spread = np.flatnonzero(part[community] != assignment)
    if spread.size:
        i = spread[0]
        raise ValidationError(f"community {ids[community[i]]}: members in communities "
                              f"{part[community[i]]} and {assignment[i]} of the partition")
    vector = np.zeros(count, dtype=np.intp)
    vector[assignment] = community
    shared = np.flatnonzero(vector[assignment] != community)
    if shared.size:
        i = shared[0]
        raise ValidationError(f"communities {ids[community[i]]} and {ids[vector[assignment[i]]]}: "
                              f"members of one community {assignment[i]} of the partition")


def _node_order(vectors: dict[int, ImportanceVector], n: int | None = None):
    """The vectors as node-order columns: each node's community (its index in
    `vectors`), value, io score, whether its vector carries io (io reads 0
    where not), and converged flag.

    Each vector must hold 1-D integer members, and values (and io, if set)
    as long; together the members must list each node 0..n-1 once
    (`textio.check_nodes`), n being their count if not given."""
    for cid, vec in vectors.items():
        members = np.asarray(vec.members)
        if members.ndim != 1 or members.dtype.kind not in "iu":
            raise ValidationError(f"community {cid}: members must be a 1-D integer array, "
                                  f"not {members.dtype} of shape {members.shape}")
        for name, column in (("values", vec.values), ("io", vec.io)):
            if column is not None and np.shape(column) != members.shape:
                raise ValidationError(f"community {cid}: {name} of shape {np.shape(column)} "
                                      f"for {members.shape[0]} members")
    ranked = list(vectors.values())
    sizes = np.array([len(vec.members) for vec in ranked], dtype=np.int64)
    has_io = np.repeat(np.array([vec.io is not None for vec in ranked], dtype=bool), sizes)
    # a leading empty array: the vectors may be none
    nodes = np.concatenate([np.zeros(0, dtype=np.int64)] + [vec.members for vec in ranked],
                           dtype=np.int64, casting="same_kind")
    n = nodes.shape[0] if n is None else n
    check_nodes(nodes, n, "ranks")
    community, values, io = np.empty(n, dtype=np.intp), np.empty(n), np.zeros(n)
    scored, converged = np.zeros(n, dtype=bool), np.empty(n, dtype=bool)
    community[nodes] = np.repeat(np.arange(len(ranked)), sizes)
    values[nodes] = np.concatenate([np.zeros(0)] + [vec.values for vec in ranked])
    io[nodes[has_io]] = np.concatenate(
        [np.zeros(0)] + [vec.io for vec in ranked if vec.io is not None])
    scored[nodes] = has_io
    converged[nodes] = np.repeat(np.array([bool(vec.converged) for vec in ranked], dtype=bool),
                                 sizes)
    return community, values, io, scored, converged


def read_ranks_csv(source) -> dict[int, ImportanceVector]:
    """Rebuild per-community vectors, io included, from a ranks CSV; rejects io
    outside [0, 1], a negative or non-finite score and a bad `converged`.
    The rows, in any order, must list nodes 0..rows-1 once each
    (`textio.check_nodes`)."""
    rows = split_csv(read_bytes(source, ASCII), "ranks", _RANKS_HEADER)
    nodes, bad_nodes = rows.ints(0)
    cids, bad_cids = rows.ints(1)
    io, bad_io = float_column(rows.text(2))
    values, bad_values = float_column(rows.text(3))
    flags = code_column(rows.text(4), _CONVERGED)
    n = len(rows)
    # NaN fails both comparisons
    check_nodes(nodes, n, "ranks",
                (bad_nodes | bad_cids | bad_io | ~((io >= 0) & (io <= 1)) | bad_values
                 | ~np.isfinite(values) | (values < 0) | (flags < 0),
                 lambda i: f"bad ranks row: {rows.row(i)!r}"),
                bad=bad_nodes, check=rows.check)
    row = np.empty(n, dtype=np.intp)  # of each node
    row[nodes] = np.arange(n)
    cids = cids[row]
    return _vectors(cids, np.argsort(cids, kind="stable"), values[row], io[row], flags[row] > 0,
                    np.zeros(n, dtype=np.int64), np.zeros(n))


_CONVERGED = {"true": True, "false": False}
