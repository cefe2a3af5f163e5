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
2003, "BlockRank"). One pass over the out-CSR lays them out: nodes take
positions community by community, and their intra-community out-rows
follow in that order, in CSR order within a row, so a sweep reads source
weights as `np.repeat(x, degrees)` and stores no arc sources. Per-community
sums run over contiguous slices so each community rounds, and stops,
exactly as it would alone. A whole graph is the layout of one community.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .community import Partition
from .errors import ValidationError
from .graph import DirectedGraph
from .textio import (ASCII, code_column, float_column, float_reprs, int_column, read_text,
                     repeats, split_csv, text_stream)

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
        if self.tolerance <= 0:
            raise ValidationError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be at least 1")
        if self.mode not in ("even", "uneven"):
            raise ValidationError("mode must be 'even' or 'uneven'")


@dataclass
class ImportanceVector:
    """Result of one community's power iteration.

    values are aligned with `members` (parent node ids, sorted) and sum to 1;
    io, if known, holds the members' io scores in the same order.
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
    """Targets of the arcs inside one community, in CSR order, and each
    node's count of them (its intra out-degree)."""
    inside = np.repeat(assignment, g.out_degrees) == assignment[g.out_indices]
    before = np.concatenate(([0], np.cumsum(inside)))[g.out_indptr]  # intra arcs before each row
    return g.out_indices[inside], np.diff(before)


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


def _walk_weights(targets: np.ndarray, degrees: np.ndarray, io=None) -> np.ndarray:
    """Walk weight of each laid-out arc: an even split without io, else
    io[v] / sum of io over u's followees for arc u->v (summed in arc order),
    or an even split where that sum is 0 so no walk weight is lost."""
    n = degrees.shape[0]
    share = 1.0 / np.maximum(degrees, 1)  # of an even split
    if io is None:
        return np.repeat(share, degrees)
    weights = io[targets]
    row_sum = np.bincount(np.repeat(np.arange(n), degrees), weights=weights, minlength=n)
    even = row_sum == 0
    weights /= np.repeat(np.where(even, 1.0, row_sum), degrees)
    if even.any():
        weights[np.repeat(even, degrees)] = np.repeat(share[even], degrees[even])
    return weights


def _slices(counts: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the kept consecutive slices of sizes `counts`, concatenated,
    and how far each kept slice moves down."""
    lengths = counts[keep]
    shift = (np.cumsum(counts) - counts)[keep] - (np.cumsum(lengths) - lengths)
    return np.arange(int(lengths.sum())) + np.repeat(shift, lengths), shift


def _segment_sums(a: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each consecutive slice of a, in np.sum's own summation order."""
    ends = np.cumsum(counts).tolist()
    return np.array([a[lo:hi].sum() for lo, hi in zip([0] + ends[:-1], ends)])


@dataclass
class _Blocks:
    """Communities laid out one after another.

    Community c owns the next sizes[c] node positions, arc_counts[c] arcs
    and dangling_counts[c] entries of `dangling` (positions without an
    out-arc, ascending); position i owns the next degrees[i] arcs, whose
    targets are positions.
    """

    sizes: np.ndarray
    degrees: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    arc_counts: np.ndarray
    dangling: np.ndarray
    dangling_counts: np.ndarray

    def take(self, keep: np.ndarray) -> tuple["_Blocks", np.ndarray]:
        """The communities at indices `keep`, and the old position of each new one."""
        nodes, shift = _slices(self.sizes, keep)
        arcs, _ = _slices(self.arc_counts, keep)
        dangling, _ = _slices(self.dangling_counts, keep)
        return _Blocks(self.sizes[keep], self.degrees[nodes],
                       self.targets[arcs] - np.repeat(shift, self.arc_counts[keep]),
                       self.weights[arcs], self.arc_counts[keep],
                       self.dangling[dangling] - np.repeat(shift, self.dangling_counts[keep]),
                       self.dangling_counts[keep]), nodes

    def sweep(self, x: np.ndarray, damping: float) -> tuple[np.ndarray, np.ndarray]:
        """One damped step of every community: the new x and each community's L1 change."""
        inflow = np.bincount(self.targets, weights=self.weights * np.repeat(x, self.degrees),
                             minlength=x.shape[0])
        mass = _segment_sums(x[self.dangling], self.dangling_counts)
        new_x = (np.repeat((1.0 - damping) / self.sizes, self.sizes)
                 + damping * (inflow + np.repeat(mass / self.sizes, self.sizes)))
        return new_x, _segment_sums(np.abs(new_x - x), self.sizes)


def _layout(targets: np.ndarray, follows: np.ndarray, assignment: np.ndarray, count: int,
            io=None) -> tuple[_Blocks, np.ndarray]:
    """Lay out the intra arcs (from `_intra`) by community, weighted by io or
    split evenly; also returns the node id at each position."""
    n = assignment.shape[0]
    order = np.argsort(assignment, kind="stable")
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    arcs, _ = _slices(follows, order)  # the intra out-rows of `order`, in turn
    degrees = follows[order]
    targets = position[targets[arcs]]
    sizes = np.bincount(assignment, minlength=count)
    arc_ends = np.concatenate(([0], np.cumsum(degrees)))[np.cumsum(sizes)]  # per community
    dangling = np.flatnonzero(degrees == 0)
    weights = _walk_weights(targets, degrees, None if io is None else io[order])
    return _Blocks(sizes, degrees, targets, weights, np.diff(arc_ends, prepend=0), dangling,
                   np.bincount(assignment[order[dangling]], minlength=count)), order


def _whole(g: DirectedGraph, io=None) -> tuple[_Blocks, np.ndarray]:
    """g taken as one community: positions are node ids, arcs keep the CSR order."""
    if io is not None:
        io = np.asarray(io, dtype=np.float64)
        if io.shape[0] != g.node_count:
            raise ValidationError("io scores must cover every node")
    return _layout(g.out_indices, g.out_degrees, np.zeros(g.node_count, dtype=np.int64), 1, io)


def _iterate(blocks: _Blocks, cfg: RankConfig):
    """Sweep from uniform until each community converges or hits the cap.

    Returns x by position and each community's sweep count and last
    residual. The working set drops stopped communities once they hold
    half its nodes and arcs, so a slow community sweeps little else.
    """
    x = np.repeat(1.0 / blocks.sizes, blocks.sizes)
    iterations = np.zeros(blocks.sizes.shape[0], dtype=np.int64)
    residuals = np.full(blocks.sizes.shape[0], np.inf)
    work, work_x = blocks, x
    ids = np.arange(blocks.sizes.shape[0])  # id of each working community
    where = np.arange(x.shape[0])  # position of each working node
    live = np.ones(ids.shape[0], dtype=bool)
    while live.any():
        work_x, residual = work.sweep(work_x, cfg.damping)
        iterations[ids[live]] += 1
        residuals[ids[live]] = residual[live]
        done = live & ((residual < cfg.tolerance) | (iterations[ids] >= cfg.max_iterations))
        if not done.any():
            continue
        finished = np.repeat(done, work.sizes)
        x[where[finished]] = work_x[finished]
        live &= ~done
        size = work.sizes + work.arc_counts
        if 2 * size[live].sum() < size.sum():
            keep = np.flatnonzero(live)
            work, nodes = work.take(keep)
            work_x, where, ids = work_x[nodes], where[nodes], ids[keep]
            live = live[keep]
    return x, iterations, residuals


def _rank(blocks: _Blocks, order: np.ndarray, cfg: RankConfig, io=None) -> list[ImportanceVector]:
    """Rank every laid-out community; io by node id, if given, rides along."""
    x, iterations, residuals = _iterate(blocks, cfg)
    bounds = np.cumsum(blocks.sizes)[:-1]
    vectors = []
    for values, members, sweeps, residual in zip(np.split(x, bounds), np.split(order, bounds),
                                                 iterations.tolist(), residuals.tolist()):
        converged = residual < cfg.tolerance
        if not converged:
            log.warning("power iteration stopped at %d sweeps with residual %.3g",
                        sweeps, residual)
        vectors.append(ImportanceVector(values, members, sweeps, residual, converged,
                                        None if io is None else io[members]))
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
    return _rank(*_whole(g, io if cfg.mode == "uneven" else None), cfg)[0]


def rank_all_communities(g: DirectedGraph, p: Partition, cfg: RankConfig | None = None,
                         profiles=None, io_source: str = "local") -> dict[int, ImportanceVector]:
    """Rank every community independently; returns {community id: vector}.

    Each vector carries its members' io scores, in either mode."""
    cfg = cfg or RankConfig()
    assignment = _assignment(g, p)
    targets, follows = _intra(g, assignment)
    io = _io_scores(g.node_count, targets, follows, io_source, profiles)
    blocks, order = _layout(targets, follows, assignment, p.community_count,
                            io if cfg.mode == "uneven" else None)
    return dict(enumerate(_rank(blocks, order, cfg, io)))


_RANKS_HEADER = ("node_id", "community_id", "io", "pagerank", "converged")


def write_ranks_csv(destination, g: DirectedGraph, p: Partition,
                    vectors: dict[int, ImportanceVector], profiles=None,
                    io_source: str = "local") -> None:
    """Emit `node_id,community_id,io,pagerank,converged` rows in node order.

    io is what the vectors carry; nodes of vectors without it are scored here."""
    n = g.node_count
    assignment = _assignment(g, p)
    io_col, pr_col = np.zeros(n), np.zeros(n)
    conv_col, scored = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    for vec in vectors.values():
        pr_col[vec.members], conv_col[vec.members] = vec.values, vec.converged
        if vec.io is not None:
            io_col[vec.members], scored[vec.members] = vec.io, True
    if not scored.all():
        io_col[~scored] = _io_scores(n, *_intra(g, assignment), io_source,
                                     profiles)[~scored]
    converged = np.array(["false", "true"], dtype=object)[conv_col.astype(np.intp)].tolist()
    rows = zip(range(n), assignment.tolist(), float_reprs(io_col), float_reprs(pr_col),
               converged)
    with text_stream(destination, "w") as fh:
        fh.write(",".join(_RANKS_HEADER) + "\n" + "".join(map("%d,%d,%s,%s,%s\n".__mod__, rows)))


def read_ranks_csv(source) -> dict[int, ImportanceVector]:
    """Rebuild per-community vectors, io included, from a ranks CSV; rejects io
    outside [0, 1], a negative or non-finite score, a bad `converged` and
    repeated nodes."""
    rows = split_csv(read_text(source, ASCII), "ranks", _RANKS_HEADER)
    nodes, bad_nodes = int_column(rows.columns[0])
    cids, bad_cids = int_column(rows.columns[1])
    io, bad_io = float_column(rows.columns[2])
    values, bad_values = float_column(rows.columns[3])
    flags = code_column(rows.columns[4], _CONVERGED)
    # NaN fails both comparisons
    rows.check((bad_nodes | bad_cids | bad_io | ~((io >= 0) & (io <= 1)) | bad_values
                | ~np.isfinite(values) | (values < 0) | (flags < 0),
                lambda i: f"bad ranks row: {rows.row(i)!r}"),
               (repeats(nodes), lambda i: f"node {nodes[i]} listed twice in the ranks file"))
    vectors: dict[int, ImportanceVector] = {}
    if not len(rows):
        return vectors
    # rows by community, then node; communities in order of first appearance
    order = np.lexsort((nodes, cids))
    ids, starts = np.unique(cids[order], return_index=True)
    bounds = np.append(starts, order.shape[0]).tolist()
    first_row = np.minimum.reduceat(order, starts)
    converged = np.logical_and.reduceat(flags[order] > 0, starts)
    for k in np.argsort(first_row).tolist():
        members = order[bounds[k]:bounds[k + 1]]
        vectors[int(ids[k])] = ImportanceVector(values[members], nodes[members], 0, 0.0,
                                                bool(converged[k]), io[members])
    return vectors


_CONVERGED = {"true": True, "false": False}
