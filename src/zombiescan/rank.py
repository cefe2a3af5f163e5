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
2003, "BlockRank"). Per-community sums run over contiguous slices so each
community rounds, and stops, exactly as it would alone.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass

import numpy as np

from .community import Partition
from .errors import ValidationError
from .graph import DirectedGraph
from .textio import (ASCII, csv_columns, float_reprs, int64, int_column, read_text,
                     text_stream)

log = logging.getLogger(__name__)

__all__ = [
    "IOScores",
    "RankConfig",
    "ImportanceVector",
    "io_scores_for",
    "transition_weights",
    "pagerank",
    "rank_all_communities",
    "write_ranks_csv",
    "read_ranks_csv",
]


@dataclass
class IOScores:
    """Per-node credibility values in [0, 1], aligned with node ids."""

    values: np.ndarray
    fallback_count: int = 0  # nodes scored from local degrees for lack of profile data


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

    values are aligned with `members` (parent node ids, sorted) and sum to 1.
    """

    values: np.ndarray
    members: np.ndarray
    iterations: int
    residual: float
    converged: bool


def _io_scores(n: int, sources: np.ndarray, targets: np.ndarray, source: str,
               profiles) -> IOScores:
    """IO scores of nodes 0..n-1, local degrees counted over the given arcs only."""
    if source not in ("local", "profile"):
        raise ValidationError("io source must be 'local' or 'profile'")
    fans = np.bincount(targets, minlength=n).astype(np.float64)
    follows = np.bincount(sources, minlength=n).astype(np.float64)
    fallback = 0
    if source == "profile":
        if profiles is None:
            raise ValidationError("profile io source requires profiles")
        rows = min(n, len(profiles))
        known = np.flatnonzero(~(profiles.followers_missing[:rows]
                                 | profiles.followees_missing[:rows]))
        fans[known], follows[known] = profiles.followers[known], profiles.followees[known]
        fallback = n - known.shape[0]
        if fallback:
            log.warning("%d of %d nodes lack profile counts; used local degrees",
                        fallback, n)
    total = fans + follows
    values = np.divide(fans, total, out=np.zeros(n), where=total > 0)
    return IOScores(values, fallback)


def io_scores_for(g: DirectedGraph, source: str = "local", profiles=None) -> IOScores:
    """IO scores for all nodes of g taken as one community.

    source "local" uses in/out degrees within g; "profile" uses global
    follower/followee counts, falling back to local degrees node by node
    when counts are missing (tallied on the result).
    """
    return _io_scores(g.node_count, g.arc_sources(), g.out_indices, source, profiles)


def _arc_weights(sources: np.ndarray, targets: np.ndarray, n: int, io=None) -> np.ndarray:
    """Walk weight of each arc (arcs grouped by source): an even split without
    io, else io[v] / sum of io over u's followees for arc u->v, falling back
    to an even split when that sum is 0 so no walk weight is lost."""
    out_deg = np.bincount(sources, minlength=n)
    if io is None:
        return 1.0 / out_deg[sources]
    weights = io[targets]
    row_sum = np.bincount(sources, weights=weights, minlength=n)
    even_rows = row_sum == 0
    row_sum_safe = np.where(even_rows, 1.0, row_sum)
    weights = weights / row_sum_safe[sources]
    if even_rows.any():
        weights = np.where(even_rows[sources], 1.0 / out_deg[sources], weights)
    return weights


def transition_weights(g: DirectedGraph, io) -> np.ndarray:
    """Arc weights K aligned with g's out-adjacency; rows of non-dangling nodes sum to 1."""
    io = np.asarray(io.values if isinstance(io, IOScores) else io, dtype=np.float64)
    if io.shape[0] != g.node_count:
        raise ValidationError("io scores must cover every node")
    return _arc_weights(g.arc_sources(), g.out_indices, g.node_count, io)


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
    (source-major, endpoints given as positions) and dangling_counts[c]
    entries of `dangling` (positions without an out-arc, ascending).
    """

    sizes: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    arc_counts: np.ndarray
    dangling: np.ndarray
    dangling_counts: np.ndarray

    @classmethod
    def build(cls, sources, targets, weights, assignment, count):
        """Lay out intra-community arcs, given in CSR order, by community.

        Also returns the node id at each position, ascending per community."""
        n = assignment.shape[0]
        order = np.argsort(assignment, kind="stable")
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        out_deg = np.bincount(sources, minlength=n)
        arcs, _ = _slices(out_deg, order)  # the out-rows of `order`, in turn
        dangling = np.flatnonzero(out_deg[order] == 0)
        return cls(np.bincount(assignment, minlength=count),
                   position[sources[arcs]], position[targets[arcs]], weights[arcs],
                   np.bincount(assignment[sources], minlength=count),
                   dangling, np.bincount(assignment[order[dangling]], minlength=count)), order

    def take(self, keep: np.ndarray) -> tuple["_Blocks", np.ndarray]:
        """The communities at indices `keep`, and the old position of each new one."""
        nodes, shift = _slices(self.sizes, keep)
        arcs, _ = _slices(self.arc_counts, keep)
        arc_shift = np.repeat(shift, self.arc_counts[keep])
        dangling, _ = _slices(self.dangling_counts, keep)
        return _Blocks(self.sizes[keep],
                       self.sources[arcs] - arc_shift, self.targets[arcs] - arc_shift,
                       self.weights[arcs], self.arc_counts[keep],
                       self.dangling[dangling] - np.repeat(shift, self.dangling_counts[keep]),
                       self.dangling_counts[keep]), nodes

    def sweep(self, x: np.ndarray, damping: float) -> tuple[np.ndarray, np.ndarray]:
        """One damped step of every community: the new x and each community's L1 change."""
        inflow = np.bincount(self.targets, weights=self.weights * x[self.sources],
                             minlength=x.shape[0])
        mass = _segment_sums(x[self.dangling], self.dangling_counts)
        new_x = (np.repeat((1.0 - damping) / self.sizes, self.sizes)
                 + damping * (inflow + np.repeat(mass / self.sizes, self.sizes)))
        return new_x, _segment_sums(np.abs(new_x - x), self.sizes)


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


def _rank(sources, targets, weights, assignment, count, cfg) -> list[ImportanceVector]:
    """Rank every community of an assignment whose arcs all stay inside one."""
    blocks, order = _Blocks.build(sources, targets, weights, assignment, count)
    x, iterations, residuals = _iterate(blocks, cfg)
    bounds = np.cumsum(blocks.sizes)[:-1]
    vectors = []
    for values, members, sweeps, residual in zip(np.split(x, bounds), np.split(order, bounds),
                                                 iterations.tolist(), residuals.tolist()):
        converged = residual < cfg.tolerance
        if not converged:
            log.warning("power iteration stopped at %d sweeps with residual %.3g",
                        sweeps, residual)
        vectors.append(ImportanceVector(values, members, sweeps, residual, converged))
    return vectors


def _power_iterate(g: DirectedGraph, arc_weights: np.ndarray, damping: float):
    """Yield (vector, l1_residual) after each sweep of g as one community, from uniform."""
    n = g.node_count
    blocks, _ = _Blocks.build(g.arc_sources(), g.out_indices, arc_weights,
                              np.zeros(n, dtype=np.int64), 1)
    x = np.full(n, 1.0 / n)
    while True:
        x, residual = blocks.sweep(x, damping)
        yield x, float(residual[0])


def pagerank(g: DirectedGraph, cfg: RankConfig | None = None, io=None) -> ImportanceVector:
    """Importance of every node of g taken as one community; values sum to 1.

    Uneven mode requires io scores. Hitting the iteration cap returns the
    last iterate with converged=False; the caller decides what to do.
    """
    cfg = cfg or RankConfig()
    if g.node_count == 0:
        raise ValidationError("cannot rank an empty graph")
    if cfg.mode == "uneven":
        if io is None:
            raise ValidationError("uneven mode requires io scores")
        weights = transition_weights(g, io)
    else:
        weights = _arc_weights(g.arc_sources(), g.out_indices, g.node_count)
    return _rank(g.arc_sources(), g.out_indices, weights,
                 np.zeros(g.node_count, dtype=np.int64), 1, cfg)[0]


def _intra_arcs(g: DirectedGraph, p: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Sources and targets of the arcs inside one community, in CSR order."""
    if p.node_count != g.node_count:
        raise ValidationError(
            f"partition covers {p.node_count} nodes, graph has {g.node_count}")
    sources = g.arc_sources()
    inside = p.assignment[sources] == p.assignment[g.out_indices]
    return sources[inside], g.out_indices[inside]


def rank_all_communities(g: DirectedGraph, p: Partition, cfg: RankConfig | None = None,
                         profiles=None, io_source: str = "local") -> dict[int, ImportanceVector]:
    """Rank every community independently; returns {community id: vector}."""
    cfg = cfg or RankConfig()
    sources, targets = _intra_arcs(g, p)
    io = (_io_scores(g.node_count, sources, targets, io_source, profiles).values
          if cfg.mode == "uneven" else None)
    weights = _arc_weights(sources, targets, g.node_count, io)
    return dict(enumerate(_rank(sources, targets, weights, p.assignment,
                                p.community_count, cfg)))


_RANKS_HEADER = ("node_id", "community_id", "io", "pagerank", "converged")


def write_ranks_csv(destination, g: DirectedGraph, p: Partition,
                    vectors: dict[int, ImportanceVector], profiles=None,
                    io_source: str = "local") -> None:
    """Emit `node_id,community_id,io,pagerank,converged` rows in node order."""
    n = g.node_count
    io_col = _io_scores(n, *_intra_arcs(g, p), io_source, profiles).values
    pr_col = np.zeros(n)
    conv_col = np.ones(n, dtype=bool)
    for vec in vectors.values():
        pr_col[vec.members] = vec.values
        conv_col[vec.members] = vec.converged
    converged = np.array(["false", "true"], dtype=object)[conv_col.astype(np.intp)].tolist()
    rows = zip(range(n), p.assignment.tolist(), float_reprs(io_col), float_reprs(pr_col),
               converged)
    with text_stream(destination, "w") as fh:
        fh.write(",".join(_RANKS_HEADER) + "\n" + "".join(map("%d,%d,%s,%s,%s\n".__mod__, rows)))


def read_ranks_csv(source) -> dict[int, ImportanceVector]:
    """Rebuild per-community vectors from a ranks CSV; rejects non-finite
    scores, repeated nodes and `converged` values other than true/false."""
    text = read_text(source, ASCII)
    vectors = _ranks_columns(text)
    return vectors if vectors is not None else _ranks_rows(text)


def _ranks_columns(text: str) -> dict[int, ImportanceVector] | None:
    """The vectors from one split of the whole text, or None for the row loop."""
    columns = csv_columns(text, _RANKS_HEADER)
    if columns is None:
        return None
    nodes, cids = int_column(columns[0]), int_column(columns[1])
    flags = list(map(_CONVERGED.get, columns[4]))
    if nodes is None or cids is None or None in flags:
        return None
    try:
        values = np.array(list(map(float, columns[3])), dtype=np.float64)
    except ValueError:
        return None
    ordered = np.sort(nodes)
    if not np.isfinite(values).all() or (ordered[1:] == ordered[:-1]).any():
        return None
    vectors: dict[int, ImportanceVector] = {}
    if not nodes.shape[0]:
        return vectors
    # rows by community, then node; communities in order of first appearance
    order = np.lexsort((nodes, cids))
    ids, starts = np.unique(cids[order], return_index=True)
    bounds = np.append(starts, order.shape[0]).tolist()
    first_row = np.minimum.reduceat(order, starts)
    converged = np.logical_and.reduceat(np.array(flags, dtype=bool)[order], starts)
    for k in np.argsort(first_row).tolist():
        rows = order[bounds[k]:bounds[k + 1]]
        vectors[int(ids[k])] = ImportanceVector(values[rows], nodes[rows], 0, 0.0,
                                                bool(converged[k]))
    return vectors


_CONVERGED = {"true": True, "false": False}


def _ranks_rows(text: str) -> dict[int, ImportanceVector]:
    groups: dict[int, list[tuple[int, float, bool]]] = {}
    seen: set[int] = set()
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != list(_RANKS_HEADER):
        raise ValidationError("ranks file must start with "
                              "'node_id,community_id,io,pagerank,converged'")
    for row in reader:
        if not row:
            continue
        try:
            node, cid = int64(row[0]), int(row[1])
            value = float(row[3])
            flag = row[4]
        except (ValueError, IndexError):
            raise ValidationError(f"bad ranks row: {row!r}") from None
        if not math.isfinite(value) or flag not in _CONVERGED:
            raise ValidationError(f"bad ranks row: {row!r}")
        if node in seen:
            raise ValidationError(f"node {node} listed twice in the ranks file")
        seen.add(node)
        groups.setdefault(cid, []).append((node, value, flag == "true"))

    vectors: dict[int, ImportanceVector] = {}
    for cid, entries in groups.items():
        entries.sort()
        members = np.asarray([e[0] for e in entries], dtype=np.int64)
        values = np.asarray([e[1] for e in entries])
        converged = all(e[2] for e in entries)
        vectors[cid] = ImportanceVector(values, members, 0, 0.0, converged)
    return vectors
