"""Independent reference implementations used to check the library.

Everything here works on dense matrices with explicit loops or plain
formulas, deliberately sharing no code with the package under test beyond
its error and result types and `text_stream`, which opens a source.
"""

from __future__ import annotations

import csv
import io
import logging
import math

import numpy as np

from zombiescan import ParseError, ValidationError  # the error types the package raises
from zombiescan.ingest import RawNetwork  # the result type, no logic
from zombiescan.textio import text_stream  # opens a path or stream, no parsing


def dense_adjacency(und) -> np.ndarray:
    """Symmetric weight matrix from an UndirectedGraph's row entries."""
    n = und.node_count
    a = np.zeros((n, n))
    for u in range(n):
        ids, w = und.neighbors(u)
        for v, wv in zip(ids, w):
            if v == u:
                a[u, u] = wv
            else:
                a[u, int(v)] = wv
    return a


def modularity_dense(a: np.ndarray, labels, include_diagonal: bool) -> float:
    """Double-loop modularity over ordered same-community pairs."""
    labels = np.asarray(labels)
    n = a.shape[0]
    k = a.sum(axis=1)
    two_m = a.sum()
    q = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] != labels[j]:
                continue
            if i == j and not include_diagonal:
                continue
            q += a[i, j] - k[i] * k[j] / two_m
    return q / two_m


def modularity_row_index(g, labels, variant: str) -> float:
    """Modularity from an int64 row index of every adjacency entry, summing
    the same entries in the same order as the package, so the bits agree."""
    comm = np.asarray(labels, dtype=np.int64)
    count = int(comm.max()) + 1
    two_m = 2.0 * g.total_weight
    k = g.degree_weights
    rows = np.repeat(np.arange(g.node_count), np.diff(g.indptr))
    cols = g.indices
    same = comm[rows] == comm[cols]
    intra = np.bincount(comm[rows[same]], weights=g.weights[same], minlength=count)
    tot = np.bincount(comm, weights=k, minlength=count)
    if variant == "standard":
        return float(np.sum(intra / two_m - (tot / two_m) ** 2))
    loops = same & (rows == cols)
    diag = np.bincount(comm[rows[loops]], weights=g.weights[loops], minlength=count)
    sq = np.bincount(comm, weights=k * k, minlength=count)
    return float(np.sum((intra - diag) / two_m - (tot * tot - sq) / (two_m * two_m)))


def modularity_dense_fast(a: np.ndarray, labels) -> float:
    """Vectorized from-scratch modularity (diagonal included), for bulk checks."""
    labels = np.asarray(labels)
    k = a.sum(axis=1)
    two_m = a.sum()
    same = labels[:, None] == labels[None, :]
    return float((a[same].sum() - np.outer(k, k)[same].sum() / two_m) / two_m)


def pagerank_dense(n: int, arcs: list[tuple[int, int]], damping: float,
                   io: np.ndarray | None = None, tol: float = 1e-14,
                   max_iters: int = 100000) -> np.ndarray:
    """Power iteration on an explicit transition matrix.

    io=None splits each node's weight evenly over its out-arcs; otherwise
    proportional to the targets' io values with an even fallback when the
    row of io values sums to zero. Dangling weight spreads uniformly.
    """
    w = np.zeros((n, n))
    out: dict[int, list[int]] = {}
    for u, v in arcs:
        out.setdefault(u, []).append(v)
    for u, targets in out.items():
        if io is None:
            for v in targets:
                w[u, v] = 1.0 / len(targets)
        else:
            denom = sum(io[v] for v in targets)
            if denom == 0:
                for v in targets:
                    w[u, v] = 1.0 / len(targets)
            else:
                for v in targets:
                    w[u, v] = io[v] / denom
    dangling = [u for u in range(n) if u not in out]
    x = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        mass = sum(x[u] for u in dangling)
        new_x = (1.0 - damping) / n + damping * (w.T @ x + mass / n)
        if np.abs(new_x - x).sum() < tol:
            return new_x
        x = new_x
    return x


def pagerank_sweeps(n: int, arcs: list[tuple[int, int]], damping: float, io: np.ndarray,
                    tol: float, max_iters: int,
                    running_sums: bool = False) -> tuple[np.ndarray, int]:
    """Sparse power iteration of one community, with the ranking's rounding.

    Weights are io[v] over the row's io sum (an even split when that sum
    is 0), scattered with bincount in (source, target) order; the dangling
    mass and the L1 residual are np.sum over the whole community, or
    left-to-right running sums with running_sums. Returns the last iterate
    and the number of sweeps.
    """
    total = (lambda a: a.cumsum()[-1] if a.size else 0.0) if running_sums else np.sum
    arcs = sorted(arcs)
    src = np.array([u for u, _ in arcs], dtype=np.int64)
    dst = np.array([v for _, v in arcs], dtype=np.int64)
    deg = np.bincount(src, minlength=n)
    row = np.bincount(src, weights=io[dst], minlength=n)
    w = np.where(row[src] == 0, 1.0 / deg[src], io[dst] / np.where(row == 0, 1.0, row)[src])
    dangling = np.flatnonzero(deg == 0)
    x = np.full(n, 1.0 / n)
    for sweeps in range(1, max_iters + 1):
        inflow = np.bincount(dst, weights=w * x[src], minlength=n)
        new_x = (1.0 - damping) / n + damping * (inflow + total(x[dangling]) / n)
        residual = total(np.abs(new_x - x))
        x = new_x
        if residual < tol:
            break
    return x, sweeps


def rand_index(a, b) -> float:
    """Fraction of node pairs on which two labelings agree (pairwise agreement)."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[0]
    pairs = n * (n - 1) // 2

    def same_pairs(labels):
        counts = np.unique(labels, return_counts=True)[1]
        return (counts * (counts - 1) // 2).sum()

    joint = {}
    for x, y in zip(a, b):
        joint[(int(x), int(y))] = joint.get((int(x), int(y)), 0) + 1
    s11 = sum(c * (c - 1) // 2 for c in joint.values())
    sa = same_pairs(a)
    sb = same_pairs(b)
    agreements = pairs + 2 * s11 - sa - sb
    return agreements / pairs


def adjusted_rand_index(a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[0]
    joint: dict[tuple[int, int], int] = {}
    for x, y in zip(a, b):
        joint[(int(x), int(y))] = joint.get((int(x), int(y)), 0) + 1

    def comb2(c):
        return c * (c - 1) // 2

    sum_ij = sum(comb2(c) for c in joint.values())
    sum_a = sum(comb2(c) for c in np.unique(a, return_counts=True)[1])
    sum_b = sum(comb2(c) for c in np.unique(b, return_counts=True)[1])
    total = comb2(n)
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


def random_digraph_arcs(rng: np.random.Generator, n: int,
                        p: float) -> list[tuple[int, int]]:
    """Simple directed Bernoulli graph as an arc list (no self-loops)."""
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                arcs.append((u, v))
    return arcs


# ---- scalar and per-entry readings of the package's containers ---------------


def io_score(fan_num: int, follow_num: int) -> float:
    """Credibility ratio fans / (followees + fans); 0 when there is no evidence."""
    if fan_num < 0 or follow_num < 0:
        raise ValidationError("degree counts must be non-negative")
    total = fan_num + follow_num
    return fan_num / total if total else 0.0


def out_row(g, u: int) -> np.ndarray:
    """Sorted followees of u: u's slice of a DirectedGraph's out-CSR arrays."""
    return g.out_indices[g.out_indptr[u]:g.out_indptr[u + 1]]


def is_reciprocal(g, u: int, v: int) -> bool:
    """True when a DirectedGraph holds both u->v and v->u."""
    return v in out_row(g, u).tolist() and u in out_row(g, v).tolist()


def arcs_with_flags(g) -> list[tuple[int, int, int]]:
    """(source, target, reciprocal flag) for every arc, source-major."""
    return [(u, int(v), int(is_reciprocal(g, u, int(v))))
            for u in range(g.node_count) for v in out_row(g, u)]


def self_weight(und, u: int) -> float:
    """Weight of u's self-loop in an UndirectedGraph row, 0 when absent."""
    ids, w = und.neighbors(u)
    return sum(float(wv) for v, wv in zip(ids, w) if v == u)


def transposed(cm):
    """A confusion matrix read with truth and prediction axes swapped."""
    return type(cm)(tp=cm.tp, fn=cm.fp, fp=cm.fn, tn=cm.tn)


def flattened(dendrogram) -> np.ndarray:
    """Compose a Louvain run's per-level assignments onto the original nodes."""
    labels = np.arange(dendrogram.partition.node_count)
    for level in dendrogram.levels:
        labels = level.assignment[labels]
    return labels


def row_index_weights(und) -> tuple[np.ndarray, np.ndarray]:
    """Weighted degree and self-loop weight of each node of an undirected
    graph, from a row index as long as its entries: each row summed in entry
    order by one bincount."""
    n = und.node_count
    rows = np.repeat(np.arange(n), np.diff(und.indptr))
    degrees = np.bincount(rows, und.weights, minlength=n).astype(np.float64)
    loops = np.zeros(n)
    loop = rows == und.indices
    loops[rows[loop]] = und.weights[loop]
    return degrees, loops


# ---- the lexsort CSR builds and the numpy-scalar local moves -----------------
# The builds and the full-sweep local moves are kept as they were before the
# keyed sorts, the list-based loop, the node queue and the bincount
# aggregation replaced them. The package reproduces the builds and the
# queue oracle array for array; the full sweep is the older contract, which
# the queue meets on the committed corpora.


def dedup_pairs_lexsort(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique (src, dst) pairs sorted by (src, dst) with a two-key lexsort."""
    if src.shape[0] == 0:
        return src, dst
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    keep = np.ones(src.shape[0], dtype=bool)
    keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    return src[keep], dst[keep]


def _index_dtype(node_count: int) -> np.dtype:
    return np.dtype(np.int32) if node_count <= np.iinfo(np.int32).max else np.dtype(np.int64)


def csr_from_arcs_lexsort(sources: np.ndarray, targets: np.ndarray, node_count: int):
    """(indptr, indices) of arcs sorted by (source, target) with a lexsort."""
    order = np.lexsort((targets, sources))
    src = sources[order]
    dst = targets[order]
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])
    return indptr, dst.astype(_index_dtype(node_count), copy=False)


def build_graph_lexsort(triples: np.ndarray, node_count: int):
    """(out_indptr, out_indices, in_indptr, in_indices, self-loops, duplicates)."""
    src, dst, flag = triples[:, 0], triples[:, 1], triples[:, 2]
    loops = src == dst
    src, dst, flag = src[~loops], dst[~loops], flag[~loops]
    explicit = dedup_pairs_lexsort(src, dst)
    rec = flag == 1
    all_src, all_dst = dedup_pairs_lexsort(np.concatenate([explicit[0], dst[rec]]),
                                           np.concatenate([explicit[1], src[rec]]))
    out_indptr, out_indices = csr_from_arcs_lexsort(all_src, all_dst, node_count)
    sources = np.repeat(np.arange(node_count, dtype=_index_dtype(node_count)),
                        np.diff(out_indptr))
    in_indptr, in_indices = csr_from_arcs_lexsort(out_indices.astype(np.int64),
                                                  sources.astype(np.int64), node_count)
    return (out_indptr, out_indices, in_indptr, in_indices, int(loops.sum()),
            int(src.shape[0] - explicit[0].shape[0]))


def from_edges_lexsort(node_count: int, u, v, w):
    """(indptr, indices, weights) of an undirected graph; parallel edges summed."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    if lo.shape[0]:
        order = np.lexsort((hi, lo))
        lo, hi, w = lo[order], hi[order], w[order]
        first = np.ones(lo.shape[0], dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        group = np.cumsum(first) - 1
        wsum = np.bincount(group, weights=w)
        lo, hi = lo[first], hi[first]
    else:
        wsum = w
    diag = lo == hi
    rows = np.concatenate([lo[~diag], hi[~diag], lo[diag]])
    cols = np.concatenate([hi[~diag], lo[~diag], lo[diag]])
    vals = np.concatenate([wsum[~diag], wsum[~diag], wsum[diag]])
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=node_count), out=indptr[1:])
    return indptr, cols.astype(_index_dtype(node_count)), vals


def aggregate_lexsort(und, assignment: np.ndarray, community_count: int):
    """(indptr, indices, weights) of one node per community, every entry sorted.

    Each edge is taken once; an intra-community edge counts twice on the
    community's self-loop (both ordered pairs), a self-loop once.
    """
    rows = np.repeat(np.arange(und.node_count), np.diff(und.indptr))
    cols = und.indices.astype(np.int64)
    keep = rows <= cols
    rows, cols, w = rows[keep], cols[keep], und.weights[keep]
    cu, cv = assignment[rows], assignment[cols]
    w = np.where((cu == cv) & (rows != cols), 2.0 * w, w)
    return from_edges_lexsort(community_count, cu, cv, w)


def aggregate_row_index(und, assignment: np.ndarray, community_count: int):
    """The (u, v, w) edges that Louvain's aggregation hands to `from_edges`,
    from an int64 row index as long as the entries: the inter-community
    edges in row order, then one self-loop per community that holds an
    intra-community entry, its weight one bincount over those entries in row
    order, so the bits agree with the package's block-by-block sums."""
    rows = np.repeat(np.arange(und.node_count), np.diff(und.indptr))
    cols = und.indices
    keep = rows <= cols
    rows, cols, w = rows[keep], cols[keep], und.weights[keep]
    cu, cv = assignment[rows], assignment[cols]
    intra = cu == cv
    w = np.where(intra & (rows != cols), 2.0 * w, w)
    loops = np.flatnonzero(np.bincount(cu[intra], minlength=community_count))
    loop_sum = np.bincount(cu[intra], weights=w[intra], minlength=community_count)
    inter = ~intra
    return (np.concatenate([cu[inter], loops]), np.concatenate([cv[inter], loops]),
            np.concatenate([w[inter], loop_sum[loops]]))


def symmetrize_lexsort(g):
    """(indptr, indices, weights) of a DirectedGraph's weight-1 undirected view."""
    src = np.repeat(np.arange(g.node_count), np.diff(g.out_indptr)).astype(np.int64)
    dst = g.out_indices.astype(np.int64)
    lo, hi = dedup_pairs_lexsort(np.minimum(src, dst), np.maximum(src, dst))
    return from_edges_lexsort(g.node_count, lo, hi, np.ones(lo.shape[0]))


def one_level_numpy_scalars(g, rng, resolution: float) -> tuple[np.ndarray, bool]:
    """Greedy local moves in full sweeps, reading numpy arrays element by element.

    Sweeps in the shuffled order until one moves nothing. Returns the
    assignment and whether any move was accepted; consumes the same draws
    from `rng` as the package's local moves.
    """
    n = g.node_count
    m = g.total_weight
    inv_m = 1.0 / m
    inv_2mm = resolution / (2.0 * m * m)
    k = g.degree_weights
    node_comm = np.arange(n)
    comm_tot = k.copy()

    order = list(range(n))
    rng.shuffle(order)
    improved = False

    indptr, indices, weights = g.indptr, g.indices, g.weights
    while True:
        moved = False
        for u in order:
            cu = int(node_comm[u])
            lo, hi = indptr[u], indptr[u + 1]
            nbrs = indices[lo:hi]
            wts = weights[lo:hi]
            links: dict[int, float] = {cu: 0.0}
            for v, w in zip(nbrs, wts):
                if v != u:
                    c = int(node_comm[v])
                    links[c] = links.get(c, 0.0) + float(w)

            ku = k[u]
            comm_tot[cu] -= ku
            best_c = cu
            best_gain = links[cu] * inv_m - comm_tot[cu] * ku * inv_2mm
            stay_gain = best_gain
            for c, kin in links.items():
                if c == cu:
                    continue
                gain = kin * inv_m - comm_tot[c] * ku * inv_2mm
                if gain > best_gain or (gain == best_gain and best_c != cu and c < best_c):
                    best_gain = gain
                    best_c = c
            if best_c != cu and best_gain > stay_gain:
                node_comm[u] = best_c
                moved = True
                improved = True
            comm_tot[node_comm[u]] += ku
        if not moved:
            break
    return node_comm, improved


def one_level_queue_numpy_scalars(g, rng, resolution: float) -> tuple[np.ndarray, int, int]:
    """Queue-driven local moves reading numpy arrays element by element.

    Nodes are visited from a FIFO list seeded with the shuffled order; a
    node that moves appends each neighbour that is not waiting in the list
    and not in the node's new community. Returns the assignment, the number
    of visits and the number of moves; consumes the same draws from `rng`
    as the package's local moves.
    """
    n = g.node_count
    m = g.total_weight
    inv_m = 1.0 / m
    inv_2mm = resolution / (2.0 * m * m)
    k = g.degree_weights
    node_comm = np.arange(n)
    comm_tot = k.copy()

    order = list(range(n))
    rng.shuffle(order)
    waiting = np.ones(n, dtype=bool)
    moves = 0

    indptr, indices, weights = g.indptr, g.indices, g.weights
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        waiting[u] = False
        cu = int(node_comm[u])
        nbrs = indices[indptr[u]:indptr[u + 1]]
        wts = weights[indptr[u]:indptr[u + 1]]
        links: dict[int, float] = {cu: 0.0}
        for v, w in zip(nbrs, wts):
            if v != u:
                c = int(node_comm[v])
                links[c] = links.get(c, 0.0) + float(w)

        ku = k[u]
        comm_tot[cu] -= ku
        best_c = cu
        best_gain = links[cu] * inv_m - comm_tot[cu] * ku * inv_2mm
        stay_gain = best_gain
        for c, kin in links.items():
            if c == cu:
                continue
            gain = kin * inv_m - comm_tot[c] * ku * inv_2mm
            if gain > best_gain or (gain == best_gain and best_c != cu and c < best_c):
                best_gain = gain
                best_c = c
        if best_c != cu and best_gain > stay_gain:
            node_comm[u] = best_c
            moves += 1
            for v in nbrs:
                if not waiting[v] and node_comm[v] != best_c:
                    waiting[v] = True
                    order.append(int(v))
        comm_tot[node_comm[u]] += ku
    return node_comm, head, moves


# ---- the ranking path before the position layout -----------------------------
# Kept as it was before one layout pass replaced it: the intra arcs are found
# in CSR order through arc_sources(), io and the walk weights are computed
# over them and then gathered into community order, and every sweep gathers
# x[sources]. The package must reproduce it bit for bit.

rank_log = logging.getLogger("oracles.rank")


def _arc_sources(g) -> np.ndarray:
    return np.repeat(np.arange(g.node_count, dtype=g.out_indices.dtype), np.diff(g.out_indptr))


def intra_arcs_csr(g, assignment) -> tuple[np.ndarray, np.ndarray]:
    """Sources and targets of the arcs inside one community, in CSR order."""
    sources = _arc_sources(g)
    inside = assignment[sources] == assignment[g.out_indices]
    return sources[inside], g.out_indices[inside]


def io_scores_csr(n: int, sources, targets, source: str, profiles) -> np.ndarray:
    """IO of nodes 0..n-1 over the given arcs, or from profile counts where known."""
    fans = np.bincount(targets, minlength=n).astype(np.float64)
    follows = np.bincount(sources, minlength=n).astype(np.float64)
    if source == "profile":
        rows = min(n, len(profiles))
        known = np.flatnonzero(~(profiles.followers_missing[:rows]
                                 | profiles.followees_missing[:rows]))
        fans[known], follows[known] = profiles.followers[known], profiles.followees[known]
        if n - known.shape[0]:
            rank_log.warning("%d of %d nodes lack profile counts; used local degrees",
                             n - known.shape[0], n)
    total = fans + follows
    return np.divide(fans, total, out=np.zeros(n), where=total > 0)


def io_reference(g, assignment, source: str = "local", profiles=None) -> np.ndarray:
    """The io column of a ranks file: scores over the arcs inside communities."""
    return io_scores_csr(g.node_count, *intra_arcs_csr(g, np.asarray(assignment)), source,
                         profiles)


def _arc_weights_csr(sources, targets, n: int, io=None) -> np.ndarray:
    out_deg = np.bincount(sources, minlength=n)
    if io is None:
        return 1.0 / out_deg[sources]
    weights = io[targets]
    row_sum = np.bincount(sources, weights=weights, minlength=n)
    even_rows = row_sum == 0
    weights = weights / np.where(even_rows, 1.0, row_sum)[sources]
    if even_rows.any():
        weights = np.where(even_rows[sources], 1.0 / out_deg[sources], weights)
    return weights


def _slices(counts, keep):
    lengths = counts[keep]
    shift = (np.cumsum(counts) - counts)[keep] - (np.cumsum(lengths) - lengths)
    return np.arange(int(lengths.sum())) + np.repeat(shift, lengths), shift


def _segment_sums(a, counts):
    ends = np.cumsum(counts).tolist()
    return np.array([a[lo:hi].sum() for lo, hi in zip([0] + ends[:-1], ends)])


class _SourceBlocks:
    """Communities one after another, each arc holding its source position."""

    def __init__(self, sizes, sources, targets, weights, arc_counts, dangling,
                 dangling_counts):
        self.sizes, self.sources, self.targets, self.weights = sizes, sources, targets, weights
        self.arc_counts, self.dangling, self.dangling_counts = (arc_counts, dangling,
                                                                dangling_counts)

    @classmethod
    def build(cls, sources, targets, weights, assignment, count):
        n = assignment.shape[0]
        order = np.argsort(assignment, kind="stable")
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        out_deg = np.bincount(sources, minlength=n)
        arcs, _ = _slices(out_deg, order)
        dangling = np.flatnonzero(out_deg[order] == 0)
        return cls(np.bincount(assignment, minlength=count),
                   position[sources[arcs]], position[targets[arcs]], weights[arcs],
                   np.bincount(assignment[sources], minlength=count),
                   dangling, np.bincount(assignment[order[dangling]], minlength=count)), order

    def take(self, keep):
        nodes, shift = _slices(self.sizes, keep)
        arcs, _ = _slices(self.arc_counts, keep)
        arc_shift = np.repeat(shift, self.arc_counts[keep])
        dangling, _ = _slices(self.dangling_counts, keep)
        return _SourceBlocks(self.sizes[keep], self.sources[arcs] - arc_shift,
                             self.targets[arcs] - arc_shift, self.weights[arcs],
                             self.arc_counts[keep],
                             self.dangling[dangling]
                             - np.repeat(shift, self.dangling_counts[keep]),
                             self.dangling_counts[keep]), nodes

    def sweep(self, x, damping):
        inflow = np.bincount(self.targets, weights=self.weights * x[self.sources],
                             minlength=x.shape[0])
        mass = _segment_sums(x[self.dangling], self.dangling_counts)
        new_x = (np.repeat((1.0 - damping) / self.sizes, self.sizes)
                 + damping * (inflow + np.repeat(mass / self.sizes, self.sizes)))
        return new_x, _segment_sums(np.abs(new_x - x), self.sizes)


def _iterate_blocks(blocks, cfg):
    x = np.repeat(1.0 / blocks.sizes, blocks.sizes)
    iterations = np.zeros(blocks.sizes.shape[0], dtype=np.int64)
    residuals = np.full(blocks.sizes.shape[0], np.inf)
    work, work_x = blocks, x
    ids = np.arange(blocks.sizes.shape[0])
    where = np.arange(x.shape[0])
    live = np.ones(ids.shape[0], dtype=bool)
    takes = 0
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
            takes += 1
    return x, iterations, residuals, takes


def rank_reference(g, assignment, count: int, cfg, profiles=None, io_source: str = "local"):
    """Every community ranked on the pre-layout path.

    Returns ({community: (values, members, iterations, residual, converged)},
    io by node id, the number of times the working set was compacted).
    io is computed first and logged on `rank_log`, then the nonconverged
    communities, in the package's order.
    """
    assignment = np.asarray(assignment)
    sources, targets = intra_arcs_csr(g, assignment)
    io = io_scores_csr(g.node_count, sources, targets, io_source, profiles)
    weights = _arc_weights_csr(sources, targets, g.node_count,
                               io if cfg.mode == "uneven" else None)
    blocks, order = _SourceBlocks.build(sources, targets, weights, assignment, count)
    x, iterations, residuals, takes = _iterate_blocks(blocks, cfg)
    bounds = np.cumsum(blocks.sizes)[:-1]
    vectors = {}
    for cid, (values, members, sweeps, residual) in enumerate(zip(
            np.split(x, bounds), np.split(order, bounds), iterations.tolist(),
            residuals.tolist())):
        if not residual < cfg.tolerance:
            rank_log.warning("power iteration stopped at %d sweeps with residual %.3g",
                             sweeps, residual)
        vectors[cid] = (values, members, sweeps, residual, residual < cfg.tolerance)
    return vectors, io, takes


# ---- rank's arc passes over whole arrays, before the row blocks --------------

def intra_whole(g, assignment) -> tuple[np.ndarray, np.ndarray]:
    """Targets of the arcs inside one community (intp, CSR order) and each
    node's count of them, from arrays as long as all the arcs."""
    inside = np.repeat(assignment, np.diff(g.out_indptr)) == assignment[g.out_indices]
    before = np.concatenate(([0], np.cumsum(inside)))[g.out_indptr]
    return g.out_indices[inside].astype(np.intp), np.diff(before)


def walk_weights_whole(targets, degrees, io=None) -> np.ndarray:
    """Walk weight of each arc: even, or io-proportional with an even split
    where a row's io sums to 0; each row summed in arc order by one bincount."""
    n = degrees.shape[0]
    share = 1.0 / np.maximum(degrees, 1)
    if io is None:
        return np.repeat(share, degrees)
    weights = io[targets]
    row_sum = np.bincount(np.repeat(np.arange(n), degrees), weights=weights, minlength=n)
    even = row_sum == 0
    weights /= np.repeat(np.where(even, 1.0, row_sum), degrees)
    if even.any():
        weights[np.repeat(even, degrees)] = np.repeat(share[even], degrees[even])
    return weights


def sweep_whole(work, x, damping):
    """One damped step of the communities `work` holds (the package's
    `_Communities` fields, read only): one flow array as long as the arcs,
    scattered by one bincount. Returns the new x and each community's L1 change."""
    flow = np.repeat(x, work.degrees) * work.weights
    inflow = np.bincount(work.targets, flow, minlength=x.shape[0])
    mass = _segment_sums(x[work.dangling], work.dangling_counts)
    new_x = (((1.0 - damping) / work.sizes)[work.community]
             + damping * (inflow + (mass / work.sizes)[work.community]))
    return new_x, _segment_sums(np.abs(new_x - x)[work.order], work.sizes)


# ---- CSV writers as csv.writer renders them, one row at a time ----------------


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def partition_csv_rows(assignment, uids=None) -> str:
    header = ["node_id", "community_id"] + (["uid"] if uids is not None else [])
    rows = [[i, int(c)] + ([uids[i]] if uids is not None else [])
            for i, c in enumerate(assignment)]
    return _csv_text(header, rows)


def float_text(value) -> str:
    """A float field: its repr, or blank for a NaN."""
    return "" if math.isnan(value) else repr(float(value))


def ranks_csv_rows(assignment, io_values, pagerank, converged) -> str:
    return _csv_text(["node_id", "community_id", "io", "pagerank", "converged"],
                     [[i, int(c), float_text(x), float_text(p), "true" if ok else "false"]
                      for i, (c, x, p, ok) in enumerate(zip(assignment, io_values,
                                                            pagerank, converged))])


def report_csv_rows(report) -> str:
    return _csv_text(["node_id", "community_id", "pagerank", "threshold", "label"],
                     [[n, int(c), float_text(v), float_text(t), "zombie" if z else "normal"]
                      for n, (c, v, t, z) in enumerate(zip(report.community_ids,
                                                           report.values, report.thresholds,
                                                           report.is_zombie))])


# ---- CSV readers as row loops over csv.reader -------------------------------


def _int64(token: str) -> int:
    """int(token); a value outside int64 is refused like a token int() refuses."""
    value = int(token)
    if not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(token)
    return value


def _csv_reader_rows(text: str, kind: str, *headers):
    """The nonblank rows after a header that must be one of `headers`; a
    csv.Error is the "bad <kind> row on line N" error of the row it stops at."""
    reader = csv.reader(io.StringIO(text))
    try:
        if next(reader, None) not in [list(h) for h in headers]:
            raise ValidationError(f"{kind} file must start with '{','.join(headers[0])}'")
        yield from filter(None, reader)
    except csv.Error as exc:
        raise ValidationError(f"bad {kind} row on line {reader.line_num}: {exc}") from None


def _ascii(text: str) -> str:
    """The text of a numeric file; its first character that is not ASCII is a
    ParseError naming it, on its line counted by LF."""
    for lineno, line in enumerate(text.split("\n"), 1):
        for char in line:
            if ord(char) > 127:
                raise ParseError(f"character {char!r} is not ASCII text", lineno)
    return text


def read_partition_rows(text: str, node_count: int) -> np.ndarray:
    """The community id of each node, before relabelling."""
    assignment = np.zeros(node_count, dtype=np.int64)
    assigned = np.zeros(node_count, dtype=bool)
    header = ("node_id", "community_id")
    for row in _csv_reader_rows(text, "partition", header, header + ("uid",)):
        try:
            node, comm = _int64(row[0]), _int64(row[1])
        except (ValueError, IndexError):
            raise ValidationError(f"bad partition row: {row!r}") from None
        if not 0 <= node < node_count:
            raise ValidationError(f"node id {node} outside [0, {node_count})")
        if assigned[node]:
            raise ValidationError(f"node {node} assigned twice")
        assignment[node], assigned[node] = comm, True
    if not assigned.all():
        raise ValidationError(f"partition does not cover node {int(np.argmin(assigned))}")
    return assignment


TRUTH_FLAGS = {"0": False, "1": True, "true": True, "false": False, "True": True,
               "False": False}


def read_truth_rows(text: str) -> tuple[list[int], list[bool], list[str]]:
    """(block ids, zombie flags, regions) of the rows in node order."""
    blocks: list[int] = []
    zombies: list[bool] = []
    regions: list[str] = []
    for row in _csv_reader_rows(text, "truth", ("node_id", "block_id", "is_zombie", "region")):
        try:
            if _int64(row[0]) != len(blocks) or row[2] not in TRUTH_FLAGS:
                raise ValueError
            blocks.append(_int64(row[1]))
            zombies.append(TRUTH_FLAGS[row[2]])
            regions.append(row[3])
        except (ValueError, IndexError):
            raise ValidationError(f"bad truth row: {row!r}") from None
    if not blocks:
        raise ValidationError("truth file is empty")
    return blocks, zombies, regions


def read_ranks_rows(text: str) -> dict[int, tuple[np.ndarray, np.ndarray, bool, np.ndarray]]:
    """{community id: (members, values, all converged, io)}, communities in
    order of first appearance, members sorted."""
    groups: dict[int, list[tuple[int, float, bool, float]]] = {}
    seen: set[int] = set()
    header = ("node_id", "community_id", "io", "pagerank", "converged")
    for row in _csv_reader_rows(_ascii(text), "ranks", header):
        try:
            node, cid, io_value, value, flag = (_int64(row[0]), _int64(row[1]), float(row[2]),
                                                float(row[3]), row[4])
        except (ValueError, IndexError):
            raise ValidationError(f"bad ranks row: {row!r}") from None
        if (not 0.0 <= io_value <= 1.0 or not math.isfinite(value) or value < 0
                or flag not in ("true", "false")):
            raise ValidationError(f"bad ranks row: {row!r}")
        if node in seen:
            raise ValidationError(f"node {node} listed twice in the ranks file")
        seen.add(node)
        groups.setdefault(cid, []).append((node, value, flag == "true", io_value))
    vectors = {}
    for cid, entries in groups.items():
        members, values, flags, io_values = zip(*sorted(entries))
        vectors[cid] = (np.asarray(members, dtype=np.int64), np.asarray(values), all(flags),
                        np.asarray(io_values))
    return vectors


def _nodes(rows) -> set[int]:
    """The node ids that the rows' first fields name."""
    nodes = set()
    for row in rows:
        try:
            nodes.add(_int64(row[0]))
        except (ValueError, IndexError):
            pass
    return nodes


def read_report_rows(text: str) -> list[bool]:
    """is zombie by node id; the rows, in any order, must list nodes 0 to
    their count - 1. A csv module error comes after the faults of the rows
    before it, and the rows before it are all the rows there are."""
    header = ("node_id", "community_id", "pagerank", "threshold", "label")
    rows: list[list[str]] = []
    pending = None
    text = _ascii(text)
    try:
        for row in _csv_reader_rows(text, "report", header):
            rows.append(row)
    except ValidationError as exc:
        pending = exc
    labels: dict[int, bool] = {}
    for row in rows:
        try:
            node, _, value, label = _int64(row[0]), _int64(row[1]), float(row[2]), row[4]
            threshold = float(row[3]) if row[3] else 0.0  # blank: a community too small
        except (ValueError, IndexError):
            raise ValidationError(f"bad report row: {row!r}") from None
        if (not math.isfinite(value) or value < 0 or not math.isfinite(threshold)
                or label not in ("zombie", "normal")):
            raise ValidationError(f"bad report row: {row!r}")
        if not 0 <= node < len(rows):
            raise ValidationError(f"no row for node {min(set(range(len(rows))) - _nodes(rows))}; "
                                  f"node {node} is outside 0..{len(rows) - 1}")
        if node in labels:
            raise ValidationError(f"node {node} listed twice in the report")
        labels[node] = label == "zombie"
    if pending is not None:
        raise pending
    return [labels[node] for node in range(len(rows))]


# ---- the network file, line by line -------------------------------------------

INT64_MAX = 2 ** 63 - 1


def _ints(line: str, lineno: int) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        raise ParseError("non-integer token", lineno) from None


def _parse_lines(source) -> RawNetwork:
    """Line-by-line parse; raises ParseError with the line of the first fault."""
    with text_stream(source) as fh:
        header = fh.readline()
        if not header or not header.strip():
            raise ParseError("empty file", 1)
        head = _ints(header, 1)
        if len(head) != 2:
            raise ParseError("header must be two integers: node count and edge count", 1)
        n, declared_m = head
        if n < 0 or declared_m < 0:
            raise ParseError("negative count in header", 1)
        if n > INT64_MAX:
            raise ParseError(f"node count {n} does not fit a 64-bit id", 1)

        sources: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        flags: list[np.ndarray] = []
        records = 0
        lineno = 1
        while records < n:
            line = fh.readline()
            lineno += 1
            if not line:
                raise ParseError(f"expected {n} adjacency records, found {records}", lineno)
            if not line.strip():
                continue
            nums = _ints(line, lineno)
            if len(nums) < 2:
                raise ParseError("adjacency record needs at least 'node_id k'", lineno)
            v1, k = nums[0], nums[1]
            if not 0 <= v1 < n:
                raise ParseError(f"node id {v1} outside [0, {n})", lineno)
            if k < 0:
                raise ParseError(f"negative neighbor count {k}", lineno)
            if len(nums) != 2 + 2 * k:
                raise ParseError(
                    f"record for node {v1} declares {k} neighbors but carries "
                    f"{len(nums) - 2} trailing numbers (expected {2 * k})", lineno)
            if k:
                # range-check the Python ints, so no value overflows int64 below
                ids, fl = nums[2::2], nums[3::2]
                if min(ids) < 0 or max(ids) >= n:
                    raise ParseError(f"target id outside [0, {n})", lineno)
                if min(fl) < 0 or max(fl) > 1:
                    raise ParseError("relationship flag must be 0 or 1", lineno)
                tail = np.asarray(nums[2:], dtype=np.int64).reshape(k, 2)
                sources.append(np.full(k, v1, dtype=np.int64))
                targets.append(tail[:, 0])
                flags.append(tail[:, 1])
            records += 1
        rest = fh.read()
        if rest and rest.strip():
            raise ParseError("trailing content after the declared adjacency records",
                             lineno + 1)

    # ids in the graph's index dtype and flags in one byte, each checked in range above
    index = _index_dtype(n)
    empty = np.zeros(0, dtype=np.int64)
    return RawNetwork(n, declared_m, np.concatenate([empty, *sources]).astype(index),
                      np.concatenate([empty, *targets]).astype(index),
                      np.concatenate([empty, *flags]).astype(np.uint8))
