"""Immutable graph containers shared by every stage of the pipeline.

Directed follower graphs are stored as compressed sparse rows (one sorted
index array per direction), so degree queries are O(1) and neighbor scans
are cache-friendly at large edge counts. The undirected weighted view used
by community detection keeps the same layout plus per-entry weights.

Conventions for the undirected graph: an edge {u, v} with weight w appears
in both adjacency rows; a self-loop at u appears once in u's row and its
weight counts once toward u's weighted degree. Half the sum of all row
entries is the total edge weight m.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = [
    "DirectedGraph",
    "UndirectedGraph",
    "build_graph",
    "symmetrize",
]


def _index_dtype(node_count: int) -> np.dtype:
    return np.dtype(np.int32) if node_count <= np.iinfo(np.int32).max else np.dtype(np.int64)


def _csr_from_arcs(sources: np.ndarray, targets: np.ndarray, node_count: int):
    """Sort arcs by (source, target) and build indptr/indices arrays."""
    order = np.lexsort((targets, sources))
    src = sources[order]
    dst = targets[order]
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])
    return indptr, dst.astype(_index_dtype(node_count), copy=False)


class DirectedGraph:
    """Immutable directed graph over dense integer node ids [0, N).

    Holds both the out-adjacency and the in-adjacency so follower and
    followee queries are symmetric in cost. No self-loops, no duplicate
    arcs. Construction goes through :func:`build_graph` or the cache
    loader; instances are safe for concurrent reads.
    """

    __slots__ = ("_n", "out_indptr", "out_indices", "in_indptr", "in_indices",
                 "dropped_self_loops", "dropped_duplicates")

    def __init__(self, node_count: int, out_indptr: np.ndarray, out_indices: np.ndarray,
                 in_indptr: np.ndarray, in_indices: np.ndarray,
                 dropped_self_loops: int = 0, dropped_duplicates: int = 0):
        self._n = int(node_count)
        self.out_indptr = out_indptr
        self.out_indices = out_indices
        self.in_indptr = in_indptr
        self.in_indices = in_indices
        self.dropped_self_loops = dropped_self_loops
        self.dropped_duplicates = dropped_duplicates

    @classmethod
    def _from_out_csr(cls, node_count: int, out_indptr: np.ndarray, out_indices: np.ndarray,
                      dropped_self_loops: int = 0, dropped_duplicates: int = 0) -> "DirectedGraph":
        """Rebuild the in-adjacency from a finished out-CSR."""
        degrees = np.diff(out_indptr)
        sources = np.repeat(np.arange(node_count, dtype=_index_dtype(node_count)), degrees)
        in_indptr, in_indices = _csr_from_arcs(out_indices.astype(np.int64, copy=False),
                                               sources.astype(np.int64, copy=False), node_count)
        return cls(node_count, out_indptr, out_indices, in_indptr, in_indices,
                   dropped_self_loops, dropped_duplicates)

    @property
    def node_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return int(self.out_indices.shape[0])

    def out_neighbors(self, u: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[u]:self.out_indptr[u + 1]]

    def in_neighbors(self, u: int) -> np.ndarray:
        return self.in_indices[self.in_indptr[u]:self.in_indptr[u + 1]]

    def out_degree(self, u: int) -> int:
        return int(self.out_indptr[u + 1] - self.out_indptr[u])

    def in_degree(self, u: int) -> int:
        return int(self.in_indptr[u + 1] - self.in_indptr[u])

    def degrees(self, u: int) -> tuple[int, int]:
        """(in_degree, out_degree) of node u."""
        if not 0 <= u < self._n:
            raise ValidationError(f"node id {u} out of range [0, {self._n})")
        return self.in_degree(u), self.out_degree(u)

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_indptr)

    @property
    def in_degrees(self) -> np.ndarray:
        return np.diff(self.in_indptr)

    def has_arc(self, u: int, v: int) -> bool:
        row = self.out_neighbors(u)
        i = np.searchsorted(row, v)
        return i < row.shape[0] and row[i] == v

    def arc_sources(self) -> np.ndarray:
        """Source node of every arc, aligned with out_indices."""
        return np.repeat(np.arange(self._n, dtype=self.out_indices.dtype), self.out_degrees)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (self._n == other._n
                and np.array_equal(self.out_indptr, other.out_indptr)
                and np.array_equal(self.out_indices, other.out_indices))

    def __hash__(self):
        return id(self)

    def __repr__(self) -> str:
        return f"DirectedGraph(nodes={self._n}, arcs={self.edge_count})"


def build_graph(arcs, node_count: int) -> DirectedGraph:
    """Build a DirectedGraph from (source, target, reciprocal_flag) triples.

    Self-loops and duplicate arcs are dropped and tallied on the result
    (`dropped_self_loops`, `dropped_duplicates`). A flag of 1 also
    materializes the reverse arc; reverse arcs that already exist are not
    counted as duplicates, so re-ingesting a graph's own arc list is
    warning-free.
    """
    if node_count < 0:
        raise ValidationError("node_count must be non-negative")
    triples = np.asarray(list(arcs) if not isinstance(arcs, np.ndarray) else arcs, dtype=np.int64)
    if triples.size == 0:
        triples = triples.reshape(0, 3)
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise ValidationError("arcs must be (source, target, flag) triples")
    src, dst, flag = triples[:, 0], triples[:, 1], triples[:, 2]
    bad = (src < 0) | (src >= node_count) | (dst < 0) | (dst >= node_count)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(
            f"arc #{i} ({src[i]}->{dst[i]}) has an endpoint outside [0, {node_count})")

    loops = src == dst
    dropped_self_loops = int(loops.sum())
    src, dst, flag = src[~loops], dst[~loops], flag[~loops]

    explicit = _dedup_pairs(src, dst)
    dropped_duplicates = int(src.shape[0] - explicit[0].shape[0])

    rec = flag == 1
    if rec.any():
        all_src = np.concatenate([explicit[0], dst[rec]])
        all_dst = np.concatenate([explicit[1], src[rec]])
        all_src, all_dst = _dedup_pairs(all_src, all_dst)
    else:
        all_src, all_dst = explicit

    out_indptr, out_indices = _csr_from_arcs(all_src, all_dst, node_count)
    return DirectedGraph._from_out_csr(node_count, out_indptr, out_indices,
                                       dropped_self_loops, dropped_duplicates)


def _dedup_pairs(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique (src, dst) pairs, order not preserved."""
    if src.shape[0] == 0:
        return src, dst
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    keep = np.ones(src.shape[0], dtype=bool)
    keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    return src[keep], dst[keep]


class UndirectedGraph:
    """Weighted undirected graph in CSR form, used for community detection.

    Built via :func:`UndirectedGraph.from_edges`; see the module docstring
    for the self-loop and degree conventions.
    """

    __slots__ = ("_n", "indptr", "indices", "weights", "degree_weights", "total_weight")

    def __init__(self, node_count: int, indptr: np.ndarray, indices: np.ndarray,
                 weights: np.ndarray):
        self._n = int(node_count)
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        # weighted degree k_u = sum of u's row (self-loop counted once)
        self.degree_weights = np.zeros(node_count, dtype=np.float64)
        if indices.shape[0]:
            np.add.at(self.degree_weights,
                      np.repeat(np.arange(node_count), np.diff(indptr)), weights)
        self.total_weight = float(self.degree_weights.sum()) / 2.0  # m

    @classmethod
    def from_edges(cls, node_count: int, u: np.ndarray, v: np.ndarray,
                   w: np.ndarray) -> "UndirectedGraph":
        """Accumulate undirected edges (u, v, w); (u, u, w) adds w to the diagonal.

        Parallel entries for the same pair sum their weights.
        """
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
        # expand to row entries: off-diagonal edges in both rows, loops once
        diag = lo == hi
        rows = np.concatenate([lo[~diag], hi[~diag], lo[diag]])
        cols = np.concatenate([hi[~diag], lo[~diag], lo[diag]])
        vals = np.concatenate([wsum[~diag], wsum[~diag], wsum[diag]])
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=node_count), out=indptr[1:])
        return cls(node_count, indptr, cols.astype(_index_dtype(node_count)), vals)

    @property
    def node_count(self) -> int:
        return self._n

    @property
    def m(self) -> float:
        return self.total_weight

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor ids, weights) of u's row; may include u itself."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def __repr__(self) -> str:
        return f"UndirectedGraph(nodes={self._n}, m={self.total_weight:g})"


def symmetrize(g: DirectedGraph) -> UndirectedGraph:
    """Collapse arcs onto undirected weight-1 edges.

    A pair of mutual arcs becomes a single edge of weight 1, matching a 0/1
    adjacency-matrix reading of connectivity.
    """
    src = g.arc_sources().astype(np.int64)
    dst = g.out_indices.astype(np.int64)
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    lo, hi = _dedup_pairs(lo, hi)
    return UndirectedGraph.from_edges(g.node_count, lo, hi, np.ones(lo.shape[0]))
