"""Immutable graph containers shared by every stage of the pipeline.

Every arc list that becomes a graph or a network file keeps one arc rule, checked
by `_check_arcs` alone: its columns have one length, ids are integers in [0, N),
relationship flags 0 or 1. A DirectedGraph's CSR keeps one row rule, checked by
`_row_fault` alone: offsets rise from 0 to M, rows rise strictly in [0, N), loop-free.

Directed follower graphs are stored as compressed sparse rows (one sorted
index array per direction), so degree queries are O(1) and neighbor scans
are cache-friendly at large edge counts. The undirected weighted view used
by community detection keeps the same layout plus per-entry weights.

Conventions for the undirected graph: an edge {u, v} with weight w appears
in both adjacency rows; a self-loop at u appears once in u's row and its
weight counts once toward u's weighted degree. Half the sum of all row
entries is the total edge weight m. `loop_weights` holds each node's loop
weight (0.0 without one): Louvain's aggregation puts a community's internal
weight there.

Passes over every arc or entry run over `row_blocks`: consecutive blocks
of whole rows of about ROW_BLOCK_SIZE entries each, so their temporaries
stay in cache and none is as long as all the entries. They are the row
rule's check, `symmetrize`'s pair keys and its pass that drops repeated
keys, the constructor's row sums, the per-community sums of `modularity`
and of Louvain's aggregation, and rank's intra-arc filter, walk weights
and sweeps. A pass that adds a block's values into per-row or per-community
sums does so with `np.add.at` into one accumulator, which adds in entry
order from 0.0 as one `np.bincount` over all the entries would, so the
sums have the bits of the whole-array pass.
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


# arcs (or undirected entries) per block of a row-block pass: its temporaries
# then fit in a core's L2 cache and stay below the package's mmap threshold
ROW_BLOCK_SIZE = 8192


def row_blocks(indptr: np.ndarray) -> list[tuple[int, int, int, int]]:
    """(first row, end row, first entry, end entry) of each block of whole
    rows of the CSR offsets `indptr`, in order: as many rows as hold at most
    ROW_BLOCK_SIZE entries, or one longer row. The blocks cover every row; a
    table without rows is one empty block."""
    n = indptr.shape[0] - 1
    blocks, lo = [], 0
    while True:
        start = int(indptr[lo])
        hi = int(indptr.searchsorted(start + ROW_BLOCK_SIZE, "right")) - 1
        hi = min(max(hi, lo + 1), n)
        blocks.append((lo, hi, start, int(indptr[hi])))
        if hi == n:
            return blocks
        lo = hi


def _row_fault(indptr: np.ndarray, indices: np.ndarray, node_count: int) -> str | None:
    """The CSR's first fault against the row rule, or None; order before self-loops."""
    if indptr[0] != 0 or indptr[-1] != indices.shape[0] or (indptr[1:] < indptr[:-1]).any():
        return "corrupt adjacency offsets"
    if indices.shape[0] and (indices.min() < 0 or indices.max() >= node_count):
        return "corrupt adjacency indices"
    loops = False
    for lo, hi, start, end in row_blocks(indptr):
        rows = np.repeat(np.arange(lo, hi, dtype=indices.dtype), np.diff(indptr[lo:hi + 1]))
        cols = indices[start:end]
        if not ((cols[1:] > cols[:-1]) | (rows[1:] != rows[:-1])).all():
            return "corrupt adjacency: duplicate arcs or an unsorted row"
        loops = loops or bool((rows == cols).any())
    return "corrupt adjacency: self-loop" if loops else None


def _index_dtype(node_count: int) -> np.dtype:
    return np.dtype(np.int32) if node_count <= np.iinfo(np.int32).max else np.dtype(np.int64)


# src * node_count + dst stays within int64 up to floor(sqrt(2**63))
_KEY_NODE_LIMIT = 3_037_000_499


def _pair_keys(src: np.ndarray, dst: np.ndarray, node_count: int) -> np.ndarray:
    """Row-major int64 key `src * node_count + dst` of each (src, dst) pair.

    Sorting the keys sorts the pairs by (src, dst), and equal keys are equal
    pairs, so one sort of one array replaces a two-key lexsort.
    """
    if node_count > _KEY_NODE_LIMIT:
        raise ValidationError(
            f"{node_count} nodes: pair keys overflow int64 above {_KEY_NODE_LIMIT} nodes")
    keys = src.astype(np.int64)
    keys *= node_count
    keys += dst
    return keys


def _drop_repeats(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of `keys`, which owns its data and is sorted,
    cleared of repeats and shrunk in place, then returned: no copy of it is
    made, however many of its keys repeat."""
    keys.sort()
    # block by block, each kept key moves down to the next free slot; a block
    # compares with its predecessor before its own writes, and that slot still
    # holds its value (unmoved, or moved onto itself when nothing was dropped)
    count = min(keys.shape[0], 1)
    for start in range(1, keys.shape[0], ROW_BLOCK_SIZE):
        end = min(start + ROW_BLOCK_SIZE, keys.shape[0])
        new = keys[start:end][keys[start:end] != keys[start - 1:end - 1]]
        keys[count:count + new.shape[0]] = new
        count += new.shape[0]
    keys.resize(count, refcheck=False)  # in place; no view of it is left
    return keys


def _sorted_member(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Mask of the `queries` found in `keys`; both are sorted, so the binary
    searches walk `keys` in order and stay cache-local."""
    if not keys.shape[0]:
        return np.zeros(queries.shape[0], dtype=bool)
    pos = np.searchsorted(keys, queries)
    np.minimum(pos, keys.shape[0] - 1, out=pos)
    return keys[pos] == queries


def _csr_from_keys(keys: np.ndarray, node_count: int):
    """indptr/indices arrays from sorted pair keys; consumes `keys`."""
    indptr = np.searchsorted(keys, np.arange(node_count + 1, dtype=np.int64) * node_count)
    indices = np.remainder(keys, node_count, out=keys)
    return indptr, indices.astype(_index_dtype(node_count))


class DirectedGraph:
    """Immutable directed graph over dense integer node ids [0, N).

    Holds the out-adjacency as CSR arrays (`out_indptr`, `out_indices`); a
    node's followees are a slice of them. `out_degrees` and `in_degrees`
    are whole arrays. The in-adjacency (`in_indptr`, `in_indices`) is derived
    from the out-adjacency on each access, with no cache, since no pipeline
    stage reads it. The out-CSR keeps the row rule. Equal graphs compare
    equal and are unhashable. Construction goes through :func:`build_graph`
    or the cache loader; instances are safe for concurrent reads.
    """

    __slots__ = ("_n", "out_indptr", "out_indices", "dropped_self_loops",
                 "dropped_duplicates")

    def __init__(self, node_count: int, out_indptr: np.ndarray, out_indices: np.ndarray,
                 dropped_self_loops: int = 0, dropped_duplicates: int = 0):
        self._n = int(node_count)
        self.out_indptr = out_indptr
        self.out_indices = out_indices
        self.dropped_self_loops = dropped_self_loops
        self.dropped_duplicates = dropped_duplicates

    @property
    def in_indptr(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.in_degrees)))

    @property
    def in_indices(self) -> np.ndarray:
        """Source node of every arc, in (target, source) order."""
        keys = _pair_keys(self.out_indices, self.arc_sources(), self._n)
        keys.sort()
        return _csr_from_keys(keys, self._n)[1]

    @property
    def node_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return int(self.out_indices.shape[0])

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_indptr)

    @property
    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.out_indices, minlength=self._n)

    def arc_sources(self) -> np.ndarray:
        """Source node of every arc, aligned with out_indices."""
        return np.repeat(np.arange(self._n, dtype=self.out_indices.dtype), self.out_degrees)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (self._n == other._n
                and np.array_equal(self.out_indptr, other.out_indptr)
                and np.array_equal(self.out_indices, other.out_indices))

    def __repr__(self) -> str:
        return f"DirectedGraph(nodes={self._n}, arcs={self.edge_count})"


def build_graph(arcs, node_count: int) -> DirectedGraph:
    """Build a DirectedGraph from (source, target, reciprocal_flag) triples.

    Self-loops and duplicate arcs are dropped and tallied on the result
    (`dropped_self_loops`, `dropped_duplicates`). A flag of 1 also
    materializes the reverse arc; reverse arcs that already exist are not
    counted as duplicates, so re-ingesting a graph's own arc list is
    warning-free. The triples must keep the arc rule; they are not cast to int64.
    """
    triples = np.asarray(list(arcs) if not isinstance(arcs, np.ndarray) else arcs)
    if triples.size == 0:
        triples = np.empty((0, 3), dtype=np.int64)
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise ValidationError("arcs must be (source, target, flag) triples")
    return _build_graph(triples[:, 0], triples[:, 1], triples[:, 2], node_count)


def _int64_value(x) -> bool:
    """Whether x, an entry of a column that is not of an integer dtype, equals
    an integer within int64."""
    try:
        return x == int(x) and -2 ** 63 <= int(x) < 2 ** 63
    except (TypeError, ValueError, OverflowError):  # a string, nan, inf
        return False


def _check_arcs(src: np.ndarray, dst: np.ndarray, flag: np.ndarray | None,
                node_count: int) -> None:
    """Raise a ValidationError naming the first arc that breaks the arc rule (`flag`
    is None without flags), or the lengths of columns that differ. Dtypes, minima
    and maxima decide: a valid list makes no mask."""
    if node_count < 0:
        raise ValidationError("node_count must be non-negative")
    columns = dict(zip(("source", "target", "flag"), (src, dst) if flag is None
                       else (src, dst, flag)))
    if len({column.shape[0] for column in columns.values()}) > 1:
        raise ValidationError("arc columns differ in length: " + ", ".join(
            f"{column.shape[0]} {role}s" for role, column in columns.items()))
    non_integer = {role: column for role, column in columns.items()
                   if column.dtype.kind not in "biu"}
    if non_integer:
        dtype = next(iter(non_integer.values())).dtype
        message = f"arcs hold {dtype} values, not integers within int64"
        # the arc of the first entry that is no int64 integer, if any: a float
        # column of whole numbers is refused for its dtype alone
        found = next(((i, role, x) for i, row in enumerate(zip(*non_integer.values()))
                      for role, x in zip(non_integer, row) if not _int64_value(x)), None)
        if found is not None:
            i, role, x = found
            message += f": arc #{i} has {role} {x.item() if isinstance(x, np.generic) else x!r}"
        raise ValidationError(message)
    if not src.shape[0] or (0 <= min(src.min(), dst.min())
                            and max(src.max(), dst.max()) < node_count
                            and (flag is None or 0 <= flag.min() <= flag.max() <= 1)):
        return
    bad = (src < 0) | (src >= node_count) | (dst < 0) | (dst >= node_count)
    i = int(np.argmax(bad if flag is None else bad | ((flag != 0) & (flag != 1))))
    if bad[i]:
        raise ValidationError(
            f"arc #{i} ({src[i]}->{dst[i]}) has an endpoint outside [0, {node_count})")
    raise ValidationError(f"arc #{i} has relationship flag {flag[i]}; it must be 0 or 1")


def _build_graph(src: np.ndarray, dst: np.ndarray, flag: np.ndarray,
                 node_count: int) -> DirectedGraph:
    """:func:`build_graph` on separate integer source, target and flag columns,
    of any width.

    The sort and the reverse-arc lookup run only when a check finds that the
    input needs them; the graph is the same either way. The pair keys are
    sorted and cleared of repeats unless they already strictly rise. The
    flagged arcs' reverse keys are looked up among the listed keys unless,
    sorted, they equal the flagged arcs' own sorted keys, which then hold
    each of them. A network file written from a graph passes both checks.
    """
    _check_arcs(src, dst, flag, node_count)

    keep = src != dst
    dropped_self_loops = int(keep.shape[0] - np.count_nonzero(keep))
    if dropped_self_loops:
        src, dst, flag = src[keep], dst[keep], flag[keep]
    del keep

    keys = _pair_keys(src, dst, node_count)
    rec = np.flatnonzero(flag == 1)
    reverse = _pair_keys(dst.take(rec), src.take(rec), node_count)
    forward = keys.take(rec)
    del rec
    reverse.sort()
    if not (keys[1:] > keys[:-1]).all():
        keys = _drop_repeats(keys)
        forward.sort()
    dropped_duplicates = int(src.shape[0] - keys.shape[0])

    # the reverse of a flagged arc is added unless it is listed
    listed = np.array_equal(forward, reverse)
    del forward
    if not listed:
        missing = reverse[~_sorted_member(keys, reverse)]
        if missing.shape[0]:
            missing = _drop_repeats(missing)
            keys = np.insert(keys, np.searchsorted(keys, missing), missing)
    del reverse

    out_indptr, out_indices = _csr_from_keys(keys, node_count)
    return DirectedGraph(node_count, out_indptr, out_indices,
                         dropped_self_loops, dropped_duplicates)


class UndirectedGraph:
    """Weighted undirected graph in CSR form, used for community detection.

    Built via :func:`UndirectedGraph.from_edges` or :func:`symmetrize`; see
    the module docstring for the self-loop and degree conventions;
    `degree_weights` and `loop_weights` are derived from the entries, so they
    always agree. `weights` may be a read-only view, such as `symmetrize`'s
    one 1.0 repeated with stride 0: read it, slice it or index it, but do not
    write to it or rely on its strides.
    """

    __slots__ = ("_n", "indptr", "indices", "weights", "degree_weights", "loop_weights",
                 "total_weight")

    def __init__(self, node_count: int, indptr: np.ndarray, indices: np.ndarray,
                 weights: np.ndarray):
        self._n = int(node_count)
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        # weighted degree k_u = sum of u's row (self-loop counted once),
        # summed in row order as one bincount over all entries would
        self.degree_weights = np.empty(node_count)
        self.loop_weights = np.zeros(node_count)
        for lo, hi, start, end in row_blocks(indptr):
            rows = np.repeat(np.arange(lo, hi), np.diff(indptr[lo:hi + 1]))
            self.degree_weights[lo:hi] = np.bincount(rows - lo, weights[start:end], hi - lo)
            # a row holds at most one entry for its own id: its self-loop
            loop = rows == indices[start:end]
            self.loop_weights[rows[loop]] = weights[start:end][loop]
        self.total_weight = float(self.degree_weights.sum()) / 2.0  # m

    @classmethod
    def from_edges(cls, node_count: int, u: np.ndarray, v: np.ndarray,
                   w: np.ndarray) -> "UndirectedGraph":
        """Accumulate undirected edges (u, v, w); (u, u, w) adds w to the diagonal.

        w holds one weight per edge. Parallel entries for the same pair sum
        their weights in input order.
        """
        u, v = np.asarray(u), np.asarray(v)
        _check_arcs(u, v, None, node_count)
        w = np.asarray(w, dtype=np.float64)
        if w.shape != u.shape:
            raise ValidationError(f"{u.shape[0]} edges but weights of shape {w.shape}")
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        # row entries: every edge as (lo, hi), then the off-diagonal ones as (hi, lo)
        off = lo != hi
        keys = np.concatenate([_pair_keys(lo, hi, node_count),
                               _pair_keys(hi[off], lo[off], node_count)])
        # bincount adds the entries of one pair, all from one block, in input order
        keys, pair = np.unique(keys, return_inverse=True)
        sums = np.bincount(pair, np.concatenate([w, w[off]]), keys.shape[0])
        return cls(node_count, *_csr_from_keys(keys, node_count), sums.astype(float, copy=False))

    @property
    def node_count(self) -> int:
        return self._n

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor ids, weights) of u's row; may include u itself."""
        if not 0 <= u < self._n:
            raise ValidationError(f"node {u} outside [0, {self._n})")
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def __repr__(self) -> str:
        return f"UndirectedGraph(nodes={self._n}, m={self.total_weight:g})"


def symmetrize(g: DirectedGraph) -> UndirectedGraph:
    """Collapse arcs onto undirected weight-1 edges.

    A pair of mutual arcs becomes a single edge of weight 1, matching a 0/1
    adjacency-matrix reading of connectivity. The weights are one 1.0 seen
    through a read-only view of entry length, which stores no entry.
    """
    n, arcs = g.node_count, g.edge_count
    # both directions of every arc, once each: the rows of the 0/1 adjacency
    keys = np.empty(2 * arcs, dtype=np.int64)
    for lo, hi, start, end in row_blocks(g.out_indptr):
        src = np.repeat(np.arange(lo, hi), np.diff(g.out_indptr[lo:hi + 1]))
        dst = g.out_indices[start:end]
        keys[start:end] = _pair_keys(src, dst, n)
        keys[arcs + start:arcs + end] = _pair_keys(dst, src, n)
    indptr, indices = _csr_from_keys(_drop_repeats(keys), n)
    del keys  # consumed above; freed before the constructor runs
    return UndirectedGraph(n, indptr, indices,
                           np.broadcast_to(np.float64(1.0), indices.shape))
