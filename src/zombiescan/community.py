"""Community detection by greedy modularity optimization (Louvain method).

Modularity compares the weight of intra-community edges against the
expectation under a degree-preserving random rewiring:

    Q = (1/2m) * sum_ij [A_ij - k_i * k_j / (2m)] * delta(c_i, c_j)

Two variants are exposed. "standard" sums over all ordered same-community
pairs including i = j; this is the quantity the greedy gain formula
optimizes and the one that is invariant under community aggregation.
"distinct-pairs" excludes the i = j terms. On a singleton partition the
distinct-pairs variant is exactly zero.

The optimizer alternates two phases. Local moves visit nodes from a FIFO
queue seeded with a random node order, moving each to the neighboring
community with the largest positive gain; a node that moves puts back in
the queue each neighbour that is not queued and not already in its new
community (the fast local move of Traag 2015, Phys. Rev. E 92:032801).
The phase ends when the queue is empty: every node's last visit came
after its neighbours' last move and found no improving move. A later full
sweep can still find a move, because community totals shift when nodes
that are not neighbours move. Then communities collapse into single nodes
(inter-community weights summed, intra-community weight becoming a
self-loop) and the optimizer repeats on the smaller graph.
"""

from __future__ import annotations

from collections import _count_elements, deque
from dataclasses import dataclass
from random import Random

import numpy as np

from .errors import ValidationError, _integral
from .graph import UndirectedGraph, _row_fault, row_blocks
from .textio import UTF8, check_nodes, read_bytes, split_csv, write_csv

__all__ = [
    "Partition",
    "LouvainConfig",
    "LouvainLevel",
    "Dendrogram",
    "modularity",
    "move_gain",
    "louvain",
    "write_partition_csv",
    "read_partition_csv",
]


def _community_ids(assignment) -> np.ndarray:
    """`assignment` as int64, unless a non-empty one is not of an integer or bool dtype."""
    a = np.asarray(assignment)
    if a.dtype.kind not in "biu" and a.size:
        raise ValidationError(f"assignment holds {a.dtype} values, not integer community ids")
    return a.astype(np.int64, copy=False)


class Partition:
    """Assignment of every node to exactly one community.

    Community ids are dense in [0, C) and ordered by first appearance in
    node order, so equal groupings always compare equal; partitions are
    unhashable. The members of community c are
    `np.flatnonzero(assignment == c)`.
    """

    __slots__ = ("assignment", "community_count")

    def __init__(self, assignment: np.ndarray):
        assignment = _community_ids(assignment)
        if assignment.ndim != 1:
            raise ValidationError("assignment must be one community id per node")
        uniq, dense = np.unique(assignment, return_inverse=True)
        # relabel by first appearance so ids are deterministic
        first_pos = np.full(uniq.shape[0], assignment.shape[0], dtype=np.int64)
        np.minimum.at(first_pos, dense, np.arange(assignment.shape[0]))
        rank = np.empty(uniq.shape[0], dtype=np.int64)
        rank[np.argsort(first_pos, kind="stable")] = np.arange(uniq.shape[0])
        self.assignment = rank[dense]
        self.community_count = int(uniq.shape[0])

    @classmethod
    def singletons(cls, node_count: int) -> "Partition":
        return cls(np.arange(node_count))

    @property
    def node_count(self) -> int:
        return int(self.assignment.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return np.array_equal(self.assignment, other.assignment)

    def __repr__(self) -> str:
        return f"Partition(nodes={self.node_count}, communities={self.community_count})"


def modularity(g: UndirectedGraph, p: Partition, variant: str = "standard") -> float:
    """Modularity of a partition; variant is "standard" or "distinct-pairs"."""
    if p.node_count != g.node_count:
        raise ValidationError(
            f"partition covers {p.node_count} nodes, graph has {g.node_count}")
    if variant not in ("standard", "distinct-pairs"):
        raise ValidationError(f"unknown modularity variant {variant!r}")
    m = g.total_weight
    if m <= 0:
        raise ValidationError("modularity is undefined for a graph without edges")
    two_m = 2.0 * m
    comm = p.assignment
    k = g.degree_weights
    # intra[c]: sum over ordered same-community row entries (diagonal once),
    # in entry order from 0.0 as one bincount over all the entries would
    intra = np.zeros(p.community_count)
    for lo, hi, start, end in row_blocks(g.indptr):
        row_comm = np.repeat(comm[lo:hi], np.diff(g.indptr[lo:hi + 1]))
        same = row_comm == comm.take(g.indices[start:end])
        np.add.at(intra, row_comm[same], g.weights[start:end][same])
    tot = np.bincount(comm, weights=k, minlength=p.community_count)
    if variant == "standard":
        return float(np.sum(intra / two_m - (tot / two_m) ** 2))
    # exclude the i = j terms per community so singletons score exactly zero
    diag = np.bincount(comm, weights=g.loop_weights, minlength=p.community_count)
    sq = np.bincount(comm, weights=k * k, minlength=p.community_count)
    return float(np.sum((intra - diag) / two_m - (tot * tot - sq) / (two_m * two_m)))


def move_gain(g: UndirectedGraph, assignment: np.ndarray, node: int, target: int,
              resolution: float = 1.0) -> float:
    """Standard-modularity change from moving `node` into community `target`.

    Computed incrementally from community degree totals; matches a full
    recomputation of the standard variant to floating-point accuracy.
    """
    assignment = _community_ids(assignment)
    LouvainConfig(resolution=resolution)  # its rule: positive and finite
    n = g.node_count
    if assignment.shape != (n,):
        raise ValidationError(f"assignment has shape {assignment.shape}, graph has {n} nodes")
    ids, w = g.neighbors(node)  # refuses a node outside [0, n)
    if target < 0:
        raise ValidationError(f"target community {target} is negative")
    m = g.total_weight
    if m <= 0:
        raise ValidationError("modularity gain undefined without edges")
    current = int(assignment[node])
    if current == target:
        return 0.0
    k = g.degree_weights
    ncomm = max(int(assignment.max()) + 1, target + 1)
    tot = np.bincount(assignment, weights=k, minlength=ncomm)
    nonself = ids != node
    k_in = np.bincount(assignment[ids[nonself]], w[nonself], ncomm)
    tot_cur = tot[current] - k[node]
    gain_stay = k_in[current] / m - resolution * tot_cur * k[node] / (2.0 * m * m)
    gain_move = k_in[target] / m - resolution * tot[target] * k[node] / (2.0 * m * m)
    return float(gain_move - gain_stay)


@dataclass(frozen=True)
class LouvainConfig:
    """Tuning knobs for the optimizer; defaults make desk-scale runs deterministic."""

    max_levels: int = 100
    min_gain: float = 1e-7
    seed: int = 0
    resolution: float = 1.0

    def __post_init__(self):
        if not (_integral(self.max_levels) and self.max_levels >= 1):
            raise ValidationError("max_levels must be an integer of at least 1")
        if not 0 <= self.min_gain < np.inf:  # nan too
            raise ValidationError("min_gain must be non-negative and finite")
        if not 0 < self.resolution < np.inf:
            raise ValidationError("resolution must be positive and finite")


@dataclass
class LouvainLevel:
    """One coarsening step: the partition found on that level's graph.

    `visits` counts the node visits of the local-move queue (at least
    `node_count`, one per node for the first pass); `moves` counts the
    accepted node moves.
    """

    node_count: int
    assignment: np.ndarray
    modularity: float
    visits: int
    moves: int


@dataclass
class Dendrogram:
    """All levels of a run plus the flattened partition on the original nodes."""

    levels: list[LouvainLevel]
    partition: Partition


def _one_level(g: UndirectedGraph, rng: Random,
               resolution: float) -> tuple[np.ndarray, int, int]:
    """Phase 1: greedy local moves from a node queue until the queue is empty.

    The queue starts as a shuffled node order, so the first n visits are
    one full sweep. A node that moves re-queues each neighbour that is not
    queued and not in its new community. On return, every node's last visit
    came after its neighbours' last move and found no improving move; a full
    sweep can still find one, since community totals have shifted.

    Returns the (non-dense) assignment, the number of visits and the number
    of accepted moves. Ties keep the current community, then prefer the
    smallest community id, whatever the order in which the neighbour
    communities are tallied. The loop reads Python scalars only: lists for
    per-node state, memoryviews of the arcs.

    Each visit reads its row once, as a list, for the tally and the
    re-queue. On a level with unit weights and no self-loop (`loop_weights`
    all 0), such as the symmetrized follower graph, `_count_elements` (the
    C loop of `collections.Counter`) tallies the neighbour communities into
    a plain dict: an integer count times inv_m rounds exactly as a sum of
    1.0s does, so the moves are those of the weighted tally. The node's own
    community leaves the tally before the gain loop.

    On such a level that `graph._row_fault` passes, the tally reads
    `key` instead of `node_comm`: key[v] is -1 while v sits alone in
    community v (it never moved and no node joined it), else node_comm[v].
    All lone neighbours thus share the key -1, which leaves the tally
    before the gain loop. A lone neighbour's community counts 1, so its gain,
    inv_m less a non-negative term, is at most inv_m: the visit scans its
    row for lone neighbours, with the gain loop's expression and tie rule,
    only when one was tallied and the best gain so far is not above inv_m.
    A scan that finds fewer lone neighbours than others costs more than the
    short tally saved; it happens on sparse levels, where lone neighbours
    stay good candidates, so the level tallies node_comm from then on.
    """
    n = g.node_count
    m = g.total_weight
    inv_m = 1.0 / m
    inv_2mm = resolution / (2.0 * m * m)
    k = g.degree_weights.tolist()
    node_comm = list(range(n))
    comm_tot = list(k)

    order = list(range(n))
    rng.shuffle(order)
    queue = deque(order)
    queued = [True] * n
    visits = moves = 0

    # reductions, not a mask: the check allocates nothing of arc length
    unit = g.weights.min() == g.weights.max() == 1.0 and not g.loop_weights.any()
    # a lone neighbour listed twice in a row would be scored as linked once
    lone_keys = unit and _row_fault(g.indptr, g.indices, n) is None
    key = [-1] * n if lone_keys else node_comm
    # memoryviews, not lists: a list of the arcs would raise peak memory
    indptr, indices, weights = g.indptr.tolist(), memoryview(g.indices), memoryview(g.weights)
    while queue:
        u = queue.popleft()
        queued[u] = False
        visits += 1
        cu = node_comm[u]
        lo, hi = indptr[u], indptr[u + 1]
        row = indices[lo:hi].tolist()
        links = {}
        if unit:
            _count_elements(links, map(key.__getitem__, row))
        else:
            for v, w in zip(row, weights[lo:hi]):
                if v != u:
                    c = node_comm[v]
                    links[c] = links.get(c, 0.0) + w
        lone = links.pop(-1, 0) if lone_keys else 0
        own = links.pop(cu, 0)  # the stay gain's count; the gain loop sees the others

        ku = k[u]
        comm_tot[cu] -= ku
        best_c = cu
        best_gain = own * inv_m - comm_tot[cu] * ku * inv_2mm
        stay_gain = best_gain
        for c, kin in links.items():
            gain = kin * inv_m - comm_tot[c] * ku * inv_2mm
            if gain > best_gain or (gain == best_gain and best_c != cu and c < best_c):
                best_gain = gain
                best_c = c
        if lone and best_gain <= inv_m:
            for c in row:
                if key[c] < 0:  # node c alone in community c, which u links with 1
                    gain = inv_m - comm_tot[c] * ku * inv_2mm
                    if gain > best_gain or (gain == best_gain and best_c != cu and c < best_c):
                        best_gain = gain
                        # c itself, as the int that node_comm holds: the row's own
                        # ints would scatter node_comm over the heap, slowing the tally
                        best_c = node_comm[c]
            if 2 * lone < len(row):
                lone_keys, key = False, node_comm
        if best_c != cu and best_gain > stay_gain:
            if lone_keys:
                if key[best_c] < 0:
                    key[best_c] = best_c
                key[u] = best_c
            cu = node_comm[u] = best_c
            moves += 1
            # u itself is skipped: it now sits in best_c
            for v in row:
                if not queued[v] and node_comm[v] != best_c:
                    queued[v] = True
                    queue.append(v)
        comm_tot[cu] += ku
    return np.array(node_comm, dtype=np.int64), visits, moves


def _block_edges(g: UndirectedGraph, comm: np.ndarray, lo: int, hi: int, start: int,
                 end: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Communities (cu, cv) and weights w of the edges of rows lo..hi-1, one
    entry per edge in row order, and the mask of those inside a community;
    an intra-community edge that is no self-loop weighs twice, since both its
    ordered pairs land on the community's diagonal."""
    rows = np.repeat(np.arange(lo, hi), np.diff(g.indptr[lo:hi + 1]))
    cols = g.indices[start:end]
    # each off-diagonal edge appears in both rows; keep one representative
    keep = rows <= cols
    rows, cols, w = rows[keep], cols[keep], g.weights[start:end][keep]
    cu, cv = comm.take(rows), comm.take(cols)
    intra = cu == cv
    return cu, cv, np.where(intra & (rows != cols), 2.0 * w, w), intra


def _aggregate(g: UndirectedGraph, p: Partition) -> UndirectedGraph:
    """Phase 2: one node per community; intra-community weight becomes a self-loop.

    Each community's self-loop adds its entries in row order from 0.0, the
    order in which from_edges would sum them, so only the inter-community
    edges (plus one loop per community) are sorted. The entries are read a
    block of rows at a time: one pass sums the loops and counts the
    inter-community edges, a second copies them, in row order, from the
    blocks that hold any into arrays of their exact length.
    """
    comm, count = p.assignment, p.community_count
    loop_sum = np.zeros(count)
    has_loop = np.zeros(count, dtype=bool)
    blocks = row_blocks(g.indptr)
    inter_counts = []
    for block in blocks:
        cu, _, weights, intra = _block_edges(g, comm, *block)
        has_loop[cu[intra]] = True
        np.add.at(loop_sum, cu[intra], weights[intra])
        inter_counts.append(intra.shape[0] - int(np.count_nonzero(intra)))
    loops = np.flatnonzero(has_loop)
    total = sum(inter_counts)
    u = np.empty(total + loops.shape[0], dtype=np.int64)
    v, w = np.empty_like(u), np.empty(u.shape[0])
    at = 0
    for block, k in zip(blocks, inter_counts):
        if k:
            cu, cv, weights, intra = _block_edges(g, comm, *block)
            inter = ~intra
            u[at:at + k], v[at:at + k], w[at:at + k] = cu[inter], cv[inter], weights[inter]
            at += k
    u[total:], v[total:], w[total:] = loops, loops, loop_sum[loops]
    return UndirectedGraph.from_edges(count, u, v, w)


def louvain(g: UndirectedGraph, cfg: LouvainConfig | None = None) -> Dendrogram:
    """Run the two-phase optimizer until gains fall below cfg.min_gain.

    The flattened partition's standard modularity is non-decreasing across
    levels. A graph with no edges yields the singleton partition.
    """
    cfg = cfg or LouvainConfig()
    if g.node_count == 0:
        raise ValidationError("graph has no nodes")
    if g.total_weight <= 0:
        return Dendrogram([], Partition.singletons(g.node_count))

    rng = Random(cfg.seed)
    levels: list[LouvainLevel] = []
    current = g
    prev_q: float | None = None
    for _ in range(cfg.max_levels):
        raw, visits, moves = _one_level(current, rng, cfg.resolution)
        if not moves:
            break
        p = Partition(raw)
        q = modularity(current, p, "standard")
        levels.append(LouvainLevel(current.node_count, p.assignment, q, visits, moves))
        if prev_q is not None and q - prev_q < cfg.min_gain:
            break
        prev_q = q
        if p.community_count == current.node_count:
            break
        current = _aggregate(current, p)

    labels = np.arange(g.node_count)
    for level in levels:
        labels = level.assignment[labels]
    return Dendrogram(levels, Partition(labels))


_PARTITION_HEADER = ("node_id", "community_id")


def write_partition_csv(p: Partition, destination, uids: list[str] | None = None) -> None:
    """Emit `node_id,community_id` rows, plus a `uid` column (UTF-8) when uids are given."""
    header, columns = _PARTITION_HEADER, [range(p.node_count), p.assignment]
    if uids is not None:
        if len(uids) != p.node_count:
            raise ValidationError(
                f"uid list has {len(uids)} entries, partition has {p.node_count} nodes")
        header, columns = header + ("uid",), columns + [uids]
    write_csv(destination, header, columns)


def read_partition_csv(source, node_count: int) -> Partition:
    """Read a partition written by write_partition_csv, its rows holding each
    of the graph's `node_count` nodes once (`textio.check_nodes`); a `uid`
    column is ignored."""
    rows = split_csv(read_bytes(source, UTF8), "partition", _PARTITION_HEADER,
                     _PARTITION_HEADER + ("uid",))
    nodes, bad_nodes = rows.ints(0)
    comms, bad_comms = rows.ints(1)
    check_nodes(nodes, node_count, "partition",
                (bad_nodes | bad_comms, lambda i: f"bad partition row: {rows.row(i)!r}"),
                bad=bad_nodes, check=rows.check)
    assignment = np.empty(node_count, dtype=np.int64)
    assignment[nodes] = comms
    del rows  # frees the split text before the relabel allocates
    return Partition(assignment)
