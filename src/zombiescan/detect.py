"""Flag zombie accounts as low outliers of each community's importance vector.

The fence is the classic boxplot lower whisker: threshold = Q1 - 1.5 * IQR
computed per community. A node is flagged when its value is strictly below
the threshold, so a community of identical values flags nobody. Communities
smaller than a configurable floor are skipped: quartiles of four numbers
say nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .rank import ImportanceVector
from .textio import (ASCII, code_column, float_column, float_reprs, int_column, read_text,
                     repeats, split_csv, text_stream, write_json)

__all__ = [
    "QUARTILE_METHODS",
    "quartiles",
    "iqr_threshold",
    "ZombieReport",
    "detect_zombies",
    "write_report_csv",
    "read_report_csv",
    "write_summary_json",
]

QUARTILE_METHODS = ("linear", "nearest")


def quartiles(values, method: str = "linear") -> tuple[float, float]:
    """(Q1, Q3) of a nonempty sample.

    "linear" places percentile p at fractional rank (n - 1) * p / 100 and
    interpolates; "nearest" rounds the rank to the closest order statistic.
    """
    data = np.sort(np.asarray(values, dtype=np.float64))
    if data.shape[0] == 0:
        raise ValidationError("quartiles of an empty sample")
    if method not in QUARTILE_METHODS:
        raise ValidationError(f"unknown quartile method {method!r}")

    def at(p: float) -> float:
        h = (data.shape[0] - 1) * p / 100.0
        if method == "nearest":
            return float(data[int(round(h))])
        lo = math.floor(h)
        hi = math.ceil(h)
        if lo == hi:
            return float(data[lo])
        return float(data[lo] + (h - lo) * (data[hi] - data[lo]))

    return at(25.0), at(75.0)


def iqr_threshold(values, method: str = "linear") -> float:
    """Lower fence Q1 - 1.5 * (Q3 - Q1); may be negative, flagging nothing."""
    q1, q3 = quartiles(values, method)
    return q1 - 1.5 * (q3 - q1)


@dataclass
class ZombieReport:
    """Per-node labels plus the aggregate zombie proportion.

    Row i of every array is node i, and the rows cover every node.
    thresholds holds the fence of each node's community (NaN for
    communities below the size floor).
    """

    community_ids: np.ndarray
    values: np.ndarray
    thresholds: np.ndarray
    is_zombie: np.ndarray
    method: str
    min_community_size: int
    communities: int
    skipped_small_communities: int = 0

    @property
    def total(self) -> int:
        return int(self.is_zombie.shape[0])

    @property
    def zombie_count(self) -> int:
        return int(self.is_zombie.sum())

    @property
    def proportion(self) -> float:
        return self.zombie_count / self.total if self.total else 0.0

    def labels(self) -> np.ndarray:
        """is_zombie: the label of each node, by node id."""
        return self.is_zombie


def detect_zombies(ranks: dict[int, ImportanceVector], min_community_size: int = 5,
                   method: str = "linear") -> ZombieReport:
    """Label every ranked node; zombie means strictly below its community fence.

    The vectors must list each node 0..n-1 exactly once, n being their total
    member count. Rejects an unknown quartile method, a node listed twice,
    and a node outside that range, naming the node it leaves without a rank.
    """
    if not ranks:
        raise ValidationError("no communities to scan")
    if min_community_size < 1:
        raise ValidationError("min_community_size must be at least 1")
    if method not in QUARTILE_METHODS:
        raise ValidationError(f"unknown quartile method {method!r}")

    cids = np.array(sorted(ranks), dtype=np.int64)
    vectors = [ranks[cid] for cid in cids.tolist()]
    sizes = np.array([vec.values.shape[0] for vec in vectors])
    # a NaN fence flags nobody: no value compares below it
    fences = np.array([iqr_threshold(vec.values, method) if size >= min_community_size
                       else np.nan for vec, size in zip(vectors, sizes.tolist())])

    members = np.concatenate([vec.members for vec in vectors])
    n = members.shape[0]
    inside = (members >= 0) & (members < n)
    listed = np.bincount(members[inside], minlength=n)
    if (listed > 1).any():
        raise ValidationError(f"node {np.argmax(listed > 1)} listed twice in the ranks")
    if not inside.all():  # n members, none twice: one outside 0..n-1 leaves a gap
        raise ValidationError(f"no rank for node {np.argmin(listed)}; node "
                              f"{members[np.argmin(inside)]} is outside 0..{n - 1}")
    community = np.empty(n, dtype=np.intp)  # position in `cids`
    community[members] = np.repeat(np.arange(cids.shape[0]), sizes)
    values = np.empty(n)
    values[members] = np.concatenate([vec.values for vec in vectors])
    thresholds = fences[community]
    return ZombieReport(
        community_ids=cids[community],
        values=values,
        thresholds=thresholds,
        is_zombie=values < thresholds,
        method=method,
        min_community_size=min_community_size,
        communities=len(ranks),
        skipped_small_communities=int((sizes < min_community_size).sum()),
    )


_REPORT_HEADER = ("node_id", "community_id", "pagerank", "threshold", "label")
_LABELS = {"zombie": True, "normal": False}


def write_report_csv(report: ZombieReport, destination) -> None:
    """Emit `node_id,community_id,pagerank,threshold,label` rows."""
    labels = np.array(["normal", "zombie"], dtype=object)[report.is_zombie.astype(np.intp)]
    rows = zip(range(report.total), report.community_ids.tolist(),
               float_reprs(report.values), float_reprs(report.thresholds, nan=""),
               labels.tolist())
    with text_stream(destination, "w") as fh:
        fh.write(",".join(_REPORT_HEADER) + "\n" + "".join(map("%d,%d,%s,%s,%s\n".__mod__, rows)))


def read_report_csv(source) -> np.ndarray:
    """Predicted labels from a report CSV, as is_zombie by node id. The rows,
    in any order, must list nodes 0..rows-1; rejects a bad value in any
    column (ids int64, pagerank finite and non-negative, threshold finite),
    a node outside that range and repeated nodes, so no node goes missing."""
    rows = split_csv(read_text(source, ASCII), "report", _REPORT_HEADER)
    nodes, bad_nodes = int_column(rows.columns[0])
    _, bad_cids = int_column(rows.columns[1])
    values, bad_values = float_column(rows.columns[2])
    # a blank threshold is a community too small to fence
    thresholds, bad_thresholds = float_column([t or "0" for t in rows.columns[3]])
    labels = code_column(rows.columns[4], _LABELS)
    rows.check((bad_nodes | bad_cids | bad_values | ~np.isfinite(values) | (values < 0)
                | bad_thresholds | ~np.isfinite(thresholds) | (labels < 0),
                lambda i: f"bad report row: {rows.row(i)!r}"),
               ((nodes < 0) | (nodes >= len(rows)),
                lambda i: f"node {nodes[i]} outside 0..{len(rows) - 1}, the report's rows"),
               (repeats(nodes), lambda i: f"node {nodes[i]} listed twice in the report"))
    is_zombie = np.empty(len(rows), dtype=bool)
    is_zombie[nodes] = labels > 0
    return is_zombie


def write_summary_json(report: ZombieReport, destination,
                       manifest_name: str | None = None) -> None:
    summary = {
        "communities": report.communities,
        "flagged": report.zombie_count,
        "total": report.total,
        "proportion": report.proportion,
        "method": report.method,
        "min_size": report.min_community_size,
        "skipped_small_communities": report.skipped_small_communities,
    }
    if manifest_name is not None:
        summary["manifest"] = manifest_name
    write_json(summary, destination)
