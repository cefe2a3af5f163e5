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

from .errors import ValidationError, _integral
from .rank import ImportanceVector, _node_order
from .textio import (ASCII, check_nodes, code_column, float_column, read_bytes, split_csv,
                     write_csv, write_json)

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

    The vectors must rank each node 0..n-1 once, n being their total member
    count (`rank._node_order`), with finite values: the fence orders no NaN,
    and the report reader refuses one. Rejects a malformed vector, an unknown
    quartile method and a floor that is no integer of at least 1.
    """
    if not ranks:
        raise ValidationError("no communities to scan")
    if not (_integral(min_community_size) and min_community_size >= 1):
        raise ValidationError("min_community_size must be an integer of at least 1")
    if method not in QUARTILE_METHODS:
        raise ValidationError(f"unknown quartile method {method!r}")

    community, values, *_ = _node_order(ranks)
    ids = list(ranks)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        raise ValidationError(f"community {ids[community[i]]}: value {float(values[i])!r} "
                              f"of node {i} is not finite")
    sizes = np.bincount(community, minlength=len(ranks))
    # a NaN fence flags nobody; one that overflows to -inf is held at the lowest float
    fences = np.array([iqr_threshold(vec.values, method) if size >= min_community_size
                       else np.nan for vec, size in zip(ranks.values(), sizes.tolist())])
    thresholds = np.maximum(fences, -np.finfo(np.float64).max)[community]
    return ZombieReport(
        community_ids=np.array(ids, dtype=np.int64)[community],
        values=values,
        thresholds=thresholds,
        is_zombie=values < thresholds,
        method=method,
        min_community_size=int(min_community_size),
        communities=len(ranks),
        skipped_small_communities=int((sizes < min_community_size).sum()),
    )


_REPORT_HEADER = ("node_id", "community_id", "pagerank", "threshold", "label")
_LABELS = {"zombie": True, "normal": False}


def write_report_csv(report: ZombieReport, destination) -> None:
    """Emit `node_id,community_id,pagerank,threshold,label` rows; the fence
    of a community below the size floor, a NaN, is a blank threshold."""
    labels = np.array(["normal", "zombie"], dtype=object)[report.is_zombie.astype(np.intp)]
    write_csv(destination, _REPORT_HEADER, [range(report.total), report.community_ids,
                                            report.values, report.thresholds, labels.tolist()])


def read_report_csv(source) -> np.ndarray:
    """Predicted labels from a report CSV, as is_zombie by node id. The rows,
    in any order, must list nodes 0..rows-1 once each (`textio.check_nodes`);
    rejects a bad value in any column (ids int64, pagerank finite and
    non-negative, threshold finite)."""
    rows = split_csv(read_bytes(source, ASCII), "report", _REPORT_HEADER)
    nodes, bad_nodes = rows.ints(0)
    _, bad_cids = rows.ints(1)
    values, bad_values = float_column(rows.text(2))
    # a blank threshold is a community too small to fence
    thresholds, bad_thresholds = float_column([t or "0" for t in rows.text(3)])
    labels = code_column(rows.text(4), _LABELS)
    check_nodes(nodes, len(rows), "report",
                (bad_nodes | bad_cids | bad_values | ~np.isfinite(values) | (values < 0)
                 | bad_thresholds | ~np.isfinite(thresholds) | (labels < 0),
                 lambda i: f"bad report row: {rows.row(i)!r}"),
                bad=bad_nodes, check=rows.check)
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
