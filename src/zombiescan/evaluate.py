"""Score detections against ground truth and compute dataset descriptives.

The positive class is zombie everywhere: tp counts true zombies flagged as
zombies. Metrics with a zero denominator are reported as None rather than
silently coerced to 0, and serialize to JSON null.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _integral
from .graph import DirectedGraph
from .textio import write_csv, write_json

__all__ = [
    "ConfusionMatrix",
    "MetricSet",
    "confusion",
    "metrics",
    "region_distribution",
    "degree_histogram",
    "write_metrics_json",
    "write_regions_csv",
    "write_histogram_csv",
]


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise ValidationError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass(frozen=True)
class MetricSet:
    """accuracy/precision/recall/f1; None marks an undefined (0/0) value."""

    accuracy: float
    precision: float | None
    recall: float | None
    f1: float | None


def confusion(predicted: np.ndarray, truth: np.ndarray) -> ConfusionMatrix:
    """Count (truth, prediction) pairs with zombie as the positive class.

    Both are is_zombie by node id and must cover the same nodes.
    """
    predicted, truth = np.asarray(predicted, dtype=bool), np.asarray(truth, dtype=bool)
    if predicted.shape != truth.shape:
        p, t = predicted.shape[0], truth.shape[0]
        raise ValidationError(f"label sets differ: no {'prediction' if p < t else 'truth'} "
                              f"for {min(p, t)} ({p} predicted nodes, {t} true)")
    zombies, tp = int(np.count_nonzero(truth)), int(np.count_nonzero(predicted & truth))
    fp = int(np.count_nonzero(predicted)) - tp
    return ConfusionMatrix(tp, zombies - tp, fp, truth.shape[0] - zombies - fp)


def metrics(cm: ConfusionMatrix) -> MetricSet:
    """Derive the usual rates; denominators of zero yield None."""
    if cm.total == 0:
        raise ValidationError("metrics of an empty confusion matrix")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else None
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else None
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return MetricSet(accuracy, precision, recall, f1)


def region_distribution(report, profiles) -> dict[str, int]:
    """Zombie counts per region string; nodes without a region go to "unknown".

    `report` is a ZombieReport or its labels, is_zombie by node id.
    """
    flagged = np.flatnonzero(getattr(report, "is_zombie", report))
    names = ["unknown"]
    codes = np.full(flagged.shape[0], -1, dtype=np.int64)
    if profiles is not None:
        known = flagged < len(profiles)
        codes[known] = profiles.region_codes[flagged[known]]
        names += profiles.region_names
    counts: dict[str, int] = {}
    # region code c is counted at c + 1, so no region (-1) lands on "unknown"
    for name, count in zip(names, np.bincount(codes + 1).tolist()):
        if count:  # a region called "unknown" merges with the nodes without one
            counts[name] = counts.get(name, 0) + count
    return counts


def degree_histogram(g: DirectedGraph, bin_width: int = 1) -> list[tuple[int, int]]:
    """Counts of nodes binned by total adjacent arcs (in + out).

    Returns (bin lower bound, count) for nonempty bins; counts sum to N.
    """
    if not (_integral(bin_width) and bin_width >= 1):
        raise ValidationError("bin width must be an integer of at least 1")
    totals = g.in_degrees + g.out_degrees
    bins = totals // bin_width
    counts = np.bincount(bins)
    present = np.flatnonzero(counts)
    return [(int(b * bin_width), int(counts[b])) for b in present]


def write_metrics_json(cm: ConfusionMatrix, ms: MetricSet, destination,
                       manifest_name: str | None = None) -> None:
    payload = {
        "tp": cm.tp, "fn": cm.fn, "fp": cm.fp, "tn": cm.tn,
        "accuracy": ms.accuracy,
        "precision": ms.precision,
        "recall": ms.recall,
        "f1": ms.f1,
    }
    if manifest_name is not None:
        payload["manifest"] = manifest_name
    write_json(payload, destination)


def write_regions_csv(counts: dict[str, int], destination) -> None:
    """Emit `region,count` (UTF-8) sorted by count descending, then name."""
    regions = sorted(counts, key=lambda region: (-counts[region], region))
    write_csv(destination, ("region", "count"),
              [regions, np.array([counts[r] for r in regions], dtype=np.int64)])


def write_histogram_csv(hist: list[tuple[int, int]], destination) -> None:
    lower, count = np.array(hist, dtype=np.int64).reshape(-1, 2).T
    write_csv(destination, ("bin_lower", "count"), [lower, count])
