"""Score detections against ground truth and compute dataset descriptives.

The positive class is zombie everywhere: tp counts true zombies flagged as
zombies. Metrics with a zero denominator are reported as None rather than
silently coerced to 0, and serialize to JSON null.
"""

from __future__ import annotations

import csv
import json
from itertools import compress
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import DirectedGraph
from .textio import UTF8, text_stream

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


def confusion(predicted: dict[int, bool], truth: dict[int, bool]) -> ConfusionMatrix:
    """Count (truth, prediction) pairs with zombie as the positive class.

    Both maps must cover exactly the same node ids.
    """
    if predicted.keys() != truth.keys():
        missing_truth = sorted(set(predicted) - set(truth))
        missing_pred = sorted(set(truth) - set(predicted))
        parts = []
        if missing_pred:
            parts.append(f"no prediction for {_preview(missing_pred)}")
        if missing_truth:
            parts.append(f"no truth for {_preview(missing_truth)}")
        raise ValidationError("label sets differ: " + "; ".join(parts))
    zombies = list(compress(truth, truth.values()))
    tp = sum(map(bool, map(predicted.__getitem__, zombies)))
    fp = sum(map(bool, predicted.values())) - tp
    return ConfusionMatrix(tp, len(zombies) - tp, fp, len(truth) - len(zombies) - fp)


def _preview(ids: list[int], limit: int = 10) -> str:
    shown = ", ".join(str(i) for i in ids[:limit])
    if len(ids) > limit:
        shown += f", ... ({len(ids)} total)"
    return shown


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

    `report` is a ZombieReport or a {node_id: is_zombie} map.
    """
    flagged = np.asarray(list(compress(report, report.values())) if isinstance(report, dict)
                         else report.zombie_nodes(), dtype=np.int64)
    names = ["unknown"]
    codes = np.full(flagged.shape[0], -1, dtype=np.int64)
    if profiles is not None:
        known = (flagged >= 0) & (flagged < len(profiles))
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
    if bin_width < 1:
        raise ValidationError("bin width must be at least 1")
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
    with text_stream(destination, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_regions_csv(counts: dict[str, int], destination) -> None:
    """Emit `region,count` (UTF-8) sorted by count descending, then name."""
    with text_stream(destination, "w", UTF8) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["region", "count"])
        for region, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            writer.writerow([region, count])


def write_histogram_csv(hist: list[tuple[int, int]], destination) -> None:
    with text_stream(destination, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bin_lower", "count"])
        for lower, count in hist:
            writer.writerow([lower, count])
