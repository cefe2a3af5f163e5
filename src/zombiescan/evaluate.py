"""Score detections against ground truth and compute dataset descriptives.

The positive class is zombie everywhere: tp counts true zombies flagged as
zombies. Metrics with a zero denominator are reported as None rather than
silently coerced to 0, and serialize to JSON null.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import DirectedGraph

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
    missing_truth = sorted(set(predicted) - set(truth))
    missing_pred = sorted(set(truth) - set(predicted))
    if missing_truth or missing_pred:
        parts = []
        if missing_pred:
            parts.append(f"no prediction for {_preview(missing_pred)}")
        if missing_truth:
            parts.append(f"no truth for {_preview(missing_truth)}")
        raise ValidationError("label sets differ: " + "; ".join(parts))
    tp = fn = fp = tn = 0
    for node, is_zombie in truth.items():
        flagged = predicted[node]
        if is_zombie:
            if flagged:
                tp += 1
            else:
                fn += 1
        elif flagged:
            fp += 1
        else:
            tn += 1
    return ConfusionMatrix(tp, fn, fp, tn)


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
    flagged = ([n for n, z in report.items() if z] if isinstance(report, dict)
               else report.zombie_nodes())
    counts: Counter[str] = Counter()
    for node in flagged:
        node = int(node)
        prof = profiles[node] if profiles is not None and node < len(profiles) else None
        region = prof.region if prof is not None and prof.region else "unknown"
        counts[region] += 1
    return dict(counts)


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
    from .ingest import _text_stream

    with _text_stream(destination, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_regions_csv(counts: dict[str, int], destination) -> None:
    """Emit `region,count` sorted by count descending, then name."""
    from .ingest import _text_stream

    with _text_stream(destination, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["region", "count"])
        for region, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            writer.writerow([region, count])


def write_histogram_csv(hist: list[tuple[int, int]], destination) -> None:
    from .ingest import _text_stream

    with _text_stream(destination, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bin_lower", "count"])
        for lower, count in hist:
            writer.writerow([lower, count])
