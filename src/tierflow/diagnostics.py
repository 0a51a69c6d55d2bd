"""Per-layer weight-drift analysis between two networks' weights.

A weight snapshot is a network: a fork returned by ``train_ftl`` holds the
weights where its run stopped.  The headline quantity is the Euclidean
distance between two snapshots of a layer, normalized by that layer's
parameter count (weights plus biases, divided by the count itself, not its
square root).  Fold changes compare the
drift across an FTL step transition against the drift under continued
same-tier training over the same number of epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import DenseNetwork
from .data import DataContext
from .ftl import FtlResult, TrainSchedule, train_ftl

__all__ = [
    "LayerDistance",
    "LayerDistanceReport",
    "layer_distance",
    "fold_change",
    "DriftComparison",
    "weight_drift_protocol",
    "drift_csv_lines",
]


@dataclass(frozen=True)
class LayerDistance:
    layer_index: int
    n_weights: int
    distance: float


@dataclass
class LayerDistanceReport:
    tag_a: str
    tag_b: str
    layers: list[LayerDistance]

    def distances(self) -> np.ndarray:
        return np.array([l.distance for l in self.layers])


def layer_distance(
    a: DenseNetwork, b: DenseNetwork, tag_a: str, tag_b: str
) -> LayerDistanceReport:
    """Per layer: ||params_a - params_b||_2 / parameter count, biases included.

    ``tag_a`` and ``tag_b`` name the two snapshots in the report.
    """
    if len(a.layers) != len(b.layers):
        raise ValueError(f"snapshots have {len(a.layers)} vs {len(b.layers)} layers")
    layers = []
    for i, (la, lb) in enumerate(zip(a.layers, b.layers)):
        wa, ba, wb, bb = la.weights, la.biases, lb.weights, lb.biases
        if wa.shape != wb.shape or ba.shape != bb.shape:
            raise ValueError(f"layer {i} shapes differ between snapshots")
        sq = float(np.sum((wa - wb) ** 2) + np.sum((ba - bb) ** 2))
        n = wa.size + ba.size
        layers.append(LayerDistance(i, n, float(np.sqrt(sq) / n)))
    return LayerDistanceReport(tag_a, tag_b, layers)


def fold_change(
    ftl_report: LayerDistanceReport, baseline_report: LayerDistanceReport
) -> list[float | None]:
    """Per-layer ratio ftl/baseline; None marks a zero-baseline layer."""
    if len(ftl_report.layers) != len(baseline_report.layers):
        raise ValueError("reports cover different layer counts")
    ratios: list[float | None] = []
    for f, b in zip(ftl_report.layers, baseline_report.layers):
        if b.distance == 0.0:
            ratios.append(None)
        else:
            ratios.append(f.distance / b.distance)
    return ratios


@dataclass
class DriftComparison:
    """Both arms' per-layer drift from the shared (1, E1) snapshot, and fold changes.

    ``ftl_result`` ends at (2, delta) and ``baseline_result`` at (1, E1 + delta);
    each one's network is the snapshot its drift was measured to.  Both were
    trained without per-epoch evaluation, so their logs are empty.
    """

    ftl_report: LayerDistanceReport
    baseline_report: LayerDistanceReport
    fold_changes: list[float | None]
    ftl_result: FtlResult
    baseline_result: FtlResult


def weight_drift_protocol(
    schedule: TrainSchedule, ctx: DataContext, delta: int = 20
) -> DriftComparison:
    """Compare step-transition drift against continued same-tier drift.

    Requires a 2-step schedule with step-1 budget E1 and step-2 budget of at
    least ``delta``.  Step 1 is trained once for E1 epochs and forked: the FTL
    arm enters step 2 and stops at (step 2, delta); the baseline arm continues
    step 1, on the same data and shuffle streams, through epoch E1 + delta.
    Each fork trains a copy of the prefix's network, so the prefix's network
    is the snapshot at (1, E1) and each fork's network the snapshot where it
    stopped.  Only weights are compared, so no epoch is evaluated: the
    validation set is built (and checked against every step) but never scored,
    and all three results carry empty logs.
    """
    if len(schedule.steps) != 2:
        raise ValueError(
            f"drift protocol needs a 2-step schedule, got {len(schedule.steps)} steps"
        )
    e1, e2 = schedule.steps[0].epochs, schedule.steps[1].epochs
    if not 0 <= delta <= e2:
        raise ValueError(f"delta must lie in [0, {e2}], got {delta}")

    prefix = train_ftl(schedule, ctx, stop=(1, e1), metrics=False)
    ftl_result, base_result = (
        train_ftl(schedule, ctx, start=prefix, stop=end, metrics=False)
        for end in ((2, delta), (1, e1 + delta))
    )
    at_e1 = f"step1_epoch{e1}"
    ftl_report = layer_distance(
        prefix.network, ftl_result.network, at_e1, f"step2_epoch{delta}")
    base_report = layer_distance(
        prefix.network, base_result.network, at_e1, f"step1_epoch{e1 + delta}")
    return DriftComparison(
        ftl_report, base_report, fold_change(ftl_report, base_report),
        ftl_result, base_result,
    )


def drift_csv_lines(comparison: DriftComparison) -> list[str]:
    """CSV rows: layer,n_weights,dist_ftl,dist_baseline,fold_change.

    The first line is a comment naming the snapshot pairs; undefined fold
    changes (zero baseline drift) are written as NA.
    """
    ftl, base = comparison.ftl_report, comparison.baseline_report
    lines = [
        f"# ftl: {ftl.tag_a} -> {ftl.tag_b}; baseline: {base.tag_a} -> {base.tag_b}",
        "layer,n_weights,dist_ftl,dist_baseline,fold_change",
    ]
    for lf, lb, ratio in zip(ftl.layers, base.layers, comparison.fold_changes):
        cell = "NA" if ratio is None else f"{ratio:.9g}"
        lines.append(
            f"{lf.layer_index},{lf.n_weights},{lf.distance:.9g},{lb.distance:.9g},{cell}"
        )
    return lines
