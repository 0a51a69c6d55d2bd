"""Per-layer weight-drift analysis between two networks' weights.

A weight snapshot is a network: a fork returned by ``train_ftl`` holds the
weights where its run stopped, at its ``at`` (step, epoch).  The headline
quantity is the Euclidean distance between two snapshots of a layer,
normalized by that layer's parameter count (weights plus biases, divided by
the count itself, not its square root).  Fold changes compare the drift
across an FTL step transition against the drift under continued same-tier
training over the same number of epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import DenseNetwork
from .data import DataContext
from .ftl import FtlResult, TrainSchedule, train_ftl


def layer_distance(a: DenseNetwork, b: DenseNetwork) -> np.ndarray:
    """Per layer: ||params_a - params_b||_2 / parameter count, biases included."""
    if len(a.layers) != len(b.layers):
        raise ValueError(f"snapshots have {len(a.layers)} vs {len(b.layers)} layers")
    distances = np.empty(len(a.layers))
    for i, (la, lb) in enumerate(zip(a.layers, b.layers)):
        wa, ba, wb, bb = la.weights, la.biases, lb.weights, lb.biases
        if wa.shape != wb.shape or ba.shape != bb.shape:
            raise ValueError(f"layer {i} shapes differ between snapshots")
        sq = float(np.sum((wa - wb) ** 2) + np.sum((ba - bb) ** 2))
        distances[i] = np.sqrt(sq) / (wa.size + ba.size)
    return distances


def fold_change(ftl: np.ndarray, baseline: np.ndarray) -> list[float | None]:
    """Per-layer ratio ftl/baseline; None marks a zero-baseline layer."""
    if len(ftl) != len(baseline):
        raise ValueError("drifts cover different layer counts")
    return [None if b == 0.0 else f / b for f, b in zip(ftl.tolist(), baseline.tolist())]


@dataclass
class DriftComparison:
    """The step-1 prefix, its two forks, and each fork's per-layer drift from it.

    ``prefix`` ends at (1, E1), ``ftl`` at (2, delta) and ``baseline`` at
    (1, E1 + delta); each one's network is the snapshot at its ``at``.  All
    three were trained without per-epoch evaluation, so their logs are empty.
    """

    prefix: FtlResult
    ftl: FtlResult
    baseline: FtlResult
    ftl_drift: np.ndarray
    baseline_drift: np.ndarray
    fold_changes: list[float | None]


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
    ftl, baseline = (
        train_ftl(schedule, ctx, start=prefix, stop=end, metrics=False)
        for end in ((2, delta), (1, e1 + delta))
    )
    ftl_drift = layer_distance(prefix.network, ftl.network)
    baseline_drift = layer_distance(prefix.network, baseline.network)
    return DriftComparison(
        prefix, ftl, baseline, ftl_drift, baseline_drift,
        fold_change(ftl_drift, baseline_drift),
    )


def drift_csv_lines(comparison: DriftComparison) -> list[str]:
    """CSV rows: layer,n_weights,dist_ftl,dist_baseline,fold_change.

    The first line is a comment naming the snapshot pairs, each
    ``step{k}_epoch{e}`` from a fork's ``at``; undefined fold changes (zero
    baseline drift) are written as NA.
    """
    c = comparison
    start, ftl, base = ("step{}_epoch{}".format(*r.at) for r in (c.prefix, c.ftl, c.baseline))
    lines = [
        f"# ftl: {start} -> {ftl}; baseline: {start} -> {base}",
        "layer,n_weights,dist_ftl,dist_baseline,fold_change",
    ]
    drifts = zip(c.ftl_drift.tolist(), c.baseline_drift.tolist(), c.fold_changes)
    for i, (layer, (d_ftl, d_base, ratio)) in enumerate(zip(c.prefix.network.layers, drifts)):
        cell = "NA" if ratio is None else f"{ratio:.9g}"
        n = layer.weights.size + layer.biases.size
        lines.append(f"{i},{n},{d_ftl:.9g},{d_base:.9g},{cell}")
    return lines
