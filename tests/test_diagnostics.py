import math
from dataclasses import replace

import numpy as np
import pytest

from tierflow.data import TierSpec
from tierflow.diagnostics import (
    drift_csv_lines,
    fold_change,
    layer_distance,
    weight_drift_protocol,
)
from tierflow.engine import RELU, DenseLayer, DenseNetwork
from tierflow.ftl import TrainSchedule, TrainStep, train_ftl
from tierflow.rng import RngStream

LOW = TierSpec(300, 700)
HIGH = TierSpec(700, 900)
VAL = TierSpec(900, 1000)


def snap(layers):
    """A network of ReLU layers from (weights, biases) pairs."""
    return DenseNetwork([DenseLayer(w, b, RELU) for w, b in layers], layers[0][0].shape[1])


def random_snapshot(seed, shapes=((4, 3), (2, 4), (1, 2))):
    rng = RngStream(seed)
    layers = [
        (rng.uniform(-1, 1, size=r * c).reshape(r, c), rng.uniform(-1, 1, size=r))
        for r, c in shapes
    ]
    return snap(layers)


def test_distance_zero_for_identical():
    a = random_snapshot(1)
    assert np.all(layer_distance(a, a) == 0.0)


def test_distance_single_delta_exact():
    # one parameter off by delta in a layer of n parameters -> |delta| / n
    w = np.zeros((3, 4))
    b = np.zeros(3)
    a = snap([(w, b)])
    w2 = w.copy()
    w2[1, 2] = -0.75
    other = snap([(w2, b.copy())])
    distances = layer_distance(a, other)
    assert distances.dtype == np.float64
    assert distances.tolist() == [0.75 / (w.size + b.size)]


def test_distance_matches_brute_force_oracle():
    a = random_snapshot(3)
    b = random_snapshot(4)
    distances = layer_distance(a, b)
    assert len(distances) == len(a.layers)
    for distance, la, lb in zip(distances, a.layers, b.layers):
        wa, ba, wb, bb = la.weights, la.biases, lb.weights, lb.biases
        total = 0.0
        for x, y in zip(wa.ravel().tolist(), wb.ravel().tolist()):
            total += (x - y) ** 2
        for x, y in zip(ba.tolist(), bb.tolist()):
            total += (x - y) ** 2
        expected = math.sqrt(total) / (wa.size + ba.size)
        assert abs(distance - expected) < 1e-12


def test_distance_metric_properties():
    a, b, c = (random_snapshot(s) for s in (5, 6, 7))
    ab = layer_distance(a, b)
    ba = layer_distance(b, a)
    ac = layer_distance(a, c)
    cb = layer_distance(c, b)
    assert np.array_equal(ab, ba)
    assert np.all(ab >= 0)
    # triangle inequality per layer
    assert np.all(ab <= ac + cb + 1e-9)


def test_distance_scale_law_exact():
    # zero base and power-of-two scaling keep IEEE arithmetic exact
    d_w = RngStream(8).uniform(-1, 1, size=6).reshape(2, 3)
    d_b = RngStream(9).uniform(-1, 1, size=2)
    zero = snap([(np.zeros((2, 3)), np.zeros(2))])
    one = snap([(d_w, d_b)])
    four = snap([(4.0 * d_w, 4.0 * d_b)])
    base = layer_distance(zero, one)
    scaled = layer_distance(zero, four)
    assert np.array_equal(scaled, 4.0 * base)


def test_distance_shape_mismatch():
    a = random_snapshot(1)
    b = random_snapshot(2, shapes=((4, 3), (2, 4)))
    with pytest.raises(ValueError):
        layer_distance(a, b)


def test_fold_change_identity_and_scaling():
    a = random_snapshot(10)
    b = random_snapshot(11)
    drift = layer_distance(a, b)
    assert fold_change(drift, drift) == [1.0, 1.0, 1.0]

    doubled = layer_distance(
        snap([(np.zeros(la.weights.shape), np.zeros(la.biases.shape)) for la in a.layers]),
        snap([(2.0 * (la.weights - lb.weights), 2.0 * (la.biases - lb.biases))
              for la, lb in zip(a.layers, b.layers)]),
    )
    ratios = fold_change(doubled, drift)
    assert all(r == pytest.approx(2.0, rel=1e-12) for r in ratios)


def test_fold_change_zero_baseline_undefined():
    a = random_snapshot(12)
    nonzero = layer_distance(a, random_snapshot(13))
    zero = layer_distance(a, a)
    ratios = fold_change(nonzero, zero)
    assert ratios == [None, None, None]


def test_fold_change_rejects_different_layer_counts():
    with pytest.raises(ValueError, match="layer counts"):
        fold_change(np.ones(3), np.ones(2))


def test_protocol_requires_two_steps(tiny_ctx):
    sched = TrainSchedule(
        [TrainStep(HIGH, 2)], VAL, batch_size=64, learning_rate=1e-3,
        seed=1, hidden_layers=(8, 4),
    )
    with pytest.raises(ValueError, match="2-step"):
        weight_drift_protocol(sched, tiny_ctx, delta=1)


def _two_step_schedule(e1=3, e2=2, seed=2):
    return TrainSchedule(
        [TrainStep(LOW, e1), TrainStep(HIGH, e2)], VAL,
        batch_size=64, learning_rate=1e-3, seed=seed, hidden_layers=(8, 4),
    )


def test_protocol_delta_zero_gives_zero_ftl_drift(tiny_ctx):
    comparison = weight_drift_protocol(_two_step_schedule(), tiny_ctx, delta=0)
    assert np.all(comparison.ftl_drift == 0.0)


def _independent_runs(schedule, ctx, delta):
    """The networks of the protocol's snapshots from separate unforked runs,
    sharing nothing: the 2-step schedule at (1, E1) and (2, delta), and step 1
    alone at (1, E1) and (1, E1 + delta)."""
    e1 = schedule.steps[0].epochs
    continuation = replace(schedule, steps=[TrainStep(schedule.steps[0].tier, e1 + delta)])
    full = {end: train_ftl(schedule, ctx, stop=end).network for end in ((1, e1), (2, delta))}
    single = {
        end: train_ftl(continuation, ctx, stop=end).network for end in ((1, e1), (1, e1 + delta))
    }
    return full, single


def assert_same_snapshot(a, b):
    assert a.flat.tobytes() == b.flat.tobytes()


def test_protocol_shared_prefix_and_layer_count(tiny_ctx):
    schedule = _two_step_schedule()
    comparison = weight_drift_protocol(schedule, tiny_ctx, delta=2)
    # one ratio per layer, hidden (8, 4) plus the output unit
    assert len(comparison.fold_changes) == 3
    full, single = _independent_runs(schedule, tiny_ctx, 2)
    assert_same_snapshot(single[(1, 3)], full[(1, 3)])
    # both drifts are measured from that shared (1, 3) snapshot
    assert np.array_equal(comparison.ftl_drift, layer_distance(full[(1, 3)], full[(2, 2)]))
    assert np.array_equal(
        comparison.baseline_drift, layer_distance(single[(1, 3)], single[(1, 5)]))
    assert np.all(comparison.ftl_drift > 0.0)
    assert np.all(comparison.baseline_drift > 0.0)


@pytest.mark.parametrize("reset", [False, True])
@pytest.mark.parametrize("delta", [0, 1, 2])
def test_protocol_fork_matches_independent_runs(tiny_ctx, reset, delta):
    schedule = replace(_two_step_schedule(e1=3, e2=2), reset_optimizer_between_steps=reset)
    comparison = weight_drift_protocol(schedule, tiny_ctx, delta=delta)
    full, single = _independent_runs(schedule, tiny_ctx, delta)
    prefix, ftl, base = comparison.prefix, comparison.ftl, comparison.baseline
    assert_same_snapshot(prefix.network, full[(1, 3)])
    assert_same_snapshot(ftl.network, full[(2, delta)])
    assert_same_snapshot(base.network, single[(1, 3 + delta)])
    assert np.array_equal(
        comparison.ftl_drift, layer_distance(full[(1, 3)], full[(2, delta)]))
    assert np.array_equal(
        comparison.baseline_drift, layer_distance(single[(1, 3)], single[(1, 3 + delta)]))
    assert comparison.fold_changes == fold_change(comparison.ftl_drift, comparison.baseline_drift)
    # the protocol trains without per-epoch evaluation; the logs of forked
    # continuations are checked in test_ftl.py
    assert prefix.log.records == ftl.log.records == base.log.records == []
    assert prefix.at == (1, 3) and ftl.at == (2, delta) and base.at == (1, 3 + delta)


def test_protocol_delta_bounds(tiny_ctx):
    with pytest.raises(ValueError):
        weight_drift_protocol(_two_step_schedule(e2=2), tiny_ctx, delta=3)


def test_drift_csv_format(tiny_ctx):
    still, moved = (
        weight_drift_protocol(_two_step_schedule(e1=3), tiny_ctx, delta=d) for d in (0, 1))
    lines = drift_csv_lines(moved)
    assert lines[0] == (
        "# ftl: step1_epoch3 -> step2_epoch1; "
        "baseline: step1_epoch3 -> step1_epoch4")
    assert lines[1] == "layer,n_weights,dist_ftl,dist_baseline,fold_change"
    # hidden (8, 4) and the output unit over 32 features
    assert [line.split(",")[:2] for line in lines[2:]] == [["0", "264"], ["1", "36"], ["2", "5"]]
    assert not any(line.endswith(",NA") for line in lines)

    # at delta 0 neither fork has moved, so every fold change is undefined
    lines = drift_csv_lines(still)
    assert lines[0] == (
        "# ftl: step1_epoch3 -> step2_epoch0; "
        "baseline: step1_epoch3 -> step1_epoch3")
    assert all(line.endswith(",0,0,NA") for line in lines[2:])


def reference_drift_csv(comparison, e1, delta):
    """The drift CSV as it is specified: tags built from E1 and delta, and one
    row per layer of the prefix's network."""
    at_e1 = f"step1_epoch{e1}"
    lines = [
        f"# ftl: {at_e1} -> step2_epoch{delta}; baseline: {at_e1} -> step1_epoch{e1 + delta}",
        "layer,n_weights,dist_ftl,dist_baseline,fold_change",
    ]
    rows = zip(comparison.prefix.network.layers, comparison.ftl_drift,
               comparison.baseline_drift, comparison.fold_changes)
    for i, (layer, f, b, ratio) in enumerate(rows):
        cell = "NA" if ratio is None else f"{float(ratio):.9g}"
        n = layer.in_dim * layer.out_dim + layer.out_dim
        lines.append(f"{i},{n},{float(f):.9g},{float(b):.9g},{cell}")
    return lines


@pytest.mark.parametrize("reset", [False, True])
@pytest.mark.parametrize("delta", [0, 1, 2])
def test_drift_csv_names_snapshots_from_e1_and_delta(tiny_ctx, reset, delta):
    schedule = replace(_two_step_schedule(e1=3, e2=2), reset_optimizer_between_steps=reset)
    comparison = weight_drift_protocol(schedule, tiny_ctx, delta=delta)
    assert drift_csv_lines(comparison) == reference_drift_csv(comparison, 3, delta)
