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
    report = layer_distance(a, a, "a", "a")
    assert np.all(report.distances() == 0.0)


def test_distance_single_delta_exact():
    # one parameter off by delta in a layer of n parameters -> |delta| / n
    w = np.zeros((3, 4))
    b = np.zeros(3)
    a = snap([(w, b)])
    w2 = w.copy()
    w2[1, 2] = -0.75
    other = snap([(w2, b.copy())])
    report = layer_distance(a, other, "a", "b")
    n = w.size + b.size
    assert report.layers[0].distance == 0.75 / n
    assert report.layers[0].n_weights == n


def test_distance_matches_brute_force_oracle():
    a = random_snapshot(3)
    b = random_snapshot(4)
    report = layer_distance(a, b, "a", "b")
    for entry, la, lb in zip(report.layers, a.layers, b.layers):
        wa, ba, wb, bb = la.weights, la.biases, lb.weights, lb.biases
        total = 0.0
        for x, y in zip(wa.ravel().tolist(), wb.ravel().tolist()):
            total += (x - y) ** 2
        for x, y in zip(ba.tolist(), bb.tolist()):
            total += (x - y) ** 2
        expected = math.sqrt(total) / (wa.size + ba.size)
        assert abs(entry.distance - expected) < 1e-12


def test_distance_metric_properties():
    a, b, c = (random_snapshot(s) for s in (5, 6, 7))
    ab = layer_distance(a, b, "a", "b").distances()
    ba = layer_distance(b, a, "b", "a").distances()
    ac = layer_distance(a, c, "a", "c").distances()
    cb = layer_distance(c, b, "c", "b").distances()
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
    base = layer_distance(zero, one, "zero", "one").distances()
    scaled = layer_distance(zero, four, "zero", "four").distances()
    assert np.array_equal(scaled, 4.0 * base)


def test_distance_shape_mismatch():
    a = random_snapshot(1)
    b = random_snapshot(2, shapes=((4, 3), (2, 4)))
    with pytest.raises(ValueError):
        layer_distance(a, b, "a", "b")


def test_fold_change_identity_and_scaling():
    a = random_snapshot(10)
    b = random_snapshot(11)
    report = layer_distance(a, b, "a", "b")
    assert fold_change(report, report) == [1.0, 1.0, 1.0]

    doubled = layer_distance(
        snap([(np.zeros(la.weights.shape), np.zeros(la.biases.shape)) for la in a.layers]),
        snap([(2.0 * (la.weights - lb.weights), 2.0 * (la.biases - lb.biases))
              for la, lb in zip(a.layers, b.layers)]),
        "zero", "two",
    )
    ratios = fold_change(doubled, report)
    assert all(r == pytest.approx(2.0, rel=1e-12) for r in ratios)


def test_fold_change_zero_baseline_undefined():
    a = random_snapshot(12)
    nonzero = layer_distance(a, random_snapshot(13), "a", "b")
    zero = layer_distance(a, a, "a", "a")
    ratios = fold_change(nonzero, zero)
    assert ratios == [None, None, None]


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
    assert np.all(comparison.ftl_report.distances() == 0.0)


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
    assert comparison.ftl_report == layer_distance(
        full[(1, 3)], full[(2, 2)], "step1_epoch3", "step2_epoch2")
    assert comparison.baseline_report == layer_distance(
        single[(1, 3)], single[(1, 5)], "step1_epoch3", "step1_epoch5")
    assert np.all(comparison.ftl_report.distances() > 0.0)
    assert np.all(comparison.baseline_report.distances() > 0.0)


@pytest.mark.parametrize("reset", [False, True])
@pytest.mark.parametrize("delta", [0, 1, 2])
def test_protocol_fork_matches_independent_runs(tiny_ctx, reset, delta):
    schedule = replace(_two_step_schedule(e1=3, e2=2), reset_optimizer_between_steps=reset)
    comparison = weight_drift_protocol(schedule, tiny_ctx, delta=delta)
    full, single = _independent_runs(schedule, tiny_ctx, delta)
    ftl, base = comparison.ftl_result, comparison.baseline_result
    assert_same_snapshot(ftl.network, full[(2, delta)])
    assert_same_snapshot(base.network, single[(1, 3 + delta)])
    assert comparison.ftl_report == layer_distance(
        full[(1, 3)], full[(2, delta)], "step1_epoch3", f"step2_epoch{delta}")
    assert comparison.baseline_report == layer_distance(
        single[(1, 3)], single[(1, 3 + delta)], "step1_epoch3", f"step1_epoch{3 + delta}")
    # the protocol trains without per-epoch evaluation; the logs of forked
    # continuations are checked in test_ftl.py
    assert ftl.log.records == base.log.records == []
    assert ftl.at == (2, delta) and base.at == (1, 3 + delta)


def test_protocol_delta_bounds(tiny_ctx):
    with pytest.raises(ValueError):
        weight_drift_protocol(_two_step_schedule(e2=2), tiny_ctx, delta=3)


def test_drift_csv_format():
    a = random_snapshot(20, shapes=((2, 2),))
    b = random_snapshot(21, shapes=((2, 2),))
    report = layer_distance(a, b, "left", "right")
    zero_report = layer_distance(a, a, "left", "left")

    class Comparison:
        ftl_report = zero_report
        baseline_report = report
        fold_changes = fold_change(zero_report, report)

    lines = drift_csv_lines(Comparison)
    assert lines[0].startswith("# ftl: left -> left; baseline: left -> right")
    assert lines[1] == "layer,n_weights,dist_ftl,dist_baseline,fold_change"
    assert lines[2].startswith("0,6,0,")

    class Undefined:
        ftl_report = report
        baseline_report = zero_report
        fold_changes = fold_change(report, zero_report)

    assert drift_csv_lines(Undefined)[2].endswith(",NA")

