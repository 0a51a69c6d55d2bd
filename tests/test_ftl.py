import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tierflow.data import TierSpec, tier_filter
from tierflow.engine import DenseLayer, DenseNetwork
from tierflow.errors import DataError
from tierflow.ftl import (
    DataContext,
    MetricsLog,
    TrainSchedule,
    TrainStep,
    evaluate,
    metrics_csv_lines,
    run_experiment,
    train_ftl,
    train_single,
)

LOW = TierSpec(300, 700)
HIGH = TierSpec(700, 900)
VAL = TierSpec(900, 1000)

FAST = dict(batch_size=64, learning_rate=1e-3, hidden_layers=(8, 4))


def fast_schedule(steps, seed=1, **overrides):
    params = dict(validation_tier=VAL, seed=seed, **FAST)
    params.update(overrides)
    return TrainSchedule(steps=steps, **params)


def test_schedule_validation_tier_must_be_disjoint():
    with pytest.raises(ValueError, match="overlaps"):
        fast_schedule([TrainStep(TierSpec(800, 950), 1)])


def test_schedule_needs_steps():
    with pytest.raises(ValueError):
        fast_schedule([])


def test_step_needs_positive_epochs():
    with pytest.raises(ValueError):
        TrainStep(LOW, 0)


def test_degenerate_schedule_equals_train_single(tiny_ctx):
    ftl = train_ftl(fast_schedule([TrainStep(HIGH, 4)], seed=77), tiny_ctx)
    single = train_single(
        HIGH, 4, tiny_ctx, validation_tier=VAL, seed=77, **FAST
    )
    assert ftl.log.records == single.log.records
    for a, b in zip(ftl.network.parameters(), single.network.parameters()):
        assert np.array_equal(a, b)


def test_same_seed_bit_identical(tiny_ctx):
    sched = fast_schedule([TrainStep(LOW, 3), TrainStep(HIGH, 3)], seed=5)
    a = train_ftl(sched, tiny_ctx)
    b = train_ftl(sched, tiny_ctx)
    assert a.log.records == b.log.records
    for pa, pb in zip(a.network.parameters(), b.network.parameters()):
        assert np.array_equal(pa, pb)


def test_different_seed_differs(tiny_ctx):
    a = train_ftl(fast_schedule([TrainStep(HIGH, 3)], seed=1), tiny_ctx)
    b = train_ftl(fast_schedule([TrainStep(HIGH, 3)], seed=2), tiny_ctx)
    assert a.log.records != b.log.records


def test_step_continuity(tiny_ctx):
    sched = fast_schedule([TrainStep(LOW, 3), TrainStep(HIGH, 2)], seed=9)
    result = train_ftl(sched, tiny_ctx, frozenset({(2, 0)}))
    boundary = result.snapshots["step1_end"]
    start2 = result.snapshots["step2_epoch0"]
    for wa, wb in zip(boundary.weights, start2.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(boundary.biases, start2.biases):
        assert np.array_equal(ba, bb)


def pairs(ctx, keys):
    """Decode pair keys to (compound, protein) ids."""
    n_p = len(ctx.proteins)
    return {(ctx.compounds[k // n_p], ctx.proteins[k % n_p]) for k in keys.tolist()}


def test_filtering_semantics(tiny_ctx):
    sched = fast_schedule([TrainStep(LOW, 1), TrainStep(HIGH, 1)], seed=3)
    result = train_ftl(sched, tiny_ctx)
    table = tiny_ctx.interactions
    for step_data, step in zip(result.steps, sched.steps):
        mask = tier_filter(table, step.tier)
        expected = set(zip(table.compound_ids[mask].tolist(), table.protein_ids[mask].tolist()))
        assert pairs(tiny_ctx, step_data.positives) == expected


def test_validation_isolation(tiny_ctx):
    sched = fast_schedule([TrainStep(LOW, 2), TrainStep(HIGH, 2)], seed=4)
    result = train_ftl(sched, tiny_ctx)
    val_pairs = pairs(tiny_ctx, result.validation_positives)
    val_pairs |= pairs(tiny_ctx, result.validation_negatives)
    for step_data in result.steps:
        train_pairs = pairs(tiny_ctx, step_data.positives)
        train_pairs |= pairs(tiny_ctx, step_data.negatives)
        assert not train_pairs & val_pairs


def test_negatives_are_one_to_one_and_clean(tiny_ctx):
    result = train_ftl(fast_schedule([TrainStep(HIGH, 1)], seed=8), tiny_ctx)
    step = result.steps[0]
    assert len(step.negatives) == len(step.positives)
    table = tiny_ctx.interactions
    all_pos = set(zip(table.compound_ids.tolist(), table.protein_ids.tolist()))
    assert not pairs(tiny_ctx, step.negatives) & all_pos


def test_metrics_log_complete_audit_trail(tiny_ctx):
    sched = fast_schedule([TrainStep(LOW, 3), TrainStep(HIGH, 2)], seed=6)
    result = train_ftl(sched, tiny_ctx)
    seen = {(r.step, r.epoch, r.split) for r in result.log.records}
    expected = set()
    for k, epochs in ((1, 3), (2, 2)):
        for e in range(1, epochs + 1):
            expected.add((k, e, "train"))
            expected.add((k, e, "validation"))
    assert seen == expected
    assert len(result.log.records) == len(expected)


def test_empty_step_tier_rejected(tiny_ctx):
    with pytest.raises(DataError, match="no positives"):
        train_ftl(fast_schedule([TrainStep(TierSpec(0, 5), 1)], seed=1), tiny_ctx)


@pytest.mark.parametrize("metrics", [True, False])
def test_step_matrix_freed_before_next_gather(tiny_ctx, monkeypatch, metrics):
    # weak references to each gathered x, and which of them were still alive
    # when each later gather began
    gathered, alive = [], []
    gather = DataContext.feature_matrix

    def tracked(ctx, positives, negatives):
        alive.append([ref() is not None for ref in gathered])
        x, y = gather(ctx, positives, negatives)
        gathered.append(weakref.ref(x))
        return x, y

    monkeypatch.setattr(DataContext, "feature_matrix", tracked)
    result = train_ftl(
        fast_schedule([TrainStep(LOW, 1), TrainStep(HIGH, 1)], seed=4), tiny_ctx,
        metrics=metrics,
    )
    # the validation matrix lives on in the result; step 1's is gone by step 2
    assert alive == [[], [True], [True, False]]
    assert gathered[0]() is result.validation[0]


def test_evaluate_constant_half_predictor(tiny_ctx):
    net = DenseNetwork(
        [DenseLayer(np.zeros((1, tiny_ctx.feature_dim)), np.zeros(1), "sigmoid")],
        tiny_ctx.feature_dim,
    )
    pos = tiny_ctx.tier_keys(VAL, "validation")
    none = np.array([], dtype=np.int64)
    loss, acc = evaluate(net, *tiny_ctx.feature_matrix(pos, none))
    assert loss == pytest.approx(math.log(2), rel=1e-12)
    assert acc == 100.0  # every pair labeled 1, ties classify positive
    # compound "C000000" sorts first, so its pair with protein row j has key j
    n_p = len(tiny_ctx.proteins)
    negs = np.array([k % n_p for k in pos[:10].tolist()])
    negs = negs[~np.isin(negs, tiny_ctx.positive_keys)]
    loss2, acc2 = evaluate(net, *tiny_ctx.feature_matrix(pos, negs))
    assert loss2 == pytest.approx(math.log(2), rel=1e-12)
    assert acc2 == pytest.approx(100.0 * len(pos) / (len(pos) + len(negs)))


def test_evaluate_empty_rejected(tiny_ctx):
    net = DenseNetwork(
        [DenseLayer(np.zeros((1, tiny_ctx.feature_dim)), np.zeros(1), "sigmoid")],
        tiny_ctx.feature_dim,
    )
    with pytest.raises(ValueError):
        evaluate(net, np.zeros((0, tiny_ctx.feature_dim)), np.zeros(0))


def test_best_validation_extremes():
    log = MetricsLog()
    log.append(1, 1, "train", 0.9, 10.0)
    log.append(1, 1, "validation", 0.5, 60.0)
    log.append(1, 2, "validation", 0.3, 55.0)
    log.append(2, 1, "validation", 0.4, 70.0)
    loss, loss_at, acc, acc_at = log.best_validation()
    assert (loss, loss_at) == (0.3, (1, 2))
    assert (acc, acc_at) == (70.0, (2, 1))


def test_metrics_csv_format():
    log = MetricsLog()
    log.append(1, 1, "train", 0.123456789123, 98.7654321)
    lines = metrics_csv_lines(log, "baseline")
    assert lines[0] == "arm,step,epoch,split,loss,accuracy"
    assert lines[1] == "baseline,1,1,train,0.123456789,98.7654321"


def test_reset_optimizer_flag_changes_trajectory(tiny_ctx):
    steps = [TrainStep(LOW, 2), TrainStep(HIGH, 2)]
    keep = train_ftl(fast_schedule(steps, seed=11), tiny_ctx)
    reset = train_ftl(
        fast_schedule(steps, seed=11, reset_optimizer_between_steps=True), tiny_ctx
    )
    # identical through step 1, diverging in step 2
    s1_keep = [r for r in keep.log.records if r.step == 1]
    s1_reset = [r for r in reset.log.records if r.step == 1]
    assert s1_keep == s1_reset
    assert keep.log.records != reset.log.records


def test_run_experiment_identical_arms_zero_deltas(tiny_ctx):
    arms = {
        "a": fast_schedule([TrainStep(HIGH, 2)], seed=13),
        "b": fast_schedule([TrainStep(HIGH, 2)], seed=13),
    }
    result = run_experiment(arms, tiny_ctx)
    report = result.report_dict()
    assert report["deltas"]["a_vs_b"]["best_val_loss"] == 0.0
    assert report["deltas"]["a_vs_b"]["best_val_accuracy"] == 0.0
    assert result.arms["a"].log.records == result.arms["b"].log.records


def test_run_experiment_parallel_matches_sequential(tiny_ctx):
    arms = {
        "ftl": fast_schedule([TrainStep(LOW, 2), TrainStep(HIGH, 2)], seed=17),
        "baseline": fast_schedule([TrainStep(HIGH, 4)], seed=17),
    }
    seq = run_experiment(arms, tiny_ctx, jobs=1)
    par = run_experiment(arms, tiny_ctx, jobs=2)
    for name in seq.arms:
        assert seq.arms[name].log.records == par.arms[name].log.records


@pytest.mark.parametrize("fork_at", [(1, 2), (1, 3), (2, 1)])
def test_forked_run_resumes_bit_identical(tiny_ctx, fork_at):
    sched = fast_schedule(
        [TrainStep(LOW, 3), TrainStep(HIGH, 2)], seed=12, reset_optimizer_between_steps=True
    )
    full = train_ftl(sched, tiny_ctx)
    head = train_ftl(sched, tiny_ctx, stop=fork_at)
    tail = train_ftl(sched, tiny_ctx, start=head)
    assert head.at == fork_at and tail.at == full.at == (2, 2)
    assert head.log.records + tail.log.records == full.log.records
    for a, b in zip(tail.network.parameters(), full.network.parameters()):
        assert np.array_equal(a, b)
    # the fork itself is left untouched by the continuation
    again = train_ftl(sched, tiny_ctx, start=head)
    assert again.log.records == tail.log.records
    for net in (head.network, tail.network, again.network):
        for p in net.parameters():
            assert p.base is net.flat
    assert not np.shares_memory(tail.network.flat, head.network.flat)


@pytest.mark.parametrize("reset", [False, True])
@pytest.mark.parametrize("delta", [0, 1, 2])
def test_forked_continuations_log_like_independent_runs(tiny_ctx, reset, delta):
    # the drift protocol's forks with metrics on: step 2 entered at (1, 3), and
    # step 1 continued past its 3-epoch budget on the same data and streams
    sched = fast_schedule(
        [TrainStep(LOW, 3), TrainStep(HIGH, 2)], seed=2, reset_optimizer_between_steps=reset
    )
    prefix = train_ftl(sched, tiny_ctx, stop=(1, 3))
    ftl = train_ftl(sched, tiny_ctx, start=prefix, stop=(2, delta))
    base = train_ftl(sched, tiny_ctx, start=prefix, stop=(1, 3 + delta))
    full = train_ftl(sched, tiny_ctx)
    single = train_ftl(
        fast_schedule([TrainStep(LOW, 3 + delta)], seed=2, reset_optimizer_between_steps=reset),
        tiny_ctx,
    )
    assert ftl.at == (2, delta) and base.at == (1, 3 + delta)
    assert prefix.log.records == [r for r in single.log.records if r.epoch <= 3]
    assert prefix.log.records == [r for r in full.log.records if r.step == 1]
    assert ftl.log.records == [r for r in full.log.records if r.step == 2 and r.epoch <= delta]
    assert base.log.records == [r for r in single.log.records if r.epoch > 3]
    assert len(base.log.records) == 2 * delta


def fork_state(result):
    """Everything of a result that training, not evaluation, determines."""
    adam = result.adam
    return (
        result.network.flat.tobytes(), adam.t, adam.m.tobytes(), adam.v.tobytes(),
        {tag: b"".join(a.tobytes() for a in s.weights + s.biases)
         for tag, s in result.snapshots.items()},
        result.at,
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 50),
    reset=st.booleans(),
    fork=st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 1)]),
    end=st.sampled_from([(1, 4), (2, 1), (2, 2)]),
)
def test_metrics_off_trains_the_same_bits(tiny_ctx, seed, reset, fork, end):
    assume(end > fork)
    sched = fast_schedule(
        [TrainStep(LOW, 3), TrainStep(HIGH, 2)], seed=seed,
        reset_optimizer_between_steps=reset,
    )
    points = frozenset({(1, 2), (1, 4), (2, 0), (2, 1)})
    states = {}
    for metrics in (True, False):
        head = train_ftl(sched, tiny_ctx, points, stop=fork, metrics=metrics)
        tail = train_ftl(sched, tiny_ctx, points, start=head, stop=end, metrics=metrics)
        assert bool(head.log.records) == bool(tail.log.records) == metrics
        states[metrics] = (fork_state(head), fork_state(tail))
    assert states[True] == states[False]
