import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tierflow import ftl
from tierflow.data import InteractionTable, TierSpec, synth_generate, tier_filter
from tierflow.engine import (
    DenseLayer,
    DenseNetwork,
    accuracy,
    bce_loss,
    forward,
    init_network,
)
from tierflow.errors import DataError
from tierflow.ftl import _GATHER_ROWS as GATHER_ROWS
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
from tierflow.rng import RngStream
from conftest import latent_store, tiny_synth_config

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


def wide_context(step_positives):
    """A 500 x 400 grid with 64 + 64 wide latents, ``step_positives`` rows in
    LOW and 200 in VAL; rows of the same seed agree across sizes."""
    rng = np.random.default_rng(3)
    keys = rng.permutation(500 * 400)[:step_positives + 200]
    table = InteractionTable(
        [f"c{k // 400:03d}" for k in keys.tolist()], [f"p{k % 400:03d}" for k in keys.tolist()],
        [500] * step_positives + [950] * 200,
    )
    return DataContext(
        table,
        latent_store({f"c{i:03d}": rng.standard_normal(64) for i in range(500)}),
        latent_store({f"p{i:03d}": rng.standard_normal(64) for i in range(400)}),
    )


def train_peak(ctx, metrics):
    """tracemalloc peak above the start of one epoch of one step on LOW."""
    sched = fast_schedule([TrainStep(LOW, 1)], seed=4, batch_size=1000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train_ftl(sched, ctx, metrics=metrics)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("metrics", [True, False])
def test_step_peak_stays_below_one_step_matrix(metrics):
    # 8k positives + 8k negatives x 128 columns: a step matrix is 16.4 MB; one
    # 4096-row evaluation block is 4.2 MB
    small, large = wide_context(8000), wide_context(32000)
    step_matrix = 2 * 8000 * small.feature_dim * 8
    peak_small, peak_large = train_peak(small, metrics), train_peak(large, metrics)
    assert peak_small < step_matrix
    # four times the rows: the key arrays grow, but not by a matrix
    assert peak_large < step_matrix


def test_unknown_id_stops_the_step_before_it_trains(monkeypatch):
    data = synth_generate(tiny_synth_config())
    table = data.interactions
    updates = []
    adam_step = ftl.adam_step
    monkeypatch.setattr(ftl, "adam_step", lambda *args: (updates.append(1), adam_step(*args)))
    sched = fast_schedule([TrainStep(LOW, 2), TrainStep(HIGH, 1)])
    step1_batches = math.ceil(2 * int(tier_filter(table, LOW).sum()) / 64)
    # a pair of step 2, then one of the validation tier, with a compound that
    # has no features
    for score, expected in ((800, 2 * step1_batches), (950, 0)):
        ghost = InteractionTable(
            [*table.compound_ids.tolist(), "GHOST"],
            [*table.protein_ids.tolist(), str(table.protein_ids[0])],
            [*table.scores.tolist(), score],
        )
        ctx = DataContext(
            ghost, data.compounds.as_float_features(), data.proteins.as_float_features()
        )
        updates.clear()
        with pytest.raises(DataError, match="^unknown compound id 'GHOST'$"):
            train_ftl(sched, ctx)
        assert len(updates) == expected


def test_evaluate_constant_half_predictor(tiny_ctx):
    net = DenseNetwork(
        [DenseLayer(np.zeros((1, tiny_ctx.feature_dim)), np.zeros(1), "sigmoid")],
        tiny_ctx.feature_dim,
    )
    pos = tiny_ctx.tier_keys(VAL, "validation")
    loss, acc = evaluate(net, tiny_ctx, pos, np.ones(len(pos)))
    assert loss == pytest.approx(math.log(2), rel=1e-12)
    assert acc == 100.0  # every pair labeled 1, ties classify positive
    # compound "C000000" sorts first, so its pair with protein row j has key j
    n_p = len(tiny_ctx.proteins)
    negs = np.array([k % n_p for k in pos[:10].tolist()])
    negs = negs[~np.isin(negs, tiny_ctx.positive_keys)]
    keys = np.concatenate([pos, negs])
    loss2, acc2 = evaluate(net, tiny_ctx, keys, np.repeat([1.0, 0.0], [len(pos), len(negs)]))
    assert loss2 == pytest.approx(math.log(2), rel=1e-12)
    assert acc2 == pytest.approx(100.0 * len(pos) / (len(pos) + len(negs)))


def test_evaluate_empty_rejected(tiny_ctx):
    net = DenseNetwork(
        [DenseLayer(np.zeros((1, tiny_ctx.feature_dim)), np.zeros(1), "sigmoid")],
        tiny_ctx.feature_dim,
    )
    with pytest.raises(ValueError):
        evaluate(net, tiny_ctx, np.zeros(0, dtype=np.int64), np.zeros(0))


@pytest.mark.parametrize("n", [1, 777, GATHER_ROWS, GATHER_ROWS + 1, 3 * GATHER_ROWS + 5])
def test_blocked_evaluate_matches_the_whole_matrix(tiny_ctx, n):
    rng = np.random.default_rng(n)
    keys = rng.integers(0, len(tiny_ctx.compounds) * len(tiny_ctx.proteins), n)
    labels = (rng.random(n) < 0.5).astype(np.float64)
    net = init_network([16, 8, 1], tiny_ctx.feature_dim, rng=RngStream(n))
    loss, acc = evaluate(net, tiny_ctx, keys, labels)
    # the formula over the whole matrix in one forward pass
    x, _ = tiny_ctx.feature_matrix(keys, np.zeros(0, dtype=np.int64))
    out = forward(net, x, chain=False)[-1]
    reference = bce_loss(out, labels), accuracy(out, labels)
    if n <= GATHER_ROWS:
        assert (loss, acc) == reference
    else:
        assert loss == pytest.approx(reference[0], rel=1e-12)
        assert acc == pytest.approx(reference[1], rel=1e-12)


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
