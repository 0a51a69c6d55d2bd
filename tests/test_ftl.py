import math
import multiprocessing
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tierflow import ftl
from tierflow.data import (
    GATHER_ROWS,
    DataContext,
    InteractionTable,
    TierSpec,
    synth_generate,
    tier_filter,
)
from tierflow.engine import (
    DenseLayer,
    DenseNetwork,
    accuracy,
    bce_loss,
    forward,
    init_network,
)
from tierflow.errors import DataError
from tierflow.ftl import (
    MetricsLog,
    TrainSchedule,
    TrainStep,
    evaluate,
    metrics_csv_lines,
    report_dict,
    run_experiment,
    train_ftl,
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


def test_degenerate_schedule_equals_first_step(tiny_ctx):
    # a one-step baseline is the first step of a longer schedule on its tier
    base = train_ftl(fast_schedule([TrainStep(HIGH, 4)], seed=77), tiny_ctx)
    two_step = fast_schedule([TrainStep(HIGH, 4), TrainStep(LOW, 2)], seed=77)
    head = train_ftl(two_step, tiny_ctx, stop=(1, 4))
    assert base.at == head.at == (1, 4)
    assert base.log.records == head.log.records
    for a, b in zip(base.network.parameters(), head.network.parameters(), strict=True):
        assert np.array_equal(a, b)
    assert np.array_equal(base.adam.m, head.adam.m) and np.array_equal(base.adam.v, head.adam.v)


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
    boundary = train_ftl(sched, tiny_ctx, stop=(1, 3))
    start2 = train_ftl(sched, tiny_ctx, stop=(2, 0))
    assert (boundary.at, start2.at) == ((1, 3), (2, 0))
    for wa, wb in zip(boundary.network.layers, start2.network.layers, strict=True):
        assert np.array_equal(wa.weights, wb.weights)
        assert np.array_equal(wa.biases, wb.biases)


@pytest.fixture
def step_keys(monkeypatch):
    """``step_keys()`` lists the (positives, negatives) pair keys of every
    training step the test has run, in order, as ``train_ftl`` drew them."""
    positives, negatives = [], []
    tier_keys, sample = ftl.tier_keys, ftl.sample_negatives

    def record_tier_keys(ctx, tier, role):
        positives.append((role, tier_keys(ctx, tier, role)))
        return positives[-1][1]

    def record_negatives(*args):
        negatives.append(sample(*args))
        return negatives[-1]

    monkeypatch.setattr(ftl, "tier_keys", record_tier_keys)
    monkeypatch.setattr(ftl, "sample_negatives", record_negatives)
    # a run draws its validation negatives first, then each step's right
    # after that step's positives
    return lambda: [
        (keys, neg) for (role, keys), neg in zip(positives, negatives, strict=True)
        if role != "validation"
    ]


def pairs(ctx, keys):
    """Decode pair keys to (compound, protein) ids."""
    n_p = len(ctx.proteins)
    return {(ctx.compounds[k // n_p], ctx.proteins[k % n_p]) for k in keys.tolist()}


def test_filtering_semantics(tiny_ctx, step_keys):
    sched = fast_schedule([TrainStep(LOW, 1), TrainStep(HIGH, 1)], seed=3)
    train_ftl(sched, tiny_ctx)
    table = tiny_ctx.interactions
    for (positives, _), step in zip(step_keys(), sched.steps, strict=True):
        mask = tier_filter(table, step.tier)
        expected = set(zip(table.compound_ids[mask].tolist(), table.protein_ids[mask].tolist()))
        assert pairs(tiny_ctx, positives) == expected


def test_validation_isolation(tiny_ctx, step_keys):
    sched = fast_schedule([TrainStep(LOW, 2), TrainStep(HIGH, 2)], seed=4)
    result = train_ftl(sched, tiny_ctx)
    val_pairs = pairs(tiny_ctx, result.validation_positives)
    val_pairs |= pairs(tiny_ctx, result.validation_negatives)
    assert len(step_keys()) == 2
    for positives, negatives in step_keys():
        train_pairs = pairs(tiny_ctx, positives)
        train_pairs |= pairs(tiny_ctx, negatives)
        assert not train_pairs & val_pairs


def test_negatives_are_one_to_one_and_clean(tiny_ctx, step_keys):
    train_ftl(fast_schedule([TrainStep(HIGH, 1)], seed=8), tiny_ctx)
    [(positives, negatives)] = step_keys()
    assert len(negatives) == len(positives)
    table = tiny_ctx.interactions
    all_pos = set(zip(table.compound_ids.tolist(), table.protein_ids.tolist()))
    assert not pairs(tiny_ctx, negatives) & all_pos


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
        ctx = DataContext(ghost, data.compounds, data.proteins)
        updates.clear()
        with pytest.raises(DataError, match="^unknown compound id 'GHOST'$"):
            train_ftl(sched, ctx)
        assert len(updates) == expected


def test_evaluate_constant_half_predictor(tiny_ctx):
    net = DenseNetwork(
        [DenseLayer(np.zeros((1, tiny_ctx.feature_dim)), np.zeros(1), "sigmoid")],
        tiny_ctx.feature_dim,
    )
    pos = ftl.tier_keys(tiny_ctx, VAL, "validation")
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
    results = run_experiment(arms, tiny_ctx)
    report = report_dict({name: result.log for name, result in results.items()})
    assert report["deltas"]["a_vs_b"]["best_val_loss"] == 0.0
    assert report["deltas"]["a_vs_b"]["best_val_accuracy"] == 0.0
    assert results["a"].log.records == results["b"].log.records


def test_run_experiment_parallel_matches_sequential(tiny_ctx):
    arms = {
        "ftl": fast_schedule([TrainStep(LOW, 2), TrainStep(HIGH, 2)], seed=17),
        "baseline": fast_schedule([TrainStep(HIGH, 4)], seed=17),
    }
    seq = run_experiment(arms, tiny_ctx, jobs=1)
    par = run_experiment(arms, tiny_ctx, jobs=2)
    assert list(seq) == list(par) == ["baseline", "ftl"]
    for name in seq:
        assert seq[name].log.records == par[name].log.records
        assert seq[name].at == par[name].at
        assert np.array_equal(seq[name].network.flat, par[name].network.flat)


def test_failed_arm_stops_the_other_workers(tiny_ctx):
    # the first arm's tier holds no positives; the second trains for about 20 s
    arms = {
        "empty": fast_schedule([TrainStep(TierSpec(0, 300), 1)]),
        "long": fast_schedule([TrainStep(HIGH, 20_000)]),
    }
    with pytest.raises(DataError, match=r"step 1 tier \[0,300\) has no positives"):
        run_experiment(arms, tiny_ctx, jobs=2)
    for worker in multiprocessing.active_children():
        worker.join(timeout=5)
    assert not multiprocessing.active_children()


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
        result.network.flat.tobytes(), adam.t, adam.m.tobytes(), adam.v.tobytes(), result.at,
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
    states = {}
    for metrics in (True, False):
        head = train_ftl(sched, tiny_ctx, stop=fork, metrics=metrics)
        tail = train_ftl(sched, tiny_ctx, start=head, stop=end, metrics=metrics)
        assert bool(head.log.records) == bool(tail.log.records) == metrics
        states[metrics] = (fork_state(head), fork_state(tail))
    assert states[True] == states[False]
