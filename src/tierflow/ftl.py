"""Stepwise training across label-confidence tiers; a baseline is a one-step schedule.

A schedule is an ordered list of (tier, epochs) steps.  Step 1 starts from a
fresh initialization; every later step continues from the previous step's
weights and, unless told otherwise, its Adam moments.  Each step trains on
that tier's positives plus an equal number of freshly sampled negatives; the
validation tier is held out entirely and scored after every epoch (the drift
protocol, which compares weights only, asks for no scores).

A run returns its fork (:class:`FtlResult`): the network and Adam state where
it stopped, which a later run may continue from.  The network is the run's
weight snapshot; a continuation trains a copy of it.  An experiment arm's
outcome is its run's fork.  The data a run reads is a ``data.DataContext``.

Randomness is split into independent streams derived from the schedule seed
(init / validation negatives / per-step negatives / per-epoch shuffles), so
extending one step never reshuffles another and two runs that share a prefix
of the schedule are bit-identical over that prefix.
"""

from __future__ import annotations

import copy
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .data import (
    DataContext,
    DataError,
    TierSpec,
    index_of,
    labels,
    sample_negatives,
    tier_filter,
)
from .engine import (
    AdamState,
    DenseNetwork,
    accuracy,
    adam_step,
    backward,
    bce_loss,
    check_sizes_and_rate,
    forward,
    init_network,
    sigmoid_bce,
)
from .errors import ConfigError
from .rng import RngStream


@dataclass(frozen=True)
class TrainStep:
    tier: TierSpec
    epochs: int

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"step over {self.tier} needs epochs >= 1")


@dataclass
class TrainSchedule:
    """One arm's full run plan; a baseline is a one-step schedule."""

    steps: list[TrainStep]
    validation_tier: TierSpec
    batch_size: int = 1000
    learning_rate: float = 0.001
    seed: int = 0
    hidden_layers: tuple[int, ...] = (128, 64, 32, 16, 8)
    reset_optimizer_between_steps: bool = False

    def __post_init__(self):
        self.hidden_layers = tuple(self.hidden_layers)
        if not self.steps:
            raise ValueError("schedule needs at least one step")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        check_sizes_and_rate("hidden layer", self.hidden_layers, self.learning_rate)
        for step in self.steps:
            if step.tier.overlaps(self.validation_tier):
                raise ValueError(
                    f"training tier {step.tier} overlaps validation tier "
                    f"{self.validation_tier}"
                )


@dataclass(frozen=True)
class MetricsRecord:
    step: int
    epoch: int
    split: str
    loss: float
    accuracy: float


@dataclass
class MetricsLog:
    records: list[MetricsRecord] = field(default_factory=list)

    def append(self, step: int, epoch: int, split: str, loss: float, acc: float) -> None:
        self.records.append(MetricsRecord(step, epoch, split, loss, acc))

    def best_validation(self) -> tuple[float, tuple[int, int], float, tuple[int, int]]:
        """(min loss, its (step, epoch), max accuracy, its (step, epoch)).

        Loss and accuracy extremes are located independently; ties resolve to
        the earliest epoch.
        """
        val = [r for r in self.records if r.split == "validation"]
        if not val:
            raise ValueError("no validation records logged")
        loss, acc = min(val, key=lambda r: r.loss), max(val, key=lambda r: r.accuracy)
        return loss.loss, (loss.step, loss.epoch), acc.accuracy, (acc.step, acc.epoch)


def metrics_csv_lines(log: MetricsLog, arm: str) -> list[str]:
    """Rows for the metrics CSV: arm,step,epoch,split,loss,accuracy (9 sig digits)."""
    lines = ["arm,step,epoch,split,loss,accuracy"]
    for r in log.records:
        lines.append(
            f"{arm},{r.step},{r.epoch},{r.split},{r.loss:.9g},{r.accuracy:.9g}"
        )
    return lines


def tier_keys(ctx: DataContext, tier: TierSpec, role: str) -> np.ndarray:
    """Keys of the table's positives in ``tier``, in table order; a DataError
    names the unknown id of the first one without features."""
    mask = tier_filter(ctx.interactions, tier)
    keys = ctx.row_keys[mask]
    if not keys.size:
        raise DataError(f"{role} tier {tier} has no positives")
    if keys.min() < 0:
        compound, protein = ctx.interactions.pair(np.flatnonzero(mask)[np.argmin(keys)])
        if protein not in ctx.proteins:
            raise DataError(f"unknown protein id {protein!r}")
        raise DataError(f"unknown compound id {compound!r}")
    return keys


@dataclass
class FtlResult:
    """A run's fork: its net, Adam state and validation keys at ``at``, where
    it stopped, plus the log of the epochs it evaluated."""

    network: DenseNetwork
    log: MetricsLog
    validation_positives: np.ndarray  # pair keys
    validation_negatives: np.ndarray
    adam: AdamState
    at: tuple[int, int]


def evaluate(
    net: DenseNetwork, ctx: DataContext, keys: np.ndarray, labels: np.ndarray,
    rows: np.ndarray,
) -> tuple[float, float]:
    """Mean BCE and threshold-0.5 accuracy over the pairs ``keys``; a pure
    function apart from overwriting ``rows``.

    ``rows`` is a gather buffer as ``DataContext.rows`` takes it: the forward
    pass runs over ``len(rows)``-row blocks of the keys, each gathered into
    it, and fills one output vector, which the loss and accuracy read whole.
    The block size is part of the arithmetic, because a matrix product's
    summation order may depend on its row count: on OpenBLAS 0.3.31 (SkylakeX
    core, one thread) the 8 -> 1 output layer can differ in the last ulp in a
    block's last few rows, while :func:`train_ftl`'s blocks keep every digest
    pinned on that build.
    """
    if not len(keys):
        raise ValueError("evaluate needs a non-empty example set")
    out = np.empty(len(keys))
    for at in range(0, len(keys), len(rows)):
        block = ctx.rows(keys[at:at + len(rows)], rows)
        out[at:at + len(block)] = forward(net, block, chain=False)[-1].reshape(-1)
    return bce_loss(out, labels), accuracy(out, labels)


def train_ftl(
    schedule: TrainSchedule,
    ctx: DataContext,
    start: FtlResult | None = None,
    stop: tuple[int, int] | None = None,
    *,
    metrics: bool = True,
) -> FtlResult:
    """Run the stepwise schedule; returns the net, metrics and fork.

    ``start`` forks an earlier result of the same schedule: its net and Adam
    state are copied, its validation keys reused, and training resumes after
    its ``at`` (step, epoch).  The start's net is left untouched, so it stays
    the weights at its ``at``.
    ``stop=(k, e)`` ends the run after epoch ``e`` of step ``k``, which may pass
    that step's budget; ``e = 0`` stops before step ``k``'s first update.
    The log holds only the epochs this call trained.
    With ``metrics=False`` no epoch is evaluated and the log stays empty;
    evaluation is a pure function of the net, so everything else is the same.
    No step matrix is built: each step gathers every batch and every
    evaluation block from pair keys into one buffer of
    ``min(max(step pairs, validation pairs), batch_size)`` rows, so each
    example set is scored in blocks of ``min(its size, batch_size)`` rows,
    and a batch's output pre-activation, then its loss gradient, goes to a
    logits column as long as that buffer.
    """
    root = RngStream(schedule.seed)
    if start is None:
        val_pos = tier_keys(ctx, schedule.validation_tier, "validation")
        val_negs = sample_negatives(
            len(ctx.compounds), len(ctx.proteins), ctx.positive_keys, len(val_pos),
            root.spawn("validation-negatives"),
        )
        net = init_network(
            list(schedule.hidden_layers) + [1], ctx.feature_dim, None,
            root.spawn("init"),
        )
        adam = AdamState.create(net.flat.size, schedule.learning_rate)
    else:
        val_pos, val_negs = start.validation_positives, start.validation_negatives
        net, adam = start.network.copy(), copy.deepcopy(start.adam)
    grad = np.empty_like(net.flat)
    val_keys = np.concatenate([val_pos, val_negs])
    val_labels = labels(val_pos, val_negs)
    # their union: the positives are unique and val_negs avoids them
    forbidden = np.sort(np.concatenate([ctx.positive_keys, val_negs]))
    stop_step, stop_epoch = stop or (len(schedule.steps), schedule.steps[-1].epochs)
    start_step, start_epoch = stopped = start.at if start else (1, 0)

    log = MetricsLog()

    for k, step in enumerate(schedule.steps[:stop_step], start=1):
        first = start_epoch + 1 if k == start_step else 1
        last = stop_epoch if k == stop_step else step.epochs
        if k < start_step or first > max(last, 1):
            continue
        positives = tier_keys(ctx, step.tier, f"step {k}")
        negatives = sample_negatives(
            len(ctx.compounds), len(ctx.proteins), forbidden, len(positives),
            root.spawn("negatives", k),
        )
        keys = np.concatenate([positives, negatives])
        if (index_of(np.sort(val_keys), keys) >= 0).any():
            raise DataError(f"step {k}: validation pairs leaked into a training step")

        y = labels(positives, negatives)
        n = len(keys)
        batch = np.empty((min(max(n, len(val_keys)), schedule.batch_size), ctx.feature_dim))
        logits = np.empty((len(batch), 1))
        if first == 1 and schedule.reset_optimizer_between_steps and k > 1:
            adam = AdamState.create(net.flat.size, schedule.learning_rate)

        for epoch in range(first, last + 1):
            order = root.spawn("shuffle", k, epoch).permutation(n)
            for at in range(0, n, schedule.batch_size):
                idx = order[at:at + schedule.batch_size]
                z = logits[:len(idx)]
                acts = forward(net, ctx.rows(keys[idx], batch), logits=z)
                sigmoid_bce(z, y[idx, None])
                backward(net, acts, z, grad)
                adam_step(adam, net.flat, grad)
            if metrics:
                log.append(k, epoch, "train", *evaluate(net, ctx, keys, y, batch))
                log.append(k, epoch, "validation",
                           *evaluate(net, ctx, val_keys, val_labels, batch))
        stopped = (k, last)

    return FtlResult(net, log, val_pos, val_negs, adam, stopped)


def report_dict(logs: Mapping[str, MetricsLog]) -> dict:
    """Each arm's validation bests plus pairwise deltas, arms ordered by name."""
    names = sorted(logs)
    report: dict = {"arms": {}, "deltas": {}}
    for name in names:
        loss, loss_at, acc, acc_at = logs[name].best_validation()
        report["arms"][name] = {
            "best_val_loss": loss,
            "best_val_accuracy": acc,
            "epoch_of_best": {"loss": list(loss_at), "accuracy": list(acc_at)},
        }
    arms = report["arms"]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            report["deltas"][f"{a}_vs_{b}"] = {
                key: arms[a][key] - arms[b][key] for key in ("best_val_loss", "best_val_accuracy")
            }
    return report


def run_experiment(
    arms: Mapping[str, TrainSchedule], ctx: DataContext, jobs: int = 1
) -> dict[str, FtlResult]:
    """Run every named arm on the same data; each arm's result, by name in order.

    Arms are independent; with jobs > 1 they run in separate processes and the
    results are identical to a sequential run.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(arms) == 1:
        results = {name: train_ftl(schedule, ctx) for name, schedule in arms.items()}
    else:
        import multiprocessing
        from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
        from functools import partial

        # one single-worker pool per arm names the arm whose worker dies; workers are
        # spawned (a fork would copy other pools' threads) with the caller's np.seterr
        spawn = multiprocessing.get_context("spawn")
        initializer = partial(np.seterr, **np.geterr())
        todo, running, results = list(arms.items())[::-1], {}, {}
        try:
            while todo or running:
                while todo and len(running) < jobs:
                    name, schedule = todo.pop()
                    pool = ProcessPoolExecutor(1, spawn, initializer=initializer)
                    future = pool.submit(train_ftl, schedule, ctx)
                    [worker] = pool._processes.values()  # its exit code tells how it ended
                    running[future] = name, pool, worker
                for future in wait(running, return_when=FIRST_COMPLETED).done:
                    name, pool, worker = running.pop(future)
                    pool.shutdown()  # joins the worker
                    if isinstance(future.exception(), BrokenExecutor):
                        code = worker.exitcode
                        raise BrokenExecutor(
                            f"the worker process of arm {name!r} ended abruptly "
                            + (f"(signal {-code})" if code < 0 else f"(exit code {code})"))
                    results[name] = future.result()
        except BaseException:  # a dead worker, a failed arm or an interrupt
            # the other arms' workers; the caller's own processes are left alone
            for *_, worker in running.values():
                worker.terminate()
            for _, pool, worker in running.values():
                worker.join()
                pool.shutdown()
            raise
    return {name: results[name] for name in sorted(results)}
