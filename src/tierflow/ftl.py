"""Stepwise training across label-confidence tiers, plus single-tier baselines.

A schedule is an ordered list of (tier, epochs) steps.  Step 1 starts from a
fresh initialization; every later step continues from the previous step's
weights and, unless told otherwise, its Adam moments.  Each step trains on
that tier's positives plus an equal number of freshly sampled negatives; the
validation tier is held out entirely and scored after every epoch (the drift
protocol, which compares weights only, asks for no scores).

A run returns its fork (:class:`FtlResult`): the network and Adam state where
it stopped, which a later run may continue from.  The network is the run's
weight snapshot; a continuation trains a copy of it.

Randomness is split into independent streams derived from the schedule seed
(init / validation negatives / per-step negatives / per-epoch shuffles), so
extending one step never reshuffles another and two runs that share a prefix
of the schedule are bit-identical over that prefix.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field

import numpy as np

from .data import (
    DataError,
    FeatureStore,
    InteractionTable,
    TierSpec,
    index_of,
    sample_negatives,
    tier_filter,
)
from .engine import (
    AdamState,
    DenseNetwork,
    accuracy,
    adam_step,
    backward,
    bce_gradient,
    bce_loss,
    check_sizes_and_rate,
    forward,
    init_network,
)
from .errors import ConfigError
from .rng import RngStream, derive_seed


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

    def validation_records(self) -> list[MetricsRecord]:
        return [r for r in self.records if r.split == "validation"]

    def best_validation(self) -> tuple[float, tuple[int, int], float, tuple[int, int]]:
        """(min loss, its (step, epoch), max accuracy, its (step, epoch)).

        Loss and accuracy extremes are located independently; ties resolve to
        the earliest epoch.
        """
        val = self.validation_records()
        if not val:
            raise ValueError("no validation records logged")
        best_loss = min(val, key=lambda r: r.loss)
        best_acc = max(val, key=lambda r: r.accuracy)
        return (
            best_loss.loss,
            (best_loss.step, best_loss.epoch),
            best_acc.accuracy,
            (best_acc.step, best_acc.epoch),
        )


def metrics_csv_lines(log: MetricsLog, arm: str) -> list[str]:
    """Rows for the metrics CSV: arm,step,epoch,split,loss,accuracy (9 sig digits)."""
    lines = ["arm,step,epoch,split,loss,accuracy"]
    for r in log.records:
        lines.append(
            f"{arm},{r.step},{r.epoch},{r.split},{r.loss:.9g},{r.accuracy:.9g}"
        )
    return lines


# rows per evaluation block and per block of a feature gather: a block's
# index and feature temporaries stay a few MB.  A blocked forward may differ
# from a whole-matrix one in the last ulp; 4096 keeps the benchmark's pinned
# digests on the build that pinned them, so changing it may change metrics
_GATHER_ROWS = 4096


def _sorted_into(store: FeatureStore, out: np.ndarray) -> np.ndarray:
    """The store's ids sorted; its matrix rows are widened to float64 into
    ``out`` in that order (a float64 matrix is not copied first)."""
    ids = np.array(store.ids, dtype=str)
    order = np.argsort(ids, kind="stable")
    np.take(store.matrix.astype(np.float64, copy=False), order, axis=0, out=out)
    return ids[order]


@dataclass
class DataContext:
    """Everything a training run consumes: positives, features, id universes.

    Built once from the three fields and kept as arrays, so the feature stores
    are not held (nor pickled into ``--jobs`` workers): ``compounds`` and
    ``proteins`` are the sorted id arrays.  The feature rows in sorted-id
    order, widened to float64, live in one stacked table, protein rows first,
    cut into sub-rows ``g = gcd(wp, wc)`` wide; ``protein_matrix`` and
    ``compound_matrix`` are views of it.  A pair is the int64 key
    ``ci * len(proteins) + pi`` of its compound and protein rows.
    ``row_keys`` holds each record's key, or -1 where an id has no features,
    and ``positive_keys`` the sorted keys of the records with known ids.
    """

    interactions: InteractionTable
    compound_features: InitVar[FeatureStore]
    protein_features: InitVar[FeatureStore]

    def __post_init__(self, compound_features: FeatureStore, protein_features: FeatureStore):
        self._widths = wp, wc = protein_features.width, compound_features.width
        self._g = g = math.gcd(wp, wc) or 1
        # the sub-row where the compound rows start
        self._split = len(protein_features) * wp // g
        self._table = np.empty((self._split + len(compound_features) * wc // g, g))
        self.proteins = _sorted_into(
            protein_features, self._table[:self._split].reshape(len(protein_features), wp))
        self.compounds = _sorted_into(
            compound_features, self._table[self._split:].reshape(len(compound_features), wc))
        t = self.interactions
        # each distinct id is looked up once
        ci = index_of(self.compounds, t.compound_vocab)[t.compound_codes]
        pi = index_of(self.proteins, t.protein_vocab)[t.protein_codes]
        self.row_keys = np.where((ci < 0) | (pi < 0), -1, ci * len(self.proteins) + pi)
        self.positive_keys = np.sort(self.row_keys[self.row_keys >= 0])

    @property
    def protein_matrix(self) -> np.ndarray:
        return self._table[:self._split].reshape(len(self.proteins), self._widths[0])

    @property
    def compound_matrix(self) -> np.ndarray:
        return self._table[self._split:].reshape(len(self.compounds), self._widths[1])

    @property
    def feature_dim(self) -> int:
        return sum(self._widths)

    def tier_keys(self, tier: TierSpec, role: str) -> np.ndarray:
        """Keys of the table's positives in ``tier``, in table order; a DataError
        names the unknown id of the first one without features."""
        mask = tier_filter(self.interactions, tier)
        keys = self.row_keys[mask]
        if not keys.size:
            raise DataError(f"{role} tier {tier} has no positives")
        if keys.min() < 0:
            row, t = np.flatnonzero(mask)[np.argmin(keys)], self.interactions
            if t.protein_ids[row] not in self.proteins:
                raise DataError(f"unknown protein id {str(t.protein_ids[row])!r}")
            raise DataError(f"unknown compound id {str(t.compound_ids[row])!r}")
        return keys

    def rows(self, keys: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the ``[protein features || compound features]`` row of each pair
        key into ``out[:len(keys)]`` and return that view.

        ``out`` is a C-contiguous float64 array ``feature_dim`` wide; the rows
        are copied bit for bit from the stacked table by one ``np.take``.
        """
        n_grid = len(self.compounds) * len(self.proteins)
        if keys.size and (keys.min() < 0 or keys.max() >= n_grid):
            raise ValueError(f"pair keys must lie in [0, {n_grid})")
        if not out.flags.c_contiguous or out.shape[1:] != (self.feature_dim,):
            raise ValueError(f"out must be C-contiguous and {self.feature_dim} wide")
        (wp, wc), g = self._widths, self._g
        kp, kc = wp // g, wc // g
        ci, pi = np.divmod(keys, len(self.proteins))
        subrows = np.empty((len(keys), kp + kc), np.intp)
        np.add.outer(pi * kp, np.arange(kp), out=subrows[:, :kp])
        np.add.outer(ci * kc + self._split, np.arange(kc), out=subrows[:, kp:])
        block = out[:len(keys)]
        # the keys are range-checked above; mode="raise" would buffer the output
        np.take(self._table, subrows, axis=0, out=block.reshape(len(keys), kp + kc, g),
                mode="clip")
        return block

    def feature_matrix(
        self, positive_keys: np.ndarray, negative_keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the positives then the negatives, and their labels.

        Training and evaluation gather from keys and never call this; it
        builds the whole matrix ``_GATHER_ROWS`` rows at a time through
        :meth:`rows`.
        """
        keys = np.concatenate([positive_keys, negative_keys])
        x = np.empty((len(keys), self.feature_dim))
        for at in range(0, len(keys), _GATHER_ROWS):
            self.rows(keys[at:at + _GATHER_ROWS], x[at:])
        return x, _labels(positive_keys, negative_keys)


def _labels(positive_keys: np.ndarray, negative_keys: np.ndarray) -> np.ndarray:
    """1.0 for each positive, then 0.0 for each negative."""
    return np.repeat([1.0, 0.0], [len(positive_keys), len(negative_keys)])


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
    net: DenseNetwork, ctx: DataContext, keys: np.ndarray, labels: np.ndarray
) -> tuple[float, float]:
    """Mean BCE and threshold-0.5 accuracy over the pairs ``keys``; pure function.

    The forward pass runs over ``_GATHER_ROWS``-row blocks gathered from the
    keys into one output vector, which the loss and accuracy then read whole.
    """
    if not len(keys):
        raise ValueError("evaluate needs a non-empty example set")
    out = np.empty(len(keys))
    block = np.empty((min(len(keys), _GATHER_ROWS), ctx.feature_dim))
    for at in range(0, len(keys), _GATHER_ROWS):
        rows = ctx.rows(keys[at:at + _GATHER_ROWS], block)
        out[at:at + len(rows)] = forward(net, rows, chain=False)[-1].reshape(-1)
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
    No step matrix is built: every batch and every evaluation block is
    gathered from the step's pair keys.
    """
    if start is None:
        val_pos = ctx.tier_keys(schedule.validation_tier, "validation")
        val_negs = sample_negatives(
            len(ctx.compounds), len(ctx.proteins), ctx.positive_keys, len(val_pos),
            RngStream(derive_seed(schedule.seed, "validation-negatives")),
        )
        net = init_network(
            list(schedule.hidden_layers) + [1], ctx.feature_dim, None,
            RngStream(derive_seed(schedule.seed, "init")),
        )
        adam = AdamState.create(net.flat.size, schedule.learning_rate)
    else:
        val_pos, val_negs = start.validation_positives, start.validation_negatives
        net, adam = start.network.copy(), copy.deepcopy(start.adam)
    grad = np.empty_like(net.flat)
    val_keys = np.concatenate([val_pos, val_negs])
    val_labels = _labels(val_pos, val_negs)
    forbidden = np.union1d(ctx.positive_keys, val_negs)
    stop_step, stop_epoch = stop or (len(schedule.steps), schedule.steps[-1].epochs)
    start_step, start_epoch = stopped = start.at if start else (1, 0)

    log = MetricsLog()

    for k, step in enumerate(schedule.steps[:stop_step], start=1):
        first = start_epoch + 1 if k == start_step else 1
        last = stop_epoch if k == stop_step else step.epochs
        if k < start_step or first > max(last, 1):
            continue
        positives = ctx.tier_keys(step.tier, f"step {k}")
        negatives = sample_negatives(
            len(ctx.compounds), len(ctx.proteins), forbidden, len(positives),
            RngStream(derive_seed(schedule.seed, "negatives", k)),
        )
        keys = np.concatenate([positives, negatives])
        if np.intersect1d(keys, val_keys).size:
            raise DataError(f"step {k}: validation pairs leaked into a training step")

        labels = _labels(positives, negatives)
        n = len(keys)
        batch = np.empty((min(n, schedule.batch_size), ctx.feature_dim))
        if first == 1 and schedule.reset_optimizer_between_steps and k > 1:
            adam = AdamState.create(net.flat.size, schedule.learning_rate)

        for epoch in range(first, last + 1):
            order = RngStream(derive_seed(schedule.seed, "shuffle", k, epoch)).permutation(n)
            for at in range(0, n, schedule.batch_size):
                idx = order[at:at + schedule.batch_size]
                acts = forward(net, ctx.rows(keys[idx], batch))
                backward(net, acts, bce_gradient(acts[-1], labels[idx]), grad)
                adam_step(adam, net.flat, grad)
            if metrics:
                log.append(k, epoch, "train", *evaluate(net, ctx, keys, labels))
                log.append(k, epoch, "validation", *evaluate(net, ctx, val_keys, val_labels))
        stopped = (k, last)

    return FtlResult(net, log, val_pos, val_negs, adam, stopped)


def train_single(
    tier: TierSpec,
    epochs: int,
    ctx: DataContext,
    *,
    validation_tier: TierSpec,
    **settings,
) -> FtlResult:
    """Fresh-initialization baseline on one tier; a degenerate 1-step schedule.

    ``settings`` are :class:`TrainSchedule` fields (batch size, learning rate,
    seed, hidden layers), with its defaults.
    """
    schedule = TrainSchedule([TrainStep(tier, epochs)], validation_tier, **settings)
    return train_ftl(schedule, ctx)


@dataclass
class ArmOutcome:
    name: str
    network: DenseNetwork
    log: MetricsLog
    best_val_loss: float
    best_val_accuracy: float
    best_loss_at: tuple[int, int]
    best_acc_at: tuple[int, int]


@dataclass
class ExperimentResult:
    arms: dict[str, ArmOutcome]

    def report_dict(self) -> dict:
        """Per-arm bests plus pairwise deltas, arms ordered by name."""
        names = sorted(self.arms)
        report: dict = {"arms": {}, "deltas": {}}
        for name in names:
            arm = self.arms[name]
            report["arms"][name] = {
                "best_val_loss": arm.best_val_loss,
                "best_val_accuracy": arm.best_val_accuracy,
                "epoch_of_best": {
                    "loss": list(arm.best_loss_at),
                    "accuracy": list(arm.best_acc_at),
                },
            }
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                report["deltas"][f"{a}_vs_{b}"] = {
                    "best_val_loss": self.arms[a].best_val_loss - self.arms[b].best_val_loss,
                    "best_val_accuracy": (
                        self.arms[a].best_val_accuracy - self.arms[b].best_val_accuracy
                    ),
                }
        return report


def _run_arm(name: str, schedule: TrainSchedule, ctx: DataContext) -> ArmOutcome:
    result = train_ftl(schedule, ctx)
    loss, loss_at, acc, acc_at = result.log.best_validation()
    return ArmOutcome(name, result.network, result.log, loss, acc, loss_at, acc_at)


def run_experiment(
    arms: Mapping[str, TrainSchedule], ctx: DataContext, jobs: int = 1
) -> ExperimentResult:
    """Run every named arm on the same data.

    Arms are independent; with jobs > 1 they run in separate processes and the
    results are identical to a sequential run.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(arms) == 1:
        outcomes = [_run_arm(name, schedule, ctx) for name, schedule in arms.items()]
    else:
        import multiprocessing
        from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
        from functools import partial

        # one single-worker pool per arm names the arm whose worker dies; workers are
        # spawned (a fork would copy other pools' threads) with the caller's np.seterr
        spawn = multiprocessing.get_context("spawn")
        initializer = partial(np.seterr, **np.geterr())
        todo, running, outcomes = list(arms.items())[::-1], {}, []
        while todo or running:
            while todo and len(running) < jobs:
                name, schedule = todo.pop()
                pool = ProcessPoolExecutor(1, spawn, initializer=initializer)
                running[pool.submit(_run_arm, name, schedule, ctx)] = name, pool
            for future in wait(running, return_when=FIRST_COMPLETED).done:
                name, pool = running.pop(future)
                pool.shutdown()
                if isinstance(future.exception(), BrokenExecutor):
                    for worker in multiprocessing.active_children():
                        worker.terminate()  # the other arms' workers
                    raise BrokenExecutor(f"the worker process of arm {name!r} ended abruptly")
                outcomes.append(future.result())
    return ExperimentResult({o.name: o for o in sorted(outcomes, key=lambda o: o.name)})
