"""Stepwise training across label-confidence tiers, plus single-tier baselines.

A schedule is an ordered list of (tier, epochs) steps.  Step 1 starts from a
fresh initialization; every later step continues from the previous step's
weights and, unless told otherwise, its Adam moments.  Each step trains on
that tier's positives plus an equal number of freshly sampled negatives; the
validation tier is held out entirely and scored after every epoch (the drift
protocol, which compares weights only, asks for no scores).

Randomness is split into independent streams derived from the schedule seed
(init / validation negatives / per-step negatives / per-epoch shuffles), so
extending one step never reshuffles another and two runs that share a prefix
of the schedule are bit-identical over that prefix.
"""

from __future__ import annotations

import copy
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field

import numpy as np

from .data import (
    DataError,
    InteractionTable,
    LatentStore,
    TierSpec,
    index_of,
    sample_negatives,
    tier_filter,
)
from .engine import (
    AdamState,
    DenseNetwork,
    WeightSnapshot,
    accuracy,
    adam_step,
    backward,
    bce_gradient,
    bce_loss,
    check_sizes_and_rate,
    forward,
    init_network,
    take_snapshot,
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


# rows per block of a feature gather: a block's index and feature temporaries
# stay a few MB, while the per-block overhead stays negligible
_GATHER_ROWS = 4096


def _sorted_rows(store: LatentStore) -> tuple[np.ndarray, np.ndarray]:
    """The store's ids sorted, and its matrix rows in that order."""
    ids = np.array(store.ids, dtype=str)
    order = np.argsort(ids, kind="stable")
    return ids[order], store.matrix[order]


@dataclass
class DataContext:
    """Everything a training run consumes: positives, features, id universes.

    Built once from the three fields and kept as arrays, so the feature stores
    are not held (nor pickled into ``--jobs`` workers): ``compounds`` and
    ``proteins`` are the sorted id arrays, ``compound_matrix`` and
    ``protein_matrix`` the feature rows in that order, and ``ci``/``pi`` each
    table row's compound and protein row (-1 for an id with no features).  A
    pair is the int64 key ``ci * len(proteins) + pi``; ``row_keys`` holds each
    table row's key, or ``-1 - row`` for a row with an unknown id so that
    ``feature_matrix`` can name it, and ``positive_keys`` the sorted keys of
    the rows with known ids.
    """

    interactions: InteractionTable
    compound_features: InitVar[LatentStore]
    protein_features: InitVar[LatentStore]

    def __post_init__(self, compound_features: LatentStore, protein_features: LatentStore):
        self.compounds, self.compound_matrix = _sorted_rows(compound_features)
        self.proteins, self.protein_matrix = _sorted_rows(protein_features)
        rows = self.interactions
        self.ci = index_of(self.compounds, rows.compound_ids)
        self.pi = index_of(self.proteins, rows.protein_ids)
        known = (self.ci >= 0) & (self.pi >= 0)
        keys = self.ci * len(self.proteins) + self.pi
        self.row_keys = np.where(known, keys, -1 - np.arange(len(rows)))
        self.positive_keys = np.sort(keys[known])

    @property
    def feature_dim(self) -> int:
        return self.protein_matrix.shape[1] + self.compound_matrix.shape[1]

    def tier_keys(self, tier: TierSpec, role: str) -> np.ndarray:
        """Keys of the table's positives in ``tier``, in table order."""
        keys = self.row_keys[tier_filter(self.interactions, tier)]
        if not keys.size:
            raise DataError(f"{role} tier {tier} has no positives")
        return keys

    def feature_matrix(
        self, positive_keys: np.ndarray, negative_keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """[protein features || compound features] rows, positives first, and labels.

        ``x`` is allocated once and filled ``_GATHER_ROWS`` rows at a time, so
        no full-size temporary exists beside ``x`` and ``y``.
        """
        for keys in (positive_keys, negative_keys):
            if keys.size and keys.min() < 0:
                row, rows = -1 - keys[keys < 0][0], self.interactions
                if self.pi[row] < 0:
                    raise DataError(f"unknown protein id {str(rows.protein_ids[row])!r}")
                raise DataError(f"unknown compound id {str(rows.compound_ids[row])!r}")
        proteins, compounds = self.protein_matrix, self.compound_matrix
        wp, n_pos = proteins.shape[1], len(positive_keys)
        x = np.empty(
            (n_pos + len(negative_keys), wp + compounds.shape[1]),
            np.result_type(proteins, compounds),
        )
        for offset, keys in ((0, positive_keys), (n_pos, negative_keys)):
            for at in range(0, len(keys), _GATHER_ROWS):
                ci, pi = np.divmod(keys[at:at + _GATHER_ROWS], len(self.proteins))
                block = x[offset + at:offset + at + len(ci)]
                block[:, :wp] = proteins[pi]
                block[:, wp:] = compounds[ci]
        y = np.repeat([1.0, 0.0], [n_pos, len(negative_keys)])
        return x, y


@dataclass
class StepData:
    step_index: int
    tier: TierSpec
    positives: np.ndarray  # pair keys
    negatives: np.ndarray


@dataclass
class FtlResult:
    """A run's outputs; its net, Adam state, validation set and ``at`` form a fork."""

    network: DenseNetwork
    log: MetricsLog
    snapshots: dict[str, WeightSnapshot]
    steps: list[StepData]
    validation_positives: np.ndarray  # pair keys
    validation_negatives: np.ndarray
    validation: tuple[np.ndarray, np.ndarray]
    adam: AdamState
    at: tuple[int, int]


def evaluate(net: DenseNetwork, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Mean BCE and threshold-0.5 accuracy over the rows of ``x``; pure function."""
    if not len(y):
        raise ValueError("evaluate needs a non-empty example set")
    out = forward(net, x, chain=False)[-1].reshape(-1)
    loss, _ = bce_loss(out, y)
    return loss, accuracy(out, y)


def train_ftl(
    schedule: TrainSchedule,
    ctx: DataContext,
    snapshot_points: frozenset[tuple[int, int]] = frozenset(),
    start: FtlResult | None = None,
    stop: tuple[int, int] | None = None,
    *,
    metrics: bool = True,
) -> FtlResult:
    """Run the stepwise schedule; returns the net, metrics, snapshots and fork.

    ``snapshot_points`` are (step, epoch) pairs to capture, with epoch 0
    meaning "before this step's first update"; each step this call finishes is
    also captured as ``step<k>_end``.  ``start`` forks an earlier result of the
    same schedule: its net and Adam state are copied, its validation set and
    snapshots reused, and training resumes after its ``at`` (step, epoch).
    ``stop=(k, e)`` ends the run after epoch ``e`` of step ``k``, which may pass
    that step's budget.  The log holds only the epochs this call trained.
    With ``metrics=False`` no epoch is evaluated and the log stays empty;
    evaluation is a pure function of the net, so everything else is the same.
    """
    if start is None:
        val_pos = ctx.tier_keys(schedule.validation_tier, "validation")
        val_negs = sample_negatives(
            len(ctx.compounds), len(ctx.proteins), ctx.positive_keys, len(val_pos),
            RngStream(derive_seed(schedule.seed, "validation-negatives")),
        )
        val_x, val_y = ctx.feature_matrix(val_pos, val_negs)
        net = init_network(
            list(schedule.hidden_layers) + [1], ctx.feature_dim, None,
            RngStream(derive_seed(schedule.seed, "init")),
        )
        adam = AdamState.create(net.flat.size, schedule.learning_rate)
    else:
        val_pos, val_negs = start.validation_positives, start.validation_negatives
        val_x, val_y = start.validation
        net, adam = start.network.copy(), copy.deepcopy(start.adam)
    grad = np.empty_like(net.flat)
    val_keys = np.concatenate([val_pos, val_negs])
    forbidden = np.union1d(ctx.positive_keys, val_negs)
    stop_step, stop_epoch = stop or (len(schedule.steps), schedule.steps[-1].epochs)
    start_step, start_epoch = stopped = start.at if start else (1, 0)
    snapshots = dict(start.snapshots) if start else {}

    log = MetricsLog()
    steps_out: list[StepData] = []

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
        if np.intersect1d(np.concatenate([positives, negatives]), val_keys).size:
            raise DataError(f"step {k}: validation pairs leaked into a training step")
        steps_out.append(StepData(k, step.tier, positives, negatives))

        x, y = ctx.feature_matrix(positives, negatives)
        n = len(y)
        if first == 1 and schedule.reset_optimizer_between_steps and k > 1:
            adam = AdamState.create(net.flat.size, schedule.learning_rate)
        if first == 1 and (k, 0) in snapshot_points:
            snapshots[f"step{k}_epoch0"] = take_snapshot(net, f"step{k}_epoch0")

        for epoch in range(first, last + 1):
            order = RngStream(derive_seed(schedule.seed, "shuffle", k, epoch)).permutation(n)
            for at in range(0, n, schedule.batch_size):
                idx = order[at:at + schedule.batch_size]
                acts = forward(net, x[idx])
                backward(net, acts, bce_gradient(acts[-1], y[idx]), grad)
                adam_step(adam, net.flat, grad)
            if metrics:
                log.append(k, epoch, "train", *evaluate(net, x, y))
                log.append(k, epoch, "validation", *evaluate(net, val_x, val_y))
            if (k, epoch) in snapshot_points:
                tag = f"step{k}_epoch{epoch}"
                snapshots[tag] = take_snapshot(net, tag)
        if last == step.epochs:
            snapshots[f"step{k}_end"] = take_snapshot(net, f"step{k}_end")
        stopped = (k, last)
        # freed before the next step gathers its own matrix
        del x, y

    return FtlResult(
        net, log, snapshots, steps_out, val_pos, val_negs, (val_x, val_y), adam, stopped
    )


def train_single(
    tier: TierSpec,
    epochs: int,
    ctx: DataContext,
    *,
    validation_tier: TierSpec,
    batch_size: int = 1000,
    learning_rate: float = 0.001,
    seed: int = 0,
    hidden_layers: tuple[int, ...] = (128, 64, 32, 16, 8),
) -> FtlResult:
    """Fresh-initialization baseline on one tier; a degenerate 1-step schedule."""
    schedule = TrainSchedule(
        steps=[TrainStep(tier, epochs)],
        validation_tier=validation_tier,
        batch_size=batch_size,
        learning_rate=learning_rate,
        seed=seed,
        hidden_layers=hidden_layers,
    )
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
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial

        # workers take the caller's floating-point error policy, which only a
        # forked worker would inherit
        initializer = partial(np.seterr, **np.geterr())
        with ProcessPoolExecutor(min(jobs, len(arms)), initializer=initializer) as pool:
            outcomes = list(
                pool.map(_run_arm, arms.keys(), arms.values(), [ctx] * len(arms))
            )
    return ExperimentResult({o.name: o for o in sorted(outcomes, key=lambda o: o.name)})
