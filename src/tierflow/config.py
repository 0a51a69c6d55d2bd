"""JSON config parsing for the CLI: synth, VAE, and experiment documents.

Tier intervals appear in JSON as two-element arrays ``[lo, hi]`` and are
always half-open.  Parse errors raise :class:`ConfigError` naming the field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .data import (
    DataContext,
    FeatureStore,
    SynthConfig,
    SynthTier,
    TierSpec,
    load_bitvectors,
    load_interactions,
    load_latents,
    open_for_read,
    synth_generate,
)
from .errors import ConfigError, DataError
from .ftl import TrainSchedule, TrainStep
from .vae import VaeConfig, chemical_preset, protein_preset


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return doc[key]


_KINDS = {
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "true or false": lambda v: isinstance(v, bool),
    "a non-empty string": lambda v: isinstance(v, str) and v != "",
    "a list": lambda v: isinstance(v, list),
    "an object": lambda v: isinstance(v, dict),
}


def _expect(value, kind: str, where: str):
    """``value`` if it is of the JSON ``kind`` (a key of ``_KINDS``)."""
    if not _KINDS[kind](value):
        raise ConfigError(f"{where}: expected {kind}, got {value!r}")
    return value


def _known(doc: dict, fields, where: str) -> None:
    """ConfigError naming the first field of ``doc`` that is not in ``fields``."""
    for key in doc:
        if key not in fields:
            raise ConfigError(f"{where}: unknown field {key!r}")


_REQUIRED = object()


def _field(doc: dict, key: str, kind: str, where: str, default=_REQUIRED):
    """``doc[key]`` checked against ``kind``; required unless a default is given."""
    value = _require(doc, key, where) if default is _REQUIRED else doc.get(key, default)
    return _expect(value, kind, f"{where}.{key}")


def _tier(value, where: str) -> TierSpec:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_KINDS["an integer"](v) for v in value)
    ):
        raise ConfigError(f"{where}: expected [lo, hi] integer pair, got {value!r}")
    try:
        return TierSpec(value[0], value[1])
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_json(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


_SYNTH_FIELDS = (
    "n_compounds", "n_proteins", "compound_bits", "protein_bits", "seed",
    "tiers", "validation_tier", "bit_density", "true_rate",
)


def synth_config_from_dict(doc: dict, where: str = "synth") -> SynthConfig:
    _known(doc, _SYNTH_FIELDS, where)
    tiers = []
    for i, entry in enumerate(_field(doc, "tiers", "a list", where)):
        spot = f"{where}.tiers[{i}]"
        _known(_expect(entry, "an object", spot), ("range", "count", "flip_rate"), spot)
        tier = _tier(_require(entry, "range", spot), f"{spot}.range")
        count = _field(entry, "count", "an integer", spot)
        flip_rate = float(_field(entry, "flip_rate", "a number", spot))
        try:
            tiers.append(SynthTier(tier, count, flip_rate))
        except ValueError as exc:
            raise ConfigError(f"{spot}: {exc}") from exc
    fields = {
        key: _field(doc, key, "an integer", where)
        for key in ("n_compounds", "n_proteins", "compound_bits", "protein_bits", "seed")
    }
    validation_tier = _tier(_require(doc, "validation_tier", where), f"{where}.validation_tier")
    for key, default in (("bit_density", 0.5), ("true_rate", 0.2)):
        fields[key] = float(_field(doc, key, "a number", where, default))
    try:
        return SynthConfig(tiers=tiers, validation_tier=validation_tier, **fields)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


_VAE_PRESETS = {"protein": protein_preset, "chemical": chemical_preset}
# the fields a preset document may override, with their JSON kinds
_VAE_SCHEDULE = {
    "epochs": "an integer", "batch_size": "an integer", "learning_rate": "a number"
}


def vae_config_from_dict(doc: dict, where: str = "vae") -> VaeConfig:
    """A preset, whose schedule fields the document may override, or a full config."""
    preset, arch = None, {}
    if "preset" in doc:
        name = _field(doc, "preset", "a non-empty string", where)
        if name not in _VAE_PRESETS:
            raise ConfigError(
                f"{where}.preset: unknown preset {name!r}, "
                f"choose from {sorted(_VAE_PRESETS)}"
            )
        preset = _VAE_PRESETS[name]()
        _known(doc, ("preset", "seed", *_VAE_SCHEDULE), where)
    else:
        _known(doc, ("input_dim", "encoder_hidden", "latent_dim", "seed", *_VAE_SCHEDULE), where)
        arch["input_dim"] = _field(doc, "input_dim", "an integer", where)
        arch["encoder_hidden"] = tuple(
            _expect(v, "an integer", f"{where}.encoder_hidden[{i}]")
            for i, v in enumerate(_field(doc, "encoder_hidden", "a list", where))
        )
        arch["latent_dim"] = _field(doc, "latent_dim", "an integer", where)
    schedule = {
        key: _field(doc, key, kind, where)
        for key, kind in _VAE_SCHEDULE.items()
        if preset is None or key in doc
    }
    if "learning_rate" in schedule:
        schedule["learning_rate"] = float(schedule["learning_rate"])
    try:
        return replace(preset, **schedule) if preset else VaeConfig(**arch, **schedule)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class DataPaths:
    interactions: Path
    compound_features: Path
    protein_features: Path


@dataclass
class ExperimentSpec:
    """Parsed experiment document: each arm's schedule, in file order, plus the data source."""

    arms: dict[str, TrainSchedule]
    synth: SynthConfig | None = None
    paths: DataPaths | None = None


# the optional fields an experiment document shares with every arm's schedule
_SCHEDULE = {
    "batch_size": "an integer",
    "learning_rate": "a number",
    "hidden_layers": "a list",
    "reset_optimizer_between_steps": "true or false",
}


def experiment_from_dict(doc: dict, base_dir: Path | None = None) -> ExperimentSpec:
    """Build and check every arm's schedule, so a dry run rejects what a real run would."""
    where = "experiment"
    _known(doc, ("synth", "data", "arms", "validation_tier", "seed", *_SCHEDULE), where)
    validation_tier = _tier(
        _require(doc, "validation_tier", where), f"{where}.validation_tier"
    )
    # a field the document leaves out takes its TrainSchedule default
    shared = {
        key: _field(doc, key, kind, where)
        for key, kind in _SCHEDULE.items()
        if key in doc
    }
    shared.update(validation_tier=validation_tier, seed=_field(doc, "seed", "an integer", where))
    if "learning_rate" in shared:
        shared["learning_rate"] = float(shared["learning_rate"])
    if "hidden_layers" in shared:
        shared["hidden_layers"] = tuple(
            _expect(v, "an integer", f"{where}.hidden_layers[{i}]")
            for i, v in enumerate(shared["hidden_layers"])
        )
    arms: dict[str, TrainSchedule] = {}
    for i, entry in enumerate(_field(doc, "arms", "a list", where)):
        spot = f"{where}.arms[{i}]"
        _known(_expect(entry, "an object", spot), ("name", "validation_tier", "steps"), spot)
        name = _field(entry, "name", "a non-empty string", spot)
        if name in arms:
            raise ConfigError(f"{spot}: duplicate arm name {name!r}")
        if "validation_tier" in entry:
            arm_tier = _tier(entry["validation_tier"], f"{spot}.validation_tier")
            if arm_tier != validation_tier:
                raise ConfigError(
                    f"{spot}: validation tier {arm_tier} does not match the "
                    f"shared validation tier {validation_tier}"
                )
        steps = []
        for j, step in enumerate(_field(entry, "steps", "a list", spot)):
            sspot = f"{spot}.steps[{j}]"
            _known(_expect(step, "an object", sspot), ("tier", "epochs"), sspot)
            tier = _tier(_require(step, "tier", sspot), f"{sspot}.tier")
            epochs = _field(step, "epochs", "an integer", sspot)
            try:
                steps.append(TrainStep(tier, epochs))
            except ValueError as exc:
                raise ConfigError(f"{sspot}: {exc}") from exc
        try:
            arms[name] = TrainSchedule(steps=steps, **shared)
        except ValueError as exc:
            raise ConfigError(f"{spot}: {exc}") from exc
    if not arms:
        raise ConfigError(f"{where}.arms: needs at least one arm")

    has_synth = "synth" in doc
    has_data = "data" in doc
    if has_synth == has_data:
        raise ConfigError(f"{where}: exactly one of 'synth' or 'data' is required")
    if has_synth:
        synth = _field(doc, "synth", "an object", where)
        return ExperimentSpec(arms, synth=synth_config_from_dict(synth))

    data = _field(doc, "data", "an object", where)
    keys = ("interactions", "compound_features", "protein_features")
    _known(data, keys, f"{where}.data")
    base = base_dir or Path(".")
    paths = DataPaths(*(
        base / _field(data, key, "a non-empty string", f"{where}.data") for key in keys
    ))
    return ExperimentSpec(arms, paths=paths)


def _load_features(path: Path) -> FeatureStore:
    """Feature files are either bit-vector stores (``#width=`` header) or latent TSVs."""
    with open_for_read(path) as fh:
        first = fh.readline()
    store = (load_bitvectors if first.startswith("#width=") else load_latents)(path)
    if not len(store):
        raise DataError(f"{path}: no feature vectors")
    return store


def build_data_context(spec: ExperimentSpec) -> DataContext:
    if spec.synth is not None:
        synth = synth_generate(spec.synth)
        return DataContext(synth.interactions, synth.compounds, synth.proteins)
    assert spec.paths is not None
    return DataContext(
        interactions=load_interactions(spec.paths.interactions),
        compound_features=_load_features(spec.paths.compound_features),
        protein_features=_load_features(spec.paths.protein_features),
    )
