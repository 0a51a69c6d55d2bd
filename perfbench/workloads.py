"""The four benchmark workloads: their generated inputs, CLI arguments and output checks.

Each workload is one ``tierflow`` command.  ``prepare`` builds its inputs in a
work directory before any timing starts; the program sees only those files.
``tiered_train`` and ``drift_diagnose`` run the shipped
``configs/benchmark_experiment.json`` unchanged, so their inputs (and their
artifact digests) do not depend on the seed.  ``scale_prep`` and ``vae_embed``
draw their inputs from the seed through a NumPy generator.

The ``tiny`` size shrinks every workload to a smoke-test scale; its outputs
are checked the same way, but no reference digests are pinned for it.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

NAMES = ("tiered_train", "drift_diagnose", "scale_prep", "vae_embed")
SHIPPED_CONFIG = "configs/benchmark_experiment.json"
DRIFT_DELTA = {"full": 20, "tiny": 1}

# scale_prep: a low-skewed score distribution over a 20k x 2k id grid with the
# paper's VAE latent widths (64 compound, 128 protein).  The record count keeps
# one run near 5 s and its peak RSS near 0.5 GB on a 2-CPU, 8 GB machine.
SCALE = {
    "full": dict(records=100_000, compounds=20_000, proteins=2_000),
    "tiny": dict(records=3_000, compounds=400, proteins=100),
}
SCALE_WIDTHS = (64, 128)
SCALE_STEPS = ([319, 700], [700, 900])
SCALE_VALIDATION = [900, 1000]
# vae_embed: the chemical preset (1024 -> 256 -> 128 -> 64) on generated
# 1024-bit fingerprints; the 1024-wide layers and the ~14 MB checkpoint dominate.
EMBED = {"full": dict(entries=2_000, epochs=4), "tiny": dict(entries=200, epochs=2)}
EMBED_BITS = 1024
EMBED_LATENT = 64


@dataclass
class Workload:
    """What the harness needs to run and check one workload."""

    name: str
    cli_args: list[str]
    rows: int  # training rows x epochs, as the config defines them
    artifacts: list[str]
    pin_seed: str  # key of the reference digests: "*" when inputs ignore the seed
    checks: list[Callable[[Path], str | None]] = field(default_factory=list)


def prepare(name: str, seed: int, size: str, work: Path, root: Path) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    work.mkdir(parents=True, exist_ok=True)
    if name in ("tiered_train", "drift_diagnose"):
        return _shipped(name, size, work, root)
    if name == "scale_prep":
        return _scale_prep(seed, size, work)
    return _vae_embed(seed, size, work)


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, NAMES.index(name)])


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _safe_name(name: str) -> str:
    # the CLI's rule for artifact file names
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def _tiny_experiment(doc: dict) -> dict:
    """The shipped experiment at a tenth of the data and a few epochs."""
    doc = json.loads(json.dumps(doc))
    synth = doc["synth"]
    synth["n_compounds"], synth["n_proteins"] = 100, 60
    for tier in synth["tiers"]:
        tier["count"] //= 10
    for arm in doc["arms"]:
        for step in arm["steps"]:
            step["epochs"] = 4 if len(arm["steps"]) == 1 else 2
    return doc


def _synth_positives(doc: dict, tier: list[int]) -> int:
    """Positives a synth block puts in a training tier (synth tiers must nest in it)."""
    total = 0
    for synth_tier in doc["synth"]["tiers"]:
        lo, hi = synth_tier["range"]
        if tier[0] <= lo and hi <= tier[1]:
            total += synth_tier["count"]
        elif lo < tier[1] and tier[0] < hi:
            raise ValueError(f"synth tier {[lo, hi]} straddles training tier {tier}")
    return total


def _shipped(name: str, size: str, work: Path, root: Path) -> Workload:
    config_path = root / SHIPPED_CONFIG
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    if size == "tiny":
        doc = _tiny_experiment(doc)
        config_path = work / "experiment.json"
        _write_json(config_path, doc)
    n_layers = len(doc["hidden_layers"]) + 1

    def step_rows(step: dict, epochs: int) -> int:
        return 2 * _synth_positives(doc, step["tier"]) * epochs

    if name == "tiered_train":
        rows = sum(step_rows(s, s["epochs"]) for arm in doc["arms"] for s in arm["steps"])
        arms = [arm["name"] for arm in doc["arms"]]
        artifacts = ["report.json"] + [
            f"{kind}_{_safe_name(a)}.{ext}" for a in arms
            for kind, ext in (("metrics", "csv"), ("checkpoint", "json"))
        ]
        checks = [_check_report(arms)] + [
            _check_lines(f"metrics_{_safe_name(arm['name'])}.csv",
                         1 + 2 * sum(s["epochs"] for s in arm["steps"]))
            for arm in doc["arms"]
        ]
        return Workload(name, ["train", "--config", str(config_path)], rows,
                        sorted(artifacts), "*", checks)

    # diagnose trains the first 2-step arm, then continues its step-1 tier for
    # E1 + delta epochs; rows count both, as the protocol defines them
    delta = DRIFT_DELTA[size]
    arm = next(a for a in doc["arms"] if len(a["steps"]) == 2)
    first = arm["steps"][0]
    rows = sum(step_rows(s, s["epochs"]) for s in arm["steps"])
    rows += step_rows(first, first["epochs"] + delta)
    return Workload(
        name,
        ["diagnose", "--config", str(config_path), "--delta", str(delta)],
        rows, ["weight_drift.csv"], "*",
        [_check_lines("weight_drift.csv", 2 + n_layers)],
    )


def _scale_prep(seed: int, size: str, work: Path) -> Workload:
    dims = SCALE[size]
    rng = _rng(seed, "scale_prep")
    n_c, n_p = dims["compounds"], dims["proteins"]
    flat = rng.choice(n_c * n_p, size=dims["records"], replace=False)
    # low-skewed: most records sit in the weakest tier, few clear 700 or 900
    scores = np.minimum(1000, 150 + rng.exponential(200.0, size=flat.size)).astype(np.int64)
    with (work / "interactions.tsv").open("w", encoding="utf-8") as fh:
        for f, s in zip(flat.tolist(), scores.tolist()):
            fh.write(f"C{f // n_p:06d}\tP{f % n_p:05d}\t{s}\n")
    for prefix, count, width, fname in (
        ("C%06d", n_c, SCALE_WIDTHS[0], "compounds.tsv"),
        ("P%05d", n_p, SCALE_WIDTHS[1], "proteins.tsv"),
    ):
        values = rng.standard_normal((count, width))
        with (work / fname).open("w", encoding="utf-8") as fh:
            for i, row in enumerate(values.tolist()):
                fh.write(prefix % i + "\t" + ",".join(map(repr, row)) + "\n")

    def positives(tier: list[int]) -> int:
        return int(np.count_nonzero((scores >= tier[0]) & (scores < tier[1])))

    doc = {
        "data": {
            "interactions": "interactions.tsv",
            "compound_features": "compounds.tsv",
            "protein_features": "proteins.tsv",
        },
        "arms": [{
            "name": "ftl_2step",
            "steps": [{"tier": t, "epochs": 1} for t in SCALE_STEPS],
        }],
        "validation_tier": SCALE_VALIDATION,
        "seed": seed,
        "batch_size": 1000,
        "learning_rate": 0.001,
        "hidden_layers": [32, 16, 8],
    }
    _write_json(work / "experiment.json", doc)
    rows = sum(2 * positives(t) for t in SCALE_STEPS)
    artifacts = ["checkpoint_ftl_2step.json", "metrics_ftl_2step.csv", "report.json"]
    checks = [_check_report(["ftl_2step"]),
              _check_lines("metrics_ftl_2step.csv", 1 + 2 * len(SCALE_STEPS))]
    return Workload("scale_prep", ["train", "--config", str(work / "experiment.json")],
                    rows, artifacts, str(seed), checks)


def _vae_embed(seed: int, size: str, work: Path) -> Workload:
    dims = EMBED[size]
    rng = _rng(seed, "vae_embed")
    n = dims["entries"]
    # fingerprints with a per-compound bit density, as folded ECFP bits have
    density = rng.uniform(0.05, 0.25, size=(n, 1))
    bits = (rng.random((n, EMBED_BITS)) < density).astype(np.uint8) + ord("0")
    with (work / "fingerprints.bits").open("w", encoding="utf-8") as fh:
        fh.write(f"#width={EMBED_BITS}\n")
        for i, row in enumerate(bits):
            fh.write(f"F{i:06d}\t{row.tobytes().decode('ascii')}\n")
    _write_json(work / "vae.json",
                {"preset": "chemical", "seed": seed, "epochs": dims["epochs"]})
    return Workload(
        "vae_embed",
        ["embed", "--config", str(work / "vae.json"),
         "--bitvectors", str(work / "fingerprints.bits")],
        n * dims["epochs"],
        ["latents.tsv", "metrics.csv", "vae.json"],
        str(seed),
        [_check_lines("metrics.csv", 1 + dims["epochs"]),
         _check_latents(n, EMBED_LATENT)],
    )


def _check_lines(fname: str, expected: int) -> Callable[[Path], str | None]:
    def check(out: Path) -> str | None:
        lines = (out / fname).read_text(encoding="utf-8").splitlines()
        if len(lines) != expected:
            return f"{fname} has {len(lines)} lines, expected {expected}"
        return None
    return check


def _check_report(arms: list[str]) -> Callable[[Path], str | None]:
    def check(out: Path) -> str | None:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if sorted(report["arms"]) != sorted(arms):
            return f"report.json covers arms {sorted(report['arms'])}, expected {sorted(arms)}"
        for arm, entry in report["arms"].items():
            if not math.isfinite(entry["best_val_loss"]):
                return f"report.json: arm {arm} has best_val_loss {entry['best_val_loss']}"
        return None
    return check


def _check_latents(entries: int, width: int) -> Callable[[Path], str | None]:
    def check(out: Path) -> str | None:
        lines = (out / "latents.tsv").read_text(encoding="utf-8").splitlines()
        if len(lines) != entries:
            return f"latents.tsv has {len(lines)} rows, expected {entries}"
        bad = [ln for ln in lines if len(ln.split("\t")[1].split(",")) != width]
        if bad:
            return f"latents.tsv has {len(bad)} rows not {width} wide"
        return None
    return check


def file_digest(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(workload: Workload, out: Path) -> tuple[dict[str, str], list[str]]:
    """Digests of the run's artifacts and every problem found with them.

    The manifest must list exactly the expected artifacts, each present with
    the sha256 the manifest records; the workload's own checks must pass.
    """
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        listed = manifest["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        return {}, [f"manifest.json unreadable: {exc}"]
    problems = []
    if sorted(listed) != workload.artifacts:
        problems.append(f"manifest lists {sorted(listed)}, expected {workload.artifacts}")
    digests = {}
    for fname, recorded in sorted(listed.items()):
        path = out / fname
        if not path.is_file():
            problems.append(f"{fname} listed in manifest.json is missing")
            continue
        digests[fname] = file_digest(path)
        if digests[fname] != recorded:
            problems.append(f"{fname} does not match its manifest sha256")
    if not problems:
        for check in workload.checks:
            try:
                problem = check(out)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                problems.append(problem)
    return digests, problems
