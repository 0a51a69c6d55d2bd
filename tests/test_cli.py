import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tierflow import cli as cli_module
from tierflow.cli import main
from tierflow.config import experiment_from_dict, synth_config_from_dict
from tierflow.data import (
    TierSpec,
    load_bitvectors,
    load_interactions,
    load_oracle,
    save_bitvectors,
    save_interactions,
    save_latents,
    synth_generate,
)
from tierflow.ftl import TrainSchedule
from tierflow.rng import RngStream
from tierflow.vae import VaeConfig, build_vae, load_vae

SYNTH_DOC = {
    "n_compounds": 40,
    "n_proteins": 30,
    "compound_bits": 12,
    "protein_bits": 12,
    "tiers": [
        {"range": [300, 700], "count": 150, "flip_rate": 0.3},
        {"range": [700, 900], "count": 80, "flip_rate": 0.05},
        {"range": [900, 1000], "count": 60, "flip_rate": 0.0},
    ],
    "validation_tier": [900, 1000],
    "seed": 3,
}

EXPERIMENT_DOC = {
    "synth": SYNTH_DOC,
    "arms": [
        {
            "name": "ftl",
            "steps": [
                {"tier": [300, 700], "epochs": 2},
                {"tier": [700, 900], "epochs": 2},
            ],
        },
        {"name": "baseline", "steps": [{"tier": [700, 900], "epochs": 4}]},
    ],
    "validation_tier": [900, 1000],
    "seed": 3,
    "batch_size": 64,
    "learning_rate": 0.001,
    "hidden_layers": [8, 4],
}


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return str(path)


@pytest.fixture
def synth_config(tmp_path):
    return write_json(tmp_path / "synth.json", SYNTH_DOC)


@pytest.fixture
def experiment_config(tmp_path):
    return write_json(tmp_path / "experiment.json", EXPERIMENT_DOC)


# ---------------------------------------------------------------- synth


def test_synth_writes_dataset(synth_config, tmp_path):
    out = tmp_path / "out"
    assert main(["synth", "--config", synth_config, "--out", str(out)]) == 0
    compounds = load_bitvectors(out / "compounds.bits")
    proteins = load_bitvectors(out / "proteins.bits")
    table = load_interactions(out / "interactions.tsv")
    oracle = load_oracle(out / "oracle.tsv")
    assert len(compounds) == 40 and compounds.width == 12
    assert len(proteins) == 30
    assert len(table) == 150 + 80 + 60
    assert len(oracle) == 40 * 30
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert set(manifest["outputs"]) == {
        "compounds.bits", "proteins.bits", "interactions.tsv", "oracle.tsv"
    }


def test_synth_rerun_byte_identical(synth_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["synth", "--config", synth_config, "--out", str(out_a)])
    main(["synth", "--config", synth_config, "--out", str(out_b)])
    for name in ("compounds.bits", "proteins.bits", "interactions.tsv", "oracle.tsv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_synth_overlapping_tiers_exit_1(tmp_path):
    doc = dict(SYNTH_DOC)
    doc["tiers"] = [
        {"range": [300, 800], "count": 10, "flip_rate": 0.0},
        {"range": [700, 900], "count": 10, "flip_rate": 0.0},
        {"range": [900, 1000], "count": 10, "flip_rate": 0.0},
    ]
    config = write_json(tmp_path / "bad.json", doc)
    assert main(["synth", "--config", config, "--out", str(tmp_path / "o")]) == 1


def test_synth_dry_run_writes_nothing(synth_config, tmp_path, capsys):
    out = tmp_path / "dry"
    assert main(["synth", "--config", synth_config, "--out", str(out), "--dry-run"]) == 0
    assert not out.exists()
    assert "compounds" in capsys.readouterr().out


def test_synth_seed_override_changes_output(synth_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["synth", "--config", synth_config, "--out", str(out_a)])
    main(["synth", "--config", synth_config, "--out", str(out_b), "--seed", "99"])
    assert (out_a / "interactions.tsv").read_bytes() != (out_b / "interactions.tsv").read_bytes()


def test_manifest_records_the_environment(synth_config, tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    manifests = []
    for run in ("a", "b"):
        assert main(["synth", "--config", synth_config, "--out", str(tmp_path / run)]) == 0
        manifests.append(json.loads((tmp_path / run / "manifest.json").read_text()))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifests[0]["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]},
        "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                    "MKL_NUM_THREADS": "2"},
    }
    # a rerun's manifest differs only in its duration
    for manifest in manifests:
        del manifest["duration_seconds"]
    assert manifests[0] == manifests[1]


def test_manifest_blas_unknown_where_numpy_cannot_say(monkeypatch):
    # numpy before 1.26: show_config() takes no mode and returns nothing
    monkeypatch.setattr(np, "show_config", lambda: None)
    environment = cli_module._environment()
    assert environment["blas"] == {"name": "unknown", "version": "unknown"}
    assert environment["numpy"] == np.__version__


# ---------------------------------------------------------------- embed


def write_small_bits(path):
    """30 random 16-bit vectors as a bit-vector file."""
    rng = RngStream(4)
    lines = ["#width=16"]
    for i in range(30):
        bits = "".join("1" if b else "0" for b in rng.uniform(size=16) < 0.5)
        lines.append(f"e{i:03d}\t{bits}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def small_bits(tmp_path):
    return write_small_bits(tmp_path / "vectors.bits")


VAE_DOC = {
    "input_dim": 16, "encoder_hidden": [8], "latent_dim": 3,
    "epochs": 3, "batch_size": 10, "learning_rate": 0.001, "seed": 11,
}


def test_embed_writes_latents(tmp_path, small_bits):
    config = write_json(tmp_path / "vae.json", VAE_DOC)
    out = tmp_path / "out"
    assert main(["embed", "--config", config, "--bitvectors", small_bits,
                 "--out", str(out)]) == 0
    lines = (out / "latents.tsv").read_text().strip().split("\n")
    assert len(lines) == 30
    assert all(len(line.split("\t")[1].split(",")) == 3 for line in lines)
    metrics = (out / "metrics.csv").read_text().strip().split("\n")
    assert metrics[0] == "epoch,recon_loss,kl_loss,total_loss,total_change"
    assert len(metrics) == 4


def test_embed_zero_epochs_checkpoint_is_initialization(tmp_path, small_bits):
    doc = {**VAE_DOC, "epochs": 0}
    config = write_json(tmp_path / "vae.json", doc)
    out = tmp_path / "out"
    assert main(["embed", "--config", config, "--bitvectors", small_bits,
                 "--out", str(out)]) == 0
    loaded = load_vae(out / "vae.json")
    fresh = build_vae(
        VaeConfig(16, (8,), 3, 0, 10, 0.001), RngStream(11).spawn("init")
    )
    for part in ("encoder_trunk", "mu_head", "logvar_head", "decoder"):
        assert np.array_equal(getattr(loaded, part).flat, getattr(fresh, part).flat)


def test_embed_same_seed_identical_latents(tmp_path, small_bits):
    config = write_json(tmp_path / "vae.json", VAE_DOC)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["embed", "--config", config, "--bitvectors", small_bits, "--out", str(out_a)])
    main(["embed", "--config", config, "--bitvectors", small_bits, "--out", str(out_b)])
    assert (out_a / "latents.tsv").read_bytes() == (out_b / "latents.tsv").read_bytes()


def test_embed_seed_override_changes_config_digest(tmp_path, small_bits):
    config = write_json(tmp_path / "vae.json", VAE_DOC)
    manifests, latents = [], []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        assert main(["embed", "--config", config, "--bitvectors", small_bits,
                     "--out", str(out), "--seed", seed]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
        latents.append((out / "latents.tsv").read_bytes())
    assert [m["seed"] for m in manifests] == [1, 2]
    assert latents[0] != latents[1]
    assert manifests[0]["config_digest"] != manifests[1]["config_digest"]


def test_embed_width_mismatch_exit_2(tmp_path, small_bits):
    doc = {**VAE_DOC, "input_dim": 24}
    config = write_json(tmp_path / "vae.json", doc)
    assert main(["embed", "--config", config, "--bitvectors", small_bits,
                 "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------- train


def test_train_end_to_end(experiment_config, tmp_path):
    out = tmp_path / "out"
    assert main(["train", "--config", experiment_config, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["arms"]) == {"ftl", "baseline"}
    assert "ftl_vs_baseline" in report["deltas"] or "baseline_vs_ftl" in report["deltas"]
    for arm in ("ftl", "baseline"):
        body = report["arms"][arm]
        assert {"best_val_loss", "best_val_accuracy", "epoch_of_best"} <= set(body)
        csv_lines = (out / f"metrics_{arm}.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "arm,step,epoch,split,loss,accuracy"
        assert (out / f"checkpoint_{arm}.json").exists()
    # ftl arm: 2 steps x 2 epochs x 2 splits = 8 records
    assert len((out / "metrics_ftl.csv").read_text().strip().split("\n")) == 9


def test_train_rerun_byte_identical_csvs(experiment_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["train", "--config", experiment_config, "--out", str(out_a)])
    main(["train", "--config", experiment_config, "--out", str(out_b)])
    for name in ("metrics_ftl.csv", "metrics_baseline.csv", "report.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_train_dry_run(experiment_config, tmp_path, capsys):
    out = tmp_path / "dry"
    assert main(["train", "--config", experiment_config, "--out", str(out),
                 "--dry-run"]) == 0
    assert not out.exists()
    printed = capsys.readouterr().out
    assert "ftl" in printed and "baseline" in printed


def test_train_missing_data_exit_2(tmp_path):
    doc = {k: v for k, v in EXPERIMENT_DOC.items() if k != "synth"}
    doc["data"] = {
        "interactions": "nope.tsv",
        "compound_features": "nope.bits",
        "protein_features": "nope.bits",
    }
    config = write_json(tmp_path / "exp.json", doc)
    assert main(["train", "--config", config, "--out", str(tmp_path / "o")]) == 2


def test_train_invalid_config_exit_1(tmp_path):
    doc = {k: v for k, v in EXPERIMENT_DOC.items() if k != "arms"}
    config = write_json(tmp_path / "exp.json", doc)
    assert main(["train", "--config", config, "--out", str(tmp_path / "o")]) == 1


def test_train_mismatched_arm_validation_tier_exit_1(tmp_path):
    doc = json.loads(json.dumps(EXPERIMENT_DOC))
    doc["arms"][0]["validation_tier"] = [800, 1000]
    config = write_json(tmp_path / "exp.json", doc)
    assert main(["train", "--config", config, "--out", str(tmp_path / "o")]) == 1


def test_train_jobs_flag_matches_sequential(experiment_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["train", "--config", experiment_config, "--out", str(out_a)])
    main(["train", "--config", experiment_config, "--out", str(out_b), "--jobs", "2"])
    for name in ("metrics_ftl.csv", "metrics_baseline.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# ---------------------------------------------------------------- diagnose


def test_diagnose_writes_drift_csv(experiment_config, tmp_path):
    out = tmp_path / "out"
    assert main(["diagnose", "--config", experiment_config, "--out", str(out),
                 "--delta", "1"]) == 0
    lines = (out / "weight_drift.csv").read_text().strip().split("\n")
    assert lines[0].startswith("#")
    assert lines[1] == "layer,n_weights,dist_ftl,dist_baseline,fold_change"
    assert len(lines) == 2 + 3  # hidden (8, 4) + output layer


def test_diagnose_delta_zero_ftl_column_zero(experiment_config, tmp_path):
    out = tmp_path / "out"
    assert main(["diagnose", "--config", experiment_config, "--out", str(out),
                 "--delta", "0"]) == 0
    lines = (out / "weight_drift.csv").read_text().strip().split("\n")[2:]
    assert all(line.split(",")[2] == "0" for line in lines)


def test_diagnose_deterministic(experiment_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["diagnose", "--config", experiment_config, "--out", str(out_a), "--delta", "1"])
    main(["diagnose", "--config", experiment_config, "--out", str(out_b), "--delta", "1"])
    assert (out_a / "weight_drift.csv").read_bytes() == (out_b / "weight_drift.csv").read_bytes()


def test_diagnose_without_two_step_arm_exit_1(tmp_path):
    doc = json.loads(json.dumps(EXPERIMENT_DOC))
    doc["arms"] = [doc["arms"][1]]  # baseline only
    config = write_json(tmp_path / "exp.json", doc)
    assert main(["diagnose", "--config", config, "--out", str(tmp_path / "o")]) == 1


def run_python(*args, **env):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path, **env), timeout=120,
    )


def run_cli(*argv, **env):
    return run_python("-m", "tierflow", *argv, **env)


def missing_data_doc():
    """EXPERIMENT_DOC reading data files that do not exist, so a run that got
    as far as loading them would exit 2."""
    doc = {k: v for k, v in EXPERIMENT_DOC.items() if k != "synth"}
    doc["data"] = {
        "interactions": "nope.tsv",
        "compound_features": "nope.bits",
        "protein_features": "nope.bits",
    }
    return doc


@pytest.mark.parametrize("dry_run", [True, False])
@pytest.mark.parametrize("argv, message", [
    (["diagnose", "--delta", "3"], "delta must lie in [0, 2], got 3"),
    (["diagnose", "--delta", "-1"], "delta must lie in [0, 2], got -1"),
    (["diagnose", "--jobs", "0"], "jobs must be >= 1, got 0"),
    (["train", "--jobs", "0"], "jobs must be >= 1, got 0"),
], ids=["delta-past-e2", "delta-negative", "diagnose-jobs-0", "train-jobs-0"])
def test_out_of_range_flag_rejected_before_data(tmp_path, argv, message, dry_run):
    config = write_json(tmp_path / "exp.json", missing_data_doc())
    out = tmp_path / "o"
    proc = run_cli(*argv, "--config", config, "--out", str(out),
                   *(["--dry-run"] if dry_run else []))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"ERROR: config error: {message}"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--reset-optimizer"]],
                         ids=["jobs", "reset-optimizer"])
@pytest.mark.parametrize("command", ["synth", "embed"])
def test_experiment_flags_rejected_by_synth_and_embed(tmp_path, small_bits, command, flag):
    config = write_json(tmp_path / "config.json", SYNTH_DOC if command == "synth" else VAE_DOC)
    extra = ["--bitvectors", small_bits] if command == "embed" else []
    out = tmp_path / "o"
    proc = run_cli(command, "--config", config, "--out", str(out), *extra, *flag)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert lines[0].startswith("usage: tierflow ")
    assert lines[-1] == "tierflow: error: unrecognized arguments: " + " ".join(flag)
    assert not out.exists()


def with_field(doc, path, value):
    """A deep copy of ``doc`` with the field at ``path`` (keys and indices) set."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize("dry_run", [True, False])
@pytest.mark.parametrize("path, value, message", [
    (["reset_optimizer_between_steps"], "no",
     "experiment.reset_optimizer_between_steps: expected true or false, got 'no'"),
    (["seed"], 1.7, "experiment.seed: expected an integer, got 1.7"),
    (["arms", 0, "name"], [1],
     "experiment.arms[0].name: expected a non-empty string, got [1]"),
    (["arms"], 5, "experiment.arms: expected a list, got 5"),
    (["arms", 1, "steps", 0, "tier"], [800, 1000],
     "experiment.arms[1]: training tier [800,1000) overlaps validation tier [900,1000)"),
    (["batch_size"], 0, "experiment.arms[0]: batch_size must be >= 1, got 0"),
    (["hidden_layers"], [0],
     "experiment.arms[0]: hidden layer sizes must be >= 1, got [0]"),
    (["learning_rate"], -1,
     "experiment.arms[0]: learning_rate must be finite and > 0, got -1.0"),
    (["learning_rate"], float("nan"),
     "experiment.arms[0]: learning_rate must be finite and > 0, got nan"),
    (["arms", 1, "name"], "ftl", "experiment.arms[1]: duplicate arm name 'ftl'"),
], ids=["reset-string", "seed-float", "name-list", "arms-int", "overlap-tier",
        "batch-0", "hidden-0", "lr-negative", "lr-nan", "duplicate-name"])
def test_invalid_experiment_rejected_at_parse(tmp_path, path, value, message, dry_run):
    config = write_json(tmp_path / "exp.json", with_field(missing_data_doc(), path, value))
    out = tmp_path / "o"
    proc = run_cli("train", "--config", config, "--out", str(out),
                   *(["--dry-run"] if dry_run else []))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"ERROR: config error: {message}"]
    assert not (out / "manifest.json").exists()


def test_experiment_omitting_optional_fields_takes_schedule_defaults():
    required = ("synth", "arms", "validation_tier", "seed")
    spec = experiment_from_dict({key: EXPERIMENT_DOC[key] for key in required})
    assert list(spec.arms) == ["ftl", "baseline"]
    for schedule in spec.arms.values():
        assert schedule == TrainSchedule(schedule.steps, TierSpec(900, 1000), seed=3)


@pytest.mark.parametrize("compounds, proteins, bad", [
    ("C0\t1,2\nC1\t3\n", "P0\t1,2\nP1\t3,4\n", "compounds.tsv"),
    ("", "P0\t1,2\nP1\t3,4\n", "compounds.tsv"),
    ("C0\t1,2\nC1\t3,4\n", "", "proteins.tsv"),
], ids=["latent-widths-differ", "empty-compounds", "empty-proteins"])
def test_bad_feature_file_exit_2(tmp_path, compounds, proteins, bad):
    (tmp_path / "interactions.tsv").write_text(
        "C0\tP0\t950\nC0\tP1\t500\nC1\tP0\t800\n", encoding="utf-8"
    )
    (tmp_path / "compounds.tsv").write_text(compounds, encoding="utf-8")
    (tmp_path / "proteins.tsv").write_text(proteins, encoding="utf-8")
    doc = {**missing_data_doc(), "data": {
        "interactions": "interactions.tsv",
        "compound_features": "compounds.tsv",
        "protein_features": "proteins.tsv",
    }}
    out = tmp_path / "o"
    proc = run_cli("train", "--config", write_json(tmp_path / "exp.json", doc),
                   "--out", str(out))
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    assert line.startswith("ERROR: data error: ") and bad in line
    assert not (out / "manifest.json").exists()


def test_train_on_bit_files_matches_train_on_latent_files(tmp_path):
    # the same 0/1 features as bit-vector files, which the feature loader
    # tells apart by their '#width=' header, and as latent TSVs
    data = synth_generate(synth_config_from_dict(SYNTH_DOC))
    artifacts = []
    for save, kind in ((save_bitvectors, "bits"), (save_latents, "latents")):
        root = tmp_path / kind
        root.mkdir()
        save_interactions(data.interactions, root / "interactions.tsv")
        save(data.compounds, root / "compounds.features")
        save(data.proteins, root / "proteins.features")
        doc = {**missing_data_doc(), "data": {
            "interactions": "interactions.tsv",
            "compound_features": "compounds.features",
            "protein_features": "proteins.features",
        }}
        out = root / "out"
        assert main(["train", "--config", write_json(root / "exp.json", doc),
                     "--out", str(out)]) == 0
        artifacts.append({p.name: p.read_bytes() for p in out.iterdir()
                          if p.name != "manifest.json"})
    assert (tmp_path / "bits" / "compounds.features").read_text().startswith("#width=12\n")
    assert sorted(artifacts[0]) == [
        "checkpoint_baseline.json", "checkpoint_ftl.json",
        "metrics_baseline.csv", "metrics_ftl.csv", "report.json",
    ]
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("dry_run", [True, False])
@pytest.mark.parametrize("command, doc, message", [
    ("embed", {"preset": "chemical", "epochs": "x"},
     "vae.epochs: expected an integer, got 'x'"),
    ("embed", {"preset": "chemical", "batch_size": 0},
     "vae: input_dim and batch_size must be >= 1, epochs >= 0"),
    ("embed", {"preset": "chemical", "learning_rate": "fast"},
     "vae.learning_rate: expected a number, got 'fast'"),
    ("embed", {**VAE_DOC, "seed": 1.9}, "vae.seed: expected an integer, got 1.9"),
    ("synth", with_field(SYNTH_DOC, ["tiers", 0, "count"], 400.7),
     "synth.tiers[0].count: expected an integer, got 400.7"),
    ("synth", {**SYNTH_DOC, "seed": "7"}, "synth.seed: expected an integer, got '7'"),
    ("embed", {**VAE_DOC, "encoder_hidden": [0]},
     "vae: encoder_hidden sizes must be >= 1, got [0]"),
    ("embed", {"preset": "chemical", "learning_rate": -1},
     "vae: learning_rate must be finite and > 0, got -1.0"),
    ("embed", {"preset": ["chemical"]},
     "vae.preset: expected a non-empty string, got ['chemical']"),
], ids=["preset-epochs-string", "preset-batch-0", "preset-lr-string", "vae-seed-float",
        "synth-count-float", "synth-seed-string", "vae-hidden-0", "preset-lr-negative",
        "preset-list"])
def test_invalid_synth_or_vae_document_exit_1(tmp_path, command, doc, message, dry_run):
    config = write_json(tmp_path / "config.json", doc)
    out = tmp_path / "o"
    # the bit-vector file does not exist, so a check left to the real run would exit 2
    extra = ["--bitvectors", str(tmp_path / "nope.bits")] if command == "embed" else []
    proc = run_cli(command, "--config", config, "--out", str(out), *extra,
                   *(["--dry-run"] if dry_run else []))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"ERROR: config error: {message}"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("dry_run", [True, False])
@pytest.mark.parametrize("command, doc, message", [
    ("embed", {"preset": "chemical", "epoch": 4, "input_dim": 2048, "seed": 1},
     "vae: unknown field 'epoch'"),
    ("embed", {"preset": "chemical", "latent_dim": 8}, "vae: unknown field 'latent_dim'"),
    ("embed", {**VAE_DOC, "preset_name": "chemical"}, "vae: unknown field 'preset_name'"),
    ("synth", {**SYNTH_DOC, "n_compund": 50}, "synth: unknown field 'n_compund'"),
    ("synth", with_field(SYNTH_DOC, ["tiers", 1, "flip"], 0.1),
     "synth.tiers[1]: unknown field 'flip'"),
    ("train", {**missing_data_doc(), "batch_szie": 8},
     "experiment: unknown field 'batch_szie'"),
    ("train", with_field(missing_data_doc(), ["data", "oracle"], "oracle.tsv"),
     "experiment.data: unknown field 'oracle'"),
    ("train", with_field(missing_data_doc(), ["arms", 1, "epochs"], 4),
     "experiment.arms[1]: unknown field 'epochs'"),
    ("diagnose", with_field(missing_data_doc(), ["arms", 0, "steps", 1, "tiers"], [700, 900]),
     "experiment.arms[0].steps[1]: unknown field 'tiers'"),
    ("train", with_field(EXPERIMENT_DOC, ["synth", "seeds"], 2), "synth: unknown field 'seeds'"),
], ids=["preset-misspelled", "preset-arch-field", "vae-full", "synth", "synth-tier",
        "experiment", "data", "arm", "step", "experiment-synth"])
def test_unknown_field_exit_1(tmp_path, command, doc, message, dry_run):
    # every data or bit-vector file named is missing, so a run that read one
    # would exit 2, and a synth run that ignored the field would exit 0
    config = write_json(tmp_path / "config.json", doc)
    out = tmp_path / "o"
    extra = ["--bitvectors", str(tmp_path / "nope.bits")] if command == "embed" else []
    proc = run_cli(command, "--config", config, "--out", str(out), *extra,
                   *(["--dry-run"] if dry_run else []))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"ERROR: config error: {message}"]
    assert not out.exists()


def write_grid_data(root, compound_rows=None, protein_rows=None, extra_rows=()):
    """A 10 x 10 grid of 2-wide latents, three positives per compound, as a data doc.

    ``compound_rows``/``protein_rows`` replace the latent values of some ids.
    """
    rows = [f"C{i}\tP{(i + shift) % 10}\t{score}\n"
            for i in range(10) for shift, score in ((0, 950), (1, 800), (2, 500))]
    rows += extra_rows
    (root / "interactions.tsv").write_text("".join(rows), encoding="utf-8")
    for prefix, name, special in (("C", "compounds.tsv", compound_rows or {}),
                                  ("P", "proteins.tsv", protein_rows or {})):
        (root / name).write_text("".join(
            f"{prefix}{i}\t{special.get(i, f'{i / 10},{1 - i / 10}')}\n" for i in range(10)
        ), encoding="utf-8")
    return {**missing_data_doc(), "data": {
        "interactions": "interactions.tsv",
        "compound_features": "compounds.tsv",
        "protein_features": "proteins.tsv",
    }}


@pytest.mark.parametrize("dry_run", [True, False])
def test_non_utf8_config_exit_1(tmp_path, dry_run):
    config = tmp_path / "exp.json"
    config.write_bytes(b'{"seed": 3, "note": "\xff"}')
    out = tmp_path / "o"
    proc = run_cli("train", "--config", str(config), "--out", str(out),
                   *(["--dry-run"] if dry_run else []))
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"ERROR: config error: cannot read config {config}: ")
    assert "can't decode byte 0xff" in line
    assert not out.exists()


@pytest.mark.parametrize("bad", ["interactions.tsv", "compounds.tsv"])
def test_non_utf8_data_file_exit_2(tmp_path, bad):
    doc = write_grid_data(tmp_path)
    path = tmp_path / bad
    path.write_bytes(path.read_bytes().replace(b"C7", b"C\xff"))
    out = tmp_path / "o"
    proc = run_cli("train", "--config", write_json(tmp_path / "exp.json", doc),
                   "--out", str(out))
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"ERROR: data error: {path}: not UTF-8 text: ")
    assert not (out / "manifest.json").exists()


def corrupt(data: bytes, kind: str, line: int, at: int, byte: bytes, sep: bytes) -> bytes:
    """``data`` (LF-terminated lines) with one line damaged in the way ``kind``
    names; ``sep`` separates a line's values (empty for the characters of bits)."""
    lines = data.split(b"\n")[:-1]
    i = line % len(lines)
    row = lines[i]
    cut = at % (len(row) + 1)
    if kind == "truncated line":
        lines[i] = row[:cut]
    elif kind == "truncated file":
        lines, tail = lines[:i], row[:cut]
        return b"".join(ln + b"\n" for ln in lines) + tail
    elif kind == "bad byte":
        lines[i] = row[:cut] + byte + row[cut:]
    elif kind == "wrong width":
        extra = {b",": b",0.5", b"\t": b"\t1", b"": b"1"}[sep]
        lines[i] = row + extra if at % 2 else row[:row.rfind(sep) if sep else -1]
    elif kind == "duplicate id":
        lines.insert(i, row)
    return b"".join(ln + b"\n" for ln in lines)


# the grid's scores, one per tier of the experiment: 500 trains step 1, 800
# step 2 and the baseline, 950 is validation
TIER_SCORES = (b"500", b"800", b"950")


@settings(max_examples=32, deadline=None)
@given(
    target=st.sampled_from(["interactions.tsv", "compounds.tsv", "proteins.tsv",
                            "vectors.bits"]),
    kind=st.sampled_from(["truncated line", "truncated file", "bad byte",
                          "wrong width", "duplicate id", "empty tier"]),
    line=st.integers(0, 100), at=st.integers(0, 100),
    byte=st.sampled_from([b"\xff", b"\x00", b"\t", b",", b"\r", b" ", b"-", b"e"]),
)
def test_corrupted_data_files_fail_cleanly(target, kind, line, at, byte):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        doc = write_grid_data(root)
        # the bits are embedded, the other files trained on
        argv = ["train", "--config", write_json(root / "exp.json", doc)]
        if target == "vectors.bits" and kind != "empty tier":
            argv = ["embed", "--config", write_json(root / "vae.json", VAE_DOC),
                    "--bitvectors", write_small_bits(root / target)]
        if kind == "empty tier":
            # every record of one tier rescored below all tiers
            score = TIER_SCORES[line % 3]
            path = root / "interactions.tsv"
            path.write_bytes(path.read_bytes().replace(b"\t" + score + b"\n", b"\t100\n"))
        else:
            path = root / target
            sep = {"interactions.tsv": b"\t", "vectors.bits": b""}.get(target, b",")
            path.write_bytes(corrupt(path.read_bytes(), kind, line, at, byte, sep))
        out = root / "o"
        proc = run_cli(*argv, "--out", str(out), TIERFLOW_LOG="error")
        manifest = (out / "manifest.json").exists()
    assert proc.returncode in (0, 1, 2, 3), proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == (proc.returncode != 0), proc.stderr
    assert manifest == (proc.returncode == 0)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_latent_exit_2(tmp_path, value):
    doc = write_grid_data(tmp_path, {3: f"{value},0.5"})
    out = tmp_path / "o"
    proc = run_cli("train", "--config", write_json(tmp_path / "exp.json", doc),
                   "--out", str(out))
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    assert line.startswith(
        f"ERROR: data error: {tmp_path / 'compounds.tsv'}:4: non-finite value "
    )
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("dry_run", [True, False])
@pytest.mark.parametrize("nested", [False, True])
def test_out_naming_a_file_exit_1(tmp_path, synth_config, dry_run, nested):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    out = taken / "sub" if nested else taken
    proc = run_cli("synth", "--config", synth_config, "--out", str(out),
                   *(["--dry-run"] if dry_run else []))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"ERROR: config error: --out {out}: {taken} is not a writable directory"
    ]
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize("start_method, command", [
    (None, "train"), ("spawn", "train"), (None, "diagnose"),
], ids=["None", "spawn", "diagnose"])
def test_overflow_in_training_exit_3(tmp_path, start_method, command):
    # C3 and P4 form a [700, 900) positive; with seed 3 the first layer's
    # pre-activations overflow on that pair.  Arms run in spawned workers,
    # which do not inherit the parent's floating-point error state, must
    # fail the same way.  The drift protocol trains without evaluating, so
    # its case shows that the training forward alone catches the overflow
    # (the pair enters with step 2 of the ftl arm).
    doc = write_grid_data(tmp_path, {3: "1e308,1e308"}, {4: "1e308,1e308"})
    out = tmp_path / "o"
    argv = [command, "--config", write_json(tmp_path / "exp.json", doc), "--out", str(out)]
    if command == "diagnose":
        argv += ["--delta", "2"]
    if start_method is None:
        proc = run_cli(*argv)
    else:
        script = ("import multiprocessing, sys; multiprocessing.set_start_method(sys.argv[1]);"
                  " from tierflow.cli import main; sys.exit(main(sys.argv[2:]))")
        proc = run_python("-c", script, start_method, *argv, "--jobs", "2")
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "ERROR: numeric failure: overflow encountered in matmul"
    ]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("ghost_score, code", [(800, 2), (100, 0)],
                         ids=["in-trained-tier", "below-every-tier"])
def test_unknown_compound_id(tmp_path, ghost_score, code):
    doc = write_grid_data(tmp_path, extra_rows=[f"GHOST\tP0\t{ghost_score}\n"])
    out = tmp_path / "o"
    proc = run_cli("train", "--config", write_json(tmp_path / "exp.json", doc),
                   "--out", str(out))
    assert proc.returncode == code
    if code:
        assert proc.stderr.splitlines() == ["ERROR: data error: unknown compound id 'GHOST'"]
    assert (out / "manifest.json").exists() == (code == 0)


def test_nul_in_id_exit_2(tmp_path):
    # NumPy's str dtype drops a trailing NUL, so "C1\x00" would train on the
    # features of C1, and C1's own row would lose its positives
    doc = write_grid_data(tmp_path, extra_rows=["C1\x00\tP5\t800\n"])
    compounds = tmp_path / "compounds.tsv"
    compounds.write_text(compounds.read_text(encoding="utf-8") + "C1\x00\t0.5,0.5\n",
                         encoding="utf-8")
    out = tmp_path / "o"
    proc = run_cli("train", "--config", write_json(tmp_path / "exp.json", doc),
                   "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        f"ERROR: data error: {tmp_path / 'interactions.tsv'}:31: NUL in id 'C1\\x00'"
    ]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("dry_run", [True, False])
@pytest.mark.parametrize("command", ["train", "synth", "embed"])
def test_config_nested_past_recursion_limit_exit_1(tmp_path, small_bits, command, dry_run):
    config = tmp_path / "deep.json"
    config.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    out = tmp_path / "o"
    extra = ["--bitvectors", small_bits] if command == "embed" else []
    proc = run_cli(command, "--config", str(config), "--out", str(out), *extra,
                   *(["--dry-run"] if dry_run else []))
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"ERROR: config error: cannot read config {config}: maximum ")
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_unallocatable_network_exit_3(tmp_path, jobs):
    # a valid architecture whose first weights alone would take hundreds of
    # PiB: beyond even a 57-bit address space, so the allocation fails before
    # it commits any memory
    doc = {**EXPERIMENT_DOC, "hidden_layers": [2**50]}
    config = write_json(tmp_path / "exp.json", doc)
    out = tmp_path / "o"
    assert run_cli("train", "--config", config, "--out", str(out), "--dry-run").returncode == 0
    proc = run_cli("train", "--config", config, "--out", str(out), "--jobs", jobs)
    assert proc.returncode == 3
    [line] = proc.stderr.splitlines()
    assert line.startswith("ERROR: out of memory: Unable to allocate ")
    assert not (out / "manifest.json").exists()


@pytest.mark.skipif(platform.system() != "Linux", reason="RLIMIT_AS caps mappings on Linux")
def test_memory_exhaustion_exit_3(tmp_path):
    # the protein preset's 5508-bit VAE needs hundreds of MiB for its weights
    # and Adam state; under a 300 MiB address space it cannot be built, while
    # the same command's dry run (imports, config and data) fits, so the limit
    # trips on the model
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))

    rng = np.random.default_rng(5)
    lines = ["#width=5508"] + [
        f"p{i:03d}\t" + "".join(np.where(rng.random(5508) < 0.5, "1", "0")) for i in range(64)
    ]
    bits = tmp_path / "proteins.bits"
    bits.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = write_json(tmp_path / "vae.json", {"preset": "protein", "seed": 1, "epochs": 1})
    out = tmp_path / "o"
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])), OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-m", "tierflow", "embed", "--config", config,
            "--bitvectors", str(bits), "--out", str(out)]
    for dry_run, code in ((True, 0), (False, 3)):
        proc = subprocess.run(
            argv + ["--dry-run"] * dry_run, capture_output=True, text=True, env=env,
            preexec_fn=limit_address_space, timeout=120,
        )
        assert proc.returncode == code, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("ERROR: out of memory: ")
    names = ("vae.json", "latents.tsv", "metrics.csv", "manifest.json")
    assert not [p for p in out.glob("*") if p.name in names or p.suffix == ".tmp"]


@pytest.mark.parametrize("module, attr", [
    ("tierflow.ftl", "adam_step"),  # while an arm trains
    ("tierflow.checkpoint", "format_floats"),  # while a checkpoint is written
])
def test_interrupt_exit_130(tmp_path, experiment_config, monkeypatch, caplog, capsys,
                            module, attr):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(f"{module}.{attr}", interrupt)
    out = tmp_path / "o"
    assert main(["train", "--config", experiment_config, "--out", str(out)]) == 130
    assert [(r.levelname, r.getMessage()) for r in caplog.records
            if r.levelno >= 30] == [("ERROR", "interrupted")]
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    assert not list(out.glob("*.tmp"))


MUTATION_POOL = [None, True, "x", -1, 0, 1.5, float("nan"), [], [0], {}]
MUTABLE_FIELDS = (
    [[key] for key in [*EXPERIMENT_DOC, "reset_optimizer_between_steps"]]
    + [["arms", i, key] for i in range(2) for key in ("name", "steps")]
    + [["arms", i, "steps", j, key]
       for i, arm in enumerate(EXPERIMENT_DOC["arms"])
       for j in range(len(arm["steps"]))
       for key in ("tier", "epochs")]
)


@settings(max_examples=30, deadline=None)
@given(path=st.sampled_from(MUTABLE_FIELDS), value=st.sampled_from(MUTATION_POOL))
def test_dry_run_rejects_what_real_run_rejects(path, value):
    # the pool holds no large sizes, so a real run stays small
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        config = write_json(root / "exp.json", with_field(EXPERIMENT_DOC, path, value))
        dry = main(["train", "--config", config, "--out", str(root / "dry"), "--dry-run"])
        real = main(["train", "--config", config, "--out", str(root / "real")])
    assert dry in (0, 1) and real in (0, 1, 2, 3)
    assert (dry == 1) == (real == 1)


# runs the CLI with os.replace failing for one artifact name, after the
# temporary file was written
FAILING_REPLACE = """
import os, pathlib, sys
real_replace = os.replace
def replace(src, dst):
    if pathlib.Path(dst).name == sys.argv[1]:
        if not pathlib.Path(src).exists():
            raise SystemExit("the temporary file was not written")
        raise OSError(28, "No space left on device")
    real_replace(src, dst)
os.replace = replace
from tierflow.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("command, artifact", [
    ("synth", "compounds.bits"), ("synth", "interactions.tsv"), ("synth", "oracle.tsv"),
    ("embed", "vae.json"), ("embed", "latents.tsv"), ("embed", "metrics.csv"),
    ("train", "metrics_ftl.csv"), ("train", "checkpoint_baseline.json"),
    ("train", "report.json"), ("diagnose", "weight_drift.csv"),
    ("diagnose", "manifest.json"),
])
def test_failed_write_leaves_no_artifact(
    tmp_path, synth_config, experiment_config, small_bits, command, artifact
):
    config = {"synth": synth_config, "embed": write_json(tmp_path / "vae.json", VAE_DOC),
              "train": experiment_config, "diagnose": experiment_config}[command]
    out = tmp_path / "o"
    argv = [command, "--config", config, "--out", str(out)]
    argv += {"embed": ["--bitvectors", small_bits], "diagnose": ["--delta", "1"]}.get(
        command, []
    )
    proc = run_python("-c", FAILING_REPLACE, artifact, *argv, TIERFLOW_LOG="error")
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"ERROR: output error: cannot write {out / artifact}: No space left on device"
    ]
    assert not (out / artifact).exists()
    assert not (out / "manifest.json").exists()
    assert not list(out.glob("*.tmp"))


# runs the CLI with a negative sampler whose training-step negatives include a
# validation negative, the first pair the run sampled
LEAKING_SAMPLER = """
import sys
import numpy as np
import tierflow.ftl
real_sample = tierflow.ftl.sample_negatives
drawn = []
def sample_negatives(*args):
    chosen = real_sample(*args)
    drawn.append(chosen)
    return chosen if len(drawn) == 1 else np.concatenate([drawn[0][:1], chosen[1:]])
tierflow.ftl.sample_negatives = sample_negatives
from tierflow.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_leaked_validation_pair_exit_2(tmp_path, experiment_config):
    out = tmp_path / "o"
    proc = run_python("-c", LEAKING_SAMPLER, "train", "--config", experiment_config,
                      "--out", str(out), TIERFLOW_LOG="error")
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "ERROR: data error: step 1: validation pairs leaked into a training step"
    ]
    assert not (out / "manifest.json").exists()


# a sitecustomize module, which every Python process that has it on its path
# runs first, spawned workers too: train_ftl ends the process of the two-step
# arm at once, as a kill by the kernel's out-of-memory killer would
DYING_WORKER = """
import os
import tierflow.ftl
real_train_ftl = tierflow.ftl.train_ftl
def train_ftl(schedule, *args, **kwargs):
    if len(schedule.steps) == 2:
        os._exit(9)
    return real_train_ftl(schedule, *args, **kwargs)
tierflow.ftl.train_ftl = train_ftl
"""


def test_dying_worker_exit_3(tmp_path, monkeypatch, experiment_config):
    (tmp_path / "sitecustomize.py").write_text(DYING_WORKER, encoding="utf-8")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    out = tmp_path / "o"
    proc = run_cli("train", "--config", experiment_config, "--out", str(out), "--jobs", "2",
                   TIERFLOW_LOG="error")
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "ERROR: worker died: the worker process of arm 'ftl' ended abruptly (exit code 9)"
    ]
    assert not (out / "manifest.json").exists()


def test_killed_worker_names_its_signal(tmp_path, monkeypatch, experiment_config):
    # a SIGKILL, as the kernel's out-of-memory killer sends
    killing = DYING_WORKER.replace("os._exit(9)", "os.kill(os.getpid(), 9)")
    (tmp_path / "sitecustomize.py").write_text(killing, encoding="utf-8")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    proc = run_cli("train", "--config", experiment_config, "--out", str(tmp_path / "o"),
                   "--jobs", "2", TIERFLOW_LOG="error")
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "ERROR: worker died: the worker process of arm 'ftl' ended abruptly (signal 9)"
    ]


def test_train_reset_optimizer_flag_changes_metrics(experiment_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["train", "--config", experiment_config, "--out", str(out_a)])
    main(["train", "--config", experiment_config, "--out", str(out_b),
          "--reset-optimizer"])
    assert (out_a / "metrics_ftl.csv").read_bytes() != (out_b / "metrics_ftl.csv").read_bytes()
    # single-step baseline has no boundary to reset at
    assert (out_a / "metrics_baseline.csv").read_bytes() == (
        out_b / "metrics_baseline.csv"
    ).read_bytes()


def test_numeric_failure_exit_3(monkeypatch, tmp_path, synth_config):
    from tierflow import cli
    from tierflow.errors import NumericError

    def explode(args, doc):
        raise NumericError("non-finite values in forward output")

    monkeypatch.setitem(cli._COMMANDS, "synth", explode)
    assert main(["synth", "--config", synth_config, "--out", str(tmp_path / "o")]) == 3


# ---------------------------------------------------------------- shipped configs


def test_shipped_configs_parse(capsys):
    import pathlib

    configs = pathlib.Path(__file__).resolve().parent.parent / "configs"
    assert main(["train", "--config", str(configs / "benchmark_experiment.json"),
                 "--dry-run"]) == 0
    assert main(["synth", "--config", str(configs / "synth_small.json"),
                 "--dry-run"]) == 0
    assert main(["train", "--config", str(configs / "stitch_reference.json"),
                 "--dry-run"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------- hashing


NO_OPENSSL_SCRIPT = (
    "import sys\n"
    "from tierflow.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(sorted(m for m in ('_hashlib', 'ssl') if m in sys.modules))\n"
    "sys.exit(code)\n"
)


def test_commands_load_no_openssl(tmp_path, synth_config, experiment_config, small_bits):
    # the inputs are made here, the commands run in fresh interpreters: what a
    # command imports to hash its seeds and its manifest never loads OpenSSL
    vae_config = write_json(tmp_path / "vae.json", VAE_DOC)
    runs = {
        "synth": ["synth", "--config", synth_config],
        "embed": ["embed", "--config", vae_config, "--bitvectors", small_bits],
        "train-1": ["train", "--config", experiment_config, "--jobs", "1"],
        "train-2": ["train", "--config", experiment_config, "--jobs", "2"],
        "diagnose": ["diagnose", "--config", experiment_config, "--jobs", "1",
                     "--delta", "1"],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        proc = run_python("-c", NO_OPENSSL_SCRIPT, *argv, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]", name
        assert (out / "manifest.json").exists()


def test_manifest_digests_are_sha256(tmp_path, experiment_config):
    out = tmp_path / "out"
    assert main(["train", "--config", experiment_config, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["outputs"]) == 5
    for name, digest in manifest["outputs"].items():
        assert digest == "sha256:" + hashlib.sha256((out / name).read_bytes()).hexdigest()
    doc = json.loads(pathlib.Path(experiment_config).read_text())
    assert manifest["config_digest"] == "sha256:" + hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


HASHLIB_FALLBACK_SCRIPT = (
    "import json, pathlib, sys\n"
    # hashlib takes blake2b from _blake2 itself, so it is imported before the
    # built-in modules are hidden from tierflow's own imports
    "import hashlib\n"
    "for name in ('_sha2', '_sha256', '_blake2'):\n"
    "    sys.modules[name] = None\n"
    "from tierflow import cli, rng\n"
    "assert cli.sha256 is hashlib.sha256 and rng.blake2b is hashlib.blake2b\n"
    "print(json.dumps([cli._file_digest(pathlib.Path(sys.argv[1])), cli._digest({'a': [1]}),\n"
    "                  rng.derive_seed(7, 'init'), rng.derive_seed(2**64 - 1, 'shuffle', 3, -1)]))\n"
)


def test_hashlib_fallback_gives_the_same_digests_and_seeds(tmp_path, small_bits):
    from tierflow import rng

    assert cli_module.sha256 is not hashlib.sha256  # the built-in module's
    proc = run_python("-c", HASHLIB_FALLBACK_SCRIPT, small_bits)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        cli_module._file_digest(pathlib.Path(small_bits)), cli_module._digest({"a": [1]}),
        rng.derive_seed(7, "init"), rng.derive_seed(2**64 - 1, "shuffle", 3, -1),
    ]
