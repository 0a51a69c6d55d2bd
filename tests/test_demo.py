import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def artifacts(root):
    """Bytes of every train and diagnose artifact; manifests carry wall-clock times."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for stage in ("train", "diagnose")
        for path in sorted((root / stage).iterdir())
        if path.name != "manifest.json"
    }


def test_demo_runs_and_reruns_byte_identical(tmp_path, capsys):
    demo = load_script("run_demo")
    assert demo.run(tmp_path / "a") == 0
    assert demo.run(tmp_path / "b") == 0
    capsys.readouterr()
    first = artifacts(tmp_path / "a")
    assert "diagnose/weight_drift.csv" in first and "train/report.json" in first
    assert first == artifacts(tmp_path / "b")


def test_scale_data_path_smoke(tmp_path):
    scale = load_script("scale_data_path")
    report = scale.run(2_000, 1, tmp_path, compounds=400, proteins=100)
    assert list(report["stages"]) == [
        "generate", "load_interactions", "load_latents", "data_context",
        "tier_mask", "negatives", "row_gather", "train_one_epoch",
    ]
    assert all(stage["s"] >= 0 for stage in report["stages"].values())
    # the step's rows are its positives and as many negatives, gathered 64 +
    # 128 wide into one block of at most 4096 rows
    assert report["step_rows"] > 0 and report["step_rows"] % 2 == 0
    block_rows = min(report["step_rows"], 4096)
    assert report["block_mb"] == round(block_rows * 192 * 8 / 2**20, 1)
    assert report["peak_rss_mb"] >= max(s["peak_rss_mb"] for s in report["stages"].values())


def test_scale_data_path_script_reports_every_stage():
    # the script as documented, on its own grid, so that it keeps running as a command
    src = SCRIPTS.parent / "src"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "scale_data_path.py"), "--records", "20000"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr
    *table, last = proc.stdout.splitlines()
    report = json.loads(last)
    stages = ["generate", "load_interactions", "load_latents", "data_context", "tier_mask",
              "negatives", "row_gather", "train_one_epoch"]
    assert (report["records"], report["grid"]) == (20000, [20000, 2000])
    assert list(report["stages"]) == stages
    assert [line.split()[0] for line in table] == stages


def test_scale_data_path_vae_smoke(tmp_path):
    scale = load_script("scale_data_path")
    report = scale.run_vae(300, 96, 1, tmp_path)
    assert list(report["stages"]) == [
        "generate", "load_bitvectors", "train_vae_one_epoch", "embed", "save_vae",
        "save_latents",
    ]
    assert report["latents_mb"] == round(300 * 64 * 8 / 2**20, 1)
    assert (tmp_path / "vae.json").stat().st_size > 0
    assert len((tmp_path / "latents.tsv").read_text(encoding="utf-8").splitlines()) == 300
    # 96 bits is nearest the chemical preset, whose shape the VAE takes
    assert (report["hidden"], report["latent"], report["batch_size"]) == ([256, 128], 64, 1000)
    assert report["peak_rss_mb"] >= max(s["peak_rss_mb"] for s in report["stages"].values())
    with pytest.raises(SystemExit):
        scale.main(["--records", "10", "--vae-entries", "3", "--vae-bits", "4"])
    with pytest.raises(SystemExit):
        scale.main(["--vae-entries", "3"])
