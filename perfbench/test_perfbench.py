"""Tests of the benchmark harness itself: ``python3 -m pytest perfbench -q``.

Each workload runs at the ``tiny`` size, so the whole file takes well under
a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DOC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in DOC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(name, trace):
    proc = _bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= (run.MIN_TRACED_RUNS if trace else run.MIN_RUNS)
    expected = {m["name"]: m["unit"] for m in DOC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = expected if trace else {**expected, **run.WALL_CLOCK}
    for metric, unit in printed.items():
        assert any(ln.startswith(f"{name} {metric} ") and ln.endswith(f" {unit}")
                   for ln in lines), metric
    assert any(ln.startswith(f"{name} error_rate 0 ratio") for ln in lines)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["trace.self_sum_ratio"] == pytest.approx(1.0, abs=1e-9)
    else:
        assert all(v > 0 for v in values.values()), values


def _flip_a_digit(path: Path) -> None:
    data = bytearray(path.read_bytes())
    at = data.index(b'"weights": [') + len(b'"weights": [')
    while not chr(data[at]).isdigit():
        at += 1
    data[at] = ord("1") if data[at] != ord("1") else ord("2")
    path.write_bytes(bytes(data))


def test_flipped_byte_in_a_copied_artifact_fails_the_run(tmp_path):
    work = tmp_path / "work"
    workload = workloads.prepare("tiered_train", 3, "tiny", work, ROOT)
    first = run.run_child(workload, work, 0, traced=False, timeout=120)
    assert first.ok, first.problems

    copy = tmp_path / "copy"
    shutil.copytree(work / "run0", copy)
    artifact = copy / "checkpoint_baseline_high.json"
    _flip_a_digit(artifact)
    _, problems = workloads.check_outputs(workload, copy)
    assert problems == ["checkpoint_baseline_high.json does not match its manifest sha256"]

    # with the manifest rewritten to match, the pinned digest still catches it
    manifest_path = copy / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["outputs"][artifact.name] = workloads.file_digest(artifact)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    flipped = run.Run(traced=False)
    flipped.digests, flipped.problems = workloads.check_outputs(workload, copy)
    assert flipped.ok
    run.judge_digests([flipped], pinned=first.digests)
    assert not flipped.ok
    assert "checkpoint_baseline_high.json" in flipped.problems[0]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "tiered_train", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
    assert "{" not in proc.stdout


def test_self_time_subtracts_the_union_of_children():
    trace = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 6.0, 0],
        ["a.child", 2.0, 3.0, 1],
    ]
    assert spans.self_times(trace) == [6.0, 2.0, 1.0, 1.0]


@pytest.mark.parametrize("n, pct", [(9, 0.0), (20, 50.0), (100, 90.0), (1000, 99.0),
                                    (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond_it(n, pct):
    assert spans.tail_percentile(n) == pct
