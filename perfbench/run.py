"""Benchmark of the ``tierflow`` CLI, driven from outside as a user runs it.

    python3 perfbench/run.py --workload tiered_train --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each run of the command is a fresh child
process; children run one at a time (a closed loop with one client), for
``--seconds`` seconds and at least ``MIN_RUNS`` times.  Every child gets
``BLAS_THREADS`` BLAS/OpenMP threads through its environment.

``--trace 0`` loads no instrumentation beyond the one "data ready" stamp and
reports the end-to-end metrics: medians of the child's CPU seconds (user +
system, as ``time`` reports them), the CPU seconds it spent before its data
was ready, training rows per CPU second after that, and peak RSS.  Times are
CPU seconds because on a shared virtual machine the wall time also counts
the moments the host runs other guests instead of this one (steal), which
swing it by a quarter from one minute to the next; the CPU time of the same
child moves about a third as much.  The wall-clock counterparts (``wall_s``,
``setup_wall_s``, ``train_rows_per_s``) are printed too, outside the result.
``--trace 1`` alternates plain and traced children and reports the per-layer
metrics of the traced ones (see ``spans.py``), plus the tracing overhead.
``--workload all`` runs every workload in turn.

Every run's outputs are checked: exit code 0, every artifact the manifest
lists present with the manifest's sha256, the workload's own checks, digests
equal across the runs of one invocation, and equal to the reference digests
in ``reference.json`` pinned for this seed and BLAS setting, when there are
any.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread: artifact digests differ in the last ulp between 1 and 2
# threads, and single-threaded children time more steadily on a shared machine.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, str(BLAS_THREADS)))

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_RUNS = 3          # untraced runs per invocation, so set-up time has a median
MIN_TRACED_RUNS = 2   # one plain and one traced child
BUDGET_S = 170.0      # every child is killed past this point of the invocation
REQUIRED = ("src/tierflow/cli.py", "src/tierflow/__main__.py", workloads.SHIPPED_CONFIG)
REFERENCE = HERE / "reference.json"


def _blas_core() -> str:
    """OpenBLAS's name for the kernel set it chose on this CPU, if it says."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in glob.glob(os.path.join(site, "numpy.libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return "unknown"


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    mem_kb = 0
    with open("/proc/meminfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_core": _blas_core(),
        **{var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb // 1024,
    }


def pin_key(env: dict) -> str:
    return f"blas_threads={env['OPENBLAS_NUM_THREADS']} core={env['blas_core']}"


@dataclass
class Run:
    """One child process: what it cost and whether its outputs were right."""

    traced: bool
    wall_s: float = 0.0
    setup_s: float | None = None
    cpu_s: float = 0.0
    setup_cpu_s: float | None = None
    rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    calls: dict[str, list[float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # it exited just before the deadline
        pass


def run_child(workload: workloads.Workload, work: Path, index: int, traced: bool,
              timeout: float) -> Run:
    """Spawn one child, wait for it with ``os.wait4`` and check what it wrote."""
    run = Run(traced)
    out = work / f"run{index}"
    stamp = work / f"stamp{index}.json"
    span_file = work / f"spans{index}.json"
    argv = [sys.executable, str(HERE / "child.py"), str(stamp),
            str(span_file) if traced else "-", "--",
            *workload.cli_args, "--out", str(out)]
    with open(work / f"run{index}.log", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, _kill, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        exited = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    run.wall_s = exited - spawned
    # ru_maxrss of this child alone, in KiB on Linux
    run.rss_mb = usage.ru_maxrss / 1024.0
    run.cpu_s = usage.ru_utime + usage.ru_stime
    if proc.returncode != 0:
        tail = (work / f"run{index}.log").read_text(errors="replace").strip().splitlines()[-3:]
        run.problems.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
        return run
    ready = json.loads(stamp.read_text(encoding="utf-8"))
    if ready["data_ready"] is None:
        run.problems.append("the data-ready stamp never fired")
    else:
        run.setup_s = ready["data_ready"] - spawned
        run.setup_cpu_s = ready["data_ready_cpu"]
    run.digests, problems = workloads.check_outputs(workload, out)
    run.problems += problems
    if traced:
        trace = json.loads(span_file.read_text(encoding="utf-8"))
        root = len(trace["spans"])
        for record in trace["spans"]:
            if record[3] < 0:
                record[3] = root
        trace["spans"].append(["process", spawned, exited, -1])
        run.layers = spans.analyze(trace)
        if abs(run.layers["trace.self_sum_ratio"] - 1.0) > 1e-6:
            run.problems.append("span self times do not sum to the traced wall time")
        for name in ("engine.forward", "engine.adam_step"):
            run.calls[name] = [e - s for n, s, e, _ in trace["spans"] if n == name]
    return run


def judge_digests(runs: list[Run], pinned: dict | None) -> None:
    """Fail runs whose digests differ from the pin or, unpinned, from the first run."""
    expected = pinned
    for run in runs:
        if not run.ok or not run.digests:
            continue
        if expected is None:
            expected = run.digests
        if run.digests != expected:
            changed = sorted(k for k in set(run.digests) | set(expected)
                             if run.digests.get(k) != expected.get(k))
            source = "reference digests" if pinned is not None else "the first run"
            run.problems.append(f"digests of {changed} differ from {source}")


def measure(workload: workloads.Workload, work: Path, seconds: float, trace: bool,
            deadline: float) -> list[Run]:
    runs: list[Run] = []
    minimum = MIN_TRACED_RUNS if trace else MIN_RUNS
    started = time.monotonic()
    while True:
        now = time.monotonic()
        typical = statistics.median(r.wall_s for r in runs) if runs else 0.0
        if len(runs) >= minimum and now - started + typical > seconds or now >= deadline:
            return runs
        traced = trace and len(runs) % 2 == 1
        runs.append(run_child(workload, work, len(runs), traced, deadline - now))
        shutil.rmtree(work / f"run{len(runs) - 1}", ignore_errors=True)


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


# printed with the end-to-end metrics but not part of the result: wall-clock
# figures, which include the time the host gives to other guests
WALL_CLOCK = {"wall_s": "s", "setup_wall_s": "s", "train_rows_per_s": "rows/s"}


def end_to_end(workload: workloads.Workload, runs: list[Run]) -> dict[str, float]:
    good = [r for r in runs if r.ok and not r.traced]
    return {
        "cpu_s": _median(r.cpu_s for r in good),
        "setup_s": _median(r.setup_cpu_s for r in good),
        "train_rows_per_cpu_s": _median(workload.rows / (r.cpu_s - r.setup_cpu_s)
                                        for r in good),
        "peak_rss_mb": _median(r.rss_mb for r in good),
        "wall_s": _median(r.wall_s for r in good),
        "setup_wall_s": _median(r.setup_s for r in good),
        "train_rows_per_s": _median(workload.rows / (r.wall_s - r.setup_s) for r in good),
    }


def per_layer(runs: list[Run]) -> dict[str, float]:
    traced = [r for r in runs if r.ok and r.traced]
    plain = [r for r in runs if r.ok and not r.traced]
    names = {name for r in traced for name in r.layers}
    out = {name: _median(r.layers.get(name, 0.0) for r in traced) for name in names}
    out["trace.wall_s"] = _median(r.wall_s for r in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - _median(r.wall_s for r in plain)
    # wall and waiting time of the untraced children; waiting includes host steal
    out["process.wall_s"] = _median(r.wall_s for r in plain)
    out["process.wait_s"] = _median(r.wall_s - r.cpu_s for r in plain)
    for name in ("engine.forward", "engine.adam_step"):
        pooled = [d for r in traced for d in r.calls.get(name, ())]
        p50, pct, tail = spans.call_percentiles(pooled)
        out[f"{name}.call_p50_ms"] = p50
        out[f"{name}.call_tail_pct"] = pct
        out[f"{name}.call_tail_ms"] = tail
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 env: dict, pin: bool = False) -> dict:
    started = time.monotonic()
    work = ROOT / ".perfbench" / f"{name}-{size}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = workloads.prepare(name, seed, size, work, ROOT)
        print(f"# {name}: inputs ready in {time.monotonic() - started:.2f} s; "
              f"{workload.rows} training rows x epochs per run", flush=True)
        references = json.loads(REFERENCE.read_text(encoding="utf-8"))
        pinned = None
        if size == "full":
            setting = references.get(pin_key(env))
            if setting is None:
                print(f"# FLAG: no reference digests pinned under '{pin_key(env)}'; "
                      f"pinned settings: {sorted(references)}", flush=True)
            else:
                pinned = setting.get(name, {}).get(workload.pin_seed)
        t0 = time.monotonic()
        runs = measure(workload, work, seconds, trace, started + BUDGET_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    judge_digests(runs, pinned)
    failed = [r for r in runs if not r.ok]
    for i, r in enumerate(runs):
        for problem in r.problems:
            print(f"# run {i} failed: {problem}", file=sys.stderr, flush=True)
    if pin and not failed:
        pins = references.setdefault(pin_key(env), {}).setdefault(name, {})
        pins[workload.pin_seed] = runs[0].digests
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    measured = per_layer(runs) if trace else end_to_end(workload, runs)
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in doc["per_layer" if trace else "end_to_end"]}
    plain = sum(1 for r in runs if not r.traced)
    print(f"# {name}: {len(runs)} runs ({plain} plain, {len(runs) - plain} traced) "
          f"in {time.monotonic() - t0:.1f} s, digests "
          f"{'pinned' if pinned is not None else 'unpinned'}", flush=True)
    samples = [r for r in runs if r.ok and r.traced == trace]
    print(f"# {name}: cpu_s/wall_s of each {'traced ' if trace else ''}run: "
          + " ".join(f"{r.cpu_s:.3f}/{r.wall_s:.3f}" for r in samples), flush=True)
    for metric, entry in metrics.items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    if not trace:
        for metric, unit in WALL_CLOCK.items():
            print(f"{name} {metric} {measured[metric]:.6g} {unit}")
    print(f"{name} error_rate {len(failed) / len(runs):.6g} ratio "
          f"({len(failed)} of {len(runs)} runs failed)", flush=True)
    return {
        "correct": not failed and bool(samples),
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for smoke tests")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's digests in reference.json")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: the program is missing here: {', '.join(missing)}", file=sys.stderr)
        return 2
    # compile up front so the first child does not pay for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")])
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.size, env,
                           args.pin)
        for name in names
    }
    if any(r["failed"] == r["attempted"] for r in results.values()):
        print("perfbench: no run produced usable outputs", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
