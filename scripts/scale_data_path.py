"""Time and peak memory of tierflow's training data path at a given record count.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/scale_data_path.py --records 1000000

Generates ``--records`` interaction records on a 20k x 2k id grid, with the
low-skewed score distribution and the latent widths (64 compound, 128
protein) of the benchmark's ``scale_prep`` workload, and writes them as
tierflow data files in a temporary directory.  Then it runs, in this process
and in order, the stages of the data path for one training step on the tier
[319, 700): loading the three files, building the ``DataContext``, the tier
mask, the step's negatives, the step's feature gather, and one epoch of a
``[128, 64, 32, 16, 8]`` classifier (a one-step, one-epoch ``train_ftl`` call
with metrics off, which samples and gathers its own step and validation sets).

Each stage reports its wall seconds and the process's peak RSS after it
(``getrusage``, MiB), so the stage that sets the peak shows.  The last line of
standard output is one JSON object.  One BLAS thread, as above, matches the
benchmark's children.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from tierflow.data import TierSpec, load_interactions, load_latents, sample_negatives
from tierflow.ftl import DataContext, TrainSchedule, TrainStep, train_ftl
from tierflow.rng import RngStream

WIDTHS = (64, 128)  # compound, protein
STEP = TierSpec(319, 700)
VALIDATION = TierSpec(900, 1000)
HIDDEN = (128, 64, 32, 16, 8)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def generate(records: int, seed: int, work: Path, compounds: int, proteins: int) -> None:
    """interactions.tsv, compounds.tsv and proteins.tsv under ``work``."""
    if records > compounds * proteins:
        raise ValueError(f"{records} records do not fit a {compounds} x {proteins} grid")
    rng = np.random.default_rng(seed)
    # distinct pairs drawn in rounds: memory stays O(records), where a choice
    # without replacement may permute the whole grid
    flat = np.empty(0, dtype=np.int64)
    while len(flat) < records:
        flat = np.union1d(flat, rng.integers(0, compounds * proteins, records - len(flat)))
    flat = rng.permutation(flat)
    # most records sit in the weakest tier, few clear 700 or 900
    scores = np.minimum(1000, 150 + rng.exponential(200.0, size=records)).astype(np.int64)
    # written in blocks, so that the Python objects of the text stay a few MB
    # and the generator does not set the peak RSS the stages report
    with (work / "interactions.tsv").open("w", encoding="utf-8") as fh:
        for at in range(0, records, 65_536):
            block = zip(flat[at:at + 65_536].tolist(), scores[at:at + 65_536].tolist())
            fh.writelines(f"C{f // proteins:06d}\tP{f % proteins:05d}\t{s}\n" for f, s in block)
    for prefix, count, width, name in (
        ("C%06d", compounds, WIDTHS[0], "compounds.tsv"),
        ("P%05d", proteins, WIDTHS[1], "proteins.tsv"),
    ):
        values = rng.standard_normal((count, width))
        with (work / name).open("w", encoding="utf-8") as fh:
            for i, row in enumerate(values):
                fh.write(prefix % i + "\t" + ",".join(map(repr, row.tolist())) + "\n")


def run(records: int, seed: int, work: Path,
        compounds: int = 20_000, proteins: int = 2_000) -> dict:
    """Generate the files under ``work``, run every stage, and return the report."""
    report: dict = {"records": records, "seed": seed, "grid": [compounds, proteins],
                    "stages": {}}

    def stage(name, fn, *args):
        started = time.perf_counter()
        result = fn(*args)
        report["stages"][name] = {
            "s": round(time.perf_counter() - started, 3),
            "peak_rss_mb": round(peak_rss_mb(), 1),
        }
        return result

    stage("generate", generate, records, seed, work, compounds, proteins)
    table = stage("load_interactions", load_interactions, work / "interactions.tsv")
    stores = stage("load_latents", lambda: [
        load_latents(work / name) for name in ("compounds.tsv", "proteins.tsv")
    ])
    ctx = stage("data_context", DataContext, table, *stores)
    del table, stores
    positives = stage("tier_mask", ctx.tier_keys, STEP, "step 1")
    negatives = stage(
        "negatives", sample_negatives, len(ctx.compounds), len(ctx.proteins),
        ctx.positive_keys, len(positives), RngStream(seed),
    )
    x, _ = stage("feature_gather", ctx.feature_matrix, positives, negatives)
    report["step_rows"], report["x_mb"] = len(x), round(x.nbytes / 2**20, 1)
    del x
    schedule = TrainSchedule(
        steps=[TrainStep(STEP, 1)], validation_tier=VALIDATION, seed=seed,
        hidden_layers=HIDDEN,
    )
    stage("train_one_epoch", lambda: train_ftl(schedule, ctx, metrics=False))
    report["peak_rss_mb"] = round(peak_rss_mb(), 1)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--records", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        report = run(args.records, args.seed, Path(tmp))
    for name, entry in report["stages"].items():
        print(f"{name:>18}  {entry['s']:8.3f} s  peak {entry['peak_rss_mb']:8.1f} MiB")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
