"""Time and peak memory of tierflow's training data path at a given record count.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/scale_data_path.py --records 1000000
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/scale_data_path.py \
        --vae-entries 5000 --vae-bits 5508

Generates ``--records`` interaction records on a 20k x 2k id grid, with the
low-skewed score distribution and the latent widths (64 compound, 128
protein) of the benchmark's ``scale_prep`` workload, and writes them as
tierflow data files in a temporary directory.  Then it runs, in this process
and in order, the stages of the data path for one training step on the tier
[319, 700): loading the three files, building the ``DataContext``, the tier
mask, the step's negatives, gathering the step's rows from their pair keys in
4096-row blocks (as evaluation does; no step matrix is built), and one epoch
of a ``[128, 64, 32, 16, 8]`` classifier (a one-step, one-epoch ``train_ftl``
call with metrics off, which samples its own step and validation sets and
gathers each batch from keys).

With ``--vae-entries N --vae-bits W`` it measures the VAE front end instead:
it writes N random W-bit vectors as a bit-vector file, loads them, and trains
one epoch of a VAE shaped like the preset whose input width is nearest W
(``chemical``, 1024 bits, or ``protein``, 5508 bits: its hidden and latent
widths and batch size, with input width W), computes every vector's
posterior mean (``vae.embed``, as ``tierflow embed`` does), then saves the
trained model as a checkpoint and the means as a latent store.  So the memory
of the protein preset is measured, not extrapolated from the chemical one.

Each stage reports its wall seconds and the process's peak RSS after it
(``getrusage``, MiB), so the stage that sets the peak shows.  The last line of
standard output is one JSON object.  One BLAS thread, as above, matches the
benchmark's children.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from tierflow.data import (
    GATHER_ROWS,
    DataContext,
    TierSpec,
    load_bitvectors,
    load_interactions,
    load_latents,
    sample_negatives,
    save_latents,
)
from tierflow.ftl import TrainSchedule, TrainStep, tier_keys, train_ftl
from tierflow.rng import RngStream
from tierflow.vae import chemical_preset, embed, protein_preset, save_vae, train_vae

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
    # without replacement may permute the whole grid; each round's union is a
    # sort and a mask of adjacent repeats, as np.union1d is slow on large arrays
    flat = np.empty(0, dtype=np.int64)
    while len(flat) < records:
        flat = np.sort(np.concatenate(
            [flat, rng.integers(0, compounds * proteins, records - len(flat))]))
        flat = flat[np.concatenate([[True], flat[1:] != flat[:-1]])]
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


def stager(report: dict):
    """A ``stage(name, fn, *args)`` that runs ``fn(*args)`` and records its
    seconds and the peak RSS after it under ``report["stages"][name]``."""
    report["stages"] = {}

    def stage(name, fn, *args):
        started = time.perf_counter()
        result = fn(*args)
        report["stages"][name] = {
            "s": round(time.perf_counter() - started, 3),
            "peak_rss_mb": round(peak_rss_mb(), 1),
        }
        return result

    return stage


def gather_rows(ctx: DataContext, keys: np.ndarray) -> np.ndarray:
    """Gather the row of every key through ``DataContext.rows``, one
    evaluation-sized block at a time into one reused buffer; returns the buffer."""
    block = np.empty((min(len(keys), GATHER_ROWS), ctx.feature_dim))
    for at in range(0, len(keys), GATHER_ROWS):
        ctx.rows(keys[at:at + GATHER_ROWS], block)
    return block


def run(records: int, seed: int, work: Path,
        compounds: int = 20_000, proteins: int = 2_000) -> dict:
    """Generate the files under ``work``, run every stage, and return the report."""
    report: dict = {"records": records, "seed": seed, "grid": [compounds, proteins]}
    stage = stager(report)
    stage("generate", generate, records, seed, work, compounds, proteins)
    table = stage("load_interactions", load_interactions, work / "interactions.tsv")
    stores = stage("load_latents", lambda: [
        load_latents(work / name) for name in ("compounds.tsv", "proteins.tsv")
    ])
    ctx = stage("data_context", DataContext, table, *stores)
    del table, stores
    positives = stage("tier_mask", tier_keys, ctx, STEP, "step 1")
    negatives = stage(
        "negatives", sample_negatives, len(ctx.compounds), len(ctx.proteins),
        ctx.positive_keys, len(positives), RngStream(seed),
    )
    keys = np.concatenate([positives, negatives])
    block = stage("row_gather", gather_rows, ctx, keys)
    report["step_rows"], report["block_mb"] = len(keys), round(block.nbytes / 2**20, 1)
    del keys, block
    schedule = TrainSchedule(
        steps=[TrainStep(STEP, 1)], validation_tier=VALIDATION, seed=seed,
        hidden_layers=HIDDEN,
    )
    stage("train_one_epoch", lambda: train_ftl(schedule, ctx, metrics=False))
    report["peak_rss_mb"] = round(peak_rss_mb(), 1)
    return report


def generate_bits(entries: int, width: int, seed: int, path: Path) -> None:
    """``entries`` random vectors of ``width`` bits, written 256 rows at a time."""
    rng = np.random.default_rng(seed)
    with path.open("w", encoding="ascii") as fh:
        fh.write(f"#width={width}\n")
        for at in range(0, entries, 256):
            chars = rng.integers(0, 2, (min(256, entries - at), width), dtype=np.uint8)
            chars += ord("0")
            fh.writelines(f"V{at + i:07d}\t{row.tobytes().decode()}\n"
                          for i, row in enumerate(chars))


def run_vae(entries: int, width: int, seed: int, work: Path) -> dict:
    """Generate ``entries`` ``width``-bit vectors under ``work``, load them, train
    one epoch of the nearest preset's shape on them, compute their posterior
    means, save the model and the means, and return the report."""
    preset = min((chemical_preset(), protein_preset()),
                 key=lambda config: abs(config.input_dim - width))
    config = dataclasses.replace(preset, input_dim=width, epochs=1)
    report: dict = {"vae_entries": entries, "vae_bits": width, "seed": seed,
                    "hidden": list(config.encoder_hidden), "latent": config.latent_dim,
                    "batch_size": config.batch_size}
    stage = stager(report)
    path = work / "vectors.bits"
    stage("generate", generate_bits, entries, width, seed, path)
    store = stage("load_bitvectors", load_bitvectors, path)
    report["store_mb"] = round(store.matrix.nbytes / 2**20, 1)
    model, _ = stage("train_vae_one_epoch", train_vae, config, store, RngStream(seed))
    # held, as ``tierflow embed`` holds them, while the model is saved
    latents = stage("embed", embed, model, store)
    stage("save_vae", save_vae, model, work / "vae.json")
    stage("save_latents", save_latents, latents, work / "latents.tsv")
    report["latents_mb"] = round(latents.matrix.nbytes / 2**20, 1)
    report["peak_rss_mb"] = round(peak_rss_mb(), 1)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--records", type=int)
    parser.add_argument("--vae-entries", type=int)
    parser.add_argument("--vae-bits", type=int)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    vae = [args.vae_entries is not None, args.vae_bits is not None]
    if vae[0] != vae[1] or (args.records is not None) == vae[0]:
        parser.error("give either --records, or both --vae-entries and --vae-bits")
    with tempfile.TemporaryDirectory() as tmp:
        if args.records is None:
            report = run_vae(args.vae_entries, args.vae_bits, args.seed, Path(tmp))
        else:
            report = run(args.records, args.seed, Path(tmp))
    for name, entry in report["stages"].items():
        print(f"{name:>18}  {entry['s']:8.3f} s  peak {entry['peak_rss_mb']:8.1f} MiB")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
