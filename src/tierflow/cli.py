"""Command-line entry point: synth, embed, train, and diagnose subcommands.

Every command reads a JSON config, writes its artifacts under --out, and
finishes with a manifest (config digest, seed, output checksums, wall-clock
duration).  Every file is written atomically (``checkpoint.write_atomic``),
so a failed run leaves no partial artifact under its final name.  Exit
codes: 0 success, 1 config error or an output that cannot be written, 2 data
error, 3 runtime numeric failure or memory that cannot be allocated, 130
interrupted (Ctrl-C).  Verbosity comes from the TIERFLOW_LOG environment
variable (error, info, debug).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import re
import sys
import time
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np

# CPython's own sha256 (``_sha2`` from 3.12, ``_sha256`` before): hashlib is
# pretty heavy to load, since it always loads OpenSSL's libcrypto
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # a Python built without either module
        from hashlib import sha256

from . import checkpoint as ckpt
from .config import (
    ExperimentSpec,
    _field,
    build_data_context,
    experiment_from_dict,
    load_json,
    synth_config_from_dict,
    vae_config_from_dict,
)
from .data import load_bitvectors, save_bitvectors, save_interactions, save_oracle
from .diagnostics import drift_csv_lines, weight_drift_protocol
from .errors import ConfigError, DataError, NumericError, OutputError
from .ftl import metrics_csv_lines, report_dict, run_experiment
from .rng import RngStream
from .vae import embed, save_vae, train_vae

log = logging.getLogger("tierflow")


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("TIERFLOW_LOG", "info").lower(), logging.INFO
    )
    logging.basicConfig(level=level, format="%(levelname)s: %(message)s")


def _digest(doc: dict) -> str:
    return "sha256:" + sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")
    ).hexdigest()


# bytes read per step of an output's checksum, so a large checkpoint is never
# held whole in memory just to hash it
_DIGEST_BLOCK = 1 << 20


def _file_digest(path: Path) -> str:
    digest = sha256()
    with path.open("rb") as fh:
        while block := fh.read(_DIGEST_BLOCK):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def _environment() -> dict:
    """The Python, numpy and BLAS versions and BLAS thread variables an
    artifact's bytes depend on; "unknown" where numpy cannot say."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # before numpy 1.26, show_config takes no mode
        blas = {}
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: str(blas.get(key, "unknown")) for key in ("name", "version")},
        "threads": {var: os.environ.get(var) for var in threads},
    }


def _write_manifest(
    out_dir: Path, command: str, doc: dict, outputs: list[Path], started: float
) -> None:
    manifest = {
        "command": command,
        "config_digest": _digest(doc),
        "seed": doc.get("seed", 0),
        "outputs": {p.name: _file_digest(p) for p in sorted(outputs)},
        "duration_seconds": round(time.monotonic() - started, 3),
        "environment": _environment(),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    ckpt.write_atomic(out_dir / "manifest.json", text)


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def _check_out(out: Path) -> None:
    """Reject an ``--out`` that cannot become a directory, before any work."""
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise ConfigError(f"--out {out}: {existing} is not a writable directory")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(args, doc: dict) -> list[Path] | None:
    config = synth_config_from_dict(doc, where="synth")
    if args.dry_run:
        print(f"synth: {config.n_compounds} compounds x {config.n_proteins} proteins")
        for t in config.tiers:
            print(f"  tier {t.tier}: {t.count} positives, flip_rate {t.flip_rate}")
        print(f"  validation tier {config.validation_tier}, seed {config.seed}")
        return None
    from .data import synth_generate

    data = synth_generate(config)
    out = _out_dir(args)
    save_bitvectors(data.compounds, out / "compounds.bits")
    save_bitvectors(data.proteins, out / "proteins.bits")
    save_interactions(data.interactions, out / "interactions.tsv")
    save_oracle(data.compounds.ids, data.proteins.ids, data.truth, out / "oracle.tsv")
    outputs = [
        out / "compounds.bits", out / "proteins.bits",
        out / "interactions.tsv", out / "oracle.tsv",
    ]
    log.info("synth: wrote %d interactions under %s", len(data.interactions), out)
    return outputs


def cmd_embed(args, doc: dict) -> list[Path] | None:
    seed = _field(doc, "seed", "an integer", "vae", 0)
    config = vae_config_from_dict(doc, where="vae")
    if args.dry_run:
        print(
            f"embed: input_dim {config.input_dim}, hidden {list(config.encoder_hidden)}, "
            f"latent {config.latent_dim}, {config.epochs} epochs, seed {seed}"
        )
        return None
    store = load_bitvectors(args.bitvectors)
    model, train_log = train_vae(config, store, RngStream(seed))
    latents = embed(model, store)
    out = _out_dir(args)
    save_vae(model, out / "vae.json")
    from .data import save_latents

    save_latents(latents, out / "latents.tsv")
    lines = ["epoch,recon_loss,kl_loss,total_loss,total_change"]
    for r in train_log:
        lines.append(
            f"{r.epoch},{r.recon_loss:.9g},{r.kl_loss:.9g},"
            f"{r.total_loss:.9g},{r.total_change:.9g}"
        )
    ckpt.write_atomic(out / "metrics.csv", "\n".join(lines) + "\n")
    log.info("embed: %d latent vectors of width %d", len(latents), config.latent_dim)
    return [out / "vae.json", out / "latents.tsv", out / "metrics.csv"]


def _plan(steps) -> str:
    return " -> ".join(f"{s.tier}x{s.epochs}ep" for s in steps)


def _print_plan(spec: ExperimentSpec) -> None:
    # seed, architecture and validation tier are shared by every arm
    shared = next(iter(spec.arms.values()))
    source = "synthetic" if spec.synth is not None else "files"
    print(f"train: data source {source}, seed {shared.seed}")
    print(
        f"  architecture {list(shared.hidden_layers)} + [1], "
        f"batch {shared.batch_size}, lr {shared.learning_rate}"
    )
    print(f"  validation tier {shared.validation_tier}")
    for name, schedule in spec.arms.items():
        print(f"  arm {name}: {_plan(schedule.steps)}")


def _parse_experiment(args, doc: dict) -> ExperimentSpec:
    """The spec of the experiment document, once the flags' overrides are
    applied to the document itself (so the manifest digests them too)."""
    if args.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {args.jobs}")
    if args.reset_optimizer:
        doc["reset_optimizer_between_steps"] = True
    return experiment_from_dict(doc, base_dir=Path(args.config).parent)


def cmd_train(args, doc: dict) -> list[Path] | None:
    spec = _parse_experiment(args, doc)
    if args.dry_run:
        _print_plan(spec)
        return None
    ctx = build_data_context(spec)
    results = run_experiment(spec.arms, ctx, jobs=args.jobs)
    report = report_dict({name: result.log for name, result in results.items()})
    out = _out_dir(args)
    outputs = []
    for name, result in results.items():
        stem = _safe_name(name)
        csv_path = out / f"metrics_{stem}.csv"
        ckpt.write_atomic(csv_path, "\n".join(metrics_csv_lines(result.log, name)) + "\n")
        net_path = out / f"checkpoint_{stem}.json"
        ckpt.save_network(result.network, net_path)
        outputs += [csv_path, net_path]
        best = report["arms"][name]
        log.info(
            "arm %s: best validation loss %.6g, accuracy %.6g",
            name, best["best_val_loss"], best["best_val_accuracy"],
        )
    report_path = out / "report.json"
    ckpt.write_atomic(report_path, ckpt.dumps(report) + "\n")
    return outputs + [report_path]


def cmd_diagnose(args, doc: dict) -> list[Path] | None:
    spec = _parse_experiment(args, doc)
    if args.arm is not None:
        if args.arm not in spec.arms:
            raise ConfigError(f"no arm named {args.arm!r} in config")
        name = args.arm
    else:
        name = next((n for n, s in spec.arms.items() if len(s.steps) == 2), None)
        if name is None:
            raise ConfigError("diagnose needs an arm with exactly two steps")
    schedule = spec.arms[name]
    if len(schedule.steps) != 2:
        raise ConfigError(f"arm {name!r} is not a 2-step schedule")
    e2 = schedule.steps[1].epochs
    if not 0 <= args.delta <= e2:
        raise ConfigError(f"delta must lie in [0, {e2}], got {args.delta}")
    if args.dry_run:
        print(
            f"diagnose: arm {name} ({_plan(schedule.steps)}), "
            f"transition window {args.delta} epochs"
        )
        return None
    ctx = build_data_context(spec)
    comparison = weight_drift_protocol(schedule, ctx, delta=args.delta)
    out = _out_dir(args)
    csv_path = out / "weight_drift.csv"
    ckpt.write_atomic(csv_path, "\n".join(drift_csv_lines(comparison)) + "\n")
    log.info("diagnose: wrote %s", csv_path)
    return [csv_path]


class _Parser(argparse.ArgumentParser):
    # usage errors are config errors (exit 1), not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON config")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument(
        "--dry-run", action="store_true",
        help="validate the config and print the plan without writing anything",
    )
    # the flags of the commands that run experiment arms
    experiment = _Parser(add_help=False, parents=[common])
    experiment.add_argument("--jobs", type=int, default=1, help="parallel arms (default: 1)")
    experiment.add_argument(
        "--reset-optimizer", action="store_true",
        help="reset Adam moments at each step boundary instead of carrying them over",
    )

    parser = _Parser(prog="tierflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("synth", parents=[common], help="generate a synthetic dataset")

    p_embed = sub.add_parser("embed", parents=[common], help="train a VAE and emit latents")
    p_embed.add_argument(
        "--bitvectors", required=True, help="bit-vector store to compress"
    )

    sub.add_parser("train", parents=[experiment], help="run baseline/FTL experiment arms")

    p_diag = sub.add_parser(
        "diagnose", parents=[experiment], help="per-layer weight-drift comparison"
    )
    p_diag.add_argument(
        "--delta", type=int, default=20,
        help="epochs into step 2 (and past the baseline split) to compare (default: 20)",
    )
    p_diag.add_argument("--arm", default=None, help="name of the 2-step arm to analyze")
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "embed": cmd_embed,
    "train": cmd_train,
    "diagnose": cmd_diagnose,
}


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        _check_out(Path(args.out))
        started = time.monotonic()
        doc = load_json(args.config)
        if args.seed is not None:
            doc["seed"] = args.seed
        # an overflow or invalid operation anywhere is a numeric failure, not
        # a warning followed by a finite but meaningless result
        with np.errstate(over="raise", invalid="raise"):
            outputs = _COMMANDS[args.command](args, doc)
        if outputs is not None:  # None: a dry run, which writes nothing
            _write_manifest(Path(args.out), args.command, doc, outputs, started)
        return 0
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 1
    except DataError as exc:
        log.error("data error: %s", exc)
        return 2
    except (NumericError, FloatingPointError) as exc:
        log.error("numeric failure: %s", exc)
        return 3
    except MemoryError as exc:
        log.error("out of memory: %s", exc)
        return 3
    except BrokenExecutor as exc:
        log.error("worker died: %s", exc)
        return 3
    except OutputError as exc:
        log.error("output error: %s", exc)
        return 1
    except KeyboardInterrupt:
        log.error("interrupted")
        return 130


if __name__ == "__main__":
    sys.exit(main())
