"""The benchmark's tracer (``perfbench/spans.py``) replaces functions under the
names tierflow's modules bind them by, so renaming or dropping one of those
bindings would break ``perfbench/run.py --trace 1``.  These tests read the
tracer's tables and check that every binding still resolves and that its
hooks still read what tierflow returns; they change nothing under
``perfbench/``.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tierflow.config import synth_config_from_dict
from tierflow.data import (
    FeatureStore,
    TierSpec,
    save_bitvectors,
    save_interactions,
    save_latents,
    synth_generate,
)
from tierflow.ftl import TrainSchedule, TrainStep, train_ftl

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module, attr, name", spans.FUNCTIONS)
def test_traced_function_binding_resolves(module, attr, name):
    assert callable(getattr(importlib.import_module(module), attr)), name


@pytest.mark.parametrize("module, cls, attr, name", spans.METHODS)
def test_traced_method_resolves(module, cls, attr, name):
    assert callable(getattr(getattr(importlib.import_module(module), cls), attr)), name


def test_train_ftl_hook_reads_a_real_result(tiny_ctx):
    # the hook counts a run's epochs from the log of the result it returns
    schedule = TrainSchedule(
        [TrainStep(TierSpec(300, 700), 2), TrainStep(TierSpec(700, 900), 1)],
        TierSpec(900, 1000), batch_size=64, seed=1, hidden_layers=(8, 4),
    )
    result = train_ftl(schedule, tiny_ctx)
    tracer = spans.Tracer()
    tracer._hooks()["ftl.train_ftl"](0, (schedule, tiny_ctx), result)
    assert tracer.counters["epochs_executed"] == 3


CHILD = SPANS.parent / "child.py"
SRC = SPANS.parent.parent / "src"
TINY_SYNTH = {
    "n_compounds": 40, "n_proteins": 30, "compound_bits": 12, "protein_bits": 12,
    "tiers": [{"range": [300, 700], "count": 150, "flip_rate": 0.3},
              {"range": [700, 900], "count": 80, "flip_rate": 0.05},
              {"range": [900, 1000], "count": 60, "flip_rate": 0.0}],
    "validation_tier": [900, 1000], "seed": 3,
}
TINY_EXPERIMENT = {
    "arms": [{"name": "ftl", "steps": [{"tier": [300, 700], "epochs": 2},
                                       {"tier": [700, 900], "epochs": 2}]},
             {"name": "baseline", "steps": [{"tier": [700, 900], "epochs": 4}]}],
    "validation_tier": [900, 1000], "seed": 3, "batch_size": 64, "hidden_layers": [8, 4],
}
TINY_VAE = {"input_dim": 12, "encoder_hidden": [8], "latent_dim": 3, "epochs": 2,
            "batch_size": 16, "learning_rate": 0.001, "seed": 1}


def traced_span_names(work, *argv) -> set[str]:
    """Names of the spans that fired in one traced ``perfbench/child.py`` run."""
    spans_path = work / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(work / "stamp.json"), str(spans_path), "--", *argv,
         "--out", str(work / "out")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))),
    )
    assert proc.returncode == 0, proc.stderr
    return {span[0] for span in json.loads(spans_path.read_text(encoding="utf-8"))["spans"]}


def run_of(module: str, attr: str) -> str:
    """The run of ``traced_runs`` that calls a binding, and in which no other
    binding of the same span name is called."""
    if module == "tierflow.config":
        return "train" if attr == "synth_generate" else "train_files"
    if module == "tierflow.cli":
        return {"build_data_context": "train", "weight_drift_protocol": "diagnose"}.get(
            attr, "embed")
    return {"tierflow.ftl": "train", "tierflow.checkpoint": "train",
            "tierflow.diagnostics": "diagnose", "tierflow.vae": "embed"}[module]


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory) -> dict[str, set[str]]:
    """The span names fired by tiny traced runs of train (synthetic and file
    inputs, a bit-vector and a latent feature file), diagnose and embed."""
    root = tmp_path_factory.mktemp("traced")
    data = synth_generate(synth_config_from_dict(TINY_SYNTH))
    save_bitvectors(data.compounds, root / "compounds.bits")
    save_latents(FeatureStore(data.proteins.ids, data.proteins.matrix.astype(float)),
                 root / "proteins.tsv")
    save_interactions(data.interactions, root / "interactions.tsv")
    files = {"interactions": "interactions.tsv", "compound_features": "compounds.bits",
             "protein_features": "proteins.tsv"}
    for name, doc in (("synth", {**TINY_EXPERIMENT, "synth": TINY_SYNTH}),
                      ("files", {**TINY_EXPERIMENT, "data": files}), ("vae", TINY_VAE)):
        (root / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    runs = {
        "train": ["train", "--config", "synth.json"],
        "train_files": ["train", "--config", "files.json"],
        "diagnose": ["diagnose", "--config", "synth.json", "--delta", "1"],
        "embed": ["embed", "--config", "vae.json", "--bitvectors", "compounds.bits"],
    }
    fired = {}
    for name, argv in runs.items():
        (root / name).mkdir()
        argv = [str(root / arg) if arg.endswith((".json", ".bits")) else arg for arg in argv]
        fired[name] = traced_span_names(root / name, *argv)
    return fired


# nothing in tierflow calls vae.vae_loss, so its span never fires
@pytest.mark.parametrize("module, attr, name",
                         [f for f in spans.FUNCTIONS if f[2] != "vae.vae_loss"])
def test_traced_function_is_called(traced_runs, module, attr, name):
    assert name in traced_runs[run_of(module, attr)]
