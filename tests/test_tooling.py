"""The benchmark's tracer (``perfbench/spans.py``) replaces functions under the
names tierflow's modules bind them by, so renaming or dropping one of those
bindings would break ``perfbench/run.py --trace 1``.  These tests read the
tracer's tables and check that every binding still resolves and that its
hooks still read what tierflow returns; they change nothing under
``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from tierflow.data import TierSpec
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
