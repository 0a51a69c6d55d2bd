"""In-memory spans around tierflow's public functions, and their analysis.

``Tracer.install`` replaces each traced function with a wrapper under the
name its calling module binds it by (``tierflow.ftl.forward``,
``tierflow.vae.forward``, ``tierflow.cli.build_data_context``, ...), so no
file of the program changes.  A span is ``[name, start, end, parent]`` with
``time.monotonic`` stamps, which on Linux share one clock across processes.

``analyze`` turns the spans of one traced run into per-layer numbers.  Self
time is a span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# (module whose binding is replaced, attribute, span name)
FUNCTIONS = [
    ("tierflow.cli", "build_data_context", "config.build_data_context"),
    ("tierflow.cli", "weight_drift_protocol", "diagnostics.weight_drift_protocol"),
    ("tierflow.cli", "train_vae", "vae.train_vae"),
    ("tierflow.cli", "embed", "vae.embed"),
    ("tierflow.cli", "save_vae", "vae.save_vae"),
    ("tierflow.cli", "load_bitvectors", "data.load_bitvectors"),
    ("tierflow.config", "load_bitvectors", "data.load_bitvectors"),
    ("tierflow.config", "synth_generate", "data.synth_generate"),
    ("tierflow.config", "load_interactions", "data.load_interactions"),
    ("tierflow.config", "load_latents", "data.load_latents"),
    ("tierflow.ftl", "train_ftl", "ftl.train_ftl"),
    ("tierflow.diagnostics", "train_ftl", "ftl.train_ftl"),
    ("tierflow.diagnostics", "layer_distance", "diagnostics.layer_distance"),
    ("tierflow.ftl", "tier_filter", "data.tier_filter"),
    ("tierflow.ftl", "sample_negatives", "data.sample_negatives"),
    ("tierflow.ftl", "forward", "engine.forward"),
    ("tierflow.ftl", "backward", "engine.backward"),
    ("tierflow.ftl", "bce_loss", "engine.bce_loss"),
    ("tierflow.ftl", "adam_step", "engine.adam_step"),
    ("tierflow.vae", "forward", "engine.forward"),
    ("tierflow.vae", "backward_with_input", "engine.backward"),
    ("tierflow.vae", "adam_step", "engine.adam_step"),
    ("tierflow.vae", "vae_loss", "vae.vae_loss"),
    ("tierflow.checkpoint", "dumps", "checkpoint.dumps"),
    ("tierflow.checkpoint", "save_network", "checkpoint.save_network"),
]
# (module, class, method, span name)
METHODS = [
    ("tierflow.ftl", "DataContext", "feature_matrix", "ftl.feature_matrix"),
    ("tierflow.rng", "RngStream", "permutation", "rng.permutation"),
]
COUNTERS = ("matmul_flop", "negatives_drawn", "negatives_returned",
            "feature_bytes", "checkpoint_bytes", "epochs_executed")


def _layer_macs(net) -> int:
    return sum(layer.in_dim * layer.out_dim for layer in net.layers)


class Tracer:
    """Records spans and counters for one process; ``dump`` returns them."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        # tier-trainer forward spans whose activation list (keyed by id) no
        # backward has consumed yet
        self.pending_forward: dict[int, int] = {}

    def span(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, time.monotonic(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.monotonic()
                stack.pop()
            if after is not None:
                after(index, args, result)
            return result

        return wrapper

    def _hooks(self) -> dict:
        """Counters taken from a traced call's arguments and result, by span name."""
        counters = self.counters

        def add(counter, amount):
            counters[counter] += amount

        def backward(index, args, result):
            net, acts = args[0], args[1]
            # dW = dz.T @ a_in and d_in = dz @ W for every layer
            add("matmul_flop", 4 * len(acts[0]) * _layer_macs(net))
            self.pending_forward.pop(id(acts), None)

        return {
            "engine.backward": backward,
            "ftl.feature_matrix": lambda i, args, out: add("feature_bytes", out[0].nbytes),
            "checkpoint.dumps": lambda i, args, out: add("checkpoint_bytes", len(out.encode())),
            "ftl.train_ftl": lambda i, args, out: add(
                "epochs_executed", len({(r.step, r.epoch) for r in out.log.records})),
        }

    def _forward_hook(self, track_eval: bool):
        def after(index, args, acts):
            self.counters["matmul_flop"] += 2 * len(acts[0]) * _layer_macs(args[0])
            if track_eval:
                # an id in use again means the earlier list was freed unconsumed
                earlier = self.pending_forward.get(id(acts))
                if earlier is not None:
                    self.spans[earlier][0] = "ftl.eval"
                self.pending_forward[id(acts)] = index
        return after

    def _sampler(self, fn):
        counters = self.counters

        def counted(compounds, proteins, positives, count, rng):
            before = rng.counter
            chosen = fn(compounds, proteins, positives, count, rng)
            # the rejection path draws one compound and one protein index per
            # candidate pair
            counters["negatives_drawn"] += (rng.counter - before) // 2
            counters["negatives_returned"] += len(chosen)
            return chosen

        return counted

    def install(self) -> None:
        hooks = self._hooks()
        for module_name, attr, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            after = hooks.get(name)
            if name == "engine.forward":
                after = self._forward_hook(track_eval=module_name == "tierflow.ftl")
            elif name == "data.sample_negatives":
                fn = self._sampler(fn)
            setattr(module, attr, self.span(name, fn, after))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            setattr(cls, attr, self.span(name, getattr(cls, attr), hooks.get(name)))

    def dump(self) -> dict:
        # a tier-trainer forward whose activations no backward consumed is evaluation
        for index in self.pending_forward.values():
            self.spans[index][0] = "ftl.eval"
        return {"spans": self.spans, "counters": self.counters}


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def tail_percentile(n: int) -> float:
    """Highest of the reported percentiles with at least ten samples beyond it."""
    for tenths in (999, 990, 900, 500):  # in tenths of a percent, to count exactly
        if n * (1000 - tenths) >= 10_000:
            return tenths / 10
    return 0.0


def analyze(trace: dict) -> dict[str, float]:
    """Per-layer numbers of one traced run (its spans include the ``process`` root)."""
    spans = trace["spans"]
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    for (name, *_), own in zip(spans, selfs):
        totals[name] = totals.get(name, 0.0) + own
    roots = [(end - start) for name, start, end, parent in spans if parent < 0]
    c = trace["counters"]
    matmul_s = sum(totals.get(n, 0.0) for n in ("engine.forward", "engine.backward", "ftl.eval"))
    out = {f"{name}.self_s": value for name, value in totals.items()}
    out.update({
        "trace.self_sum_ratio": sum(selfs) / sum(roots),
        "engine.adam_step.calls": float(sum(1 for s in spans if s[0] == "engine.adam_step")),
        "engine.matmul_gflop": c["matmul_flop"] / 1e9,
        "engine.gflop_per_s": c["matmul_flop"] / 1e9 / matmul_s if matmul_s else 0.0,
        "ftl.epochs_executed": float(c["epochs_executed"]),
        "data.sample_negatives.accept_ratio":
            c["negatives_returned"] / c["negatives_drawn"] if c["negatives_drawn"] else 0.0,
        "ftl.feature_matrix.mb_computed": c["feature_bytes"] / 1e6,
        "checkpoint.mb_written": c["checkpoint_bytes"] / 1e6,
    })
    return out


def call_percentiles(durations: list[float]) -> tuple[float, float, float]:
    """(median ms, tail percentile, tail ms) of per-call durations in seconds."""
    if not durations:
        return 0.0, 0.0, 0.0
    ms = np.asarray(durations) * 1e3
    pct = tail_percentile(len(ms))
    tail = float(np.percentile(ms, pct)) if pct else 0.0
    return float(np.median(ms)), pct, tail
