"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is self-contained and desk-scale.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import scipy.stats

from tierflow.checkpoint import load_network, save_network
from tierflow.cli import main as cli_main
from tierflow.config import build_data_context, experiment_from_dict
from tierflow.data import (
    InteractionTable,
    TierSpec,
    load_bitvectors,
    load_interactions,
    load_latents,
    percentile_cutoff,
    sample_negatives,
    save_bitvectors,
    save_interactions,
    save_latents,
    tier_filter,
)
from tierflow.diagnostics import layer_distance, weight_drift_protocol
from tierflow.engine import (
    RELU,
    AdamState,
    DenseLayer,
    DenseNetwork,
    adam_step,
    backward,
    bce_gradient,
    bce_loss,
    forward,
    init_network,
)
from tierflow.ftl import TrainSchedule, TrainStep, train_ftl
from tierflow.rng import RngStream
from tierflow.vae import VaeConfig, train_vae
from conftest import bit_store, latent_store


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# ------------------------------------------------------------------ 1


def _relu_kink_distance(net, x) -> float:
    """Smallest |preactivation| over the net's ReLU layers for this batch."""
    nearest = np.inf
    a = x
    for layer in net.layers:
        z = a @ layer.weights.T + layer.biases
        if layer.activation == "relu":
            if z.size:
                nearest = min(nearest, float(np.abs(z).min()))
            a = np.maximum(z, 0.0)
        elif layer.activation == "sigmoid":
            a = 1.0 / (1.0 + np.exp(-z))
        else:
            a = z
    return nearest


def test_c01_gradient_correctness():
    started = time.monotonic()
    rng = RngStream(101)
    worst = 0.0
    checked = 0
    accepted = 0
    attempt = 0
    while accepted < 20:
        attempt += 1
        n_layers = 1 + int(rng.integers(4)[0])
        input_dim = 2 + int(rng.integers(7)[0])
        sizes, acts = [], []
        for i in range(n_layers):
            sizes.append(1 if i == n_layers - 1 else 1 + int(rng.integers(8)[0]))
            acts.append(
                "sigmoid" if i == n_layers - 1
                else ("relu" if rng.uniform()[0] < 0.5 else "sigmoid")
            )
        net = init_network(sizes, input_dim, acts, rng.spawn("init", attempt))
        # nonzero biases keep entire ReLU layers from dying onto the kink
        jitter = rng.spawn("bias", attempt)
        for layer in net.layers:
            layer.biases += jitter.uniform(-0.3, 0.3, size=layer.out_dim)
        n_params = sum(p.size for p in net.parameters())
        assert n_params <= 500
        x = rng.uniform(-1, 1, size=6 * input_dim).reshape(6, input_dim)
        y = (rng.uniform(size=6) < 0.5).astype(float)
        if _relu_kink_distance(net, x) < 1e-3:
            continue  # probed point not smooth; redraw
        accepted += 1

        acts_chain = forward(net, x)
        g = bce_gradient(acts_chain[-1], y)
        analytic = backward(net, acts_chain, g)
        h = 1e-5
        for p_arr, g_arr in zip(net.parameters(), analytic):
            flat_p, flat_g = p_arr.ravel(), g_arr.ravel()
            for i in range(flat_p.size):
                orig = flat_p[i]
                flat_p[i] = orig + h
                up = bce_loss(forward(net, x)[-1], y)
                flat_p[i] = orig - h
                down = bce_loss(forward(net, x)[-1], y)
                flat_p[i] = orig
                fd = (up - down) / (2 * h)
                if abs(flat_g[i]) < 1e-8:
                    err = abs(flat_g[i] - fd)
                else:
                    err = abs(flat_g[i] - fd) / max(abs(fd), 1e-8)
                worst = max(worst, err)
                checked += 1
    elapsed = time.monotonic() - started
    _report(
        "criterion 1 gradient-correctness",
        worst < 1e-4 and elapsed < 30.0,
        f"{checked} components over 20 nets, worst err {worst:.3g}, {elapsed:.1f}s",
    )


# ------------------------------------------------------------------ 2


def test_c02_adam_scalar_oracle():
    rng = RngStream(202)
    grads = rng.uniform(-2.0, 2.0, size=100)

    # independent scalar recurrence in plain Python floats
    theta, m, v = 0.0, 0.0, 0.0
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.001
    oracle = []
    for t, g in enumerate(grads.tolist(), start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        oracle.append(theta)

    p = np.array([0.0])
    state = AdamState.create(1, lr)
    worst = 0.0
    for t in range(100):
        adam_step(state, p, grads[t:t + 1])
        worst = max(worst, abs(p[0] - oracle[t]))
    _report(
        "criterion 2 adam-oracle",
        worst < 1e-12,
        f"100 steps, max |dev| {worst:.3g}",
    )


# ------------------------------------------------------------------ 3


def test_c03_tier_algebra():
    rng = RngStream(303)
    n_tables = 1000
    worst_bad = 0
    for i in range(n_tables):
        size = max(1, int(10 ** rng.uniform(0, 4)[0]))
        scores = rng.integers(1001, size=size)
        compounds = [f"c{i}_{j}" for j in range(size)]
        proteins = [f"p{i}_{j}" for j in range(size)]
        table = InteractionTable(compounds, proteins, scores)
        records = list(zip(compounds, proteins, scores.tolist()))

        def pairs_in(tier):
            mask = tier_filter(table, tier)
            return list(zip(table.compound_ids[mask].tolist(), table.protein_ids[mask].tolist()))

        lo, hi = sorted(rng.integers(1000, size=2).tolist())
        hi += 1
        tier = TierSpec(int(lo), int(hi))
        got = pairs_in(tier)
        expected = [(c, p) for c, p, s in records if lo <= s < hi]
        worst_bad += got != expected

        # split/union consistency at a random midpoint
        if hi - lo >= 2:
            mid = int(lo) + 1 + int(rng.integers(hi - lo - 1)[0])
            left = pairs_in(TierSpec(int(lo), mid))
            right = pairs_in(TierSpec(mid, int(hi)))
            both = left + right
            worst_bad += sorted(both) != sorted(expected)
            worst_bad += len(set(both)) != len(both)

        p = float(rng.uniform(0, 100)[0]) % 100.0
        ordered = sorted(s for _, _, s in records)
        k = max(1, math.ceil(p / 100.0 * len(ordered)))
        worst_bad += percentile_cutoff(table, p) != ordered[k - 1]

    # documented reference mapping on a table constructed to carry it
    build = RngStream(42)
    scores = (
        [int(s) for s in build.uniform(0, 319, size=819)]
        + [319] + [int(s) for s in build.uniform(320, 389, size=79)]
        + [389] + [int(s) for s in build.uniform(390, 700, size=79)]
        + [700] + [int(s) for s in build.uniform(701, 1000, size=20)]
    )
    table = InteractionTable(
        [f"c{j}" for j in range(len(scores))], [f"p{j}" for j in range(len(scores))], scores
    )
    mapping_ok = (
        percentile_cutoff(table, 82) == 319
        and percentile_cutoff(table, 90) == 389
        and percentile_cutoff(table, 98) == 700
    )
    _report(
        "criterion 3 tier-algebra",
        worst_bad == 0 and mapping_ok,
        f"{n_tables} random tables, {worst_bad} mismatches, "
        f"reference mapping {'ok' if mapping_ok else 'broken'}",
    )


# ------------------------------------------------------------------ 4


def test_c04_negative_sampler_safety():
    rng = RngStream(404)
    total, violations = 0, 0
    grid_idx = 0
    while total < 1_000_000:
        grid_idx += 1
        n_c = 10 + int(rng.integers(70)[0])
        n_p = 10 + int(rng.integers(70)[0])
        n_pos = int(rng.integers(max(1, n_c * n_p // 10))[0])
        ci = rng.integers(n_c, size=n_pos)
        pi = rng.integers(n_p, size=n_pos)
        positives = np.unique(ci * n_p + pi)
        complement = n_c * n_p - len(positives)
        count = min(complement, 20_000)
        negs = sample_negatives(
            n_c, n_p, positives, count, rng.spawn("draw", grid_idx)
        )
        violations += int(np.isin(negs, positives).sum())
        violations += len(negs) - len(np.unique(negs))
        total += count

    # uniformity: 1e5 single draws over a fixed 10x10 grid's 90-cell complement
    positives = np.array([i * 10 + i for i in range(10)])
    counts = np.zeros(100, dtype=np.int64)
    for i in range(100_000):
        (neg,) = sample_negatives(10, 10, positives, 1, RngStream(i))
        counts[neg] += 1
    observed = np.delete(counts, positives).astype(float)
    expected = 100_000 / 90.0
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    critical = scipy.stats.chi2.ppf(0.99, df=89)
    _report(
        "criterion 4 negative-sampler-safety",
        violations == 0 and total >= 1_000_000 and chi2 < critical,
        f"{total} draws, {violations} violations, chi2 {chi2:.1f} < {critical:.1f}",
    )


# ------------------------------------------------------------------ 5


def test_c05_vae_sanity():
    started = time.monotonic()
    rng = RngStream(505)
    store = bit_store(32, {f"v{i:04d}": rng.uniform(size=32) < 0.5 for i in range(500)})
    config = VaeConfig(input_dim=32, encoder_hidden=(16,), latent_dim=4,
                       epochs=100, batch_size=100, learning_rate=1e-2)
    _, log = train_vae(config, store, RngStream(55))
    elapsed = time.monotonic() - started
    kl_ok = all(r.kl_loss >= 0.0 for r in log.records)
    totals = log.totals()
    tail = totals[20:]  # final 80 of 100 epochs
    slope = float(np.polyfit(np.arange(tail.size), tail, 1)[0])
    _report(
        "criterion 5 vae-sanity",
        kl_ok and slope <= 0.0 and elapsed < 60.0,
        f"KL >= 0 {'holds' if kl_ok else 'fails'}, tail slope {slope:.3g}, {elapsed:.1f}s",
    )


# ------------------------------------------------------------------ 6


BENCHMARK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "benchmark_experiment.json"


def test_c06_ftl_ordering_benchmark():
    started = time.monotonic()
    doc = json.loads(BENCHMARK_CONFIG.read_text(encoding="utf-8"))
    wins = 0
    ftl_accs, base_accs = [], []
    for seed in range(1, 11):
        doc["seed"] = doc["synth"]["seed"] = seed
        spec = experiment_from_dict(doc)
        ctx = build_data_context(spec)
        ftl = train_ftl(spec.arms["ftl_2step"], ctx)
        base = train_ftl(spec.arms["baseline_high"], ctx)
        _, _, ftl_acc, _ = ftl.log.best_validation()
        _, _, base_acc, _ = base.log.best_validation()
        ftl_accs.append(ftl_acc)
        base_accs.append(base_acc)
        wins += ftl_acc > base_acc
    elapsed = time.monotonic() - started
    mean_ftl, mean_base = float(np.mean(ftl_accs)), float(np.mean(base_accs))
    _report(
        "criterion 6 ftl-ordering-benchmark",
        wins >= 7 and mean_ftl > mean_base and elapsed < 600.0,
        f"wins {wins}/10, mean {mean_ftl:.3f} vs {mean_base:.3f}, {elapsed:.0f}s",
    )


# ------------------------------------------------------------------ 7


def test_c07_degenerate_equivalence(tiny_ctx):
    # a one-step baseline equals the first step of a two-step FTL schedule
    tier, later, val = TierSpec(700, 900), TierSpec(300, 700), TierSpec(900, 1000)
    settings = dict(batch_size=64, learning_rate=1e-3, seed=70, hidden_layers=(8, 4))
    base = train_ftl(TrainSchedule([TrainStep(tier, 5)], val, **settings), tiny_ctx)
    ftl = train_ftl(
        TrainSchedule([TrainStep(tier, 5), TrainStep(later, 3)], val, **settings),
        tiny_ctx, stop=(1, 5),
    )
    identical = (
        ftl.at == base.at == (1, 5)
        and ftl.log.records == base.log.records
        and np.array_equal(ftl.network.flat, base.network.flat)
    )
    _report(
        "criterion 7 degenerate-equivalence",
        identical,
        f"{len(ftl.log.records)} records bit-identical" if identical else "logs differ",
    )


# ------------------------------------------------------------------ 8


def test_c08_diagnostics_exactness(tiny_ctx):
    rng = RngStream(808)
    shapes = ((5, 4), (3, 5), (1, 3))
    mk = lambda seed: DenseNetwork(
        [DenseLayer(RngStream(seed + i).uniform(-1, 1, size=r * c).reshape(r, c),
                    RngStream(seed + 10 + i).uniform(-1, 1, size=r), RELU)
         for i, (r, c) in enumerate(shapes)],
        shapes[0][1],
    )
    a, b = mk(1), mk(100)
    report = layer_distance(a, b, "a", "b")
    worst = 0.0
    for entry, la, lb in zip(report.layers, a.layers, b.layers):
        wa, ba, wb, bb = la.weights, la.biases, lb.weights, lb.biases
        total = 0.0
        for x, y in zip(wa.ravel().tolist(), wb.ravel().tolist()):
            total += (x - y) ** 2
        for x, y in zip(ba.tolist(), bb.tolist()):
            total += (x - y) ** 2
        worst = max(worst, abs(entry.distance - math.sqrt(total) / (wa.size + ba.size)))
    oracle_ok = worst < 1e-12

    base = DenseNetwork([DenseLayer(np.zeros((4, 4)), np.zeros(4), RELU)], 4)
    shifted_w = np.zeros((4, 4))
    shifted_w[2, 1] = 0.625
    shifted = DenseNetwork([DenseLayer(shifted_w, np.zeros(4), RELU)], 4)
    delta_ok = layer_distance(base, shifted, "base", "shifted").layers[0].distance == 0.625 / 20

    schedule = TrainSchedule(
        [TrainStep(TierSpec(300, 700), 3), TrainStep(TierSpec(700, 900), 2)],
        TierSpec(900, 1000), batch_size=64, learning_rate=1e-3,
        seed=80, hidden_layers=(8, 4),
    )
    at_zero = weight_drift_protocol(schedule, tiny_ctx, delta=0)
    zeros_ok = bool(np.all(at_zero.ftl_report.distances() == 0.0))
    # shared-prefix bit-identity is asserted by
    # tests/test_diagnostics.py::test_protocol_fork_matches_independent_runs
    at_two = weight_drift_protocol(schedule, tiny_ctx, delta=2)
    rows_ok = len(at_two.fold_changes) == 3
    _report(
        "criterion 8 diagnostics-exactness",
        oracle_ok and delta_ok and zeros_ok and rows_ok,
        f"oracle dev {worst:.2g}, single-delta exact {delta_ok}, "
        f"delta0 zeros {zeros_ok}, per-layer rows {rows_ok}",
    )


# ------------------------------------------------------------------ 9


def test_c09_cli_determinism(tmp_path):
    doc = {
        "synth": {
            "n_compounds": 50, "n_proteins": 40, "compound_bits": 12,
            "protein_bits": 12,
            "tiers": [
                {"range": [300, 700], "count": 200, "flip_rate": 0.3},
                {"range": [700, 900], "count": 100, "flip_rate": 0.05},
                {"range": [900, 1000], "count": 80, "flip_rate": 0.0},
            ],
            "validation_tier": [900, 1000], "seed": 9,
        },
        "arms": [
            {"name": "ftl", "steps": [
                {"tier": [300, 700], "epochs": 3}, {"tier": [700, 900], "epochs": 3}]},
            {"name": "baseline", "steps": [{"tier": [700, 900], "epochs": 6}]},
        ],
        "validation_tier": [900, 1000], "seed": 9,
        "batch_size": 64, "learning_rate": 0.001, "hidden_layers": [8, 4],
    }
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["train", "--config", str(config), "--out", str(out_a)])
    code_b = cli_main(["train", "--config", str(config), "--out", str(out_b)])
    same = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("metrics_ftl.csv", "metrics_baseline.csv", "report.json")
    )
    _report(
        "criterion 9 cli-determinism",
        code_a == 0 and code_b == 0 and same,
        "two runs, byte-identical metrics CSVs" if same else "outputs differ",
    )


# ------------------------------------------------------------------ 10


def test_c10_format_round_trips(tmp_path):
    rng = RngStream(1010)
    results = {}

    store = bit_store(24, {f"id{i:03d}": rng.uniform(size=24) < 0.4 for i in range(40)})
    p1, p2 = tmp_path / "bits1", tmp_path / "bits2"
    save_bitvectors(store, p1)
    save_bitvectors(load_bitvectors(p1), p2)
    results["bitvectors"] = p1.read_bytes() == p2.read_bytes()

    table = InteractionTable(
        [f"c{i}" for i in range(200)], [f"p{i}" for i in range(200)],
        rng.integers(1001, size=200),
    )
    t1, t2 = tmp_path / "tsv1", tmp_path / "tsv2"
    save_interactions(table, t1)
    save_interactions(load_interactions(t1), t2)
    results["interactions"] = t1.read_bytes() == t2.read_bytes()

    net = init_network([6, 3, 1], 5, rng=rng.spawn("net"))
    c1, c2 = tmp_path / "ckpt1", tmp_path / "ckpt2"
    save_network(net, c1)
    save_network(load_network(c1), c2)
    results["checkpoint"] = c1.read_bytes() == c2.read_bytes()

    latents = latent_store({f"z{i}": rng.uniform(-3, 3, size=7) for i in range(25)})
    l1, l2 = tmp_path / "lat1", tmp_path / "lat2"
    save_latents(latents, l1)
    save_latents(load_latents(l1), l2)
    results["latents"] = l1.read_bytes() == l2.read_bytes()

    ok = all(results.values())
    _report(
        "criterion 10 format-round-trips",
        ok,
        ", ".join(f"{k} {'ok' if v else 'BROKEN'}" for k, v in results.items()),
    )
