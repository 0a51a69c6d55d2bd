import tracemalloc
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tierflow import engine
from tierflow import vae as vae_module
from tierflow.data import FeatureStore
from tierflow.engine import (
    CHUNK,
    IDENTITY,
    RELU,
    SIGMOID,
    AdamState,
    DenseNetwork,
    _activation_gradient,
    adam_step,
    backward,
    backward_with_input,
    forward,
    init_network,
    sigmoid_bce,
)
from tierflow.errors import DataError
from tierflow.rng import RngStream
from tierflow.vae import (
    VaeConfig,
    VaeEpochRecord,
    VaeModel,
    _check_binary,
    _gradient,
    build_vae,
    chemical_preset,
    embed,
    load_vae,
    protein_preset,
    reparameterize,
    save_vae,
    train_vae,
    vae_loss,
)
from conftest import bit_store

TINY = VaeConfig(input_dim=8, encoder_hidden=(4,), latent_dim=2,
                 epochs=5, batch_size=4, learning_rate=1e-3)


def flat_of(model):
    """A copy of the model's parameters: its networks' ``flat`` vectors, in
    ``_PARTS`` order."""
    return np.concatenate([getattr(model, p).flat for p in vae_module._PARTS])


def random_store(n, width, seed=0, density=0.5):
    rng = RngStream(seed)
    return bit_store(width, {
        f"v{i:04d}": rng.uniform(size=width) < density for i in range(n)
    })


# ---------------------------------------------------------------- build


def test_build_protein_preset_shapes():
    model = build_vae(protein_preset(), RngStream(0))
    assert [l.out_dim for l in model.encoder_trunk.layers] == [2048, 512]
    assert model.mu_head.output_dim == 128
    assert model.logvar_head.output_dim == 128
    assert [l.out_dim for l in model.decoder.layers] == [512, 2048, 5508]
    assert model.decoder.layers[-1].activation == "sigmoid"
    latents = embed(model, random_store(3, 5508, seed=1))
    assert len(latents) == 3 and latents.width == 128


def test_build_chemical_preset_heads():
    model = build_vae(chemical_preset(), RngStream(0))
    assert model.latent_dim == 64
    assert [l.out_dim for l in model.encoder_trunk.layers] == [256, 128]


def test_build_same_seed_identical():
    a = build_vae(TINY, RngStream(42))
    b = build_vae(TINY, RngStream(42))
    assert np.array_equal(flat_of(a), flat_of(b))


def test_build_draws_the_networks_in_order():
    # the four networks as init_network calls on one stream, trunk, heads,
    # decoder, in that order
    config = VaeConfig(300, (240, 7), 3, 1, 4, 1e-3)  # a 72,000-weight layer
    model = build_vae(config, RngStream(8))
    rng = RngStream(8)
    parts = [
        init_network([240, 7], 300, [RELU, RELU], rng),
        init_network([3], 7, [IDENTITY], rng),
        init_network([3], 7, [IDENTITY], rng),
        init_network([7, 240, 300], 3, [RELU, RELU, SIGMOID], rng),
    ]
    for part, net in zip(vae_module._PARTS, parts, strict=True):
        assert getattr(model, part).flat.tobytes() == net.flat.tobytes()


def test_build_holds_one_copy_of_the_parameters():
    config = VaeConfig(8192, (64,), 4, 1, 4, 1e-3)
    n_params = flat_of(build_vae(config, RngStream(0))).size  # 1.05M: 8.4 MB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build_vae(config, RngStream(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the parameters once, and the draws' scratch of a few CHUNK-sized blocks
    assert peak - before <= n_params * 8 + 8 * CHUNK * 8


def test_build_warns_when_latent_exceeds_input():
    wide = VaeConfig(input_dim=4, encoder_hidden=(4,), latent_dim=8,
                     epochs=1, batch_size=2, learning_rate=1e-3)
    with pytest.warns(UserWarning):
        build_vae(wide, RngStream(0))


# ---------------------------------------------------------------- reparameterize


def test_reparameterize_vanishing_noise():
    mu = np.array([0.5, -1.0, 2.0])
    z = reparameterize(mu, np.full(3, -60.0), RngStream(1).normal(3))
    assert np.allclose(z, mu, atol=1e-12)


def test_reparameterize_monte_carlo_moments():
    eta = RngStream(7).normal(100_000)
    z = reparameterize(np.zeros(100_000), np.zeros(100_000), eta)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.05


def test_reparameterize_deterministic():
    mu, lv = np.array([1.0, 2.0]), np.array([-1.0, 0.5])
    assert np.array_equal(
        reparameterize(mu, lv, RngStream(3).normal(2)),
        reparameterize(mu, lv, RngStream(3).normal(2)),
    )


def test_reparameterize_length_mismatch():
    with pytest.raises(ValueError):
        reparameterize(np.zeros(2), np.zeros(3), RngStream(0).normal(2))
    with pytest.raises(ValueError):
        reparameterize(np.zeros(2), np.zeros(2), RngStream(0).normal(3))


# ---------------------------------------------------------------- loss


def test_vae_loss_standard_normal_posterior_zero_kl():
    x = np.array([[1.0, 0.0]])
    r = np.array([[0.5, 0.5]])
    _, _, kl = vae_loss(r, x, np.zeros((1, 2)), np.zeros((1, 2)))
    assert kl == 0.0


def test_vae_loss_unit_mean_kl_half():
    x = np.array([[1.0]])
    r = np.array([[0.5]])
    _, _, kl = vae_loss(r, x, np.array([[1.0]]), np.array([[0.0]]))
    assert kl == pytest.approx(0.5, abs=1e-15)


def test_vae_loss_perfect_reconstruction():
    x = np.array([[1.0, 0.0, 1.0, 1.0]])
    r = np.clip(x, 1e-12, 1 - 1e-12)
    _, recon, _ = vae_loss(r, x, np.zeros((1, 1)), np.zeros((1, 1)))
    assert recon < 1e-6


def test_vae_loss_rejects_non_binary_input():
    with pytest.raises(DataError):
        vae_loss(np.array([[0.5]]), np.array([[0.3]]), np.zeros((1, 1)), np.zeros((1, 1)))


def test_vae_loss_total_is_sum_of_terms():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    r = np.array([[0.7, 0.2], [0.4, 0.9]])
    mu = np.array([[0.3, -0.2], [0.1, 0.5]])
    lv = np.array([[0.1, -0.3], [0.0, 0.2]])
    total, recon, kl = vae_loss(r, x, mu, lv)
    assert total == pytest.approx(recon + kl, rel=1e-15)


@settings(max_examples=100)
@given(
    st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=8),
    st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=8),
)
def test_kl_nonnegative(mus, lvs):
    n = min(len(mus), len(lvs))
    mu = np.array(mus[:n]).reshape(1, n)
    lv = np.array(lvs[:n]).reshape(1, n)
    x = np.ones((1, 1))
    r = np.full((1, 1), 0.5)
    _, _, kl = vae_loss(r, x, mu, lv)
    assert kl >= 0.0
    if np.all(np.abs(mu) < 1e-9) and np.all(np.abs(lv) < 1e-9):
        assert kl < 1e-12


# ---------------------------------------------------------------- gradients


def test_vae_gradient_matches_finite_differences():
    # every parameter of all four networks, against the loss vae_loss gives
    # on the engine's plain forward passes
    rng = RngStream(13)
    model = build_vae(TINY, rng)
    bits = (rng.uniform(size=3 * 8) < 0.5).astype(np.uint8).reshape(3, 8)
    x = bits.astype(np.float64)
    eta = rng.normal(3 * 2).reshape(3, 2)

    def total_loss():
        h = forward(model.encoder_trunk, x)[-1]
        mu, logvar = forward(model.mu_head, h)[-1], forward(model.logvar_head, h)[-1]
        reconstruction = forward(model.decoder, reparameterize(mu, logvar, eta))[-1]
        total, _, _ = vae_loss(reconstruction, x, mu, logvar)
        return total

    # each network's gradient, copied as it is handed over
    analytic, handed = {}, []

    def collect(part, gradient):
        handed.append(part)
        analytic[part] = gradient.copy()

    grad = np.full(max(getattr(model, p).flat.size for p in vae_module._PARTS), np.nan)
    recon, kl = _gradient(model, bits, eta, np.empty((3, 8)), grad, collect)
    assert handed == ["decoder", "mu_head", "logvar_head", "encoder_trunk"]
    assert recon + kl == total_loss()
    h = 1e-5
    for part, g in analytic.items():
        flat_p = getattr(model, part).flat
        assert g.shape == flat_p.shape
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            up = total_loss()
            flat_p[i] = orig - h
            down = total_loss()
            flat_p[i] = orig
            fd = (up - down) / (2 * h)
            if abs(g[i]) < 1e-8:
                assert abs(g[i] - fd) < 1e-8
            else:
                assert abs(g[i] - fd) / max(abs(fd), 1e-8) < 1e-4


def bits_of(value) -> bytes:
    return np.float64(value).tobytes()


# reconstructions in [1e-12, 1 - 1e-12], the clip bounds drawn often
clipped_values = st.one_of(
    st.sampled_from([1e-12, 1.0 - 1e-12, 0.5]),
    st.floats(min_value=1e-12, max_value=1.0 - 1e-12),
)


def block_sum(terms, chunk):
    """The sum of ``terms`` taken as the output layer takes it: each row
    block's ``np.sum``, blocks of max(1, chunk // width) rows, in order."""
    rows = max(1, chunk // terms.shape[1])
    total = 0.0
    for at in range(0, len(terms), rows):
        total += np.sum(terms[at:at + rows])
    return total


def reference_sigmoid(z):
    # the engine's stable logistic as the whole-array expression it was
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 7),
       chunk=st.integers(1, 50))
def test_in_place_loss_and_gradient_match_the_expressions_bitwise(data, rows, cols, chunk):
    # logits whose Sigmoid rounds to 0 or 1 make the clip bind
    logits = data.draw(arrays(np.float64, (rows, cols), elements=st.one_of(
        st.sampled_from([0.0, -0.0, 40.0, -40.0, 800.0, -800.0]),
        st.floats(min_value=-60, max_value=60),
    )))
    bits = data.draw(arrays(np.uint8, (rows, cols), elements=st.sampled_from([0, 1])))
    finite = st.floats(min_value=-30, max_value=30)
    mu = data.draw(arrays(np.float64, (rows, 2), elements=finite))
    logvar = data.draw(arrays(np.float64, (rows, 2), elements=finite))
    n, x = rows, bits.astype(np.float64)
    # the expressions the chunked, in-place code replaced, as they were written
    a = reference_sigmoid(logits)
    clipped = np.clip(a, 1e-12, 1.0 - 1e-12)
    terms = x * np.log(clipped) + (1.0 - x) * np.log1p(-clipped)
    recon = float(-np.sum(terms) / n)
    kl = float(0.5 * np.sum(mu**2 + (np.expm1(logvar) - logvar)) / n)
    d_recon = (-(x / clipped) + (1.0 - x) / (1.0 - clipped)) / n
    # row blocks of max(1, chunk // cols) rows: one row, several, or all
    dz = logits.copy()
    with mock.patch.object(engine, "CHUNK", chunk):
        loss = sigmoid_bce(dz, bits)
    assert bits_of(loss) == bits_of(-block_sum(terms, chunk) / n)
    assert dz.tobytes() == (d_recon * (a * (1.0 - a))).tobytes()
    got = vae_loss(a, x, mu, logvar)
    assert list(map(bits_of, got)) == list(map(bits_of, (recon + kl, recon, kl)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.integers(1, 4), width=st.integers(1, 9))
def test_sigmoid_backward_matches_the_expression_bitwise(data, rows, width):
    a_out = data.draw(arrays(np.float64, (rows, width), elements=st.one_of(
        clipped_values, st.sampled_from([0.0, 1.0]),
    )))
    delta = data.draw(arrays(np.float64, (rows, width), elements=st.one_of(
        st.floats(min_value=-1e12, max_value=1e12), st.sampled_from([-0.0, 5e-324]),
    )))
    got = delta.copy()
    _activation_gradient(got, a_out.copy(), SIGMOID)
    assert got.tobytes() == (delta * (a_out * (1.0 - a_out))).tobytes()


# ---------------------------------------------------------------- training


def test_train_vae_loss_improves():
    config = VaeConfig(input_dim=32, encoder_hidden=(16,), latent_dim=4,
                       epochs=50, batch_size=50, learning_rate=1e-2)
    store = random_store(200, 32, seed=6)
    _, log = train_vae(config, store, RngStream(1))
    totals = np.array([r.total_loss for r in log])
    assert len(totals) == 50
    # smoothed endpoint comparison: mean of last 5 epochs vs first epoch
    assert totals[-5:].mean() < totals[0]


def test_train_vae_zero_epochs_is_initialization():
    config = VaeConfig(input_dim=8, encoder_hidden=(4,), latent_dim=2,
                       epochs=0, batch_size=4, learning_rate=1e-3)
    store = random_store(10, 8, seed=2)
    rng = RngStream(33)
    model, log = train_vae(config, store, rng)
    fresh = build_vae(config, RngStream(33).spawn("init"))
    assert log == []
    assert np.array_equal(flat_of(model), flat_of(fresh))


def test_train_vae_deterministic():
    store = random_store(30, 8, seed=3)
    _, log_a = train_vae(TINY, store, RngStream(9))
    _, log_b = train_vae(TINY, store, RngStream(9))
    assert log_a == log_b


def test_train_vae_empty_store_rejected():
    with pytest.raises(DataError):
        train_vae(TINY, FeatureStore([], np.zeros((0, 8), np.uint8)), RngStream(0))


def test_train_vae_width_mismatch_rejected():
    with pytest.raises(DataError):
        train_vae(TINY, random_store(5, 9, seed=1), RngStream(0))


def test_train_vae_rejects_non_binary_store_before_training(monkeypatch):
    store = random_store(30, 8, seed=3)
    store = FeatureStore(store.ids + ["late"], np.vstack(
        [store.matrix, np.array([0, 1, 2, 0, 1, 0, 0, 1], dtype=np.uint8)]
    ))
    steps = []
    monkeypatch.setattr("tierflow.vae.adam_step", lambda *args: steps.append(args))
    with pytest.raises(DataError, match=r"vae_loss input must be binary \(0/1 entries\)"):
        train_vae(TINY, store, RngStream(9))
    assert steps == []


def test_train_vae_holds_no_float_copy_of_the_store():
    # 4000 x 512 bits: the store is 2 MB as uint8 and would be 16 MB as
    # float64, while one batch of 64 rows is 0.26 MB as float64
    config = VaeConfig(input_dim=512, encoder_hidden=(32,), latent_dim=8,
                       epochs=1, batch_size=64, learning_rate=1e-3)
    rng = np.random.default_rng(5)
    store = FeatureStore([f"v{i}" for i in range(4000)], rng.random((4000, 512)) < 0.5)
    n_params = flat_of(build_vae(config, RngStream(0))).size
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        train_vae(config, store, RngStream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the parameters, two Adam moments and a gradient, eight float64 batches,
    # and the bits once more
    batch_bytes = config.batch_size * config.input_dim * 8
    assert peak - before <= 4 * n_params * 8 + 8 * batch_bytes + store.matrix.nbytes


def train_vae_peak(config, store):
    """tracemalloc's peak over one ``train_vae`` call, above what was held
    before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        train_vae(config, store, RngStream(1))
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def parameter_and_largest_network_bytes(config):
    model = build_vae(config, RngStream(0))
    return flat_of(model).nbytes, max(getattr(model, p).flat.nbytes for p in vae_module._PARTS)


def test_train_vae_epoch_holds_one_batch_buffer():
    # 256 x 4096 bits a batch: a float64 batch is 8 MiB, an output-layer
    # chunk 0.5 MiB and every hidden activation a few KB, so a second
    # batch-sized array would not fit the allowance below
    config = VaeConfig(input_dim=4096, encoder_hidden=(8,), latent_dim=2,
                       epochs=1, batch_size=256, learning_rate=1e-3)
    rng = np.random.default_rng(6)
    store = FeatureStore([f"v{i}" for i in range(600)], rng.random((600, 4096)) < 0.5)
    params, largest = parameter_and_largest_network_bytes(config)
    # the parameters, two Adam moments, one gradient as long as the largest
    # network, and one float64 batch; the allowance covers the uint8 batch
    # and the chunks' scratch
    batch_bytes = config.batch_size * config.input_dim * 8
    assert train_vae_peak(config, store) <= (
        3 * params + largest + batch_bytes + batch_bytes // 2
    )


def test_train_vae_holds_one_gradient_as_long_as_the_largest_network():
    # 4096 -> 64 -> 2: the trunk and the decoder hold 2 MiB of parameters
    # each and a batch of 16 rows is one 0.5 MiB output-layer chunk, so a
    # gradient as long as the whole model would not fit the allowance below
    config = VaeConfig(input_dim=4096, encoder_hidden=(64,), latent_dim=2,
                       epochs=1, batch_size=16, learning_rate=1e-3)
    rng = np.random.default_rng(7)
    store = FeatureStore([f"v{i}" for i in range(64)], rng.random((64, 4096)) < 0.5)
    params, largest = parameter_and_largest_network_bytes(config)
    # as above, with five chunks for the output layer's scratch and temporaries
    batch_bytes = config.batch_size * config.input_dim * 8
    assert train_vae_peak(config, store) <= 3 * params + largest + batch_bytes + 5 * CHUNK * 8


# ---------------------------------------------------------------- reference step
# The batch step as it was before the one-buffer step replaced it: whole-array
# expressions over fresh arrays, and one Adam state stepping the whole
# parameter vector once per batch.  train_vae must match it bitwise; only the
# logged reconstruction term is summed by row blocks, as the output layer sums it.


def reference_clip(reconstruction):
    return np.clip(reconstruction, 1e-12, 1.0 - 1e-12)


def reference_loss_terms(clipped, x, mu, logvar):
    n = x.shape[0]
    misses = np.negative(clipped)
    np.log1p(misses, out=misses)
    misses *= 1.0 - x
    hits = np.log(clipped)
    hits *= x
    hits += misses
    recon = float(-block_sum(hits, engine.CHUNK) / n)
    kl = float(0.5 * np.sum(mu**2 + (np.expm1(logvar) - logvar)) / n)
    return recon + kl, recon, kl


def reference_recon_gradient(clipped, x):
    misses = np.subtract(1.0, clipped)
    np.divide(1.0 - x, misses, out=misses)
    grad = np.divide(x, clipped, out=clipped)
    np.negative(grad, out=grad)
    grad += misses
    grad /= x.shape[0]
    return grad


@dataclass
class ReferenceCache:
    trunk_acts: list
    mu: np.ndarray
    logvar: np.ndarray
    eta: np.ndarray
    decoder_acts: list
    clipped: np.ndarray


def reference_forward(model, batch, eta):
    trunk_acts = forward(model.encoder_trunk, batch)
    h = trunk_acts[-1]
    mu = forward(model.mu_head, h)[-1]
    logvar = forward(model.logvar_head, h)[-1]
    z = reparameterize(mu, logvar, eta)
    decoder_acts = forward(model.decoder, z)
    return ReferenceCache(trunk_acts, mu, logvar, eta, decoder_acts,
                          reference_clip(decoder_acts[-1]))


def reference_backward(model, cache, x, out):
    n = x.shape[0]
    sizes = [getattr(model, p).flat.size for p in vae_module._PARTS]
    trunk_out, mu_out, lv_out, dec_out = np.split(out, np.cumsum(sizes)[:-1])
    a = cache.decoder_acts[-1]
    d_out = reference_recon_gradient(cache.clipped, x) * ((1.0 - a) * a)  # the Sigmoid's factor
    _, d_z = backward_with_input(model.decoder, cache.decoder_acts, d_out, dec_out)
    d_mu = d_z + cache.mu / n
    d_logvar = d_z * 0.5 * np.exp(0.5 * cache.logvar) * cache.eta
    d_logvar += 0.5 * np.expm1(cache.logvar) / n
    h = cache.trunk_acts[-1]
    _, d_h = backward_with_input(model.mu_head, [h, cache.mu], d_mu, mu_out)
    _, d_h_lv = backward_with_input(model.logvar_head, [h, cache.logvar], d_logvar, lv_out)
    d_h += d_h_lv
    d_h = d_h * (h > 0.0)  # the trunk's top ReLU
    backward(model.encoder_trunk, cache.trunk_acts, d_h, trunk_out)
    return out


def joined(model):
    """The model rebuilt over one vector holding its networks' parameters in
    ``_PARTS`` order, and that vector."""
    nets = [getattr(model, p) for p in vae_module._PARTS]
    vector = flat_of(model)
    views = np.split(vector, np.cumsum([net.flat.size for net in nets])[:-1])
    return VaeModel(*(DenseNetwork(net.layers, net.input_dim, view)
                      for net, view in zip(nets, views, strict=True))), vector


def reference_train_vae(config, store, rng, model):
    # one Adam state and one gradient over the whole model
    model, flat = joined(model)
    bits = store.matrix
    n = len(bits)
    log = []
    _check_binary(bits)
    adam = AdamState.create(flat.size, config.learning_rate)
    grad = np.empty_like(flat)
    prev_total = None
    for epoch in range(1, config.epochs + 1):
        order = rng.spawn("shuffle", epoch).permutation(n)
        noise = rng.spawn("noise", epoch)
        ep_recon = ep_kl = 0.0
        for at in range(0, n, config.batch_size):
            idx = order[at:at + config.batch_size]
            eta = noise.normal(len(idx) * config.latent_dim).reshape(len(idx), config.latent_dim)
            batch = bits[idx].astype(np.float64)
            cache = reference_forward(model, batch, eta)
            _, recon, kl = reference_loss_terms(cache.clipped, batch, cache.mu, cache.logvar)
            adam_step(adam, flat, reference_backward(model, cache, batch, grad))
            ep_recon += recon * len(idx)
            ep_kl += kl * len(idx)
        total = (ep_recon + ep_kl) / n
        change = 0.0 if prev_total is None else total - prev_total
        log.append(VaeEpochRecord(epoch, ep_recon / n, ep_kl / n, total, change))
        prev_total = total
    return model, log


def saturated_build(bias):
    """build_vae with the decoder's output biases set to +-bias by column, so
    that at a large bias the Sigmoid rounds to 0 or 1 and the clip binds."""
    def build(config, rng):
        model = build_vae(config, rng)
        biases = model.decoder.layers[-1].biases
        biases[0::2], biases[1::2] = bias, -bias
        return model
    return build


def assert_train_vae_matches_reference(config, store, bias):
    build = saturated_build(bias)
    expected_model, expected_log = reference_train_vae(
        config, store, RngStream(4), build(config, RngStream(4).spawn("init"))
    )
    with mock.patch.object(vae_module, "build_vae", build):
        model, log = train_vae(config, store, RngStream(4))
    assert flat_of(model).tobytes() == flat_of(expected_model).tobytes()
    assert log == expected_log


@settings(max_examples=60, deadline=None)
@given(width=st.integers(2, 24), batch=st.integers(2, 9), full=st.integers(0, 3),
       short=st.integers(1, 8), chunk=st.integers(1, 60),
       bias=st.sampled_from([0.0, 1.5, 40.0]), seed=st.integers(0, 2**16))
@example(width=5, batch=4, full=2, short=3, chunk=7, bias=40.0, seed=1)
def test_train_vae_equals_the_reference_step_bitwise(width, batch, full, short, chunk, bias, seed):
    # the final batch is short, and a row block of max(1, chunk // width)
    # rows need not divide a batch
    rows = batch * full + min(short, batch - 1)
    config = VaeConfig(input_dim=width, encoder_hidden=(6, 3), latent_dim=2,
                       epochs=2, batch_size=batch, learning_rate=1e-2)
    store = random_store(rows, width, seed=seed, density=0.4)
    with mock.patch.object(engine, "CHUNK", chunk):
        assert_train_vae_matches_reference(config, store, bias)


def test_train_vae_equals_the_reference_step_bitwise_at_full_chunks():
    # 700 bits a row: blocks of 93 rows, so the 100-row batches and the
    # 50-row final batch each end in a partial block
    config = VaeConfig(input_dim=700, encoder_hidden=(16,), latent_dim=3,
                       epochs=2, batch_size=100, learning_rate=1e-2)
    assert_train_vae_matches_reference(config, random_store(250, 700, seed=2), 40.0)


def test_train_vae_kl_logged_nonnegative():
    store = random_store(40, 8, seed=4)
    _, log = train_vae(TINY, store, RngStream(5))
    assert all(r.kl_loss >= 0.0 for r in log)


# ---------------------------------------------------------------- embed


def test_embed_shapes_and_purity():
    store = random_store(25, 8, seed=8)
    model, _ = train_vae(TINY, store, RngStream(2))
    latents = embed(model, store)
    assert len(latents) == 25
    assert latents.width == 2
    again = embed(model, store)
    assert latents.ids == again.ids == store.ids
    assert np.array_equal(latents.matrix, again.matrix)


def test_embed_zero_vector_finite():
    model = build_vae(TINY, RngStream(0))
    latents = embed(model, bit_store(8, {"zero": np.zeros(8)}))
    assert latents.ids == ["zero"] and np.isfinite(latents.matrix).all()


def test_embed_width_mismatch():
    model = build_vae(TINY, RngStream(0))
    with pytest.raises(DataError):
        embed(model, random_store(3, 5, seed=1))


# ---------------------------------------------------------------- checkpoints


def test_vae_checkpoint_round_trip(tmp_path):
    model = build_vae(TINY, RngStream(21))
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_vae(model, first)
    save_vae(load_vae(first), second)
    assert first.read_bytes() == second.read_bytes()
    loaded = load_vae(first)
    assert np.array_equal(flat_of(model), flat_of(loaded))
