"""Variational autoencoders compressing binary feature vectors to latents.

The encoder trunk is a ReLU stack; two parallel linear heads read the
posterior mean and log-variance off the trunk's last hidden layer; the
decoder mirrors the trunk widths in reverse and ends in a Sigmoid so
reconstructions live in (0, 1) like the input bits.  Downstream features
are always the posterior mean, never a sample.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt
from .data import FeatureStore
from .engine import (
    IDENTITY,
    RELU,
    SIGMOID,
    AdamState,
    DenseNetwork,
    adam_step,
    backward,
    backward_with_input,
    bce_terms,
    check_sizes_and_rate,
    clamp_probabilities,
    forward,
    init_network,
    sigmoid_bce,
)
from .errors import DataError
from .rng import RngStream


@dataclass
class VaeConfig:
    input_dim: int
    encoder_hidden: tuple[int, ...]
    latent_dim: int
    epochs: int
    batch_size: int
    learning_rate: float

    def __post_init__(self):
        self.encoder_hidden = tuple(self.encoder_hidden)
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if not self.encoder_hidden:
            raise ValueError("encoder_hidden must be non-empty")
        check_sizes_and_rate("encoder_hidden", self.encoder_hidden, self.learning_rate)
        if self.input_dim < 1 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("input_dim and batch_size must be >= 1, epochs >= 0")


def protein_preset() -> VaeConfig:
    """5508-bit protein domain vectors down to 128 latents."""
    return VaeConfig(5508, (2048, 512), 128, 500, 1000, 1e-4)


def chemical_preset() -> VaeConfig:
    """1024-bit compound fingerprints down to 64 latents."""
    return VaeConfig(1024, (256, 128), 64, 500, 1000, 1e-4)


# a model's networks, in checkpoint and draw order
_PARTS = ("encoder_trunk", "mu_head", "logvar_head", "decoder")


@dataclass
class VaeModel:
    """Four networks, each with its own parameter vector ``flat``, whose
    widths chain from the trunk through both heads to the decoder."""

    encoder_trunk: DenseNetwork
    mu_head: DenseNetwork
    logvar_head: DenseNetwork
    decoder: DenseNetwork

    def __post_init__(self):
        latent = self.mu_head.output_dim
        if self.mu_head.input_dim != self.encoder_trunk.output_dim or (
            self.logvar_head.input_dim != self.encoder_trunk.output_dim
        ):
            raise ValueError("mu and logvar heads must read the trunk's output width")
        if self.logvar_head.output_dim != latent:
            raise ValueError("mu and logvar heads must share the latent width")
        if self.decoder.input_dim != latent:
            raise ValueError("decoder input width must equal the latent width")
        if self.decoder.layers[-1].activation != SIGMOID:
            raise ValueError("decoder must end in a Sigmoid output")

    @property
    def input_dim(self) -> int:
        return self.encoder_trunk.input_dim

    @property
    def latent_dim(self) -> int:
        return self.mu_head.output_dim


def build_vae(config: VaeConfig, rng: RngStream) -> VaeModel:
    """Trunk, twin linear heads, and a mirrored decoder, all seeded.

    The networks are drawn from ``rng`` in ``_PARTS`` order, each straight
    into its own ``flat``, so building holds one copy of the parameters.
    """
    if config.latent_dim > config.input_dim:
        warnings.warn(
            f"latent_dim {config.latent_dim} exceeds input_dim {config.input_dim}; "
            "the model will not compress", stacklevel=2,
        )
    hidden, latent = list(config.encoder_hidden), [config.latent_dim]
    return VaeModel(  # arguments are evaluated, so drawn, left to right
        init_network(hidden, config.input_dim, [RELU] * len(hidden), rng),
        init_network(latent, hidden[-1], [IDENTITY], rng),
        init_network(latent, hidden[-1], [IDENTITY], rng),
        init_network(hidden[::-1] + [config.input_dim], config.latent_dim,
                     [RELU] * len(hidden) + [SIGMOID], rng),
    )


def reparameterize(mu: np.ndarray, logvar: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """z = mu + exp(logvar/2) * eta for standard-normal noise ``eta``."""
    if not mu.shape == logvar.shape == eta.shape:
        raise ValueError(
            f"mu shape {mu.shape}, logvar shape {logvar.shape} and eta shape "
            f"{eta.shape} differ"
        )
    return mu + np.exp(0.5 * logvar) * eta


def _check_binary(x: np.ndarray) -> None:
    if x.dtype == np.uint8:
        binary = x.max(initial=0) <= 1  # needs no temporary the size of the bits
    else:
        binary = np.isin(x, (0.0, 1.0)).all()
    if not binary:
        raise DataError("vae_loss input must be binary (0/1 entries)")


def vae_loss(
    reconstruction: np.ndarray,
    batch: np.ndarray,
    mu: np.ndarray,
    logvar: np.ndarray,
) -> tuple[float, float, float]:
    """(total, reconstruction term, KL term), each averaged over samples.

    Reconstruction is per-bit Bernoulli cross-entropy summed within a sample;
    KL is the closed form against a standard-normal prior,
    0.5 * sum(mu^2 + e^logvar - 1 - logvar).  The batch must be binary; the
    reconstruction is clipped to [1e-12, 1 - 1e-12].
    """
    x = np.asarray(batch, dtype=np.float64)
    r = np.asarray(reconstruction, dtype=np.float64)
    if r.shape != x.shape:
        raise ValueError(f"reconstruction shape {r.shape} != input shape {x.shape}")
    _check_binary(x)
    terms = clamp_probabilities(r)
    recon = float(-np.sum(bce_terms(terms, x, out=terms)) / len(x))
    kl = _kl(mu, logvar, len(x))
    return recon + kl, recon, kl


def _kl(mu: np.ndarray, logvar: np.ndarray, n: int) -> float:
    # expm1 keeps e^lv - 1 - lv >= 0 even for tiny logvar, where exp() would
    # round to 1.0 and drop below zero
    return float(0.5 * np.sum(mu**2 + (np.expm1(logvar) - logvar)) / n)


def _gradient(
    model: VaeModel, bits: np.ndarray, eta: np.ndarray,
    buf: np.ndarray, grad: np.ndarray, update,
) -> tuple[float, float]:
    """The reconstruction and KL terms of one batch of uint8 ``bits``.

    The gradient of their sum is backpropagated through the decoder, the
    heads and the trunk into the front of ``grad`` (as long as the largest
    network), each network's handed to ``update(part, gradient)`` as soon as
    its pass ends; no network's parameters are read after that.  ``buf``, a
    float64 buffer shaped like ``bits``, is the only batch-sized float array:
    it holds the float batch for the trunk's forward pass, the decoder's
    output pre-activation, the gradient w.r.t. it (which :func:`sigmoid_bce`
    leaves there), and the float batch again for the trunk's backward pass.
    Each backward pass takes the gradient w.r.t. its network's top
    pre-activation, so the trunk's top ReLU is applied to ``d_h`` here.
    """
    n = len(bits)
    np.copyto(buf, bits)
    trunk_acts = forward(model.encoder_trunk, buf)
    h = trunk_acts[-1]
    mu = forward(model.mu_head, h)[-1]
    logvar = forward(model.logvar_head, h)[-1]
    decoder_acts = forward(model.decoder, reparameterize(mu, logvar, eta), logits=buf)
    recon = sigmoid_bce(buf, bits)

    trunk_out, mu_out, lv_out, dec_out = (grad[:getattr(model, p).flat.size] for p in _PARTS)
    _, d_z = backward_with_input(model.decoder, decoder_acts, buf, dec_out)
    del decoder_acts  # freed before the trunk's backward pass allocates its own
    update("decoder", dec_out)
    # KL contributions (mean over batch)
    d_mu = d_z + mu / n
    d_logvar = d_z * 0.5 * np.exp(0.5 * logvar) * eta
    d_logvar += 0.5 * np.expm1(logvar) / n
    _, d_h = backward_with_input(model.mu_head, [h, mu], d_mu, mu_out)
    update("mu_head", mu_out)
    _, d_h_lv = backward_with_input(model.logvar_head, [h, logvar], d_logvar, lv_out)
    update("logvar_head", lv_out)
    d_h += d_h_lv
    np.multiply(d_h, h > 0.0, out=d_h)  # through the trunk's top ReLU
    np.copyto(buf, bits)
    backward(model.encoder_trunk, trunk_acts, d_h, trunk_out)
    update("encoder_trunk", trunk_out)
    return recon, _kl(mu, logvar, n)


@dataclass
class VaeEpochRecord:
    epoch: int
    recon_loss: float
    kl_loss: float
    total_loss: float
    total_change: float


def train_vae(
    config: VaeConfig, store: FeatureStore, rng: RngStream
) -> tuple[VaeModel, list[VaeEpochRecord]]:
    """Train with Adam over shuffled mini-batches; the short final batch is kept.

    Returns one record per epoch: the sample-weighted epoch mean of the total
    loss, its two terms, and the epoch-over-epoch change (0.0 for the first
    epoch).  The store's bits stay uint8, and each network has its own Adam
    state, stepped as soon as its gradient is done; see :func:`_gradient` for
    the buffers.
    """
    if len(store) == 0:
        raise DataError("cannot train a VAE on an empty store")
    if store.width != config.input_dim:
        raise DataError(
            f"store width {store.width} does not match config input_dim {config.input_dim}"
        )
    bits = store.matrix
    n = len(bits)
    model = build_vae(config, rng.spawn("init"))
    log: list[VaeEpochRecord] = []
    if config.epochs == 0:
        return model, log

    _check_binary(bits)
    adam = {p: AdamState.create(getattr(model, p).flat.size, config.learning_rate) for p in _PARTS}
    grad = np.empty(max(state.m.size for state in adam.values()))
    buf = np.empty((min(n, config.batch_size), config.input_dim))

    def update(part: str, gradient: np.ndarray) -> None:
        adam_step(adam[part], getattr(model, part).flat, gradient)

    prev_total = None
    for epoch in range(1, config.epochs + 1):
        order = rng.spawn("shuffle", epoch).permutation(n)
        noise = rng.spawn("noise", epoch)
        ep_recon = ep_kl = 0.0
        for at in range(0, n, config.batch_size):
            idx = order[at:at + config.batch_size]
            eta = noise.normal(len(idx) * config.latent_dim).reshape(
                len(idx), config.latent_dim
            )
            recon, kl = _gradient(model, bits[idx], eta, buf[:len(idx)], grad, update)
            ep_recon += recon * len(idx)
            ep_kl += kl * len(idx)
        total = (ep_recon + ep_kl) / n
        change = 0.0 if prev_total is None else total - prev_total
        log.append(VaeEpochRecord(epoch, ep_recon / n, ep_kl / n, total, change))
        prev_total = total
    return model, log


def embed(model: VaeModel, store: FeatureStore) -> FeatureStore:
    """Posterior means for every entry; deterministic, consumes no randomness."""
    if store.width != model.input_dim:
        raise DataError(
            f"store width {store.width} does not match model input_dim {model.input_dim}"
        )
    means = np.empty((len(store), model.latent_dim))
    for at in range(0, len(store), 4096):
        batch = store.matrix[at:at + 4096].astype(np.float64)
        h = forward(model.encoder_trunk, batch, chain=False)[-1]
        means[at:at + 4096] = forward(model.mu_head, h)[-1]
    return FeatureStore(store.ids, means)


def save_vae(model: VaeModel, path) -> None:
    doc = {"vae": {part: ckpt.network_to_dict(getattr(model, part)) for part in _PARTS}}
    ckpt.save_document(path, doc)


def load_vae(path) -> VaeModel:
    doc = ckpt.read_json(path)
    try:
        return VaeModel(**{part: ckpt.network_from_dict(doc["vae"][part]) for part in _PARTS})
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed VAE checkpoint {path}: {exc}") from exc
