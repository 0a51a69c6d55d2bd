"""Variational autoencoders compressing binary feature vectors to latents.

The encoder trunk is a ReLU stack; two parallel linear heads read the
posterior mean and log-variance off the trunk's last hidden layer; the
decoder mirrors the trunk widths in reverse and ends in a Sigmoid so
reconstructions live in (0, 1) like the input bits.  Downstream features
are always the posterior mean, never a sample.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

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
    check_sizes_and_rate,
    forward,
    init_network,
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


# a model's networks, in checkpoint and parameter order
_PARTS = ("encoder_trunk", "mu_head", "logvar_head", "decoder")


@dataclass
class VaeModel:
    """Four networks whose parameters are consecutive slices of one vector, ``flat``."""

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
        self.flat = np.empty(sum(getattr(self, part).flat.size for part in _PARTS))
        for part, view in zip(_PARTS, self.split(self.flat)):
            getattr(self, part).adopt(view)

    @property
    def input_dim(self) -> int:
        return self.encoder_trunk.input_dim

    @property
    def latent_dim(self) -> int:
        return self.mu_head.output_dim

    def split(self, vector: np.ndarray) -> list[np.ndarray]:
        """Slices of a vector laid out like ``flat``, one per network in ``_PARTS`` order."""
        return np.split(vector, np.cumsum([getattr(self, p).flat.size for p in _PARTS])[:-1])


def build_vae(config: VaeConfig, rng: RngStream) -> VaeModel:
    """Trunk, twin linear heads, and a mirrored decoder, all seeded."""
    if config.latent_dim > config.input_dim:
        warnings.warn(
            f"latent_dim {config.latent_dim} exceeds input_dim {config.input_dim}; "
            "the model will not compress", stacklevel=2,
        )
    hidden = list(config.encoder_hidden)
    trunk = init_network(hidden, config.input_dim, [RELU] * len(hidden), rng)
    mu_head = init_network([config.latent_dim], hidden[-1], [IDENTITY], rng)
    logvar_head = init_network([config.latent_dim], hidden[-1], [IDENTITY], rng)
    decoder_sizes = hidden[::-1] + [config.input_dim]
    decoder_acts = [RELU] * (len(decoder_sizes) - 1) + [SIGMOID]
    decoder = init_network(decoder_sizes, config.latent_dim, decoder_acts, rng)
    return VaeModel(trunk, mu_head, logvar_head, decoder)


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


def _clip(reconstruction: np.ndarray) -> np.ndarray:
    # keeps the logs and the gradient's divisions finite
    return np.clip(reconstruction, 1e-12, 1.0 - 1e-12)


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
    return _loss_terms(_clip(r), x, mu, logvar)


def _loss_terms(
    clipped: np.ndarray, x: np.ndarray, mu: np.ndarray, logvar: np.ndarray
) -> tuple[float, float, float]:
    # vae_loss on a checked batch and an already clipped reconstruction; the
    # sum of x * log(c) + (1 - x) * log1p(-c), two batch-sized arrays at a time
    n = x.shape[0]
    misses = np.negative(clipped)
    np.log1p(misses, out=misses)
    misses *= 1.0 - x
    hits = np.log(clipped)
    hits *= x
    hits += misses
    recon = float(-np.sum(hits) / n)
    # expm1 keeps e^lv - 1 - lv >= 0 even for tiny logvar, where exp() would
    # round to 1.0 and drop below zero
    kl = float(0.5 * np.sum(mu**2 + (np.expm1(logvar) - logvar)) / n)
    return recon + kl, recon, kl


def _recon_gradient(clipped: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of the reconstruction term w.r.t. the clipped reconstruction,
    ``(-(x / c) + (1 - x) / (1 - c)) / n``, written over ``clipped``."""
    misses = np.subtract(1.0, clipped)
    np.divide(1.0 - x, misses, out=misses)
    grad = np.divide(x, clipped, out=clipped)
    np.negative(grad, out=grad)
    grad += misses
    grad /= x.shape[0]
    return grad


@dataclass
class _VaeCache:
    trunk_acts: list[np.ndarray]
    mu: np.ndarray
    logvar: np.ndarray
    eta: np.ndarray
    decoder_acts: list[np.ndarray]
    clipped: np.ndarray  # clipped as in vae_loss; _vae_backward overwrites it


def _vae_forward(model: VaeModel, batch: np.ndarray, eta: np.ndarray) -> _VaeCache:
    trunk_acts = forward(model.encoder_trunk, batch)
    h = trunk_acts[-1]
    mu = forward(model.mu_head, h)[-1]
    logvar = forward(model.logvar_head, h)[-1]
    z = reparameterize(mu, logvar, eta)
    decoder_acts = forward(model.decoder, z)
    return _VaeCache(trunk_acts, mu, logvar, eta, decoder_acts, _clip(decoder_acts[-1]))


def _vae_backward(
    model: VaeModel, cache: _VaeCache, batch: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Gradients of the total loss, written into ``out`` (laid out like ``model.flat``)."""
    x = np.asarray(batch, dtype=np.float64)
    n = x.shape[0]
    trunk_out, mu_out, lv_out, dec_out = model.split(out)
    _, d_z = backward_with_input(
        model.decoder, cache.decoder_acts, _recon_gradient(cache.clipped, x), dec_out
    )

    # KL contributions (mean over batch)
    d_mu = d_z + cache.mu / n
    d_logvar = d_z * 0.5 * np.exp(0.5 * cache.logvar) * cache.eta
    d_logvar += 0.5 * np.expm1(cache.logvar) / n

    h = cache.trunk_acts[-1]
    _, d_h = backward_with_input(model.mu_head, [h, cache.mu], d_mu, mu_out)
    _, d_h_lv = backward_with_input(model.logvar_head, [h, cache.logvar], d_logvar, lv_out)
    d_h += d_h_lv
    backward(model.encoder_trunk, cache.trunk_acts, d_h, trunk_out)
    return out


@dataclass
class VaeEpochRecord:
    epoch: int
    recon_loss: float
    kl_loss: float
    total_loss: float
    total_change: float


@dataclass
class VaeTrainLog:
    records: list[VaeEpochRecord] = field(default_factory=list)

    def totals(self) -> np.ndarray:
        return np.array([r.total_loss for r in self.records])


def _train_batch(
    model: VaeModel, adam: AdamState, grad: np.ndarray, batch: np.ndarray,
    eta: np.ndarray,
) -> tuple[float, float]:
    """One Adam step on a checked batch; returns its reconstruction and KL terms.

    A function of its own so that the batch and its activations are freed
    before the next batch's forward pass allocates its own.
    """
    cache = _vae_forward(model, batch, eta)
    _, recon, kl = _loss_terms(cache.clipped, batch, cache.mu, cache.logvar)
    adam_step(adam, model.flat, _vae_backward(model, cache, batch, grad))
    return recon, kl


def train_vae(
    config: VaeConfig, store: FeatureStore, rng: RngStream
) -> tuple[VaeModel, VaeTrainLog]:
    """Train with Adam over shuffled mini-batches; the short final batch is kept.

    Logs the sample-weighted epoch mean of the total loss, its two terms, and
    the epoch-over-epoch change (0.0 for the first epoch).  The store's bits
    stay uint8: only the batch in hand is widened to float64.
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
    log = VaeTrainLog()
    if config.epochs == 0:
        return model, log

    _check_binary(bits)
    adam = AdamState.create(model.flat.size, config.learning_rate)
    grad = np.empty_like(model.flat)
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
            recon, kl = _train_batch(
                model, adam, grad, bits[idx].astype(np.float64), eta
            )
            ep_recon += recon * len(idx)
            ep_kl += kl * len(idx)
        total = (ep_recon + ep_kl) / n
        change = 0.0 if prev_total is None else total - prev_total
        log.records.append(
            VaeEpochRecord(epoch, ep_recon / n, ep_kl / n, total, change)
        )
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
    ckpt.write_atomic(path, ckpt.dumps(doc) + "\n")


def load_vae(path) -> VaeModel:
    doc = ckpt.read_json(path)
    try:
        return VaeModel(**{part: ckpt.network_from_dict(doc["vae"][part]) for part in _PARTS})
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed VAE checkpoint {path}: {exc}") from exc
