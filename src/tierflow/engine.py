"""Dense feed-forward networks with hand-written forward/backward passes.

Matrices are float64 numpy arrays; a 2-D array with rows = samples and
cols = features plays the role of a batch, and layer weights are stored
(out x in) so the forward map is ``a @ W.T + b``.  Everything downstream
(VAE, tier trainer, diagnostics) builds on the functions here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .rng import RngStream

RELU = "relu"
SIGMOID = "sigmoid"
IDENTITY = "identity"
ACTIVATIONS = (RELU, SIGMOID, IDENTITY)


def _apply_activation(z: np.ndarray, tag: str) -> np.ndarray:
    # overwrites z: forward hands over a fresh pre-activation
    if tag == RELU:
        return np.maximum(z, 0.0, out=z)
    if tag == SIGMOID:
        # stable logistic: with e = exp(-|z|), 1 / (1 + e) for z >= 0, else e / (1 + e)
        positive = z >= 0
        e = np.exp(np.negative(np.abs(z, out=z), out=z), out=z)
        out = np.where(positive, 1.0, e)
        e += 1.0
        out /= e
        return out
    if tag == IDENTITY:
        return z
    raise ValueError(f"unknown activation {tag!r}")


def _activation_gradient(delta: np.ndarray, a_out: np.ndarray, tag: str) -> np.ndarray:
    """dLoss/dPre-activation from dLoss/dOutput, through the activation's output."""
    if tag == RELU:
        return np.multiply(delta, a_out > 0.0)
    if tag == SIGMOID:
        # delta * (a_out * (1 - a_out)), in one array
        dz = np.subtract(1.0, a_out)
        dz *= a_out
        dz *= delta
        return dz
    return delta


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {what}")


@dataclass
class DenseLayer:
    """One fully connected layer: weights (out x in), biases (out,), activation tag."""

    weights: np.ndarray
    biases: np.ndarray
    activation: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {self.weights.shape}")
        if self.biases.shape != (self.weights.shape[0],):
            raise ValueError(
                f"bias length {self.biases.shape} does not match "
                f"{self.weights.shape[0]} output units"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class DenseNetwork:
    """Ordered dense layers; layer i consumes layer i-1's output width.

    The parameters live in one float64 vector ``flat``, in :meth:`parameters`
    order; the layers are rebuilt around reshaped views of it, so the caller's
    arrays are copied, never re-homed.  Copy a network with :meth:`copy`:
    ``copy.deepcopy`` would copy each view on its own, detached from ``flat``.
    """

    layers: list[DenseLayer]
    input_dim: int

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        prev = self.input_dim
        for i, layer in enumerate(self.layers):
            if layer.in_dim != prev:
                raise ValueError(
                    f"layer {i} expects input width {layer.in_dim}, previous width is {prev}"
                )
            prev = layer.out_dim
        self.adopt(np.empty(sum(p.size for p in self.parameters())))

    def adopt(self, vector: np.ndarray) -> None:
        """Copy the parameters into ``vector``, laid out like ``flat``, as the new ``flat``."""
        np.concatenate([p.ravel() for p in self.parameters()], out=vector)
        self.flat = vector
        views = self.split(vector)
        self.layers = [
            DenseLayer(w, b, layer.activation)
            for layer, w, b in zip(self.layers, views[0::2], views[1::2])
        ]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    def parameters(self) -> list[np.ndarray]:
        """Per-array parameter list (layer 0 weights, layer 0 biases, layer 1 weights, ...)."""
        return [p for layer in self.layers for p in (layer.weights, layer.biases)]

    def split(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views of a vector laid out like ``flat``, shaped like :meth:`parameters`."""
        views, at = [], 0
        for p in self.parameters():
            views.append(vector[at:at + p.size].reshape(p.shape))
            at += p.size
        return views

    def copy(self) -> "DenseNetwork":
        """An independent network: one copy of ``flat``."""
        return DenseNetwork(self.layers, self.input_dim)


def check_sizes_and_rate(what: str, sizes, learning_rate: float) -> None:
    """ValueError unless every layer size is >= 1 and the rate is finite and > 0."""
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate}")
    if any(size < 1 for size in sizes):
        raise ValueError(f"{what} sizes must be >= 1, got {list(sizes)}")


def init_network(
    layer_sizes: list[int],
    input_dim: int,
    activation_plan: list[str] | None = None,
    rng: RngStream | None = None,
) -> DenseNetwork:
    """Build a network with Glorot-uniform weights and zero biases.

    Weights are drawn uniformly from +-sqrt(6 / (fan_in + fan_out)), row-major
    draw order, so a given seed fixes them exactly.  ``activation_plan``
    defaults to ReLU on hidden layers and Sigmoid on the last.
    """
    if not layer_sizes:
        raise ValueError("layer_sizes must be non-empty")
    if any(s < 1 for s in layer_sizes):
        raise ValueError(f"zero-size layer in {layer_sizes}")
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")
    if activation_plan is None:
        activation_plan = [RELU] * (len(layer_sizes) - 1) + [SIGMOID]
    if len(activation_plan) != len(layer_sizes):
        raise ValueError("activation_plan length must match layer_sizes")
    if rng is None:
        rng = RngStream(0)

    layers = []
    fan_in = input_dim
    for size, act in zip(layer_sizes, activation_plan):
        limit = np.sqrt(6.0 / (fan_in + size))
        w = rng.uniform(-limit, limit, size=size * fan_in).reshape(size, fan_in)
        layers.append(DenseLayer(w, np.zeros(size), act))
        fan_in = size
    return DenseNetwork(layers, input_dim)


def forward(net: DenseNetwork, batch: np.ndarray, chain: bool = True) -> list[np.ndarray]:
    """Run the batch through every layer.

    Returns the activation chain ``[input, a_1, ..., a_L]``; the last entry is
    the network output.  Keeping the chain is what lets ``backward`` avoid
    recomputation.  With ``chain=False`` only ``[input, output]`` is returned
    and each hidden activation is freed once the next layer has read it.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ValueError(f"batch must be 2-D, got shape {batch.shape}")
    if batch.shape[1] != net.input_dim:
        raise ValueError(
            f"batch has {batch.shape[1]} columns, network expects {net.input_dim}"
        )
    acts = [batch]
    a = batch
    for layer in net.layers:
        z = a @ layer.weights.T
        z += layer.biases
        a = _apply_activation(z, layer.activation)
        if chain:
            acts.append(a)
    if a.size:
        _check_finite(a, "forward output")
    return acts if chain else [batch, a]


def _clamped_bce_inputs(predictions, labels) -> tuple[np.ndarray, np.ndarray]:
    # flat predictions clamped to [1e-12, 1 - 1e-12], and flat labels
    p = np.asarray(predictions, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if p.shape != y.shape:
        raise ValueError(f"length mismatch: {p.shape[0]} predictions, {y.shape[0]} labels")
    if p.size == 0:
        raise ValueError("bce_loss needs at least one prediction")
    return np.clip(p, 1e-12, 1.0 - 1e-12), y


def bce_gradient(predictions: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean binary cross-entropy w.r.t. the predictions.

    Evaluated at the predictions clamped to [1e-12, 1 - 1e-12], and shaped
    like ``predictions``; the training loop needs nothing else.
    """
    pc, y = _clamped_bce_inputs(predictions, labels)
    grad = (-(y / pc) + (1.0 - y) / (1.0 - pc)) / pc.size
    return grad.reshape(np.shape(predictions))


def bce_loss(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy, with predictions clamped to [1e-12, 1 - 1e-12]
    before the logs; :func:`bce_gradient` is its gradient."""
    pc, y = _clamped_bce_inputs(predictions, labels)
    return float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log1p(-pc)))


def backward(
    net: DenseNetwork,
    activations: list[np.ndarray],
    loss_gradient: np.ndarray,
    out: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Backpropagate dLoss/dOutput through the network.

    ``activations`` is the chain produced by :func:`forward` on the same net;
    ``loss_gradient`` is the gradient w.r.t. the final (post-activation)
    output.  The gradients are written into ``out`` (a vector laid out like
    ``net.flat``, allocated when omitted) and returned as its views, aligned
    with ``net.parameters()``.
    """
    return _backpropagate(net, activations, loss_gradient, out, False)[0]


def backward_with_input(
    net: DenseNetwork, activations: list[np.ndarray], loss_gradient: np.ndarray, out=None
) -> tuple[list[np.ndarray], np.ndarray]:
    """Like :func:`backward` but also returns dLoss/dInput (VAE chaining needs it)."""
    return _backpropagate(net, activations, loss_gradient, out, True)


def _backpropagate(net, activations, loss_gradient, out, input_gradient: bool):
    if len(activations) != len(net.layers) + 1:
        raise ValueError(
            f"activation chain has {len(activations)} entries, "
            f"expected {len(net.layers) + 1}"
        )
    delta = np.asarray(loss_gradient, dtype=np.float64)
    if delta.shape != activations[-1].shape:
        raise ValueError(
            f"loss gradient shape {delta.shape} does not match output "
            f"shape {activations[-1].shape}"
        )
    grads = net.split(np.empty_like(net.flat) if out is None else out)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        a_out = activations[i + 1]
        a_in = activations[i]
        if a_in.shape[1] != layer.in_dim:
            raise ValueError(f"stale activations at layer {i}")
        dz = _activation_gradient(delta, a_out, layer.activation)
        np.matmul(dz.T, a_in, out=grads[2 * i])
        dz.sum(axis=0, out=grads[2 * i + 1])
        # layer 0's input gradient is dLoss/dInput, which only the VAE uses
        if i or input_gradient:
            delta = dz @ layer.weights
    return grads, delta


# Adam's moment decay rates and denominator guard: the published defaults
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8
# elements per block of an Adam update, whose two scratch blocks are all it allocates
_ADAM_CHUNK = 65536


@dataclass
class AdamState:
    """Adam step counter and moments, each moment one vector like the parameters."""

    t: int
    m: np.ndarray
    v: np.ndarray
    learning_rate: float

    @classmethod
    def create(cls, size: int, learning_rate: float) -> "AdamState":
        return cls(0, np.zeros(size), np.zeros(size), learning_rate)


def adam_step(state: AdamState, p: np.ndarray, g: np.ndarray) -> None:
    """One Adam update of the parameter vector ``p`` by the gradient ``g``, in
    place, with bias-corrected moments, ``_ADAM_CHUNK`` elements at a time.

    t is incremented before the update; the applied step is
    -lr * m_hat / (sqrt(v_hat) + eps), with its operations in this order.
    """
    if p.ndim != 1 or not p.shape == g.shape == state.m.shape == state.v.shape:
        raise ValueError("parameters, gradient and Adam moments must be equal-length vectors")
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    scratch = np.empty((2, min(p.size, _ADAM_CHUNK)))
    for at in range(0, p.size, _ADAM_CHUNK):
        end = at + _ADAM_CHUNK
        pc, gc, m, v = p[at:end], g[at:end], state.m[at:end], state.v[at:end]
        a, b = scratch[0, :len(pc)], scratch[1, :len(pc)]
        m *= BETA1
        m += np.multiply(gc, 1.0 - BETA1, out=a)
        v *= BETA2
        np.multiply(gc, 1.0 - BETA2, out=a)
        v += np.multiply(a, gc, out=a)
        np.sqrt(np.divide(v, bc2, out=a), out=a)
        a += EPSILON
        np.multiply(np.divide(m, bc1, out=b), state.learning_rate, out=b)
        pc -= np.divide(b, a, out=b)
        _check_finite(pc, "parameters after Adam step")


@dataclass
class WeightSnapshot:
    """Frozen copy of every layer's weights and biases, tagged for reports."""

    tag: str
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases lists must have equal length")

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def take_snapshot(net: DenseNetwork, tag: str) -> WeightSnapshot:
    params = net.split(net.flat.copy())
    return WeightSnapshot(tag, params[0::2], params[1::2])


def accuracy(predictions: np.ndarray, labels: np.ndarray, threshold: float = 0.5) -> float:
    """Percentage of correct threshold classifications; ties (p == threshold) go positive."""
    p = np.asarray(predictions, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if p.size == 0:
        raise ValueError("accuracy needs at least one prediction")
    if p.shape != y.shape:
        raise ValueError(f"length mismatch: {p.shape[0]} predictions, {y.shape[0]} labels")
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    predicted = (p >= threshold).astype(np.float64)
    return float(100.0 * np.mean(predicted == y))
