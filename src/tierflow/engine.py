"""Dense feed-forward networks with hand-written forward/backward passes.

Matrices are float64 numpy arrays; a 2-D array with rows = samples and
cols = features plays the role of a batch, and layer weights are stored
(out x in) so the forward map is ``a @ W.T + b``.  Everything downstream
(VAE, tier trainer, diagnostics) builds on the functions here.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import NumericError
from .rng import RngStream

RELU = "relu"
SIGMOID = "sigmoid"
IDENTITY = "identity"
ACTIVATIONS = (RELU, SIGMOID, IDENTITY)
# elements per block of the chunked elementwise passes (Adam's update, weight
# draws, the VAE's output layer): a block's scratch stays in cache
CHUNK = 65536


def sigmoid(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The logistic function of ``z``, written into ``out``; overwrites ``z``.

    Stable: with e = exp(-|z|), 1 / (1 + e) for z >= 0, else e / (1 + e).
    """
    positive = z >= 0
    e = np.exp(np.negative(np.abs(z, out=z), out=z), out=z)
    np.copyto(out, e)
    np.copyto(out, 1.0, where=positive)
    e += 1.0
    out /= e
    return out


def _apply_activation(z: np.ndarray, tag: str) -> np.ndarray:
    # overwrites z: forward hands over a fresh pre-activation
    if tag == RELU:
        return np.maximum(z, 0.0, out=z)
    if tag == SIGMOID:
        return sigmoid(z, np.empty_like(z))
    if tag == IDENTITY:
        return z
    raise ValueError(f"unknown activation {tag!r}")


def _activation_gradient(
    delta: np.ndarray, a_out: np.ndarray, tag: str, out: np.ndarray | None = None
) -> np.ndarray:
    """dLoss/dPre-activation from dLoss/dOutput, through the activation's
    output; a ReLU's is written into ``out`` when given."""
    if tag == RELU:
        return np.multiply(delta, a_out > 0.0, out=out)
    if tag == SIGMOID:
        # delta * (a_out * (1 - a_out)), in one array
        dz = np.subtract(1.0, a_out)
        dz *= a_out
        dz *= delta
        return dz
    return delta


def check_finite(arr: np.ndarray, what: str) -> None:
    """NumericError naming ``what`` unless every entry of ``arr`` is finite."""
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
    arrays are copied, never re-homed.  ``flat`` is a fresh vector unless the
    constructor is given one to adopt.  Copy a network with :meth:`copy`:
    ``copy.deepcopy`` would copy each view on its own, detached from ``flat``.
    """

    layers: list[DenseLayer]
    input_dim: int
    flat: InitVar[np.ndarray | None] = None

    def __post_init__(self, flat):
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
        self.adopt(np.empty(sum(p.size for p in self.parameters())) if flat is None else flat)

    def adopt(self, vector: np.ndarray) -> None:
        """Copy the parameters into ``vector``, laid out like ``flat``, as the new ``flat``.

        A parameter that already is the view of ``vector`` it would be copied
        to is left in place: numpy skips a copy onto the same memory.
        """
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
    out: np.ndarray | None = None,
) -> DenseNetwork:
    """Build a network with Glorot-uniform weights and zero biases.

    Weights are drawn uniformly from +-sqrt(6 / (fan_in + fan_out)), row-major
    draw order, so a given seed fixes them exactly.  ``activation_plan``
    defaults to ReLU on hidden layers and Sigmoid on the last.  The weights
    are drawn ``CHUNK`` at a time straight into the network's ``flat``: into
    ``out`` when given (a vector of :func:`parameter_count` elements), else a
    fresh vector.
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
    count = parameter_count(layer_sizes, input_dim)
    if out is None:
        out = np.empty(count)
    elif out.shape != (count,):
        raise ValueError(f"out has shape {out.shape}, the network needs ({count},)")

    layers = []
    fan_in, at = input_dim, 0
    for size, act in zip(layer_sizes, activation_plan):
        limit = np.sqrt(6.0 / (fan_in + size))
        w, b = out[at:at + size * fan_in], out[at + size * fan_in:at + (fan_in + 1) * size]
        for start in range(0, w.size, CHUNK):
            w[start:start + CHUNK] = rng.uniform(-limit, limit, size=min(CHUNK, w.size - start))
        b.fill(0.0)
        layers.append(DenseLayer(w.reshape(size, fan_in), b, act))
        fan_in, at = size, at + (fan_in + 1) * size
    return DenseNetwork(layers, input_dim, out)


def parameter_count(layer_sizes, input_dim: int) -> int:
    """Weights and biases of a dense network with these layer sizes."""
    return sum((fan_in + 1) * size for fan_in, size in zip([input_dim, *layer_sizes], layer_sizes))


def forward(
    net: DenseNetwork, batch: np.ndarray, chain: bool = True, logits: np.ndarray | None = None
) -> list[np.ndarray]:
    """Run the batch through every layer.

    Returns the activation chain ``[input, a_1, ..., a_L]``; the last entry is
    the network output.  Keeping the chain is what lets ``backward`` avoid
    recomputation.  With ``chain=False`` only ``[input, output]`` is returned
    and each hidden activation is freed once the next layer has read it.

    With ``logits``, an array shaped like the output, the last layer's
    pre-activation is written there and its activation is left to the caller:
    the chain ends in ``logits``, and checking the output's finiteness is the
    caller's part too.
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
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        z = np.matmul(a, layer.weights.T, out=logits if i == last else None)
        z += layer.biases
        a = z if z is logits else _apply_activation(z, layer.activation)
        if chain:
            acts.append(a)
    if a.size and a is not logits:
        check_finite(a, "forward output")
    return acts if chain else [batch, a]


def clamp_probabilities(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``p`` clipped to [1e-12, 1 - 1e-12], which keeps the BCE's logs and
    divisions finite; into ``out`` when given."""
    return np.clip(p, 1e-12, 1.0 - 1e-12, out=out)


def bce_terms(clamped: np.ndarray, labels: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``y * log(c) + (1 - y) * log1p(-c)`` for each clamped prediction ``c``
    and its label ``y``, written into ``out`` (which may be ``clamped``).

    Minus the terms' sum over a divisor is the binary cross-entropy averaged
    over it.  The sum is the caller's, so that a buffer filled in chunks is
    summed in one pass, in one pairwise order.
    """
    misses = np.log1p(np.negative(clamped))
    misses *= 1.0 - labels
    np.log(clamped, out=out)
    out *= labels
    out += misses
    return out


def bce_term_gradient(
    clamped: np.ndarray, labels: np.ndarray, divisor: int, out: np.ndarray
) -> np.ndarray:
    """``(-(y / c) + (1 - y) / (1 - c)) / divisor`` for each element, written
    into ``out`` (which may be ``clamped``): the gradient of minus the sum of
    :func:`bce_terms` over ``divisor``."""
    misses = np.subtract(1.0, clamped)
    np.divide(1.0 - labels, misses, out=misses)
    np.divide(labels, clamped, out=out)
    np.negative(out, out=out)
    out += misses
    out /= divisor
    return out


def _clamped_bce_inputs(predictions, labels) -> tuple[np.ndarray, np.ndarray]:
    # flat predictions clamped to [1e-12, 1 - 1e-12], and flat labels
    p = np.asarray(predictions, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if p.shape != y.shape:
        raise ValueError(f"length mismatch: {p.shape[0]} predictions, {y.shape[0]} labels")
    if p.size == 0:
        raise ValueError("bce_loss needs at least one prediction")
    return clamp_probabilities(p), y


def bce_gradient(predictions: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean binary cross-entropy w.r.t. the predictions.

    Evaluated at the predictions clamped to [1e-12, 1 - 1e-12], and shaped
    like ``predictions``; the training loop needs nothing else.
    """
    pc, y = _clamped_bce_inputs(predictions, labels)
    return bce_term_gradient(pc, y, pc.size, out=pc).reshape(np.shape(predictions))


def bce_loss(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy, with predictions clamped to [1e-12, 1 - 1e-12]
    before the logs; :func:`bce_gradient` is its gradient."""
    pc, y = _clamped_bce_inputs(predictions, labels)
    return float(-np.sum(bce_terms(pc, y, out=pc)) / pc.size)


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
    net: DenseNetwork,
    activations: list[np.ndarray],
    loss_gradient: np.ndarray,
    out=None,
    from_logits: bool = False,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Like :func:`backward` but also returns dLoss/dInput (VAE chaining needs it).

    With ``from_logits``, ``loss_gradient`` is the gradient w.r.t. the last
    layer's pre-activation, for a chain from ``forward(..., logits=)``.
    """
    return _backpropagate(net, activations, loss_gradient, out, True, from_logits)


def _backpropagate(net, activations, loss_gradient, out, input_gradient: bool,
                   from_logits: bool = False):
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
        top = i == len(net.layers) - 1
        if from_logits and top:
            dz = delta
        else:
            # below the top layer, delta is this pass's own array: reuse it
            dz = _activation_gradient(delta, a_out, layer.activation, None if top else delta)
        np.matmul(dz.T, a_in, out=grads[2 * i])
        dz.sum(axis=0, out=grads[2 * i + 1])
        # layer 0's input gradient is dLoss/dInput, which only the VAE uses
        if i or input_gradient:
            delta = dz @ layer.weights
    return grads, delta


# Adam's moment decay rates and denominator guard: the published defaults
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


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
    place, with bias-corrected moments, ``CHUNK`` elements at a time.

    t is incremented before the update; the applied step is
    -lr * m_hat / (sqrt(v_hat) + eps), with its operations in this order.
    """
    if p.ndim != 1 or not p.shape == g.shape == state.m.shape == state.v.shape:
        raise ValueError("parameters, gradient and Adam moments must be equal-length vectors")
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    scratch = np.empty((2, min(p.size, CHUNK)))
    for at in range(0, p.size, CHUNK):
        end = at + CHUNK
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
        check_finite(pc, "parameters after Adam step")


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Percentage of correct threshold-0.5 classifications; ties (p == 0.5) go positive."""
    p = np.asarray(predictions, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if p.size == 0:
        raise ValueError("accuracy needs at least one prediction")
    if p.shape != y.shape:
        raise ValueError(f"length mismatch: {p.shape[0]} predictions, {y.shape[0]} labels")
    predicted = (p >= 0.5).astype(np.float64)
    return float(100.0 * np.mean(predicted == y))
