import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tierflow.checkpoint import network_from_dict, network_to_dict
from tierflow.engine import (
    BETA1,
    BETA2,
    CHUNK,
    EPSILON,
    IDENTITY,
    RELU,
    SIGMOID,
    AdamState,
    DenseLayer,
    DenseNetwork,
    accuracy,
    adam_step,
    backward,
    backward_with_input,
    bce_gradient,
    bce_loss,
    forward,
    init_network,
    parameter_count,
    sigmoid,
)
from tierflow.rng import RngStream


def zero_net(in_dim=1, out_dim=1, activation=SIGMOID):
    return DenseNetwork(
        [DenseLayer(np.zeros((out_dim, in_dim)), np.zeros(out_dim), activation)], in_dim
    )


# ---------------------------------------------------------------- init


def test_init_paper_architecture():
    net = init_network([128, 64, 32, 16, 8, 1], 192, rng=RngStream(0))
    assert len(net.layers) == 6
    assert net.layers[0].weights.shape == (128, 192)
    assert net.output_dim == 1


def test_init_zero_size_layer_rejected():
    with pytest.raises(ValueError):
        init_network([4, 0, 1], 3, rng=RngStream(0))


def test_init_same_seed_bit_identical():
    a = init_network([5, 3, 1], 4, rng=RngStream(99))
    b = init_network([5, 3, 1], 4, rng=RngStream(99))
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.biases, lb.biases)


def test_init_biases_zero_and_weights_bounded():
    net = init_network([7, 2], 5, rng=RngStream(1))
    for layer in net.layers:
        assert np.all(layer.biases == 0.0)
        limit = math.sqrt(6.0 / (layer.in_dim + layer.out_dim))
        assert np.all(np.abs(layer.weights) <= limit)


def test_init_draws_each_layer_as_one_uniform_block():
    # the first layer's 75,000 weights span two CHUNK-sized draws; a network
    # drawn into a slice of a longer vector adopts that slice
    sizes, width = [300, 1], 250
    vector = np.full(parameter_count(sizes, width) + 3, np.nan)
    net = init_network(sizes, width, rng=RngStream(5), out=vector[2:-1])
    assert np.shares_memory(net.flat, vector) and net.flat.size == vector.size - 3
    assert np.isnan(vector[[0, 1, -1]]).all()
    reference, fan_in = RngStream(5), width
    for layer, size in zip(net.layers, sizes):
        limit = np.sqrt(6.0 / (fan_in + size))
        expected = reference.uniform(-limit, limit, size=size * fan_in).reshape(size, fan_in)
        assert layer.weights.tobytes() == expected.tobytes()
        assert not layer.biases.any()
        fan_in = size
    with pytest.raises(ValueError, match="the network needs"):
        init_network(sizes, width, rng=RngStream(5), out=vector)


def test_network_width_chaining_enforced():
    good = DenseLayer(np.zeros((3, 2)), np.zeros(3), RELU)
    bad = DenseLayer(np.zeros((2, 4)), np.zeros(2), RELU)
    with pytest.raises(ValueError):
        DenseNetwork([good, bad], 2)


def assert_views_alias_flat(net):
    """Every layer's arrays are views into ``net.flat``, in ``parameters()`` order."""
    params = net.parameters()
    assert np.array_equal(np.concatenate([p.ravel() for p in params]), net.flat)
    for p in params:
        assert p.base is net.flat
    net.flat += 1.0  # a write through the vector shows in every layer
    assert np.array_equal(np.concatenate([p.ravel() for p in params]), net.flat)
    net.flat -= 1.0


def test_layers_alias_flat_vector():
    net = init_network([5, 3, 1], 4, rng=RngStream(7))
    assert net.flat.size == 4 * 5 + 5 + 5 * 3 + 3 + 3 + 1
    assert_views_alias_flat(net)
    assert_views_alias_flat(network_from_dict(network_to_dict(net)))
    copied = net.copy()
    assert_views_alias_flat(copied)
    assert not np.shares_memory(copied.flat, net.flat)


def test_network_does_not_rehome_callers_layers():
    layer = DenseLayer(np.ones((2, 3)), np.zeros(2), IDENTITY)
    weights = layer.weights
    net = DenseNetwork([layer], 3)
    assert layer.weights is weights and not np.shares_memory(weights, net.flat)


# ---------------------------------------------------------------- forward


def test_forward_zero_weights_gives_half():
    net = zero_net(in_dim=3)
    out = forward(net, np.array([[1.0, -5.0, 100.0], [0.0, 0.0, 0.0]]))[-1]
    assert np.array_equal(out, np.full((2, 1), 0.5))


def test_forward_identity_layer_matches_matrix_arithmetic():
    w = np.array([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0]])
    b = np.array([0.25, -1.0])
    net = DenseNetwork([DenseLayer(w, b, IDENTITY)], 3)
    batch = np.array([[1.0, 0.0, 2.0], [-1.0, 4.0, 0.5]])
    expected = batch @ w.T + b
    assert np.allclose(forward(net, batch)[-1], expected, atol=0, rtol=0)


def test_forward_empty_batch():
    net = zero_net(in_dim=4)
    out = forward(net, np.zeros((0, 4)))[-1]
    assert out.shape == (0, 1)


def test_forward_dimension_mismatch():
    with pytest.raises(ValueError):
        forward(zero_net(in_dim=4), np.zeros((2, 3)))


def test_forward_sigmoid_output_in_unit_interval():
    net = init_network([6, 1], 5, rng=RngStream(4))
    out = forward(net, RngStream(8).uniform(-10, 10, size=40).reshape(8, 5))[-1]
    assert np.all((out > 0.0) & (out < 1.0))


# ---------------------------------------------------------------- bce


def test_bce_midpoint():
    loss = bce_loss(np.array([[0.5]]), np.array([1.0]))
    assert loss == pytest.approx(math.log(2), rel=1e-12)


def test_bce_clamped_perfect():
    loss = bce_loss(np.array([[1.0]]), np.array([1.0]))
    assert 0.0 <= loss < 1e-11  # bounded by the 1e-12 clamp


def test_bce_hand_pair():
    loss = bce_loss(np.array([[0.8], [0.3]]), np.array([1.0, 0.0]))
    assert loss == pytest.approx((-math.log(0.8) - math.log(0.7)) / 2, rel=1e-12)


def test_bce_length_mismatch():
    with pytest.raises(ValueError):
        bce_loss(np.array([[0.5], [0.5]]), np.array([1.0]))


def test_bce_gradient_matches_finite_difference():
    p = np.array([0.3, 0.6, 0.9])
    y = np.array([0.0, 1.0, 1.0])
    grad = bce_gradient(p, y)
    h = 1e-7
    for i in range(3):
        up, down = p.copy(), p.copy()
        up[i] += h
        down[i] -= h
        fd = (bce_loss(up, y) - bce_loss(down, y)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-5)


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1 - 1e-6), min_size=1, max_size=20),
    st.data(),
)
def test_bce_nonnegative(ps, data):
    ys = data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=len(ps), max_size=len(ps)))
    loss = bce_loss(np.array(ps), np.array(ys))
    grad = bce_gradient(np.array(ps), np.array(ys))
    assert loss >= 0.0
    assert np.isfinite(grad).all()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 20000),
    seed=st.integers(0, 2**32 - 1),
    column=st.booleans(),
    edges=st.lists(
        st.tuples(st.floats(0, 1, exclude_max=True), st.sampled_from([0.0, 1.0])),
        min_size=1, max_size=8,
    ),
)
def test_bce_gradient_equals_bce_loss_gradient(n, seed, column, edges):
    rng = RngStream(seed)
    p = rng.uniform(size=n)
    for where, value in edges:  # exact 0s and 1s exercise the clamp
        p[int(where * n)] = value
    y = (rng.uniform(size=n) < 0.5).astype(np.float64)
    if column:
        p = p.reshape(n, 1)
    grad = bce_gradient(p, y)
    # the gradient and the loss as bce_loss computed them when it returned both
    pc = np.clip(p.reshape(-1), 1e-12, 1.0 - 1e-12)
    reference = ((-(y / pc) + (1.0 - y) / (1.0 - pc)) / n).reshape(p.shape)
    assert grad.shape == p.shape
    assert grad.tobytes() == reference.tobytes()
    loss = bce_loss(p, y)
    assert type(loss) is float
    assert loss == float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log1p(-pc)))


def test_bce_gradient_rejects_what_bce_loss_rejects():
    for fn in (bce_gradient, bce_loss):
        with pytest.raises(ValueError, match="length mismatch"):
            fn(np.array([[0.5], [0.5]]), np.array([1.0]))
        with pytest.raises(ValueError, match="at least one prediction"):
            fn(np.zeros((0, 1)), np.zeros(0))


# ---------------------------------------------------------------- backward


def test_backward_zero_loss_gradient():
    net = init_network([4, 2, 1], 3, rng=RngStream(2))
    acts = forward(net, np.ones((5, 3)))
    grads = backward(net, acts, np.zeros((5, 1)))
    assert all(np.all(g == 0.0) for g in grads)


def test_backward_identity_layer_hand_case():
    # single identity layer, one sample: dL/dW = g^T x
    w = np.array([[0.7, -0.2]])
    net = DenseNetwork([DenseLayer(w, np.zeros(1), IDENTITY)], 2)
    x = np.array([[3.0, -1.0]])
    g = np.array([[2.0]])
    grads = backward(net, forward(net, x), g)
    assert np.array_equal(grads[0], np.array([[6.0, -2.0]]))
    assert np.array_equal(grads[1], np.array([2.0]))


def _finite_difference_check(net, x, y, h=1e-5, rel_tol=1e-4, abs_floor=1e-8):
    """Central-difference oracle over every parameter component."""
    acts = forward(net, x)
    g = bce_gradient(acts[-1], y)
    analytic = backward(net, acts, g)
    worst = 0.0
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
            if abs(flat_g[i]) < abs_floor:
                err = abs(flat_g[i] - fd)
            else:
                err = abs(flat_g[i] - fd) / max(abs(fd), abs_floor)
            worst = max(worst, err)
    return worst


def test_backward_matches_finite_differences():
    rng = RngStream(31)
    net = init_network([6, 4, 1], 5, [RELU, SIGMOID, SIGMOID], rng)
    x = rng.uniform(-1, 1, size=40).reshape(8, 5)
    y = (rng.uniform(size=8) < 0.5).astype(float)
    assert _finite_difference_check(net, x, y) < 1e-4


def test_backward_matches_backward_with_input_bitwise():
    rng = RngStream(41)
    net = init_network([9, 6, 4, 1], 7, [RELU, SIGMOID, RELU, SIGMOID], rng)
    x = rng.uniform(-2, 2, size=35 * 7).reshape(35, 7)
    y = (rng.uniform(size=35) < 0.5).astype(float)
    acts = forward(net, x)
    g = bce_gradient(acts[-1], y)
    out = np.full_like(net.flat, np.nan)
    grads = backward(net, acts, g, out)
    reference, _ = backward_with_input(net, acts, g)
    assert all(a.base is out for a in grads)
    assert np.concatenate([r.ravel() for r in reference]).tobytes() == out.tobytes()
    # the chain-free forward gives the same output bits
    lean = forward(net, x, chain=False)
    assert len(lean) == 2 and lean[0] is acts[0]
    assert lean[-1].tobytes() == acts[-1].tobytes()


def test_backward_from_logits_matches_the_sigmoid_chain_bitwise():
    rng = RngStream(43)
    net = init_network([9, 6, 5], 7, [RELU, RELU, SIGMOID], rng)
    x = rng.uniform(-2, 2, size=30 * 7).reshape(30, 7)
    g = rng.uniform(-1, 1, size=30 * 5).reshape(30, 5)
    acts = forward(net, x)
    expected, expected_input = backward_with_input(net, acts, g)
    logits = np.full((30, 5), np.nan)
    chain = forward(net, x, logits=logits)
    assert chain[-1] is logits and all(a.tobytes() == b.tobytes()
                                       for a, b in zip(chain[:-1], acts[:-1]))
    a = np.empty_like(logits)
    np.subtract(1.0, sigmoid(logits.copy(), a), out=logits)
    logits *= a
    logits *= g
    grads, input_grad = backward_with_input(net, chain, logits, from_logits=True)
    assert all(r.tobytes() == e.tobytes() for r, e in zip(grads, expected))
    assert input_grad.tobytes() == expected_input.tobytes()


def test_backward_leaves_the_callers_loss_gradient():
    # hidden ReLU gradients are written over the pass's own arrays, never
    # over the caller's
    rng = RngStream(44)
    net = init_network([6, 4], 3, [RELU, RELU], rng)
    acts = forward(net, rng.uniform(-2, 2, size=8 * 3).reshape(8, 3))
    g = rng.uniform(-1, 1, size=8 * 4).reshape(8, 4)
    kept = g.copy()
    backward_with_input(net, acts, g)
    assert g.tobytes() == kept.tobytes()


def test_backward_stale_activations_rejected():
    net = init_network([4, 1], 3, rng=RngStream(0))
    acts = forward(net, np.ones((2, 3)))
    with pytest.raises(ValueError):
        backward(net, acts[:-1], np.zeros((2, 1)))
    with pytest.raises(ValueError):
        backward(net, acts, np.zeros((3, 1)))


# ---------------------------------------------------------------- adam


def test_adam_zero_gradient_keeps_params():
    p = np.array([1.5, -2.0, 0.5])
    st_ = AdamState.create(3, 0.001)
    adam_step(st_, p, np.zeros(3))
    assert np.array_equal(p, np.array([1.5, -2.0, 0.5]))


def test_adam_first_step_hand_value():
    # t=1, g=0.1: m_hat=0.1, v_hat=0.01, delta = -lr * 0.1 / (0.1 + 1e-8),
    # i.e. -1e-3 shrunk by the relative eps correction 1e-7
    p = np.array([0.0])
    st_ = AdamState.create(1, 0.001)
    adam_step(st_, p, np.array([0.1]))
    expected = -0.001 * 0.1 / (0.1 + 1e-8)
    assert p[0] == pytest.approx(expected, abs=1e-15)
    assert p[0] == pytest.approx(-9.999999000e-4, abs=1e-12)
    assert st_.t == 1


def _scalar_adam(grads, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """Independent scalar recurrence, plain Python floats."""
    theta, m, v = 0.0, 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta -= lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(theta)
    return out


def test_adam_two_steps_match_scalar_oracle():
    p = np.array([0.0])
    st_ = AdamState.create(1, 0.001)
    trace = []
    for _ in range(2):
        adam_step(st_, p, np.array([0.25]))
        trace.append(p[0])
    expected = _scalar_adam([0.25, 0.25])
    assert trace[0] == pytest.approx(expected[0], abs=1e-12)
    assert trace[1] == pytest.approx(expected[1], abs=1e-12)


def test_adam_step_magnitude_scale_invariant_at_t1000():
    # constant gradient: |delta| -> lr regardless of gradient scale
    for g in (0.1, 10.0):
        p = np.array([0.0])
        st_ = AdamState.create(1, 0.001)
        prev = 0.0
        for _ in range(1000):
            prev = p[0]
            adam_step(st_, p, np.array([g]))
        delta = abs(p[0] - prev)
        assert abs(delta - 0.001) / 0.001 < 0.01


def test_adam_shape_mismatch():
    st_ = AdamState.create(3, 0.001)
    with pytest.raises(ValueError):
        adam_step(st_, np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        adam_step(st_, np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        adam_step(AdamState(0, np.zeros((3, 1)), np.zeros((3, 1)), 0.001),
                  np.zeros((3, 1)), np.zeros((3, 1)))
    assert st_.t == 0


def _expression_adam(state, p, g):
    """The whole-vector Adam update the chunked one replaced, as it was written."""
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    m, v = state.m, state.v
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    p -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPSILON)


@settings(max_examples=40, deadline=None)
@given(
    size=st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]),
    steps=st.integers(1, 4),
    lr=st.sampled_from([1e-4, 1e-3, 0.1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunked_adam_matches_the_expression_bitwise(size, steps, lr, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(-1, 1, size)
    expected, state, reference = p.copy(), AdamState.create(size, lr), AdamState.create(size, lr)
    for _ in range(steps):
        # magnitudes from 1e-8 to 1e2, either sign
        g = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8, 2, size)
        adam_step(state, p, g)
        _expression_adam(reference, expected, g)
        assert state.t == reference.t
        for got, want in ((p, expected), (state.m, reference.m), (state.v, reference.v)):
            assert got.tobytes() == want.tobytes()


def test_adam_step_allocates_less_than_a_vector():
    n = 1 << 20
    p, g, state = np.zeros(n), np.full(n, 0.5), AdamState.create(n, 0.001)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        adam_step(state, p, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < p.nbytes


# ---------------------------------------------------------------- accuracy


def test_accuracy_perfect():
    assert accuracy(np.array([0.9, 0.1, 0.8]), np.array([1.0, 0.0, 1.0])) == 100.0


def test_accuracy_tie_rule_positive():
    preds = np.full(10, 0.5)
    labels = np.array([1.0] * 5 + [0.0] * 5)
    assert accuracy(preds, labels) == 50.0


def test_accuracy_empty_rejected():
    with pytest.raises(ValueError):
        accuracy(np.array([]), np.array([]))


# ---------------------------------------------------------------- global invariants


def test_training_steps_keep_everything_finite():
    rng = RngStream(12)
    net = init_network([8, 4, 1], 6, rng=rng)
    st_ = AdamState.create(net.flat.size, 0.01)
    grad = np.empty_like(net.flat)
    x = rng.uniform(-3, 3, size=120).reshape(20, 6)
    y = (rng.uniform(size=20) < 0.5).astype(float)
    for _ in range(50):
        acts = forward(net, x)
        g = bce_gradient(acts[-1], y)
        backward(net, acts, g, grad)
        adam_step(st_, net.flat, grad)
    assert np.isfinite(net.flat).all()
