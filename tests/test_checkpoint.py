import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tierflow import checkpoint as ckpt
from tierflow.checkpoint import (
    dumps,
    format_float,
    format_floats,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
    write_atomic,
)
from tierflow.data import save_latents
from tierflow.engine import IDENTITY, init_network
from tierflow.errors import DataError, OutputError
from tierflow.rng import RngStream
from tierflow.vae import VaeConfig, build_vae, load_vae, save_vae
from conftest import latent_store


def test_format_float_round_trips_exactly():
    for x in (1 / 3, 0.1, 2**-40, 1e300, -7.25, 0.0):
        assert float(format_float(x)) == x
        # idempotent rendering: parse then re-render gives the same string
        assert format_float(float(format_float(x))) == format_float(x)


def test_network_round_trip_exact(tmp_path):
    net = init_network([5, 3, 1], 4, rng=RngStream(17))
    path = tmp_path / "net.json"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded.input_dim == net.input_dim
    for a, b in zip(net.layers, loaded.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)
        assert a.activation == b.activation


def test_write_read_write_byte_identical(tmp_path):
    net = init_network([6, 2], 3, rng=RngStream(8))
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_network(net, first)
    save_network(load_network(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_malformed_checkpoints_rejected():
    doc = network_to_dict(init_network([2, 1], 2, rng=RngStream(0)))
    bad_act = {**doc, "layers": [{**doc["layers"][0], "activation": "tanh"}]}
    with pytest.raises(DataError):
        network_from_dict(bad_act)
    bad_count = {**doc, "layers": [{**doc["layers"][0], "weights": [1.0, 2.0, 3.0]}]}
    with pytest.raises(DataError):
        network_from_dict(bad_count)
    with pytest.raises(DataError):
        network_from_dict({"layers": []})


@pytest.mark.parametrize("change, problem", [
    # layer 1 expects 3 inputs, layer 0 gives 2
    (lambda doc: doc["layers"][1].update(
        rows=1, cols=3, weights=[0.0] * 3, biases=[0.0]), "input width 3"),
    (lambda doc: doc.update(layers=[]), "at least one layer"),
    (lambda doc: doc.update(input_dim=0), "input_dim must be >= 1"),
], ids=["widths-do-not-chain", "no-layers", "input-dim-0"])
def test_unbuildable_networks_rejected_as_data_errors(change, problem):
    doc = json.loads(dumps(network_to_dict(init_network([2, 1], 2, rng=RngStream(0)))))
    change(doc)
    with pytest.raises(DataError, match=problem):
        network_from_dict(doc)


@pytest.mark.parametrize("head_in, head_out, problem", [
    (4, 4, "share the latent width"),
    (5, 3, "read the trunk's output width"),
], ids=["latent-widths-differ", "head-input-differs"])
def test_vae_with_mismatched_heads_rejected(tmp_path, head_in, head_out, problem):
    # the trunk ends 4 wide and the mu head maps 4 -> 3
    model = build_vae(VaeConfig(12, (6, 4), 3, 1, 4, 1e-3), RngStream(5))
    model.logvar_head = init_network([head_out], head_in, [IDENTITY], RngStream(6))
    path = tmp_path / "vae.json"
    save_vae(model, path)
    with pytest.raises(DataError, match=problem):
        load_vae(path)


@pytest.mark.parametrize("load", [load_network, load_vae])
@pytest.mark.parametrize("content", [None, b'{"input_dim": \xff}'], ids=["missing", "not-utf8"])
def test_unreadable_checkpoints_rejected(tmp_path, load, content):
    path = tmp_path / "ckpt.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(DataError, match="ckpt.json"):
        load(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "borked.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError):
        load_network(path)


def test_dumps_matches_stdlib_structure():
    doc = {"a": 1, "b": [0.5, "x", None, True], "c": {"d": -2}}
    assert json.loads(dumps(doc)) == doc


def test_dumps_rejects_unsupported_type():
    with pytest.raises(TypeError, match="cannot serialize set"):
        dumps({"a": [1.0, {2.0}]})


def test_failure_while_streaming_leaves_the_old_file(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text("old\n", encoding="utf-8")

    def pieces(error):
        yield "{\"a\": "
        raise error

    with pytest.raises(TypeError, match="cannot serialize set"):
        ckpt.save_document(path, {"a": np.zeros(3), "b": {2.0}})
    with pytest.raises(OutputError, match="cannot write .*ckpt.json"):
        write_atomic(path, pieces(OSError(28, "No space left on device")))
    with pytest.raises(KeyboardInterrupt):
        write_atomic(path, pieces(KeyboardInterrupt()))
    assert path.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json"]


# ---------------------------------------------------------------- array writer

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
                  float("nan"), float("inf"), float("-inf"), 1 / 3]


@given(
    arr=arrays(np.float64, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
               elements=st.floats(allow_nan=True, allow_infinity=True)
               | st.sampled_from(SPECIAL_FLOATS)),
    sep=st.sampled_from([", ", ","]),
)
@example(arr=np.array([]), sep=", ")
@example(arr=np.array(SPECIAL_FLOATS), sep=",")
@example(arr=np.array([[1.0, 2.0], [3.0, 4.5]]), sep=", ")
def test_format_floats_equals_per_float_join(arr, sep):
    assert format_floats(arr, sep) == sep.join(map(format_float, arr.ravel()))


# the block renderer against the per-value "%.17g", under the CLI's errstate

def percent_join(values, sep) -> str:
    return sep.join("%.17g" % x for x in np.asarray(values, dtype=np.float64).ravel().tolist())


def assert_renders_like_percent(values, sep):
    with np.errstate(over="raise", invalid="raise"):
        assert format_floats(values, sep) == percent_join(values, sep)


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), max_size=40), sep=st.sampled_from([", ", ","]))
def test_format_floats_renders_any_bit_pattern(bits, sep):
    assert_renders_like_percent(np.array(bits, dtype=np.uint64).view(np.float64), sep)


def halfway_ties():
    """Doubles with 18 significant digits, the last a 5, one run per decimal
    exponent in [-6, 0]: their 17-digit rendering rounds half to even."""
    rng = np.random.default_rng(3)
    ties = []
    for exp in range(-6, 1):
        shift = 17 - exp  # the 18th significant digit is the last one of m / 2**shift
        lo, hi = int(10.0**exp * 2**shift), int(10.0**(exp + 1) * 2**shift)
        ties.append((rng.integers(lo, hi, 200) | 1) / 2.0**shift)
    return np.concatenate(ties)


EDGE_FLOATS = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
     float("inf"), float("-inf"), float("nan"), 0.99999999999999995, 9.9999999999999995e-6,
     1e-6, 10.0, 1.0, -1.0],
    *([np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
      for x in (float(f"1e{k}") for k in range(-12, 18))),
    halfway_ties(),
])


@pytest.mark.parametrize("sep", [", ", ","])
def test_format_floats_renders_edge_values(sep):
    assert_renders_like_percent(EDGE_FLOATS, sep)
    assert_renders_like_percent(-EDGE_FLOATS, sep)
    for x in EDGE_FLOATS:
        assert_renders_like_percent(np.array([x]), sep)


@pytest.mark.parametrize("sep", [", ", ","])
@pytest.mark.parametrize("length", [1, ckpt._FORMAT_CHUNK - 1, ckpt._FORMAT_CHUNK,
                                    ckpt._FORMAT_CHUNK + 1])
def test_format_floats_renders_chunk_lengths(length, sep):
    rng = np.random.default_rng(length)
    values = rng.standard_normal(length) * 10.0 ** rng.integers(-8, 3, length)
    values[::7] = rng.choice(EDGE_FLOATS, values[::7].size)
    assert_renders_like_percent(values, sep)


def test_format_floats_renders_a_million_values():
    rng = np.random.default_rng(23)
    values = np.concatenate([
        rng.integers(0, 2**64, 250_000, dtype=np.uint64).view(np.float64),
        rng.standard_normal(250_000) * 0.05,
        np.exp(rng.uniform(np.log(1e-8), np.log(1e3), 250_000)) * rng.choice([-1.0, 1.0], 250_000),
        rng.integers(1, 2**40, 250_000) / 2.0 ** rng.integers(1, 60, 250_000),
    ])
    assert_renders_like_percent(values, ", ")


@pytest.mark.parametrize("shape", [(3, 4), (1, 1), (5, 1), (2, 0), (0, 3)])
def test_format_rows_ends_each_row_with_a_newline(shape):
    values = np.random.default_rng(1).choice(EDGE_FLOATS, shape)
    with np.errstate(over="raise", invalid="raise"):
        text = ckpt.format_rows(values, ",")
    assert text == "".join(percent_join(row, ",") + "\n" for row in values)


def reference_render(obj, pieces):
    """The per-float JSON writer the array writer replaced, kept as the oracle."""
    if isinstance(obj, dict):
        pieces.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                pieces.append(", ")
            pieces.append(json.dumps(k))
            pieces.append(": ")
            reference_render(v, pieces)
        pieces.append("}")
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for i, v in enumerate(obj):
            if i:
                pieces.append(", ")
            reference_render(v, pieces)
        pieces.append("]")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(format_float(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif obj is None:
        pieces.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dumps(obj) -> str:
    pieces = []
    reference_render(obj, pieces)
    return "".join(pieces)


def reference_network_doc(net):
    return {
        "input_dim": net.input_dim,
        "layers": [
            {
                "rows": layer.weights.shape[0],
                "cols": layer.weights.shape[1],
                "activation": layer.activation,
                "weights": [float(x) for x in layer.weights.ravel()],
                "biases": [float(x) for x in layer.biases],
            }
            for layer in net.layers
        ],
    }


def test_writers_match_per_float_reference_bytes(tmp_path):
    write_reference_documents(tmp_path)


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_writers_match_reference_bytes_across_format_chunks(tmp_path, chunk):
    # pieces of 1, 2 or 5 floats split every array of the documents
    with mock.patch.object(ckpt, "_FORMAT_CHUNK", chunk):
        write_reference_documents(tmp_path)


def write_reference_documents(tmp_path):
    net = init_network([5, 3, 1], 4, rng=RngStream(17))
    finite = [x for x in SPECIAL_FLOATS if np.isfinite(x)]
    net.flat[:len(finite)] = finite
    save_network(net, tmp_path / "net.json")
    assert (tmp_path / "net.json").read_text(encoding="utf-8") == (
        reference_dumps(reference_network_doc(net)) + "\n"
    )

    model = build_vae(VaeConfig(12, (6, 4), 3, 1, 4, 1e-3), RngStream(5))
    save_vae(model, tmp_path / "vae.json")
    parts = ("encoder_trunk", "mu_head", "logvar_head", "decoder")
    doc = {"vae": {part: reference_network_doc(getattr(model, part)) for part in parts}}
    assert (tmp_path / "vae.json").read_text(encoding="utf-8") == reference_dumps(doc) + "\n"

    rows = {"a": np.array(SPECIAL_FLOATS[:5]), "b": np.array(SPECIAL_FLOATS[5:])}
    save_latents(latent_store(rows), tmp_path / "latents.tsv")
    assert (tmp_path / "latents.tsv").read_text(encoding="utf-8") == "".join(
        key + "\t" + ",".join(format_float(x) for x in vec) + "\n"
        for key, vec in rows.items()
    )
