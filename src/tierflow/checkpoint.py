"""Lossless JSON checkpoints for dense networks and VAE models.

Floats are rendered with 17 significant digits, which round-trips float64
exactly: write -> read -> write reproduces the file byte for byte.  Schema::

    {"input_dim": int,
     "layers": [{"rows": int, "cols": int, "activation": str,
                 "weights": [row-major floats], "biases": [floats]}]}

VAE checkpoints wrap four such documents in a ``{"vae": {...}}`` envelope
with keys ``encoder_trunk``, ``mu_head``, ``logvar_head``, ``decoder``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .engine import ACTIVATIONS, DenseLayer, DenseNetwork
from .errors import DataError, OutputError


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` through a temporary file and ``os.replace``.

    A crash or a failed write never leaves a partial file under ``path``; a
    failure removes the temporary file, and an ``OSError`` comes out as an
    :class:`OutputError` naming ``path``.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def format_floats(arr: np.ndarray, sep: str) -> str:
    """``sep.join(map(format_float, arr.ravel()))`` in one formatting call."""
    values = arr.ravel().tolist()
    return sep.join(["%.17g"] * len(values)) % tuple(values)


def _render(obj, pieces: list[str]) -> None:
    # Minimal JSON writer so float rendering stays under our control.
    if isinstance(obj, np.ndarray):
        pieces.append("[" + format_floats(obj, ", ") + "]")
    elif isinstance(obj, dict):
        pieces.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                pieces.append(", ")
            pieces.append(json.dumps(k))
            pieces.append(": ")
            _render(v, pieces)
        pieces.append("}")
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for i, v in enumerate(obj):
            if i:
                pieces.append(", ")
            _render(v, pieces)
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


def dumps(obj) -> str:
    pieces: list[str] = []
    _render(obj, pieces)
    return "".join(pieces)


def network_to_dict(net: DenseNetwork) -> dict:
    """The checkpoint document of ``net``, for immediate rendering only.

    Its ``weights`` and ``biases`` are views of the live parameters, not
    copies: a later training step changes them.
    """
    return {
        "input_dim": net.input_dim,
        "layers": [
            {
                "rows": layer.weights.shape[0],
                "cols": layer.weights.shape[1],
                "activation": layer.activation,
                "weights": layer.weights,
                "biases": layer.biases,
            }
            for layer in net.layers
        ],
    }


def network_from_dict(doc: dict) -> DenseNetwork:
    try:
        input_dim = int(doc["input_dim"])
        layers = []
        for entry in doc["layers"]:
            rows, cols = int(entry["rows"]), int(entry["cols"])
            act = entry["activation"]
            if act not in ACTIVATIONS:
                raise DataError(f"unknown activation {act!r} in checkpoint")
            w = np.asarray(entry["weights"], dtype=np.float64)
            if w.size != rows * cols:
                raise DataError(
                    f"layer declares {rows}x{cols} but carries {w.size} weights"
                )
            b = np.asarray(entry["biases"], dtype=np.float64)
            layers.append(DenseLayer(w.reshape(rows, cols), b, act))
        return DenseNetwork(layers, input_dim)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint: {exc}") from exc


def save_network(net: DenseNetwork, path: str | Path) -> None:
    write_atomic(path, dumps(network_to_dict(net)) + "\n")


def read_json(path: str | Path):
    """The JSON document in ``path``; a DataError names the file if it cannot
    be read or decoded."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def load_network(path: str | Path) -> DenseNetwork:
    return network_from_dict(read_json(path))
