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

import itertools
import json
import os
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .engine import ACTIVATIONS, DenseLayer, DenseNetwork
from .errors import DataError, OutputError


def write_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or an iterable of string pieces, as UTF-8 to
    ``path`` through a temporary file and ``os.replace``.

    A crash or a failed write never leaves a partial file under ``path``; a
    failure, also one raised while the pieces are produced, removes the
    temporary file, and an ``OSError`` comes out as an :class:`OutputError`
    naming ``path``.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
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


# floats per piece of a rendered array: about 1.5 MB of text, so writing a
# checkpoint never holds more than that of one array's text at once
_FORMAT_CHUNK = 65536


def _render(obj) -> Iterator[str]:
    # Minimal JSON writer so float rendering stays under our control; yields
    # the text in pieces.
    if isinstance(obj, np.ndarray):
        values = obj.ravel()
        yield "["
        for at in range(0, values.size, _FORMAT_CHUNK):
            if at:
                yield ", "
            yield format_floats(values[at:at + _FORMAT_CHUNK], ", ")
        yield "]"
    elif isinstance(obj, dict):
        yield "{"
        for i, (k, v) in enumerate(obj.items()):
            if i:
                yield ", "
            yield json.dumps(k)
            yield ": "
            yield from _render(v)
        yield "}"
    elif isinstance(obj, (list, tuple)):
        yield "["
        for i, v in enumerate(obj):
            if i:
                yield ", "
            yield from _render(v)
        yield "]"
    elif isinstance(obj, bool):
        yield "true" if obj else "false"
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        yield format_float(obj)
    elif isinstance(obj, str):
        yield json.dumps(obj)
    elif obj is None:
        yield "null"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    return "".join(_render(obj))


def save_document(path: str | Path, doc) -> None:
    """Write ``doc`` and a newline to ``path`` atomically, rendered piece by
    piece: byte-identical to ``dumps(doc) + "\n"``, without the whole text
    in memory."""
    write_atomic(path, itertools.chain(_render(doc), ["\n"]))


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
    save_document(path, network_to_dict(net))


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
