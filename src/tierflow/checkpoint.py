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

import functools
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


# Floats are rendered a block at a time.  A value whose magnitude lies in
# (1e-6, 10) has its decimal exponent X in [-6, 0] and is scaled exactly to its
# 17-digit integer N = |x| * 10**k, k = 16 - X, rounded half to even on the
# exact remainder: 10**k is an exact double for k <= 22, and Dekker's product
# gives |x| * 10**k as a double and its exact error.  N's digits go through a
# table of 4-digit groups into a byte matrix with a row per value: sign and
# "0.000" prefix, first digit and point, 16 digits with trailing zeros as NUL,
# "e-0N", and the separator; dropping the NULs gives the text.  Every other
# value (+-0, subnormals, nan, inf and the magnitudes outside that range) puts
# "%.17g" in its row instead, filled by the % operator, so the text is the
# per-value "%.17g" join for every float64.

_SPLIT = 134217729.0  # 2**27 + 1
_ABS = np.uint64(0x7FFF_FFFF_FFFF_FFFF)
_FAST = np.array([1e-6, 10.0]).view(np.uint64)  # bits of the open range's ends


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``a = hi + lo`` exactly, each of 26 bits or fewer."""
    hi = a * _SPLIT
    hi -= hi - a
    return hi, a - hi


_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**k`` as its rounded double and that double's exact error."""
    p = a * _POW10[k]
    ah, al = _split(a)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    e = ah * bh
    e -= p
    e += ah * bl
    e += al * bh
    al *= bl
    e += al
    return p, e


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value in (1e-6, 10) as its 17 significant digits, an int64 in
    [10**16, 10**17), and its decimal exponent plus 6, in [0, 6]."""
    k = (16.0 - np.floor(np.log10(a))).astype(np.int64)
    np.minimum(k, 22, out=k)  # so 10**k stays exact; log10 keeps k from 15 on
    p, e = _times_pow10(a, k)
    # log10 can miss the exponent by one next to a power of ten, which the
    # exact product shows: below 10**16 or from 10**17 on
    if ((p <= 1e16) | (p >= 1e17)).any():
        k += (p < 1e16) | ((p == 1e16) & (e < 0))
        k -= (p > 1e17) | ((p == 1e17) & (e >= 0))
        p, e = _times_pow10(a, k)
    # p >= 10**16 > 2**53 is an even integer, so rint's ties to even are N's;
    # N stays below 10**17: the largest double below each power of ten from
    # 1e-5 to 10 rounds, at 17 digits, to below that power
    n = p.astype(np.int64)
    n += np.rint(e).astype(np.int64)
    return n, 22 - k


def _table(entries: list[bytes], width: int, dtype) -> np.ndarray:
    return np.frombuffer(b"".join(e.ljust(width, b"\0") for e in entries), dtype=dtype)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The renderer's byte tables, built at its first call, so that importing
    the module, as every command does, holds none of them."""
    # each 4-digit group without its trailing zeros (at 2g) and whole (at 2g + 1)
    g = np.arange(10000, dtype=np.int16)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8)
    kept = np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    digits += ord("0")
    groups = np.stack([digits * kept, digits], axis=1).view(np.uint32).ravel()
    # sign, "0.000" prefix, first digit and point by (sign, exponent + 6,
    # first digit, point); then "%.17g", for every other value
    heads = _table([
        sign + (b"0." + b"0" * (-x - 1) + b"%d" % d if -4 <= x < 0 else b"%d" % d + point)
        for sign in (b"", b"-") for x in range(-6, 1) for d in range(10) for point in (b"", b".")
    ] + [b"%.17g"], 8, np.uint64)
    tails = _table([b"e-06", b"e-05"] + [b""] * 5, 4, np.uint32)  # by exponent + 6
    return groups, heads, tails


def format_rows(matrix: np.ndarray, sep: str) -> str:
    """Each row of the 2-D ``matrix`` as ``sep.join`` of its floats'
    ``"%.17g"``, followed by a newline; ``sep`` is ASCII without NUL or ``%``."""
    rows, width = matrix.shape
    if not matrix.size:
        return "\n" * rows
    values = np.ascontiguousarray(matrix, dtype=np.float64).ravel()
    mag = values.view(np.uint64) & _ABS
    fast = (mag > _FAST[0]) & (mag < _FAST[1])
    n, exp = _decimal(np.where(fast, mag.view(np.float64), 2.0))
    del mag
    groups, heads, tails = _tables()
    first, n = np.divmod(n, 10**16)
    high, low = np.divmod(n, 10**8)
    del n
    words = -(-max(len(sep), 1) // 4)
    # a row per value of 4-byte words: the head (two), the digit groups
    # (four), the exponent, the separator, and zeros to a whole 8 bytes
    m64 = np.zeros((values.size, (8 + words) // 2), dtype=np.uint64)
    m = m64.view(np.uint32)
    m[:, 6] = tails[exp]
    g1, g2 = np.divmod(high, 10**4)
    g3, g4 = np.divmod(low, 10**4)
    del high, low
    # the digits after the first, right to left: a group keeps its trailing
    # zeros when a later one has a nonzero digit
    later = np.zeros(values.size, dtype=bool)
    for col, group in ((5, g4), (4, g3), (3, g2), (2, g1)):
        m[:, col] = groups[2 * group + later]
        later |= group != 0
    del g1, g2, g3, g4
    index = 20 * exp + 2 * first
    index += later  # the point after the first digit
    index += 140 * np.signbit(values)  # 140 heads of each sign
    index[~fast] = len(heads) - 1
    m64[:, 0] = heads[index]
    del exp, first, later, index
    m[:, 7:7 + words] = np.frombuffer(sep.encode().ljust(4 * words, b"\0"), np.uint32)
    m[width - 1::width, 7:7 + words] = np.frombuffer(b"\n".ljust(4 * words, b"\0"), np.uint32)
    text = m.tobytes().translate(None, b"\0").decode("ascii")
    del m64, m
    if not fast.all():
        text = text % tuple(values[~fast].tolist())
    return text


def format_floats(arr: np.ndarray, sep: str) -> str:
    """``sep.join(map(format_float, arr.ravel()))``, rendered as a block."""
    return format_rows(np.asarray(arr, dtype=np.float64).reshape(1, -1), sep)[:-1]


# floats per piece of a rendered array: about 180 KB of text and under a
# megabyte of the renderer's scratch, so writing a checkpoint never holds more
_FORMAT_CHUNK = 8192


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
