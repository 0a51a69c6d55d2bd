"""Deterministic counter-based random number generation.

Every stochastic choice in tierflow (weight init, noise draws, shuffles,
negative sampling) goes through :class:`RngStream`, a counter-mode splitmix64
generator.  The full algorithm is written out in README.md so runs are
reproducible bit-for-bit from a seed alone, independent of library RNG
internals.

Draw ``i`` (1-based) of a stream with seed ``s`` is::

    raw_i = mix64((s + i * 0x9E3779B97F4A7C15) mod 2**64)

where ``mix64`` is the splitmix64 finalizer.  Uniform doubles take the top
53 bits, normals come from Box-Muller on two consecutive uniforms, integers
reduce the raw draw modulo the bound, and permutations argsort a block of
raw draws.
"""

from __future__ import annotations

import numpy as np

try:
    # CPython's own blake2 module, the object ``hashlib.blake2b`` already is;
    # hashlib is pretty heavy to load: it always loads OpenSSL's libcrypto
    from _blake2 import blake2b
except ImportError:  # a Python built without _blake2
    from hashlib import blake2b

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = float(2.0**-53)
# elements per block of the chunked elementwise passes (raw draws, Adam's
# update, weight draws, the VAE's output layer): a block's scratch stays in cache
CHUNK = 65536


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place over a uint64 array (wraps mod 2**64);
    returns ``z``."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def derive_seed(seed: int, label: str, *indices: int) -> int:
    """Derive a child seed from (seed, label, indices), stable across platforms.

    Used to give independent streams to the different stochastic roles of a
    run (init, per-step negative sampling, per-epoch shuffles, ...) so that
    adding epochs to one role never perturbs another.
    """
    h = blake2b(digest_size=8)
    h.update((seed & _MASK).to_bytes(8, "little"))
    h.update(label.encode("utf-8"))
    for i in indices:
        h.update(int(i).to_bytes(8, "little", signed=True))
    return int.from_bytes(h.digest(), "little")


class RngStream:
    """Counter-mode splitmix64 stream: same seed, same draw sequence, always."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        self._counter = 0

    def spawn(self, label: str, *indices: int) -> "RngStream":
        """Independent child stream keyed by label and optional indices."""
        return RngStream(derive_seed(self.seed, label, *indices))

    @property
    def counter(self) -> int:
        """Number of raw 64-bit draws consumed so far."""
        return self._counter

    def _raw(self, n: int) -> np.ndarray:
        """The next ``n`` raw draws, mixed in place ``CHUNK`` at a time, so the
        only scratch beside the output is one chunk's shifted copy."""
        if n < 0:
            raise ValueError(f"draw count must be >= 0, got {n}")
        out = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        for at in range(0, n, CHUNK):
            z = out[at:at + CHUNK]
            z *= _GAMMA
            z += np.uint64(self.seed)
            _mix64(z)
        return out

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int = 1) -> np.ndarray:
        """Uniform doubles in [low, high) from the top 53 bits of each raw draw."""
        u = (self._raw(size) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        return low + (high - low) * u

    def normal(self, size: int = 1) -> np.ndarray:
        """Standard normals via Box-Muller; consumes exactly 2 raw draws each."""
        r = self._raw(2 * size)
        # u1 in (0, 1] so log never sees zero; u2 in [0, 1)
        u1 = ((r[:size] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = (r[size:] >> np.uint64(11)).astype(np.float64) * _INV_2_53
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def integers(self, bound: int, size: int = 1) -> np.ndarray:
        """Integers in [0, bound) by modulo reduction (bias < bound/2**64)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return (self._raw(size) % np.uint64(bound)).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n): argsort of n raw draws.

        No stable sort is needed: ``mix64`` is a bijection and the odd gamma
        keeps its inputs distinct, so the draws of one block are distinct.
        """
        return np.argsort(self._raw(n))
