"""Deterministic seeded randomness built on splitmix64.

Every stochastic choice in the project (parameter init, shuffling,
augmentation draws, evaluation sampling) flows through a SplitMix64
stream derived from a 64-bit seed plus a tag path, so results are
reproducible bit-for-bit and independent of execution order.
"""
from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix(z: int) -> int:
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


@functools.lru_cache(maxsize=256)
def _fnv1a(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def derive(seed: int, *parts: int | str) -> int:
    """Fold tags into a seed to produce an independent sub-seed.

    Strings are hashed with FNV-1a (stable across processes, unlike
    Python's salted ``hash``); ints enter directly.
    """
    state = _mix(seed & _MASK64)
    for part in parts:
        value = _fnv1a(part) if isinstance(part, str) else part & _MASK64
        state = _mix((state ^ value) + _GOLDEN)
    return state


def _mix_array(z: np.ndarray) -> np.ndarray:
    """``_mix`` of a uint64 array in place, which never warns on wrapping
    (a numpy scalar would, even from a 0-d array); returns ``z``."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _u64(part) -> np.ndarray:
    """A seed or tag as a new uint64 array, folded as ``derive`` folds it."""
    if isinstance(part, str):
        part = _fnv1a(part)
    return np.array(part & _MASK64 if isinstance(part, int) else part).astype(np.uint64)


def derive_many(seed, *parts) -> np.ndarray:
    """``derive`` of each element of the broadcast int-array parts (the seed
    may be one too), with str and int parts folded as ``derive`` folds them."""
    state = _mix_array(_u64(seed))
    for part in parts:
        state = np.array(state ^ _u64(part))
        state += np.uint64(_GOLDEN)
        _mix_array(state)
    return state


def stream_floats(seeds: np.ndarray, k: int) -> np.ndarray:
    """(..., k): the first ``k`` ``next_float`` draws of ``SplitMix64(seed)``
    for each of the uint64 ``seeds``."""
    counters = seeds[..., None] + np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    return (_mix_array(counters) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def box_muller(uniforms: np.ndarray, n: int) -> np.ndarray:
    """(..., n) standard normals from (..., 2 * ceil(n / 2)) uniforms: the
    first half of each row pairs with the second, and the cosine normals
    come before the sine ones."""
    u1, u2 = np.split(uniforms, 2, axis=-1)
    u1 = np.maximum(u1, 2.0 ** -53)
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)], axis=-1)
    return out[..., :n]


def uniform_index(u: float, n: int) -> int:
    """The integer in [0, n) that a uniform [0, 1) draw ``u`` selects,
    for n >= 1."""
    return min(int(u * n), n - 1)


class SplitMix64:
    """Counter-based splitmix64 stream: cheap to fork, trivially vectorized."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def next_index(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError(f"next_index needs n >= 1, got {n}")
        return uniform_index(self.next_float(), n)

    def floats(self, n: int) -> np.ndarray:
        """Vectorized batch of ``n`` uniform [0, 1) draws.

        Emits the same sequence as repeated ``next_float`` calls.
        """
        draws = stream_floats(np.array(self._state, dtype=np.uint64), n)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return draws

    def normals(self, n: int) -> np.ndarray:
        """Standard normals via Box-Muller on paired uniform draws."""
        return box_muller(self.floats(2 * ((n + 1) // 2)), n)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n): for i from n - 1 down to
        1, swap i with ``next_index(i + 1)``. The n - 1 draws come from
        one ``floats`` call, in the same order and with the same
        ``min(int(u * (i + 1)), i)``, so the permutation and the stream's
        next draw are those of the scalar loop; only the swaps run in
        Python."""
        perm = np.arange(n)
        sizes = np.arange(n, 1, -1)
        picks = np.minimum((self.floats(len(sizes)) * sizes).astype(np.intp), sizes - 1)
        items = perm.tolist()
        for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
            items[i], items[j] = items[j], items[i]
        perm[:] = items
        return perm
