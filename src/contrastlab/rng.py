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


def first_floats(seed: int, k: int) -> list[float]:
    """The first ``k`` ``next_float`` draws of ``SplitMix64(seed)``, as
    plain floats with no stream object."""
    floats = []
    for _ in range(k):
        seed += _GOLDEN
        floats.append((_mix(seed) >> 11) * 2.0 ** -53)
    return floats


def derived_floats(seed: int, plan) -> list[list[float]]:
    """``[first_floats(derive(seed, i), k) for i, k in plan]``, with
    ``seed`` mixed once."""
    root = _mix(seed)
    return [first_floats(_mix((root ^ i) + _GOLDEN), k) for i, k in plan]


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
        if n == 0:
            return np.zeros(0)
        base = np.uint64(self._state)
        steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        counters = base + steps
        self._state = int(counters[-1])
        z = counters
        z = z ^ (z >> np.uint64(30))
        z = z * np.uint64(0xBF58476D1CE4E5B9)
        z = z ^ (z >> np.uint64(27))
        z = z * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def normals(self, n: int) -> np.ndarray:
        """Standard normals via Box-Muller on paired uniform draws."""
        m = (n + 1) // 2
        u1 = self.floats(m)
        u2 = self.floats(m)
        u1 = np.maximum(u1, 2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])
        return out[:n]

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
