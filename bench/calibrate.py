"""Machine speed, sampled while the program runs.

The benchmark shares a few cores with other tenants, whose load moves the
speed of this process by up to 2x within seconds to minutes; CPU time
moves with wall time, so neither clock is steady on its own. A
``SpeedProbe`` runs a fixed job from a timer signal every ``PERIOD_S``
while an untraced run goes on: small numpy calls on arrays of the sizes
the package uses, plus interpreter work on Python objects, as in the
package's engine and augmentation. The job does not use the package, so
a change to the package does not move it.

A time measured over an interval is then taken net of the jobs that ran
inside it, and scaled by how fast the jobs ran inside it, to the speed at
which one job takes ``REFERENCE_S``.
"""
from __future__ import annotations

import signal
import time

import numpy as np

# Seconds one job takes at the reference speed, about its time on the
# 2-vCPU Xeon VM the benchmark was written on, so that scaled times read
# close to wall times there.
REFERENCE_S = 0.0003
PERIOD_S = 0.02


class _Node:
    __slots__ = ("data", "parents")

    def __init__(self, data, parents=()):
        self.data = data
        self.parents = parents


def _job(a: np.ndarray, b: np.ndarray, img: np.ndarray) -> float:
    """A fixed piece of work; the result only keeps it from being skipped."""
    total = 0.0
    nodes = []
    for i in range(10):
        c = a @ b
        d = np.exp(-np.abs(c)).sum(axis=1)
        e = np.log1p(d)
        crop = img[i % 4:i % 4 + 12, :12, ::-1]
        total += float(crop.mean()) + float(e[0])
        nodes.append(_Node(e, tuple(nodes[-2:])))
        total += sum(j * 0.5 for j in range(20))
    return total + len({id(n) for n in nodes})


class SpeedProbe:
    """Start times and durations of the jobs run while started."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._args = (rng.standard_normal((64, 32)), rng.standard_normal((32, 16)),
                      rng.random((16, 16, 3)))
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _job(*self._args)
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sums(self, begin, end) -> tuple[np.ndarray, np.ndarray]:
        """Job count and seconds inside each [begin, end)."""
        starts = np.asarray(self.starts)
        total = np.concatenate(([0.0], np.cumsum(self.durations)))
        lo, hi = np.searchsorted(starts, begin), np.searchsorted(starts, end)
        return hi - lo, total[hi] - total[lo]

    def net(self, begin, end):
        """Length of each [begin, end) minus the jobs inside it."""
        return np.subtract(end, begin) - self._sums(begin, end)[1]

    def factor(self, begin, end):
        """Reference speed over the speed in each [begin, end): multiply a
        net time measured there by it. 1.0 where no job ran."""
        count, seconds = self._sums(begin, end)
        return np.where(count > 0, REFERENCE_S * count / np.maximum(seconds, 1e-12), 1.0)

    def scaled(self, begin, end):
        """Net time of each [begin, end) at the reference speed."""
        return self.net(begin, end) * self.factor(begin, end)
