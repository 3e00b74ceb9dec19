"""Machine-speed reference for the end-to-end times.

The benchmark's host is shared, and its speed drifts by 10-40 % within
seconds; CPU time drifts with wall time, so the drift is slower
instructions, not waiting.  A fixed kernel that does not touch ``gpbo``
(small dense linear algebra through numpy, then a pure-Python loop, the
same mix as gpbo's hot paths) is sampled between the units of work the
benchmark times, and every span of ``gpbo`` time is divided by the slowdown
the samples around it show.  The result is the time the span would have
taken on a host where the kernel takes NOMINAL_S.

gpbo's code is more sensitive to the host's load than the kernel: between
a busy and a quiet hour of the reference machine the kernel's time changed
2.0- to 2.2-fold and gpbo's latencies 2.2- to 2.6-fold.  The slowdown is
therefore the kernel's, raised to EXPONENT (see README.md).
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

# Median time of one sample on the reference machine (see README.md).
NOMINAL_S = 0.024
# gpbo's slowdown as a power of the kernel's, fitted across two host states.
EXPONENT = 1.2
# Samples taken before and after a span that, with those taken during it,
# give the span's slowdown.
SIDE = 2

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((60, 60))
_MATRIX = _MATRIX @ _MATRIX.T + 60.0 * np.eye(60)
_RHS = np.ones(60)


def sample() -> float:
    """Seconds one run of the reference kernel takes now."""
    start = perf_counter()
    for _ in range(150):
        np.linalg.solve(_MATRIX, _RHS)
        np.linalg.cholesky(_MATRIX)
    total = 0
    for i in range(180_000):
        total += (i * i) % 7
    return perf_counter() - start


class Speedometer:
    """Kernel samples on a timeline, and spans of work scaled by them."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.samples: list[float] = []

    def tick(self) -> None:
        """Take one sample now."""
        start = perf_counter()
        sample()
        self.starts.append(start)
        self.ends.append(perf_counter())
        self.samples.append(self.ends[-1] - start)

    def close(self) -> None:
        """SIDE samples in a row: before the first span, after the last one,
        and between set-up probes, so that each span has SIDE on either side."""
        for _ in range(SIDE):
            self.tick()

    def _inside(self, start: float, end: float) -> tuple[int, int]:
        """Indices ``lo, hi`` such that samples[lo:hi] were taken within [start, end]."""
        return bisect.bisect_left(self.starts, start), bisect.bisect_right(self.ends, end)

    def slowdown(self, start: float, end: float) -> float:
        """Median sample over [start, end] and SIDE samples each side, over
        NOMINAL_S, to the power EXPONENT."""
        lo, hi = self._inside(start, end)
        window = self.samples[max(0, lo - SIDE) : hi + SIDE]
        return (statistics.median(window) / NOMINAL_S) ** EXPONENT

    def raw(self, start: float, end: float) -> float:
        """Seconds of [start, end] not spent in samples."""
        lo, hi = self._inside(start, end)
        return end - start - sum(self.samples[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """Seconds of [start, end] outside the samples, each stretch between
        samples divided by its own slowdown."""
        lo, hi = self._inside(start, end)
        edges = [start, *[t for k in range(lo, hi) for t in (self.starts[k], self.ends[k])], end]
        return sum((b - a) / self.slowdown(a, b) for a, b in zip(edges[::2], edges[1::2]))


class WallClock:
    """For the traced run: no samples, spans at their raw wall time."""

    def tick(self) -> None:
        pass

    def raw(self, start: float, end: float) -> float:
        return end - start
