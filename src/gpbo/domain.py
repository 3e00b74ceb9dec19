"""Axis-aligned box search domains."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoxDomain:
    """Closed box ``[lower_j, upper_j]`` for each coordinate j.

    Bounds must be finite with ``lower_j < upper_j`` in every coordinate.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.ndim != 1 or hi.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lower and upper must be 1-d vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("domain bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("each lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(
            x.shape == self.lower.shape
            and np.all(x >= self.lower)
            and np.all(x <= self.upper)
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` uniform points, returned as an (n, d) array."""
        return rng.uniform(self.lower, self.upper, size=(n, self.dimension))


def unit_symmetric(dimension: int) -> BoxDomain:
    """The box [-1, 1]^d used by the scaled benchmark functions."""
    return BoxDomain(-np.ones(dimension), np.ones(dimension))
