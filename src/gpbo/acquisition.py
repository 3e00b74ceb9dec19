"""Improvement-based and confidence-bound acquisition values.

``AcquisitionSpec.values`` is the one implementation: it scores arrays of
posterior (mean, std) pairs.  The run loops compose it with a surrogate and
hand the resulting surface to the global maximizer.  The ``*_value``
functions are its views on a single pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AcquisitionSpec",
    "pi_value",
    "ei_value",
    "ucb_value",
    "beta_schedule",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class AcquisitionSpec:
    """Which acquisition to maximize and its scalar parameters.

    ``incumbent`` is the best noisy observation so far (used by pi/ei);
    ``beta`` is the confidence-width multiplier (used by ucb).
    """

    kind: str
    incumbent: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("pi", "ei", "ucb"):
            raise ValueError(f"acquisition must be pi, ei or ucb, got {self.kind!r}")
        if not math.isfinite(self.beta) or self.beta < 0:
            raise ValueError("beta must be finite and non-negative")
        if self.kind in ("pi", "ei") and not math.isfinite(self.incumbent):
            raise ValueError("incumbent must be finite for pi/ei")

    def values(self, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
        """The acquisition over arrays of means and stds.

        For pi at std = 0 the distribution is a point mass, so the value
        degenerates to the indicator of mean > incumbent; ei is 0 there.
        pi and ei take one of two paths after the same checks: when every
        std is positive, as in the acquisition search, they score the
        arrays whole; otherwise they score the positive-std entries through
        a mask and fill in the point masses.  An entry gets the same bits on
        either path.
        """
        mean = np.asarray(mean, dtype=float)
        std = np.asarray(std, dtype=float)
        if self.kind == "ucb":
            return mean + math.sqrt(self.beta) * std
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise ValueError("mean and std must be finite")
        if (std < 0).any():
            raise ValueError("std must be non-negative")
        spread = std > 0.0
        if spread.all():
            gap = mean - self.incumbent
            z = gap / std
            return _cdf(z) if self.kind == "pi" else gap * _cdf(z) + std * _pdf(z)
        gap = mean[spread] - self.incumbent
        z = gap / std[spread]
        if self.kind == "pi":
            out = np.where(mean > self.incumbent, 1.0, 0.0)
            out[spread] = _cdf(z)
        else:
            out = np.zeros_like(mean)
            out[spread] = gap * _cdf(z) + std[spread] * _pdf(z)
        return out


# libm's erf and exp, element by element.  numpy's exp and scipy's erf round
# differently from libm on about 5 % and over 30 % of standard normal inputs
# (numpy 2.4, scipy 1.17), which would move the pi and ei search trajectories.
def _cdf(z: np.ndarray) -> np.ndarray:
    scaled = z / _SQRT2
    return 0.5 * (1.0 + _libm(math.erf, scaled))


def _pdf(z: np.ndarray) -> np.ndarray:
    return _INV_SQRT_2PI * _libm(math.exp, -0.5 * z * z)


def _libm(func, x: np.ndarray) -> np.ndarray:
    """``func`` of every entry of ``x``, in ``x``'s shape."""
    return np.fromiter(map(func, x.ravel().tolist()), float, x.size).reshape(x.shape)


def pi_value(mean: float, std: float, incumbent: float) -> float:
    """Probability that a Normal(mean, std^2) draw beats the incumbent."""
    return float(AcquisitionSpec("pi", incumbent=incumbent).values([mean], [std])[0])


def ei_value(mean: float, std: float, incumbent: float) -> float:
    """Expected improvement of a Normal(mean, std^2) draw over the incumbent."""
    return float(AcquisitionSpec("ei", incumbent=incumbent).values([mean], [std])[0])


def ucb_value(mean: float, std: float, beta: float) -> float:
    """Upper confidence bound mean + sqrt(beta) * std."""
    return float(AcquisitionSpec("ucb", beta=beta).values([mean], [std])[0])


def beta_schedule(t: int, d: int, delta: float) -> float:
    """Confidence-width schedule for ucb at iteration ``t`` in dimension ``d``:
    2*log(t^(d/2+2) * pi^2 / (3*delta)).
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie strictly inside (0, 1)")
    return 2.0 * math.log(t ** (d / 2.0 + 2.0) * math.pi**2 / (3.0 * delta))
