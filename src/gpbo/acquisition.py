"""Improvement-based and confidence-bound acquisition values.

The ``*_value`` functions score a single posterior (mean, std) pair;
``AcquisitionSpec.values`` scores arrays of them with the same arithmetic,
element for element.  The run loops compose the array form with a surrogate
and hand the resulting surface to the global maximizer.
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
            raise ValueError(f"unknown acquisition kind {self.kind!r}")
        if not math.isfinite(self.beta) or self.beta < 0:
            raise ValueError("beta must be finite and non-negative")
        if self.kind in ("pi", "ei") and not math.isfinite(self.incumbent):
            raise ValueError("incumbent must be finite for pi/ei")

    def values(self, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
        """The acquisition over arrays of means and stds, bitwise equal element by
        element to ``pi_value``, ``ei_value`` or ``ucb_value``."""
        mean = np.asarray(mean, dtype=float)
        std = np.asarray(std, dtype=float)
        if self.kind == "ucb":
            return mean + math.sqrt(self.beta) * std
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise ValueError("mean and std must be finite")
        if (std < 0).any():
            raise ValueError("std must be non-negative")
        spread = std > 0.0
        gap = mean[spread] - self.incumbent
        z = gap / std[spread]
        if self.kind == "pi":
            out = np.where(mean > self.incumbent, 1.0, 0.0)
            out[spread] = _array_cdf(z)
        else:
            out = np.zeros_like(mean)
            out[spread] = gap * _array_cdf(z) + std[spread] * _array_pdf(z)
        return out


def _cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def _pdf(z: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


# The array forms apply libm's erf and exp element by element, as the scalar
# forms do, so both give bitwise equal values (and the same search).
def _array_cdf(z: np.ndarray) -> np.ndarray:
    scaled = z / _SQRT2
    return 0.5 * (1.0 + np.fromiter(map(math.erf, scaled.tolist()), float, scaled.size))


def _array_pdf(z: np.ndarray) -> np.ndarray:
    exponent = -0.5 * z * z
    return _INV_SQRT_2PI * np.fromiter(map(math.exp, exponent.tolist()), float, exponent.size)


def _check_finite(**values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def pi_value(mean: float, std: float, incumbent: float) -> float:
    """Probability that a Normal(mean, std^2) draw beats the incumbent.

    At std = 0 the distribution is a point mass, so the value degenerates to
    the indicator of mean > incumbent.
    """
    _check_finite(mean=mean, std=std, incumbent=incumbent)
    if std < 0:
        raise ValueError("std must be non-negative")
    if std == 0.0:
        return 1.0 if mean > incumbent else 0.0
    return _cdf((mean - incumbent) / std)


def ei_value(mean: float, std: float, incumbent: float) -> float:
    """Expected improvement of a Normal(mean, std^2) draw over the incumbent."""
    _check_finite(mean=mean, std=std, incumbent=incumbent)
    if std < 0:
        raise ValueError("std must be non-negative")
    if std == 0.0:
        return 0.0
    z = (mean - incumbent) / std
    return (mean - incumbent) * _cdf(z) + std * _pdf(z)


def ucb_value(mean: float, std: float, beta: float) -> float:
    """Upper confidence bound mean + sqrt(beta) * std."""
    return mean + math.sqrt(beta) * std


def beta_schedule(t: int, d: int, delta: float) -> float:
    """Confidence-width schedule for ucb at iteration ``t`` in dimension ``d``:
    2*log(t^(d/2+2) * pi^2 / (3*delta)).
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie strictly inside (0, 1)")
    return 2.0 * math.log(t ** (d / 2.0 + 2.0) * math.pi**2 / (3.0 * delta))
