"""Independent reference values for the benchmark's output checks.

Nothing here imports ``gpbo``.  The four test functions are written from
their published definitions (Surjanovic & Bingham's Virtual Library of
Simulation Experiments), each on its usual box, then mapped onto
[-1, 1]^d and negated so that larger is better, which is the convention the
package's objectives follow.  The GP posterior is the textbook dense form:
a linear solve against K + noise*I, no Cholesky factor reused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize


def drop_wave(x: np.ndarray) -> float:
    """Drop-Wave on [-5.12, 5.12]^2; global minimum -1 at the origin."""
    r2 = float(x[0] ** 2 + x[1] ** 2)
    return -(1.0 + math.cos(12.0 * math.sqrt(r2))) / (0.5 * r2 + 2.0)


def griewank(x: np.ndarray) -> float:
    """Griewank on [-600, 600]^d; global minimum 0 at the origin."""
    total = sum(xi * xi for xi in x) / 4000.0
    product = 1.0
    for i, xi in enumerate(x, start=1):
        product *= math.cos(xi / math.sqrt(i))
    return total - product + 1.0


def rastrigin(x: np.ndarray) -> float:
    """Rastrigin on [-5.12, 5.12]^d; global minimum 0 at the origin."""
    return 10.0 * len(x) + sum(xi * xi - 10.0 * math.cos(2.0 * math.pi * xi) for xi in x)


# Hartmann-6 constants as published: alpha, A, and P = 1e-4 * (integer table).
_H6_ALPHA = (1.0, 1.2, 3.0, 3.2)
_H6_A = (
    (10, 3, 17, 3.5, 1.7, 8),
    (0.05, 10, 17, 0.1, 8, 14),
    (3, 3.5, 1.7, 10, 17, 8),
    (17, 8, 0.05, 10, 0.1, 14),
)
_H6_P = (
    (1312, 1696, 5569, 124, 8283, 5886),
    (2329, 4135, 8307, 3736, 1004, 9991),
    (2348, 1451, 3522, 2883, 3047, 6650),
    (4047, 8828, 8732, 5743, 1091, 381),
)
# Published minimizer, f(x*) = -3.32237.
_H6_XSTAR = (0.20169, 0.150011, 0.476874, 0.275332, 0.311652, 0.6573)


def hartmann6(x: np.ndarray) -> float:
    """Hartmann-6 on [0, 1]^6; global minimum about -3.32237."""
    outer = 0.0
    for alpha, a_row, p_row in zip(_H6_ALPHA, _H6_A, _H6_P):
        inner = sum(a * (xj - p * 1e-4) ** 2 for a, xj, p in zip(a_row, x, p_row))
        outer += alpha * math.exp(-inner)
    return -outer


@dataclass(frozen=True)
class Oracle:
    """A published test function seen on [-1, 1]^d as a maximization problem."""

    name: str
    dimension: int
    lower: float
    upper: float
    minimize_fn: Callable[[np.ndarray], float]
    optimum: float

    def to_canonical(self, z: np.ndarray) -> np.ndarray:
        return self.lower + (np.asarray(z, dtype=float) + 1.0) * 0.5 * (self.upper - self.lower)

    def value(self, z: np.ndarray) -> float:
        """The maximized objective at a point of [-1, 1]^d."""
        return -self.minimize_fn(self.to_canonical(z))


def _hartmann6_optimum() -> float:
    """Polish the published minimizer (given to 6 digits) to full precision."""
    res = minimize(hartmann6, np.array(_H6_XSTAR), method="L-BFGS-B",
                   bounds=[(0.0, 1.0)] * 6, options={"ftol": 1e-15, "gtol": 1e-12})
    if abs(res.fun + 3.32237) > 1e-5:
        raise RuntimeError(f"Hartmann-6 minimum {res.fun} disagrees with the published -3.32237")
    return -float(res.fun)


def make_oracle(name: str) -> Oracle:
    if name == "dropwave":
        return Oracle(name, 2, -5.12, 5.12, drop_wave, 1.0)
    if name == "griewank":
        return Oracle(name, 2, -600.0, 600.0, griewank, 0.0)
    if name == "rastrigin":
        return Oracle(name, 2, -5.12, 5.12, rastrigin, 0.0)
    if name == "hart6":
        return Oracle(name, 6, 0.0, 1.0, hartmann6, _hartmann6_optimum())
    raise ValueError(f"no oracle for {name!r}")


def _se_ard(a: np.ndarray, b: np.ndarray, lengthscales: np.ndarray, amplitude: float) -> np.ndarray:
    out = np.empty((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            z = (a[i] - b[j]) / lengthscales
            out[i, j] = amplitude * math.exp(-0.5 * float(np.dot(z, z)))
    return out


def posterior_variance(train: np.ndarray, queries: np.ndarray, lengthscales: np.ndarray,
                       amplitude: float, diagonal: float) -> np.ndarray:
    """k(x, x) - k_x^T (K + diagonal*I)^-1 k_x at each query row."""
    gram = _se_ard(train, train, lengthscales, amplitude) + diagonal * np.eye(train.shape[0])
    cross = _se_ard(train, queries, lengthscales, amplitude)
    return amplitude - np.sum(cross * np.linalg.solve(gram, cross), axis=0)


def variance_drop(base: np.ndarray, extra: np.ndarray, queries: np.ndarray,
                  lengthscales: np.ndarray, amplitude: float, diagonal: float) -> np.ndarray:
    """Posterior variance lost at each query when ``extra`` rows join ``base``."""
    before = posterior_variance(base, queries, lengthscales, amplitude, diagonal)
    after = posterior_variance(np.vstack([base, extra]), queries, lengthscales, amplitude, diagonal)
    return before - after
