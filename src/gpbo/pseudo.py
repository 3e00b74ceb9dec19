"""Pseudo-point generation and the closed-form posterior corrections.

A pseudo-point sits at coordinate-wise distance tau from an observed point
and borrows that point's objective value.  Adding such rows to a GP cannot
increase the posterior variance anywhere; the exact reduction, and the mean
error introduced by the borrowed values, both have closed forms in terms of
the cross-covariance vector p(x) and the capacitance matrix M computed
below.  Those closed forms are what the verification suite checks against
plain re-fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from . import gp
from .domain import BoxDomain
from .gp import Dataset, GpModel, kernel_matrix

__all__ = [
    "PseudoPointSet",
    "PseudoSchedule",
    "generate",
    "augmented_model",
    "variance_reduction",
    "mean_shift",
    "correction_terms",
]

# Coordinates closer than this are treated as colliding when (re)drawing signs.
_COLLISION_TOL = 1e-12
_MAX_REDRAWS = 8


@dataclass(frozen=True)
class PseudoPointSet:
    """Generated pseudo-points with their borrowed values.

    ``points`` is (l, d); ``values[i]`` equals the parent observation
    exactly.
    """

    points: np.ndarray
    values: np.ndarray
    parent_index: np.ndarray
    tau: float

    def __len__(self) -> int:
        return self.points.shape[0]


def empty_pseudo_set(dimension: int) -> PseudoPointSet:
    return PseudoPointSet(
        points=np.empty((0, dimension)),
        values=np.empty(0),
        parent_index=np.empty(0, dtype=int),
        tau=0.0,
    )


@dataclass(frozen=True)
class PseudoSchedule:
    """How many pseudo-points to generate and at what distance.

    The displacement used in a round with l pseudo-points is
    ``domain_width * tau0 / (d * l)``.  ``tau0 = 0`` disables generation.
    In ``per_observation`` mode one pseudo-point is generated per observed
    point; ``fixed`` mode generates ``count`` points with parents drawn
    uniformly.
    """

    tau0: float
    domain_width: float = 2.0
    mode: str = "per_observation"
    count: int = 0

    def __post_init__(self):
        if self.tau0 < 0 or not np.isfinite(self.tau0):
            raise ValueError("tau0 must be non-negative and finite")
        if self.domain_width <= 0:
            raise ValueError("domain_width must be positive")
        if self.mode not in ("per_observation", "fixed"):
            raise ValueError(f"unknown pseudo schedule mode {self.mode!r}")
        if self.mode == "fixed" and self.count < 0:
            raise ValueError("count must be non-negative")

    @property
    def enabled(self) -> bool:
        return self.tau0 > 0.0

    def points_for(self, n_observed: int) -> int:
        if not self.enabled:
            return 0
        return n_observed if self.mode == "per_observation" else self.count

    def tau_for(self, dimension: int, n_points: int) -> float:
        if n_points == 0:
            return 0.0
        return self.domain_width * self.tau0 / (dimension * n_points)


def disabled_schedule() -> PseudoSchedule:
    return PseudoSchedule(tau0=0.0)


def _displace(parent: np.ndarray, signs: np.ndarray, tau: float, domain: BoxDomain) -> np.ndarray:
    """The displaced point, with the boundary rule applied per coordinate."""
    point = parent + signs * tau
    for j in range(parent.shape[0]):
        if domain.lower[j] <= point[j] <= domain.upper[j]:
            continue
        flipped = parent[j] - signs[j] * tau
        if domain.lower[j] <= flipped <= domain.upper[j]:
            point[j] = flipped
        else:
            point[j] = min(max(point[j], domain.lower[j]), domain.upper[j])
    return point


def generate(
    data: Dataset,
    schedule: PseudoSchedule,
    domain: BoxDomain,
    rng: np.random.Generator,
) -> PseudoPointSet:
    """Draw one round of pseudo-points from the observed data.

    Each pseudo-point displaces its parent by +-tau independently per
    coordinate (signs equally likely).  When a displaced coordinate leaves
    the box the sign is flipped; if both signs leave, the coordinate is
    clipped to the boundary.  A point colliding with an existing point gets
    its signs redrawn a bounded number of times, then is accepted as-is (the
    model's jitter ladder absorbs the duplication).

    A disabled schedule returns an empty set without consuming any draws.
    """
    d = domain.dimension
    if not schedule.enabled:
        return empty_pseudo_set(d)
    if len(data) == 0:
        raise ValueError("cannot generate pseudo-points from an empty dataset")
    count = schedule.points_for(len(data))
    if count == 0:
        return empty_pseudo_set(d)
    tau = schedule.tau_for(d, count)
    if schedule.mode == "per_observation":
        parents = np.arange(count)
    else:
        parents = rng.integers(0, len(data), size=count)
    # Observed points, then the pseudo-points accepted so far.
    n = len(data)
    taken = np.empty((n + count, d))
    taken[:n] = data.points
    for i, parent_idx in enumerate(parents):
        parent = data.points[parent_idx]
        for _ in range(_MAX_REDRAWS + 1):
            signs = rng.integers(0, 2, size=d) * 2.0 - 1.0
            candidate = _displace(parent, signs, tau, domain)
            near = np.abs(taken[: n + i] - candidate) <= _COLLISION_TOL
            if not near.all(axis=1).any():
                break
        taken[n + i] = candidate
    return PseudoPointSet(
        points=taken[n:],
        values=data.observations[parents].copy(),
        parent_index=np.asarray(parents, dtype=int),
        tau=tau,
    )


def augmented_model(model: GpModel, pp: PseudoPointSet) -> GpModel:
    """The base model extended with the pseudo rows (hyper-parameters untouched)."""
    if len(pp) == 0:
        return model
    return gp.augment(model, Dataset(pp.points, pp.values))


def correction_terms(
    model: GpModel, pp: PseudoPointSet, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (P, M, S_factor) triple behind the closed-form corrections.

    ``P[:, q]`` is the vector p(x_q) = Ktilde^T A^-1 k_t(x_q) - k'(x_q) with
    A the base training matrix; ``M`` is the inverse of
    S = K' + noise*I - Ktilde^T A^-1 Ktilde (the augmented-block capacitance);
    ``S_factor`` is the lower Cholesky factor of S from ``gp.augment``'s own
    block update, with diagonal jitter from the ladder when S needs it.  All
    products go through triangular solves on the stored factors.

    When S needs that jitter the closed forms stop describing the augmented
    model: ``gp.augment`` then refactors the joint matrix with the jitter on
    every row, while here only S carries it.  With one observed point at 0.3,
    ``KernelParams([0.5], 1.0, 1e-17)`` and a pseudo-point on that point,
    pseudo values 0.1 and 1.1 move the augmented mean at 0.3 by 0.5, but
    ``mean_shift`` gives 0.0.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    params = model.params
    half_base, s_lower, _ = gp._schur_block(model, pp.points)
    cross_new = kernel_matrix(pp.points, queries, params)  # (l, m)
    if half_base is None:
        p_mat = -cross_new
    else:
        cross_queries = kernel_matrix(model.data.points, queries, params)  # (t, m)
        half_queries = solve_triangular(model.factor, cross_queries, lower=True)
        p_mat = half_base.T @ half_queries - cross_new
    m_mat = cho_solve((s_lower, True), np.eye(len(pp)))
    return p_mat, m_mat, s_lower


def variance_reduction(model: GpModel, pp: PseudoPointSet, x: np.ndarray) -> float | np.ndarray:
    """Exact drop in posterior variance caused by the pseudo rows.

    ``x`` is one point (d,), giving a float, or rows (m, d), giving an (m,)
    array from one ``correction_terms`` call.  Computed as p(x)^T M p(x)
    through a triangular solve, so each result is a sum of squares and
    cannot go negative.
    """
    x = np.asarray(x, dtype=float)
    if len(pp) == 0:
        return 0.0 if x.ndim == 1 else np.zeros(x.shape[0])
    p_mat, _, s_lower = correction_terms(model, pp, x)
    half = solve_triangular(s_lower, p_mat, lower=True)
    if x.ndim == 1:
        return float(half[:, 0] @ half[:, 0])
    return np.einsum("ij,ij->j", half, half)


def mean_shift(
    model: GpModel,
    pp_hat: PseudoPointSet,
    true_values: np.ndarray,
    x: np.ndarray,
) -> float | np.ndarray:
    """Difference in augmented posterior mean: borrowed values minus true values.

    Evaluates -p(x)^T M (values_hat - values_true); it equals the difference
    of the two explicitly augmented posterior means.  ``x`` is one point
    (d,), giving a float, or rows (m, d), giving an (m,) array.
    """
    x = np.asarray(x, dtype=float)
    true_values = np.asarray(true_values, dtype=float).reshape(-1)
    if true_values.shape[0] != len(pp_hat):
        raise ValueError("true_values must have one entry per pseudo-point")
    if len(pp_hat) == 0:
        return 0.0 if x.ndim == 1 else np.zeros(x.shape[0])
    p_mat, m_mat, _ = correction_terms(model, pp_hat, x)
    shift = -(p_mat.T @ (m_mat @ (pp_hat.values - true_values)))
    return float(shift[0]) if x.ndim == 1 else shift
