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
    """At what distance to generate pseudo-points.

    One pseudo-point is generated per observed point.  With n observed
    points in a box whose widest side is ``width``, the displacement is
    ``width * tau0 / (d * n)``.  ``tau0 = 0`` disables generation.
    """

    tau0: float

    def __post_init__(self):
        if self.tau0 < 0 or not np.isfinite(self.tau0):
            raise ValueError(f"tau0 must be non-negative and finite, got {self.tau0!r}")

    @property
    def enabled(self) -> bool:
        return self.tau0 > 0.0


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
    """Draw one round of pseudo-points, one per observed point.

    Each pseudo-point displaces its parent by +-tau independently per
    coordinate (signs equally likely).  When a displaced coordinate leaves
    the box the sign is flipped; if both signs leave, the coordinate is
    clipped to the boundary.  A point colliding with an existing point gets
    its signs redrawn a bounded number of times, then is accepted as-is (the
    model's jitter ladder absorbs the duplication).

    A disabled schedule or an empty dataset gives an empty set without
    consuming any draws.
    """
    d, n = domain.dimension, len(data)
    if not schedule.enabled or n == 0:
        return empty_pseudo_set(d)
    tau = float(np.max(domain.widths)) * schedule.tau0 / (d * n)
    return _place(data, np.arange(n), tau, domain, rng)


def _place(
    data: Dataset,
    parents: np.ndarray,
    tau: float,
    domain: BoxDomain,
    rng: np.random.Generator,
) -> PseudoPointSet:
    """One pseudo-point at displacement ``tau`` from each ``data`` row named in
    ``parents``, by the sign, boundary and collision rules of ``generate``."""
    n, count, d = len(data), len(parents), domain.dimension
    # Observed points, then the pseudo-points accepted so far.
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
    return gp.augment(model, Dataset(pp.points, pp.values))


def correction_terms(
    model: GpModel, pp: PseudoPointSet, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (P, M, S_factor) triple behind the closed-form corrections.

    ``P[:, q]`` is the vector p(x_q) = Ktilde^T A^-1 k_t(x_q) - k'(x_q) with
    A the base training matrix; ``M`` is the inverse of
    S = K' + noise*I - Ktilde^T A^-1 Ktilde (the augmented-block capacitance);
    ``S_factor`` is the lower Cholesky factor of S.  All three come from the
    blocks [[L11, 0], [H^T, L22]] of the augmented model's own factor,
    ``gp._augmented_factor``: A's factor is L11, and ``S_factor`` is L22.

    When S needs jitter from the ladder, that factor is a fresh factorization
    of the joint matrix, with its jitter on every row.  A and S above then
    carry the joint jitter, and ``mean_shift`` and ``variance_reduction``
    still describe the augmented model: the variance reduction is measured
    from the base posterior at that jitter.  Only this function forms M.
    """
    p_mat, s_lower = _p_and_s_factor(model, pp, queries)
    return p_mat, gp._cho_solve(s_lower, np.eye(len(pp))), s_lower


def _p_and_s_factor(
    model: GpModel, pp: PseudoPointSet, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``correction_terms``'s P and S_factor, without forming M.  A column of
    P has the same bits alone as in a batch, as in ``gp.predict``."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if not np.isfinite(queries).all():
        raise ValueError("queries must be finite")
    n = len(model)
    factor, _ = gp._augmented_factor(model, pp.points)
    cross_new = kernel_matrix(pp.points, queries, model.params)  # (l, m)
    if n == 0:
        return -cross_new, factor
    cross_queries = kernel_matrix(model.data.points, queries, model.params)  # (t, m)
    half_queries = gp._forward_solve(factor[:n, :n], cross_queries)
    projected = np.cumsum(factor[n:, :n, None] * half_queries, axis=1)[:, -1]
    return projected - cross_new, factor[n:, n:]


def variance_reduction(model: GpModel, pp: PseudoPointSet, x: np.ndarray) -> float | np.ndarray:
    """Exact drop in posterior variance caused by the pseudo rows.

    ``x`` is one point (d,), giving a float, or rows (m, d), giving an (m,)
    array; a point gives the same bits alone as in a batch.  Computed as
    p(x)^T M p(x) through a triangular solve on the factor of S, so M is
    never formed, and each result is a sum of squares and cannot go negative.
    """
    x = np.asarray(x, dtype=float)
    if len(pp) == 0:
        return 0.0 if x.ndim == 1 else np.zeros(x.shape[0])
    p_mat, s_lower = _p_and_s_factor(model, pp, x)
    half = gp._forward_solve(s_lower, p_mat)
    reduction = np.cumsum(half * half, axis=0)[-1]
    return float(reduction[0]) if x.ndim == 1 else reduction


def mean_shift(
    model: GpModel,
    pp_hat: PseudoPointSet,
    true_values: np.ndarray,
    x: np.ndarray,
) -> float | np.ndarray:
    """Difference in augmented posterior mean: borrowed values minus true values.

    Evaluates -p(x)^T M (values_hat - values_true), M applied by a solve; it
    equals the difference of the two explicitly augmented posterior means.
    ``x`` is one point (d,), giving a float, or rows (m, d), giving an (m,)
    array; a point gives the same bits alone as in a batch.
    """
    x = np.asarray(x, dtype=float)
    true_values = np.asarray(true_values, dtype=float).reshape(-1)
    if true_values.shape[0] != len(pp_hat):
        raise ValueError("true_values must have one entry per pseudo-point")
    if not np.isfinite(true_values).all():
        raise ValueError("true_values must be finite")
    if len(pp_hat) == 0:
        return 0.0 if x.ndim == 1 else np.zeros(x.shape[0])
    p_mat, s_lower = _p_and_s_factor(model, pp_hat, x)
    weights = gp._cho_solve(s_lower, pp_hat.values - true_values)
    shift = -np.cumsum(p_mat * weights[:, None], axis=0)[-1]
    return float(shift[0]) if x.ndim == 1 else shift
