"""Pseudo-point generation and the closed-form posterior corrections.

A pseudo-point sits at coordinate-wise distance tau from an observed point
and borrows that point's objective value.  Adding such rows to a GP cannot
increase the posterior variance anywhere; the exact reduction, and the mean
error introduced by the borrowed values, both have closed forms in terms of
the cross-covariance vector p(x) and the capacitance matrix M computed
below.  Those closed forms are what the verification suite checks against
plain re-fits.

Both come from the blocks [[L11, 0], [H^T, L22]] of one augmented factor.
``_p_and_s`` reads P and the factor of S off a factor the caller already
holds, as the run loop and the verification suite do.  The public closed
forms are views that build that factor once, with
``gp._augmented_factor``, and call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gp
from .domain import BoxDomain
from .gp import Dataset, GpModel, KernelParams, kernel_matrix

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
    # Observed points, then the pseudo-points accepted so far, one column
    # each, so the collision scan reduces over whole rows of coordinates.
    taken = np.empty((d, n + count))
    taken[:, :n] = data.points.T
    for i, parent_idx in enumerate(parents):
        parent = data.points[parent_idx]
        for _ in range(_MAX_REDRAWS + 1):
            signs = rng.integers(0, 2, size=d) * 2.0 - 1.0
            candidate = _displace(parent, signs, tau, domain)
            near = np.abs(taken[:, : n + i] - candidate[:, None]) <= _COLLISION_TOL
            if not near.all(axis=0).any():
                break
        taken[:, n + i] = candidate
    return PseudoPointSet(
        points=np.ascontiguousarray(taken[:, n:].T),
        values=data.observations[parents].copy(),
        parent_index=np.asarray(parents, dtype=int),
        tau=tau,
    )


def augmented_model(model: GpModel, pp: PseudoPointSet) -> GpModel:
    """The base model extended with the pseudo rows (hyper-parameters untouched)."""
    return gp.augment(model, Dataset(pp.points, pp.values))


def _p_and_s(
    factor: np.ndarray,
    base_points: np.ndarray,
    pseudo_points: np.ndarray,
    params: KernelParams,
    queries: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``correction_terms``'s P and S_factor, without forming M, read off
    ``factor``: the lower Cholesky factor of the noisy covariance of the rows
    [``base_points``, ``pseudo_points``], as ``gp._augmented_factor`` builds
    it.  A column of P has the same bits alone as in a batch, as in
    ``gp.predict``.  ``queries`` must be checked rows (m, d)."""
    n = len(base_points)
    cross_new = kernel_matrix(pseudo_points, queries, params)  # (l, m)
    if n == 0:
        return -cross_new, factor
    cross_queries = kernel_matrix(base_points, queries, params)  # (t, m)
    half_queries = gp._forward_solve(factor[:n, :n], cross_queries)
    projected = np.cumsum(factor[n:, :n, None] * half_queries, axis=1)[:, -1]
    return projected - cross_new, factor[n:, n:]


def _own_p_and_s(
    model: GpModel, pp: PseudoPointSet, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``_p_and_s`` on the factor of ``model`` augmented by ``pp``'s rows,
    for callers that do not hold it."""
    factor, _ = gp._augmented_factor(model, pp.points)
    return _p_and_s(factor, model.data.points, pp.points, model.params, queries)


def _reduction(p_mat: np.ndarray, s_lower: np.ndarray) -> np.ndarray:
    """p(x)^T M p(x) per column of P, by a triangular solve on S's factor and
    a sequential sum of squares, so M is never formed and no entry is
    negative."""
    half = gp._forward_solve(s_lower, p_mat)
    return gp._column_sums(half * half)


def _shift(p_mat: np.ndarray, s_lower: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """-p(x)^T M ``residual`` per column of P, M applied by a solve."""
    weights = gp._cho_solve(s_lower, residual)
    return -gp._column_sums(p_mat * weights[:, None])


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
    An empty set gives a (0, m) P and (0, 0) M and S_factor.

    When S needs jitter from the ladder, that factor is a fresh factorization
    of the joint matrix, with its jitter on every row.  A and S above then
    carry the joint jitter, and ``mean_shift`` and ``variance_reduction``
    still describe the augmented model: the variance reduction is measured
    from the base posterior at that jitter.  M is formed only for the
    elementwise bound on it: here, and in the identity check, which reads
    P and S_factor off the factor of the model it augmented.
    """
    queries = gp._query_rows(model, queries)
    if len(pp) == 0:
        return np.empty((0, len(queries))), np.empty((0, 0)), np.empty((0, 0))
    p_mat, s_lower = _own_p_and_s(model, pp, queries)
    return p_mat, gp._cho_solve(s_lower, np.eye(len(pp))), s_lower


def variance_reduction(model: GpModel, pp: PseudoPointSet, x: np.ndarray) -> float | np.ndarray:
    """Exact drop in posterior variance caused by the pseudo rows.

    ``x`` is one point (d,), giving a float, or rows (m, d), giving an (m,)
    array; a point gives the same bits alone as in a batch.  Computed as
    p(x)^T M p(x) through a triangular solve on the factor of S, so M is
    never formed, and each result is a sum of squares and cannot go negative.
    """
    x = np.asarray(x, dtype=float)
    queries = gp._query_rows(model, x)
    if len(pp) == 0:
        reduction = np.zeros(len(queries))
    else:
        reduction = _reduction(*_own_p_and_s(model, pp, queries))
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
    queries = gp._query_rows(model, x)
    true_values = np.asarray(true_values, dtype=float).reshape(-1)
    if true_values.shape[0] != len(pp_hat):
        raise ValueError("true_values must have one entry per pseudo-point")
    if not np.isfinite(true_values).all():
        raise ValueError("true_values must be finite")
    if len(pp_hat) == 0:
        shift = np.zeros(len(queries))
    else:
        shift = _shift(*_own_p_and_s(model, pp_hat, queries), pp_hat.values - true_values)
    return float(shift[0]) if x.ndim == 1 else shift
