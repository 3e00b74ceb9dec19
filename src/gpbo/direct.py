"""Deterministic global maximization by dividing rectangles.

Implements the classic trisection scheme: the domain is normalized to the
unit cube, hyper-rectangles are scored by their center value and half
diagonal, and every iteration splits the potentially-optimal rectangles
found on the lower convex hull of the (size, value) cloud.  The procedure
is fully deterministic; ties are broken by rectangle creation order.

Sample positions depend only on rectangle geometry, so all trisection
samples of one iteration are scored in a single batched call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import BoxDomain

__all__ = ["DirectConfig", "maximize", "NonFiniteObjectiveError"]


class NonFiniteObjectiveError(ValueError):
    """The objective returned NaN or infinity at some sampled point."""


@dataclass(frozen=True)
class DirectConfig:
    """Budget and selection knobs for the rectangle search.

    ``max_evaluations`` caps the objective evaluations; the search stops once
    they are spent.  ``epsilon`` is the relative slack in the
    potentially-optimal test.
    """

    max_evaluations: int = 400
    epsilon: float = 1e-4

    def __post_init__(self):
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be at least 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")


def _measure(levels: np.ndarray) -> float:
    """Half-diagonal of a rectangle, canonicalized so that permuted level
    vectors produce bit-identical measures (they group rectangles for the
    potentially-optimal test)."""
    half_sides = 0.5 * np.power(3.0, -np.sort(levels).astype(float))
    return float(np.linalg.norm(half_sides))


class _Search:
    """Mutable state of one maximization run (internally minimizes -f).

    Rectangles live in preallocated parallel arrays; a rectangle's row index
    doubles as the deterministic tie-breaker.
    """

    def __init__(self, objective, domain: BoxDomain, limit: int):
        self.objective = objective
        self.domain = domain
        self.limit = limit
        self.evaluations = 0
        self.best_value = math.inf  # minimization of the negated objective
        self.best_point = domain.center.copy()
        capacity = limit + 1
        d = domain.dimension
        self.count = 0
        self.centers = np.empty((capacity, d))
        self.levels = np.empty((capacity, d), dtype=int)
        self.values = np.empty(capacity)
        self.measures = np.empty(capacity)
        self._measure_cache: dict[bytes, float] = {}

    def measures_of(self, levels: np.ndarray) -> np.ndarray:
        """Measures of the rows of ``levels``, computed once per sorted-level
        tuple so that equal tuples share one bit-identical value."""
        out = np.empty(levels.shape[0])
        for i, key in enumerate(np.sort(levels, axis=1)):
            raw = key.tobytes()
            measure = self._measure_cache.get(raw)
            if measure is None:
                measure = self._measure_cache[raw] = _measure(key)
            out[i] = measure
        return out

    def evaluate(self, units: np.ndarray) -> np.ndarray:
        """Negated objective values at rows of ``units``, in row order.

        The best point is updated by strict improvement in that order.
        """
        points = self.domain.lower + units * self.domain.widths
        raw = np.asarray(self.objective(points), dtype=float)
        if raw.shape != (units.shape[0],):
            raise ValueError(
                f"objective returned shape {raw.shape} for {units.shape[0]} points"
            )
        self.evaluations += units.shape[0]
        finite = np.isfinite(raw)
        if not finite.all():
            k = int(np.argmin(finite))
            raise NonFiniteObjectiveError(
                f"objective returned {float(raw[k])!r} at {points[k].tolist()}"
            )
        values = -raw
        k = int(np.argmin(values))
        if values[k] < self.best_value:
            self.best_value = float(values[k])
            self.best_point = points[k].copy()
        return values

    def add_rectangles(self, centers: np.ndarray, levels: np.ndarray, values: np.ndarray,
                       measures: np.ndarray) -> None:
        lo, hi = self.count, self.count + centers.shape[0]
        self.centers[lo:hi] = centers
        self.levels[lo:hi] = levels
        self.values[lo:hi] = values
        self.measures[lo:hi] = measures
        self.count = hi

    def potentially_optimal(self, epsilon: float) -> np.ndarray:
        """Indices of rectangles on the lower-right convex hull of (size, value),
        in ascending size."""
        n = self.count
        values, measures = self.values[:n], self.measures[:n]
        order = np.lexsort((np.arange(n), values, measures))
        first = np.ones(n, dtype=bool)
        first[1:] = measures[order[1:]] != measures[order[:-1]]
        candidates = order[first]  # the best rectangle of each size, ascending size
        m = measures[candidates]
        v = values[candidates]
        with np.errstate(divide="ignore", invalid="ignore"):
            slopes = (v[:, None] - v[None, :]) / (m[:, None] - m[None, :])
        below = np.tri(len(candidates), k=-1, dtype=bool)
        left = np.where(below, slopes, -np.inf).max(axis=1)
        right = np.where(below.T, slopes, np.inf).min(axis=1)
        f_min = values.min()
        if f_min != 0.0:
            ok = epsilon <= (f_min - v) / abs(f_min) + m * right / abs(f_min)
        else:
            ok = v - m * right <= 0.0
        return candidates[(left <= right) & (ok | np.isinf(right))]

    def trisections(self, selected: np.ndarray):
        """Sample points of splitting each selected rectangle along all of its
        longest sides: per rectangle, per dimension, the plus then the minus
        sample.  Returns the (2k, d) unit samples and, per sample pair, its
        rectangle's position in ``selected`` and its dimension."""
        levels = self.levels[selected]
        min_levels = levels.min(axis=1)
        owner, dims = np.nonzero(levels == min_levels[:, None])
        deltas = np.array([3.0 ** (-(float(lv) + 1.0)) for lv in min_levels])
        step = np.zeros((owner.shape[0], levels.shape[1]))
        step[np.arange(owner.shape[0]), dims] = deltas[owner]
        base = self.centers[selected][owner]
        samples = np.empty((2 * owner.shape[0], levels.shape[1]))
        samples[0::2] = base + step
        samples[1::2] = base - step
        return samples, owner, dims

    def split(self, rects: np.ndarray, owner: np.ndarray, dims: np.ndarray,
              samples: np.ndarray, values: np.ndarray) -> None:
        """Record the trisections of ``rects`` from their scored samples; sample
        pair k cuts ``rects[owner[k]]`` along ``dims[k]``."""
        v_plus, v_minus = values[0::2], values[1::2]
        # Per rectangle, best child first, so it keeps the largest remaining rectangle.
        order = np.lexsort((dims, np.minimum(v_plus, v_minus), owner))
        owner = owner[order]
        steps = np.zeros((order.shape[0], self.levels.shape[1]), dtype=int)
        steps[np.arange(order.shape[0]), dims[order]] = 1
        # Running count of cuts per dimension, restarted at each rectangle.
        cuts = np.cumsum(steps, axis=0)
        first = np.searchsorted(owner, owner)
        child_levels = self.levels[rects][owner] + cuts - (cuts[first] - steps[first])
        child_measures = self.measures_of(child_levels)
        pairs = np.stack([2 * order, 2 * order + 1], axis=1).reshape(-1)
        self.add_rectangles(samples[pairs], np.repeat(child_levels, 2, axis=0),
                            values[pairs], np.repeat(child_measures, 2))
        last = np.flatnonzero(np.append(owner[1:] != owner[:-1], True))
        self.levels[rects] = child_levels[last]
        self.measures[rects] = child_measures[last]


def maximize(
    objective: Callable[[np.ndarray], float],
    domain: BoxDomain,
    config: DirectConfig = DirectConfig(),
    *,
    vectorized: bool = False,
) -> tuple[np.ndarray, float]:
    """Maximize ``objective`` over ``domain``; returns (argmax, value).

    ``objective`` maps a point of shape (d,) to a float.  With
    ``vectorized=True`` it instead maps an (m, d) array of points to their
    m values; each search iteration then makes one such call.  The first
    sample is always the domain center, so the returned value is never below
    the center value.  Identical inputs give identical outputs.
    """
    batch = objective if vectorized else (lambda xs: [float(objective(x)) for x in xs])
    search = _Search(batch, domain, config.max_evaluations)
    d = domain.dimension
    center = np.full((1, d), 0.5)
    unsplit = np.zeros((1, d), dtype=int)
    search.add_rectangles(center, unsplit, search.evaluate(center), search.measures_of(unsplit))
    while search.evaluations < search.limit:
        selected = search.potentially_optimal(config.epsilon)
        samples, owner, dims = search.trisections(selected)
        scored = min(samples.shape[0], search.limit - search.evaluations)
        values = search.evaluate(samples[:scored])
        # Only splits whose samples were all scored create rectangles.
        ends = 2 * np.cumsum(np.bincount(owner))
        complete = np.searchsorted(ends, scored, side="right")
        if complete:
            pairs = ends[complete - 1] // 2
            search.split(selected[:complete], owner[:pairs], dims[:pairs],
                         samples[: 2 * pairs], values[: 2 * pairs])
    return search.best_point, -search.best_value
