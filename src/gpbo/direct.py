"""Deterministic global maximization by dividing rectangles.

Implements the classic trisection scheme (Jones, Perttunen & Stuckman 1993):
the domain is normalized to the unit cube, hyper-rectangles are scored by
their center value and half diagonal, and every iteration splits the
potentially-optimal rectangles found on the lower convex hull of the
(size, value) cloud.  The procedure is fully deterministic; ties are broken
by rectangle creation order.

A rectangle is always trisected along all of its longest sides, so its
per-dimension cut counts ("levels") never differ by more than one.  Its
sorted levels, and with them its half diagonal, are therefore fixed by its
total cut count alone, and the half diagonal strictly falls as that count
grows.  The search keeps one heap of (value, index) per cut count, so an
iteration reads the best rectangle of every size off the heap tops instead
of re-sorting all rectangles.  Sample positions depend only on rectangle
geometry, so all trisection samples of one iteration are scored in a single
batched call.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import BoxDomain

__all__ = ["DirectConfig", "maximize", "NonFiniteObjectiveError"]

# Relative slack in the potentially-optimal test.
_EPSILON = 1e-4


class NonFiniteObjectiveError(ValueError):
    """The objective returned NaN or infinity at some sampled point."""


@dataclass(frozen=True)
class DirectConfig:
    """Budget of the rectangle search.

    ``max_evaluations`` caps the objective evaluations; the search stops once
    they are spent.
    """

    max_evaluations: int = 400

    def __post_init__(self):
        budget = self.max_evaluations
        if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)):
            raise ValueError(f"max_evaluations must be an integer, got {budget!r}")
        if budget < 1:
            raise ValueError("max_evaluations must be at least 1")


def _measure(levels: np.ndarray) -> float:
    """Half-diagonal of a rectangle; permuted level vectors give the same bits."""
    half_sides = 0.5 * np.power(3.0, -np.sort(levels).astype(float))
    return float(np.linalg.norm(half_sides))


@functools.cache
def _measure_of_cuts(dimension: int, cuts: int) -> float:
    """Half-diagonal of a rectangle of ``cuts`` cuts whose levels differ by at most one."""
    low, high = divmod(cuts, dimension)
    return _measure(np.array([low] * (dimension - high) + [low + 1] * high))


class _Search:
    """Mutable state of one maximization run (internally minimizes -f).

    Rectangles live in parallel lists; a rectangle's list index doubles as
    the deterministic tie-breaker.  ``heaps[s]`` holds (value, index) of the
    rectangles with ``s`` cuts in total.  Splitting moves a rectangle to a
    higher count; its old entry is dropped once it reaches its heap's top.
    """

    def __init__(self, objective, domain: BoxDomain, limit: int):
        self.objective = objective
        self.domain = domain
        self.limit = limit
        self.evaluations = 0
        self.best_value = math.inf  # minimization of the negated objective
        self.best_point = domain.center.copy()
        center = [0.5] * domain.dimension
        value = self.evaluate(np.array([center])).tolist()[0]
        self.centers, self.levels = [center], [[0] * domain.dimension]
        self.values, self.cuts = [value], [0]
        self.heaps = [[(value, 0)]]

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

    def potentially_optimal(self) -> list[int]:
        """Indices of rectangles on the lower-right convex hull of (size, value),
        in ascending size."""
        points, candidates = [], []  # (measure, value) of each size's best rectangle
        for cuts, heap in reversed(list(enumerate(self.heaps))):
            while heap and self.cuts[heap[0][1]] != cuts:
                heapq.heappop(heap)
            if heap:
                points.append((_measure_of_cuts(self.domain.dimension, cuts), heap[0][0]))
                candidates.append(heap[0][1])
        # f_min is over rectangles; every rectangle sits in the heap of its count.
        f_min = min(value for _, value in points)
        # left is at least the slope to the left neighbour and right at most the
        # one to the right neighbour, so where the first is larger, left > right.
        edge = [(vi - vj) / (mi - mj) for (mi, vi), (mj, vj) in zip(points, points[1:])]
        edge = [-math.inf, *edge, math.inf]
        selected = []
        for i, (mi, vi) in enumerate(points):
            if edge[i] > edge[i + 1]:
                continue
            right = min([(vi - vj) / (mi - mj) for mj, vj in points[i + 1 :]] or [math.inf])
            if f_min != 0.0:
                ok = _EPSILON <= (f_min - vi) / abs(f_min) + mi * right / abs(f_min)
            else:
                ok = vi - mi * right <= 0.0
            if not (ok or math.isinf(right)):
                continue
            left = max([(vi - vj) / (mi - mj) for mj, vj in points[:i]] or [-math.inf])
            if left <= right:
                selected.append(candidates[i])
        return selected

    def trisections(self, selected: list[int]):
        """Unit samples that split each selected rectangle along all of its longest
        sides: per rectangle, per dimension, the plus then the minus sample; and
        per rectangle, its index and the dimensions it is cut along."""
        samples, splits = [], []
        for index in selected:
            center, levels = self.centers[index], self.levels[index]
            low = min(levels)
            delta = 3.0 ** (-(float(low) + 1.0))
            dims = [k for k, level in enumerate(levels) if level == low]
            for k in dims:
                plus, minus = center.copy(), center.copy()
                plus[k] += delta
                minus[k] -= delta
                samples += (plus, minus)
            splits.append((index, dims))
        return samples, splits

    def split(self, index: int, dims: list[int], samples: list, values: list[float]) -> None:
        """Record the trisection of rectangle ``index``; sample pair k cuts it along ``dims[k]``."""
        # Best child first, so it keeps the largest remaining rectangle.
        order = sorted(range(len(dims)),
                       key=lambda k: (min(values[2 * k], values[2 * k + 1]), dims[k]))
        levels, cuts = self.levels[index], self.cuts[index]
        for k in order:
            levels = levels.copy()
            levels[dims[k]] += 1
            cuts += 1
            if cuts == len(self.heaps):
                self.heaps.append([])
            for j in (2 * k, 2 * k + 1):
                heapq.heappush(self.heaps[cuts], (values[j], len(self.values)))
                self.centers.append(samples[j])
                self.levels.append(levels)
                self.values.append(values[j])
                self.cuts.append(cuts)
        self.levels[index], self.cuts[index] = levels, cuts
        heapq.heappush(self.heaps[cuts], (self.values[index], index))


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
    while search.evaluations < search.limit:
        samples, splits = search.trisections(search.potentially_optimal())
        scored = min(len(samples), search.limit - search.evaluations)
        values = search.evaluate(np.array(samples[:scored])).tolist()
        start = 0
        for index, dims in splits:
            end = start + 2 * len(dims)
            if end > scored:  # only splits whose samples were all scored create rectangles
                break
            search.split(index, dims, samples[start:end], values[start:end])
            start = end
    return search.best_point, -search.best_value
