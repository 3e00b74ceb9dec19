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
of re-sorting all rectangles.  A selected rectangle leaves its heap before it
is split, so every heap entry is current.  One monotone-chain pass over the
tops drops each top that lies above a chord of two others; only the rest get
the reference test, the full slope scans and the epsilon test.  Sample
positions depend only on rectangle geometry, so all trisection samples of one
iteration are scored in a single batched call.
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


def _hull(measures: list[float], values: list[float]) -> list[int]:
    """Positions of the potentially-optimal points of a non-empty (measure,
    value) cloud given in strictly ascending measure: the points on its
    lower-right convex hull that also pass the epsilon test, in that order."""
    count = len(measures)
    # A monotone-chain pass drops point i only on a witness j < i < l with
    # slope(i, j) > slope(i, l); then left >= slope(i, j) > slope(i, l) >= right
    # below, so every dropped point fails the full test too.
    # (measure, value, position, slope to predecessor)
    chain = [(measures[0], values[0], 0, -math.inf)]
    for l in range(1, count):
        ml, vl = measures[l], values[l]
        mi, vi, _, to_left = chain[-1]
        while (slope := (vi - vl) / (mi - ml)) < to_left:
            chain.pop()
            mi, vi, _, to_left = chain[-1]
        chain.append((ml, vl, l, slope))
    f_min = min(values)
    selected = []
    for mi, vi, i, _ in chain:
        # Running extremes with strict comparisons keep the first extreme, as
        # min and max do, so signed-zero ties resolve the same way.
        right = math.inf
        for j in range(i + 1, count):
            if (slope := (vi - values[j]) / (mi - measures[j])) < right:
                right = slope
        # The epsilon test does not apply at an infinite slope: with a
        # subnormal f_min it would read inf - inf.
        if math.isfinite(right):
            if f_min != 0.0:
                ok = _EPSILON <= (f_min - vi) / abs(f_min) + mi * right / abs(f_min)
            else:
                ok = vi - mi * right <= 0.0
            if not ok:
                continue
        left = -math.inf
        for j in range(i):
            if (slope := (vi - values[j]) / (mi - measures[j])) > left:
                left = slope
        if left <= right:
            selected.append(i)
    return selected


class _Search:
    """Mutable state of one maximization run (internally minimizes -f).

    Rectangles live in parallel lists; a rectangle's list index doubles as
    the deterministic tie-breaker.  ``heaps[s]`` holds (value, index) of
    exactly the rectangles with ``s`` cuts in total: a selected rectangle
    leaves its heap before it is split and rejoins at its new count.
    ``measures[s]`` is the half diagonal of ``s`` cuts and ``offsets[l]`` the
    trisection offset of a rectangle whose shortest side is at level ``l``.
    """

    def __init__(self, objective, domain: BoxDomain, limit: int):
        self.objective = objective
        self.lower, self.widths, self.dimension = domain.lower, domain.widths, domain.dimension
        self.limit = limit
        self.evaluations = 0
        self.best_value = math.inf  # minimization of the negated objective
        self.best_point = domain.center.copy()
        self.heaps, self.measures, self.offsets = [], [], []
        self.add_count()
        center = [0.5] * self.dimension
        value = self.evaluate(np.array([center])).tolist()[0]
        self.centers, self.levels = [center], [[0] * self.dimension]
        self.values, self.cuts = [value], [0]
        self.heaps[0].append((value, 0))

    def add_count(self) -> None:
        """Open the heap of the next cut count, with its measure and, when the
        count starts a new level, that level's trisection offset."""
        s = len(self.heaps)
        self.heaps.append([])
        self.measures.append(_measure_of_cuts(self.dimension, s))
        if s % self.dimension == 0:
            self.offsets.append(3.0 ** (-(float(s // self.dimension) + 1.0)))

    def evaluate(self, units: np.ndarray) -> np.ndarray:
        """Negated objective values at rows of ``units``, in row order.

        The best point is updated by strict improvement in that order.
        """
        points = self.lower + units * self.widths
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
        k = values.argmin()
        if values[k] < self.best_value:
            self.best_value = float(values[k])
            self.best_point = points[k].copy()
        return values

    def potentially_optimal(self) -> list[int]:
        """Pop the best rectangle of every size that lies on the lower-right
        convex hull of (size, value); returns their indices in ascending size."""
        heaps, measures = self.heaps, self.measures
        counts = [s for s in range(len(heaps) - 1, -1, -1) if heaps[s]]
        chosen = _hull([measures[s] for s in counts], [heaps[s][0][0] for s in counts])
        return [heapq.heappop(heaps[counts[p]])[1] for p in chosen]

    def step(self, selected: list[int]) -> None:
        """Trisect the selected rectangles along all of their longest sides,
        score the samples in one batch and split every rectangle whose samples
        were all scored; the others go back on their heaps."""
        centers, levels_of, cuts_of, heaps = self.centers, self.levels, self.cuts, self.heaps
        d, offsets = self.dimension, self.offsets
        samples, splits = [], []
        for index in selected:
            center, low = centers[index], cuts_of[index] // d
            delta = offsets[low]  # low is the level of the longest sides
            dims = [k for k, level in enumerate(levels_of[index]) if level == low]
            for k in dims:
                plus, minus = center.copy(), center.copy()
                plus[k] += delta
                minus[k] -= delta
                samples += (plus, minus)
            splits.append((index, dims))
        scored = min(len(samples), self.limit - self.evaluations)
        values = self.evaluate(np.array(samples[:scored])).tolist()
        start, n, values_of, push = 0, len(cuts_of), self.values, heapq.heappush
        for index, dims in splits:
            end, cuts = start + 2 * len(dims), cuts_of[index]
            if end <= scored:
                while len(heaps) <= cuts + len(dims):
                    self.add_count()
                levels = levels_of[index]
                # Best child first, so it keeps the largest remaining rectangle.
                for _, k, j in sorted((min(values[j], values[j + 1]), k, j)
                                      for j, k in zip(range(start, end, 2), dims)):
                    levels = levels.copy()
                    levels[k] += 1
                    cuts += 1
                    push(heaps[cuts], (values[j], n))
                    push(heaps[cuts], (values[j + 1], n + 1))
                    n += 2
                    centers += samples[j : j + 2]
                    levels_of += (levels, levels)
                    values_of += values[j : j + 2]
                    cuts_of += (cuts, cuts)
                levels_of[index], cuts_of[index] = levels, cuts
            push(heaps[cuts], (values_of[index], index))
            start = end


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
        search.step(search.potentially_optimal())
    return search.best_point, -search.best_value
