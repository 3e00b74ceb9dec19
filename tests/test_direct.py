"""Rectangle-division maximizer: convergence, determinism, budget contracts."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpbo import direct
from gpbo.direct import DirectConfig, NonFiniteObjectiveError
from gpbo.domain import BoxDomain
from gpbo.objectives import make_synthetic


def unit_interval():
    return BoxDomain(np.array([0.0]), np.array([1.0]))


class TestBasics:
    def test_constant_objective_returns_center(self):
        domain = BoxDomain(np.array([-2.0, 1.0]), np.array([4.0, 3.0]))
        arg, val = direct.maximize(lambda x: 7.5, domain, DirectConfig(max_evaluations=200))
        np.testing.assert_array_equal(arg, np.array([1.0, 2.0]))
        assert val == 7.5

    def test_quadratic_argmax(self):
        arg, val = direct.maximize(
            lambda x: -((x[0] - 0.5) ** 2),
            unit_interval(),
            DirectConfig(max_evaluations=500),
        )
        assert abs(arg[0] - 0.5) < 1e-3
        assert val == pytest.approx(-((arg[0] - 0.5) ** 2))

    def test_value_is_objective_at_argmax(self):
        f = lambda x: np.sin(5 * x[0]) + 0.3 * x[1]
        domain = BoxDomain(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        arg, val = direct.maximize(f, domain, DirectConfig(max_evaluations=300))
        assert val == pytest.approx(f(arg))

    def test_value_at_least_center_value(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            coeffs = np.random.default_rng(seed).normal(size=4)
            f = lambda x: float(
                coeffs[0] * np.sin(3 * x[0]) + coeffs[1] * x[0] ** 2 + coeffs[2] * x[0] + coeffs[3]
            )
            domain = unit_interval()
            arg, val = direct.maximize(f, domain, DirectConfig(max_evaluations=60))
            assert val >= f(domain.center) - 1e-14

    def test_dropwave_benchmark(self):
        obj = make_synthetic("dropwave")
        arg, val = direct.maximize(
            obj.evaluate_true, obj.domain, DirectConfig(max_evaluations=2000)
        )
        assert abs(val - 1.0) < 0.05


class TestContracts:
    def test_every_sample_inside_domain(self):
        domain = BoxDomain(np.array([-1.0, 2.0]), np.array([1.5, 2.5]))
        seen = []

        def f(x):
            seen.append(x.copy())
            return float(np.sum(np.sin(4 * x)))

        direct.maximize(f, domain, DirectConfig(max_evaluations=300))
        pts = np.array(seen)
        assert np.all(pts >= domain.lower) and np.all(pts <= domain.upper)

    def test_budget_respected(self):
        calls = [0]

        def f(x):
            calls[0] += 1
            return float(-np.sum(x**2))

        direct.maximize(f, unit_interval(), DirectConfig(max_evaluations=77))
        assert calls[0] <= 77

    def test_determinism(self):
        f = lambda x: float(np.cos(9 * x[0]) * np.sin(7 * x[1]))
        domain = BoxDomain(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        cfg = DirectConfig(max_evaluations=400)
        a1, v1 = direct.maximize(f, domain, cfg)
        a2, v2 = direct.maximize(f, domain, cfg)
        np.testing.assert_array_equal(a1, a2)
        assert v1 == v2

    def test_anytime_monotonicity(self):
        f = lambda x: float(-((x[0] - 0.5) ** 2))
        values = [
            direct.maximize(f, unit_interval(), DirectConfig(max_evaluations=n))[1]
            for n in (50, 100, 200, 500)
        ]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_anytime_monotonicity_multimodal(self):
        f = lambda x: float(np.sin(13 * x[0]) * np.sin(7 * x[0]))
        values = [
            direct.maximize(f, unit_interval(), DirectConfig(max_evaluations=n))[1]
            for n in (10, 25, 50, 100, 200, 400)
        ]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_non_finite_objective_names_point(self):
        def f(x):
            return math_nan if x[0] > 0.4 else 0.0

        math_nan = float("nan")
        with pytest.raises(NonFiniteObjectiveError) as exc:
            direct.maximize(f, unit_interval(), DirectConfig(max_evaluations=50))
        assert "0.5" in str(exc.value)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DirectConfig(max_evaluations=0)

    @pytest.mark.parametrize("budget", [2.5, 7.0, "7", True, False, None])
    def test_config_rejects_non_integer_budget(self, budget):
        with pytest.raises(ValueError, match="max_evaluations"):
            DirectConfig(max_evaluations=budget)

    def test_config_accepts_numpy_integer(self):
        cfg = DirectConfig(max_evaluations=np.int64(20))
        _, val = direct.maximize(lambda x: -float(x[0] ** 2), unit_interval(), cfg)
        assert val <= 0.0


class TestCutCountGrouping:
    """The search groups rectangles by total cut count; these pin why that
    grouping equals grouping them by their float measure."""

    def test_levels_stay_within_one(self, monkeypatch):
        searches = []

        class Recording(direct._Search):
            def __init__(self, *args):
                super().__init__(*args)
                searches.append(self)

        monkeypatch.setattr(direct, "_Search", Recording)
        for d in range(1, 7):
            f = smooth_surface(np.linspace(0.5, 1.5, 3), np.linspace(-3, 3, 3 * d).reshape(3, d),
                               False)
            domain = BoxDomain(np.zeros(d), np.ones(d))
            direct.maximize(f, domain, DirectConfig(max_evaluations=1200))
            search = searches[-1]
            assert len(search.values) > 1000
            for levels, cuts in zip(search.levels, search.cuts):
                assert max(levels) - min(levels) <= 1
                assert sum(levels) == cuts

    def test_measure_strictly_falls_with_cut_count(self):
        # Reachable counts at 1200 evaluations.  The rectangles tile the unit
        # cube and one of s cuts has volume 3**-s, so some rectangle always has
        # at most 6 cuts (3**7 > 1200), and every iteration splits a largest
        # rectangle.  A rectangle's ancestry therefore takes at most 7 splits at
        # 6 cuts or fewer; each later split shares its iteration with the split
        # of a largest rectangle, so that iteration scores 4 samples or more,
        # unless it is a last iteration cut short.  A split raises the largest
        # level by at most one, so levels stay at most 7 + 1 + 1199 // 4 = 307.
        for d in range(1, 7):
            measures = [direct._measure_of_cuts(d, s) for s in range(307 * d + 1)]
            assert all(b < a for a, b in zip(measures, measures[1:]))
            low, high = divmod(307 * d, d)
            canonical = np.array([low] * (d - high) + [low + 1] * high)
            assert measures[-1] == direct._measure(canonical[::-1])


class TestSearchState:
    """Invariants of the search's own bookkeeping."""

    # Each case cuts its last batch short: the two of TestBatchedAgainstScalarReference
    # that do, and a plateau case whose signed-zero ties reach the heaps.
    @pytest.mark.parametrize("d, budget, plateau", [(3, 56, False), (1, 6, False), (2, 200, True)])
    def test_each_heap_holds_exactly_its_count(self, monkeypatch, d, budget, plateau):
        """After every iteration, heaps[s] holds (value, index) of exactly the
        rectangles with s cuts, and its top is the least of them."""
        cut_short = []

        def check(search):
            for s, heap in enumerate(search.heaps):
                members = sorted((v, i) for i, (v, c) in enumerate(zip(search.values, search.cuts))
                                 if c == s)
                assert all(search.cuts[i] == s for _, i in heap)
                assert sorted(heap) == members
                if heap:
                    assert heap[0] == members[0]

        class Checking(direct._Search):
            def __init__(self, *args):
                super().__init__(*args)
                check(self)

            def step(self, selected):
                needed = sum(2 * self.levels[i].count(self.cuts[i] // self.dimension)
                             for i in selected)
                cut_short.append(needed > self.limit - self.evaluations)
                super().step(selected)
                check(self)

        monkeypatch.setattr(direct, "_Search", Checking)
        coeffs = np.array([0.01, -0.02, 0.01]) if plateau else np.ones(3)
        freqs = np.linspace(-5.0, 5.0, 3 * d).reshape(3, d) if plateau else np.ones((3, d))
        f = smooth_surface(coeffs, freqs, plateau)
        direct.maximize(f, BoxDomain(np.zeros(d), np.ones(d)), DirectConfig(max_evaluations=budget))
        assert cut_short[-1] and not any(cut_short[:-1])

    @pytest.mark.parametrize("d", [1, 6])
    def test_trisection_offsets_are_powers_of_three(self, d):
        """Every level up to the bound of test_measure_strictly_falls_with_cut_count
        gets the offset the scalar reference computes."""
        search = direct._Search(lambda xs: np.zeros(len(xs)), BoxDomain(np.zeros(d), np.ones(d)), 1)
        while len(search.offsets) <= 307:
            search.add_count()
        assert search.offsets[:308] == [3.0 ** (-(float(level) + 1.0)) for level in range(308)]


# --- reference: the one-point-per-call search the batched loop replaced ------


class _Budget(Exception):
    pass


def reference_hull(measures, values, epsilon=1e-4):
    """Positions of the potentially-optimal points of a cloud in ascending
    measure, by the double loop over every pair of points."""
    f_min = min(values)
    selected = []
    for pos, (measure, value) in enumerate(zip(measures, values)):
        left = -math.inf
        for m2, v2 in zip(measures[:pos], values[:pos]):
            left = max(left, (value - v2) / (measure - m2))
        right = math.inf
        for m2, v2 in zip(measures[pos + 1 :], values[pos + 1 :]):
            right = min(right, (v2 - value) / (m2 - measure))
        if left > right:
            continue
        if math.isfinite(right):
            if f_min != 0.0:
                ok = epsilon <= (f_min - value) / abs(f_min) + measure * right / abs(f_min)
            else:
                ok = value - measure * right <= 0.0
            if not ok:
                continue
        selected.append(pos)
    return selected


def reference_maximize(objective, domain, max_evaluations, epsilon=1e-4):
    """Scalar DIRECT: every sample is its own objective call, rectangles are
    Python lists, and the hull scan is a double loop."""
    state = {"evaluations": 0, "best_value": math.inf, "best_point": domain.center.copy()}
    centers, levels, values, measures = [], [], [], []

    def evaluate(unit):
        if state["evaluations"] >= max_evaluations:
            raise _Budget
        x = domain.lower + unit * domain.widths
        value = -float(objective(x))
        state["evaluations"] += 1
        if value < state["best_value"]:
            state["best_value"] = value
            state["best_point"] = x.copy()
        return value

    def add(center, level, value):
        centers.append(center)
        levels.append(level)
        values.append(value)
        measures.append(direct._measure(level))

    def potentially_optimal():
        best_for_measure = {}
        for idx, (m, v) in enumerate(zip(measures, values)):
            cur = best_for_measure.get(m)
            if cur is None or v < values[cur]:
                best_for_measure[m] = idx
        candidates = sorted(best_for_measure.items())
        chosen = reference_hull([m for m, _ in candidates], [values[i] for _, i in candidates],
                                epsilon)
        return [candidates[pos][1] for pos in chosen]

    def split(idx):
        center, level = centers[idx], levels[idx]
        min_level = level.min()
        delta = 3.0 ** (-(float(min_level) + 1.0))
        samples = []
        for dim in np.flatnonzero(level == min_level):
            plus = center.copy()
            plus[dim] += delta
            minus = center.copy()
            minus[dim] -= delta
            samples.append((dim, evaluate(plus), evaluate(minus), plus, minus))
        samples.sort(key=lambda s: (min(s[1], s[2]), s[0]))
        current = level.copy()
        for dim, v_plus, v_minus, plus, minus in samples:
            current = current.copy()
            current[dim] += 1
            add(plus, current, v_plus)
            add(minus, current, v_minus)
        levels[idx] = current
        measures[idx] = direct._measure(current)

    d = domain.dimension
    try:
        center = np.full(d, 0.5)
        add(center, np.zeros(d, dtype=int), evaluate(center))
        while True:
            for idx in potentially_optimal():
                split(idx)
    except _Budget:
        pass
    return state["best_point"], -state["best_value"]


def smooth_surface(coeffs, freqs, plateau):
    """A random sum of sines; ``plateau`` rounds values to force exact ties."""

    def f(x):
        value = float(np.sum(coeffs * np.sin(freqs @ x)))
        return round(value, 1) if plateau else value

    return f


@st.composite
def search_problems(draw):
    d = draw(st.integers(1, 6))
    floats = st.floats(-2.0, 2.0, allow_nan=False)
    coeffs = np.array(draw(st.lists(floats, min_size=3, max_size=3)))
    freqs = np.array(draw(st.lists(floats, min_size=3 * d, max_size=3 * d))).reshape(3, d) * 3
    lower = np.array(draw(st.lists(st.floats(-2.0, 0.0), min_size=d, max_size=d)))
    widths = np.array(draw(st.lists(st.floats(0.25, 3.0), min_size=d, max_size=d)))
    domain = BoxDomain(lower, lower + widths)
    plateau = draw(st.booleans())
    budget = draw(st.integers(1, 250))
    return smooth_surface(coeffs, freqs, plateau), domain, budget


class TestBatchedAgainstScalarReference:
    @settings(max_examples=60, deadline=None)
    @given(search_problems())
    # Budget 6 in 1-d cuts the third iteration's batch after one of its two samples.
    @example((smooth_surface(np.ones(3), np.ones((3, 1)), False), unit_interval(), 6))
    # The size of a hart6 acquisition search.
    @example((smooth_surface(np.array([1.0, -0.7, 0.4]), np.linspace(-4, 4, 18).reshape(3, 6),
                             False), BoxDomain(np.zeros(6), np.ones(6)), 1200))
    # Every value rounds to +0.0 or -0.0, so signed-zero ties reach the heaps
    # and the child order, and f_min is zero.
    @example((smooth_surface(np.array([0.01, -0.02, 0.01]),
                             np.array([[3.0, -2.0], [1.0, 4.0], [-5.0, 2.0]]), True),
              BoxDomain(np.zeros(2), np.ones(2)), 200))
    # Budget 56 in 3-d splits two rectangles in the last iteration and cuts the
    # third one's batch after 3 of its 6 samples.
    @example((smooth_surface(np.ones(3), np.ones((3, 3)), False),
              BoxDomain(np.zeros(3), np.ones(3)), 56))
    def test_same_argmax_value_and_samples(self, problem):
        f, domain, budget = problem
        seen_ref, seen_new = [], []

        def recording(seen):
            def g(x):
                seen.append(x.copy())
                return f(x)

            return g

        arg_ref, val_ref = reference_maximize(recording(seen_ref), domain, budget)
        arg_new, val_new = direct.maximize(
            recording(seen_new), domain, DirectConfig(max_evaluations=budget)
        )
        assert len(seen_new) == len(seen_ref) == budget
        np.testing.assert_array_equal(np.array(seen_new), np.array(seen_ref))
        np.testing.assert_array_equal(arg_new, arg_ref)
        assert val_new == val_ref

    def test_vectorized_matches_scalar_objective(self):
        domain = BoxDomain(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 3.0]))

        def batch(xs):
            return np.sin(3 * xs[:, 0]) * np.cos(2 * xs[:, 1]) - (xs[:, 2] - 2.3) ** 2

        for budget in (1, 2, 7, 200, 601):
            cfg = DirectConfig(max_evaluations=budget)
            arg_s, val_s = direct.maximize(lambda x: float(batch(x[None, :])[0]), domain, cfg)
            arg_v, val_v = direct.maximize(batch, domain, cfg, vectorized=True)
            np.testing.assert_array_equal(arg_v, arg_s)
            assert val_v == val_s

    def test_vectorized_makes_one_call_per_iteration(self):
        calls = []

        def batch(xs):
            calls.append(xs.shape[0])
            return -np.sum((xs - 0.3) ** 2, axis=1)

        domain = BoxDomain(np.zeros(2), np.ones(2))
        direct.maximize(batch, domain, DirectConfig(max_evaluations=100), vectorized=True)
        assert calls[0] == 1 and sum(calls) == 100
        assert len(calls) < 100 // 2

    def test_vectorized_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            direct.maximize(lambda xs: np.zeros(1), unit_interval(),
                            DirectConfig(max_evaluations=10), vectorized=True)


@st.composite
def clouds(draw):
    """Points in strictly ascending measure.  Integer measures with values on a
    line give exactly collinear triples; the value pool gives exact ties,
    signed zeros and, when nothing below zero is drawn, f_min == 0."""
    k = draw(st.integers(1, 24))
    if draw(st.booleans()):
        measures = [float(m) for m in sorted(draw(st.sets(st.integers(1, 60), min_size=k, max_size=k)))]
    else:
        measures = sorted(draw(st.sets(st.floats(1e-3, 1.0), min_size=k, max_size=k)))
    kind = draw(st.sampled_from(["line", "pool", "float"]))
    if kind == "line":
        a, b = draw(st.integers(-5, 5)), draw(st.integers(-3, 3))
        bumps = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=k, max_size=k))
        values = [float(a + b * m + e) for m, e in zip(measures, bumps)]
    elif kind == "pool":
        pool = st.sampled_from([-1.0, -0.0, 0.0, 0.0, 0.5, 1.0, 2.0])
        values = draw(st.lists(pool, min_size=k, max_size=k))
    else:
        values = draw(st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k))
    return measures, values


class TestHullAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(clouds())
    # The middle of an exactly collinear triple is on the hull, and selected.
    @example(([1.0, 2.0, 3.0], [-3.0, -2.0, -1.0]))
    # The same with f_min == 0.
    @example(([1.0, 2.0, 3.0], [0.0, 1.0, 2.0]))
    # Only signed zeros: f_min == 0 and every slope is zero.
    @example(([1.0, 2.0, 4.0], [-0.0, 0.0, -0.0]))
    # The epsilon test rejects the smaller point, which is on the hull.
    @example(([1.0, 2.0], [0.0, -1.0]))
    # A subnormal f_min: the last point's epsilon term overflows, and the
    # test must not apply at its infinite right slope.
    @example(([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], [1.0, 1.0, 1.0, 1.0, 1.0, 2.2250738585e-313, 1.0]))
    def test_same_selection_as_double_loop(self, cloud):
        measures, values = cloud
        assert direct._hull(measures, values) == reference_hull(measures, values)

    # Clouds whose chain points fail the epsilon test at or near the slope to
    # their chain successor; in the last three another chain point passes.
    @pytest.mark.parametrize("measures, values", [
        ([1.0, 2.0], [0.0, -1.0]),
        ([1.0, 2.0, 3.0, 4.0], [0.0, -0.5, -0.9, -1.0]),
        # f_min == 0, with an exactly collinear chain.
        ([1.0, 2.0, 3.0], [1.0, 0.5, 0.0]),
        # Point 3 is above the chord of 2 and 4, so 2's successor is 4.
        ([1.0, 2.0, 3.0, 4.0, 5.0], [-3.0, -3.5, -3.6, -2.0, -3.61]),
        ([0.1, 0.2, 0.4, 0.8], [-1.0, -1.00001, -1.5, -1.2]),
        ([1.0, 2.0, 3.0, 4.0], [-4.0, -3.0, -3.9999, -1.0]),
        # Points 1, 2, 3 and 4 are collinear up to rounding.  The chain drops 2,
        # so 1's successor is 3, but 1's slope to 2 rounds one ulp below its
        # slope to 3, and point 1 fails the epsilon test only at the lower one.
        ([1e-06, 5.0, 15.0, 17.0, 29.0],
         [2.3880460419742606, 6.196882135119574, 13.815031930618595,
          15.338661889718399, 24.480441644317224]),
    ], ids=["two-points", "falling", "zero-f-min", "chord", "near-tie", "far-successor",
            "one-ulp"])
    def test_pinned_cloud(self, measures, values):
        assert direct._hull(measures, values) == reference_hull(measures, values)
