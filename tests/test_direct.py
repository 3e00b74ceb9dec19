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


# --- reference: the one-point-per-call search the batched loop replaced ------


class _Budget(Exception):
    pass


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
        f_min = min(values)
        selected = []
        for pos, (measure, idx) in enumerate(candidates):
            value = values[idx]
            left = -math.inf
            for m2, i2 in candidates[:pos]:
                left = max(left, (value - values[i2]) / (measure - m2))
            right = math.inf
            for m2, i2 in candidates[pos + 1 :]:
                right = min(right, (values[i2] - value) / (m2 - measure))
            if left > right:
                continue
            if math.isfinite(right):
                if f_min != 0.0:
                    ok = epsilon <= (f_min - value) / abs(f_min) + measure * right / abs(f_min)
                else:
                    ok = value - measure * right <= 0.0
                if not ok:
                    continue
            selected.append(idx)
        return selected

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
    d = draw(st.integers(1, 3))
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
