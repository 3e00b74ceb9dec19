"""Acquisition value functions and the confidence-width schedules."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from gpbo import acquisition as acq


class TestNormalHelpers:
    """The standard normal cdf and pdf, through pi and ei at unit std and
    incumbent 0: pi_value(z, 1, 0) is cdf(z) and ei_value(z, 1, 0) is
    z*cdf(z) + pdf(z)."""

    def test_cdf_at_zero(self):
        assert acq.pi_value(0.0, 1.0, 0.0) == 0.5

    def test_pdf_at_zero(self):
        assert acq.ei_value(0.0, 1.0, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)

    def test_cdf_quantile(self):
        assert acq.pi_value(1.6448536, 1.0, 0.0) == pytest.approx(0.95, abs=1e-6)

    def test_cdf_against_reference(self):
        grid = np.linspace(-8, 8, 2001)
        ours = np.array([acq.pi_value(z, 1.0, 0.0) for z in grid])
        np.testing.assert_allclose(ours, ndtr(grid), atol=1e-12)
        assert np.all(ours >= 0.0) and np.all(ours <= 1.0)

    def test_pdf_against_reference(self):
        grid = np.linspace(-8, 8, 1001)
        ref = grid * ndtr(grid) + np.exp(-0.5 * grid**2) / math.sqrt(2 * math.pi)
        ours = np.array([acq.ei_value(z, 1.0, 0.0) for z in grid])
        np.testing.assert_allclose(ours, ref, atol=1e-12)


class TestProbabilityOfImprovement:
    def test_at_incumbent(self):
        assert acq.pi_value(1.0, 1.0, 1.0) == 0.5

    def test_zero_std_indicator(self):
        assert acq.pi_value(2.0, 0.0, 1.0) == 1.0
        assert acq.pi_value(1.0, 0.0, 1.0) == 0.0
        assert acq.pi_value(0.5, 0.0, 1.0) == 0.0

    def test_unit_gap(self):
        assert acq.pi_value(2.0, 1.0, 1.0) == pytest.approx(ndtr(1.0), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = acq.pi_value(rng.normal(), rng.uniform(0, 3), rng.normal())
            assert 0.0 <= v <= 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            acq.pi_value(math.nan, 1.0, 0.0)
        with pytest.raises(ValueError):
            acq.pi_value(0.0, math.inf, 0.0)


class TestExpectedImprovement:
    def test_zero_std_branch(self):
        assert acq.ei_value(5.0, 0.0, 1.0) == 0.0

    def test_at_incumbent(self):
        assert acq.ei_value(1.0, 1.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), abs=1e-12
        )

    def test_dominant_improvement_limit(self):
        assert acq.ei_value(4.0, 1e-9, 1.0) == pytest.approx(3.0, rel=1e-9)

    def test_nonnegative_and_above_mean_gap(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            mean, std, inc = rng.normal(), rng.uniform(0, 2), rng.normal()
            v = acq.ei_value(mean, std, inc)
            assert v >= 0.0
            assert v >= max(0.0, mean - inc) - 1e-12

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(2)
        mean, std, inc = 0.3, 0.8, 0.5
        draws = rng.normal(mean, std, size=1_000_000)
        improvement = np.maximum(draws - inc, 0.0)
        mc = improvement.mean()
        se = improvement.std(ddof=1) / math.sqrt(draws.size)
        assert abs(acq.ei_value(mean, std, inc) - mc) < 3 * se

    def test_continuity_near_zero_std(self):
        v_small = acq.ei_value(0.2, 1e-12, 0.5)
        assert v_small == pytest.approx(0.0, abs=1e-9)


class TestUpperConfidenceBound:
    def test_zero_beta_is_mean(self):
        assert acq.ucb_value(0.7, 2.0, 0.0) == 0.7

    def test_simple_substitution(self):
        assert acq.ucb_value(0.0, 1.0, 4.0) == 2.0

    def test_monotone_in_std(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            mean, beta = rng.normal(), rng.uniform(0, 10)
            s1, s2 = sorted(rng.uniform(0, 3, size=2))
            assert acq.ucb_value(mean, s2, beta) >= acq.ucb_value(mean, s1, beta)

    def test_ordering_invariant_under_mean_shift(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m1, m2 = rng.normal(size=2)
            s1, s2 = rng.uniform(0, 2, size=2)
            beta, c = rng.uniform(0, 9), rng.normal() * 10
            base = acq.ucb_value(m1, s1, beta) - acq.ucb_value(m2, s2, beta)
            shifted = acq.ucb_value(m1 + c, s1, beta) - acq.ucb_value(m2 + c, s2, beta)
            assert math.copysign(1, base) == math.copysign(1, shifted) or abs(base) < 1e-12


class TestBetaSchedule:
    def test_experiment_mode_value(self):
        expected = 2.0 * math.log(math.pi**2 / 0.3)
        assert acq.beta_schedule(1, 2, 0.1) == pytest.approx(expected, rel=1e-12)
        assert acq.beta_schedule(1, 2, 0.1) == pytest.approx(6.9868, abs=2e-4)

    def test_experiment_mode_increases_with_t(self):
        values = [acq.beta_schedule(t, 3, 0.1) for t in range(1, 50)]
        assert all(b2 > b1 for b1, b2 in zip(values, values[1:]))

    def test_delta_domain_errors(self):
        with pytest.raises(ValueError):
            acq.beta_schedule(1, 2, 0.0)
        with pytest.raises(ValueError):
            acq.beta_schedule(1, 2, 1.0)
        with pytest.raises(ValueError):
            acq.beta_schedule(0, 2, 0.5)


class TestContinuity:
    def test_all_three_continuous_for_positive_std(self):
        rng = np.random.default_rng(5)
        eps = 1e-9
        for _ in range(100):
            mean, std, inc, beta = rng.normal(), rng.uniform(0.1, 2), rng.normal(), 2.0
            for fn in (
                lambda m, s: acq.pi_value(m, s, inc),
                lambda m, s: acq.ei_value(m, s, inc),
                lambda m, s: acq.ucb_value(m, s, beta),
            ):
                base = fn(mean, std)
                assert abs(fn(mean + eps, std) - base) < 1e-6
                assert abs(fn(mean, std + eps) - base) < 1e-6


class TestAcquisitionSpec:
    @pytest.mark.parametrize("kind", ["pi", "ei", "ucb"])
    def test_array_values_match_ndtr_reference(self, kind):
        rng = np.random.default_rng(31)
        mean = np.concatenate([rng.normal(size=400), [0.3, 0.3, 0.2, 0.4, -1e-300]])
        std = np.concatenate([np.abs(rng.normal(size=400)) * 10.0 ** rng.uniform(-9, 1, 400),
                              [0.0, 1e-300, 0.0, 0.0, 0.0]])
        std[::7] = 0.0
        values = acq.AcquisitionSpec(kind, incumbent=0.3, beta=3.7).values(mean, std)
        assert values.shape == mean.shape
        if kind == "ucb":
            np.testing.assert_array_equal(values, mean + math.sqrt(3.7) * std)
            return
        point = std == 0.0
        gap = mean[~point] - 0.3
        z = gap / std[~point]
        if kind == "pi":
            spread, at_point = ndtr(z), np.where(mean[point] > 0.3, 1.0, 0.0)
        else:
            spread = gap * ndtr(z) + std[~point] * np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
            at_point = np.zeros(point.sum())
        np.testing.assert_allclose(values[~point], spread, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(values[point], at_point)

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["pi", "ei"]),
        rows=st.lists(st.tuples(st.floats(-1e6, 1e6),
                                st.floats(1e-300, 1e3) | st.sampled_from([1e-300, 5e-324, 1e-8])),
                      min_size=1, max_size=40),
        incumbent=st.floats(-1e3, 1e3),
        bad=st.integers(0, 39),
    )
    # A std of 1e-300 under gaps of zero, one and far beyond the spread.
    @example(kind="ei", rows=[(0.3, 1e-300), (1.3, 1e-300), (-1e6, 1e-300)], incumbent=0.3, bad=0)
    @example(kind="pi", rows=[(0.3, 1e-300), (1e6, 1e-300), (-1e6, 1.0)], incumbent=0.3, bad=1)
    # Gaps many spreads wide, where the cdf saturates and the pdf underflows.
    @example(kind="ei", rows=[(1e6, 1e-3), (-1e6, 1e-3), (40.0, 1.0)], incumbent=0.0, bad=2)
    def test_positive_std_batch_has_the_masked_bits(self, kind, rows, incumbent, bad):
        # Every std positive: the batch is scored whole.  The same rows beside
        # a zero-std row go through the mask and must give the same bytes.
        spec = acq.AcquisitionSpec(kind, incumbent=incumbent)
        mean, std = (np.array(column) for column in zip(*rows))
        # Near std = 5e-324, z * z overflows to inf and the pdf reads exp(-inf) = 0
        # on both paths; the comparison covers those entries too.
        with np.errstate(over="ignore"):
            whole = spec.values(mean, std)
            masked = spec.values(np.append(mean, incumbent + 1.0), np.append(std, 0.0))
        assert whole.tobytes() == masked[:-1].tobytes()
        assert masked[-1] == (1.0 if kind == "pi" else 0.0)
        # The checks still run first when every other std is positive.
        k = bad % len(rows)
        for column, value in ((mean, math.nan), (std, math.inf), (std, -std[k])):
            spoiled = column.copy()
            spoiled[k] = value
            args = (spoiled, std) if column is mean else (mean, spoiled)
            with pytest.raises(ValueError):
                spec.values(*args)

    @pytest.mark.parametrize("kind", ["pi", "ei"])
    @pytest.mark.parametrize("shape", [(), (3, 4)], ids=["scalar", "matrix"])
    def test_values_keep_the_input_shape(self, kind, shape):
        # Both paths score any shape entry by entry, as they do a vector.
        rng = np.random.default_rng(32)
        mean, std = rng.normal(size=shape), rng.uniform(0.1, 2.0, size=shape)
        spec = acq.AcquisitionSpec(kind, incumbent=0.1)
        whole = spec.values(mean, std)
        flat = spec.values(np.append(mean, 0.0), np.append(std, 0.0))[:-1]
        assert whole.shape == np.shape(mean)
        assert whole.tobytes() == flat.tobytes()
        if shape:
            point = std.copy()
            point[0, 0] = 0.0
            masked = spec.values(mean, point)
            assert masked.shape == shape
            assert masked[1:].tobytes() == whole[1:].tobytes()

    @pytest.mark.parametrize("kind", ["pi", "ei"])
    def test_array_values_reject_bad_inputs(self, kind):
        spec = acq.AcquisitionSpec(kind, incumbent=0.0)
        with pytest.raises(ValueError):
            spec.values(np.array([0.0, math.nan]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            spec.values(np.array([0.0]), np.array([-1.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            acq.AcquisitionSpec("entropy")
        with pytest.raises(ValueError):
            acq.AcquisitionSpec("pi", incumbent=math.inf)
        with pytest.raises(ValueError):
            acq.AcquisitionSpec("ucb", beta=-1.0)
        with pytest.raises(ValueError):
            acq.ucb_value(0.0, 1.0, math.inf)
