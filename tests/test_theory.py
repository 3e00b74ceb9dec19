"""Regret-bound maths and the randomized verification suite: replayability
and batch pass rates."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gpbo import gp, pseudo, theory
from gpbo.domain import unit_symmetric
from gpbo.theory import (
    TheoryInstance,
    TheoryParams,
    check_correction_bounds,
    check_mean_error_envelope,
    check_mean_shift_identity,
    check_variance_reduction_identity,
    run_identity_suite,
)


class TestTheoremBeta:
    def test_theorem_mode_direct_evaluation(self):
        params = TheoryParams(tail_a=1.0, tail_b=1.0, domain_width=1.0, delta=0.1)
        got = theory._theorem_beta(1, 1, params)
        inner = 1.0 * math.sqrt(math.log(4.0 / 0.1))
        expected = 2.0 * math.log(2.0 * math.pi**2 / 0.3) + 2.0 * math.log(inner)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got > 0.0 and math.isfinite(got)


class TestVarianceReductionCheck:
    def test_random_instance_passes(self):
        report = check_variance_reduction_identity(
            TheoryInstance(dimension=2, n_base=5, n_pseudo=3, seed=42)
        )
        assert report.passed
        assert report.max_error <= 1e-8

    def test_no_pseudo_points_trivial(self):
        inst = TheoryInstance(dimension=2, n_base=4, n_pseudo=0, seed=1)
        report = check_variance_reduction_identity(inst)
        assert report.passed
        assert report.max_error == 0.0
        model, pp, queries, _ = theory.build_instance(inst)
        assert len(pp) == 0 and pp.points.shape == (0, 2) and pp.values.shape == (0,)
        # The same instance with pseudo-points has the same base model; a
        # zero-size parent draw leaves the generator as it was, so the queries
        # come straight after the base model's draws.
        with_pseudo, _, _, _ = theory.build_instance(replace(inst, n_pseudo=3))
        np.testing.assert_array_equal(model.data.points, with_pseudo.data.points)
        np.testing.assert_array_equal(model.data.observations, with_pseudo.data.observations)
        rng = np.random.default_rng(np.random.SeedSequence([inst.seed, 0x7E07]))
        domain = unit_symmetric(2)
        rng.uniform(0.3, 1.2, size=2)
        domain.sample(rng, 4)
        rng.normal(0.0, 1.0, size=4)
        np.testing.assert_array_equal(queries, domain.sample(rng, theory._N_QUERIES))

    def test_zero_tau_collision_path(self):
        inst = TheoryInstance(dimension=2, n_base=4, n_pseudo=3, tau=0.0, seed=2)
        report = check_variance_reduction_identity(inst)
        assert report.passed
        model, pp, _, _ = theory.build_instance(inst)
        np.testing.assert_array_equal(pp.points, model.data.points[pp.parent_index])
        np.testing.assert_array_equal(pp.values, model.data.observations[pp.parent_index])
        assert pp.tau == 0.0

    def test_replayable(self):
        inst = TheoryInstance(dimension=3, n_base=6, n_pseudo=2, seed=77)
        r1 = check_variance_reduction_identity(inst)
        r2 = check_variance_reduction_identity(inst)
        assert r1 == r2


class TestMeanShiftCheck:
    def test_random_instance_passes(self):
        report = check_mean_shift_identity(
            TheoryInstance(dimension=2, n_base=6, n_pseudo=4, seed=3)
        )
        assert report.passed
        assert report.max_error <= 1e-8

    def test_zero_tau_passes(self):
        report = check_mean_shift_identity(
            TheoryInstance(dimension=1, n_base=3, n_pseudo=2, tau=0.0, seed=4)
        )
        assert report.passed


class TestCorrectionBoundsCheck:
    def test_random_instance_passes(self):
        report = check_correction_bounds(
            TheoryInstance(dimension=2, n_base=7, n_pseudo=4, seed=5)
        )
        assert report.passed

    def test_detail_carries_magnitudes(self):
        report = check_correction_bounds(
            TheoryInstance(dimension=1, n_base=4, n_pseudo=2, seed=6)
        )
        assert "max_abs_p" in report.detail and "max_abs_m" in report.detail


class TestIdentitySuite:
    def test_batch_of_instances_passes(self):
        reports = run_identity_suite(seed=0, instances=200)
        assert len(reports) == 600
        failing = [r for r in reports if not r.passed]
        assert failing == []
        identity_errors = [
            r.max_error for r in reports if r.name.endswith("identity") and r.max_error > 0
        ]
        assert max(identity_errors) <= 1e-8

    def test_one_build_per_instance(self, monkeypatch):
        builds = []
        build = theory.build_instance

        def counted(instance):
            builds.append(instance)
            return build(instance)

        monkeypatch.setattr(theory, "build_instance", counted)
        reports = run_identity_suite(seed=3, instances=4)
        assert len(builds) == 4
        monkeypatch.setattr(theory, "build_instance", build)
        for i, inst in enumerate(builds):
            views = [check_variance_reduction_identity(inst), check_mean_shift_identity(inst),
                     check_correction_bounds(inst)]
            assert reports[3 * i:3 * i + 3] == views

    def test_two_factorizations_per_instance(self, monkeypatch):
        # One for the base model and one for the borrowed-value augmentation:
        # the true-value model and the closed forms reuse the latter's factor.
        calls = count_factorizations(monkeypatch)
        run_identity_suite(seed=3, instances=4)
        assert len(calls) == 2 * 4

    def test_reports_serializable(self):
        reports = run_identity_suite(seed=1, instances=2)
        for r in reports:
            d = r.to_dict()
            assert {"name", "passed", "max_error", "seed"} <= set(d)


def count_factorizations(monkeypatch):
    """A list that gets one entry per ``gp._augmented_factor`` call from now on."""
    calls = []
    original = gp._augmented_factor

    def counted(model, points):
        calls.append(len(points))
        return original(model, points)

    monkeypatch.setattr(gp, "_augmented_factor", counted)
    return calls


def slope_grid(d):
    """The envelope's slope grid: 96 rows per coordinate, each varying that
    coordinate through the box centre."""
    grid_axis = np.linspace(-1.0, 1.0, 96)
    grids = []
    for j in range(d):
        g = np.tile(unit_symmetric(d).center, (grid_axis.size, 1))
        g[:, j] = grid_axis
        grids.append(g)
    return np.vstack(grids), grid_axis[1] - grid_axis[0]


def two_model_envelope(instance, trials, theory_params):
    """The envelope's realized errors and bounds per trial, from two explicitly
    augmented models (borrowed and true values) and the per-coordinate slope
    loop: the route the closed-form check replaced.  The prior draw is the
    check's: the grid's rows first, then the base and pseudo rows added by
    gp's block update."""
    d = instance.dimension
    domain = unit_symmetric(d)
    grid, step = slope_grid(d)
    n_grid = grid.shape[0] // d
    realized, bounds = [], []
    for k in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([instance.seed, 0x5EED, k]))
        params = gp.KernelParams(np.full(d, 0.6), 1.0, instance.noise_variance)
        base = domain.sample(rng, instance.n_base)
        placeholder = gp.Dataset(base, np.zeros(instance.n_base))
        parents = rng.integers(0, instance.n_base, size=instance.n_pseudo)
        pp_shape = pseudo._place(placeholder, parents, instance.tau, domain, rng)
        queries = domain.sample(rng, 8)
        grid_prior = gp.build_model(gp.Dataset(grid, np.zeros(len(grid))),
                                    gp.KernelParams(np.full(d, 0.6), 1.0, 1e-10))
        factor, _ = gp._augmented_factor(grid_prior, np.vstack([base, pp_shape.points]))
        f_all = factor @ rng.standard_normal(factor.shape[0])
        n_b, n_p = instance.n_base, len(pp_shape)
        f_rest = f_all[len(grid):]
        slope = 0.0
        for j in range(d):
            vals = f_all[j * n_grid:(j + 1) * n_grid]
            slope = max(slope, float(np.max(np.abs(np.diff(vals)))) / step)
        sigma = math.sqrt(instance.noise_variance)
        y_base = f_rest[:n_b] + sigma * rng.standard_normal(n_b)
        model = gp.build_model(gp.Dataset(base, y_base), params)
        pp = replace(pp_shape, values=y_base[pp_shape.parent_index])
        y_true = f_rest[n_b:n_b + n_p] + sigma * rng.standard_normal(n_p)
        mu_hat, _ = gp.predict(pseudo.augmented_model(model, pp), queries)
        mu_tilde, _ = gp.predict(pseudo.augmented_model(model, replace(pp, values=y_true)), queries)
        realized.append(float(np.max(np.abs(mu_hat - mu_tilde))))
        bounds.append(theory.mean_error_bound(
            n_p, pp.tau, slope, instance.noise_variance, n_p, theory_params.delta, d))
    return np.array(realized), np.array(bounds)


ENVELOPE_INSTANCES = pytest.mark.parametrize("instance", [
    TheoryInstance(dimension=1, n_base=4, n_pseudo=2, tau=0.05, noise_variance=1e-2, seed=0),
    TheoryInstance(dimension=2, n_base=6, n_pseudo=3, tau=0.08, noise_variance=1e-3, seed=5),
    TheoryInstance(dimension=3, n_base=3, n_pseudo=4, tau=0.02, noise_variance=5e-2, seed=8),
], ids=["d1", "d2", "d3"])


class TestMeanErrorEnvelope:
    @ENVELOPE_INSTANCES
    def test_closed_form_matches_two_model_route(self, instance):
        params = TheoryParams()
        report = check_mean_error_envelope(instance, trials=25, theory=params)
        realized, bounds = two_model_envelope(instance, 25, params)
        assert report.detail["mean_realized"] == pytest.approx(np.mean(realized), rel=1e-10)
        assert report.detail["mean_envelope"] == float(np.mean(bounds))
        assert report.detail["exceedances"] == int(np.sum(realized > bounds))

    @ENVELOPE_INSTANCES
    def test_prior_draws_factor_the_joint_covariance(self, instance, monkeypatch):
        """Each trial samples with a factor of the prior covariance over
        [grid, base, pseudo] plus 1e-10 on the diagonal."""
        d = instance.dimension
        grid, _ = slope_grid(d)
        original = gp._augmented_factor
        draws = []

        def spy(model, points):
            factor, jitter = original(model, points)
            if len(model) == len(grid):
                draws.append((model.data.points, points, factor))
            return factor, jitter

        monkeypatch.setattr(gp, "_augmented_factor", spy)
        check_mean_error_envelope(instance, trials=5, theory=TheoryParams())
        assert len(draws) == 5
        params = gp.KernelParams(np.full(d, 0.6), 1.0, 1e-10)
        for prior_points, points, factor in draws:
            np.testing.assert_array_equal(prior_points, grid)
            assert points.shape == (instance.n_base + instance.n_pseudo, d)
            rows = np.vstack([grid, points])
            expected = gp.kernel_matrix(rows, rows, params) + 1e-10 * np.eye(len(rows))
            np.testing.assert_allclose(factor @ factor.T, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("trials", [1, 6])
    def test_two_factorizations_per_trial(self, trials, monkeypatch):
        # The grid's prior once per check; per trial, the prior draw's rows on
        # that factor and the mean shift's factor of the [base, pseudo] rows.
        instance = TheoryInstance(dimension=2, n_base=4, n_pseudo=3, tau=0.05, seed=7)
        calls = count_factorizations(monkeypatch)
        check_mean_error_envelope(instance, trials=trials, theory=TheoryParams())
        assert calls == [2 * 96] + [4 + 3] * (2 * trials)

    @pytest.mark.parametrize("sizes", [dict(tau=0.0, n_pseudo=2), dict(tau=0.05, n_pseudo=0)],
                             ids=["tau0", "no-pseudo"])
    def test_instance_without_pseudo_points_rejected(self, sizes):
        instance = TheoryInstance(dimension=1, n_base=4, noise_variance=1e-2, **sizes)
        with pytest.raises(ValueError, match="needs tau > 0 and n_pseudo > 0"):
            check_mean_error_envelope(instance, trials=5, theory=TheoryParams())

    def test_zero_trials_rejected(self):
        instance = TheoryInstance(dimension=1, n_base=4, n_pseudo=2, tau=0.05, noise_variance=1e-2)
        with pytest.raises(ValueError, match="needs at least 1 trial, got 0"):
            check_mean_error_envelope(instance, trials=0, theory=TheoryParams())

    def test_exceedance_under_threshold(self):
        report = check_mean_error_envelope(
            TheoryInstance(dimension=1, n_base=4, n_pseudo=2, tau=0.05,
                           noise_variance=1e-2, seed=0),
            trials=200,
            theory=TheoryParams(delta=0.2),
            threshold=0.2 + 0.05,
        )
        assert report.passed
        assert report.detail["trials"] == 200
        assert report.detail["mean_envelope"] > report.detail["mean_realized"]

    def test_single_pseudo_point_matches_spec_example(self):
        report = check_mean_error_envelope(
            TheoryInstance(dimension=1, n_base=3, n_pseudo=1, tau=0.03,
                           noise_variance=1e-2, seed=9),
            trials=300,
            theory=TheoryParams(delta=0.2),
            threshold=0.2 + 0.05,
        )
        assert report.passed

    def test_degenerate_noise_free_duplicates_shift_nothing(self):
        # tau = 0 with noise-free borrowed values: both augmentations coincide.
        rng = np.random.default_rng(11)
        params = gp.KernelParams(np.array([0.5]), 1.0, 1e-4)
        data = gp.Dataset(rng.uniform(-1, 1, (4, 1)), rng.normal(size=4))
        model = gp.build_model(data, params)
        pp = pseudo.PseudoPointSet(
            points=data.points[:2].copy(),
            values=data.observations[:2].copy(),
            parent_index=np.arange(2),
            tau=0.0,
        )
        # True values equal the borrowed ones when noise draws are zero.
        for x in rng.uniform(-1, 1, (8, 1)):
            assert pseudo.mean_shift(model, pp, pp.values, x) == pytest.approx(0.0, abs=1e-12)


class TestInstanceValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            TheoryInstance(dimension=0)
        with pytest.raises(ValueError):
            TheoryInstance(noise_variance=0.0)
        with pytest.raises(ValueError):
            TheoryInstance(tau=-0.1)

    @pytest.mark.parametrize("values", [
        {"tau": math.nan}, {"tau": math.inf}, {"noise_variance": math.nan},
        {"noise_variance": math.inf},
    ], ids=["tau-nan", "tau-inf", "noise-nan", "noise-inf"])
    def test_rejects_non_finite_values(self, values):
        with pytest.raises(ValueError, match="tau must be finite and >= 0, "
                                             "noise_variance finite and > 0"):
            TheoryInstance(**values)

    @pytest.mark.parametrize("values", [
        {"tail_a": math.nan}, {"tail_b": math.nan}, {"domain_width": math.inf},
        {"tail_a": 0.0}, {"domain_width": -1.0},
    ], ids=["tail-a-nan", "tail-b-nan", "width-inf", "tail-a-zero", "width-negative"])
    def test_params_reject_bad_constants(self, values):
        with pytest.raises(ValueError, match="all theory constants must be positive and finite"):
            TheoryParams(**values)
