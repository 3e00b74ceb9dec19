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
        report = check_variance_reduction_identity(
            TheoryInstance(dimension=2, n_base=4, n_pseudo=0, seed=1)
        )
        assert report.passed
        assert report.max_error == 0.0

    def test_zero_tau_collision_path(self):
        report = check_variance_reduction_identity(
            TheoryInstance(dimension=2, n_base=4, n_pseudo=3, tau=0.0, seed=2)
        )
        assert report.passed

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

    def test_reports_serializable(self):
        reports = run_identity_suite(seed=1, instances=2)
        for r in reports:
            d = r.to_dict()
            assert {"name", "passed", "max_error", "seed"} <= set(d)


def two_model_envelope(instance, trials, theory_params):
    """The envelope's realized errors and bounds per trial, from two explicitly
    augmented models (borrowed and true values) and the per-coordinate slope
    loop: the route the closed-form check replaced."""
    d = instance.dimension
    domain = unit_symmetric(d)
    realized, bounds = [], []
    for k in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([instance.seed, 0x5EED, k]))
        params = gp.KernelParams(np.full(d, 0.6), 1.0, instance.noise_variance)
        base = domain.sample(rng, instance.n_base)
        placeholder = gp.Dataset(base, np.zeros(instance.n_base))
        pp_shape = pseudo.generate(placeholder, theory._schedule_for(instance), domain, rng)
        queries = domain.sample(rng, 8)
        grid_axis = np.linspace(-1.0, 1.0, 96)
        grids = []
        for j in range(d):
            g = np.tile(domain.center, (grid_axis.size, 1))
            g[:, j] = grid_axis
            grids.append(g)
        everything = np.vstack([base, pp_shape.points] + grids)
        cov = gp.kernel_matrix(everything, everything, params)
        cov[np.diag_indices_from(cov)] += 1e-10
        f_all = np.linalg.cholesky(cov) @ rng.standard_normal(everything.shape[0])
        n_b, n_p = instance.n_base, len(pp_shape)
        f_grid = f_all[n_b + n_p:]
        step = grid_axis[1] - grid_axis[0]
        slope = 0.0
        for j in range(d):
            vals = f_grid[j * grid_axis.size:(j + 1) * grid_axis.size]
            slope = max(slope, float(np.max(np.abs(np.diff(vals)))) / step)
        sigma = math.sqrt(instance.noise_variance)
        y_base = f_all[:n_b] + sigma * rng.standard_normal(n_b)
        model = gp.build_model(gp.Dataset(base, y_base), params)
        pp = replace(pp_shape, values=y_base[pp_shape.parent_index])
        y_true = f_all[n_b:n_b + n_p] + sigma * rng.standard_normal(n_p)
        mu_hat, _ = gp.predict(pseudo.augmented_model(model, pp), queries)
        mu_tilde, _ = gp.predict(pseudo.augmented_model(model, replace(pp, values=y_true)), queries)
        realized.append(float(np.max(np.abs(mu_hat - mu_tilde))))
        bounds.append(theory.mean_error_bound(
            n_p, pp.tau, slope, instance.noise_variance, n_p, theory_params.delta, d))
    return np.array(realized), np.array(bounds)


class TestMeanErrorEnvelope:
    @pytest.mark.parametrize("instance", [
        TheoryInstance(dimension=1, n_base=4, n_pseudo=2, tau=0.05, noise_variance=1e-2, seed=0),
        TheoryInstance(dimension=2, n_base=6, n_pseudo=3, tau=0.08, noise_variance=1e-3, seed=5),
        TheoryInstance(dimension=3, n_base=3, n_pseudo=4, tau=0.02, noise_variance=5e-2, seed=8),
    ], ids=["d1", "d2", "d3"])
    def test_closed_form_matches_two_model_route(self, instance):
        params = TheoryParams()
        report = check_mean_error_envelope(instance, trials=25, theory=params)
        realized, bounds = two_model_envelope(instance, 25, params)
        assert report.detail["mean_realized"] == pytest.approx(np.mean(realized), rel=1e-10)
        assert report.detail["mean_envelope"] == float(np.mean(bounds))
        assert report.detail["exceedances"] == int(np.sum(realized > bounds))

    @pytest.mark.parametrize("sizes", [dict(tau=0.0, n_pseudo=2), dict(tau=0.05, n_pseudo=0)],
                             ids=["tau0", "no-pseudo"])
    def test_instance_without_pseudo_points_rejected(self, sizes):
        instance = TheoryInstance(dimension=1, n_base=4, noise_variance=1e-2, **sizes)
        with pytest.raises(ValueError, match="needs tau > 0 and n_pseudo > 0"):
            check_mean_error_envelope(instance, trials=5, theory=TheoryParams())

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
