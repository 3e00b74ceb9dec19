"""Pseudo-point generation rules and the closed-form correction identities.

Oracles here are deliberately independent of the closed forms: variance
reduction is checked against the difference of two separately computed
posteriors, and the mean shift against a pair of explicitly augmented
models.
"""

from dataclasses import replace

import numpy as np
import pytest

from gpbo import gp, pseudo
from gpbo.domain import BoxDomain, unit_symmetric
from gpbo.gp import Dataset, KernelParams
from gpbo.pseudo import PseudoPointSet, PseudoSchedule


def make_model(rng, n=5, d=2, noise=1e-2, amplitude=1.0):
    params = KernelParams(
        lengthscales=rng.uniform(0.3, 1.0, size=d),
        amplitude=amplitude,
        noise_variance=noise,
    )
    data = Dataset(rng.uniform(-1, 1, (n, d)), rng.normal(size=n))
    return gp.build_model(data, params), data


def generated(rng, data, tau0=0.02, domain=None):
    domain = domain or unit_symmetric(data.dimension)
    return pseudo.generate(data, PseudoSchedule(tau0=tau0), domain, rng)


def reference_generate(data, parents, tau0, domain, rng):
    """The scalar collision scan: every candidate against a Python list of
    every point taken so far."""
    tau = float(np.max(domain.widths)) * tau0 / (domain.dimension * len(parents))
    taken = [data.points[i] for i in range(len(data))]
    points = []
    for parent_idx in parents:
        for _ in range(pseudo._MAX_REDRAWS + 1):
            signs = rng.integers(0, 2, size=domain.dimension) * 2.0 - 1.0
            candidate = pseudo._displace(data.points[parent_idx], signs, tau, domain)
            if not any(np.all(np.abs(candidate - q) <= pseudo._COLLISION_TOL) for q in taken):
                break
        points.append(candidate)
        taken.append(candidate)
    return PseudoPointSet(np.array(points), data.observations[parents].copy(),
                          np.asarray(parents, dtype=int), tau)


class TestGenerate:
    def test_disabled_schedule_yields_empty(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.uniform(-1, 1, (4, 2)), rng.normal(size=4))
        pp = pseudo.generate(data, PseudoSchedule(tau0=0.0), unit_symmetric(2), rng)
        assert len(pp) == 0

    def test_disabled_schedule_consumes_no_draws(self):
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        data = Dataset(rng1.uniform(-1, 1, (4, 2)), np.zeros(4))
        pseudo.generate(data, PseudoSchedule(tau0=0.0), unit_symmetric(2), rng1)
        np.random.default_rng(3).uniform(-1, 1, (4, 2))  # replay rng2 to rng1's state
        rng2.uniform(-1, 1, (4, 2))
        assert rng1.standard_normal() == rng2.standard_normal()

    def test_empty_data_yields_empty_without_draws(self):
        """One pseudo-point per observation: none, and no draws, for no data."""
        rng = np.random.default_rng(25)
        state = rng.bit_generator.state
        pp = pseudo.generate(gp.empty_dataset(2), PseudoSchedule(tau0=0.01), unit_symmetric(2), rng)
        assert len(pp) == 0 and pp.tau == 0.0
        assert rng.bit_generator.state == state

    def test_schedule_arithmetic(self):
        # 5 points in [-1,1]^2 with tau0=0.01: tau = 2*0.01/(2*5) = 0.002.
        rng = np.random.default_rng(1)
        data = Dataset(rng.uniform(-1, 1, (5, 2)), rng.normal(size=5))
        pp = generated(rng, data, tau0=0.01)
        assert len(pp) == 5
        assert pp.tau == pytest.approx(2 * 0.01 / (2 * 5), rel=1e-15)
        # The width is the domain's widest side: 4 in [0,1] x [-2,2].
        wide = BoxDomain(np.array([0.0, -2.0]), np.array([1.0, 2.0]))
        pp = generated(rng, Dataset(rng.uniform(0, 1, (5, 2)), np.zeros(5)), 0.01, wide)
        assert pp.tau == 4 * 0.01 / (2 * 5)

    def test_displacement_is_exact_corner(self):
        rng = np.random.default_rng(2)
        data = Dataset(np.zeros((1, 2)), [0.7])
        schedule = PseudoSchedule(tau0=0.1)  # tau = 2*0.1/(2*1) = 0.1
        pp = pseudo.generate(data, schedule, unit_symmetric(2), rng)
        assert pp.tau == pytest.approx(0.1)
        assert np.all(np.abs(np.abs(pp.points[0]) - 0.1) < 1e-15)
        assert pp.values[0] == 0.7

    def test_values_copied_exactly(self):
        rng = np.random.default_rng(4)
        data = Dataset(rng.uniform(-1, 1, (6, 3)), rng.normal(size=6))
        pp = generated(rng, data)
        assert np.array_equal(pp.values, data.observations[pp.parent_index])

    def test_exact_distance_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            d = int(rng.integers(1, 4))
            data = Dataset(rng.uniform(-1, 1, (n, d)), rng.normal(size=n))
            pp = generated(rng, data, tau0=float(rng.uniform(0.001, 0.05)))
            parents = data.points[pp.parent_index]
            offsets = np.abs(pp.points - parents)
            # tau is far below the box width, so no coordinate needs clipping.
            assert np.allclose(offsets, pp.tau, rtol=0, atol=1e-15)

    def test_boundary_flip_preserves_distance(self):
        rng = np.random.default_rng(6)
        # Parent on the right edge: +tau leaves the box, sign must flip.
        data = Dataset(np.array([[1.0]]), [0.0])
        schedule = PseudoSchedule(tau0=0.05)  # tau = 2*0.05/(1*1) = 0.1
        for _ in range(10):
            pp = pseudo.generate(data, schedule, unit_symmetric(1), rng)
            assert pp.points[0, 0] == pytest.approx(0.9)
            assert abs(pp.points[0, 0] - 1.0) == pytest.approx(pp.tau, rel=0, abs=1e-15)

    def test_boundary_clip_flags_coordinate(self):
        rng = np.random.default_rng(7)
        domain = BoxDomain(np.array([0.0]), np.array([0.05]))
        data = Dataset(np.array([[0.02]]), [0.0])
        schedule = PseudoSchedule(tau0=0.05)
        pp = pseudo.generate(data, schedule, domain, rng)
        # tau = 0.05*0.05/1 = 0.0025 and both signs fit: the coordinate is free,
        # so it sits exactly tau from its parent.
        assert pp.tau == pytest.approx(0.0025)
        assert abs(pp.points[0, 0] - 0.02) == pytest.approx(pp.tau, rel=0, abs=1e-15)

    def test_both_sides_out_clips(self):
        rng = np.random.default_rng(8)
        domain = BoxDomain(np.array([0.0]), np.array([0.01]))
        data = Dataset(np.array([[0.005]]), [1.0])
        # tau bigger than the box: width 0.01, tau0 = 10 -> tau = 0.1
        schedule = PseudoSchedule(tau0=10.0)
        pp = pseudo.generate(data, schedule, domain, rng)
        # Both signs leave the box: the coordinate is clipped onto its boundary.
        assert pp.points[0, 0] in (0.0, 0.01)

    def test_collision_redraw_accepts_eventually(self):
        rng = np.random.default_rng(9)
        # One-point dataset in 1-d: both displacement signs collide with a
        # pre-placed twin, so redraws exhaust and the point is accepted.
        data = Dataset(np.array([[0.0], [0.1], [-0.1]]), [0.0, 1.0, 2.0])
        schedule = PseudoSchedule(tau0=0.15)  # tau = 2*0.15/(1*3) = 0.1
        pp = pseudo.generate(data, schedule, unit_symmetric(1), rng)
        assert len(pp) == 3

    @pytest.mark.parametrize("tau0", [0.018, 1e-12])
    def test_collision_scan_matches_scalar_reference(self, tau0):
        # Duplicate parents at a box corner (every sign flips back inside, so
        # all their candidates coincide) and at an interior point; the tiny
        # tau0 puts every candidate within the collision tolerance of its parent.
        corner, inner = np.ones(3), np.array([0.2, -0.4, 0.1])
        data = Dataset(np.array([corner, corner, corner, inner, inner, inner]),
                       np.arange(6.0))
        tau = 2.0 * tau0 / (3 * 12)
        domain = unit_symmetric(3)
        rng = np.random.default_rng(12)
        pp = pseudo._place(data, rng.integers(0, 6, size=12), tau, domain, rng)
        ref_rng = np.random.default_rng(12)
        ref = reference_generate(data, ref_rng.integers(0, 6, size=12), tau0, domain, ref_rng)
        for name in ("points", "values", "parent_index"):
            np.testing.assert_array_equal(getattr(pp, name), getattr(ref, name))
        assert pp.tau == ref.tau
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_random_placements_match_scalar_reference(self, d):
        # Points on a grid of step tau make many candidates land on a point.
        rng = np.random.default_rng(40 + d)
        tau0 = 0.5
        tau = 2.0 * tau0 / (d * 30)
        data = Dataset(rng.integers(-1, 2, (20, d)) * tau, rng.normal(size=20))
        domain = unit_symmetric(d)
        parents = rng.integers(0, 20, size=30)
        pp = pseudo._place(data, parents, tau, domain, np.random.default_rng(7))
        ref_rng = np.random.default_rng(7)
        ref = reference_generate(data, parents, tau0, domain, ref_rng)
        assert pp.points.shape == (30, d) and pp.points.flags.c_contiguous
        assert pp.points.tobytes() == ref.points.tobytes()

    def test_fixed_mode_count(self):
        rng = np.random.default_rng(10)
        data = Dataset(rng.uniform(-1, 1, (5, 2)), rng.normal(size=5))
        pp = pseudo._place(data, rng.integers(0, 5, size=3), 2.0 * 0.01 / (2 * 3),
                           unit_symmetric(2), rng)
        assert len(pp) == 3
        assert np.all((0 <= pp.parent_index) & (pp.parent_index < 5))


class TestAugmentedPosterior:
    def test_empty_set_identity(self):
        rng = np.random.default_rng(11)
        model, _ = make_model(rng)
        x = rng.uniform(-1, 1, 2)
        empty = pseudo.empty_pseudo_set(2)
        assert gp.posterior(pseudo.augmented_model(model, empty), x) == gp.posterior(model, x)

    def test_matches_dense_joint_system(self):
        rng = np.random.default_rng(12)
        model, data = make_model(rng, n=3)
        pp = generated(rng, data, tau0=0.05)
        pp = PseudoPointSet(pp.points[:2], pp.values[:2], pp.parent_index[:2], pp.tau)
        x = rng.uniform(-1, 1, 2)
        mean, var = gp.posterior(pseudo.augmented_model(model, pp), x)
        joint_pts = np.vstack([data.points, pp.points])
        joint_y = np.concatenate([data.observations, pp.values])
        p = model.params
        K = gp.kernel_matrix(joint_pts, joint_pts, p) + p.noise_variance * np.eye(5)
        k = gp.kernel_matrix(joint_pts, x.reshape(1, -1), p)[:, 0]
        A = np.linalg.inv(K)
        assert mean == pytest.approx(k @ A @ joint_y, abs=1e-8)
        assert var == pytest.approx(p.amplitude - k @ A @ k, abs=1e-8)

    def test_variance_never_above_base(self):
        rng = np.random.default_rng(13)
        model, data = make_model(rng, n=6)
        pp = generated(rng, data)
        aug = pseudo.augmented_model(model, pp)
        queries = rng.uniform(-1, 1, (50, 2))
        _, base_var = gp.predict(model, queries)
        _, aug_var = gp.predict(aug, queries)
        assert np.all(aug_var <= base_var + 1e-9)

    def test_variance_independent_of_values(self):
        rng = np.random.default_rng(14)
        model, data = make_model(rng)
        pp = generated(rng, data)
        other = replace(pp, values=pp.values + rng.normal(size=len(pp)))
        queries = rng.uniform(-1, 1, (20, 2))
        _, var_a = gp.predict(pseudo.augmented_model(model, pp), queries)
        _, var_b = gp.predict(pseudo.augmented_model(model, other), queries)
        assert np.array_equal(var_a, var_b)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_small_tau_limit_is_halved_noise(self, seed):
        # Each observed point gets one pseudo-point with its value.  As tau -> 0
        # the pair acts as one observation with noise sigma^2 / 2, and the
        # posterior gap to that model shrinks linearly in tau.
        rng = np.random.default_rng(seed)
        model, data = make_model(rng, n=30, noise=1e-4)
        p = model.params
        halved_noise = KernelParams(p.lengthscales, p.amplitude, p.noise_variance / 2)
        halved = gp.build_model(data, halved_noise)
        assert model.jitter == 0.0 and halved.jitter == 0.0
        queries = rng.uniform(-1, 1, (500, 2))
        half_mean, half_var = gp.predict(halved, queries)
        gaps = []
        for tau0 in (1e-3, 1e-4, 1e-5):
            # The same generator seed gives the same displacement signs at every tau.
            pp = generated(np.random.default_rng(seed), data, tau0=tau0)
            augmented = pseudo.augmented_model(model, pp)
            assert augmented.jitter == 0.0
            mean, var = gp.predict(augmented, queries)
            gaps.append([np.max(np.abs(mean - half_mean)), np.max(np.abs(var - half_var))])
        ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
        assert np.all((ratios >= 8) & (ratios <= 12)), gaps

    def test_pairs_are_a_mean_and_a_difference_observation(self):
        # A parent (x, y) and its pseudo row (x', y), each with noise s^2, carry
        # the information of two other observations: the pair's mean
        # (f(x) + f(x')) / 2 observed as y with noise s^2 / 2, and
        # f(x') - f(x) observed as 0 with noise 2 s^2.  The dense posterior
        # from those, built from kernel_matrix alone, is the augmented one.
        rng = np.random.default_rng(2020)
        flips = clips = 0
        for _ in range(300):
            d, n = int(rng.integers(1, 5)), int(rng.integers(1, 12))
            params = KernelParams(lengthscales=rng.uniform(0.2, 1.5, d),
                                  amplitude=float(rng.uniform(0.5, 2.0)),
                                  noise_variance=float(10.0 ** rng.uniform(-4, -1)))
            points = rng.uniform(-1, 1, (n, d))
            # Coordinates on the boundary make the placement flip and, when
            # tau exceeds the box, clip.
            edge = rng.random((n, d)) < 0.3
            points[edge] = rng.choice([-1.0, 1.0], size=int(edge.sum()))
            data = Dataset(points, rng.normal(size=n))
            pp = pseudo.generate(data, PseudoSchedule(float(10.0 ** rng.uniform(-2, np.log10(5)))),
                                 unit_symmetric(d), rng)
            augmented = pseudo.augmented_model(gp.build_model(data, params), pp)
            queries = rng.uniform(-1, 1, (20, d))
            mean, var = gp.predict(augmented, queries)

            parents = data.points[pp.parent_index]
            steps = np.abs(pp.points - parents)
            clips += int(np.sum(steps < pp.tau * (1 - 1e-9)))
            flips += int(np.sum((np.abs(parents) + pp.tau > 1.0) & (np.abs(parents) - pp.tau >= -1.0)))
            # f at the parents, then at the pseudo rows, mapped to (pair mean, difference).
            half, eye = 0.5 * np.eye(n), np.eye(n)
            transform = np.block([[half, half], [-eye, eye]])
            stacked = np.vstack([parents, pp.points])
            noise = params.noise_variance + augmented.jitter  # the jitter sits on every row
            cov = transform @ gp.kernel_matrix(stacked, stacked, params) @ transform.T
            cov += np.diag(np.concatenate([np.full(n, noise / 2), np.full(n, 2 * noise)]))
            cross = transform @ gp.kernel_matrix(stacked, queries, params)
            observed = np.concatenate([pp.values, np.zeros(n)])
            dense_mean = cross.T @ np.linalg.solve(cov, observed)
            dense_var = params.amplitude - np.sum(cross * np.linalg.solve(cov, cross), axis=0)
            np.testing.assert_allclose(mean, dense_mean, rtol=0, atol=1e-8)
            np.testing.assert_allclose(var, dense_var, rtol=0, atol=1e-8)
        assert flips > 0 and clips > 0


class TestVarianceReduction:
    def test_empty_set_is_zero(self):
        rng = np.random.default_rng(15)
        model, _ = make_model(rng)
        assert pseudo.variance_reduction(model, pseudo.empty_pseudo_set(2), np.zeros(2)) == 0.0

    def test_single_point_closed_form(self):
        rng = np.random.default_rng(16)
        model, data = make_model(rng, n=4, amplitude=1.0)
        pp_full = generated(rng, data, tau0=0.05)
        pp = PseudoPointSet(
            pp_full.points[:1], pp_full.values[:1], pp_full.parent_index[:1], pp_full.tau
        )
        x = rng.uniform(-1, 1, 2)
        noise = model.params.noise_variance
        # With one pseudo-point: reduction = p_1^2 / (base_var(x') + noise).
        p_mat, _, _ = pseudo.correction_terms(model, pp, x.reshape(1, -1))
        _, var_at_pp = gp.posterior(model, pp.points[0])
        expected = p_mat[0, 0] ** 2 / (var_at_pp + noise)
        assert pseudo.variance_reduction(model, pp, x) == pytest.approx(expected, abs=1e-10)

    def test_matches_posterior_difference(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 4))
            model, data = make_model(rng, n=n, d=d)
            pp = generated(rng, data, tau0=float(rng.uniform(0.005, 0.08)))
            aug = pseudo.augmented_model(model, pp)
            for x in rng.uniform(-1, 1, (4, d)):
                closed = pseudo.variance_reduction(model, pp, x)
                _, base_var = gp.posterior(model, x)
                _, aug_var = gp.posterior(aug, x)
                assert closed == pytest.approx(base_var - aug_var, abs=1e-8)
                assert closed >= 0.0

    def test_closed_form_gets_the_jitter_ladder(self):
        # Noise so small that 1 + noise rounds to 1: a pseudo-point on the
        # observed point makes the Schur block singular.  The augmented model
        # builds with jitter, and the closed form must take the same ladder.
        params = KernelParams(lengthscales=np.array([0.5]), amplitude=1.0, noise_variance=1e-17)
        model = gp.build_model(Dataset(np.array([[0.3]]), [0.1]), params)
        pp = PseudoPointSet(np.array([[0.3]]), np.array([0.1]), np.array([0]), 0.0)
        aug = pseudo.augmented_model(model, pp)
        assert aug.jitter > 0.0
        for q in (0.0, 0.3, -0.7):
            closed = pseudo.variance_reduction(model, pp, np.array([q]))
            _, base_var = gp.posterior(model, [q])
            _, aug_var = gp.posterior(aug, [q])
            assert closed >= 0.0
            assert closed == pytest.approx(base_var - aug_var, abs=1e-9)

    def test_closed_forms_follow_the_joint_jitter(self):
        # The singular Schur block sends gp.augment to a fresh joint
        # factorization with jitter on every row; the closed forms must
        # describe that model, measuring the variance drop from the base
        # posterior at the same jitter.
        params = KernelParams(lengthscales=np.array([0.5]), amplitude=1.0, noise_variance=1e-17)
        model = gp.build_model(Dataset(np.array([[0.3]]), [0.1]), params)
        pp = PseudoPointSet(np.array([[0.3]]), np.array([0.1]), np.array([0]), 0.0)
        borrowed = pseudo.augmented_model(model, pp)
        true = pseudo.augmented_model(model, replace(pp, values=np.array([1.1])))
        assert model.jitter == 0.0 and borrowed.jitter > 0.0
        jittered = replace(params, noise_variance=params.noise_variance + borrowed.jitter)
        base = gp.build_model(model.data, jittered)
        queries = np.array([[0.3], [0.0], [-0.7]])
        mean_borrowed, var_augmented = gp.predict(borrowed, queries)
        mean_true, _ = gp.predict(true, queries)
        _, var_base = gp.predict(base, queries)
        shift = pseudo.mean_shift(model, pp, [1.1], queries)
        np.testing.assert_allclose(shift, mean_borrowed - mean_true, rtol=1e-5)
        assert shift[0] == pytest.approx(0.1 - 0.6, abs=1e-5)
        reduction = pseudo.variance_reduction(model, pp, queries)
        np.testing.assert_allclose(reduction, var_base - var_augmented, rtol=1e-3)
        assert np.all(reduction > 0.0)

    def test_a_point_has_the_same_bits_alone_and_in_a_batch(self):
        # The closed forms sum sequentially per query, as gp.predict does, so
        # a point's result does not depend on what else is queried with it,
        # the jittered joint factor's blocks included.
        rng = np.random.default_rng(30)
        cases = []
        for _ in range(20):
            n, d = int(rng.integers(1, 13)), int(rng.integers(1, 4))
            model, data = make_model(rng, n=n, d=d, noise=float(rng.uniform(1e-4, 1e-1)))
            cases.append((model, generated(rng, data, tau0=float(rng.uniform(0.005, 0.08)))))
        params = KernelParams(lengthscales=np.array([0.5]), amplitude=1.0, noise_variance=1e-17)
        cases.append((gp.build_model(Dataset(np.array([[0.3], [0.9]]), [0.1, 0.4]), params),
                      PseudoPointSet(np.array([[0.3]]), np.array([0.1]), np.array([0]), 0.0)))
        assert pseudo.augmented_model(*cases[-1]).jitter > 0.0
        for model, pp in cases:
            d = model.data.dimension
            queries = rng.uniform(-1, 1, (5, d))
            true_vals = pp.values + rng.normal(0, 0.5, size=len(pp))
            for closed in (lambda x: pseudo.variance_reduction(model, pp, x),
                           lambda x: pseudo.mean_shift(model, pp, true_vals, x)):
                batch = closed(queries)
                assert closed(queries[::-1]).tobytes() == batch[::-1].tobytes()
                assert closed(queries[:1]).tobytes() == batch[:1].tobytes()
                assert np.float64(closed(queries[0])).tobytes() == batch[:1].tobytes()

    @pytest.mark.parametrize("n", [0, 4])
    def test_non_finite_query_rejected(self, n):
        # The queries are checked before the empty set's zero answer.
        rng = np.random.default_rng(31)
        model, _ = make_model(rng, n=n)
        one = PseudoPointSet(np.array([[0.1, 0.2]]), np.array([0.5]), np.array([0]), 0.01)
        for pp in (one, pseudo.empty_pseudo_set(2)):
            values = pp.values - 0.5
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError, match="finite"):
                    pseudo.variance_reduction(model, pp, np.array([bad, 0.0]))
                with pytest.raises(ValueError, match="finite"):
                    pseudo.mean_shift(model, pp, values, np.array([[0.0, 0.0], [0.0, bad]]))
                with pytest.raises(ValueError, match="finite"):
                    pseudo.correction_terms(model, pp, np.array([[bad, 0.0]]))
            for wide in (np.zeros(3), np.zeros((2, 3))):
                with pytest.raises(ValueError, match="dimension"):
                    pseudo.variance_reduction(model, pp, wide)
                with pytest.raises(ValueError, match="dimension"):
                    pseudo.mean_shift(model, pp, values, wide)
                with pytest.raises(ValueError, match="dimension"):
                    pseudo.correction_terms(model, pp, wide)

    def test_reduction_plus_augmented_equals_base(self):
        rng = np.random.default_rng(18)
        model, data = make_model(rng, n=7)
        pp = generated(rng, data)
        aug = pseudo.augmented_model(model, pp)
        for x in rng.uniform(-1, 1, (16, 2)):
            _, base_var = gp.posterior(model, x)
            _, aug_var = gp.posterior(aug, x)
            dv = pseudo.variance_reduction(model, pp, x)
            assert aug_var + dv == pytest.approx(base_var, abs=1e-8)


class TestOneBlockUpdate:
    def test_s_factor_is_augments_lower_right_block(self):
        # The closed forms and the augmented model share gp's block update,
        # so S's factor is bit for bit the new rows' block of augment's factor.
        rng = np.random.default_rng(29)
        for _ in range(20):
            n, d = int(rng.integers(1, 13)), int(rng.integers(1, 4))
            model, data = make_model(rng, n=n, d=d, noise=float(rng.uniform(1e-4, 1e-1)))
            pp = generated(rng, data, tau0=float(rng.uniform(0.005, 0.08)))
            aug = pseudo.augmented_model(model, pp)
            assert aug.jitter == model.jitter
            _, _, s_lower = pseudo.correction_terms(model, pp, rng.uniform(-1, 1, (3, d)))
            np.testing.assert_array_equal(s_lower, aug.factor[n:, n:])

    def test_views_are_the_core_on_the_held_factor(self):
        # Each public closed form is the core, pseudo._p_and_s, on the factor
        # of the model augmented by the pseudo rows, byte for byte: with and
        # without base rows, on the jittered joint factor, and for a point
        # as for a batch.
        rng = np.random.default_rng(33)
        cases = []
        for _ in range(20):
            n, d = int(rng.integers(0, 13)), int(rng.integers(1, 4))
            model, data = make_model(rng, n=n, d=d, noise=float(rng.uniform(1e-4, 1e-1)))
            if n:
                pp = generated(rng, data, tau0=float(rng.uniform(0.005, 0.08)))
            else:
                l = int(rng.integers(1, 7))
                pp = PseudoPointSet(rng.uniform(-1, 1, (l, d)), rng.normal(size=l),
                                    np.zeros(l, dtype=int), 0.0)
            cases.append((model, pp))
        params = KernelParams(lengthscales=np.array([0.5]), amplitude=1.0, noise_variance=1e-17)
        cases.append((gp.build_model(Dataset(np.array([[0.3], [0.9]]), [0.1, 0.4]), params),
                      PseudoPointSet(np.array([[0.3]]), np.array([0.1]), np.array([0]), 0.0)))
        assert pseudo.augmented_model(*cases[-1]).jitter > 0.0
        assert any(len(model) == 0 for model, _ in cases)
        for model, pp in cases:
            queries = rng.uniform(-1, 1, (5, model.params.dimension))
            true_vals = pp.values + rng.normal(0, 0.5, size=len(pp))
            held = pseudo.augmented_model(model, pp).factor
            p_mat, s_lower = pseudo._p_and_s(held, model.data.points, pp.points, model.params,
                                             queries)
            reduction = pseudo._reduction(p_mat, s_lower)
            shift = pseudo._shift(p_mat, s_lower, pp.values - true_vals)
            assert pseudo.variance_reduction(model, pp, queries).tobytes() == reduction.tobytes()
            assert pseudo.mean_shift(model, pp, true_vals, queries).tobytes() == shift.tobytes()
            point = pseudo.variance_reduction(model, pp, queries[0])
            assert np.float64(point).tobytes() == reduction[:1].tobytes()
            point = pseudo.mean_shift(model, pp, true_vals, queries[0])
            assert np.float64(point).tobytes() == shift[:1].tobytes()
            m_mat = gp._cho_solve(s_lower, np.eye(len(pp)))
            for got, want in zip(pseudo.correction_terms(model, pp, queries),
                                 (p_mat, m_mat, s_lower)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestCorrectionBounds:
    def test_p_and_m_envelopes(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            noise = float(rng.uniform(1e-3, 1e-1))
            model, data = make_model(rng, n=int(rng.integers(2, 9)), noise=noise, amplitude=1.0)
            pp = generated(rng, data, tau0=float(rng.uniform(0.002, 0.05)))
            queries = rng.uniform(-1, 1, (8, 2))
            p_mat, m_mat, _ = pseudo.correction_terms(model, pp, queries)
            assert np.max(np.abs(p_mat)) <= np.sqrt(1.0 + noise) + 1e-8
            assert np.max(np.abs(m_mat)) <= 1.0 / noise + 1e-6


    def test_empty_set_gives_empty_terms(self):
        rng = np.random.default_rng(34)
        model, _ = make_model(rng)
        p_mat, m_mat, s_lower = pseudo.correction_terms(
            model, pseudo.empty_pseudo_set(2), rng.uniform(-1, 1, (4, 2)))
        assert p_mat.shape == (0, 4)
        assert m_mat.shape == s_lower.shape == (0, 0)


class TestMeanShift:
    def test_identical_values_shift_zero(self):
        rng = np.random.default_rng(20)
        model, data = make_model(rng)
        pp = generated(rng, data)
        x = rng.uniform(-1, 1, 2)
        assert pseudo.mean_shift(model, pp, pp.values, x) == pytest.approx(0.0, abs=1e-12)

    def test_single_point_linear_form(self):
        rng = np.random.default_rng(21)
        model, data = make_model(rng, n=3)
        pp_full = generated(rng, data, tau0=0.05)
        pp = PseudoPointSet(
            pp_full.points[:1], pp_full.values[:1], pp_full.parent_index[:1], pp_full.tau
        )
        x = rng.uniform(-1, 1, 2)
        c = 0.37
        p_mat, m_mat, _ = pseudo.correction_terms(model, pp, x.reshape(1, -1))
        expected = -p_mat[0, 0] * m_mat[0, 0] * c
        got = pseudo.mean_shift(model, pp, pp.values - c, x)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_matches_paired_augmentations(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            n = int(rng.integers(1, 16))
            d = int(rng.integers(1, 4))
            model, data = make_model(rng, n=n, d=d)
            pp = generated(rng, data, tau0=float(rng.uniform(0.005, 0.08)))
            true_vals = pp.values + rng.normal(0, 0.5, size=len(pp))
            with_copied = pseudo.augmented_model(model, pp)
            with_true = pseudo.augmented_model(model, replace(pp, values=true_vals))
            for x in rng.uniform(-1, 1, (4, d)):
                closed = pseudo.mean_shift(model, pp, true_vals, x)
                mu_hat, _ = gp.posterior(with_copied, x)
                mu_tilde, _ = gp.posterior(with_true, x)
                assert closed == pytest.approx(mu_hat - mu_tilde, abs=1e-8)

    def test_scaling_linearity(self):
        rng = np.random.default_rng(23)
        model, data = make_model(rng)
        pp = generated(rng, data)
        diff = rng.normal(size=len(pp))
        x = rng.uniform(-1, 1, 2)
        base = pseudo.mean_shift(model, pp, pp.values - diff, x)
        scaled = pseudo.mean_shift(model, pp, pp.values - 3.0 * diff, x)
        assert scaled == pytest.approx(3.0 * base, rel=1e-9, abs=1e-12)

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(24)
        model, data = make_model(rng)
        pp = generated(rng, data)
        with pytest.raises(ValueError):
            pseudo.mean_shift(model, pp, np.zeros(len(pp) + 1), np.zeros(2))


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_true_values_rejected(self, bad):
        rng = np.random.default_rng(25)
        model, data = make_model(rng)
        pp = generated(rng, data)
        true_values = pp.values.copy()
        true_values[-1] = bad
        with pytest.raises(ValueError, match="true_values must be finite"):
            pseudo.mean_shift(model, pp, true_values, np.zeros(2))


class TestBatchedCorrections:
    """Rows (m, d) give one value per row from one correction_terms call."""

    def test_rows_match_single_points(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            n = int(rng.integers(1, 13))
            d = int(rng.integers(1, 4))
            model, data = make_model(rng, n=n, d=d, noise=float(rng.uniform(1e-4, 1e-1)))
            pp = generated(rng, data, tau0=float(rng.uniform(0.005, 0.08)))
            true_vals = pp.values + rng.normal(0, 0.5, size=len(pp))
            queries = rng.uniform(-1, 1, (int(rng.integers(1, 33)), d))
            reduction = pseudo.variance_reduction(model, pp, queries)
            shift = pseudo.mean_shift(model, pp, true_vals, queries)
            assert reduction.shape == shift.shape == (len(queries),)
            singles = [pseudo.variance_reduction(model, pp, x) for x in queries]
            assert reduction.tobytes() == np.array(singles).tobytes()
            singles = [pseudo.mean_shift(model, pp, true_vals, x) for x in queries]
            assert shift.tobytes() == np.array(singles).tobytes()

    def test_single_point_gives_float(self):
        rng = np.random.default_rng(27)
        model, data = make_model(rng)
        pp = generated(rng, data)
        x = rng.uniform(-1, 1, 2)
        assert type(pseudo.variance_reduction(model, pp, x)) is float
        assert type(pseudo.mean_shift(model, pp, pp.values - 0.1, x)) is float

    def test_empty_set_gives_zero_rows(self):
        rng = np.random.default_rng(28)
        model, _ = make_model(rng)
        empty = pseudo.empty_pseudo_set(2)
        queries = rng.uniform(-1, 1, (5, 2))
        for out in (pseudo.variance_reduction(model, empty, queries),
                    pseudo.mean_shift(model, empty, np.empty(0), queries)):
            assert out.shape == (5,)
            assert np.all(out == 0.0)


class TestScheduleValidation:
    def test_negative_tau0_rejected(self):
        with pytest.raises(ValueError):
            PseudoSchedule(tau0=-0.01)
