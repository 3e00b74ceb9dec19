"""Surrogate model tests: kernel, likelihood, posterior, block updates, MLE.

The posterior checks compare the factored implementation against a dense
matrix-inverse oracle built directly from the defining formulas.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize as scipy_minimize

from gpbo import gp
from gpbo.gp import Dataset, FitConfig, KernelParams


def random_params(rng, d, noise=1e-3, amplitude=None):
    return KernelParams(
        lengthscales=rng.uniform(0.2, 1.5, size=d),
        amplitude=rng.uniform(0.5, 2.0) if amplitude is None else amplitude,
        noise_variance=noise,
    )


def random_dataset(rng, n, d):
    return Dataset(rng.uniform(-1, 1, (n, d)), rng.normal(size=n))


def dense_posterior(data, params, x):
    """Straight matrix-inverse evaluation of the posterior formulas."""
    K = gp.kernel_matrix(data.points, data.points, params)
    A = np.linalg.inv(K + params.noise_variance * np.eye(len(data)))
    k = gp.kernel_matrix(data.points, np.atleast_2d(x), params)[:, 0]
    mean = k @ A @ data.observations
    var = params.amplitude - k @ A @ k
    return mean, var


def scalar_kernel(a, b, params):
    """Reference covariance of two points, written straight from the formula."""
    z = (np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) / params.lengthscales
    return params.amplitude * math.exp(-0.5 * float(z @ z))


def reconstruction_error(model):
    """Relative error of factor @ factor.T against K + (noise + jitter) I."""
    if len(model) == 0:
        return 0.0
    gram = gp.kernel_matrix(model.data.points, model.data.points, model.params)
    gram[np.diag_indices_from(gram)] += model.params.noise_variance + model.jitter
    err = np.abs(model.factor @ model.factor.T - gram)
    return float(err.max() / np.abs(gram).max())


def reference_nll_and_grad(log_theta, points, y, fixed_amplitude, noise):
    """The likelihood arithmetic that the LAPACK path replaced: a full Gram
    matrix, an explicit inverse from triangular solves against the identity
    and one trace per parameter."""
    t, d = points.shape
    ls = np.exp(log_theta[:d])
    amp = math.exp(log_theta[d]) if fixed_amplitude is None else fixed_amplitude
    sq_diffs = np.square(points[:, None, :] - points[None, :, :]).transpose(2, 0, 1)
    gram = amp * np.exp(-np.einsum("kij,k->ij", sq_diffs, 0.5 / np.square(ls)))
    lower = cholesky(gram + noise * np.eye(t), lower=True)
    alpha = solve_triangular(lower.T, solve_triangular(lower, y, lower=True), lower=False)
    logdet_half = float(np.sum(np.log(np.diag(lower))))
    nll = 0.5 * float(y @ alpha) + logdet_half + 0.5 * t * math.log(2.0 * math.pi)
    inv = solve_triangular(lower.T, solve_triangular(lower, np.eye(t), lower=True), lower=False)
    wk = (np.outer(alpha, alpha) - inv) * gram
    grad = [-0.5 * float(np.sum(wk * sq_diffs[j])) / ls[j] ** 2 for j in range(d)]
    if fixed_amplitude is None:
        grad.append(-0.5 * float(np.sum(wk)))
    return nll, np.array(grad)


def nll(data, params):
    """The fit's negative log likelihood of ``data`` at ``params``."""
    theta = gp._pack(params, FitConfig())
    args = (data.observations, gp._lik_stack(data.points), None, params.noise_variance)
    return gp._nll_and_grad(theta, *args)[0]


def pair_kernel(a, b, params):
    return gp.kernel_matrix(np.reshape(a, (1, -1)), np.reshape(b, (1, -1)), params)[0, 0]


class TestKernel:
    def test_equal_points_give_amplitude(self):
        p = KernelParams(lengthscales=np.array([0.3, 0.9]), amplitude=1.0)
        x = np.array([0.2, -0.4])
        assert pair_kernel(x, x, p) == 1.0

    def test_unit_example(self):
        p = KernelParams(lengthscales=np.array([1.0]), amplitude=1.0)
        assert pair_kernel([0.0], [1.0], p) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_huge_lengthscale_saturates(self):
        p = KernelParams(lengthscales=np.array([1e12, 1e12]), amplitude=1.0)
        a = np.array([-1.0, 1.0])
        b = np.array([1.0, -1.0])
        assert pair_kernel(a, b, p) == pytest.approx(1.0, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        p = random_params(rng, 3)
        a, b = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        assert pair_kernel(a, b, p) == pair_kernel(b, a, p)

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(6)
        p = random_params(rng, 2)
        a = rng.uniform(-1, 1, (4, 2))
        b = rng.uniform(-1, 1, (3, 2))
        mat = gp.kernel_matrix(a, b, p)
        for i in range(4):
            for j in range(3):
                assert mat[i, j] == pytest.approx(scalar_kernel(a[i], b[j], p), rel=1e-14)


class TestPosterior:
    def test_empty_data_returns_prior(self):
        p = KernelParams(lengthscales=np.array([0.5]), amplitude=1.7)
        model = gp.build_model(gp.empty_dataset(1), p)
        mean, var = gp.posterior(model, np.array([0.3]))
        assert mean == 0.0
        assert var == 1.7

    def test_single_observation_closed_form(self):
        noise = 0.01
        p = KernelParams(lengthscales=np.array([0.5]), amplitude=1.0, noise_variance=noise)
        x = np.array([[0.2]])
        y = 0.7
        model = gp.build_model(Dataset(x, [y]), p)
        mean, var = gp.posterior(model, x[0])
        assert mean == pytest.approx(y / (1 + noise), rel=1e-12)
        assert var == pytest.approx(1 - 1 / (1 + noise), rel=1e-9)

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(42)
        p = random_params(rng, 2)
        data = random_dataset(rng, 6, 2)
        model = gp.build_model(data, p)
        x = rng.uniform(-1, 1, 2)
        mean, var = gp.posterior(model, x)
        mean_o, var_o = dense_posterior(data, p, x)
        assert mean == pytest.approx(mean_o, abs=1e-9)
        assert var == pytest.approx(var_o, abs=1e-9)

    def test_dense_oracle_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 21))
            p = random_params(rng, d)
            data = random_dataset(rng, n, d)
            model = gp.build_model(data, p)
            x = rng.uniform(-1, 1, d)
            mean, var = gp.posterior(model, x)
            mean_o, var_o = dense_posterior(data, p, x)
            scale = max(1.0, abs(mean_o))
            assert abs(mean - mean_o) / scale < 1e-9
            assert abs(var - max(var_o, 0.0)) / max(1.0, var_o) < 1e-9

    def test_batched_predict_matches_pointwise_posterior(self):
        # Bitwise, not to a tolerance: a batched search must score each point
        # exactly as a single query at the returned argmax does.  Noise 1e-4
        # at n = 105 is ill-conditioned enough that a BLAS gemv and a dot
        # product disagree there in the 11th digit.
        rng = np.random.default_rng(77)
        for n, noise in ((0, 1e-3), (1, 1e-3), (12, 1e-3), (60, 1e-3), (105, 1e-4)):
            d = int(rng.integers(1, 7)) if n < 105 else 2
            params = random_params(rng, d, noise=noise)
            base = gp.build_model(random_dataset(rng, n, d), params)
            extra = Dataset(base.data.points[: n // 2] + 1e-3, base.data.observations[: n // 2])
            for model in (base, gp.augment(base, extra)):
                queries = np.vstack([rng.uniform(-1, 1, (300, d)), model.data.points[:3]])
                mean, var = gp.predict(model, queries)
                pointwise = np.array([gp.posterior(model, q) for q in queries])
                np.testing.assert_array_equal(mean, pointwise[:, 0])
                np.testing.assert_array_equal(var, pointwise[:, 1])
                for size in (2, 7, 26):
                    part_mean, part_var = gp.predict(model, queries[5 : 5 + size])
                    np.testing.assert_array_equal(part_mean, mean[5 : 5 + size])
                    np.testing.assert_array_equal(part_var, var[5 : 5 + size])

    def test_variance_bounds(self):
        rng = np.random.default_rng(8)
        p = random_params(rng, 3)
        model = gp.build_model(random_dataset(rng, 12, 3), p)
        _, var = gp.predict(model, rng.uniform(-1, 1, (64, 3)))
        assert np.all(var >= 0.0)
        assert np.all(var <= p.amplitude + 1e-9)

    def test_interpolation_limit(self):
        rng = np.random.default_rng(9)
        p = KernelParams(
            lengthscales=np.array([0.6, 0.6]), amplitude=1.0, noise_variance=1e-12
        )
        data = random_dataset(rng, 8, 2)
        model = gp.build_model(data, p)
        mean, _ = gp.predict(model, data.points)
        assert np.max(np.abs(mean - data.observations)) < 1e-4

    def test_factor_reconstructs_training_matrix(self):
        rng = np.random.default_rng(11)
        p = random_params(rng, 2)
        model = gp.build_model(random_dataset(rng, 10, 2), p)
        assert reconstruction_error(model) < 1e-10


def triangular_system(seed, n, nrhs, layout):
    """A random n x n matrix with a dominant diagonal, stored C-ordered,
    F-ordered or as a non-contiguous view, and a right-hand side that is 1-D
    for ``nrhs`` None and (n, nrhs) otherwise.  Both triangles are filled,
    so a solve that read the wrong one would show."""
    rng = np.random.default_rng(seed)
    big = rng.uniform(-1.0, 1.0, (n + 3, n + 3))
    big[np.arange(n + 3), np.arange(n + 3)] += np.where(rng.random(n + 3) < 0.5, -1.0, 1.0) * n
    if layout == "view":
        a = big[1 : n + 1, 1 : n + 1]
    else:
        a = np.asarray(big[:n, :n], order=layout)
    b = rng.normal(size=n if nrhs is None else (n, nrhs))
    return a, b


def raised(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


class TestLapackSolves:
    """gp's direct LAPACK calls against the scipy wrappers they stand in for."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        nrhs=st.one_of(st.none(), st.integers(0, 5)),
        layout=st.sampled_from(["C", "F", "view"]),
        lower=st.booleans(),
    )
    def test_triangular_solve_has_scipys_bits(self, seed, n, nrhs, layout, lower):
        a, b = triangular_system(seed, n, nrhs, layout)
        got = gp._solve_triangular(a, b, lower=lower)
        want = solve_triangular(a, b, lower=lower)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        nrhs=st.one_of(st.none(), st.integers(1, 3)),
        layout=st.sampled_from(["C", "F", "view"]),
        lower=st.booleans(),
        fault=st.sampled_from(["singular", "nan in a", "inf in a", "nan in b", "-inf in b"]),
    )
    def test_triangular_solve_raises_what_scipy_raises(self, seed, n, nrhs, layout, lower, fault):
        a, b = triangular_system(seed, n, nrhs, layout)
        k = seed % n
        if fault == "singular":
            a[k, k] = 0.0
        elif fault.endswith("in a"):
            a[k, (k + 1) % n] = float(fault.split()[0])
        else:
            b.reshape(n, -1)[k, 0] = float(fault.split()[0])
        want = raised(solve_triangular, a, b, lower=lower)
        assert want is not None
        assert raised(gp._solve_triangular, a, b, lower=lower) is want

    def test_singular_diagonal_is_a_linalg_error(self):
        a = np.tril(np.ones((3, 3)))
        a[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            gp._solve_triangular(a, np.ones(3), lower=True)
        # As in scipy, an empty right-hand side is answered before the solve.
        assert gp._solve_triangular(a, np.empty((3, 0)), lower=True).shape == (3, 0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), view=st.booleans())
    def test_cholesky_inverse_has_scipys_bits(self, seed, n, view):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-1.0, 1.0, (n + 2, 2))
        gram = gp.kernel_matrix(points, points, random_params(rng, 2))
        gram.flat[:: n + 3] += 1e-3
        factor, _ = gp._chol_with_jitter(gram)
        # The closed forms invert a trailing block of a joint factor as well.
        lower = factor[2:, 2:] if view else gp._chol_with_jitter(gram[2:, 2:])[0]
        got = gp._cho_solve(lower, np.eye(n))
        assert got.tobytes() == cho_solve((lower, True), np.eye(n)).tobytes()


class TestAugment:
    def test_empty_extra_is_noop(self):
        rng = np.random.default_rng(12)
        p = random_params(rng, 2)
        model = gp.build_model(random_dataset(rng, 5, 2), p)
        assert gp.augment(model, gp.empty_dataset(2)) is model

    def test_matches_scratch_rebuild(self):
        rng = np.random.default_rng(13)
        p = random_params(rng, 2)
        base = random_dataset(rng, 5, 2)
        extra = random_dataset(rng, 3, 2)
        aug = gp.augment(gp.build_model(base, p), extra)
        scratch = gp.build_model(
            Dataset(
                np.vstack([base.points, extra.points]),
                np.concatenate([base.observations, extra.observations]),
            ),
            p,
        )
        x = rng.uniform(-1, 1, 2)
        m1, v1 = gp.posterior(aug, x)
        m2, v2 = gp.posterior(scratch, x)
        assert m1 == pytest.approx(m2, rel=1e-8, abs=1e-10)
        assert v1 == pytest.approx(v2, rel=1e-8, abs=1e-10)

    def test_duplicate_point_decreases_variance(self):
        rng = np.random.default_rng(14)
        p = random_params(rng, 2, noise=1e-2)
        base = random_dataset(rng, 5, 2)
        model = gp.build_model(base, p)
        x0 = base.points[2]
        _, before = gp.posterior(model, x0)
        dup = Dataset(x0.reshape(1, -1), [base.observations[2]])
        _, after = gp.posterior(gp.augment(model, dup), x0)
        assert after < before

    def test_variance_monotone_under_augmentation(self):
        rng = np.random.default_rng(15)
        p = random_params(rng, 2)
        model = gp.build_model(random_dataset(rng, 6, 2), p)
        bigger = gp.augment(model, random_dataset(rng, 4, 2))
        queries = rng.uniform(-1, 1, (32, 2))
        _, var_small = gp.predict(model, queries)
        _, var_big = gp.predict(bigger, queries)
        assert np.all(var_big <= var_small + 1e-9)

    def test_records_jitter_of_the_new_block(self):
        # Noise so small that 1 + noise rounds to 1: the duplicate row's Schur
        # block is singular and needs jitter the base factor does not carry.
        p = KernelParams(lengthscales=np.array([0.5]), amplitude=1.0, noise_variance=1e-17)
        x = np.array([[0.3]])
        model = gp.build_model(Dataset(x, [0.1]), p)
        assert model.jitter == 0.0
        aug = gp.augment(model, Dataset(x, [0.1]))
        assert aug.jitter > 0.0
        assert reconstruction_error(aug) <= 1e-14
        # The joint rows are factorized afresh, as build_model factorizes them.
        scratch = gp.build_model(aug.data, p)
        assert aug.jitter == scratch.jitter
        assert aug.factor.tobytes() == scratch.factor.tobytes()
        assert aug.weight_vector.tobytes() == scratch.weight_vector.tobytes()


class TestLogLikelihood:
    def test_single_zero_observation_closed_form(self):
        p = KernelParams(lengthscales=np.array([1.0]), amplitude=1.0, noise_variance=1.0)
        data = Dataset(np.array([[0.3]]), [0.0])
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 * math.pi)
        assert nll(data, p) == pytest.approx(expected, rel=1e-12)

    def test_zero_observations_drop_quadratic_term(self):
        rng = np.random.default_rng(17)
        p = random_params(rng, 2)
        pts = rng.uniform(-1, 1, (6, 2))
        value = nll(Dataset(pts, np.zeros(6)), p)
        K = gp.kernel_matrix(pts, pts, p) + p.noise_variance * np.eye(6)
        expected = 0.5 * np.linalg.slogdet(K)[1] + 3.0 * math.log(2.0 * math.pi)
        assert value == pytest.approx(expected, rel=1e-10)

    def test_duplicate_inputs_stay_finite_with_jitter(self):
        # Noise so small that 1 + noise rounds to 1: the raw factorization
        # fails and the jitter ladder must kick in.
        p = KernelParams(
            lengthscales=np.array([1.0]), amplitude=1.0, noise_variance=1e-17
        )
        data = Dataset(np.array([[0.5], [0.5]]), [1.0, -1.0])
        value = nll(data, p)
        assert value < 1e25
        model = gp.build_model(data, p)
        assert model.jitter > 0.0
        # Same value from a dense evaluation with the applied jitter; the
        # tolerance reflects the ~1e10 condition number of the system.
        K = gp.kernel_matrix(data.points, data.points, p)
        K += (p.noise_variance + model.jitter) * np.eye(2)
        y = data.observations
        expected = (
            0.5 * y @ np.linalg.solve(K, y)
            + 0.5 * np.linalg.slogdet(K)[1]
            + math.log(2.0 * math.pi)
        )
        assert value == pytest.approx(expected, rel=1e-4)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(18)
        for d, n, fix_amplitude in ((2, 10, False), (2, 10, True), (6, 25, False), (6, 25, True)):
            data = random_dataset(rng, n, d)
            params = random_params(rng, d, noise=1e-2)
            config = FitConfig(fix_amplitude=fix_amplitude)
            theta = gp._pack(params, config)
            fixed = params.amplitude if fix_amplitude else None
            args = (data.observations, gp._lik_stack(data.points), fixed, params.noise_variance)
            _, grad = gp._nll_and_grad(theta, *args)
            assert grad.shape == theta.shape
            h = 1e-5
            for k in range(theta.size):
                up, down = theta.copy(), theta.copy()
                up[k] += h
                down[k] -= h
                fd = (gp._nll_and_grad(up, *args)[0] - gp._nll_and_grad(down, *args)[0]) / (2 * h)
                assert grad[k] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_matches_reference_arithmetic(self):
        # Below a noise of about 1e-6 with duplicate rows both gradients cancel
        # catastrophically, so the sweep stays at noise 1e-4 and above.
        rng = np.random.default_rng(23)
        for _ in range(200):
            d = int(rng.integers(1, 7))
            n = int(rng.integers(1, 111))
            noise = float(10.0 ** rng.uniform(-4, -1))
            fixed = float(rng.uniform(0.2, 5.0)) if rng.integers(0, 2) else None
            points = rng.uniform(-1, 1, (n, d))
            y = rng.normal(size=n)
            theta = np.log(rng.uniform(0.05, 2.0, d))
            if fixed is None:
                theta = np.append(theta, math.log(rng.uniform(0.2, 5.0)))
            nll, grad = gp._nll_and_grad(theta, y, gp._lik_stack(points), fixed, noise)
            ref_nll, ref_grad = reference_nll_and_grad(theta, points, y, fixed, noise)
            assert abs(nll - ref_nll) <= 1e-10 * abs(ref_nll)
            assert grad.shape == ref_grad.shape
            assert np.max(np.abs(grad - ref_grad)) <= 1e-7 * np.max(np.abs(ref_grad))

    def test_unfactorizable_gram_gives_sentinel(self, monkeypatch):
        # Duplicate rows at noise 1e-17 give a singular Gram matrix; with the
        # ladder cut to its first rung nothing rescues it.
        monkeypatch.setattr(gp, "JITTER_LADDER", (0.0,))
        data = Dataset(np.zeros((2, 1)), [1.0, 1.0])
        init = KernelParams(lengthscales=np.array([1.0]), amplitude=1.0, noise_variance=1e-17)
        nll, grad = gp._nll_and_grad(
            np.zeros(2), data.observations, gp._lik_stack(data.points), None, 1e-17
        )
        assert nll == 1e25
        np.testing.assert_array_equal(grad, np.zeros(2))
        with pytest.raises(gp.FactorizationError):
            gp.fit(data, init, FitConfig(n_starts=1))


class TestCholWithJitter:
    def test_positive_definite_needs_no_jitter(self):
        rng = np.random.default_rng(24)
        a = rng.normal(size=(5, 5))
        mat = a @ a.T + 5 * np.eye(5)
        factor, jitter = gp._chol_with_jitter(mat)
        assert jitter == 0.0
        np.testing.assert_array_equal(factor, cholesky(mat, lower=True))

    def test_singular_matrix_walks_the_ladder(self):
        mat = np.ones((3, 3))
        factor, jitter = gp._chol_with_jitter(mat)
        assert jitter == 1e-10
        np.testing.assert_array_equal(np.triu(factor, 1), 0.0)
        np.testing.assert_allclose(factor @ factor.T, mat + jitter * np.eye(3), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(mat, np.ones((3, 3)))

    def test_indefinite_matrix_raises(self):
        with pytest.raises(gp.FactorizationError):
            gp._chol_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestFit:
    def test_single_point_monotone_contract(self, monkeypatch):
        monkeypatch.setattr(gp, "_FIT_MAX_ITER", 20)
        data = Dataset(np.array([[0.0, 0.0]]), [1.0])
        init = KernelParams(lengthscales=np.array([1.0, 1.0]), noise_variance=1e-2)
        fitted = gp.fit(data, init, FitConfig(n_starts=3))
        assert nll(data, fitted) <= nll(data, init) + 1e-10

    def test_recovers_lengthscale_coarsely(self):
        rng = np.random.default_rng(19)
        noise = 1e-2
        true = KernelParams(
            lengthscales=np.array([0.3, 0.3]), amplitude=1.0, noise_variance=noise
        )
        pts = rng.uniform(-1, 1, (40, 2))
        cov = gp.kernel_matrix(pts, pts, true) + noise * np.eye(40)
        y = np.linalg.cholesky(cov) @ rng.standard_normal(40)
        data = Dataset(pts, y)
        init = KernelParams(
            lengthscales=np.array([1.0, 1.0]), amplitude=1.0, noise_variance=noise
        )
        fitted = gp.fit(data, init, FitConfig(fix_amplitude=True))
        assert np.all(fitted.lengthscales >= 0.1)
        assert np.all(fitted.lengthscales <= 0.9)
        # Independent coarse oracle: dense grid search over an isotropic scale.
        def grid_ll(scale):
            K = np.exp(
                -0.5
                * ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
                / scale**2
            ) + noise * np.eye(40)
            sign, logdet = np.linalg.slogdet(K)
            return -0.5 * y @ np.linalg.solve(K, y) - 0.5 * logdet - 20 * math.log(2 * math.pi)

        grid = np.geomspace(0.05, 2.0, 60)
        best = grid[int(np.argmax([grid_ll(s) for s in grid]))]
        assert 0.1 <= best <= 0.9

    def test_fit_never_below_init_likelihood(self, monkeypatch):
        monkeypatch.setattr(gp, "_FIT_MAX_ITER", 15)
        rng = np.random.default_rng(20)
        for seed in range(5):
            data = random_dataset(np.random.default_rng(seed), 12, 2)
            init = random_params(rng, 2, noise=1e-3)
            for n_starts in (4, 1):
                fitted = gp.fit(data, init, FitConfig(n_starts=n_starts))
                assert nll(data, fitted) <= nll(data, init) + 1e-9

    def test_one_start_is_the_warm_search_alone(self, monkeypatch):
        """The run loop's warm-only refit: one search, from ``init``, no draws."""
        data = random_dataset(np.random.default_rng(4), 12, 2)
        init = KernelParams(lengthscales=np.array([0.5, 0.5]))
        monkeypatch.setattr(gp, "_FIT_MAX_ITER", 10)
        config = FitConfig(n_starts=1)
        starts = []
        original = gp.minimize

        def recording(fun, x0, args, bounds, max_iter, known=None):
            starts.append(np.array(x0))
            return original(fun, x0, args, bounds, max_iter, known)

        monkeypatch.setattr(gp, "minimize", recording)
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        gp.fit(data, init, config, rng)
        assert len(starts) == 1
        np.testing.assert_array_equal(starts[0], gp._pack(init, config))
        assert rng.bit_generator.state == state

    def test_first_search_reuses_the_start_value(self, monkeypatch):
        """``fit`` evaluates the likelihood at ``init`` once, for its acceptance
        threshold and the first search alike, and the searches' ``nfev`` count
        every other evaluation."""
        data = random_dataset(np.random.default_rng(5), 15, 3)
        init = KernelParams(lengthscales=np.array([0.4, 0.7, 1.1]))
        monkeypatch.setattr(gp, "_FIT_MAX_ITER", 10)
        config = FitConfig(n_starts=3)
        at_init, searched = [], []
        original_nll, original_minimize = gp._nll_and_grad, gp.minimize

        def counting(log_theta, *args):
            at_init.append(np.array_equal(log_theta, gp._pack(init, config)))
            return original_nll(log_theta, *args)

        def recording(*args):
            res = original_minimize(*args)
            searched.append(res.nfev)
            return res

        monkeypatch.setattr(gp, "_nll_and_grad", counting)
        monkeypatch.setattr(gp, "minimize", recording)
        gp.fit(data, init, config)
        assert sum(at_init) == 1
        assert len(searched) == 3
        assert len(at_init) == 1 + sum(searched)

    def test_noise_held_fixed_by_default(self, monkeypatch):
        monkeypatch.setattr(gp, "_FIT_MAX_ITER", 10)
        rng = np.random.default_rng(21)
        data = random_dataset(rng, 8, 1)
        init = KernelParams(lengthscales=np.array([0.5]), noise_variance=3e-3)
        fitted = gp.fit(data, init, FitConfig(n_starts=2))
        assert fitted.noise_variance == init.noise_variance

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            gp.fit(gp.empty_dataset(2), KernelParams(lengthscales=np.ones(2)))


def likelihood_search(seed, d, n, fixed):
    """Start, arguments and box of an ``_nll_and_grad`` search set up as ``fit``
    sets one up; the start may lie outside the box."""
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, n, d)
    args = (data.observations, gp._lik_stack(data.points), 1.0 if fixed else None, 1e-4)
    bounds = [(math.log(0.1), math.log(2.0))] * d
    if not fixed:
        bounds.append((math.log(1e-10), math.log(1e10)))
    x0 = rng.uniform(math.log(0.05), math.log(4.0), size=len(bounds))
    return x0, args, bounds


def assert_same_search_as_scipy(seed, d, n, fixed, max_iter):
    """``gp.minimize`` against scipy's L-BFGS-B, with and without a known start
    value; returns scipy's exit message."""
    x0, args, bounds = likelihood_search(seed, d, n, fixed)
    ref = scipy_minimize(gp._nll_and_grad, x0, args=args, method="L-BFGS-B", jac=True,
                         bounds=bounds, options={"maxiter": max_iter})
    res = gp.minimize(gp._nll_and_grad, x0, args, bounds, max_iter)
    assert res.x.tobytes() == ref.x.tobytes()
    assert np.float64(res.fun).tobytes() == np.float64(ref.fun).tobytes()
    assert res.nfev == ref.nfev
    # A value known at the start answers the first request, if the start is in the box.
    inside = np.array_equal(np.clip(x0, *np.array(bounds).T), x0)
    seeded = gp.minimize(gp._nll_and_grad, x0, args, bounds, max_iter,
                         gp._nll_and_grad(x0, *args))
    assert seeded.x.tobytes() == ref.x.tobytes()
    assert np.float64(seeded.fun).tobytes() == np.float64(ref.fun).tobytes()
    assert seeded.nfev == ref.nfev - inside
    return ref.message


class TestLbfgsbDriver:
    """``gp.minimize`` drives scipy's L-BFGS-B core and must match
    ``scipy.optimize.minimize`` bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 60), st.booleans(),
           st.integers(1, 40))
    def test_same_bits_as_scipy(self, seed, d, n, fixed, max_iter):
        assert_same_search_as_scipy(seed, d, n, fixed, max_iter)

    # Every exit the shipped runs reach: both convergence tests, the iteration
    # cap (at hart6's size, with free and fixed amplitude) and an abnormal line
    # search, where the core restores the previous iterate.
    @pytest.mark.parametrize("search, exit", [
        ((3, 2, 42, False, 30), "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"),
        ((1, 3, 43, False, 26), "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"),
        ((2, 6, 39, False, 11), "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"),
        ((15, 6, 29, True, 13), "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"),
        ((61, 1, 34, False, 14), "ABNORMAL: "),
    ])
    def test_every_shipped_exit(self, search, exit):
        assert assert_same_search_as_scipy(*search) == exit

    @pytest.mark.parametrize("bounds", [
        [(-1.0, 1.0)],
        [(-1.0, 1.0)] * 3,
        [(-1.0, 1.0), (1.0, -1.0)],
        [(-1.0, 1.0), (-np.inf, 1.0)],
        [(-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0)],
    ])
    def test_bad_bounds_rejected(self, bounds):
        with pytest.raises(ValueError):
            gp.minimize(lambda x: (float(x @ x), 2 * x), np.zeros(2), (), bounds, 10)


class TestValidation:
    def test_dataset_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [0, 5])
    def test_non_finite_query_rejected(self, bad, n):
        rng = np.random.default_rng(3)
        model = gp.build_model(random_dataset(rng, n, 2), random_params(rng, 2))
        with pytest.raises(ValueError, match="finite"):
            gp.predict(model, np.array([[0.1, 0.2], [bad, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            gp.posterior(model, np.array([0.0, bad]))

    def test_dataset_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf, 0.0]]), [1.0])

    def test_params_reject_non_positive(self):
        with pytest.raises(ValueError):
            KernelParams(lengthscales=np.array([0.0]))
        with pytest.raises(ValueError):
            KernelParams(lengthscales=np.array([1.0]), amplitude=-1.0)
        with pytest.raises(ValueError):
            KernelParams(lengthscales=np.array([1.0]), noise_variance=0.0)
