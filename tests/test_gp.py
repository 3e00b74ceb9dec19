"""Surrogate model tests: kernel, likelihood, posterior, block updates, MLE.

The posterior checks compare the factored implementation against a dense
matrix-inverse oracle built directly from the defining formulas.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def lane_sum(terms):
    """``terms`` added as numpy's einsum adds one product row on a 128-bit
    SIMD baseline: a two-lane vector accumulator takes each full block of
    eight terms as four vectors, the last vector first, then the remaining
    terms one vector at a time (odd counts padded with zero); the lanes are
    added last."""
    lanes = [0.0, 0.0]
    full = len(terms) - len(terms) % 8
    for start in range(0, full, 8):
        for offset in (6, 4, 2, 0):
            for lane in (0, 1):
                lanes[lane] = terms[start + offset + lane] + lanes[lane]
    for k in range(full, len(terms)):
        lanes[(k - full) % 2] += terms[k]
    return lanes[0] + lanes[1]


def lane_reference_kernel(a, b, params):
    """The kernel pair by pair, its squared scaled differences summed by ``lane_sum``."""
    sums = np.zeros((len(a), len(b)))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            z = [float(x[k] - y[k]) / float(params.lengthscales[k]) for k in range(len(x))]
            sums[i, j] = lane_sum([zk * zk for zk in z])
    return params.amplitude * np.exp(-0.5 * sums)


def einsum_kernel(a, b, params):
    """The kernel by one einsum over (n, m, d) differences."""
    diff = (a[:, None, :] - b[None, :, :]) / params.lengthscales
    return params.amplitude * np.exp(-0.5 * np.einsum("ijk,ijk->ij", diff, diff))


class TestKernelPlanes:
    @pytest.mark.parametrize("d", range(1, 11))
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 7), (9, 1), (6, 5)])
    def test_lane_order_bits(self, d, n, m):
        rng = np.random.default_rng(100 * d + 10 * n + m)
        params = random_params(rng, d)
        a, b = rng.uniform(-2, 2, (n, d)), rng.uniform(-2, 2, (m, d))
        # Rows of b copied from a meet their twins at distance zero.
        b[: min(n, m) // 2] = a[: min(n, m) // 2]
        mat = gp.kernel_matrix(a, b, params)
        assert mat.shape == (n, m) and mat.flags.c_contiguous
        np.testing.assert_array_equal(mat, lane_reference_kernel(a, b, params))
        np.testing.assert_allclose(mat, einsum_kernel(a, b, params), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_identical_rows_give_exactly_amplitude(self, d):
        rng = np.random.default_rng(d)
        params = random_params(rng, d)
        a = rng.uniform(-1, 1, (5, d))
        assert np.all(np.diag(gp.kernel_matrix(a, a, params)) == params.amplitude)
        assert np.all(gp.kernel_matrix(a[[2, 2]], a[[2, 2, 2]], params) == params.amplitude)

    @pytest.mark.parametrize("n, m", [(0, 3), (4, 0), (0, 0)])
    def test_zero_rows_give_an_empty_matrix(self, n, m):
        params = KernelParams(np.array([0.5, 0.7]))
        assert gp.kernel_matrix(np.zeros((n, 2)), np.ones((m, 2)), params).shape == (n, m)

    @pytest.mark.parametrize("a_shape, b_shape, lengthscales", [
        ((3, 2), (2, 1), [0.5, 0.7]),  # b has one column too few
        ((3, 1), (2, 2), [0.5, 0.7]),  # a has one column too few
        ((3, 2), (2, 2), [0.5]),  # one lengthscale against 2-d points
        ((3, 2), (2, 3), [0.5, 0.7, 0.9]),
        ((2,), (2, 2), [0.5, 0.7]),  # a is one point, not a row matrix
        ((3, 2), (2,), [0.5, 0.7]),
        ((1, 3, 2), (2, 2), [0.5, 0.7]),
    ], ids=["b-columns", "a-columns", "one-lengthscale", "three-lengthscales", "a-1d", "b-1d", "a-3d"])
    def test_mismatched_inputs_rejected(self, a_shape, b_shape, lengthscales):
        with pytest.raises(ValueError, match="kernel_matrix needs"):
            gp.kernel_matrix(np.zeros(a_shape), np.ones(b_shape), KernelParams(np.array(lengthscales)))

    @pytest.mark.parametrize("d", range(1, 9))
    def test_likelihood_design_has_the_broadcast_bits(self, d):
        rng = np.random.default_rng(d)
        points = rng.uniform(-1, 1, (7, d))
        points[3] = points[1]
        n = len(points)
        weights = np.tril(np.full((n, n), 2.0), -1) + np.eye(n)
        diff = points[:, None, :] - points[None, :, :]
        expected = np.concatenate([np.square(diff).transpose(2, 0, 1) * weights, weights[None]])
        np.testing.assert_array_equal(gp._lik_stack(points), expected.reshape(d + 1, n * n))


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


def reference_predict(model, queries):
    """The posterior arithmetic spelled out: ``kernel_matrix``, a cumsum over
    the training rows and a forward solve, as ``predict`` did before it ran on
    a prepared core."""
    amp = model.params.amplitude
    if len(model) == 0:
        return np.zeros(len(queries)), np.full(len(queries), amp)
    cross = gp.kernel_matrix(model.data.points, queries, model.params)
    mean = np.cumsum(cross * model.weight_vector[:, None], axis=0)[-1]
    half = gp._forward_solve(model.factor, cross)
    return mean, np.maximum(amp - np.cumsum(half * half, axis=0)[-1], 0.0)


class TestPreparedPosterior:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 210),
        m=st.integers(1, 64),
        layout=st.sampled_from(["C", "F", "view"]),
        zeros=st.sampled_from([0.0, 0.3, 1.0]),
    )
    # One column, where numpy's reduce would add pairwise, in every layout.
    @example(seed=1, n=210, m=1, layout="C", zeros=0.0)
    @example(seed=2, n=97, m=1, layout="F", zeros=0.0)
    @example(seed=3, n=64, m=1, layout="view", zeros=0.3)
    def test_column_sums_have_the_cumsum_bits(self, seed, n, m, layout, zeros):
        # The guard on numpy's reduction order: row by row from -0.0 for two
        # or more columns.  A build that reduces in another order fails here.
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-8, 9, size=(n, m))
        x[rng.random((n, m)) < zeros] = 0.0
        x[rng.random((n, m)) < zeros / 2] = -0.0
        if m > 1:
            x[:, 0] = -0.0  # a column of negative zeros sums to -0.0
        if layout == "F":
            x = np.asfortranarray(x)
        elif layout == "view":
            x = np.ascontiguousarray(x.T).T
        got = gp._column_sums(x)
        assert got.shape == (m,)
        assert got.tobytes() == np.cumsum(x, axis=0)[-1].tobytes()

    @staticmethod
    def models():
        """The empty model, a block-update factor (C order) and a fresh joint
        factor from ``_augmented_factor``'s jitter path (LAPACK's F order)."""
        rng = np.random.default_rng(5)
        params = random_params(rng, 3)
        yield "empty", gp.build_model(gp.empty_dataset(3), params)
        base = gp.build_model(random_dataset(rng, 9, 3), params)
        extra = Dataset(base.data.points[:4] + 1e-3, base.data.observations[:4])
        block = gp.augment(base, extra)
        assert block.jitter == 0.0 and block.factor.flags.c_contiguous
        yield "block", block
        # Noise so small that the duplicated rows' Schur block is singular.
        tiny = KernelParams(np.array([0.3, 0.4, 0.5]), 1.3, 1e-17)
        points = np.array([[-0.8, -0.8, -0.8], [0.0, 0.1, 0.0], [0.8, 0.7, 0.9]])
        spread = gp.build_model(Dataset(points, [0.2, -0.4, 1.1]), tiny)
        assert spread.jitter == 0.0
        joint = gp.augment(spread, Dataset(points[:2], [0.2, -0.4]))
        assert joint.jitter > 0.0 and joint.factor.flags.f_contiguous
        assert not joint.factor.flags.c_contiguous
        yield "joint", joint

    @pytest.mark.parametrize("which", ["empty", "block", "joint"])
    def test_core_has_the_bits_of_predict(self, which):
        model = dict(self.models())[which]
        rng = np.random.default_rng(6)
        core = gp._Posterior(model)
        queries = np.vstack([rng.uniform(-1, 1, (40, 3)), model.data.points])
        want = reference_predict(model, queries)
        # One prepared core answers any number of calls with the same bits.
        for part in (slice(None), slice(0, 1), slice(3, 17), slice(None)):
            got = core(queries[part])
            for ref in (gp.predict(model, queries[part]), (want[0][part], want[1][part])):
                assert got[0].tobytes() == ref[0].tobytes()
                assert got[1].tobytes() == ref[1].tobytes()


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

    def test_lengthscale_bounds_broadcast_per_coordinate(self, monkeypatch):
        """Scalar bounds and equal per-coordinate bounds give the same bits, and
        per-coordinate bounds hold each lengthscale in its own box."""
        monkeypatch.setattr(gp, "_FIT_MAX_ITER", 10)
        data = random_dataset(np.random.default_rng(6), 10, 2)
        init = KernelParams(lengthscales=np.array([0.5, 0.5]))
        scalar = gp.fit(data, init, FitConfig(n_starts=3, lengthscale_bounds=(0.1, 2.0)))
        arrays = gp.fit(data, init, FitConfig(n_starts=3, lengthscale_bounds=(np.full(2, 0.1), np.full(2, 2.0))))
        np.testing.assert_array_equal(scalar.lengthscales, arrays.lengthscales)
        assert scalar.amplitude == arrays.amplitude
        low, high = np.array([0.6, 0.01]), np.array([2.0, 0.05])
        boxed = gp.fit(data, init, FitConfig(n_starts=3, lengthscale_bounds=(low, high)))
        assert np.all((boxed.lengthscales >= low * (1 - 1e-12)) & (boxed.lengthscales <= high * (1 + 1e-12)))

    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (2.0, 1.0), (0.1, math.inf),
                                        (np.array([0.1, 0.2]), np.array([1.0, 0.1]))],
                             ids=["zero-low", "reversed", "infinite-high", "reversed-coordinate"])
    def test_bad_lengthscale_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="lengthscale bounds must satisfy 0 < low <= high < inf"):
            FitConfig(lengthscale_bounds=bounds)

    @pytest.mark.parametrize("field, value, message", [
        ("n_starts", 0, "n_starts must be an integer of at least 1, got 0"),
        ("n_starts", -3, "n_starts must be an integer of at least 1, got -3"),
        ("n_starts", 2.0, "n_starts must be an integer of at least 1, got 2.0"),
        ("n_starts", True, "n_starts must be an integer of at least 1, got True"),
        ("fix_amplitude", "no", "fix_amplitude must be a bool, got 'no'"),
        ("fix_amplitude", 1, "fix_amplitude must be a bool, got 1"),
        ("fix_amplitude", None, "fix_amplitude must be a bool, got None"),
    ], ids=["starts-zero", "starts-negative", "starts-float", "starts-bool", "fix-string",
            "fix-int", "fix-none"])
    def test_bad_counts_and_flags_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FitConfig(**{field: value})

    def test_numpy_count_and_flag_accepted(self):
        config = FitConfig(n_starts=np.int64(2), fix_amplitude=np.bool_(True))
        assert config.n_starts == 2 and config.fix_amplitude

    def test_array_bounds_compare_and_hash(self):
        """Array bounds are kept as tuples of floats, so configs built from
        equal arrays are equal and hash alike; scalars stay floats."""
        first = FitConfig(lengthscale_bounds=(np.full(2, 0.1), np.full(2, 2.0)))
        second = FitConfig(lengthscale_bounds=(np.full(2, 0.1), np.full(2, 2.0)))
        assert first == second and hash(first) == hash(second)
        assert first.lengthscale_bounds == ((0.1, 0.1), (2.0, 2.0))
        assert FitConfig(lengthscale_bounds=(np.float64(0.1), 2)).lengthscale_bounds == (0.1, 2.0)
        assert first != FitConfig(lengthscale_bounds=(np.full(2, 0.1), np.array([2.0, 1.0])))

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


def assert_same_search(fun, x0, args, bounds, max_iter):
    """``gp.minimize`` against scipy's L-BFGS-B, with and without a known start
    value; returns scipy's result.

    ``x`` and ``nfev`` match scipy's bit for bit on every exit, and so does
    ``fun`` except after an abnormal line search.  There the core restores the
    previous iterate, and ``fun`` is the value at that ``x`` exactly, where
    scipy's is the last trial's.
    """
    ref = scipy_minimize(fun, x0, args=args, method="L-BFGS-B", jac=True,
                         bounds=bounds, options={"maxiter": max_iter})
    expected = fun(ref.x, *args)[0] if ref.message.startswith("ABNORMAL") else ref.fun
    # A value known at the start answers the first request, if the start is in the box.
    inside = np.array_equal(np.clip(x0, *np.array(bounds).T), x0)
    for known, nfev in ((None, ref.nfev), (fun(x0, *args), ref.nfev - inside)):
        res = gp.minimize(fun, x0, args, bounds, max_iter, known)
        assert res.x.tobytes() == ref.x.tobytes()
        assert np.float64(res.fun).tobytes() == np.float64(expected).tobytes()
        assert res.nfev == nfev
    return ref


def assert_same_search_as_scipy(seed, d, n, fixed, max_iter):
    """``assert_same_search`` on a likelihood search."""
    x0, args, bounds = likelihood_search(seed, d, n, fixed)
    return assert_same_search(gp._nll_and_grad, x0, args, bounds, max_iter)


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
        assert assert_same_search_as_scipy(*search).message == exit

    # A gradient that points at 1 while the value falls towards 0 forces an
    # abnormal line search: before the first iterate is accepted, and after one
    # and three.  In each case scipy's value is the last trial's, not the value at x.
    @pytest.mark.parametrize("x0", [[0.1], [-0.5, -0.5], [-1.5, -1.0]])
    def test_abnormal_exit_reports_the_value_at_x(self, x0):
        def wrong_gradient(x):
            return float(x @ x), 2.0 * (x - 1.0)

        x0 = np.array(x0)
        bounds = [(-2.0, 2.0)] * x0.size
        ref = assert_same_search(wrong_gradient, x0, (), bounds, 40)
        assert ref.message.startswith("ABNORMAL")
        assert ref.fun != wrong_gradient(ref.x)[0]

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

    @pytest.mark.parametrize("lengthscales", [np.empty(0), np.ones((2, 2))], ids=["empty", "2d"])
    def test_params_reject_a_non_vector_lengthscale(self, lengthscales):
        with pytest.raises(ValueError, match="non-empty vector"):
            KernelParams(lengthscales=lengthscales)

    def test_params_reject_non_positive(self):
        with pytest.raises(ValueError):
            KernelParams(lengthscales=np.array([0.0]))
        with pytest.raises(ValueError):
            KernelParams(lengthscales=np.array([1.0]), amplitude=-1.0)
        with pytest.raises(ValueError):
            KernelParams(lengthscales=np.array([1.0]), noise_variance=0.0)
