"""Exact Gaussian-process regression with an ARD squared-exponential kernel.

The posterior is kept in factored form: a lower Cholesky factor of
``K + noise_variance * I`` plus the weight vector solving
``(K + noise_variance * I) w = y``.  All query operations reuse the factor
and never invert a matrix; only the likelihood gradient of the hyper-parameter
fit takes an explicit inverse, from LAPACK ``dpotri`` on the same factor.

The fit's searches run scipy's L-BFGS-B core (``setulb``, Byrd, Lu, Nocedal
& Zhu 1995) from a short driver loop, ``minimize``.  It passes what
``scipy.optimize.minimize(method="L-BFGS-B")`` passes and returns the same
bits, but skips that wrapper's per-call bookkeeping, which cost about as much
as the likelihood itself on small data sets.

The triangular and Cholesky solves of the model and the closed forms call
LAPACK's ``dtrtrs`` and ``dpotrs`` directly, through ``_solve_triangular``
and ``_cho_solve``, making the calls ``scipy.linalg.solve_triangular`` and
``cho_solve`` make, with the same bits and errors.  The wrappers' input
handling cost 14-24 us a call against 1-3 us for the routine at the sizes
``gpbo verify`` solves (1-12 base rows, 1-6 pseudo rows).  This module is
the one home of the package's LAPACK and BLAS calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs
from scipy.optimize import OptimizeResult
from scipy.optimize._lbfgsb import setulb

__all__ = [
    "Dataset",
    "KernelParams",
    "FitConfig",
    "GpModel",
    "FactorizationError",
    "kernel_matrix",
    "build_model",
    "posterior",
    "predict",
    "augment",
    "fit",
]

# Escalating diagonal jitter applied when a Cholesky factorization fails.
JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6)

# Box on the signal variance during the hyper-parameter fit.
_AMPLITUDE_BOUNDS = (1e-10, 1e10)


class FactorizationError(RuntimeError):
    """Raised when a covariance matrix stays non-positive-definite after jitter."""


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of evaluated points and their noisy values.

    ``points`` is (n, d), ``observations`` is (n,); index i is the i-th
    evaluation in append order.
    """

    points: np.ndarray
    observations: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, pts.shape[1] if pts.ndim == 2 else 1)
        if pts.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        obs = np.asarray(self.observations, dtype=float).reshape(-1)
        if obs.shape[0] != pts.shape[0]:
            raise ValueError("points and observations must have equal length")
        if pts.size and not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        if obs.size and not np.isfinite(obs).all():
            raise ValueError("observations must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "observations", obs)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def append(self, x: np.ndarray, y: float) -> "Dataset":
        x = np.asarray(x, dtype=float).reshape(1, -1)
        if len(self) and x.shape[1] != self.dimension:
            raise ValueError("appended point has wrong dimension")
        return Dataset(np.vstack([self.points, x]), np.append(self.observations, y))


def empty_dataset(dimension: int) -> Dataset:
    return Dataset(np.empty((0, dimension)), np.empty(0))


@dataclass(frozen=True)
class KernelParams:
    """ARD squared-exponential hyper-parameters plus observation noise.

    ``amplitude`` is the signal variance, so k(x, x) = amplitude.
    """

    lengthscales: np.ndarray
    amplitude: float = 1.0
    noise_variance: float = 1e-4

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        if not np.all(np.isfinite(ls)) or np.any(ls <= 0):
            raise ValueError("lengthscales must be strictly positive and finite")
        if not (np.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValueError("amplitude must be strictly positive and finite")
        if not (np.isfinite(self.noise_variance) and self.noise_variance > 0):
            raise ValueError("noise_variance must be strictly positive and finite")
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "noise_variance", float(self.noise_variance))

    @property
    def dimension(self) -> int:
        return self.lengthscales.shape[0]


def kernel_matrix(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    """Cross-covariance matrix between rows of ``a`` (n, d) and ``b`` (m, d).

    Computed from explicit coordinate differences so that identical rows give
    exactly ``amplitude`` (no cancellation in a dot-product expansion).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = (a[:, None, :] - b[None, :, :]) / params.lengthscales
    return params.amplitude * np.exp(-0.5 * np.einsum("ijk,ijk->ij", diff, diff))


def _chol_with_jitter(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``mat``, escalating diagonal jitter on failure.

    Only the lower triangle of ``mat`` is read, and ``mat`` is left as it
    was.  The factor's upper triangle is zero.  Every model and likelihood
    factorization goes through here; only the mean-error envelope in
    ``theory`` draws its prior samples through ``np.linalg.cholesky``.
    """
    n = mat.shape[0]
    for jitter in JITTER_LADDER:
        if jitter == 0.0:
            m = mat
        else:
            m = mat.copy()
            m.flat[:: n + 1] += jitter
        factor, info = dpotrf(m, lower=1, clean=1)
        if info == 0:
            return factor, jitter
    raise FactorizationError(
        f"covariance matrix of size {n} is not positive definite even with "
        f"jitter up to {JITTER_LADDER[-1]:g}"
    )


def _solve_triangular(a: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """``scipy.linalg.solve_triangular(a, b, lower=lower)`` for float arrays:
    the same ``dtrtrs`` call, in the same memory-order branch, and the same
    errors, ``ValueError`` on a non-finite entry and ``LinAlgError`` on a
    zero diagonal."""
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    if b.size == 0:
        return np.empty_like(b)
    if a.flags.f_contiguous:
        x, info = dtrtrs(a, b, lower=lower)
    else:
        # trtrs reads Fortran order, which a.T has when a is C-ordered.
        x, info = dtrtrs(a.T, b, lower=not lower, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def _cho_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(lower @ lower.T)^-1 @ b`` from a lower Cholesky factor, by ``dpotrs``:
    the call ``scipy.linalg.cho_solve((lower, True), b)`` makes."""
    x, info = dpotrs(lower, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


@dataclass(frozen=True)
class GpModel:
    """Immutable factored GP posterior state over a dataset.

    ``factor`` is the lower Cholesky factor of K + noise_variance*I (+jitter)
    and ``weight_vector`` solves that matrix against the observations.
    """

    params: KernelParams
    data: Dataset
    factor: np.ndarray | None
    weight_vector: np.ndarray
    jitter: float = 0.0

    def __len__(self) -> int:
        return len(self.data)


def build_model(data: Dataset, params: KernelParams) -> GpModel:
    """``augment`` of the prior, the model on no data, by ``data``'s rows.

    An empty dataset is allowed and yields the prior.
    """
    prior = GpModel(params, empty_dataset(params.dimension), None, np.empty(0))
    return augment(prior, data)


def _forward_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``factor^-1 @ rhs`` for a lower-triangular factor, one column at a time
    in the same arithmetic however many columns ``rhs`` has.

    ``_solve_triangular`` goes through trtrs, which OpenBLAS answers with trsv
    for a single column and trsm otherwise, and the two round differently.
    The branch only lets trsm read the factor in its stored memory order
    (a copy costs about 15 % of the solve at n = 210).
    """
    if factor.flags.f_contiguous:
        return dtrsm(1.0, factor, rhs.T, side=1, lower=1, trans_a=1).T
    return dtrsm(1.0, factor.T, rhs.T, side=1, lower=0).T


def predict(model: GpModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at each row of ``queries`` (m, d).

    Each row's results are bitwise the same whether it is queried alone or
    in a batch of any size: the sums run sequentially over the training
    points, and the triangular solve is column-independent.  So a batched
    search scores a point exactly as a single query does.

    Variances are clamped at zero; the pre-clamp value never drops below the
    numerical floor exercised in the test suite.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.shape[1] != model.params.dimension:
        raise ValueError("query dimension does not match the model")
    if not np.isfinite(queries).all():
        raise ValueError("queries must be finite")
    amp = model.params.amplitude
    if len(model) == 0:
        m = queries.shape[0]
        return np.zeros(m), np.full(m, amp)
    cross = kernel_matrix(model.data.points, queries, model.params)
    mean = np.cumsum(cross * model.weight_vector[:, None], axis=0)[-1]
    half = _forward_solve(model.factor, cross)
    var = amp - np.cumsum(half * half, axis=0)[-1]
    return mean, np.maximum(var, 0.0)


def posterior(model: GpModel, x: np.ndarray) -> tuple[float, float]:
    """Posterior mean and variance at a single point."""
    mean, var = predict(model, np.asarray(x, dtype=float).reshape(1, -1))
    return float(mean[0]), float(var[0])


def _augmented_factor(model: GpModel, points: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, and its jitter, of ``model``'s noisy covariance
    with rows at ``points`` added: the block update ``[[L11, 0], [H^T, L22]]``
    at the base jitter, or L22 alone for an empty model.  When L22 needs more
    jitter, the joint rows are factorized afresh and that factor is returned
    as LAPACK wrote it, since the solves' bits depend on its memory order.
    """
    params, n = model.params, len(model)
    corner = kernel_matrix(points, points, params)
    corner.flat[:: len(points) + 1] += params.noise_variance + model.jitter
    if n == 0:
        return _chol_with_jitter(corner)
    cross = kernel_matrix(model.data.points, points, params)
    half = _solve_triangular(model.factor, cross, lower=True)
    l22, jitter = _chol_with_jitter(corner - half.T @ half)
    if jitter > 0.0:
        prior = GpModel(params, empty_dataset(params.dimension), None, np.empty(0))
        return _augmented_factor(prior, np.vstack([model.data.points, points]))
    factor = np.zeros((n + len(points), n + len(points)))
    factor[:n, :n] = model.factor
    factor[n:, :n] = half.T
    factor[n:, n:] = l22
    return factor, model.jitter


def augment(model: GpModel, extra: Dataset) -> GpModel:
    """Add rows to a model through ``_augmented_factor``.

    The result's posterior matches a from-scratch rebuild on the concatenated
    data, and ``jitter`` records the jitter its factor carries on every row.
    """
    if len(extra) == 0:
        return model
    if extra.dimension != model.params.dimension:
        raise ValueError("dataset dimension does not match kernel lengthscales")
    factor, jitter = _augmented_factor(model, extra.points)
    # build_model's rows need no copy and no second check.
    joint = extra if len(model) == 0 else Dataset(
        np.vstack([model.data.points, extra.points]),
        np.concatenate([model.data.observations, extra.observations]),
    )
    w = _solve_triangular(factor, joint.observations, lower=True)
    w = _solve_triangular(factor.T, w, lower=False)
    return GpModel(model.params, joint, factor, w, jitter)


@dataclass(frozen=True)
class FitConfig:
    """Settings for maximum-likelihood hyper-parameter selection.

    The optimizer is a seeded multi-start L-BFGS search in log-parameter
    space; observation noise stays fixed.  ``fix_amplitude`` pins the signal
    variance at its initial value (used by the unit-amplitude mode of the run
    loops).
    """

    n_starts: int = 8
    fix_amplitude: bool = False
    lengthscale_bounds: tuple[float, float] = (1e-3, 1e3)
    lengthscale_sample_range: tuple[float, float] = (0.05, 2.0)


def _lik_stack(points: np.ndarray) -> np.ndarray:
    """Per-fit design of the likelihood gradient, shape (d + 1, n * n).

    Row j < d holds the squared coordinate-j differences and row d holds
    ones, each flattened and weighted 2 below the diagonal, 1 on it and 0
    above it.  A product with a flattened symmetric matrix that is valid
    only in its lower triangle then sums the whole matrix.
    """
    n, d = points.shape
    weights = np.tril(np.full((n, n), 2.0), -1) + np.eye(n)
    diff = points[:, None, :] - points[None, :, :]
    stack = np.empty((d + 1, n, n))
    stack[:d] = np.square(diff).transpose(2, 0, 1) * weights
    stack[d] = weights
    return stack.reshape(d + 1, n * n)


def _nll_and_grad(
    log_theta: np.ndarray,
    y: np.ndarray,
    stack: np.ndarray,
    fixed_amplitude: float | None,
    noise: float,
) -> tuple[float, np.ndarray]:
    """Negative log likelihood and its gradient in log-parameter space.

    ``stack`` comes from ``_lik_stack``; ``fixed_amplitude`` is None when
    the amplitude is the last entry of ``log_theta``.  Only lower triangles
    hold meaningful values (the Gram matrix's upper triangle is ``amp``);
    ``dpotrf`` and ``dpotri`` read and write nothing else, and the stack's
    weights drop the rest.
    """
    d = stack.shape[0] - 1
    t = y.shape[0]
    ls = np.exp(log_theta[:d])
    amp = math.exp(log_theta[d]) if fixed_amplitude is None else fixed_amplitude

    # The stack holds twice each squared difference below the diagonal.
    flat = (-0.25 / np.square(ls)) @ stack[:d]
    np.exp(flat, out=flat)
    flat *= amp
    gram = flat.reshape(t, t)
    diag = flat[:: t + 1]
    diag += noise
    try:
        lower, _ = _chol_with_jitter(gram)
    except FactorizationError:
        return 1e25, np.zeros_like(log_theta)
    diag[:] = amp  # dK/dlog(amplitude) is the noise-free Gram matrix
    alpha = dpotrs(lower, y, lower=1)[0]
    nll = (
        0.5 * float(y @ alpha)
        + float(np.log(lower.diagonal()).sum())
        + 0.5 * t * math.log(2.0 * math.pi)
    )
    # dLL/dtheta = 0.5 tr((alpha alpha^T - K^-1) dK/dtheta) (Rasmussen &
    # Williams 2006, eq. 5.9); the NLL's gradient flips the sign.
    wk = np.multiply.outer(alpha, alpha)
    wk -= dpotri(lower, lower=1)[0]
    wk *= gram
    grad = -0.5 * (stack[: log_theta.size] @ wk.reshape(-1))
    grad[:d] /= np.square(ls)
    return nll, grad


# scipy's L-BFGS-B defaults: the memory, ``ftol`` as a multiple of the machine
# epsilon, ``gtol``, the line-search steps and the evaluation cap.
_LBFGSB_MEMORY = 10
_LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-5
_LBFGSB_MAXLS = 20
_LBFGSB_MAXFUN = 15000

# Iteration limit of each of the fit's searches.
_FIT_MAX_ITER = 40


def minimize(fun, x0, args, bounds, max_iter, known=None) -> OptimizeResult:
    """L-BFGS-B minimum of ``fun(x, *args) -> (value, gradient)`` in the box
    ``bounds``, a sequence of finite (low, high) pairs, one per coordinate.

    The same search as ``scipy.optimize.minimize(fun, x0, args, method=
    "L-BFGS-B", jac=True, bounds=bounds, options={"maxiter": max_iter})``,
    bit for bit: ``x0`` is clipped to the box, the core gets scipy's default
    settings and stopping rules, and a one-entry memo on ``x`` answers a
    repeated request, so ``nfev`` counts what scipy's would.  ``known`` is
    ``(value, gradient)`` at ``x0`` if the caller has it already; it answers
    the first request and is not counted in ``nfev``.  ``fun`` must not write
    into its argument.  The result has ``x``, ``fun`` and ``nfev``.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    box = np.array(bounds, dtype=float)
    # The core reads n bounds of each kind, and nbd = 2 marks them all finite.
    if box.shape != (x0.size, 2) or not np.all(np.isfinite(box)) or np.any(box[:, 0] > box[:, 1]):
        raise ValueError("bounds must be one finite (low, high) pair with low <= high per coordinate")
    low, high = box.T.copy()
    x = np.clip(x0, low, high)
    n, m = x.size, _LBFGSB_MEMORY
    nbd = np.full(n, 2, dtype=np.int32)
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    seeded = known is not None and np.array_equal(x, x0)
    memo_x, memo = (x.copy(), known) if seeded else (None, None)
    nfev = iterations = 0
    while True:
        setulb(m, x, low, high, nbd, f, g, _LBFGSB_FACTR, _LBFGSB_PGTOL, wa, iwa,
               task, lsave, isave, dsave, _LBFGSB_MAXLS, ln_task)
        if task[0] == 3:  # FG: the core wants the value and gradient at x
            if memo_x is None or not np.array_equal(x, memo_x):
                memo_x = x.copy()
                memo = fun(memo_x, *args)
                nfev += 1
            f, grad = memo
            # A copy: the core may write into g, and the memo must keep it.
            g = np.array(grad, dtype=float)
        elif task[0] == 1:  # NEW_X: an iteration is done
            iterations += 1
            if iterations >= max_iter:
                task[:] = 5, 504  # STOP: iteration limit
            elif nfev + seeded > _LBFGSB_MAXFUN:
                task[:] = 5, 502  # STOP: evaluation limit
        else:  # converged, stopped or abnormal
            break
    return OptimizeResult(x=x, fun=f, nfev=nfev)


def _pack(params: KernelParams, config: FitConfig) -> np.ndarray:
    parts = [np.log(params.lengthscales)]
    if not config.fix_amplitude:
        parts.append([math.log(params.amplitude)])
    return np.concatenate(parts)


def _unpack(log_theta: np.ndarray, template: KernelParams, config: FitConfig) -> KernelParams:
    d = template.dimension
    amp = template.amplitude if config.fix_amplitude else math.exp(log_theta[d])
    return KernelParams(np.exp(log_theta[:d]), amp, template.noise_variance)


def fit(data: Dataset, init: KernelParams, config: FitConfig = FitConfig(),
        rng: np.random.Generator | None = None) -> KernelParams:
    """Hyper-parameters maximizing the log likelihood, never worse than ``init``.

    Runs ``n_starts`` L-BFGS searches (the first from ``init``, the rest from
    random draws) and returns the best candidate, falling back to ``init``
    itself if no search improves on it.  The draws come from ``rng``, so
    repeated fits can share one stream; None means a fresh generator seeded
    with 0.
    """
    if len(data) == 0:
        raise ValueError("fit requires a non-empty dataset")
    if data.dimension != init.dimension:
        raise ValueError("dataset dimension does not match initial lengthscales")
    d = data.dimension
    y = data.observations
    stack = _lik_stack(data.points)
    rng = rng if rng is not None else np.random.default_rng(0)

    bounds = [tuple(np.log(config.lengthscale_bounds))] * d
    if not config.fix_amplitude:
        bounds.append(tuple(np.log(_AMPLITUDE_BOUNDS)))

    lo_ls, hi_ls = config.lengthscale_sample_range
    var_y = float(np.var(y))
    amp_center = max(var_y, 1e-8)

    starts = [_pack(init, config)]
    for _ in range(max(config.n_starts - 1, 0)):
        draw = [rng.uniform(math.log(lo_ls), math.log(hi_ls), size=d)]
        if not config.fix_amplitude:
            draw.append(rng.uniform(math.log(amp_center) - math.log(10), math.log(amp_center) + math.log(10), size=1))
        starts.append(np.concatenate(draw))

    args = (y, stack, init.amplitude if config.fix_amplitude else None, init.noise_variance)
    first = _nll_and_grad(starts[0], *args)
    best_theta, best_nll = starts[0], first[0]
    if best_nll >= 1e25:
        raise FactorizationError("likelihood is not computable at the initial parameters")
    for theta0 in starts:
        # The first search starts where ``first`` was evaluated.
        known = first if theta0 is starts[0] else None
        res = minimize(_nll_and_grad, theta0, args, bounds, _FIT_MAX_ITER, known)
        if np.all(np.isfinite(res.x)) and res.fun < best_nll:
            best_nll = res.fun
            best_theta = res.x
    return _unpack(best_theta, init, config)
