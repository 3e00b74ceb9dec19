"""The regret-bound maths and the randomized verification of the correction identities.

``evaluate_regret_bound`` evaluates the cumulative-regret envelope of UCB
with pseudo-points on a finished run's trace: a theorem-form beta schedule
plus one mean-error envelope per round.

The three identity checks share one small random GP instance: each
evaluates a closed-form quantity from :mod:`gpbo.pseudo` on it and compares
it against a brute-force re-computation (posterior differences of explicitly
augmented models).
Reports carry the instance seed so any failure is replayable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import gp, pseudo
from .domain import unit_symmetric
from .gp import Dataset, KernelParams

__all__ = [
    "TheoryParams",
    "RegretBoundResult",
    "mean_error_bound",
    "evaluate_regret_bound",
    "TheoryInstance",
    "CheckReport",
    "build_instance",
    "check_variance_reduction_identity",
    "check_mean_shift_identity",
    "check_correction_bounds",
    "check_mean_error_envelope",
    "run_identity_suite",
]

_N_QUERIES = 32


@dataclass(frozen=True)
class TheoryParams:
    """Constants entering the theoretical schedule and regret bound.

    ``tail_a``/``tail_b`` parameterize the high-probability bound
    a*exp(-(L/b)^2) on the objective's partial-derivative tails;
    ``domain_width`` is the width of each coordinate of the search box.
    """

    tail_a: float = 1.0
    tail_b: float = 1.0
    domain_width: float = 2.0
    delta: float = 0.1

    def __post_init__(self):
        constants = (self.tail_a, self.tail_b, self.domain_width)
        if not all(0 < c < math.inf for c in constants):
            raise ValueError("all theory constants must be positive and finite")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie strictly inside (0, 1)")


def _theorem_beta(t: int, d: int, theory: TheoryParams) -> float:
    """The theorem-form confidence width at iteration ``t`` in dimension ``d``:
    2*log(2*pi^2*t^2/(3*delta)) + 2*d*log(t^2*d*b*r*sqrt(log(4*d*a/delta))).
    """
    delta = theory.delta
    inner = t**2 * d * theory.tail_b * theory.domain_width * math.sqrt(
        math.log(4.0 * d * theory.tail_a / delta)
    )
    return 2.0 * math.log(2.0 * math.pi**2 * t**2 / (3.0 * delta)) + 2.0 * d * math.log(inner)


def mean_error_bound(
    pseudo_count: int,
    tau: float,
    lipschitz: float,
    noise_variance: float,
    total_pseudo: int,
    delta: float,
    dimension: int,
) -> float:
    """High-probability envelope for the posterior-mean error of one round.

    l^2 * sqrt(1 + 1/noise) * (L*d*tau/sigma + 2*sqrt(log(4*total/delta)))
    with l the round's pseudo-point count and total the sum of counts over
    the whole run.  A round with no pseudo-points contributes zero.
    """
    if pseudo_count == 0:
        return 0.0
    sigma = math.sqrt(noise_variance)
    slope_term = lipschitz * dimension * tau / sigma
    noise_term = 2.0 * math.sqrt(math.log(4.0 * total_pseudo / delta))
    return pseudo_count**2 * math.sqrt(1.0 + 1.0 / noise_variance) * (slope_term + noise_term)


@dataclass(frozen=True)
class RegretBoundResult:
    """Numerical evaluation of the cumulative-regret envelope for one trace."""

    bound: float
    mean_error_terms: tuple[float, ...]
    info_gain: float
    beta_final: float
    capacity_constant: float


def evaluate_regret_bound(trace, theory: TheoryParams) -> RegretBoundResult:
    """Evaluate sqrt(C*T*beta_T*gain) + 2 + 2*sum(mean-error terms) for a trace.

    ``trace`` is the :class:`gpbo.engine.RegretTrace` of a finished run.
    ``gain`` is the trace's empirical information-gain proxy, substituted for
    the worst-case capacity term, so the number is diagnostic rather than a
    certified bound.  Requires a unit-amplitude trace (the formulas assume
    unit prior variance).  With no pseudo-points anywhere the expression
    collapses to sqrt(C*T*beta_T*gain) + 2.
    """
    if not trace.unit_amplitude:
        raise ValueError("regret bound evaluation requires a unit-amplitude trace")
    t_total = len(trace)
    d = trace.dimension
    noise = trace.noise_variance
    capacity = 8.0 / math.log1p(1.0 / noise)
    beta_final = _theorem_beta(t_total, d, theory)
    total = int(np.sum(trace.pseudo_counts))
    # The theorem form bounds the slope by tail_b*sqrt(log(4*d*tail_a/delta)).
    slope = theory.tail_b * math.sqrt(math.log(4.0 * d * theory.tail_a / theory.delta))
    terms = tuple(
        mean_error_bound(int(l), float(tau), slope, noise, total, theory.delta, d)
        for l, tau in zip(trace.pseudo_counts, trace.taus)
    )
    gain = float(trace.info_gain[-1])
    bound = math.sqrt(capacity * t_total * beta_final * gain) + 2.0 + 2.0 * sum(terms)
    return RegretBoundResult(
        bound=bound,
        mean_error_terms=terms,
        info_gain=gain,
        beta_final=beta_final,
        capacity_constant=capacity,
    )


@dataclass(frozen=True)
class TheoryInstance:
    """Size parameters of one randomized verification instance."""

    dimension: int = 2
    n_base: int = 5
    n_pseudo: int = 3
    tau: float = 0.05
    noise_variance: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        if self.dimension < 1 or self.n_base < 1 or self.n_pseudo < 0:
            raise ValueError("dimension and n_base must be >= 1, n_pseudo >= 0")
        if not (0 <= self.tau < math.inf and 0 < self.noise_variance < math.inf):
            raise ValueError("tau must be finite and >= 0, noise_variance finite and > 0")


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: replayable, machine-readable."""

    name: str
    passed: bool
    max_error: float
    tolerance: float
    seed: int
    detail: dict

    def to_dict(self) -> dict:
        return asdict(self)


def build_instance(instance: TheoryInstance):
    """Model, pseudo set, and query points for one seeded instance."""
    rng = np.random.default_rng(np.random.SeedSequence([instance.seed, 0x7E07]))
    d = instance.dimension
    domain = unit_symmetric(d)
    params = KernelParams(
        lengthscales=rng.uniform(0.3, 1.2, size=d),
        amplitude=1.0,
        noise_variance=instance.noise_variance,
    )
    points = domain.sample(rng, instance.n_base)
    values = rng.normal(0.0, 1.0, size=instance.n_base)
    data = Dataset(points, values)
    model = gp.build_model(data, params)
    # A zero-size draw leaves the generator as it was, and at tau = 0 each
    # pseudo-point sits on its parent after the collision redraws.
    parents = rng.integers(0, instance.n_base, size=instance.n_pseudo)
    pp = pseudo._place(data, parents, instance.tau, domain, rng)
    queries = domain.sample(rng, _N_QUERIES)
    return model, pp, queries, rng


def _instance_reports(
    instance: TheoryInstance, tolerance: float = 1e-8
) -> tuple[CheckReport, CheckReport, CheckReport]:
    """The variance-reduction, mean-shift and correction-bound reports of one
    instance, in that order, from one build and one augmentation, whose
    factor the true-value model and the closed forms share.  A failed
    factorization skips all three."""
    names = ("variance_reduction_identity", "mean_shift_identity", "correction_bounds")
    try:
        model, pp, queries, rng = build_instance(instance)
        with_copied = pseudo.augmented_model(model, pp)
    except gp.FactorizationError as exc:
        return tuple(CheckReport(name, False, math.inf, limit, instance.seed, {"skipped": str(exc)})
                     for name, limit in zip(names, (tolerance, tolerance, 0.0)))
    true_values = pp.values + rng.normal(0.0, 0.5, size=len(pp))
    # The same rows with the true values: with_copied's factor, other weights.
    with_true = gp._extend(model, Dataset(pp.points, true_values), with_copied.factor,
                           with_copied.jitter)
    _, base_var = gp.predict(model, queries)
    mu_hat, aug_var = gp.predict(with_copied, queries)
    mu_tilde, _ = gp.predict(with_true, queries)
    if len(pp):
        p_mat, s_lower = pseudo._p_and_s(with_copied.factor, model.data.points, pp.points,
                                         model.params, queries)
        reduction = pseudo._reduction(p_mat, s_lower)
        shift = pseudo._shift(p_mat, s_lower, pp.values - true_values)
    else:
        reduction = shift = np.zeros(len(queries))
    worst = float(np.max(np.abs(reduction - (base_var - aug_var))))
    low = float(np.min(reduction))
    variance = CheckReport(names[0], worst <= tolerance and low >= -1e-9, worst, tolerance,
                           instance.seed, {"min_reduction": low, "n_pseudo": len(pp), "tau": pp.tau})
    worst = float(np.max(np.abs(shift - (mu_hat - mu_tilde))))
    mean = CheckReport(names[1], worst <= tolerance, worst, tolerance, instance.seed,
                       {"n_pseudo": len(pp), "tau": pp.tau})
    if not len(pp):
        return variance, mean, CheckReport(names[2], True, 0.0, 0.0, instance.seed, {"n_pseudo": 0})
    m_mat = gp._cho_solve(s_lower, np.eye(len(pp)))
    max_p, max_m = float(np.max(np.abs(p_mat))), float(np.max(np.abs(m_mat)))
    p_excess = max_p - (math.sqrt(1.0 + instance.noise_variance) + 1e-8)
    m_excess = max_m - (1.0 / instance.noise_variance + 1e-6)
    bounds = CheckReport(names[2], p_excess <= 0.0 and m_excess <= 0.0, max(p_excess, m_excess, 0.0),
                         0.0, instance.seed, {"max_abs_p": max_p, "max_abs_m": max_m})
    return variance, mean, bounds


def check_variance_reduction_identity(instance: TheoryInstance, tolerance: float = 1e-8) -> CheckReport:
    """Closed-form variance reduction vs. the difference of two posteriors."""
    return _instance_reports(instance, tolerance)[0]


def check_mean_shift_identity(instance: TheoryInstance, tolerance: float = 1e-8) -> CheckReport:
    """Closed-form mean shift vs. paired explicit augmentations."""
    return _instance_reports(instance, tolerance)[1]


def check_correction_bounds(instance: TheoryInstance) -> CheckReport:
    """Elementwise envelopes: |p_j| <= sqrt(1+noise), |M_ji| <= 1/noise."""
    return _instance_reports(instance)[2]


def check_mean_error_envelope(
    instance: TheoryInstance,
    trials: int,
    theory: TheoryParams,
    threshold: float = 0.05,
) -> CheckReport:
    """Monte-Carlo exceedance rate of the mean-error envelope.

    Each trial draws a function jointly from the GP prior on a dense slope
    grid, the base points and the pseudo locations.  The grid's prior, with
    1e-10 on the diagonal, is factored once per check; each trial adds its
    base and pseudo rows by gp's block update, ``gp._augmented_factor``.  The
    realized augmented-mean error at the query points (borrowed vs. true
    noisy values) is the closed-form mean shift, read off one factor of the
    noisy [base, pseudo] covariance; no trial builds a base model.  The
    error is compared against the envelope evaluated with the grid-estimated
    slope bound.  The envelope is probabilistic, so the check only asserts
    the exceedance fraction stays under ``threshold``.  An instance without
    pseudo-points (``tau`` or ``n_pseudo`` zero) has nothing to check and is
    rejected, as is a ``trials`` count below one.
    """
    if instance.tau == 0.0 or instance.n_pseudo == 0:
        raise ValueError("the mean-error envelope needs tau > 0 and n_pseudo > 0")
    if trials < 1:
        raise ValueError(f"the mean-error envelope needs at least 1 trial, got {trials}")
    d = instance.dimension
    domain = unit_symmetric(d)
    params = KernelParams(np.full(d, 0.6), 1.0, instance.noise_variance)
    sigma = math.sqrt(instance.noise_variance)
    # Dense axis-aligned grid for the per-coordinate slope estimate: row j
    # of the (d, 96) block varies coordinate j through the box centre.
    grid_axis = np.linspace(-1.0, 1.0, 96)
    step = grid_axis[1] - grid_axis[0]
    grid = np.tile(domain.center, (d, grid_axis.size, 1))
    grid[np.arange(d), :, np.arange(d)] = grid_axis
    grid = grid.reshape(-1, d)
    grid_prior = gp.build_model(Dataset(grid, np.zeros(len(grid))),
                                replace(params, noise_variance=1e-10))
    prior = gp.build_model(gp.empty_dataset(d), params)
    realized: list[float] = []
    bounds: list[float] = []
    for k in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([instance.seed, 0x5EED, k]))
        base = domain.sample(rng, instance.n_base)
        parents = rng.integers(0, instance.n_base, size=instance.n_pseudo)
        pp = pseudo._place(Dataset(base, np.zeros(instance.n_base)), parents, instance.tau,
                           domain, rng)
        queries = domain.sample(rng, 8)
        rows = np.vstack([base, pp.points])
        factor, _ = gp._augmented_factor(grid_prior, rows)
        f_all = factor @ rng.standard_normal(factor.shape[0])
        n_b, n_p = instance.n_base, len(pp)
        f_grid, f_base, f_pseudo = np.split(f_all, [len(grid), len(grid) + n_b])
        slope = float(np.max(np.abs(np.diff(f_grid.reshape(d, -1))))) / step

        y_base = f_base + sigma * rng.standard_normal(n_b)
        y_true = f_pseudo + sigma * rng.standard_normal(n_p)
        # The mean shift needs only the factor of the noisy [base, pseudo]
        # covariance: no model of the base rows and their weights.
        factor, _ = gp._augmented_factor(prior, rows)
        p_mat, s_lower = pseudo._p_and_s(factor, base, pp.points, params, queries)
        shift = pseudo._shift(p_mat, s_lower, y_base[pp.parent_index] - y_true)
        worst = float(np.max(np.abs(shift)))
        realized.append(worst)
        bounds.append(mean_error_bound(n_p, pp.tau, slope, instance.noise_variance, n_p,
                                       theory.delta, d))
    exceed = int(np.sum(np.array(realized) > np.array(bounds)))
    fraction = exceed / trials
    return CheckReport(
        "mean_error_envelope",
        fraction <= threshold,
        fraction,
        threshold,
        instance.seed,
        {
            "trials": trials,
            "exceedances": exceed,
            "mean_realized": float(np.mean(realized)),
            "mean_envelope": float(np.mean(bounds)),
        },
    )


def run_identity_suite(seed: int, instances: int) -> list[CheckReport]:
    """The deterministic identity checks over a batch of random instances."""
    rng = np.random.default_rng(seed)
    reports: list[CheckReport] = []
    for k in range(instances):
        inst = TheoryInstance(
            dimension=int(rng.integers(1, 5)),
            n_base=int(rng.integers(1, 13)),
            n_pseudo=int(rng.integers(1, 7)),
            tau=float(rng.uniform(0.0, 0.15)),
            noise_variance=float(rng.uniform(1e-4, 1e-1)),
            seed=seed * 1_000_003 + k,
        )
        reports.extend(_instance_reports(inst))
    return reports
