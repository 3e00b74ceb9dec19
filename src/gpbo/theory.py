"""The regret-bound maths and the randomized verification of the correction identities.

``evaluate_regret_bound`` evaluates the cumulative-regret envelope of UCB
with pseudo-points on a finished run's trace: a theorem-form beta schedule
plus one mean-error envelope per round.

Each check builds a small random GP instance, evaluates a closed-form
quantity from :mod:`gpbo.pseudo`, and compares it against a brute-force
re-computation (posterior differences of explicitly augmented models).
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
        if min(self.tail_a, self.tail_b, self.domain_width) <= 0:
            raise ValueError("all theory constants must be positive")
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
        if self.tau < 0 or self.noise_variance <= 0:
            raise ValueError("tau must be >= 0 and noise_variance > 0")


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


def _schedule_for(instance: TheoryInstance) -> pseudo.PseudoSchedule:
    """A schedule whose computed displacement equals the instance's tau."""
    d, l = instance.dimension, instance.n_pseudo
    width = 2.0
    tau0 = instance.tau * d * l / width
    return pseudo.PseudoSchedule(tau0=tau0, domain_width=width, mode="fixed", count=l)


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
    if instance.n_pseudo == 0:
        pp = pseudo.empty_pseudo_set(d)
    elif instance.tau == 0.0:
        # Degenerate displacement: pseudo-points sit exactly on their parents.
        parents = rng.integers(0, instance.n_base, size=instance.n_pseudo)
        pp = pseudo.PseudoPointSet(
            points=data.points[parents].copy(),
            values=data.observations[parents].copy(),
            parent_index=parents,
            tau=0.0,
        )
    else:
        pp = pseudo.generate(data, _schedule_for(instance), domain, rng)
    queries = domain.sample(rng, _N_QUERIES)
    return model, pp, queries, rng


def check_variance_reduction_identity(instance: TheoryInstance, tolerance: float = 1e-8) -> CheckReport:
    """Closed-form variance reduction vs. the difference of two posteriors."""
    try:
        model, pp, queries, _ = build_instance(instance)
        augmented = pseudo.augmented_model(model, pp)
    except gp.FactorizationError as exc:
        return CheckReport("variance_reduction_identity", False, math.inf, tolerance,
                           instance.seed, {"skipped": str(exc)})
    closed = pseudo.variance_reduction(model, pp, queries)
    _, base_var = gp.predict(model, queries)
    _, aug_var = gp.predict(augmented, queries)
    worst = float(np.max(np.abs(closed - (base_var - aug_var))))
    min_value = float(np.min(closed))
    passed = worst <= tolerance and min_value >= -1e-9
    return CheckReport(
        "variance_reduction_identity",
        passed,
        worst,
        tolerance,
        instance.seed,
        {"min_reduction": min_value, "n_pseudo": len(pp), "tau": pp.tau},
    )


def check_mean_shift_identity(instance: TheoryInstance, tolerance: float = 1e-8) -> CheckReport:
    """Closed-form mean shift vs. paired explicit augmentations."""
    try:
        model, pp, queries, rng = build_instance(instance)
    except gp.FactorizationError as exc:
        return CheckReport("mean_shift_identity", False, math.inf, tolerance,
                           instance.seed, {"skipped": str(exc)})
    true_values = pp.values + rng.normal(0.0, 0.5, size=len(pp))
    with_copied = pseudo.augmented_model(model, pp)
    with_true = pseudo.augmented_model(model, replace(pp, values=true_values))
    closed = pseudo.mean_shift(model, pp, true_values, queries)
    mu_hat, _ = gp.predict(with_copied, queries)
    mu_tilde, _ = gp.predict(with_true, queries)
    worst = float(np.max(np.abs(closed - (mu_hat - mu_tilde))))
    return CheckReport(
        "mean_shift_identity",
        worst <= tolerance,
        worst,
        tolerance,
        instance.seed,
        {"n_pseudo": len(pp), "tau": pp.tau},
    )


def check_correction_bounds(instance: TheoryInstance) -> CheckReport:
    """Elementwise envelopes: |p_j| <= sqrt(1+noise), |M_ji| <= 1/noise."""
    try:
        model, pp, queries, _ = build_instance(instance)
        if len(pp) == 0:
            return CheckReport("correction_bounds", True, 0.0, 0.0, instance.seed, {"n_pseudo": 0})
        p_mat, m_mat, _ = pseudo.correction_terms(model, pp, queries)
    except gp.FactorizationError as exc:
        return CheckReport("correction_bounds", False, math.inf, 0.0,
                           instance.seed, {"skipped": str(exc)})
    noise = instance.noise_variance
    p_limit = math.sqrt(1.0 + noise) + 1e-8
    m_limit = 1.0 / noise + 1e-6
    p_excess = float(np.max(np.abs(p_mat)) - p_limit)
    m_excess = float(np.max(np.abs(m_mat)) - m_limit)
    worst = max(p_excess, m_excess, 0.0)
    return CheckReport(
        "correction_bounds",
        p_excess <= 0.0 and m_excess <= 0.0,
        worst,
        0.0,
        instance.seed,
        {"max_abs_p": float(np.max(np.abs(p_mat))), "max_abs_m": float(np.max(np.abs(m_mat)))},
    )


def check_mean_error_envelope(
    instance: TheoryInstance,
    trials: int,
    theory: TheoryParams,
    threshold: float = 0.05,
) -> CheckReport:
    """Monte-Carlo exceedance rate of the mean-error envelope.

    Each trial draws a function jointly from the GP prior at the base
    points, the pseudo locations, and a dense slope grid; the realized
    augmented-mean error at the query points (borrowed vs. true noisy
    values, from the closed-form ``pseudo.mean_shift``) is compared against
    the envelope evaluated with the grid-estimated slope bound.  The
    envelope is probabilistic, so the check only asserts the exceedance
    fraction stays under ``threshold``.  An instance without pseudo-points
    (``tau`` or ``n_pseudo`` zero) has nothing to check and is rejected.
    """
    if instance.tau == 0.0 or instance.n_pseudo == 0:
        raise ValueError("the mean-error envelope needs tau > 0 and n_pseudo > 0")
    d = instance.dimension
    domain = unit_symmetric(d)
    schedule = _schedule_for(instance)
    params = KernelParams(
        lengthscales=np.full(d, 0.6),
        amplitude=1.0,
        noise_variance=instance.noise_variance,
    )
    sigma = math.sqrt(instance.noise_variance)
    # Dense axis-aligned grid for the per-coordinate slope estimate: row j
    # of the (d, 96) block varies coordinate j through the box centre.
    grid_axis = np.linspace(-1.0, 1.0, 96)
    step = grid_axis[1] - grid_axis[0]
    grid = np.tile(domain.center, (d, grid_axis.size, 1))
    grid[np.arange(d), :, np.arange(d)] = grid_axis
    grid = grid.reshape(-1, d)
    exceed = 0
    realized: list[float] = []
    bounds: list[float] = []
    for k in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([instance.seed, 0x5EED, k]))
        base = domain.sample(rng, instance.n_base)
        pp = pseudo.generate(Dataset(base, np.zeros(instance.n_base)), schedule, domain, rng)
        queries = domain.sample(rng, 8)
        everything = np.vstack([base, pp.points, grid])
        cov = gp.kernel_matrix(everything, everything, params)
        cov[np.diag_indices_from(cov)] += 1e-10
        f_all = np.linalg.cholesky(cov) @ rng.standard_normal(everything.shape[0])
        n_b, n_p = instance.n_base, len(pp)
        f_base, f_pseudo, f_grid = np.split(f_all, [n_b, n_b + n_p])
        slope = float(np.max(np.abs(np.diff(f_grid.reshape(d, -1))))) / step

        y_base = f_base + sigma * rng.standard_normal(n_b)
        model = gp.build_model(Dataset(base, y_base), params)
        pp = replace(pp, values=y_base[pp.parent_index])
        y_true = f_pseudo + sigma * rng.standard_normal(n_p)
        worst = float(np.max(np.abs(pseudo.mean_shift(model, pp, y_true, queries))))
        envelope = mean_error_bound(
            n_p, pp.tau, slope, instance.noise_variance, n_p, theory.delta, d
        )
        realized.append(worst)
        bounds.append(envelope)
        if worst > envelope:
            exceed += 1
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
        reports.append(check_variance_reduction_identity(inst))
        reports.append(check_mean_shift_identity(inst))
        reports.append(check_correction_bounds(inst))
    return reports
