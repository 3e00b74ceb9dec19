"""Sequential optimization loops with regret tracking.

``run_bo`` is the plain loop: fit hyper-parameters, maximize an acquisition
surface over the domain, evaluate, append.  ``run_bopp`` additionally
generates one round of pseudo-points before each selection and maximizes
the acquisition on the augmented posterior; the pseudo rows never touch
hyper-parameter fitting or the incumbent.

Randomness is split into four named substreams (initial design, observation
noise, pseudo-point signs, fit restarts) derived from the run seed, so
disabling pseudo-points reproduces the plain loop draw-for-draw.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import acquisition as acq
from . import direct, gp, pseudo
from .gp import Dataset, FitConfig, KernelParams, empty_dataset
from .objectives import NoiseModel, Objective, observe
from .pseudo import PseudoSchedule, disabled_schedule

__all__ = ["RunConfig", "RegretTrace", "run_bo", "run_bopp"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    """Settings for one optimization run.

    ``standardize`` transforms observations to zero mean and unit variance
    before GP fitting; the transform is recomputed each iteration and the
    acquisition is maximized in transformed units (all three acquisitions
    have affine-invariant argmaxes, so selection is unaffected by the units).
    With the fixed noise level this keeps the likelihood surface sane for
    objectives whose raw scale dwarfs the noise.  ``unit_amplitude`` pins the
    signal variance at one, which the bound evaluator requires, and is
    mutually exclusive with ``standardize``.  ``direct_config`` defaults to
    a budget of 200*d evaluations.
    """

    budget: int
    initial_points: int = 5
    acquisition_kind: str = "ucb"
    delta: float = 0.1
    noise_variance: float = 1e-4
    pseudo: PseudoSchedule = field(default_factory=disabled_schedule)
    seed: int = 0
    standardize: bool = True
    unit_amplitude: bool = False
    fit: FitConfig = field(default_factory=FitConfig)
    direct_config: direct.DirectConfig | None = None

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.initial_points < 0:
            raise ValueError("initial_points must be non-negative")
        if self.acquisition_kind not in ("pi", "ei", "ucb"):
            raise ValueError(f"unknown acquisition kind {self.acquisition_kind!r}")
        if self.standardize and self.unit_amplitude:
            raise ValueError("unit_amplitude mode forbids observation centering")


@dataclass
class RegretTrace:
    """Per-iteration record of one run.

    ``simple_regret``/``cumulative_regret`` are NaN when the objective has
    no known optimum.  ``info_gain`` is the running sum of the per-iteration
    increments 0.5*log(1 + selection_variance/noise).  ``pseudo_counts`` and
    ``taus`` record the schedule actually used at each iteration.
    """

    objective_name: str
    dimension: int
    unit_amplitude: bool
    noise_variance: float
    init_points: np.ndarray
    init_observations: np.ndarray
    points: np.ndarray
    observations: np.ndarray
    true_values: np.ndarray
    instant_regret: np.ndarray
    simple_regret: np.ndarray
    cumulative_regret: np.ndarray
    delta_v: np.ndarray
    beta: np.ndarray
    info_gain: np.ndarray
    pseudo_counts: np.ndarray
    taus: np.ndarray
    wall_ms: np.ndarray
    lengthscales: np.ndarray
    amplitudes: np.ndarray

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def final_simple_regret(self) -> float:
        return float(self.simple_regret[-1])

    def payload(self) -> dict[str, np.ndarray]:
        """The deterministic arrays: every array field except wall-clock timing."""
        arrays = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "wall_ms"}
        return {name: value for name, value in arrays.items() if isinstance(value, np.ndarray)}


def _initial_params(dimension: int, config: RunConfig) -> KernelParams:
    # The surrogate needs a strictly positive noise level even when the
    # observation noise is zero (deterministic objectives).
    return KernelParams(
        lengthscales=np.full(dimension, 0.5),
        amplitude=1.0,
        noise_variance=max(config.noise_variance, 1e-12),
    )


def _direct_config(config: RunConfig, dimension: int) -> direct.DirectConfig:
    if config.direct_config is not None:
        return config.direct_config
    return direct.DirectConfig(max_evaluations=200 * dimension)


def _run(objective: Objective, config: RunConfig, schedule: PseudoSchedule) -> RegretTrace:
    d = objective.dimension
    t_total = config.budget
    master = np.random.SeedSequence(config.seed)
    init_ss, noise_ss, pseudo_ss, fit_ss = master.spawn(4)
    init_rng = np.random.default_rng(init_ss)
    pseudo_rng = np.random.default_rng(pseudo_ss)
    fit_rng = np.random.default_rng(fit_ss)
    noise = NoiseModel(config.noise_variance, np.random.default_rng(noise_ss))
    fit_config = replace(config.fit, fix_amplitude=config.fit.fix_amplitude or config.unit_amplitude)
    direct_config = _direct_config(config, d)

    gp_noise = max(config.noise_variance, 1e-12)
    init_points = objective.domain.sample(init_rng, config.initial_points)
    init_obs = np.array([observe(objective, noise, x) for x in init_points])
    data = Dataset(init_points, init_obs) if config.initial_points else empty_dataset(d)

    params = _initial_params(d, config)
    optimum = objective.optimum_value

    out = RegretTrace(
        objective_name=objective.name,
        dimension=d,
        unit_amplitude=config.unit_amplitude,
        noise_variance=gp_noise,
        init_points=init_points,
        init_observations=init_obs,
        points=np.empty((t_total, d)),
        observations=np.empty(t_total),
        true_values=np.empty(t_total),
        instant_regret=np.full(t_total, np.nan),
        simple_regret=np.full(t_total, np.nan),
        cumulative_regret=np.full(t_total, np.nan),
        delta_v=np.zeros(t_total),
        beta=np.full(t_total, np.nan),
        info_gain=np.zeros(t_total),
        pseudo_counts=np.zeros(t_total, dtype=int),
        taus=np.zeros(t_total),
        wall_ms=np.zeros(t_total),
        lengthscales=np.empty((t_total, d)),
        amplitudes=np.empty(t_total),
    )

    cumulative = 0.0
    best_regret = math.inf
    gain = 0.0

    for t in range(1, t_total + 1):
        started = time.perf_counter()
        if config.standardize and len(data):
            shift = float(np.mean(data.observations))
            scale = max(float(np.std(data.observations)), 1e-12)
        else:
            shift, scale = 0.0, 1.0
        fit_data = (
            Dataset(data.points, (data.observations - shift) / scale)
            if (shift, scale) != (0.0, 1.0)
            else data
        )
        if len(data) > 0:
            try:
                params = gp.fit(fit_data, params, fit_config, fit_rng)
            except gp.FactorizationError as exc:
                logger.warning("iteration %d: hyper-parameter fit failed (%s); keeping previous", t, exc)
        model = gp.build_model(fit_data, params)

        pp = pseudo.generate(fit_data, schedule, objective.domain, pseudo_rng) if len(data) else (
            pseudo.empty_pseudo_set(d)
        )
        selection_model = pseudo.augmented_model(model, pp)

        if config.acquisition_kind == "ucb":
            beta = acq.beta_schedule(t, d, config.delta)
            spec = acq.AcquisitionSpec(kind="ucb", beta=beta)
            out.beta[t - 1] = beta
        else:
            # Incumbent in the same (transformed) units as the surrogate.
            incumbent = float(np.max(fit_data.observations)) if len(data) else 0.0
            spec = acq.AcquisitionSpec(kind=config.acquisition_kind, incumbent=incumbent)

        def surface(x: np.ndarray) -> np.ndarray | float:
            # Batched over rows of a 2-D x; a single point gives a float.
            mean, var = gp.predict(selection_model, x)
            values = spec.values(mean, np.sqrt(var))
            return values if np.ndim(x) == 2 else float(values[0])

        x_next, _ = direct.maximize(surface, objective.domain, direct_config, vectorized=True)

        _, sel_var = gp.posterior(selection_model, x_next)
        gain += 0.5 * math.log1p(sel_var / params.noise_variance)
        if len(pp):
            out.delta_v[t - 1] = pseudo.variance_reduction(model, pp, x_next)

        y_next = observe(objective, noise, x_next)
        f_next = objective.evaluate_true(x_next)

        idx = t - 1
        out.points[idx] = x_next
        out.observations[idx] = y_next
        out.true_values[idx] = f_next
        out.info_gain[idx] = gain
        out.pseudo_counts[idx] = len(pp)
        out.taus[idx] = pp.tau if len(pp) else 0.0
        out.lengthscales[idx] = params.lengthscales
        out.amplitudes[idx] = params.amplitude
        if optimum is not None:
            regret = optimum - f_next
            cumulative += regret
            best_regret = min(best_regret, regret)
            out.instant_regret[idx] = regret
            out.simple_regret[idx] = best_regret
            out.cumulative_regret[idx] = cumulative

        data = data.append(x_next, y_next)
        out.wall_ms[idx] = (time.perf_counter() - started) * 1e3

    return out


def run_bo(objective: Objective, config: RunConfig) -> RegretTrace:
    """Plain sequential optimization (no pseudo-points)."""
    if config.pseudo.enabled:
        raise ValueError("run_bo requires a disabled pseudo schedule; use run_bopp")
    return _run(objective, config, disabled_schedule())


def run_bopp(objective: Objective, config: RunConfig) -> RegretTrace:
    """Sequential optimization with pseudo-point-augmented selection."""
    return _run(objective, config, config.pseudo)
