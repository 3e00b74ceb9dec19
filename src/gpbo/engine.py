"""Sequential optimization loops with regret tracking.

``run_bopp`` is the loop: fit hyper-parameters, generate one round of
pseudo-points, maximize an acquisition surface on the augmented posterior
over the domain, evaluate, append.  The pseudo rows never touch
hyper-parameter fitting or the incumbent.  ``run_bo`` is the same loop with
the schedule disabled (``tau0 = 0``), which generates no pseudo-points.

Randomness is split into four named substreams (initial design, observation
noise, pseudo-point signs, fit restarts) derived from the run seed, so
disabling pseudo-points reproduces the plain loop draw-for-draw.

The hyper-parameters are refit before every selection, each lengthscale
within 5-100 % of its coordinate's side of the domain: one fit preset for
``gpbo run`` and library calls alike.  While the data holds fewer than 10*d
points the refit is the full multi-start search; from 10*d points on it is
the warm search from the previous optimum alone (``n_starts=1``), which
takes no draws from the fit substream.  Each likelihood evaluation costs
O(n^3), so the cut pays most late in a run.  The floor is a heuristic, not
a property of the likelihood; its basis is paired regret runs at d = 2 (the
criterion-5 cells) and d = 6 (hart6 at budget 100), recorded in CHANGES.md.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import acquisition as acq
from . import direct, gp, objectives, pseudo
from .gp import Dataset, FitConfig, KernelParams
from .objectives import NoiseModel, Objective, observe
from .pseudo import PseudoSchedule

__all__ = ["RunConfig", "RegretTrace", "run_bo", "run_bopp"]

logger = logging.getLogger(__name__)

# From _FULL_FIT_POINTS_PER_DIM * d data points on, every fit is the warm
# one-start search (see the module docstring).
_FULL_FIT_POINTS_PER_DIM = 10

# The acquisition search spends this many DIRECT evaluations per dimension.
_DIRECT_EVALUATIONS_PER_DIM = 200


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
    mutually exclusive with ``standardize``.  The hyper-parameter fit has no
    setting here: ``run_bopp`` derives its box from the objective's domain.
    """

    budget: int
    initial_points: int = 5
    acquisition_kind: str = "ucb"
    delta: float = 0.1
    noise_variance: float = 1e-4
    pseudo: PseudoSchedule = PseudoSchedule(0.0)
    seed: int = 0
    standardize: bool = True
    unit_amplitude: bool = False

    def __post_init__(self):
        for name in ("budget", "initial_points", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("standardize", "unit_amplitude"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {value!r}")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.initial_points < 0:
            raise ValueError("initial_points must be non-negative")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie strictly inside (0, 1)")
        if not (math.isfinite(self.noise_variance) and self.noise_variance >= 0):
            raise ValueError("noise variance must be non-negative and finite")
        acq.AcquisitionSpec(self.acquisition_kind)  # owns the set of kinds
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
        """The deterministic arrays: every array field except wall-clock timing.

        ``beta`` is NaN throughout for pi and ei runs, so compare payloads
        with ``np.array_equal(..., equal_nan=True)``.
        """
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


def run_bo(objective: Objective, config: RunConfig) -> RegretTrace:
    """Plain sequential optimization (no pseudo-points)."""
    if config.pseudo.enabled:
        raise ValueError("run_bo requires a disabled pseudo schedule; use run_bopp")
    return run_bopp(objective, config)


def run_bopp(objective: Objective, config: RunConfig) -> RegretTrace:
    """Sequential optimization with pseudo-point-augmented selection."""
    d = objective.dimension
    t_total = config.budget
    master = np.random.SeedSequence(config.seed)
    init_ss, noise_ss, pseudo_ss, fit_ss = master.spawn(4)
    init_rng = np.random.default_rng(init_ss)
    pseudo_rng = np.random.default_rng(pseudo_ss)
    fit_rng = np.random.default_rng(fit_ss)
    noise = NoiseModel(config.noise_variance, np.random.default_rng(noise_ss))
    # Lengthscales live between 5% and 100% of their coordinate's side. Shorter
    # scales model observation noise, not structure; longer ones are
    # indistinguishable from a trend but keep distorting the surrogate's peak.
    widths = objective.domain.widths
    fit_config = FitConfig(fix_amplitude=config.unit_amplitude,
                           lengthscale_bounds=(0.05 * widths, widths))
    warm_config = replace(fit_config, n_starts=1)
    direct_config = direct.DirectConfig(max_evaluations=_DIRECT_EVALUATIONS_PER_DIM * d)

    init_points = objective.domain.sample(init_rng, config.initial_points)
    init_obs = np.array([observe(objective, noise, x) for x in init_points])
    data = Dataset(init_points, init_obs)

    params = _initial_params(d, config)
    optimum = objective.optimum_value

    out = RegretTrace(
        objective_name=objective.name,
        dimension=d,
        unit_amplitude=config.unit_amplitude,
        noise_variance=params.noise_variance,
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
        n = len(data)
        fit_data = data
        if config.standardize and n:
            shift = float(np.mean(data.observations))
            scale = max(float(np.std(data.observations)), 1e-12)
            fit_data = Dataset(data.points, (data.observations - shift) / scale)
        if n:
            full = n < _FULL_FIT_POINTS_PER_DIM * d
            try:
                params = gp.fit(fit_data, params, fit_config if full else warm_config, fit_rng)
            except gp.FactorizationError as exc:
                logger.warning("iteration %d: hyper-parameter fit failed (%s); keeping previous", t, exc)
        model = gp.build_model(fit_data, params)

        pp = pseudo.generate(fit_data, config.pseudo, objective.domain, pseudo_rng)
        selection_model = pseudo.augmented_model(model, pp)

        if config.acquisition_kind == "ucb":
            beta = acq.beta_schedule(t, d, config.delta)
            spec = acq.AcquisitionSpec(kind="ucb", beta=beta)
            out.beta[t - 1] = beta
        else:
            # Incumbent in the same (transformed) units as the surrogate.
            incumbent = float(np.max(fit_data.observations)) if n else 0.0
            spec = acq.AcquisitionSpec(kind=config.acquisition_kind, incumbent=incumbent)

        # One prepared posterior serves the whole search.  DIRECT's points are
        # finite rows of the model's width, so they skip predict's checks.
        selection_posterior = gp._Posterior(selection_model)

        def surface(x: np.ndarray) -> np.ndarray | float:
            # Batched over rows of a 2-D x; a single point gives a float.
            mean, var = selection_posterior(x if x.ndim == 2 else x.reshape(1, -1))
            values = spec.values(mean, np.sqrt(var))
            return values if x.ndim == 2 else float(values[0])

        x_next, _ = direct.maximize(surface, objective.domain, direct_config, vectorized=True)

        _, sel_var = gp.posterior(selection_model, x_next)
        gain += 0.5 * math.log1p(sel_var / params.noise_variance)

        # One evaluation gives both: an external objective is one process a point.
        f_next, y_next = objectives._measure(objective, noise, x_next)

        idx = t - 1
        out.points[idx] = x_next
        out.observations[idx] = y_next
        out.true_values[idx] = f_next
        if len(pp):
            # The closed form reads its blocks off the selection model's factor.
            p_mat, s_lower = pseudo._p_and_s(selection_model.factor, fit_data.points, pp.points,
                                             params, x_next[None])
            out.delta_v[idx] = pseudo._reduction(p_mat, s_lower)[0]
        out.info_gain[idx] = gain
        out.pseudo_counts[idx] = len(pp)
        out.taus[idx] = pp.tau
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
