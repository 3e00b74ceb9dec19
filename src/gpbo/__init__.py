"""Gaussian-process Bayesian optimization with pseudo-point augmentation.

The package provides an exact GP surrogate, three classic acquisition
functions with a deterministic rectangle-division maximizer, benchmark
objectives, run loops with regret tracking, and a numerical verification
suite for the closed-form posterior-correction identities.
"""

from .acquisition import AcquisitionSpec, beta_schedule, ei_value, pi_value, ucb_value
from .direct import DirectConfig, maximize
from .domain import BoxDomain, unit_symmetric
from .engine import RegretTrace, RunConfig, run_bo, run_bopp
from .gp import Dataset, FitConfig, GpModel, KernelParams, fit, posterior
from .objectives import NoiseModel, Objective, external_objective, make_synthetic, observe
from .pseudo import PseudoPointSet, PseudoSchedule, generate, mean_shift, variance_reduction
from .theory import TheoryParams, evaluate_regret_bound

__version__ = "0.1.0"

__all__ = [
    "AcquisitionSpec",
    "BoxDomain",
    "Dataset",
    "DirectConfig",
    "FitConfig",
    "GpModel",
    "KernelParams",
    "NoiseModel",
    "Objective",
    "PseudoPointSet",
    "PseudoSchedule",
    "RegretTrace",
    "RunConfig",
    "TheoryParams",
    "beta_schedule",
    "ei_value",
    "evaluate_regret_bound",
    "external_objective",
    "fit",
    "generate",
    "make_synthetic",
    "maximize",
    "mean_shift",
    "observe",
    "pi_value",
    "posterior",
    "run_bo",
    "run_bopp",
    "ucb_value",
    "unit_symmetric",
    "variance_reduction",
]
