"""Benchmark objectives, observation noise, and an external-command adapter.

Every objective here is a maximization problem over a box domain.  The
classic benchmark surfaces are minimization problems on their own canonical
domains; the factory negates them and rescales the domain to [-1, 1]^d so
that regret numbers are directly comparable across functions.
"""

from __future__ import annotations

import math
import shlex
import subprocess
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import BoxDomain, unit_symmetric

__all__ = [
    "Objective",
    "NoiseModel",
    "make_synthetic",
    "observe",
    "external_objective",
    "SYNTHETIC_NAMES",
    "ExternalObjectiveError",
    "ObjectiveSpawnError",
    "ObjectiveExitError",
    "ObjectiveTimeoutError",
    "ObjectiveParseError",
]


@dataclass(frozen=True)
class Objective:
    """A maximization problem: noise-free evaluator, domain, known optimum.

    ``optimum_value`` is None for objectives whose best value is unknown
    (external commands); regret tracking then falls back to best-observed
    reporting.  ``batch_evaluate`` maps an (n, d) array to (n,) values.
    """

    name: str
    domain: BoxDomain
    batch_evaluate: Callable[[np.ndarray], np.ndarray]
    optimum_value: float | None = None
    optimum_point: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    def evaluate_true(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float).reshape(1, -1)
        return float(self.batch_evaluate(x)[0])


@dataclass
class NoiseModel:
    """Additive Gaussian observation noise with a caller-owned stream.

    Each observation consumes exactly one standard-normal draw, including
    when the variance is zero, so run reproducibility does not depend on the
    noise level.
    """

    variance: float
    stream: np.random.Generator

    def __post_init__(self):
        if not (np.isfinite(self.variance) and self.variance >= 0):
            raise ValueError("noise variance must be non-negative and finite")

    def draw(self) -> float:
        return math.sqrt(self.variance) * float(self.stream.standard_normal())


def observe(obj: Objective, noise: NoiseModel, x: np.ndarray) -> float:
    """Noisy measurement of the objective at an in-domain point."""
    return _measure(obj, noise, x)[1]


def _measure(obj: Objective, noise: NoiseModel, x: np.ndarray) -> tuple[float, float]:
    """The true value at an in-domain point and its noisy measurement, from
    one evaluation of the objective."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if not obj.domain.contains(x):
        raise ValueError(f"point {x.tolist()} lies outside the domain of {obj.name}")
    value = obj.evaluate_true(x)
    return value, value + noise.draw()


# --- synthetic benchmarks ---------------------------------------------------

# Canonical minimization forms, each with its usual domain.  The factory
# rescales [-1, 1]^d onto these boxes and negates the value.


def _dropwave(x: np.ndarray) -> np.ndarray:
    sq = np.sum(x * x, axis=1)
    return -(1.0 + np.cos(12.0 * np.sqrt(sq))) / (0.5 * sq + 2.0)


def _griewank(x: np.ndarray) -> np.ndarray:
    idx = np.sqrt(np.arange(1, x.shape[1] + 1, dtype=float))
    return np.sum(x * x, axis=1) / 4000.0 - np.prod(np.cos(x / idx), axis=1) + 1.0


_HART6_A = np.array(
    [
        [10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
        [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
        [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
        [17.0, 8.0, 0.05, 10.0, 0.1, 14.0],
    ]
)
_HART6_P = np.array(
    [
        [0.1312, 0.1696, 0.5569, 0.0124, 0.8283, 0.5886],
        [0.2329, 0.4135, 0.8307, 0.3736, 0.1004, 0.9991],
        [0.2348, 0.1451, 0.3522, 0.2883, 0.3047, 0.6650],
        [0.4047, 0.8828, 0.8732, 0.5743, 0.1091, 0.0381],
    ]
)
_HART6_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_HART6_ARGMIN = np.array([0.20168952, 0.15001069, 0.47687398, 0.27533243, 0.31165162, 0.65730054])


def _hart6(x: np.ndarray) -> np.ndarray:
    inner = np.einsum("rj,nrj->nr", _HART6_A, np.square(x[:, None, :] - _HART6_P[None, :, :]))
    return -np.exp(-inner) @ _HART6_ALPHA


def _rastrigin(x: np.ndarray) -> np.ndarray:
    return 10.0 * x.shape[1] + np.sum(x * x - 10.0 * np.cos(2.0 * math.pi * x), axis=1)


@dataclass(frozen=True)
class _Canonical:
    fn: Callable[[np.ndarray], np.ndarray]
    dimension: int
    lower: float
    upper: float
    argmin: np.ndarray


_CANONICAL = {
    "dropwave": _Canonical(_dropwave, 2, -5.12, 5.12, np.zeros(2)),
    "griewank": _Canonical(_griewank, 2, -600.0, 600.0, np.zeros(2)),
    "hart6": _Canonical(_hart6, 6, 0.0, 1.0, _HART6_ARGMIN),
    "rastrigin": _Canonical(_rastrigin, 2, -5.12, 5.12, np.zeros(2)),
}

SYNTHETIC_NAMES = tuple(sorted(_CANONICAL))

_PROBE_POINTS = 10_000


def make_synthetic(name: str) -> Objective:
    """Standard benchmark rescaled to [-1, 1]^d and flipped to maximization.

    The returned optimum equals the negated canonical value at the known
    minimizer; construction probes the surface at 1e4 seeded random points
    to confirm nothing exceeds it.
    """
    try:
        spec = _CANONICAL[name]
    except KeyError:
        raise ValueError(
            f"unknown synthetic objective {name!r}; valid names: {', '.join(SYNTHETIC_NAMES)}"
        ) from None
    scale = 0.5 * (spec.upper - spec.lower)
    shift = 0.5 * (spec.upper + spec.lower)

    def batch(z: np.ndarray, _spec=spec, _scale=scale, _shift=shift) -> np.ndarray:
        return -_spec.fn(_shift + _scale * np.asarray(z, dtype=float))

    domain = unit_symmetric(spec.dimension)
    argmax = (spec.argmin - shift) / scale
    optimum = float(batch(argmax.reshape(1, -1))[0]) + 0.0  # normalizes -0.0
    probes = np.random.default_rng(1234).uniform(-1.0, 1.0, size=(_PROBE_POINTS, spec.dimension))
    probe_max = float(batch(probes).max())
    if probe_max > optimum + 1e-9:
        raise AssertionError(
            f"{name}: probe found value {probe_max} above the stated optimum {optimum}"
        )
    return Objective(
        name=name,
        domain=domain,
        batch_evaluate=batch,
        optimum_value=optimum,
        optimum_point=argmax,
    )


# --- external command objective ----------------------------------------------


class ExternalObjectiveError(RuntimeError):
    """Base class for failures of the external-command protocol."""


class ObjectiveSpawnError(ExternalObjectiveError):
    """The child process could not be started."""


class ObjectiveExitError(ExternalObjectiveError):
    """The child process exited with a non-zero status."""

    def __init__(self, command: str, returncode: int, stderr: str):
        super().__init__(f"command {command!r} exited with status {returncode}: {stderr.strip()}")
        self.command, self.returncode, self.stderr = command, returncode, stderr

    def __reduce__(self):
        # Rebuilt from the constructor's arguments, so it can leave a worker process.
        return type(self), (self.command, self.returncode, self.stderr)


class ObjectiveTimeoutError(ExternalObjectiveError):
    """The child process did not answer within the timeout."""


class ObjectiveParseError(ExternalObjectiveError):
    """The child's last non-empty output line is not a single finite real."""


def external_objective(command: str, domain: BoxDomain, timeout: float = 300.0) -> Objective:
    """Wrap a command as an objective: point on stdin, one real on stdout.

    Each evaluation spawns one child process, writes the coordinates as a
    single whitespace-separated line, and reads the value from the child's
    standard output: its last non-empty line must be exactly one finite real,
    and earlier lines are ignored.  The optimum is unknown.
    """
    argv = shlex.split(command)
    if not argv:
        raise ValueError("command must be non-empty")

    def one(x: np.ndarray) -> float:
        line = " ".join(f"{c:.17g}" for c in x) + "\n"
        try:
            proc = subprocess.run(
                argv,
                input=line,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except OSError as exc:
            raise ObjectiveSpawnError(f"could not run {command!r}: {exc}") from exc
        except subprocess.TimeoutExpired as exc:
            raise ObjectiveTimeoutError(
                f"command {command!r} produced no result within {timeout:g} s"
            ) from exc
        if proc.returncode != 0:
            raise ObjectiveExitError(command, proc.returncode, proc.stderr)
        # Earlier lines may be the child's log; the last non-empty one is the value.
        lines = [line for line in proc.stdout.splitlines() if line.strip()]
        tokens = lines[-1].split() if lines else []
        try:
            value = float(tokens[0]) if len(tokens) == 1 else math.nan
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ObjectiveParseError(
                f"command {command!r} printed {proc.stdout!r}, expected a single real "
                "number on its last non-empty line"
            )
        return value

    def batch(z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        return np.array([one(row) for row in z])

    return Objective(name="external", domain=domain, batch_evaluate=batch)
