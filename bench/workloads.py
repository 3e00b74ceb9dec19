"""The benchmark's workloads: what one round runs and how its outputs are checked.

A round is a fixed piece of work; a run repeats identical rounds.  The BO
workloads call ``gpbo.cli.run_experiment`` exactly as ``gpbo run`` does and
check the files it writes against the oracle; ``verify`` calls
``gpbo.cli.verify`` and checks its reports.  Only the calls into ``gpbo``
are timed, never the checks: a round notes the spans of ``gpbo`` time and of
each operation's latency, and the run scales them (speed.py) at its end.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle

# The seed, initial design, noise and budget of the acceptance protocol
# (criterion 5) and of the shipped ``gpbo run`` preset.
PROTOCOL_SEED = 20219
INITIAL_POINTS = 5
NOISE_VARIANCE = 1e-4


Span = tuple[float, float]  # perf_counter() at the start and at the end


@dataclasses.dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    busy: list[Span] = dataclasses.field(default_factory=list)  # inside the gpbo entry points
    latencies: list[Span] = dataclasses.field(default_factory=list)  # one per timed operation
    quality: list[float] = dataclasses.field(default_factory=list)
    problems: list[str] = dataclasses.field(default_factory=list)


def _paused(tracer):
    return tracer.pause() if tracer is not None else contextlib.nullcontext()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


class ObjectiveClock:
    """Stands in for ``gpbo.cli.make_synthetic``.

    The objectives it builds note when each evaluation starts and ends, so a
    proposal's latency can be read off as the user's objective sees it: the
    gap between one evaluated point and the next.  Every TICK_EVERY-th
    evaluation also samples the host speed, once an iteration; the sample
    falls inside the evaluation, so no latency includes it.
    """

    TICK_EVERY = 2  # objective evaluations an iteration

    def __init__(self, make):
        self.make = make
        self.runs: list[list[tuple[float, float, int]]] = []
        self.tracer = None
        self.speedometer = None
        self._evaluations = 0

    def __call__(self, name):
        objective = self.make(name)
        evaluate = objective.batch_evaluate
        if self.tracer is not None:
            evaluate = self.tracer.wrap("objectives", evaluate)
        calls: list[tuple[float, float, int]] = []
        self.runs.append(calls)

        def timed(z):
            start = perf_counter()
            values = evaluate(z)
            self._evaluations += 1
            if self._evaluations % self.TICK_EVERY == 0:
                self.speedometer.tick()
            calls.append((start, perf_counter(), len(values)))
            return values

        return dataclasses.replace(objective, batch_evaluate=timed)


def proposal_latencies(calls, initial_points: int, budget: int) -> list[Span] | None:
    """Spans from the end of one iteration's evaluations to the start of the next.

    The first ``initial_points`` rows are the initial design; the remaining
    calls split evenly over the ``budget`` iterations.  None if they do not.
    """
    seen, i = 0, 0
    while seen < initial_points and i < len(calls):
        seen += calls[i][2]
        i += 1
    rest = calls[i:]
    if i == 0 or not rest or len(rest) % budget:
        return None
    k = len(rest) // budget
    prev_end = calls[i - 1][1]
    out = []
    for t in range(budget):
        group = rest[k * t : k * (t + 1)]
        out.append((prev_end, group[0][0]))
        prev_end = group[-1][1]
    return out


def _read_csv(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


class BoWorkload:
    """Experiments run through ``gpbo.cli.run_experiment``; an operation is one iteration."""

    def __init__(self, name: str, experiments, budget: int, repeats: int, out_root: Path):
        self.name = name
        self.experiments = experiments  # ((objective, (algorithm labels...)), ...)
        self.budget = budget
        self.repeats = repeats
        self.out_root = out_root / name

    def setup(self) -> None:
        from gpbo import cli

        self.cli = cli
        self.oracles = {obj: oracle.make_oracle(obj) for obj, _ in self.experiments}
        for obj, _ in self.experiments:
            cli.make_synthetic(obj)
        # Warm-up: a two-iteration experiment pays lazy imports and first calls.
        obj, labels = self.experiments[0]
        cli.run_experiment(self._config(obj, labels[:1], 2, 1, self.out_root / "warmup"))
        self.clock = ObjectiveClock(cli.make_synthetic)
        cli.make_synthetic = self.clock

    def _config(self, objective, labels, budget, repeats, out):
        shutil.rmtree(out, ignore_errors=True)
        return self.cli.ExperimentConfig(
            objective=objective,
            algorithms=tuple(self.cli.AlgorithmSpec.parse(label) for label in labels),
            repeats=repeats,
            budget=budget,
            initial_points=INITIAL_POINTS,
            seed=PROTOCOL_SEED,
            noise_variance=NOISE_VARIANCE,
            out_dir=str(out),
            jobs=1,
        )

    def run_round(self, seed: int, speedometer, tracer=None) -> RoundResult:
        result = RoundResult()
        # The seed orders the experiments; their trajectories stay pinned to
        # PROTOCOL_SEED so that simple_regret compares across runs.
        order = np.random.default_rng(seed).permutation(len(self.experiments))
        for index in order:
            obj, labels = self.experiments[index]
            out = self.out_root / obj
            config = self._config(obj, labels, self.budget, self.repeats, out)
            self.clock.runs = []
            self.clock.tracer = tracer
            self.clock.speedometer = speedometer
            start = perf_counter()
            try:
                self.cli.run_experiment(config)
                raised = False
            except Exception:  # noqa: BLE001 - every operation of the experiment counts as failed
                raised = True
            result.busy.append((start, perf_counter()))
            with _paused(tracer):
                if tracer is not None:
                    tracer.count("cli.persist.bytes",
                                 sum(p.stat().st_size for p in out.iterdir() if p.is_file()))
                self._check(config, out, raised, self.oracles[obj], result)
        return result

    def _check(self, config, out: Path, raised: bool, ref: oracle.Oracle,
               result: RoundResult) -> None:
        """Check one experiment's files, and note its proposal latencies."""
        budget = config.budget
        names = [a.name for a in config.algorithms]
        # run_experiment with jobs=1 runs repeat by repeat, algorithms in order.
        cells = [(name, rep) for rep in range(config.repeats) for name in names]
        result.attempted += budget * len(cells)
        if raised:
            result.failed += budget * len(cells)
            return
        failed_runs = set()
        if (out / "failures.json").exists():
            for entry in json.loads((out / "failures.json").read_text()):
                failed_runs.add((entry["algorithm"], int(entry["repeat"])))

        rows: dict[tuple[str, int], list[dict]] = {}
        for row in _read_csv(out / "rows.csv"):
            rows.setdefault((row["algorithm"], int(row["repeat"])), []).append(row)
        init: dict[tuple[str, int], list[tuple]] = {}
        for row in _read_csv(out / "init.csv"):
            key = (row["algorithm"], int(row["repeat"]))
            init.setdefault(key, []).append(tuple(v for k, v in row.items() if k != "algorithm"))
        summary = {row["algorithm"]: float(row["mean"]) for row in _read_csv(out / "summary.csv")}

        bad: dict[tuple[str, int], set[int]] = {cell: set() for cell in cells}
        finals: dict[tuple[str, int], float] = {}
        sigma = math.sqrt(config.noise_variance)
        for cell in cells:
            label = f"{self.name}/{config.objective}/{cell[0]}/repeat{cell[1]}"
            if cell in failed_runs:
                bad[cell].update(range(1, budget + 1))
                continue
            cell_rows = sorted(rows.get(cell, []), key=lambda r: int(r["iter"]))
            if [int(r["iter"]) for r in cell_rows] != list(range(1, budget + 1)):
                bad[cell].update(range(1, budget + 1))
                result.problems.append(f"{label}: rows.csv does not hold iterations 1..{budget}")
                continue
            best, cumulative, previous = -math.inf, 0.0, math.inf
            for t, row in enumerate(cell_rows, start=1):
                x = np.array([float(row[f"x{j}"]) for j in range(ref.dimension)])
                f = ref.value(x)
                best = max(best, f)
                cumulative += ref.optimum - f
                simple = float(row["simple_regret"])
                failures = []
                if np.any(np.abs(x) > 1.0):
                    failures.append("point outside the domain")
                if abs(float(row["y"]) - f) > 6.0 * sigma:
                    failures.append(f"y={row['y']} is more than 6 sigma from f={f!r}")
                if not _close(simple, ref.optimum - best) or simple < 0.0 or simple > previous:
                    failures.append(f"simple_regret {simple!r}, oracle {ref.optimum - best!r}")
                if not _close(float(row["cumulative_regret"]), cumulative):
                    failures.append(f"cumulative_regret {row['cumulative_regret']}, oracle {cumulative!r}")
                if failures:
                    bad[cell].add(t)
                    result.problems.append(f"{label} iteration {t}: " + "; ".join(failures))
                previous = simple
            finals[cell] = previous

        for rep in range(config.repeats):
            designs = {tuple(init.get((name, rep), ())) for name in names}
            if len(designs) != 1 or () in designs:
                result.problems.append(f"{self.name}/{config.objective}/repeat{rep}: "
                                       "paired algorithms do not share their init.csv rows")
                for name in names:
                    bad[(name, rep)].update(range(1, budget + 1))
        for name in names:
            own = [finals[(name, rep)] for rep in range(config.repeats) if (name, rep) in finals]
            if own and not _close(summary.get(name, math.nan), float(np.mean(own))):
                result.problems.append(f"{self.name}/{config.objective}/{name}: summary.csv mean "
                                       f"{summary.get(name)!r}, rows give {float(np.mean(own))!r}")
                for rep in range(config.repeats):
                    bad[(name, rep)].update(range(1, budget + 1))

        result.failed += sum(len(v) for v in bad.values())
        result.quality.extend(finals.values())
        if len(self.clock.runs) != len(cells):
            result.problems.append(f"{self.name}/{config.objective}: {len(self.clock.runs)} "
                                   f"objectives built for {len(cells)} runs")
            return
        for cell, calls in zip(cells, self.clock.runs):
            if cell in failed_runs:
                continue
            run_latencies = proposal_latencies(calls, config.initial_points, budget)
            if run_latencies is None:
                result.problems.append(f"{self.name}/{config.objective}/{cell[0]}/repeat{cell[1]}: "
                                       "objective evaluations do not split into iterations")
            else:
                result.latencies.extend(run_latencies)


class VerifyWorkload:
    """Many small ``gpbo verify`` calls; an operation is one check report.

    A round is CALLS calls of INSTANCES random instances each, plus the
    mean-error envelope at TRIALS trials (its envelope sits about 1500 times
    above the realized error, so few trials cannot make it fail).
    """

    CALLS = 112
    INSTANCES = 5
    TRIALS = 40
    ORACLE_EVERY = 4  # every how many calls one instance is re-checked densely

    name = "verify"

    def setup(self) -> None:
        from gpbo import cli, pseudo, theory

        self.cli, self.pseudo, self.theory = cli, pseudo, theory
        cli.verify(0, 1, envelope_trials=2)

    @staticmethod
    def call_seed(seed: int, k: int) -> int:
        return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])

    def run_round(self, seed: int, speedometer, tracer=None) -> RoundResult:
        result = RoundResult()
        for k in range(self.CALLS):
            call_seed = self.call_seed(seed, k)
            start = perf_counter()
            status, reports = self.cli.verify(call_seed, self.INSTANCES, envelope_trials=self.TRIALS)
            result.busy.append((start, perf_counter()))
            result.latencies.append(result.busy[-1])
            speedometer.tick()
            with _paused(tracer):
                self._check(call_seed, status, reports, result,
                            dense=k % self.ORACLE_EVERY == 0,
                            instance=(k // self.ORACLE_EVERY) % self.INSTANCES)
        return result

    def _check(self, seed, status, reports, result: RoundResult, dense: bool, instance: int) -> None:
        result.attempted += len(reports)
        result.failed += sum(not r.passed for r in reports)
        expected = 3 * self.INSTANCES + 1
        if len(reports) != expected:
            result.problems.append(f"verify seed {seed}: {len(reports)} reports, expected {expected}")
            return
        if status != (0 if all(r.passed for r in reports) else 1):
            result.problems.append(f"verify seed {seed}: exit status {status} disagrees with the reports")
        envelope = [r for r in reports if r.name == "mean_error_envelope"]
        if len(envelope) != 1:
            result.problems.append(f"verify seed {seed}: no single mean-error envelope report")
            return
        result.quality.append(float(envelope[0].detail["mean_realized"]))
        if dense:
            problem = self._dense_check(seed, instance, reports[3 * instance])
            if problem:
                result.problems.append(problem)

    def _suite_instance(self, seed: int, index: int):
        """The index-th instance of ``run_identity_suite(seed, ...)``, by replaying its draws."""
        rng = np.random.default_rng(seed)
        for k in range(index + 1):
            sizes = (int(rng.integers(1, 5)), int(rng.integers(1, 13)), int(rng.integers(1, 7)),
                     float(rng.uniform(0.0, 0.15)), float(rng.uniform(1e-4, 1e-1)))
        return self.theory.TheoryInstance(*sizes, seed=seed * 1_000_003 + index)

    def _dense_check(self, seed: int, index: int, report) -> str | None:
        inst = self._suite_instance(seed, index)
        model, pp, queries, _ = self.theory.build_instance(inst)
        if (report.name != "variance_reduction_identity" or report.seed != inst.seed
                or report.detail["n_pseudo"] != len(pp) or report.detail["tau"] != pp.tau):
            return f"verify seed {seed}: could not replay instance {index} of the suite"
        closed = np.array([self.pseudo.variance_reduction(model, pp, x) for x in queries])
        params = model.params
        dense = oracle.variance_drop(model.data.points, pp.points, queries, params.lengthscales,
                                     params.amplitude, params.noise_variance + model.jitter)
        worst = float(np.max(np.abs(closed - dense)))
        if worst > 1e-8:
            return f"verify instance seed {inst.seed}: variance_reduction is {worst:.3g} from the dense oracle"
        return None


def make_workload(name: str, out_root: Path):
    if name == "protocol":
        # The four criterion-5 cells; dropwave's pair shares one paired experiment.
        return BoWorkload(
            "protocol",
            (("griewank", ("pi",)), ("dropwave", ("ucb", "ucb-pp0001")), ("rastrigin", ("ei",))),
            budget=100, repeats=1, out_root=out_root,
        )
    if name == "hart6":
        return BoWorkload("hart6", (("hart6", ("ucb", "ucb-pp01")),),
                          budget=30, repeats=2, out_root=out_root)
    if name == "verify":
        return VerifyWorkload()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("protocol", "hart6", "verify")
