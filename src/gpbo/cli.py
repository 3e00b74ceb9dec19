"""Experiment runner: seeded paired repeats, CSV persistence, summaries.

Subcommands:

* ``run``             execute a configured experiment, writing per-iteration
                      rows, the shared initial designs, and summary tables;
* ``summarize``       rebuild the summary tables from persisted rows;
* ``verify``          run the numerical verification suite;
* ``list-objectives`` show the bundled benchmark functions.

Result files are plain CSV with a header row so any plotting tool can
consume them.  Every result directory also receives the fully-resolved
configuration that produced it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import theory
from .domain import BoxDomain
from .engine import RegretTrace, RunConfig, run_bo, run_bopp
from .gp import FitConfig
from .objectives import SYNTHETIC_NAMES, Objective, external_objective, make_synthetic
from .pseudo import PseudoSchedule

__all__ = ["ExperimentConfig", "AlgorithmSpec", "run_experiment", "summarize", "main"]

OUT_DIR_ENV = "GPBO_OUT"

# tau0 presets keyed by the suffix of an algorithm label like "ucb-pp001".
_PP_PRESETS = {"pp01": 0.01, "pp001": 0.001, "pp0001": 0.0001}


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm column of an experiment: an acquisition plus a tau0."""

    name: str
    acquisition: str
    tau0: float = 0.0

    def __post_init__(self):
        if self.acquisition not in ("pi", "ei", "ucb"):
            raise ValueError(f"acquisition must be pi, ei or ucb, got {self.acquisition!r}")
        if not (math.isfinite(self.tau0) and self.tau0 >= 0):
            raise ValueError(f"tau0 must be non-negative and finite, got {self.tau0!r}")

    @classmethod
    def parse(cls, label: str) -> "AlgorithmSpec":
        """Parse labels like ``ucb``, ``pi-pp001``, ``ei-pp0001``."""
        parts = label.lower().split("-")
        if len(parts) == 1:
            return cls(label.lower(), parts[0])
        if len(parts) == 2 and parts[1] in _PP_PRESETS:
            return cls(label.lower(), parts[0], _PP_PRESETS[parts[1]])
        raise ValueError(
            f"cannot parse algorithm label {label!r}; use e.g. ucb, ucb-pp01, pi-pp0001"
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved description of one experiment.

    The ``external_*`` fields are the ``external`` block of the JSON form.
    """

    objective: str = "griewank"
    algorithms: tuple[AlgorithmSpec, ...] = (AlgorithmSpec("ucb", "ucb"),)
    repeats: int = 20
    budget: int = 100
    initial_points: int = 5
    seed: int = 0
    noise_variance: float = 1e-4
    delta: float = 0.1
    standardize: bool = True
    out_dir: str = "results"
    jobs: int = 1
    external_command: str | None = None
    external_lower: tuple[float, ...] | None = None
    external_upper: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        if self.objective == "external":
            if not self.external_command or self.external_lower is None or self.external_upper is None:
                raise ValueError("external objective requires a command and bounds")
        elif self.objective not in SYNTHETIC_NAMES:
            raise ValueError(
                f"unknown objective {self.objective!r}; valid names: "
                f"{', '.join(SYNTHETIC_NAMES)}, external"
            )

    def to_dict(self) -> dict:
        """The JSON form that ``config_from_dict`` reads back."""
        out, external = {}, {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "algorithms":
                out[f.name] = [asdict(a) for a in value]
            elif f.name.startswith(_EXTERNAL):
                external[f.name.removeprefix(_EXTERNAL)] = value
            else:
                out[f.name] = value
        if self.external_command is not None:
            out["external"] = external
        return out


_EXTERNAL = "external_"
_CONFIG_KEYS = frozenset(
    f.name for f in fields(ExperimentConfig) if not f.name.startswith(_EXTERNAL)
) | {"external"}
_EXTERNAL_KEYS = frozenset(
    f.name.removeprefix(_EXTERNAL) for f in fields(ExperimentConfig) if f.name.startswith(_EXTERNAL)
)
_ALGORITHM_KEYS = frozenset(f.name for f in fields(AlgorithmSpec))


def _check_keys(block: dict, valid: frozenset, name: str, required=frozenset()) -> None:
    unknown = sorted(set(block) - valid)
    if unknown:
        raise ValueError(
            f"unknown {name} keys: {', '.join(unknown)}; valid keys: {', '.join(sorted(valid))}"
        )
    missing = sorted(required - set(block))
    if missing:
        raise ValueError(f"{name} is missing keys: {', '.join(missing)}")


def _field_values(cls, block: dict, name: str) -> dict:
    """The entries of ``block`` that are fields of ``cls``; a value whose field
    defaults to a bool, int or float is coerced to that type.  A bool field
    takes only a bool, and an int or float field takes no bool."""
    values = {}
    for f in fields(cls):
        if f.name not in block:
            continue
        value = block[f.name]
        if isinstance(f.default, (bool, int, float)):
            kind = type(f.default)
            try:
                if (kind is bool) != isinstance(value, bool):
                    raise TypeError
                value = kind(value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{name} key {f.name!r} must be {kind.__name__}, got {value!r}"
                ) from None
        values[f.name] = value
    return values


def _algorithm_from(entry, name: str) -> AlgorithmSpec:
    if isinstance(entry, str):
        return AlgorithmSpec.parse(entry)
    _check_keys(entry, _ALGORITHM_KEYS, name, required=frozenset({"acquisition"}))
    values = _field_values(AlgorithmSpec, entry, name)
    values["name"] = entry.get("name") or entry["acquisition"]
    try:
        return AlgorithmSpec(**values)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def config_from_dict(raw: dict) -> ExperimentConfig:
    """The experiment a JSON config describes; absent keys take the field defaults."""
    _check_keys(raw, _CONFIG_KEYS, "config")
    values = _field_values(ExperimentConfig, raw, "config")
    if "algorithms" in raw:
        values["algorithms"] = tuple(
            _algorithm_from(entry, f"algorithms[{i}]") for i, entry in enumerate(raw["algorithms"])
        )
    external = raw.get("external")
    if external is not None:
        _check_keys(external, _EXTERNAL_KEYS, "external", required=_EXTERNAL_KEYS)
        values.update(
            external_command=external["command"],
            external_lower=tuple(external["lower"]),
            external_upper=tuple(external["upper"]),
        )
    return ExperimentConfig(**values)


def _build_objective(config: ExperimentConfig) -> Objective:
    if config.objective == "external":
        domain = BoxDomain(np.array(config.external_lower), np.array(config.external_upper))
        return external_objective(config.external_command, domain)
    return make_synthetic(config.objective)


def _repeat_seed(base_seed: int, repeat: int) -> int:
    return int(np.random.SeedSequence([base_seed, repeat]).generate_state(1)[0])


def _run_config(config: ExperimentConfig, algo: AlgorithmSpec, obj: Objective, repeat: int) -> RunConfig:
    width = float(np.max(obj.domain.widths))
    # Experiment preset: lengthscales live between 5% and 100% of the domain
    # width. Shorter scales model observation noise, not structure; longer
    # ones are indistinguishable from a trend but keep distorting the
    # surrogate's peak location.
    fit = FitConfig(
        lengthscale_bounds=(0.05 * width, width),
        lengthscale_sample_range=(0.05 * width, width),
    )
    return RunConfig(
        budget=config.budget,
        initial_points=config.initial_points,
        acquisition_kind=algo.acquisition,
        delta=config.delta,
        noise_variance=config.noise_variance,
        pseudo=PseudoSchedule(tau0=algo.tau0, domain_width=width),
        seed=_repeat_seed(config.seed, repeat),
        standardize=config.standardize,
        fit=fit,
    )


def _one_run(config: ExperimentConfig, algo: AlgorithmSpec, repeat: int) -> RegretTrace:
    obj = _build_objective(config)
    run_config = _run_config(config, algo, obj, repeat)
    runner = run_bopp if run_config.pseudo.enabled else run_bo
    return runner(obj, run_config)


def _one_run_task(args: tuple) -> tuple[str, int, RegretTrace]:
    config, algo, repeat = args
    return algo.name, repeat, _one_run(config, algo, repeat)


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return f"{value:.17g}"


ROW_FIELDS = ["algorithm", "repeat", "iter"]


def _write_rows(path: Path, dimension: int, results: dict[tuple[str, int], RegretTrace]) -> None:
    coords = [f"x{j}" for j in range(dimension)]
    header = ROW_FIELDS + coords + [
        "y", "simple_regret", "cumulative_regret", "delta_v", "beta", "info_gain", "ms",
    ]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for (name, repeat), trace in sorted(results.items()):
            for i in range(len(trace)):
                writer.writerow(
                    [name, repeat, i + 1]
                    + [_fmt(c) for c in trace.points[i]]
                    + [
                        _fmt(trace.observations[i]),
                        _fmt(trace.simple_regret[i]),
                        _fmt(trace.cumulative_regret[i]),
                        _fmt(trace.delta_v[i]),
                        _fmt(trace.beta[i]),
                        _fmt(trace.info_gain[i]),
                        _fmt(trace.wall_ms[i]),
                    ]
                )


def _write_init(path: Path, dimension: int, results: dict[tuple[str, int], RegretTrace]) -> None:
    coords = [f"x{j}" for j in range(dimension)]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["algorithm", "repeat", "index"] + coords + ["y"])
        for (name, repeat), trace in sorted(results.items()):
            for i in range(trace.init_points.shape[0]):
                writer.writerow(
                    [name, repeat, i]
                    + [_fmt(c) for c in trace.init_points[i]]
                    + [_fmt(trace.init_observations[i])]
                )


def run_experiment(config: ExperimentConfig) -> int:
    """Run all (algorithm, repeat) cells; returns a process exit status.

    Within each repeat every algorithm shares the same derived seed, hence
    the same initial design.  Failed runs are recorded and the remaining
    cells still execute; any failure makes the exit status non-zero.
    """
    return _experiment(config)[0]


def _experiment(config: ExperimentConfig) -> tuple[int, list[SummaryRow]]:
    """``run_experiment``'s work; also returns the summary, empty when every run failed."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config.to_dict(), indent=2) + "\n")

    tasks = [
        (config, algo, repeat)
        for repeat in range(config.repeats)
        for algo in config.algorithms
    ]
    results: dict[tuple[str, int], RegretTrace] = {}
    failures: list[dict] = []
    if config.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            futures = {pool.submit(_one_run_task, task): task for task in tasks}
            for future, task in futures.items():
                _, algo, repeat = task
                try:
                    name, rep, trace = future.result()
                    results[(name, rep)] = trace
                except Exception as exc:  # noqa: BLE001 - recorded, run continues
                    failures.append({"algorithm": algo.name, "repeat": repeat, "error": str(exc)})
    else:
        for task in tasks:
            _, algo, repeat = task
            try:
                name, rep, trace = _one_run_task(task)
                results[(name, rep)] = trace
            except Exception as exc:  # noqa: BLE001 - recorded, run continues
                failures.append({"algorithm": algo.name, "repeat": repeat, "error": str(exc)})

    dimension = next(iter(results.values())).dimension if results else 0
    _write_rows(out / "rows.csv", dimension, results)
    _write_init(out / "init.csv", dimension, results)
    if failures:
        (out / "failures.json").write_text(json.dumps(failures, indent=2) + "\n")
    summary = summarize(out) if results else []
    return (1 if failures else 0), summary


@dataclass(frozen=True)
class SummaryRow:
    algorithm: str
    objective: str
    repeats: int
    metric: str
    mean: float
    std: float
    single_repeat: bool


def _load_rows(out_dir: Path) -> tuple[list[dict], str]:
    rows_path = out_dir / "rows.csv"
    if not rows_path.exists():
        raise FileNotFoundError(f"no rows.csv under {out_dir}")
    with rows_path.open() as handle:
        rows = list(csv.DictReader(handle))
    config = json.loads((out_dir / "config.json").read_text())
    return rows, config["objective"]


def summarize(out_dir: str | Path) -> list[SummaryRow]:
    """Aggregate persisted rows into terminal and per-iteration summaries.

    Writes ``summary.csv`` / ``summary.txt`` (terminal metric, mean and
    sample std over repeats) and ``curves.csv`` (per-iteration mean and the
    quarter-std band used for plotting).  Raises if the rectangle of
    (algorithm, repeat, iteration) cells is ragged.
    """
    out = Path(out_dir)
    rows, objective_name = _load_rows(out)
    if not rows:
        raise ValueError(f"no result rows under {out}; every run failed?")
    by_cell: dict[tuple[str, int], list[dict]] = {}
    for row in rows:
        by_cell.setdefault((row["algorithm"], int(row["repeat"])), []).append(row)

    algorithms = sorted({name for name, _ in by_cell})
    repeats = sorted({rep for _, rep in by_cell})
    lengths = {key: len(v) for key, v in by_cell.items()}
    expected = max(lengths.values(), default=0)
    missing = [
        f"{name}/repeat{rep}"
        for name in algorithms
        for rep in repeats
        if lengths.get((name, rep), 0) != expected
    ]
    if missing:
        raise ValueError("ragged results; incomplete cells: " + ", ".join(missing))

    use_regret = not any(
        math.isnan(float(r["simple_regret"])) for r in rows
    )
    metric = "simple_regret" if use_regret else "best_y"

    summary_rows: list[SummaryRow] = []
    curve_records: list[tuple[str, int, float, float]] = []
    for name in algorithms:
        per_iter: list[list[float]] = []
        terminals: list[float] = []
        for rep in repeats:
            cell = sorted(by_cell[(name, rep)], key=lambda r: int(r["iter"]))
            if use_regret:
                series = [float(r["simple_regret"]) for r in cell]
            else:
                best = -math.inf
                series = []
                for r in cell:
                    best = max(best, float(r["y"]))
                    series.append(best)
            per_iter.append(series)
            terminals.append(series[-1])
        arr = np.array(per_iter)  # (repeats, iters)
        single = len(repeats) == 1
        std = 0.0 if single else float(np.std(terminals, ddof=1))
        summary_rows.append(
            SummaryRow(name, objective_name, len(repeats), metric,
                       float(np.mean(terminals)), std, single)
        )
        iter_std = np.zeros(arr.shape[1]) if single else np.std(arr, axis=0, ddof=1)
        for i in range(arr.shape[1]):
            curve_records.append((name, i + 1, float(np.mean(arr[:, i])), float(iter_std[i])))

    with (out / "summary.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["algorithm", "objective", "repeats", "metric", "mean", "std", "single_repeat"])
        for s in summary_rows:
            writer.writerow([s.algorithm, s.objective, s.repeats, s.metric,
                             _fmt(s.mean), _fmt(s.std), int(s.single_repeat)])

    with (out / "curves.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["algorithm", "iter", "mean", "std", "band"])
        for name, it, mean, std in curve_records:
            writer.writerow([name, it, _fmt(mean), _fmt(std), _fmt(std / 4.0)])

    width = max(len(s.algorithm) for s in summary_rows)
    lines = [f"{'algorithm':<{width}}  {'mean':>12}  {'std':>12}  metric"]
    for s in summary_rows:
        lines.append(f"{s.algorithm:<{width}}  {s.mean:>12.6f}  {s.std:>12.6f}  {s.metric}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    return summary_rows


def verify(seed: int, instances: int, report_path: str | Path | None = None,
           envelope_trials: int = 200) -> tuple[int, list[theory.CheckReport]]:
    """Run the verification suite; exit status 0 iff everything passes."""
    reports = theory.run_identity_suite(seed, instances)
    reports.append(
        theory.check_mean_error_envelope(
            theory.TheoryInstance(dimension=1, n_base=4, n_pseudo=2, tau=0.05,
                                  noise_variance=1e-2, seed=seed),
            trials=envelope_trials,
            theory=theory.TheoryParams(),
        )
    )
    ok = all(r.passed for r in reports)
    if report_path is not None:
        payload = {
            "seed": seed,
            "instances": instances,
            "all_passed": ok,
            "checks": [r.to_dict() for r in reports],
        }
        Path(report_path).write_text(json.dumps(payload, indent=2) + "\n")
    return (0 if ok else 1), reports


def _resolve_out_dir(explicit: str | None, config_value: str) -> str:
    if explicit:
        return explicit
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return env
    return config_value


# The ``gpbo run`` flags that override the config key of the same name.
_RUN_FLAGS = ("objective", "algorithms", "seed", "repeats", "budget", "initial_points", "jobs")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="gpbo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", type=Path, help="JSON experiment configuration")
    p_run.add_argument("--objective", help="synthetic objective name")
    p_run.add_argument("--algorithms", help="comma-separated labels, e.g. ucb,ucb-pp0001")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", help=f"output directory (also via ${OUT_DIR_ENV})")
    p_run.add_argument("--repeats", type=int)
    p_run.add_argument("--budget", type=int)
    p_run.add_argument("--initial-points", type=int)
    p_run.add_argument("--jobs", type=int)

    p_sum = sub.add_parser("summarize", help="rebuild summaries from persisted rows")
    p_sum.add_argument("--out", required=True, help="result directory to summarize")

    p_ver = sub.add_parser("verify", help="run the numerical verification suite")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--instances", type=int, default=50)
    p_ver.add_argument("--report", type=Path, help="where to write the JSON report")
    p_ver.add_argument("--envelope-trials", type=int, default=200)

    sub.add_parser("list-objectives", help="list bundled benchmark objectives")

    args = parser.parse_args(argv)

    if args.command == "run":
        raw = json.loads(args.config.read_text()) if args.config else {}
        config = config_from_dict(raw)
        overrides = {
            name: getattr(args, name) for name in _RUN_FLAGS if getattr(args, name) is not None
        }
        if "algorithms" in overrides:
            overrides["algorithms"] = tuple(
                AlgorithmSpec.parse(a) for a in overrides["algorithms"].split(",")
            )
        overrides["out_dir"] = _resolve_out_dir(args.out, config.out_dir)
        config = replace(config, **overrides)
        status, summary = _experiment(config)
        if not summary:
            print(f"every run failed; see {Path(config.out_dir) / 'failures.json'}",
                  file=sys.stderr)
            return 1
        for row in summary:
            print(f"{row.algorithm}: {row.metric} = {row.mean:.6f} +- {row.std:.6f}")
        return status

    if args.command == "summarize":
        for row in summarize(args.out):
            print(f"{row.algorithm}: {row.metric} = {row.mean:.6f} +- {row.std:.6f}")
        return 0

    if args.command == "verify":
        status, reports = verify(args.seed, args.instances, args.report,
                                 envelope_trials=args.envelope_trials)
        for report in reports:
            state = "pass" if report.passed else "FAIL"
            print(f"[{state}] {report.name} (seed {report.seed}): max_error={report.max_error:.3g}")
        print("all checks passed" if status == 0 else "verification FAILED")
        return status

    if args.command == "list-objectives":
        for name in SYNTHETIC_NAMES:
            obj = make_synthetic(name)
            print(
                f"{name}: d={obj.dimension}, domain=[-1,1]^{obj.dimension}, "
                f"optimum={obj.optimum_value:.6f}"
            )
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
