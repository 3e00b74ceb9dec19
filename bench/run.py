"""Benchmark of the gpbo package: one workload per process, one JSON line out.

    python3 bench/run.py --workload protocol --seed 1 --seconds 20 --trace 0

Runs identical rounds of the workload until another round would end past
``--seconds`` (always at least one), checks every round's outputs, and
prints the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced repeat of the same rounds (``--trace 1``).  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See bench/README.md for the workloads and what each metric
means.
"""

import os

# One BLAS thread, pinned before numpy loads; subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = BENCH_DIR / "out"
SETUP_PROBES = 3

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "iter_ms_p50": "ms",
    "iter_ms_p90": "ms",
    "simple_regret": "obj_units",
    "peak_rss_mb": "MB",
}


def _import_package():
    """Import gpbo from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "gpbo" / "__init__.py").is_file():
        raise SystemExit(f"bench: no gpbo package under {src}")
    sys.path.insert(0, str(src))
    import gpbo

    if Path(gpbo.__file__).resolve().parent != (src / "gpbo").resolve():
        raise SystemExit(f"bench: imported gpbo from {gpbo.__file__}, not from {src}")


def run_rounds(workload, seed: int, seconds: float, clock, tracer=None, rounds: int | None = None):
    """Identical rounds: ``rounds`` of them, or as many as end within ``seconds``."""
    results = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        results.append(workload.run_round(seed, clock, tracer))
        now = time.perf_counter()
        if rounds is not None:
            if len(results) >= rounds:
                break
        elif now - started + (now - round_start) > seconds:
            break
    return results


def probe_setup(args, speedometer) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to the end of the workload's set-up.

    Returns the raw wall time and the same at the reference speed, scaled by
    the kernel samples taken just before and just after the probe.
    """
    started = time.perf_counter()
    spawned = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds = float(proc.stdout.strip().splitlines()[-1]) - spawned
    ended = time.perf_counter()
    speedometer.close()
    return seconds, seconds / speedometer.slowdown(started, ended)


def tally(results) -> tuple[int, int, list[str]]:
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]
    if any(r.quality != results[0].quality for r in results):
        problems.append("identical rounds gave different results")
    return attempted, failed, problems


def end_to_end(args, workload) -> tuple[dict, int, int, list[str]]:
    from speed import Speedometer

    speedometer = Speedometer()
    speedometer.close()  # samples before the first span
    results = run_rounds(workload, args.seed, args.seconds, speedometer)
    speedometer.close()
    attempted, failed, problems = tally(results)
    latencies = [speedometer.scaled(*span) * 1e3 for r in results for span in r.latencies]
    seconds = sum(speedometer.scaled(*span) for r in results for span in r.busy)
    raw_seconds = sum(speedometer.raw(*span) for r in results for span in r.busy)
    probes = [probe_setup(args, speedometer) for _ in range(SETUP_PROBES)]
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in probes),
        "ops_per_s": (attempted - failed) / seconds,
        "iter_ms_p50": statistics.median(latencies),
        "iter_ms_p90": statistics.quantiles(latencies, n=10)[-1],
        "simple_regret": statistics.fmean(results[0].quality),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{workload.name}: {len(results)} rounds, {attempted} operations, {failed} failed, "
          f"{len(latencies)} latency samples")
    print(f"  wall time: {raw_seconds:.3f} s in gpbo, {(attempted - failed) / raw_seconds:.4f} op/s; "
          f"the slowdown against the reference speed was {raw_seconds / seconds:.3f} "
          f"({len(speedometer.samples)} kernel samples), and the times below are scaled by "
          f"it; set-up took {statistics.median(raw for raw, _ in probes):.4f} s raw")
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, attempted, failed, problems


def traced(args, workload) -> tuple[dict, int, int, list[str]]:
    from spans import Tracer
    from speed import WallClock

    clock = WallClock()
    plain = run_rounds(workload, args.seed, args.seconds, clock)
    tracer = Tracer()
    with tracer.install():
        spanned = run_rounds(workload, args.seed, args.seconds, clock, tracer, rounds=len(plain))
    attempted, failed, problems = tally(plain + spanned)
    problems += tracer.check_failures
    metrics = tracer.layer_metrics(len(spanned))

    def busy(results):
        return sum(clock.raw(*span) for r in results for span in r.busy)

    overhead = (busy(spanned) - busy(plain)) / len(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    print(f"{workload.name}: {len(plain)} untraced and {len(spanned)} traced rounds, "
          f"{attempted} operations, {failed} failed; per-layer figures are per round")
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    from workloads import WORKLOADS, make_workload

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=20219)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_package()
    workload = make_workload(args.workload, OUT_ROOT)
    workload.setup()
    if args.setup_probe:
        print(repr(time.time()))
        return 0

    run = traced if args.trace else end_to_end
    metrics, attempted, failed, problems = run(args, workload)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6f} {unit}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    if len(problems) > 20:
        print(f"  ... and {len(problems) - 20} more failed checks")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
