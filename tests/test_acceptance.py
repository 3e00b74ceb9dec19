"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and the full-protocol progress.  Criterion 5 executes the complete
benchmark protocol (5 initial points, noise 1e-4, budget 100, 20 paired
repeats) and dominates the runtime; everything else finishes in seconds.
"""

import math
import time

import numpy as np
import pytest

from gpbo import direct, gp, pseudo
from gpbo.direct import DirectConfig
from gpbo.domain import BoxDomain
from gpbo.engine import RunConfig, run_bo, run_bopp
from gpbo.theory import TheoryParams, evaluate_regret_bound, mean_error_bound
from gpbo.acquisition import ei_value
from gpbo.gp import Dataset, KernelParams
from gpbo.objectives import make_synthetic
from gpbo.pseudo import PseudoSchedule
from gpbo.theory import (
    TheoryInstance,
    check_correction_bounds,
    check_mean_shift_identity,
    check_variance_reduction_identity,
)


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    state = "PASS" if passed else "FAIL"
    print(f"\n[criterion {number}] {name}: {state}  {detail}")


def test_criterion_1_posterior_oracle_equivalence():
    """Factored posterior vs dense matrix inverse, 500 random datasets."""
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(1, 7))
        t = int(rng.integers(1, 21))
        params = KernelParams(
            lengthscales=rng.uniform(0.2, 1.5, size=d),
            amplitude=float(rng.uniform(0.5, 2.0)),
            noise_variance=float(rng.uniform(1e-4, 1e-1)),
        )
        data = Dataset(rng.uniform(-1, 1, (t, d)), rng.normal(size=t))
        model = gp.build_model(data, params)
        x = rng.uniform(-1, 1, d)
        mean, var = gp.posterior(model, x)
        K = gp.kernel_matrix(data.points, data.points, params)
        A = np.linalg.inv(K + params.noise_variance * np.eye(t))
        k = gp.kernel_matrix(data.points, x.reshape(1, -1), params)[:, 0]
        mean_o = float(k @ A @ data.observations)
        var_o = float(params.amplitude - k @ A @ k)
        worst = max(
            worst,
            abs(mean - mean_o) / max(1.0, abs(mean_o)),
            abs(var - max(var_o, 0.0)) / max(1.0, abs(var_o)),
        )
    elapsed = time.perf_counter() - started
    passed = worst < 1e-9 and elapsed < 60.0
    report(1, "posterior oracle equivalence", passed,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 60.0


def test_criterion_2_variance_reduction_identity():
    """Closed-form variance drop vs posterior difference, 200 instances."""
    started = time.perf_counter()
    rng = np.random.default_rng(2002)
    worst = 0.0
    min_reduction = math.inf
    for k in range(200):
        inst = TheoryInstance(
            dimension=int(rng.integers(1, 5)),
            n_base=int(rng.integers(1, 13)),
            n_pseudo=int(rng.integers(1, 7)),
            tau=float(rng.uniform(0.0, 0.15)),
            noise_variance=float(rng.uniform(1e-4, 1e-1)),
            seed=61_000 + k,
        )
        rep = check_variance_reduction_identity(inst, tolerance=1e-8)
        assert rep.passed, f"instance seed {rep.seed}: {rep.detail}"
        worst = max(worst, rep.max_error)
        min_reduction = min(min_reduction, rep.detail["min_reduction"])
    elapsed = time.perf_counter() - started
    passed = worst <= 1e-8 and min_reduction >= -1e-9 and elapsed < 60.0
    report(2, "variance-reduction identity", passed,
           f"max err {worst:.2e}, min value {min_reduction:.2e}, {elapsed:.1f}s")
    assert passed


def test_criterion_3_mean_shift_identity_and_bounds():
    """Closed-form mean shift vs paired augmentations plus element bounds."""
    started = time.perf_counter()
    rng = np.random.default_rng(3003)
    worst = 0.0
    for k in range(200):
        inst = TheoryInstance(
            dimension=int(rng.integers(1, 5)),
            n_base=int(rng.integers(1, 13)),
            n_pseudo=int(rng.integers(1, 7)),
            tau=float(rng.uniform(0.0, 0.15)),
            noise_variance=float(rng.uniform(1e-4, 1e-1)),
            seed=62_000 + k,
        )
        rep = check_mean_shift_identity(inst, tolerance=1e-8)
        assert rep.passed, f"instance seed {rep.seed}: {rep.detail}"
        worst = max(worst, rep.max_error)
        bounds = check_correction_bounds(inst)
        assert bounds.passed, f"instance seed {bounds.seed}: {bounds.detail}"
    elapsed = time.perf_counter() - started
    passed = worst <= 1e-8 and elapsed < 60.0
    report(3, "mean-shift identity and element bounds", passed,
           f"max err {worst:.2e}, {elapsed:.1f}s")
    assert passed


def test_criterion_4_degenerate_schedule_equality():
    """tau0 = 0 run_bopp reproduces run_bo exactly on Griewank, T = 30."""
    obj = make_synthetic("griewank")
    base = dict(budget=30, initial_points=5, acquisition_kind="ucb", seed=1234)
    t_bo = run_bo(obj, RunConfig(**base))
    t_pp = run_bopp(obj, RunConfig(**base, pseudo=PseudoSchedule(tau0=0.0)))
    pa, pb = t_bo.payload(), t_pp.payload()
    same = all(np.array_equal(pa[k], pb[k]) for k in pa)
    report(4, "degenerate-schedule equality (tau0=0)", same,
           "all deterministic trace arrays bit-identical")
    assert same


# --- criterion 5/6: the full benchmark protocol -------------------------------

PROTOCOL_REPEATS = 20
PROTOCOL_BUDGET = 100


@pytest.fixture(scope="module")
def protocol_runs():
    """All criterion-5 runs, executed once and shared with criterion 6.

    Uses the same experiment-preset path as ``gpbo run`` so the gate tests
    exactly what the harness ships.
    """
    from gpbo.cli import AlgorithmSpec, ExperimentConfig, _run_config

    plans = {
        "pi-griewank": ("griewank", "pi"),
        "ucb-dropwave": ("dropwave", "ucb"),
        "ucb-pp0001-dropwave": ("dropwave", "ucb-pp0001"),
        "ei-rastrigin": ("rastrigin", "ei"),
    }
    traces = {name: [] for name in plans}
    started = time.perf_counter()
    for repeat in range(PROTOCOL_REPEATS):
        for name, (obj_name, label) in plans.items():
            algo = AlgorithmSpec.parse(label)
            experiment = ExperimentConfig(
                objective=obj_name,
                algorithms=(algo,),
                repeats=PROTOCOL_REPEATS,
                budget=PROTOCOL_BUDGET,
                initial_points=5,
                seed=20219,
                noise_variance=1e-4,
            )
            obj = make_synthetic(obj_name)
            config = _run_config(experiment, algo, repeat)
            runner = run_bopp if config.pseudo.enabled else run_bo
            traces[name].append(runner(obj, config))
        done = 4 * (repeat + 1)
        print(
            f"  protocol repeat {repeat + 1}/{PROTOCOL_REPEATS} done "
            f"({done}/80 runs, {time.perf_counter() - started:.0f}s elapsed)",
            flush=True,
        )
    return traces


def test_criterion_5_protocol_reproduction(protocol_runs):
    """Benchmark means land inside the published-result bands."""
    means = {
        name: float(np.mean([t.final_simple_regret for t in runs]))
        for name, runs in protocol_runs.items()
    }
    stds = {
        name: float(np.std([t.final_simple_regret for t in runs], ddof=1))
        for name, runs in protocol_runs.items()
    }
    pi_ok = means["pi-griewank"] <= 0.05
    ucb_ok = 0.05 <= means["ucb-dropwave"] <= 0.55
    paired_ok = means["ucb-pp0001-dropwave"] <= means["ucb-dropwave"] + 0.05
    ei_ok = 0.8 <= means["ei-rastrigin"] <= 6.0
    direction = (
        "improved" if means["ucb-pp0001-dropwave"] <= means["ucb-dropwave"] else "did not improve"
    )
    detail = (
        f"PI-griewank {means['pi-griewank']:.4f}+-{stds['pi-griewank']:.4f} (<=0.05); "
        f"UCB-dropwave {means['ucb-dropwave']:.4f}+-{stds['ucb-dropwave']:.4f} (in [0.05,0.55]); "
        f"UCB-PP0001 {means['ucb-pp0001-dropwave']:.4f}+-{stds['ucb-pp0001-dropwave']:.4f} "
        f"(pseudo-points {direction} the paired mean); "
        f"EI-rastrigin {means['ei-rastrigin']:.4f}+-{stds['ei-rastrigin']:.4f} (in [0.8,6.0])"
    )
    passed = pi_ok and ucb_ok and paired_ok and ei_ok
    report(5, "benchmark protocol reproduction", passed, detail)
    assert pi_ok, detail
    assert ucb_ok, detail
    assert paired_ok, detail
    assert ei_ok, detail


def test_criterion_6_trace_properties(protocol_runs):
    """Regret bookkeeping invariants hold on every protocol run."""
    checked = 0
    for runs in protocol_runs.values():
        for trace in runs:
            r = trace.instant_regret
            assert np.all(np.diff(trace.simple_regret) <= 0.0)
            np.testing.assert_array_equal(trace.cumulative_regret, np.cumsum(r))
            t_final = len(trace)
            assert trace.simple_regret[-1] <= trace.cumulative_regret[-1] / t_final + 1e-12
            assert np.all(trace.delta_v >= 0.0)
            increments = np.diff(np.concatenate([[0.0], trace.info_gain]))
            assert np.all(increments >= 0.0)
            checked += 1
    report(6, "regret-trace properties", True, f"{checked} runs checked")
    assert checked == 4 * PROTOCOL_REPEATS


def test_criterion_7_ei_monte_carlo():
    """Closed-form expected improvement vs 1e6-draw Monte Carlo, 20 triples."""
    rng = np.random.default_rng(7007)
    worst_sigma = 0.0
    for _ in range(20):
        mean = float(rng.uniform(-2, 2))
        std = float(rng.uniform(0.05, 2.0))
        incumbent = float(rng.uniform(-2, 2))
        draws = rng.normal(mean, std, size=1_000_000)
        improvement = np.maximum(draws - incumbent, 0.0)
        mc = float(improvement.mean())
        se = float(improvement.std(ddof=1)) / math.sqrt(draws.size)
        err = abs(ei_value(mean, std, incumbent) - mc)
        worst_sigma = max(worst_sigma, err / se if se > 0 else 0.0)
        assert err < 3 * se, (mean, std, incumbent, err, se)
    report(7, "expected-improvement Monte Carlo", True,
           f"worst deviation {worst_sigma:.2f} standard errors")


def test_criterion_8_direct_quadratic_and_monotonicity():
    """Quadratic argmax within 1e-3 plus anytime monotonicity over budgets."""
    domain = BoxDomain(np.array([0.0]), np.array([1.0]))
    f = lambda x: -((x[0] - 0.5) ** 2)
    arg, _ = direct.maximize(f, domain, DirectConfig(max_evaluations=500))
    close = abs(arg[0] - 0.5) < 1e-3
    values = [
        direct.maximize(f, domain, DirectConfig(max_evaluations=n))[1]
        for n in (50, 100, 200, 500)
    ]
    monotone = all(v2 >= v1 for v1, v2 in zip(values, values[1:]))
    report(8, "rectangle-division maximizer", close and monotone,
           f"|argmax-0.5|={abs(arg[0]-0.5):.2e}, best-by-budget {values}")
    assert close
    assert monotone


def test_criterion_9_regret_bound_evaluation():
    """Bound evaluator: no-pseudo reduction, term monotonicity, reported validity."""
    obj = make_synthetic("griewank")
    theory = TheoryParams(tail_a=1.0, tail_b=1.0, domain_width=2.0, delta=0.1)
    config = RunConfig(
        budget=10,
        initial_points=5,
        acquisition_kind="ucb",
        seed=99,
        standardize=False,
        unit_amplitude=True,
    )
    trace = run_bo(obj, config)
    result = evaluate_regret_bound(trace, theory)

    # Independent arithmetic re-implementation of the no-pseudo form.
    noise = trace.noise_variance
    t_total = len(trace)
    c = 8.0 / math.log(1.0 + 1.0 / noise)
    inner = t_total**2 * 2 * 1.0 * 2.0 * math.sqrt(math.log(4.0 * 2 * 1.0 / 0.1))
    beta = 2.0 * math.log(2.0 * math.pi**2 * t_total**2 / 0.3) + 2.0 * 2 * math.log(inner)
    expected = math.sqrt(c * t_total * beta * float(trace.info_gain[-1])) + 2.0
    reduction_ok = (
        all(term == 0.0 for term in result.mean_error_terms)
        and abs(result.bound - expected) / expected < 1e-9
    )

    taus = np.linspace(0.0, 0.5, 30)
    tau_mono = [mean_error_bound(3, t, 2.0, noise, 30, 0.1, 2) for t in taus]
    counts = range(1, 15)
    count_mono = [mean_error_bound(l, 0.02, 2.0, noise, 15 * l, 0.1, 2) for l in counts]
    monotone = all(b >= a for a, b in zip(tau_mono, tau_mono[1:])) and all(
        b >= a for a, b in zip(count_mono, count_mono[1:])
    )

    realized = float(trace.cumulative_regret[-1])
    holds = realized <= result.bound
    passed = reduction_ok and monotone
    report(
        9,
        "regret-bound evaluation",
        passed,
        f"no-pseudo form rel err {abs(result.bound - expected) / expected:.2e}; "
        f"terms monotone; realized R_T={realized:.3f} vs bound {result.bound:.3f} "
        f"({'holds' if holds else 'violated'}, reported not asserted)",
    )
    assert passed
