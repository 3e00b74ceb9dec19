"""Run-loop behavior: determinism, pairing, regret bookkeeping, bound math."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from gpbo import acquisition, direct, engine, gp, pseudo
from gpbo.engine import RegretTrace, RunConfig, run_bo, run_bopp
from gpbo.domain import BoxDomain
from gpbo.objectives import Objective, external_objective, make_synthetic
from gpbo.pseudo import PseudoSchedule
from gpbo.theory import TheoryParams, evaluate_regret_bound, mean_error_bound


@pytest.fixture(autouse=True)
def fast_direct(monkeypatch):
    """Keep runs quick: 30 acquisition-search evaluations per dimension."""
    monkeypatch.setattr(engine, "_DIRECT_EVALUATIONS_PER_DIM", 30)


def fast_config(**overrides):
    base = dict(
        budget=6,
        initial_points=4,
        acquisition_kind="ucb",
        seed=11,
    )
    base.update(overrides)
    return RunConfig(**base)


def traces_equal(a: RegretTrace, b: RegretTrace) -> bool:
    pa, pb = a.payload(), b.payload()
    return all(np.array_equal(pa[k], pb[k], equal_nan=True) for k in pa)


class TestRunBo:
    @pytest.mark.parametrize("kind", ["pi", "ei", "ucb"])
    def test_deterministic_given_seed(self, kind):
        obj = make_synthetic("griewank")
        t1 = run_bo(obj, fast_config(acquisition_kind=kind))
        t2 = run_bo(obj, fast_config(acquisition_kind=kind))
        assert traces_equal(t1, t2)

    def test_different_seeds_differ(self):
        obj = make_synthetic("griewank")
        t1 = run_bo(obj, fast_config(seed=1))
        t2 = run_bo(obj, fast_config(seed=2))
        assert not traces_equal(t1, t2)

    def test_no_data_first_pick_is_center(self):
        obj = make_synthetic("griewank")
        trace = run_bo(obj, fast_config(budget=1, initial_points=0))
        np.testing.assert_array_equal(trace.points[0], np.zeros(2))

    def test_no_data_first_pick_is_center_pi(self):
        obj = make_synthetic("griewank")
        trace = run_bo(obj, fast_config(budget=1, initial_points=0, acquisition_kind="pi"))
        np.testing.assert_array_equal(trace.points[0], np.zeros(2))

    def test_regret_bookkeeping(self):
        obj = make_synthetic("dropwave")
        trace = run_bo(obj, fast_config(budget=10))
        r = trace.instant_regret
        assert np.all(r >= 0.0)  # exact optimum at the origin, noiseless regret
        np.testing.assert_allclose(trace.cumulative_regret, np.cumsum(r), rtol=0, atol=0)
        np.testing.assert_array_equal(trace.simple_regret, np.minimum.accumulate(r))
        assert np.all(np.diff(trace.simple_regret) <= 0.0)
        t = np.arange(1, len(trace) + 1)
        assert np.all(trace.simple_regret <= trace.cumulative_regret / t + 1e-12)

    def test_info_gain_nondecreasing_increments(self):
        obj = make_synthetic("griewank")
        trace = run_bo(obj, fast_config(budget=8))
        increments = np.diff(np.concatenate([[0.0], trace.info_gain]))
        assert np.all(increments >= 0.0)

    def test_beta_recorded_for_ucb_only(self):
        obj = make_synthetic("griewank")
        t_ucb = run_bo(obj, fast_config())
        assert np.all(np.isfinite(t_ucb.beta))
        t_pi = run_bo(obj, fast_config(acquisition_kind="pi"))
        assert np.all(np.isnan(t_pi.beta))

    def test_rejects_enabled_pseudo_schedule(self):
        obj = make_synthetic("griewank")
        with pytest.raises(ValueError):
            run_bo(obj, fast_config(pseudo=PseudoSchedule(tau0=0.01)))

    def test_shipped_search_budgets(self, monkeypatch):
        """A run gives DIRECT 200*d evaluations and each fit search 40 iterations."""
        monkeypatch.undo()  # drop fast_direct: this test pins the shipped budget
        evaluations, iterations = set(), set()
        original_maximize, original_minimize = direct.maximize, gp.minimize

        def recording_maximize(objective, domain, config, **kwargs):
            evaluations.add(config.max_evaluations)
            return original_maximize(objective, domain, config, **kwargs)

        def recording_minimize(fun, x0, args, bounds, max_iter, known=None):
            iterations.add(max_iter)
            return original_minimize(fun, x0, args, bounds, max_iter, known)

        monkeypatch.setattr(direct, "maximize", recording_maximize)
        monkeypatch.setattr(gp, "minimize", recording_minimize)
        run_bo(make_synthetic("hart6"), fast_config(budget=2))
        assert evaluations == {200 * 6}
        assert iterations == {40}

    def test_points_stay_in_domain(self):
        obj = make_synthetic("rastrigin")
        trace = run_bo(obj, fast_config(budget=8))
        assert np.all(np.abs(trace.points) <= 1.0)
        assert np.all(np.abs(trace.init_points) <= 1.0)


class TestRunBopp:
    @pytest.mark.parametrize("kind", ["pi", "ei", "ucb"])
    def test_disabled_schedule_matches_run_bo_exactly(self, kind):
        obj = make_synthetic("griewank")
        t_bo = run_bo(obj, fast_config(budget=8, acquisition_kind=kind))
        t_pp = run_bopp(obj, fast_config(budget=8, acquisition_kind=kind,
                                         pseudo=PseudoSchedule(tau0=0.0)))
        assert traces_equal(t_bo, t_pp)

    def test_pseudo_count_tracks_data_size(self):
        obj = make_synthetic("griewank")
        cfg = fast_config(budget=6, initial_points=5, pseudo=PseudoSchedule(tau0=0.0001))
        trace = run_bopp(obj, cfg)
        expected = 5 + np.arange(6)  # |data| before each iteration
        np.testing.assert_array_equal(trace.pseudo_counts, expected)
        d, r = 2, 2.0
        np.testing.assert_allclose(trace.taus, r * 0.0001 / (d * expected), rtol=1e-12)

    def test_delta_v_nonnegative(self):
        obj = make_synthetic("dropwave")
        cfg = fast_config(budget=8, pseudo=PseudoSchedule(tau0=0.001))
        trace = run_bopp(obj, cfg)
        assert np.all(trace.delta_v >= 0.0)
        assert np.any(trace.delta_v > 0.0)

    def test_two_factorizations_per_pseudo_round(self, monkeypatch):
        # build_model and augmented_model factor once each; delta_v reads its
        # blocks off the selection model's factor and has the public closed
        # form's bits.
        factored, augmented = [], []
        original_factor, original_augment = gp._augmented_factor, pseudo.augmented_model

        def counted(model, points):
            factored.append(len(points))
            return original_factor(model, points)

        def kept(model, pp):
            augmented.append((model, pp))
            return original_augment(model, pp)

        monkeypatch.setattr(gp, "_augmented_factor", counted)
        monkeypatch.setattr(pseudo, "augmented_model", kept)
        config = fast_config(pseudo=PseudoSchedule(tau0=0.01))
        trace = run_bopp(make_synthetic("griewank"), config)
        assert len(factored) == 2 * config.budget
        assert np.all(trace.pseudo_counts > 0)
        for (model, pp), x, dv in zip(augmented, trace.points, trace.delta_v):
            assert np.float64(pseudo.variance_reduction(model, pp, x)).tobytes() == dv.tobytes()

    def test_fit_sees_true_observations_only(self, monkeypatch):
        """Hyper-parameter fitting must never receive pseudo rows."""
        obj = make_synthetic("griewank")
        cfg = fast_config(budget=5, pseudo=PseudoSchedule(tau0=0.001))
        seen: list[np.ndarray] = []
        original_fit = gp.fit

        def recording_fit(data, init, config, rng=None):
            seen.append(data.points.copy())
            return original_fit(data, init, config, rng)

        monkeypatch.setattr(gp, "fit", recording_fit)
        trace = run_bopp(obj, cfg)
        true_points = np.vstack([trace.init_points, trace.points])
        for t, pts in enumerate(seen):
            # Iteration t fits on the first initial_points + t true points.
            np.testing.assert_array_equal(pts, true_points[: cfg.initial_points + t])

    def test_fits_share_one_restart_stream(self, monkeypatch):
        """Every fit of a run draws its restarts from the run's own fit substream."""
        streams = []
        original_fit = gp.fit

        def recording_fit(data, init, config, rng=None):
            streams.append(rng)
            return original_fit(data, init, config, rng)

        monkeypatch.setattr(gp, "fit", recording_fit)
        run_bo(make_synthetic("griewank"), fast_config(budget=3))
        assert len(streams) == 3
        assert isinstance(streams[0], np.random.Generator)
        assert all(rng is streams[0] for rng in streams)

    @pytest.mark.parametrize("initial_points, budget", [(5, 10), (17, 9)])
    def test_full_fits_only_below_ten_d_points(self, monkeypatch, initial_points, budget):
        """Griewank has d = 2: a fit restarts at random iff the data holds
        fewer than 20 points, and from 20 points on it takes no draws from
        the fit substream.  5 initial points and a budget of 10 never reach
        20 points; 17 and 9 cross the floor."""
        seen = []
        original_fit = gp.fit

        def recording_fit(data, init, config, rng=None):
            before = rng.bit_generator.state
            result = original_fit(data, init, config, rng)
            seen.append((len(data), config.n_starts, rng.bit_generator.state == before))
            return result

        monkeypatch.setattr(gp, "fit", recording_fit)
        cfg = fast_config(budget=budget, initial_points=initial_points)
        run_bo(make_synthetic("griewank"), cfg)
        sizes = initial_points + np.arange(budget)
        assert [n for n, _, _ in seen] == sizes.tolist()
        for n, n_starts, no_draws in seen:
            assert (n_starts > 1) == (n < 20)
            assert no_draws == (n >= 20)

    def test_each_coordinate_gets_its_own_lengthscale_box(self, monkeypatch):
        """On [0, 1] x [0, 100], coordinate j's lengthscales lie in 5-100 % of its side."""
        domain = BoxDomain(np.zeros(2), np.array([1.0, 100.0]))
        obj = Objective("plane", domain, lambda x: -np.sum((x - domain.center) ** 2, axis=1))
        boxes = []
        original = gp.minimize

        def recording_minimize(fun, x0, args, bounds, max_iter, known=None):
            boxes.append(np.exp(np.array(bounds, dtype=float)[:2]))
            return original(fun, x0, args, bounds, max_iter, known)

        monkeypatch.setattr(gp, "minimize", recording_minimize)
        run_bo(obj, fast_config(budget=2))
        assert boxes
        for box in boxes:
            np.testing.assert_allclose(box, [[0.05, 1.0], [5.0, 100.0]], rtol=1e-12)

    def test_fit_preset_compares_and_hashes(self, monkeypatch):
        """Two runs over one domain build equal fit presets with equal hashes."""
        domain = BoxDomain(np.zeros(2), np.array([1.0, 100.0]))
        obj = Objective("plane", domain, lambda x: -np.sum((x - domain.center) ** 2, axis=1))
        configs = []
        original = gp.fit

        def recording_fit(data, init, config, rng):
            configs.append(config)
            return original(data, init, config, rng)

        monkeypatch.setattr(gp, "fit", recording_fit)
        run_bo(obj, fast_config(budget=1))
        run_bo(obj, fast_config(budget=1))
        first, second = configs
        assert first is not second
        assert first == second and hash(first) == hash(second)

    def test_first_fit_unaffected_by_pseudo_values(self, monkeypatch):
        """Given the same true data, perturbed pseudo values leave the fit alone."""
        obj = make_synthetic("griewank")
        cfg = fast_config(budget=1, pseudo=PseudoSchedule(tau0=0.001))
        reference = run_bopp(obj, cfg)
        original = pseudo.generate

        def perturbed(data, schedule, domain, rng):
            pp = original(data, schedule, domain, rng)
            if len(pp) == 0:
                return pp
            return replace(pp, values=pp.values + 123.0)

        monkeypatch.setattr(pseudo, "generate", perturbed)
        tampered = run_bopp(obj, cfg)
        np.testing.assert_array_equal(reference.lengthscales, tampered.lengthscales)
        np.testing.assert_array_equal(reference.amplitudes, tampered.amplitudes)

    @pytest.mark.parametrize("label", ["ucb", "pi", "ei", "ucb-pp"])
    def test_surface_scores_what_predict_and_the_spec_give(self, monkeypatch, label):
        """The search's surface, on its prepared posterior, has the bits of
        ``spec.values(mean, sqrt(var))`` from ``gp.predict`` on the selection
        model: on a 2-D batch, and one point at a time as a float."""
        selections, specs, checked = [], [], []
        original_augment, original_spec = pseudo.augmented_model, acquisition.AcquisitionSpec
        original_maximize = direct.maximize
        rng = np.random.default_rng(3)

        def kept_model(model, pp):
            selections.append(original_augment(model, pp))
            return selections[-1]

        def kept_spec(*args, **kwargs):
            specs.append(original_spec(*args, **kwargs))
            return specs[-1]

        def checking(surface, domain, config, **kwargs):
            model, spec = selections[-1], specs[-1]
            rows = np.vstack([domain.center, rng.uniform(domain.lower, domain.upper, (9, 2)),
                              model.data.points[:3]])
            mean, var = gp.predict(model, rows)
            want = spec.values(mean, np.sqrt(var))
            assert surface(rows).tobytes() == want.tobytes()
            for row, value in zip(rows, want):
                got = surface(row)
                assert type(got) is float and np.float64(got).tobytes() == value.tobytes()
            checked.append(len(model))
            return original_maximize(surface, domain, config, **kwargs)

        kind = label.split("-")[0]
        tau0 = 0.01 if label.endswith("pp") else 0.0
        config = fast_config(acquisition_kind=kind, pseudo=PseudoSchedule(tau0=tau0))
        monkeypatch.setattr(pseudo, "augmented_model", kept_model)
        monkeypatch.setattr(acquisition, "AcquisitionSpec", kept_spec)
        monkeypatch.setattr(direct, "maximize", checking)
        trace = run_bopp(make_synthetic("griewank"), config)
        assert len(checked) == config.budget
        assert checked == (config.initial_points + np.arange(config.budget)
                           + trace.pseudo_counts).tolist()

    def test_one_posterior_query_per_iteration(self, monkeypatch):
        """The search scores its points on one prepared posterior; predict and
        posterior run once an iteration, for the selected point's variance."""
        calls = {"predict": 0, "posterior": 0, "prepared": 0, "searches": 0}
        original = {name: getattr(gp, name) for name in ("predict", "posterior", "_Posterior")}
        original_maximize = direct.maximize

        def counted(name, key):
            def call(*args, **kwargs):
                calls[key] += 1
                return original[name](*args, **kwargs)
            return call

        def searched(*args, **kwargs):
            calls["searches"] += 1
            return original_maximize(*args, **kwargs)

        monkeypatch.setattr(gp, "predict", counted("predict", "predict"))
        monkeypatch.setattr(gp, "posterior", counted("posterior", "posterior"))
        monkeypatch.setattr(gp, "_Posterior", counted("_Posterior", "prepared"))
        monkeypatch.setattr(direct, "maximize", searched)
        config = fast_config(pseudo=PseudoSchedule(tau0=0.01))
        run_bopp(make_synthetic("griewank"), config)
        # posterior calls predict, which prepares its own core.
        assert calls == {"predict": config.budget, "posterior": config.budget,
                         "prepared": 2 * config.budget, "searches": config.budget}

    def test_augmented_variance_below_base_at_probes(self):
        rng = np.random.default_rng(0)
        obj = make_synthetic("griewank")
        data = gp.Dataset(rng.uniform(-1, 1, (7, 2)), rng.normal(size=7))
        params = gp.KernelParams(np.array([0.5, 0.5]), 1.0, 1e-4)
        model = gp.build_model(data, params)
        pp = pseudo.generate(data, PseudoSchedule(tau0=0.001), obj.domain, rng)
        aug = pseudo.augmented_model(model, pp)
        probes = rng.uniform(-1, 1, (40, 2))
        _, v_base = gp.predict(model, probes)
        _, v_aug = gp.predict(aug, probes)
        assert np.all(v_aug <= v_base + 1e-9)


class TestObjectiveCalls:
    """Each point is evaluated once: an initial point for its observation, an
    iteration's point for both its observation and its true value."""

    @staticmethod
    def counted(obj: Objective) -> tuple[Objective, list[int]]:
        calls = []

        def batch(z):
            calls.append(len(z))
            return obj.batch_evaluate(z)

        return replace(obj, batch_evaluate=batch), calls

    def test_synthetic(self):
        obj, calls = self.counted(make_synthetic("dropwave"))
        trace = run_bopp(obj, fast_config(budget=5, initial_points=3,
                                          pseudo=PseudoSchedule(tau0=0.01)))
        assert calls == [1] * (3 + 5)
        np.testing.assert_array_equal(trace.true_values, make_synthetic("dropwave")
                                      .batch_evaluate(trace.points))

    def test_external(self):
        script = "import sys; print(-sum(float(v) ** 2 for v in sys.stdin.read().split()))"
        command = f"{sys.executable} -c \"{script}\""
        obj, calls = self.counted(external_objective(command, BoxDomain(-np.ones(2), np.ones(2))))
        trace = run_bo(obj, fast_config(budget=3, initial_points=2))
        assert calls == [1] * (2 + 3)
        np.testing.assert_allclose(trace.true_values, -np.sum(trace.points**2, axis=1))


class TestFitFallback:
    def test_failed_fit_keeps_previous_params(self, monkeypatch, caplog):
        obj = make_synthetic("griewank")
        original_fit = gp.fit
        calls = {"n": 0}

        def failing_once(data, init, config, rng=None):
            calls["n"] += 1
            if calls["n"] == 2:
                raise gp.FactorizationError("synthetic conditioning failure")
            return original_fit(data, init, config, rng)

        monkeypatch.setattr(gp, "fit", failing_once)
        import logging

        with caplog.at_level(logging.WARNING, logger="gpbo.engine"):
            trace = run_bo(obj, fast_config(budget=3))
        assert "fit failed" in caplog.text
        # Iteration 2 reuses iteration 1's hyper-parameters.
        np.testing.assert_array_equal(trace.lengthscales[1], trace.lengthscales[0])
        assert trace.amplitudes[1] == trace.amplitudes[0]


class TestUnitAmplitudeMode:
    def test_amplitude_stays_one(self):
        obj = make_synthetic("griewank")
        cfg = fast_config(budget=4, standardize=False, unit_amplitude=True)
        trace = run_bo(obj, cfg)
        assert np.all(trace.amplitudes == 1.0)
        assert trace.unit_amplitude

    def test_standardize_conflict_rejected(self):
        with pytest.raises(ValueError):
            fast_config(standardize=True, unit_amplitude=True)


class TestConfigChecks:
    @pytest.mark.parametrize("field, value", [
        ("budget", 2.5), ("budget", True), ("budget", "6"), ("initial_points", 4.0),
        ("initial_points", np.bool_(True)), ("seed", 1.5), ("seed", False), ("seed", None),
        ("standardize", 1), ("standardize", "no"), ("unit_amplitude", 0.0),
        ("unit_amplitude", None),
    ], ids=["budget-fraction", "budget-bool", "budget-string", "initial-points-float",
            "initial-points-numpy-bool", "seed-fraction", "seed-bool", "seed-none",
            "standardize-int", "standardize-string", "unit-amplitude-float",
            "unit-amplitude-none"])
    def test_counts_and_flags_rejected(self, field, value):
        kind = "a bool" if field in ("standardize", "unit_amplitude") else "an integer"
        with pytest.raises(ValueError, match=f"^{field} must be {kind}, got "):
            fast_config(**{field: value})

    def test_numpy_integers_and_bools_accepted(self):
        config = fast_config(budget=np.int64(6), initial_points=np.int32(4), seed=np.uint32(11),
                             standardize=np.bool_(False), unit_amplitude=np.bool_(True))
        assert config.budget == 6 and config.unit_amplitude


class TestMeanErrorBound:
    def test_zero_count_is_zero(self):
        assert mean_error_bound(0, 0.1, 1.0, 1e-2, 10, 0.1, 2) == 0.0

    def test_zero_tau_reduces_to_noise_term(self):
        noise, total, delta = 1e-2, 50, 0.1
        got = mean_error_bound(1, 0.0, 5.0, noise, total, delta, 3)
        expected = math.sqrt(1 + 1 / noise) * 2.0 * math.sqrt(math.log(4 * total / delta))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_tau_and_count(self):
        noise, delta, d = 1e-2, 0.1, 2
        taus = np.linspace(0.0, 0.5, 20)
        values = [mean_error_bound(3, t, 2.0, noise, 30, delta, d) for t in taus]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))
        counts = range(1, 12)
        values = [mean_error_bound(l, 0.05, 2.0, noise, 12 * l, delta, d) for l in counts]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_theorem_form_substitutes_slope(self):
        theory = TheoryParams(tail_a=1.3, tail_b=0.8, delta=0.2)
        d, noise, total = 3, 1e-2, 40
        slope = theory.tail_b * math.sqrt(math.log(4 * d * theory.tail_a / theory.delta))
        trace = TestRegretBound.make_trace(
            d=d, noise=noise, counts=[0, 4, 36], taus=[0.0, 0.03, 0.01]
        )
        terms = evaluate_regret_bound(trace, theory).mean_error_terms
        assert terms == tuple(
            mean_error_bound(l, tau, slope, noise, total, theory.delta, d)
            for l, tau in ((0, 0.0), (4, 0.03), (36, 0.01))
        )


class TestRegretBound:
    @staticmethod
    def make_trace(t_total=3, d=1, noise=1e-2, counts=None, taus=None, gains=None):
        counts = np.zeros(t_total, dtype=int) if counts is None else np.asarray(counts)
        taus = np.zeros(t_total) if taus is None else np.asarray(taus, float)
        gains = np.linspace(0.4, 1.0, t_total) if gains is None else np.asarray(gains, float)
        zeros = np.zeros(t_total)
        return RegretTrace(
            objective_name="synthetic",
            dimension=d,
            unit_amplitude=True,
            noise_variance=noise,
            init_points=np.zeros((0, d)),
            init_observations=np.zeros(0),
            points=np.zeros((t_total, d)),
            observations=zeros.copy(),
            true_values=zeros.copy(),
            instant_regret=zeros.copy(),
            simple_regret=zeros.copy(),
            cumulative_regret=zeros.copy(),
            delta_v=zeros.copy(),
            beta=zeros.copy(),
            info_gain=np.cumsum(gains),
            pseudo_counts=counts,
            taus=taus,
            wall_ms=zeros.copy(),
            lengthscales=np.ones((t_total, d)),
            amplitudes=np.ones(t_total),
        )

    def test_no_pseudo_points_reduces_to_plain_form(self):
        trace = self.make_trace()
        theory = TheoryParams(delta=0.1)
        result = evaluate_regret_bound(trace, theory)
        assert result.mean_error_terms == (0.0, 0.0, 0.0)
        # Independent arithmetic: sqrt(C*T*beta_T*gain) + 2.
        noise = trace.noise_variance
        c = 8.0 / math.log(1.0 + 1.0 / noise)
        inner = 1.0 * math.sqrt(math.log(4.0 / 0.1))
        beta = 2.0 * math.log(2.0 * math.pi**2 * 9.0 / 0.3) + 2.0 * math.log(
            9.0 * 1.0 * 2.0 * inner
        )
        expected = math.sqrt(c * 3 * beta * trace.info_gain[-1]) + 2.0
        assert result.bound == pytest.approx(expected, rel=1e-9)

    def test_hand_built_instance_matches_arithmetic(self):
        noise = 1e-2
        counts = [0, 2, 3]
        taus = [0.0, 0.02, 0.01]
        gains = [0.5, 0.25, 0.125]
        trace = self.make_trace(noise=noise, counts=counts, taus=taus, gains=gains)
        theory = TheoryParams(tail_a=1.0, tail_b=1.0, domain_width=2.0, delta=0.1)
        result = evaluate_regret_bound(trace, theory)

        # Full re-computation with plain arithmetic.
        total = 5
        slope = math.sqrt(math.log(4 * 1 * 1.0 / 0.1))
        def term(l, tau):
            if l == 0:
                return 0.0
            return (
                l**2
                * math.sqrt(1 + 1 / noise)
                * (slope * 1 * tau / math.sqrt(noise) + 2 * math.sqrt(math.log(4 * total / 0.1)))
            )

        expected_terms = [term(*p) for p in zip(counts, taus)]
        c = 8.0 / math.log(1 + 1 / noise)
        inner = 9.0 * 1 * 1.0 * 2.0 * math.sqrt(math.log(4 / 0.1))
        beta = 2 * math.log(2 * math.pi**2 * 9 / 0.3) + 2 * math.log(inner)
        gain = 0.5 + 0.25 + 0.125
        expected = math.sqrt(c * 3 * beta * gain) + 2.0 + 2.0 * sum(expected_terms)
        np.testing.assert_allclose(result.mean_error_terms, expected_terms, rtol=1e-9)
        assert result.bound == pytest.approx(expected, rel=1e-9)
        assert result.capacity_constant == pytest.approx(c, rel=1e-12)

    def test_requires_unit_amplitude(self):
        trace = self.make_trace()
        trace.unit_amplitude = False
        with pytest.raises(ValueError):
            evaluate_regret_bound(trace, TheoryParams())

    def test_engine_trace_accepted(self):
        obj = make_synthetic("griewank")
        cfg = fast_config(budget=4, standardize=False, unit_amplitude=True,
                          pseudo=PseudoSchedule(tau0=0.001))
        trace = run_bopp(obj, cfg)
        result = evaluate_regret_bound(trace, TheoryParams())
        assert math.isfinite(result.bound)
        assert len(result.mean_error_terms) == 4
        assert all(t >= 0 for t in result.mean_error_terms)


class TestPairing:
    def test_same_seed_shares_initial_design(self):
        obj = make_synthetic("dropwave")
        t_ucb = run_bo(obj, fast_config(budget=3, seed=5))
        t_pi = run_bo(obj, fast_config(budget=3, seed=5, acquisition_kind="pi"))
        np.testing.assert_array_equal(t_ucb.init_points, t_pi.init_points)
        np.testing.assert_array_equal(t_ucb.init_observations, t_pi.init_observations)

    def test_pp_run_shares_initial_design_with_plain(self):
        obj = make_synthetic("dropwave")
        t_bo = run_bo(obj, fast_config(budget=3, seed=9))
        t_pp = run_bopp(obj, fast_config(budget=3, seed=9, pseudo=PseudoSchedule(tau0=0.01)))
        np.testing.assert_array_equal(t_bo.init_points, t_pp.init_points)
        np.testing.assert_array_equal(t_bo.init_observations, t_pp.init_observations)
