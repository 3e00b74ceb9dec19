"""Benchmark objectives: rescaling, optima, noise, external-command protocol."""

import math
import sys

import numpy as np
import pytest

from gpbo import objectives
from gpbo.domain import BoxDomain
from gpbo.objectives import (
    NoiseModel,
    ObjectiveExitError,
    ObjectiveParseError,
    ObjectiveSpawnError,
    ObjectiveTimeoutError,
    external_objective,
    make_synthetic,
    observe,
)

# Canonical minimization values computed independently of the package, used
# to pin the rescaling maps.


def canonical_dropwave(x):
    sq = x[0] ** 2 + x[1] ** 2
    return -(1 + math.cos(12 * math.sqrt(sq))) / (0.5 * sq + 2)


def canonical_griewank(x):
    s = sum(c * c for c in x) / 4000.0
    p = math.cos(x[0] / math.sqrt(1)) * math.cos(x[1] / math.sqrt(2))
    return s - p + 1.0


def canonical_rastrigin(x):
    return 20.0 + sum(c * c - 10.0 * math.cos(2 * math.pi * c) for c in x)


class TestSyntheticFactory:
    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValueError) as exc:
            make_synthetic("sphere")
        for name in ("dropwave", "griewank", "hart6", "rastrigin"):
            assert name in str(exc.value)

    def test_origin_values(self):
        assert make_synthetic("griewank").evaluate_true(np.zeros(2)) == 0.0
        assert make_synthetic("rastrigin").evaluate_true(np.zeros(2)) == 0.0
        assert make_synthetic("dropwave").evaluate_true(np.zeros(2)) == 1.0

    def test_optimum_values(self):
        assert make_synthetic("griewank").optimum_value == 0.0
        assert make_synthetic("rastrigin").optimum_value == 0.0
        assert make_synthetic("dropwave").optimum_value == 1.0
        assert make_synthetic("hart6").optimum_value == pytest.approx(3.32237, abs=1e-5)

    def test_domains_are_unit_symmetric(self):
        for name in objectives.SYNTHETIC_NAMES:
            obj = make_synthetic(name)
            np.testing.assert_array_equal(obj.domain.lower, -np.ones(obj.dimension))
            np.testing.assert_array_equal(obj.domain.upper, np.ones(obj.dimension))

    @pytest.mark.parametrize(
        "name,canonical,scale",
        [
            ("dropwave", canonical_dropwave, 5.12),
            ("griewank", canonical_griewank, 600.0),
            ("rastrigin", canonical_rastrigin, 5.12),
        ],
    )
    def test_rescaling_matches_canonical(self, name, canonical, scale):
        obj = make_synthetic(name)
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.uniform(-1, 1, 2)
            assert obj.evaluate_true(z) == pytest.approx(-canonical(scale * z), abs=1e-10)

    def test_hart6_rescaling(self):
        obj = make_synthetic("hart6")
        rng = np.random.default_rng(1)
        z = rng.uniform(-1, 1, 6)
        x = 0.5 + 0.5 * z  # canonical domain [0, 1]^6
        inner = [
            sum(
                objectives._HART6_A[r, j] * (x[j] - objectives._HART6_P[r, j]) ** 2
                for j in range(6)
            )
            for r in range(4)
        ]
        value = -sum(objectives._HART6_ALPHA[r] * math.exp(-inner[r]) for r in range(4))
        assert obj.evaluate_true(z) == pytest.approx(-value, abs=1e-10)

    def test_optimum_consistent_with_argmax(self):
        for name in objectives.SYNTHETIC_NAMES:
            obj = make_synthetic(name)
            assert obj.evaluate_true(obj.optimum_point) == pytest.approx(
                obj.optimum_value, abs=1e-6
            )

    def test_random_search_finds_no_better(self):
        rng = np.random.default_rng(2)
        for name in objectives.SYNTHETIC_NAMES:
            obj = make_synthetic(name)
            pts = rng.uniform(-1, 1, (1_000_000, obj.dimension))
            assert float(obj.batch_evaluate(pts).max()) <= obj.optimum_value + 1e-9


class TestObserve:
    def test_zero_variance_is_exact(self):
        obj = make_synthetic("griewank")
        noise = NoiseModel(0.0, np.random.default_rng(0))
        x = np.array([0.3, -0.2])
        assert observe(obj, noise, x) == obj.evaluate_true(x)

    def test_seeded_reproducibility(self):
        obj = make_synthetic("dropwave")
        xs = np.random.default_rng(1).uniform(-1, 1, (10, 2))
        runs = []
        for _ in range(2):
            noise = NoiseModel(1e-4, np.random.default_rng(99))
            runs.append([observe(obj, noise, x) for x in xs])
        assert runs[0] == runs[1]

    def test_one_draw_per_call(self):
        obj = make_synthetic("griewank")
        stream = np.random.default_rng(7)
        noise = NoiseModel(1e-4, stream)
        x = np.zeros(2)
        got = [observe(obj, noise, x) for _ in range(5)]
        ref_stream = np.random.default_rng(7)
        expected = [1e-2 * float(ref_stream.standard_normal()) for _ in range(5)]
        assert got == pytest.approx(expected, abs=1e-15)

    def test_sample_variance(self):
        obj = make_synthetic("griewank")
        noise = NoiseModel(1e-4, np.random.default_rng(3))
        x = np.array([0.1, 0.1])
        base = obj.evaluate_true(x)
        draws = np.array([observe(obj, noise, x) for _ in range(100_000)]) - base
        assert abs(draws.var() - 1e-4) / 1e-4 < 0.05

    def test_out_of_domain_rejected(self):
        obj = make_synthetic("griewank")
        noise = NoiseModel(0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            observe(obj, noise, np.array([1.5, 0.0]))

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(-1.0, np.random.default_rng(0))


class TestExternalObjective:
    def domain(self, d=2):
        return BoxDomain(-np.ones(d), np.ones(d))

    def test_constant_echo(self):
        obj = external_objective(f"{sys.executable} -c \"print(0.5)\"", self.domain())
        assert obj.evaluate_true(np.array([0.1, 0.2])) == 0.5

    def test_sum_of_coordinates(self):
        cmd = (
            f"{sys.executable} -c "
            "\"import sys; print(sum(float(v) for v in sys.stdin.read().split()))\""
        )
        obj = external_objective(cmd, self.domain())
        assert obj.evaluate_true(np.array([0.25, 0.75])) == 1.0

    def test_nonzero_exit_surfaces_code(self):
        obj = external_objective(
            f"{sys.executable} -c \"import sys; sys.exit(3)\"", self.domain()
        )
        with pytest.raises(ObjectiveExitError) as exc:
            obj.evaluate_true(np.zeros(2))
        assert exc.value.returncode == 3
        assert "3" in str(exc.value)

    def test_exit_error_survives_pickling(self):
        """A process pool hands a worker's error back pickled."""
        import pickle

        error = ObjectiveExitError("run.sh", 3, "boom\n")
        copy = pickle.loads(pickle.dumps(error))
        assert (type(copy), str(copy), copy.returncode) == (ObjectiveExitError, str(error), 3)

    def test_parse_failure(self):
        obj = external_objective(
            f"{sys.executable} -c \"print('not-a-number')\"", self.domain()
        )
        with pytest.raises(ObjectiveParseError):
            obj.evaluate_true(np.zeros(2))

    @pytest.mark.parametrize("printed", [
        "print('0.1 0.2')",  # two tokens: not the last one
        "print('loss: 0.5')",  # a labelled value
        "print('nan')",
        "print('inf')",
        "pass",  # nothing at all
        "print('0.5'); print('done')",  # the value is not the last line
    ], ids=["two-tokens", "labelled", "nan", "inf", "empty", "value-then-log"])
    def test_last_line_must_be_one_finite_real(self, printed):
        obj = external_objective(f"{sys.executable} -c \"{printed}\"", self.domain())
        with pytest.raises(ObjectiveParseError, match="last non-empty line"):
            obj.evaluate_true(np.zeros(2))

    def test_log_lines_before_the_value_are_ignored(self):
        cmd = f"{sys.executable} -c \"print('fitting 3 folds'); print('loss 0.9 0.8'); print(); print(' 0.25 ')\""
        obj = external_objective(cmd, self.domain())
        assert obj.evaluate_true(np.zeros(2)) == 0.25

    def test_spawn_failure(self):
        obj = external_objective("/nonexistent/binary-xyz", self.domain())
        with pytest.raises(ObjectiveSpawnError):
            obj.evaluate_true(np.zeros(2))

    def test_timeout(self):
        obj = external_objective(
            f"{sys.executable} -c \"import time; time.sleep(5)\"",
            self.domain(),
            timeout=0.3,
        )
        with pytest.raises(ObjectiveTimeoutError):
            obj.evaluate_true(np.zeros(2))

    def test_observe_integration(self):
        obj = external_objective(f"{sys.executable} -c \"print(2.0)\"", self.domain())
        noise = NoiseModel(0.0, np.random.default_rng(0))
        assert observe(obj, noise, np.zeros(2)) == 2.0
