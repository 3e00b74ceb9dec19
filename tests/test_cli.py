"""Experiment harness: persistence, pairing, summaries, verification command."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from gpbo import cli
from gpbo.cli import AlgorithmSpec, ExperimentConfig, config_from_dict, run_experiment, summarize
from gpbo.direct import DirectConfig
from gpbo.domain import unit_symmetric
from gpbo.objectives import Objective


# The README's example configs, and what ``gpbo run`` echoes with no config.
README_DROPWAVE = {
    "objective": "dropwave",
    "algorithms": ["ucb", "ucb-pp01", "ucb-pp001", "ucb-pp0001"],
    "repeats": 20,
    "budget": 100,
    "initial_points": 5,
    "seed": 0,
    "noise_variance": 1e-4,
    "out_dir": "results/dropwave",
}
README_EXTERNAL = {
    "objective": "external",
    "external": {"command": "python eval.py", "lower": [-1, -1], "upper": [1, 1]},
    "noise_variance": 0.0,
}
BARE_ECHO = {
    "objective": "griewank",
    "algorithms": [{"name": "ucb", "acquisition": "ucb", "tau0": 0.0}],
    "repeats": 20,
    "budget": 100,
    "initial_points": 5,
    "seed": 0,
    "noise_variance": 0.0001,
    "delta": 0.1,
    "standardize": True,
    "out_dir": "results",
    "jobs": 1,
}


def tiny_config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(
        objective="griewank",
        algorithms=(AlgorithmSpec.parse("ucb"), AlgorithmSpec.parse("ucb-pp0001")),
        repeats=2,
        budget=3,
        initial_points=3,
        seed=0,
        out_dir=str(tmp_path / "results"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def read_csv(path: Path) -> list[dict]:
    with path.open() as handle:
        return list(csv.DictReader(handle))


@pytest.fixture(autouse=True)
def fast_direct(monkeypatch):
    """Keep CLI-driven runs quick: shrink the inner maximizer budget."""
    from gpbo import engine

    monkeypatch.setattr(
        engine, "_direct_config",
        lambda config, dim: DirectConfig(max_evaluations=40),
    )


class TestAlgorithmLabels:
    def test_presets(self):
        assert AlgorithmSpec.parse("ucb").tau0 == 0.0
        assert AlgorithmSpec.parse("ucb-pp01").tau0 == 0.01
        assert AlgorithmSpec.parse("pi-pp001").tau0 == 0.001
        assert AlgorithmSpec.parse("ei-pp0001").tau0 == 0.0001

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            AlgorithmSpec.parse("mes")
        with pytest.raises(ValueError):
            AlgorithmSpec.parse("ucb-pp5")


class TestRunExperiment:
    def test_writes_result_files(self, tmp_path):
        config = tiny_config(tmp_path)
        assert run_experiment(config) == 0
        out = Path(config.out_dir)
        for name in ("config.json", "rows.csv", "init.csv", "summary.csv", "summary.txt", "curves.csv"):
            assert (out / name).exists(), name

    def test_config_echo_is_resolved(self, tmp_path):
        config = tiny_config(tmp_path)
        run_experiment(config)
        echoed = json.loads((Path(config.out_dir) / "config.json").read_text())
        assert echoed["budget"] == 3
        assert echoed["noise_variance"] == 1e-4
        assert echoed["algorithms"][1]["tau0"] == 0.0001
        assert config_from_dict(echoed) == config

    def test_row_rectangle_complete(self, tmp_path):
        config = tiny_config(tmp_path)
        run_experiment(config)
        rows = read_csv(Path(config.out_dir) / "rows.csv")
        assert len(rows) == 2 * 2 * 3  # algorithms x repeats x budget
        header = list(rows[0])
        assert header[:3] == ["algorithm", "repeat", "iter"]
        for column in ("y", "simple_regret", "cumulative_regret", "delta_v", "beta", "info_gain", "ms"):
            assert column in header

    def test_algorithms_share_initial_design_within_repeat(self, tmp_path):
        config = tiny_config(tmp_path)
        run_experiment(config)
        init = read_csv(Path(config.out_dir) / "init.csv")
        by_algo = {}
        for row in init:
            key = (row["repeat"], row["index"])
            by_algo.setdefault(key, []).append((row["x0"], row["x1"], row["y"]))
        for key, entries in by_algo.items():
            assert len(entries) == 2
            assert entries[0] == entries[1]

    def test_rerun_identical_modulo_walltime(self, tmp_path):
        c1 = tiny_config(tmp_path, out_dir=str(tmp_path / "a"))
        c2 = tiny_config(tmp_path, out_dir=str(tmp_path / "b"))
        run_experiment(c1)
        run_experiment(c2)
        rows1 = read_csv(Path(c1.out_dir) / "rows.csv")
        rows2 = read_csv(Path(c2.out_dir) / "rows.csv")
        for r1, r2 in zip(rows1, rows2):
            r1.pop("ms")
            r2.pop("ms")
            assert r1 == r2
        assert (Path(c1.out_dir) / "init.csv").read_text() == (
            Path(c2.out_dir) / "init.csv"
        ).read_text()

    def test_failures_recorded_and_nonzero_exit(self, tmp_path, monkeypatch):
        from gpbo import engine

        calls = {"n": 0}
        original = cli._one_run

        def flaky(config, algo, repeat):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic failure")
            return original(config, algo, repeat)

        monkeypatch.setattr(cli, "_one_run", flaky)
        config = tiny_config(tmp_path, algorithms=(AlgorithmSpec.parse("ucb"),))
        status = run_experiment(config)
        assert status == 1
        failures = json.loads((Path(config.out_dir) / "failures.json").read_text())
        assert failures[0]["error"] == "synthetic failure"


class TestParallelRepeats:
    def test_jobs_matches_serial_modulo_walltime(self, tmp_path):
        serial = tiny_config(tmp_path, out_dir=str(tmp_path / "serial"), jobs=1,
                             algorithms=(AlgorithmSpec.parse("ucb"),))
        parallel = tiny_config(tmp_path, out_dir=str(tmp_path / "parallel"), jobs=2,
                               algorithms=(AlgorithmSpec.parse("ucb"),))
        assert run_experiment(serial) == 0
        assert run_experiment(parallel) == 0
        rows_s = read_csv(Path(serial.out_dir) / "rows.csv")
        rows_p = read_csv(Path(parallel.out_dir) / "rows.csv")
        for r1, r2 in zip(rows_s, rows_p):
            r1.pop("ms")
            r2.pop("ms")
            assert r1 == r2


class TestExternalThroughHarness:
    def test_external_objective_run(self, tmp_path):
        import sys

        config = ExperimentConfig(
            objective="external",
            algorithms=(AlgorithmSpec.parse("ucb"),),
            repeats=1,
            budget=2,
            initial_points=2,
            seed=0,
            noise_variance=0.0,
            out_dir=str(tmp_path / "ext"),
            external_command=(
                f"{sys.executable} -c "
                "\"import sys; print(-sum(float(v)**2 for v in sys.stdin.read().split()))\""
            ),
            external_lower=(-1.0, -1.0),
            external_upper=(1.0, 1.0),
        )
        assert run_experiment(config) == 0
        summary = read_csv(Path(config.out_dir) / "summary.csv")[0]
        assert summary["metric"] == "best_y"
        rows = read_csv(Path(config.out_dir) / "rows.csv")
        assert all(r["simple_regret"] == "nan" for r in rows)


class TestSummarize:
    def test_summary_statistics(self, tmp_path):
        config = tiny_config(tmp_path)
        run_experiment(config)
        out = Path(config.out_dir)
        rows = read_csv(out / "rows.csv")
        summary = {r["algorithm"]: r for r in read_csv(out / "summary.csv")}
        for name in ("ucb", "ucb-pp0001"):
            terminals = [
                float(r["simple_regret"])
                for r in rows
                if r["algorithm"] == name and r["iter"] == "3"
            ]
            assert float(summary[name]["mean"]) == pytest.approx(np.mean(terminals), rel=1e-12)
            assert float(summary[name]["std"]) == pytest.approx(
                np.std(terminals, ddof=1), rel=1e-12
            )

    def test_known_values(self, tmp_path):
        # Two repeats with terminal regrets 0.1 and 0.3: mean 0.2, std ~0.1414.
        out = tmp_path / "fake"
        out.mkdir()
        (out / "config.json").write_text(json.dumps({"objective": "griewank"}))
        with (out / "rows.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["algorithm", "repeat", "iter", "x0", "x1", "y",
                             "simple_regret", "cumulative_regret", "delta_v",
                             "beta", "info_gain", "ms"])
            for rep, terminal in ((0, 0.1), (1, 0.3)):
                writer.writerow(["ucb", rep, 1, 0, 0, 0, 0.5, 0.5, 0, 1, 0.1, 1.0])
                writer.writerow(["ucb", rep, 2, 0, 0, 0, terminal, 1.0, 0, 1, 0.2, 1.0])
        rows = summarize(out)
        assert rows[0].mean == pytest.approx(0.2)
        assert rows[0].std == pytest.approx(math.sqrt((0.1 - 0.2) ** 2 + (0.3 - 0.2) ** 2))
        curves = read_csv(out / "curves.csv")
        for c in curves:
            assert float(c["band"]) == pytest.approx(float(c["std"]) / 4.0, rel=1e-12)

    def test_single_repeat_flagged(self, tmp_path):
        config = tiny_config(tmp_path, repeats=1, algorithms=(AlgorithmSpec.parse("ucb"),))
        run_experiment(config)
        summary = read_csv(Path(config.out_dir) / "summary.csv")[0]
        assert summary["std"] == "0"
        assert summary["single_repeat"] == "1"

    def test_ragged_rows_rejected(self, tmp_path):
        config = tiny_config(tmp_path, algorithms=(AlgorithmSpec.parse("ucb"),))
        run_experiment(config)
        out = Path(config.out_dir)
        rows_path = out / "rows.csv"
        lines = rows_path.read_text().splitlines()
        rows_path.write_text("\n".join(lines[:-1]) + "\n")  # drop the last cell row
        with pytest.raises(ValueError) as exc:
            summarize(out)
        assert "repeat" in str(exc.value)

    def test_roundtrip_reproducible(self, tmp_path):
        config = tiny_config(tmp_path)
        run_experiment(config)
        out = Path(config.out_dir)
        first = (out / "summary.csv").read_text()
        summarize(out)
        assert (out / "summary.csv").read_text() == first


class TestVerifyCommand:
    def test_passes_on_correct_build(self, tmp_path):
        report = tmp_path / "report.json"
        status, reports = cli.verify(seed=0, instances=10, report_path=report,
                                     envelope_trials=40)
        assert status == 0
        payload = json.loads(report.read_text())
        assert payload["all_passed"]
        assert len(payload["checks"]) == 31
        assert all("max_error" in c for c in payload["checks"])

    def test_detects_perturbed_variance_reduction(self, monkeypatch):
        from gpbo import pseudo

        original = pseudo.variance_reduction

        def broken(model, pp, x):
            return original(model, pp, x) + 1e-5

        monkeypatch.setattr(pseudo, "variance_reduction", broken)
        status, reports = cli.verify(seed=0, instances=5, envelope_trials=10)
        assert status == 1
        failed = [r for r in reports if not r.passed]
        assert any(r.name == "variance_reduction_identity" for r in failed)


class TestMainEntry:
    def test_run_and_summarize_subcommands(self, tmp_path, capsys):
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({
            "objective": "griewank",
            "algorithms": ["ucb"],
            "repeats": 1,
            "budget": 2,
            "initial_points": 2,
            "seed": 0,
        }))
        out_dir = tmp_path / "out"
        status = cli.main(["run", "--config", str(config_path), "--out", str(out_dir)])
        assert status == 0
        assert "ucb" in capsys.readouterr().out
        status = cli.main(["summarize", "--out", str(out_dir)])
        assert status == 0

    def test_run_exits_one_when_every_run_fails(self, tmp_path, monkeypatch, capsys):
        def broken(_name):
            def evaluate(x):
                raise RuntimeError("evaluator down")

            return Objective("griewank", unit_symmetric(2), evaluate, optimum_value=0.0)

        monkeypatch.setattr(cli, "make_synthetic", broken)
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({
            "objective": "griewank", "algorithms": ["ucb", "ucb-pp01"], "repeats": 2,
            "budget": 2, "initial_points": 2, "seed": 0,
        }))
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 1
        assert "every run failed" in capsys.readouterr().err
        assert len(json.loads((out_dir / "failures.json").read_text())) == 4
        assert not (out_dir / "summary.csv").exists()

    def test_run_rejects_unknown_config_keys(self, tmp_path):
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({"objective": "dropwave", "budjet": 3, "algorithm": ["ei"]}))
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match="unknown config keys: algorithm, budjet;"):
            cli.main(["run", "--config", str(config_path), "--out", str(out_dir)])
        assert not out_dir.exists()

    @pytest.mark.parametrize("block, message", [
        ({"algorithms": [{"acquisition": "ucb", "tau": 0.01}]},
         r"unknown algorithms\[0\] keys: tau; valid keys: acquisition, name, tau0"),
        ({"objective": "external",
          "external": {"command": "echo 1", "lower": [0], "upper": [1], "timeout": 5}},
         "unknown external keys: timeout; valid keys: command, lower, upper"),
    ], ids=["algorithm", "external"])
    def test_run_rejects_unknown_nested_keys(self, tmp_path, block, message):
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({"budget": 3, "repeats": 1, **block}))
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match=message):
            cli.main(["run", "--config", str(config_path), "--out", str(out_dir)])
        assert not out_dir.exists()

    @pytest.mark.parametrize("block, message", [
        ({"objective": "external", "external": {"command": "echo 1"}},
         "external is missing keys: lower, upper"),
        ({"algorithms": [{"name": "x", "tau0": 0.01}]},
         r"algorithms\[0\] is missing keys: acquisition"),
        ({"algorithms": [{"acquisition": "foo"}]},
         r"algorithms\[0\]: acquisition must be pi, ei or ucb, got 'foo'"),
        ({"algorithms": ["ucb", {"acquisition": "ucb", "tau0": -1}]},
         r"algorithms\[1\]: tau0 must be non-negative and finite, got -1.0"),
        ({"budget": "many"}, "config key 'budget' must be int, got 'many'"),
        ({"objective": "dropwav"},
         "unknown objective 'dropwav'; valid names: dropwave, griewank, hart6, rastrigin, external"),
        ({"objective": "external"}, "external objective requires a command and bounds"),
        ({"standardize": "false"}, "config key 'standardize' must be bool, got 'false'"),
        ({"standardize": 0}, "config key 'standardize' must be bool, got 0"),
        ({"budget": True}, "config key 'budget' must be int, got True"),
        ({"noise_variance": False}, "config key 'noise_variance' must be float, got False"),
        ({"algorithms": [{"acquisition": "ucb", "tau0": True}]},
         r"algorithms\[0\] key 'tau0' must be float, got True"),
    ], ids=["external-bounds", "acquisition-missing", "acquisition-unknown", "tau0-negative",
            "budget-type", "objective-unknown", "external-block-missing", "bool-from-string",
            "bool-from-int", "int-from-bool", "float-from-bool", "algorithm-float-from-bool"])
    def test_run_rejects_malformed_config(self, tmp_path, block, message):
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({"budget": 3, "repeats": 1, **block}))
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match=message):
            cli.main(["run", "--config", str(config_path), "--out", str(out_dir)])
        assert not out_dir.exists()

    def test_run_rejects_unknown_objective_flag(self, tmp_path):
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match="unknown objective 'dropwav'"):
            cli.main(["run", "--objective", "dropwav", "--out", str(out_dir)])
        assert not out_dir.exists()

    def test_json_booleans_accepted(self):
        config = config_from_dict({"standardize": False})
        assert config.standardize is False

    def test_run_summarizes_once(self, tmp_path, monkeypatch, capsys):
        calls = []

        def counted(out_dir):
            calls.append(out_dir)
            return summarize(out_dir)

        monkeypatch.setattr(cli, "summarize", counted)
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({
            "algorithms": ["ucb"], "repeats": 1, "budget": 1, "initial_points": 1,
        }))
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
        assert len(calls) == 1
        assert (out_dir / "summary.csv").exists()
        assert "ucb: simple_regret = " in capsys.readouterr().out

    @pytest.mark.parametrize("raw, echoed", [
        (None, BARE_ECHO),
        (README_DROPWAVE, {
            **BARE_ECHO,
            "objective": "dropwave",
            "algorithms": [
                {"name": "ucb", "acquisition": "ucb", "tau0": 0.0},
                {"name": "ucb-pp01", "acquisition": "ucb", "tau0": 0.01},
                {"name": "ucb-pp001", "acquisition": "ucb", "tau0": 0.001},
                {"name": "ucb-pp0001", "acquisition": "ucb", "tau0": 0.0001},
            ],
            "out_dir": "results/dropwave",
        }),
        (README_EXTERNAL, {
            **BARE_ECHO,
            "objective": "external",
            "noise_variance": 0.0,
            "external": {"command": "python eval.py", "lower": [-1, -1], "upper": [1, 1]},
        }),
    ], ids=["bare", "readme-dropwave", "readme-external"])
    def test_config_echo_is_pinned(self, tmp_path, monkeypatch, raw, echoed):
        def no_run(config, algo, repeat):
            raise RuntimeError("only the echoed config is under test")

        monkeypatch.setattr(cli, "_one_run", no_run)
        monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        argv = ["run"]
        if raw is not None:
            Path("exp.json").write_text(json.dumps(raw))
            argv += ["--config", "exp.json"]
        assert cli.main(argv) == 1
        text = (Path(echoed["out_dir"]) / "config.json").read_text()
        assert text == json.dumps(echoed, indent=2) + "\n"

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "env_out"))
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({
            "objective": "griewank", "algorithms": ["ucb"], "repeats": 1,
            "budget": 1, "initial_points": 1, "seed": 0,
        }))
        assert cli.main(["run", "--config", str(config_path)]) == 0
        assert (tmp_path / "env_out" / "rows.csv").exists()

    def test_list_objectives(self, capsys):
        assert cli.main(["list-objectives"]) == 0
        out = capsys.readouterr().out
        for name in ("dropwave", "griewank", "hart6", "rastrigin"):
            assert name in out

    def test_verify_subcommand(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        status = cli.main([
            "verify", "--seed", "1", "--instances", "5",
            "--report", str(report), "--envelope-trials", "20",
        ])
        assert status == 0
        assert report.exists()
        assert "all checks passed" in capsys.readouterr().out
