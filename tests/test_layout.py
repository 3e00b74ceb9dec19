"""Package layout: every exported name resolves, and the layers import downward."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import gpbo

MODULES = ("acquisition", "cli", "direct", "engine", "gp", "objectives", "pseudo", "theory")
SOURCE = Path(gpbo.__file__).resolve().parent


def imported_modules(name):
    """Absolute names of the modules a package module imports."""
    found = set()
    for node in ast.walk(ast.parse((SOURCE / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # gpbo is a flat package, so a relative import is relative to gpbo.
            base = node.module if not node.level else ".".join(filter(None, ["gpbo", node.module]))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_package_exports_resolve():
    for name in gpbo.__all__:
        assert hasattr(gpbo, name), name


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"gpbo.{name}")
    for export in module.__all__:
        assert hasattr(module, export), f"gpbo.{name}.{export}"


@pytest.mark.parametrize("name", ["theory", "acquisition"])
def test_no_import_from_engine(name):
    imports = imported_modules(name)
    assert not any(m == "gpbo.engine" or m.startswith("gpbo.engine.") for m in imports), imports


def test_engine_exports_only_the_run_loops():
    assert importlib.import_module("gpbo.engine").__all__ == [
        "RunConfig", "RegretTrace", "run_bo", "run_bopp"
    ]


def test_package_exports_are_pinned():
    # A name joins the public surface only with a shipped caller.
    assert len(gpbo.__all__) == 31
    assert set(gpbo.__all__) == {
        "AcquisitionSpec", "BoxDomain", "Dataset", "DirectConfig", "FitConfig", "GpModel",
        "KernelParams", "NoiseModel", "Objective", "PseudoPointSet", "PseudoSchedule",
        "RegretTrace", "RunConfig", "TheoryParams", "beta_schedule", "ei_value",
        "evaluate_regret_bound", "external_objective", "fit", "generate", "make_synthetic",
        "maximize", "mean_shift", "observe", "pi_value", "posterior", "run_bo", "run_bopp",
        "ucb_value", "unit_symmetric", "variance_reduction",
    }


def test_one_cholesky_path():
    # Every factorization goes through gp._chol_with_jitter: no module takes
    # scipy's Cholesky wrappers, and only gp calls LAPACK dpotrf.
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                taken = {alias.name for alias in node.names}
                assert not taken & {"cholesky", "cho_factor"}, (path.name, node.module)
            named = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and named == "dpotrf":
                assert path.name == "gp.py", f"{path.name} calls dpotrf"


def test_one_block_update():
    # The closed forms take the pseudo-point block from gp's own update, so
    # no module but gp factorizes anything.
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "gp.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            named = getattr(node, "id", None) or getattr(node, "attr", None)
            assert named != "_chol_with_jitter", f"{path.name} factorizes a block itself"


# A knob or field joins these only with a shipped caller.
PINNED_FIELDS = {
    "RunConfig": ["budget", "initial_points", "acquisition_kind", "delta", "noise_variance",
                  "pseudo", "seed", "standardize", "unit_amplitude", "fit", "direct_config"],
    "FitConfig": ["n_starts", "max_iter", "fix_amplitude", "lengthscale_bounds",
                  "lengthscale_sample_range"],
    "DirectConfig": ["max_evaluations"],
    "GpModel": ["params", "data", "factor", "weight_vector", "jitter"],
    "PseudoPointSet": ["points", "values", "parent_index", "tau"],
}


@pytest.mark.parametrize("name", PINNED_FIELDS)
def test_fields_are_pinned(name):
    assert [f.name for f in dataclasses.fields(getattr(gpbo, name))] == PINNED_FIELDS[name]
