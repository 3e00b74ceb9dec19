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


def test_one_factorization_path():
    # gp._augmented_factor builds the factor of every model, and the likelihood
    # factorizes its Gram matrix: nothing else calls _chol_with_jitter.
    callers = set()
    for path in sorted(SOURCE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                named = getattr(func, "id", None) or getattr(func, "attr", None)
                if isinstance(node, ast.Call) and named == "_chol_with_jitter":
                    callers.add((path.name, getattr(top, "name", None)))
    assert callers == {("gp.py", "_augmented_factor"), ("gp.py", "_nll_and_grad")}


def dotted(node):
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def test_one_lbfgsb_driver():
    # The fit's searches go through gp.minimize, which drives scipy's L-BFGS-B
    # core: only gp touches the private _lbfgsb module, and no module calls
    # scipy.optimize.minimize.
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [dotted(node) or ""]
            for name in names:
                assert not name.endswith("optimize.minimize"), f"{path.name} calls {name}"
                if "_lbfgsb" in name.split("."):
                    assert path.name == "gp.py", f"{path.name} touches {name}"


def test_one_home_for_lapack():
    # The model path's solves call LAPACK through gp's helpers: only gp
    # imports from scipy.linalg, and no module takes scipy's solve_triangular
    # or cho_solve wrappers.
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [dotted(node) or ""]
            for name in names:
                parts = name.split(".")
                taken = {"solve_triangular", "cho_solve"} & set(parts)
                assert not taken, f"{path.name} takes {name}"
                if parts[:2] == ["scipy", "linalg"]:
                    assert path.name == "gp.py", f"{path.name} imports {name}"


def test_lbfgsb_core_signature():
    # gp.minimize passes setulb's arguments by position, as scipy's own
    # L-BFGS-B loop does since the core was ported to C in scipy 1.15.
    from scipy.optimize import _lbfgsb

    assert _lbfgsb.setulb.__doc__.splitlines()[0] == (
        "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"
    )


# A knob or field joins these only with a shipped caller.
PINNED_FIELDS = {
    "RunConfig": ["budget", "initial_points", "acquisition_kind", "delta", "noise_variance",
                  "pseudo", "seed", "standardize", "unit_amplitude", "fit"],
    "FitConfig": ["n_starts", "fix_amplitude", "lengthscale_bounds", "lengthscale_sample_range"],
    "DirectConfig": ["max_evaluations"],
    "GpModel": ["params", "data", "factor", "weight_vector", "jitter"],
    "PseudoPointSet": ["points", "values", "parent_index", "tau"],
    "PseudoSchedule": ["tau0"],
    # The JSON config's classes, which live in gpbo.cli.
    "ExperimentConfig": ["objective", "algorithms", "repeats", "budget", "initial_points", "seed",
                         "noise_variance", "delta", "standardize", "out_dir", "jobs", "external"],
    "ExternalSpec": ["command", "lower", "upper"],
}


@pytest.mark.parametrize("name", PINNED_FIELDS)
def test_fields_are_pinned(name):
    cls = getattr(gpbo, name, None) or getattr(importlib.import_module("gpbo.cli"), name)
    assert [f.name for f in dataclasses.fields(cls)] == PINNED_FIELDS[name]
