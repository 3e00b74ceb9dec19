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
    # scipy's or numpy's Cholesky, and only gp calls LAPACK dpotrf.
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(("scipy", "numpy")):
                taken = {alias.name for alias in node.names}
                assert not taken & {"cholesky", "cho_factor"}, (path.name, node.module)
            if isinstance(node, ast.Attribute):
                assert node.attr not in {"cholesky", "cho_factor"}, f"{path.name} calls {dotted(node)}"
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


def callers_of(name):
    """(module file, top-level definition) of every call to ``name`` in the package."""
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if isinstance(node, ast.Call) and name in {getattr(func, "id", None),
                                                           getattr(func, "attr", None)}:
                    found.add((path.name, getattr(top, "name", None)))
    return found


def test_one_factorization_path():
    # gp._augmented_factor builds the factor of every model, and the likelihood
    # factorizes its Gram matrix: nothing else calls _chol_with_jitter.
    assert callers_of("_chol_with_jitter") == {("gp.py", "_augmented_factor"),
                                               ("gp.py", "_nll_and_grad")}


def test_one_build_per_instance():
    # The identity checks share one build: only theory._instance_reports
    # calls build_instance, and the public checks are views of its reports.
    assert callers_of("build_instance") == {("theory.py", "_instance_reports")}


def test_held_factors_are_not_refactored():
    # The run loop and the verification suite hold the augmented factor and
    # read the closed forms off it through pseudo's core; the public views,
    # which factor again, are for callers that hold none.
    for name in ("engine", "theory"):
        for node in ast.walk(ast.parse((SOURCE / f"{name}.py").read_text())):
            func = getattr(node, "func", None)
            named = getattr(func, "id", None) or getattr(func, "attr", None)
            if isinstance(node, ast.Call):
                assert named not in {"variance_reduction", "mean_shift", "correction_terms"}, (
                    f"{name}.py calls {named}")


def test_one_kernel_and_posterior_arithmetic():
    # kernel_matrix and the prepared posterior share one kernel function;
    # the posterior's solve is the one dtrsm call beside _forward_solve, and
    # the sums over training rows go through gp._column_sums.
    assert callers_of("_kernel") == {("gp.py", "kernel_matrix"), ("gp.py", "_Posterior")}
    assert callers_of("dtrsm") == {("gp.py", "_forward_solve"), ("gp.py", "_Posterior")}
    assert callers_of("_Posterior") == {("gp.py", "predict"), ("engine.py", "run_bopp")}
    # pseudo._p_and_s sums over axis 1 of a 3-D product, which the helper does not cover.
    assert callers_of("cumsum") == {("gp.py", "_column_sums"), ("pseudo.py", "_p_and_s")}


def test_one_libm_route_for_pi_and_ei():
    # pi and ei reach libm's erf and exp only through _cdf and _pdf, on both
    # of AcquisitionSpec.values' paths.  numpy's exp and scipy's erf round
    # differently and would move the pi and ei search trajectories.
    assert callers_of("_cdf") == callers_of("_pdf") == {("acquisition.py", "AcquisitionSpec")}
    assert callers_of("_libm") == {("acquisition.py", "_cdf"), ("acquisition.py", "_pdf")}
    for name in ("erf", "exp", "ndtr"):
        assert not {where for where in callers_of(name) if where[0] == "acquisition.py"}, name


def test_one_fit_preset():
    # run_bopp builds each run's FitConfig from its domain; besides it, only
    # gp.fit's default argument constructs one.
    builders = []
    for path in sorted(SOURCE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            defaults = set()
            if isinstance(top, ast.FunctionDef):
                args = top.args.defaults + [d for d in top.args.kw_defaults if d is not None]
                defaults = {id(node) for arg in args for node in ast.walk(arg)}
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                named = getattr(func, "id", None) or getattr(func, "attr", None)
                if isinstance(node, ast.Call) and named == "FitConfig":
                    where = "default" if id(node) in defaults else "body"
                    builders.append((path.name, getattr(top, "name", None), where))
    assert sorted(builders) == [("engine.py", "run_bopp", "body"), ("gp.py", "fit", "default")]


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
                  "pseudo", "seed", "standardize", "unit_amplitude"],
    "FitConfig": ["n_starts", "fix_amplitude", "lengthscale_bounds"],
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
