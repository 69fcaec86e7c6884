"""What each command imports, and the public names that load on first use.

The footprint and first-use cases run in a fresh interpreter, since this
process has long since loaded every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasifit
from quasifit import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
SRC = str(Path(quasifit.__file__).resolve().parents[1])

# `quasifit.__all__` as it was when `import quasifit` loaded the whole pipeline
PUBLIC = {
    "AlternationReport", "BasisSpec", "Coefficients", "FitResult", "Grid", "LevelProblem", "LinearProgram",
    "LpSolution", "ModelClass", "MonotoneOuter", "SampledFunction", "build_feasibility_lp", "certify_bracket",
    "check_polynomial_optimality", "check_rational_optimality", "compute_defect", "default_initial_coefficients",
    "enumerate_points", "evaluate", "evaluate_model_values", "expected_iterations", "extract_alternations", "fit",
    "parse", "sample", "solve",
}

# ends every fresh-interpreter script: the quasifit modules it loaded, as JSON
_REPORT = "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'quasifit')))"


def _python(code, cwd, *argv):
    env = {k: v for k, v in os.environ.items() if k != "QUASIFIT_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=120)


def _modules_after(code, cwd):
    """The quasifit modules a fresh interpreter has loaded after running `code`."""
    proc = _python(f"import json, sys\n{code}\n{_REPORT}", cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _commands(*argvs):
    """Code that runs each argv through `cli.main`, as the console script does, and fails on a nonzero exit."""
    return f"from quasifit.cli import main\nfor argv in {list(argvs)!r}:\n    assert main(argv) == 0, argv"


def _console_script(cwd, *argv):
    """`quasifit <argv>` as the installed console script runs it, in a fresh interpreter."""
    return _python("import sys\nfrom quasifit.cli import main\nsys.exit(main(sys.argv[1:]))", cwd, *argv)


def test_import_quasifit_loads_no_submodule(tmp_path):
    assert _modules_after("import quasifit", tmp_path) == ["quasifit"]


def test_convexity_commands_load_only_the_convexity_toolkit(tmp_path):
    chain, table = str(CONFIGS / "chain_intervals.txt"), str(CONFIGS / "two_functions.csv")
    code = _commands(["convexity", "check", chain], ["convexity", "hull", chain, "--set", "2,4"],
                     ["convexity", "caratheodory", chain], ["convexity", "extension", table])
    assert _modules_after(code, tmp_path) == ["quasifit", "quasifit.axiomatic", "quasifit.cli"]


def test_fit_and_verify_never_load_the_convexity_toolkit(tmp_path):
    one_d = {
        "variables": ["x"], "target": "x^3",
        "grid": {"lower": -1.0, "upper": 1.0, "step": 0.05},
        "model": {"numerator_basis": ["1", "x"]},
        "output": {"result_path": "line.json", "surface_path": "line.csv"},
    }
    (tmp_path / "line_config.json").write_text(json.dumps(one_d))
    code = _commands(["fit", str(CONFIGS / "benchmark_affine_cubed.json")], ["fit", "line_config.json"],
                     ["verify", "line.json", "--n", "1"])
    loaded = _modules_after(code, tmp_path)
    assert "quasifit.bisection" in loaded and "quasifit.oscillation" in loaded
    assert "quasifit.axiomatic" not in loaded


def test_importing_quasifit_and_a_fine_fit_start_no_thread(tmp_path):
    # on a 201 x 201 grid the surface spans 14 CSV blocks, and the target's powers have 40,401 elements
    config = json.loads((CONFIGS / "benchmark_affine_cubed.json").read_text())
    config["grid"]["step"] = [0.01, 0.01]
    (tmp_path / "fine.json").write_text(json.dumps(config))
    code = """import sys, threading
import quasifit.grid, quasifit.expr
print(threading.active_count())
from quasifit.cli import main
assert main(["fit", "fine.json"]) == 0
print(threading.active_count(), "concurrent.futures" in sys.modules)"""
    proc = _python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "1" and proc.stdout.splitlines()[-1] == "1 False"
    surface = (tmp_path / config["output"]["surface_path"]).read_text()
    assert surface.count("\n") == 1 + 201**2


def test_every_public_name_is_its_defining_modules_own_object():
    assert set(quasifit.__all__) == PUBLIC
    listed = dir(quasifit)
    for name in quasifit.__all__:
        value = getattr(quasifit, name)
        assert value is getattr(sys.modules[value.__module__], name), name
        assert name in listed


def test_submodules_are_attributes_of_the_package():
    import quasifit.simplex

    assert quasifit.simplex is sys.modules["quasifit.simplex"]
    assert "axiomatic" in dir(quasifit)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from quasifit import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == PUBLIC
    assert all(namespace[name] is getattr(quasifit, name) for name in PUBLIC)


@pytest.mark.parametrize("module", [quasifit, cli])
def test_an_unknown_attribute_raises_attribute_error(module):
    with pytest.raises(AttributeError, match=rf"^module '{module.__name__}' has no attribute 'nonesuch'$"):
        module.nonesuch


def test_cli_pipeline_names_resolve_before_any_command(tmp_path):
    code = """
from quasifit import bisection, cli, expr, grid, oscillation
assert cli.fit is bisection.fit and cli.parse is expr.parse
assert cli.sample is grid.sample and cli.write_csv is grid.write_csv
assert cli.extract_alternations is oscillation.extract_alternations
"""
    assert "quasifit.axiomatic" not in _modules_after(code, tmp_path)


def test_cli_fit_set_before_the_first_fit_is_the_one_cmd_fit_calls(tmp_path):
    # assigned without being read first, so cli has not loaded the pipeline yet
    code = f"""
import quasifit.bisection
from quasifit import cli
calls = []
cli.fit = lambda *args, **kwargs: calls.append(args) or quasifit.bisection.fit(*args, **kwargs)
assert cli.main(["fit", {str(CONFIGS / "benchmark_affine_cubed.json")!r}]) == 0
assert len(calls) == 1
"""
    _modules_after(code, tmp_path)


def test_cli_fit_monkeypatched_is_the_one_cmd_fit_calls(tmp_path, monkeypatch):
    calls = []
    fit = cli.fit
    monkeypatch.setattr(cli, "fit", lambda *args, **kwargs: calls.append(args) or fit(*args, **kwargs))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["fit", str(CONFIGS / "benchmark_affine_cubed.json")]) == 0
    assert len(calls) == 1


def _error(proc):
    (line,) = proc.stderr.splitlines()
    return proc.returncode, json.loads(line)["error"]["kind"]


def test_first_command_a_fit_from_an_infeasible_start_exits_3(tmp_path):
    config = {
        "variables": ["x", "y"], "target": "x",
        "grid": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "step": [1.0, 1.0]},
        "model": {"numerator_basis": ["1"], "denominator_basis": ["x*y"],
                  "fixed_coefficient": {"index": 0, "value": 1.0}},
        "output": {"result_path": "r.json"},
    }
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert _error(_console_script(tmp_path, "fit", "c.json")) == (3, "infeasible_start")


def test_first_command_a_target_failing_at_a_grid_point_exits_2(tmp_path):
    config = {
        "variables": ["x"], "target": "1/x",
        "grid": {"lower": -1.0, "upper": 1.0, "step": 0.5},
        "model": {"numerator_basis": ["1"]},
        "output": {"result_path": "r.json"},
    }
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert _error(_console_script(tmp_path, "fit", "c.json")) == (2, "evaluation")


def test_first_command_a_hull_without_a_set_exits_2(tmp_path):
    proc = _console_script(tmp_path, "convexity", "hull", str(CONFIGS / "chain_intervals.txt"))
    assert _error(proc) == (2, "input")
