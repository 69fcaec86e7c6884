import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import quasifit
from quasifit import cli
from quasifit.expr import parse
from quasifit.grid import Grid, sample
from quasifit.models import BasisSpec, Coefficients, ModelClass, MonotoneOuter, evaluate_model_values


def _write_config(tmp_path, name="config.json", **overrides):
    config = {
        "variables": ["x"],
        "target": "x",
        "grid": {"lower": -1.0, "upper": 1.0, "step": 0.01},
        "model": {"outer": "identity", "numerator_basis": ["1", "x"]},
        "solver": {"epsilon": 1e-6},
        "output": {
            "result_path": str(tmp_path / "result.json"),
            "surface_path": str(tmp_path / "surface.csv"),
        },
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path, config


def test_fit_writes_result_and_surface(tmp_path, capsys):
    path, config = _write_config(tmp_path, target="x^2")
    assert cli.main(["fit", str(path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    result = json.loads((tmp_path / "result.json").read_text())
    # best affine fit of x^2 on [-1, 1] is the constant 1/2, equioscillating
    # at -1, 0, 1 with deviation 1/2
    assert result["achieved_deviation"] == pytest.approx(0.5, abs=1e-3)
    assert summary["achieved_deviation"] == result["achieved_deviation"]
    surface = (tmp_path / "surface.csv").read_text().strip().splitlines()
    assert surface[0] == "x1,f,g,residual"
    assert len(surface) == 1 + 201


def test_fit_result_roundtrip_reproduces_deviation_exactly(tmp_path):
    path, config = _write_config(tmp_path, target="x^3")
    assert cli.main(["fit", str(path)]) == 0
    result = json.loads((tmp_path / "result.json").read_text())
    cfg = result["config"]
    variables = cfg["variables"]
    grid = Grid(
        (float(cfg["grid"]["lower"]),),
        (float(cfg["grid"]["upper"]),),
        (float(cfg["grid"]["step"]),),
    )
    model = ModelClass(
        tuple(variables),
        MonotoneOuter.identity(),
        BasisSpec.from_sources(cfg["model"]["numerator_basis"], variables),
    )
    f = sample(parse(cfg["target"], variables), grid, variables)
    coeffs = Coefficients(tuple(result["coefficients"]["numerator"]))
    g = evaluate_model_values(model, coeffs, f.points)
    assert float(np.max(np.abs(f.values - g))) == result["achieved_deviation"]


def test_fit_deterministic_output_bytes(tmp_path):
    path, _ = _write_config(tmp_path)
    assert cli.main(["fit", str(path)]) == 0
    first = (tmp_path / "result.json").read_bytes()
    assert cli.main(["fit", str(path)]) == 0
    assert (tmp_path / "result.json").read_bytes() == first


def test_fit_config_errors_exit_2(tmp_path):
    missing = tmp_path / "nope.json"
    assert cli.main(["fit", str(missing)]) == 2

    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    assert cli.main(["fit", str(malformed)]) == 2

    bad_expr, _ = _write_config(tmp_path, name="bad.json", target="x +* y")
    assert cli.main(["fit", str(bad_expr)]) == 2

    unknown_var, _ = _write_config(tmp_path, name="unk.json", target="q + 1")
    assert cli.main(["fit", str(unknown_var)]) == 2

    no_output = tmp_path / "noout.json"
    no_output.write_text(json.dumps({
        "variables": ["x"], "target": "x",
        "grid": {"lower": 0.0, "upper": 1.0, "step": 0.5},
        "model": {"numerator_basis": ["1"]},
    }))
    assert cli.main(["fit", str(no_output)]) == 2


def test_fit_oracle_failure_exit_4(tmp_path, monkeypatch, capsys):
    # an oracle that gives up on its LP is a solver failure, not a config error
    import quasifit.bisection
    from quasifit.simplex import LpSolution

    monkeypatch.setattr(quasifit.bisection, "solve", lambda lp, start=None: LpSolution("numerical_failure"))
    path, _ = _write_config(tmp_path, name="fail.json")
    assert cli.main(["fit", str(path)]) == 4
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "solver"
    assert error["message"].startswith("LP oracle failed with status 'numerical_failure'")


def test_fit_out_of_memory_exit_2(tmp_path, monkeypatch, capsys):
    # a grid too large to enumerate; a bare MemoryError has an empty message
    def sample(*args):
        raise MemoryError()

    monkeypatch.setattr(cli, "sample", sample)
    path, _ = _write_config(tmp_path)
    assert cli.main(["fit", str(path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == {"kind": "config", "message": "memory ran out"}
    assert not (tmp_path / "result.json").exists()


def test_fit_infeasible_start_exit_3(tmp_path):
    config = {
        "variables": ["x", "y"],
        "target": "x",
        "grid": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "step": [1.0, 1.0]},
        "model": {
            "outer": "identity",
            "numerator_basis": ["1"],
            "denominator_basis": ["x*y"],
            "fixed_coefficient": {"index": 0, "value": 1.0},
        },
        "output": {"result_path": str(tmp_path / "r.json")},
    }
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(config))
    assert cli.main(["fit", str(path)]) == 3


def _crafted_result(tmp_path, surface_text, result=None):
    (tmp_path / "s.csv").write_text(surface_text)
    path = tmp_path / "r.json"
    path.write_text(json.dumps(result if result is not None else {
        "coefficients": {"numerator": [0.0], "denominator": None},
        "surface_path": "s.csv",
    }))
    return str(path)


_SURFACE = "x1,f,g,residual\n-1.0,1.0,0.0,1.0\n0.0,0.0,0.0,0.0\n1.0,1.0,0.0,1.0\n"
_POLE = {"lower": -1.0, "upper": 1.0, "step": 0.5}  # passes through x = 0
_RATIONAL_POLE = {
    "outer": "identity", "numerator_basis": ["1"],
    "denominator_basis": ["1", "1/x"], "fixed_coefficient": {"index": 0, "value": 1.0},
}


def _non_object_config(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("[1, 2]")
    return ["fit", str(path)]


def _fit_argv(tmp_path, **overrides):
    path, _ = _write_config(tmp_path, **overrides)
    return ["fit", str(path)]


def _verify_fitted(tmp_path, target, model, *degrees):
    """argv of `verify` with `degrees` on a fresh 1-D fit, stored beside result.json, not as it."""
    output = {"result_path": str(tmp_path / "fitted.json"), "surface_path": str(tmp_path / "fitted.csv")}
    path, _ = _write_config(tmp_path, name="fitted_config.json", target=target, model=model,
                            grid={"lower": -1.0, "upper": 1.0, "step": 0.02}, output=output)
    assert cli.main(["fit", str(path)]) == 0
    return ["verify", output["result_path"], *degrees]


_RATIONAL_MODEL = {
    "outer": "odd_power", "power": 3, "numerator_basis": ["1", "x"],
    "denominator_basis": ["1", "x", "x^2"], "fixed_coefficient": {"index": 0, "value": 1.0},
}


_QUARTIC = {"outer": "identity", "numerator_basis": ["1", "x", "x^2", "x^3", "x^4"]}
_EVEN = {"outer": "identity", "numerator_basis": ["1", "x^2"]}  # fits x^4 by x^2 - 1/8, of degree 2


def _missing_dir_output(tmp_path, key):
    output = {"result_path": str(tmp_path / "result.json"), "surface_path": str(tmp_path / "surface.csv")}
    output[key] = str(tmp_path / "missing" / "out")
    return _fit_argv(tmp_path, output=output)


# bad inputs, many of which once ended in a traceback: each exits 2 with its kind
_UNHANDLED_INPUTS = {
    "numerator-pole": ("evaluation", lambda tmp: _fit_argv(
        tmp, grid=_POLE, model={"outer": "identity", "numerator_basis": ["1", "1/x"]})),
    "denominator-pole": ("evaluation", lambda tmp: _fit_argv(tmp, grid=_POLE, model=_RATIONAL_POLE)),
    "negative-epsilon": ("config", lambda tmp: _fit_argv(tmp, solver={"epsilon": -1})),
    "unresolvable-epsilon": ("config", lambda tmp: _fit_argv(
        tmp, target="x^2", grid={"lower": -1.0, "upper": 1.0, "step": 0.5}, solver={"epsilon": 1e-300})),
    # f + z overflows at the first level, z = 8.5e307; a rational model's
    # infinite bound also meets a zero of its free denominator column x
    "level-bounds-overflow": ("config", lambda tmp: _fit_argv(
        tmp, target="1.7e308 * x", grid=_POLE, model={"outer": "identity", "numerator_basis": ["1"]},
        solver={"epsilon": 1e294})),
    "rational-level-bounds-overflow": ("config", lambda tmp: _fit_argv(
        tmp, target="1.7e308 + 0 * x", grid=_POLE, model=dict(_RATIONAL_POLE, denominator_basis=["1", "x"]),
        solver={"epsilon": 1e294})),
    # the fixed denominator term 1e308 * 10x overflows before any level is built
    "fixed-coefficient-overflow": ("config", lambda tmp: _fit_argv(
        tmp, target="x", grid={"lower": 1.0, "upper": 2.0, "step": 0.5}, model=dict(
            _RATIONAL_POLE, denominator_basis=["10*x", "1"], fixed_coefficient={"index": 0, "value": 1e308}))),
    "result-in-missing-dir": ("config", lambda tmp: _missing_dir_output(tmp, "result_path")),
    "surface-in-missing-dir": ("config", lambda tmp: _missing_dir_output(tmp, "surface_path")),
    "surface-without-residual": ("input", lambda tmp: [
        "verify", _crafted_result(tmp, "x1,f,g\n0.0,1.0,1.0\n"), "--n", "0"]),
    "non-numeric-surface-cell": ("input", lambda tmp: [
        "verify", _crafted_result(tmp, _SURFACE.replace("0.0,0.0,0.0,0.0", "0.0,0.0,zero,0.0")), "--n", "0"]),
    "surface-narrower-than-header": ("input", lambda tmp: [
        "verify", _crafted_result(tmp, "x1,f,g,residual\n-1.0,1.0\n1.0,1.0\n"), "--n", "0"]),
    "result-not-an-object": ("input", lambda tmp: [
        "verify", _crafted_result(tmp, _SURFACE, result=[1, 2]), "--n", "0"]),
    "tau-out-of-range": ("input", lambda tmp: [
        "verify", _crafted_result(tmp, _SURFACE), "--n", "0", "--tau", "2"]),
    "header-only-surface": ("input", lambda tmp: [
        "verify", _crafted_result(tmp, "x1,f,g,residual\n"), "--n", "0"]),
    "comment-only-surface": ("input", lambda tmp: [
        "verify", _crafted_result(tmp, "x1,f,g,residual\n# no rows yet\n"), "--n", "0"]),
    "config-not-an-object": ("config", _non_object_config),
    "unknown-outer": ("config", lambda tmp: _fit_argv(
        tmp, model={"outer": "sigmoid", "numerator_basis": ["1"]})),
    "deep-parentheses": ("config", lambda tmp: _fit_argv(tmp, target="(" * 300 + "x" + ")" * 300)),
    "long-unary-minus": ("config", lambda tmp: _fit_argv(tmp, target="-" * 2000 + "x")),
    "long-sum": ("config", lambda tmp: _fit_argv(tmp, target="+".join(["x"] * 3000))),
    "solver-not-an-object": ("config", lambda tmp: _fit_argv(tmp, solver=[1])),
    "output-not-an-object": ("config", lambda tmp: _fit_argv(tmp, output="x.json")),
    "grid-not-an-object": ("config", lambda tmp: _fit_argv(tmp, grid=[-1.0, 1.0, 0.5])),
    "model-not-an-object": ("config", lambda tmp: _fit_argv(tmp, model="identity")),
    "fixed-coefficient-not-an-object": ("config", lambda tmp: _fit_argv(
        tmp, model=dict(_RATIONAL_POLE, denominator_basis=["1", "x^2"], fixed_coefficient=[0, 1.0]))),
    "numerator-basis-string": ("config", lambda tmp: _fit_argv(
        tmp, model={"outer": "identity", "numerator_basis": "1x"})),
    "denominator-basis-string": ("config", lambda tmp: _fit_argv(
        tmp, model=dict(_RATIONAL_POLE, denominator_basis="1x"))),
    "basis-of-numbers": ("config", lambda tmp: _fit_argv(
        tmp, model={"outer": "identity", "numerator_basis": [1, 2]})),
    "target-not-a-string": ("config", lambda tmp: _fit_argv(tmp, target=5)),
    "variables-string": ("config", lambda tmp: _fit_argv(tmp, variables="xy")),
    "variables-with-a-number": ("config", lambda tmp: _fit_argv(tmp, variables=["x", 1])),
    "result-path-not-a-string": ("config", lambda tmp: _fit_argv(
        tmp, output={"result_path": 1, "surface_path": str(tmp / "surface.csv")})),
    "fractional-power": ("config", lambda tmp: _fit_argv(
        tmp, model={"outer": "odd_power", "power": 3.7, "numerator_basis": ["1", "x"]})),
    "fractional-index": ("config", lambda tmp: _fit_argv(tmp, model=dict(
        _RATIONAL_POLE, denominator_basis=["1", "x^2"], fixed_coefficient={"index": 0.9, "value": 1.0}))),
    "string-grid-bound": ("config", lambda tmp: _fit_argv(tmp, grid={"lower": "-1", "upper": 1.0, "step": 0.5})),
    "grid-bound-of-wrong-length": ("config", lambda tmp: _fit_argv(
        tmp, grid={"lower": -1.0, "upper": 1.0, "step": [0.5, 0.5]})),
    "string-epsilon": ("config", lambda tmp: _fit_argv(tmp, solver={"epsilon": "1e-6"})),
    # both names would bind the second coordinate, so f = x would read 10 at x1 = 0
    "repeated-variable": ("config", lambda tmp: _fit_argv(
        tmp, variables=["x", "x"], grid={"lower": [0.0, 10.0], "upper": [1.0, 11.0], "step": 1.0})),
    "grid-count-overflows": ("config", lambda tmp: _fit_argv(tmp, grid={"lower": 0, "upper": 1e300, "step": 1e-300})),
    "infinite-grid-bound": ("config", lambda tmp: _fit_argv(
        tmp, grid={"lower": 0, "upper": float("inf"), "step": 0.5})),
    "coefficients-not-an-object": ("input", lambda tmp: [
        "verify", _crafted_result(tmp, _SURFACE, result={"coefficients": [1.0], "surface_path": "s.csv"}),
        "--n", "0", "--m", "1"]),
    # degrees below the fit's effective degrees (1, 2) and 3: no count of alternations certifies them
    "numerator-degree-above-n": ("input", lambda tmp: _verify_fitted(
        tmp, "x^3/(2-x)", _RATIONAL_MODEL, "--n", "0", "--m", "1")),
    "rational-fit-without-m": ("input", lambda tmp: _verify_fitted(tmp, "x^3/(2-x)", _RATIONAL_MODEL, "--n", "1")),
    "polynomial-degree-above-n": ("input", lambda tmp: _verify_fitted(tmp, "x^5", _QUARTIC, "--n", "1")),
    "even-basis-degree-above-n": ("input", lambda tmp: _verify_fitted(tmp, "x^4", _EVEN, "--n", "1")),
    "basis-entry-not-a-monomial": ("input", lambda tmp: _verify_fitted(
        tmp, "x^4", {"outer": "identity", "numerator_basis": ["1", "x*x"]}, "--n", "2")),
}


@pytest.mark.parametrize("kind, make_argv", _UNHANDLED_INPUTS.values(), ids=_UNHANDLED_INPUTS)
def test_failure_exits_2_with_one_json_error_line(tmp_path, capsys, kind, make_argv):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["kind"] == kind
    # no result is left behind, in particular none naming a surface that was never written
    assert not (tmp_path / "result.json").exists()


def _run_entry_point(argv):
    src = str(Path(quasifit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "QUASIFIT_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "quasifit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_entry_point_reports_failure_without_traceback(tmp_path):
    proc = _run_entry_point(_UNHANDLED_INPUTS["numerator-pole"][1](tmp_path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["kind"] == "evaluation"
    assert error["message"].endswith("at point (0.0,)")


# run as a program, so that a library warning on stderr shows too; the
# message names the file or the key at fault
_ENTRY_POINT_MESSAGES = {
    "header-only-surface": "cannot read surface {tmp}/s.csv: no data rows",
    "comment-only-surface": "cannot read surface {tmp}/s.csv: no data rows",
    "config-not-an-object": "config {tmp}/c.json is not a JSON object",
    "unknown-outer": "unknown outer kind 'sigmoid'",
    "deep-parentheses": "expression error: expression is nested too deeply (at offset 100)",
    "long-unary-minus": "expression error: expression is nested too deeply (at offset 100)",
    "long-sum": "expression error: expression is nested too deeply (at offset 201)",
    "solver-not-an-object": "solver must be a JSON object",
    "output-not-an-object": "output must be a JSON object",
    "grid-not-an-object": "grid must be a JSON object",
    "model-not-an-object": "model must be a JSON object",
    "fixed-coefficient-not-an-object": "fixed_coefficient must be a JSON object",
    "numerator-basis-string": "numerator_basis must be a JSON list of strings",
    "denominator-basis-string": "denominator_basis must be a JSON list of strings",
    "basis-of-numbers": "numerator_basis must be a JSON list of strings",
    "target-not-a-string": "target must be a JSON string",
    "variables-string": "variables must be a JSON list of strings",
    "variables-with-a-number": "variables must be a JSON list of strings",
    "result-path-not-a-string": "result_path must be a JSON string",
    "fractional-power": "power must be an integral JSON number",
    "fractional-index": "index must be an integral JSON number",
    "string-grid-bound": "lower must be a JSON number or a JSON list of numbers",
    "grid-bound-of-wrong-length": "step must have one entry per variable: 1, not 2",
    "string-epsilon": "epsilon must be a JSON number",
    "repeated-variable": "variable names must be distinct, got ['x', 'x']",
    "grid-count-overflows": "axis 1: (upper - lower) / step = (1e+300 - 0.0) / 1e-300 is not finite",
    "infinite-grid-bound": "axis 1: lower 0.0, upper inf and step 0.5 must be finite",
    "unresolvable-epsilon":
        "epsilon 1e-300 is below 2 ulp of max|f| = 1.0, finer than a bisection in doubles can go",
    "level-bounds-overflow": "the bounds of level z=8.5e+307 are not finite",
    "rational-level-bounds-overflow": "the bounds of level z=8.5e+307 are not finite",
    "fixed-coefficient-overflow": "fixed_coefficient value 1e+308 makes the denominator non-finite at point (1.0,)",
    "coefficients-not-an-object": "coefficients must be a JSON object",
    "numerator-degree-above-n": "actual numerator degree 1 exceeds nominal 0",
    "rational-fit-without-m": "actual denominator degree 2 exceeds nominal 0",
    "polynomial-degree-above-n": "actual numerator degree 3 exceeds nominal 1",
    "even-basis-degree-above-n": "actual numerator degree 2 exceeds nominal 1",
    "basis-entry-not-a-monomial": "numerator_basis entry 'x*x' is not 1, x or x^k; verify needs its degree",
}


@pytest.mark.parametrize("case, message", _ENTRY_POINT_MESSAGES.items(), ids=_ENTRY_POINT_MESSAGES)
def test_entry_point_writes_one_json_error_line(tmp_path, case, message):
    kind, make_argv = _UNHANDLED_INPUTS[case]
    proc = _run_entry_point(make_argv(tmp_path))
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"] == {"kind": kind, "message": message.format(tmp=tmp_path)}


def test_integral_float_power_fits_as_its_integer(tmp_path, capsys):
    outputs = []
    for power in (3, 3.0):
        path, _ = _write_config(tmp_path, target="x^3", model={
            "outer": "odd_power", "power": power, "numerator_basis": ["1", "x"]})
        assert cli.main(["fit", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_verify_rational_degrees_on_an_affine_result(tmp_path, capsys):
    # an affine fit stores "denominator": null, which reads as absent
    path, _ = _write_config(tmp_path, target="x^2")
    assert cli.main(["fit", str(path)]) == 0
    assert json.loads((tmp_path / "result.json").read_text())["coefficients"]["denominator"] is None
    capsys.readouterr()
    assert cli.main(["verify", str(tmp_path / "result.json"), "--n", "1", "--m", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["required_count"] == 1 + 1 + 2 - report["defect"]
    assert report["verdict"] == "optimal"


def test_readme_config_example_builds(tmp_path):
    # the config shown in the README is read by the same code as any other
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    model, _target, grid = cli._build_model(example)
    assert model.variables == tuple(example["variables"])
    assert model.outer.power == example["model"]["power"]
    assert model.fixed_coefficient == (0, 1.0)
    assert grid.cardinality() == 21 * 21


def _without(config, *path):
    """A copy of the config without the key at the end of `path`."""
    config = json.loads(json.dumps(config))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return config


@pytest.mark.parametrize("path", [
    ("variables",), ("target",), ("grid",), ("model",), ("grid", "lower"), ("grid", "step"),
    ("model", "numerator_basis"), ("output",), ("output", "result_path"),
    ("model", "fixed_coefficient", "index"), ("model", "fixed_coefficient", "value"),
], ids=".".join)
def test_missing_config_key_is_named(tmp_path, capsys, path):
    _, config = _write_config(tmp_path, model=_RATIONAL_MODEL)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_without(config, *path)))
    assert cli.main(["fit", str(bad)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == {"kind": "config", "message": f"missing config key: {path[-1]!r}"}


@pytest.mark.parametrize("model, uses", [
    ({"outer": "identity", "numerator_basis": ["1", "x"]}, {"numerator_basis": 2}),
    (_RATIONAL_MODEL, {"numerator_basis": 2, "denominator_basis": 3}),
], ids=["affine", "rational"])
def test_fit_command_evaluates_the_bases_once_per_use(tmp_path, monkeypatch, model, uses):
    # the numerator in the level problem and the final values; the denominator
    # also in the default start; the target once; u0 = max|f| needs none, and
    # the surface no second evaluation
    import quasifit.grid

    counted = Counter()
    original = quasifit.grid.evaluate_columns

    def counting(fs, *args):
        counted.update(fs)
        return original(fs, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("quasifit") and getattr(module, "evaluate_columns", None) is original:
            monkeypatch.setattr(module, "evaluate_columns", counting)
    path, _ = _write_config(tmp_path, target="x^3/(2-x)", model=model)
    assert cli.main(["fit", str(path)]) == 0
    expected = Counter({parse("x^3/(2-x)", ["x"]): 1})
    for key, count in uses.items():
        for source in model[key]:
            expected[parse(source, ["x"])] += count
    assert counted == expected


def test_convexity_check_tests_closure_once(tmp_path, monkeypatch, capsys):
    from quasifit import axiomatic

    family = tmp_path / "f.txt"
    family.write_text("ground: a,b\n{}\na\na,b\n")
    calls = []
    original = axiomatic.is_closure_space
    monkeypatch.setattr(axiomatic, "is_closure_space", lambda fam: calls.append(fam) or original(fam))
    assert cli.main(["convexity", "check", str(family)]) == 0
    assert json.loads(capsys.readouterr().out) == {"closure_space": True, "convexity_structure": True}
    assert len(calls) == 1


def test_verify_degree_zero_fit_of_identity(tmp_path, capsys):
    # constant fit of x alternates at the two endpoints: count 2 = n + 2
    cfg_path, _ = _write_config(tmp_path, target="x", name="deg0.json",
                                model={"outer": "identity", "numerator_basis": ["1"]})
    assert cli.main(["fit", str(cfg_path)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", str(tmp_path / "result.json"), "--n", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["certificate"]["count"] >= 2
    assert report["verdict"] == "optimal"


def test_verify_under_converged_not_certified(tmp_path, capsys):
    cfg_path, _ = _write_config(
        tmp_path, target="x", name="loose.json",
        model={"outer": "identity", "numerator_basis": ["1"]},
        solver={"epsilon": 0.5},
    )
    assert cli.main(["fit", str(cfg_path)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", str(tmp_path / "result.json"), "--n", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "not-certified"


@pytest.mark.parametrize("basis", [["1", "x^2"], [" x ^ 2 ", "1"]])
def test_verify_reads_degrees_from_the_basis_entries(tmp_path, capsys, basis):
    # x^2 - 1/8 equioscillates at five points; as a degree-2 fit it needs n + 2 = 4 of them
    argv = _verify_fitted(tmp_path, "x^4", dict(_EVEN, numerator_basis=basis), "--n", "2")
    capsys.readouterr()
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["required_count"], report["verdict"]) == (4, "optimal")


def test_verify_rational_defect_route(tmp_path, capsys):
    config = {
        "variables": ["x"],
        "target": "x^2",
        "grid": {"lower": -1.0, "upper": 1.0, "step": 0.02},
        "model": {
            "outer": "identity",
            "numerator_basis": ["1", "x"],
            "denominator_basis": ["1", "x"],
            "fixed_coefficient": {"index": 0, "value": 1.0},
        },
        "solver": {"epsilon": 1e-6},
        "output": {
            "result_path": str(tmp_path / "rat.json"),
            "surface_path": str(tmp_path / "rat.csv"),
        },
    }
    path = tmp_path / "rat_config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["fit", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", str(tmp_path / "rat.json"), "--n", "1", "--m", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["defect"] in (0, 1)
    assert report["required_count"] == 1 + 1 + 2 - report["defect"]
    assert report["verdict"] in ("optimal", "not-certified")


def test_verify_rejects_multivariate(tmp_path):
    config = {
        "variables": ["x", "y"],
        "target": "x + y",
        "grid": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "step": [0.5, 0.5]},
        "model": {"outer": "identity", "numerator_basis": ["1", "x", "y"]},
        "output": {
            "result_path": str(tmp_path / "r2.json"),
            "surface_path": str(tmp_path / "s2.csv"),
        },
    }
    path = tmp_path / "mv.json"
    path.write_text(json.dumps(config))
    assert cli.main(["fit", str(path)]) == 0
    assert cli.main(["verify", str(tmp_path / "r2.json"), "--n", "1"]) == 2


def test_fit_full_benchmark_config(tmp_path, capsys):
    # the 441-point quartic benchmark end to end through the CLI
    config = {
        "variables": ["x", "y"],
        "target": "(-x + y^3 + x^4)^4",
        "grid": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "step": [0.1, 0.1]},
        "model": {
            "outer": "odd_power",
            "power": 3,
            "numerator_basis": ["1", "x", "y", "x^2", "y^2", "x*y"],
        },
        "solver": {"epsilon": 1e-6},
        "output": {"result_path": str(tmp_path / "bench.json")},
    }
    path = tmp_path / "bench_config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["fit", str(path)]) == 0
    result = json.loads((tmp_path / "bench.json").read_text())
    assert result["achieved_deviation"] == pytest.approx(8.01, abs=0.02)
    assert len(result["coefficients"]["numerator"]) == 6
    assert result["coefficients"]["denominator"] is None


def test_verify_degree_one_from_crafted_surface(tmp_path, capsys):
    # residuals of the best degree-1 fit to |x|: the constant 1/2, peaking
    # with signs +,-,+ at -1, 0, 1; verify must certify optimality
    xs = np.linspace(-1.0, 1.0, 201)
    residual = np.abs(xs) - 0.5
    lines = ["x1,f,g,residual"]
    for x, r in zip(xs, residual):
        lines.append(f"{float(x)!r},{float(abs(x))!r},0.5,{float(r)!r}")
    surface = tmp_path / "abs_surface.csv"
    surface.write_text("\n".join(lines) + "\n")
    result = tmp_path / "abs_result.json"
    result.write_text(json.dumps({
        "coefficients": {"numerator": [0.5, 0.0], "denominator": None},
        "achieved_deviation": 0.5,
        "surface_path": str(surface),
    }))
    assert cli.main(["verify", str(result), "--n", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["certificate"]["count"] == 3
    # the rational rule at m = 0 with effective degree 0: n + 2, and no defect reported
    assert (report["required_count"], report["defect"]) == (3, None)
    assert report["verdict"] == "optimal"


def _fit_with_relative_outputs(directory, result_path, surface_path):
    config = {
        "variables": ["x"],
        "target": "x^2",
        "grid": {"lower": -1.0, "upper": 1.0, "step": 0.05},
        "model": {"outer": "identity", "numerator_basis": ["1"]},
        "output": {"result_path": result_path, "surface_path": surface_path},
    }
    (directory / "c.json").write_text(json.dumps(config))
    assert cli.main(["fit", "c.json"]) == 0


def test_verify_finds_surface_from_another_directory(tmp_path, monkeypatch, capsys):
    # fit in a/ with both outputs there, then verify a/r.json from the parent
    (tmp_path / "a").mkdir()
    monkeypatch.chdir(tmp_path / "a")
    _fit_with_relative_outputs(tmp_path / "a", "r.json", "s.csv")
    assert json.loads((tmp_path / "a" / "r.json").read_text())["surface_path"] == "s.csv"
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert cli.main(["verify", "a/r.json", "--n", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "optimal"


def test_verify_finds_surface_written_to_a_subdirectory(tmp_path, monkeypatch, capsys):
    # both outputs under out/: the result stores the surface relative to itself
    (tmp_path / "out").mkdir()
    monkeypatch.chdir(tmp_path)
    _fit_with_relative_outputs(tmp_path, "out/r.json", "out/s.csv")
    result = json.loads((tmp_path / "out" / "r.json").read_text())
    assert result["surface_path"] == "s.csv"
    assert result["config"]["output"]["surface_path"] == "out/s.csv"
    capsys.readouterr()
    assert cli.main(["verify", "out/r.json", "--n", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "optimal"
    monkeypatch.chdir(tmp_path / "out")
    assert cli.main(["verify", "r.json", "--n", "0"]) == 0


def test_convexity_check_power_set(tmp_path, capsys):
    family = tmp_path / "power.txt"
    members = ["{}"]
    from itertools import combinations
    for k in range(1, 4):
        members += [",".join(c) for c in combinations("abc", k)]
    family.write_text("ground: a,b,c\n" + "\n".join(members) + "\n")
    assert cli.main(["convexity", "check", str(family)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "closure_space": True,
        "convexity_structure": True,
    }


def test_convexity_check_and_hull_and_caratheodory(tmp_path, capsys):
    family = tmp_path / "intervals.txt"
    lines = ["ground: 1,2,3,4,5", "{}"]
    for i in range(5):
        for j in range(i, 5):
            lines.append(",".join(str(k + 1) for k in range(i, j + 1)))
    family.write_text("\n".join(lines) + "\n")

    assert cli.main(["convexity", "check", str(family)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"closure_space": True, "convexity_structure": True}

    assert cli.main(["convexity", "hull", str(family), "--set", "1,3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"hull": ["1", "2", "3"]}

    assert cli.main(["convexity", "caratheodory", str(family)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"caratheodory_number": 2}


def test_convexity_extension_from_table(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text("p,q\n0.0,1.0\n1.0,0.0\n")
    assert cli.main(["convexity", "extension", str(table)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ground"] == ["l0", "l1"]
    assert [] in out["members"]
    assert ["l0", "l1"] in out["members"]


def test_convexity_malformed_input_exit_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("ground: a\nq\n")
    assert cli.main(["convexity", "check", str(bad)]) == 2


def test_convexity_takes_exactly_one_file(tmp_path):
    family = tmp_path / "f.txt"
    family.write_text("ground: a\n{}\na\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["convexity", "check", str(family), str(family)])
    assert exc.value.code == 2


def test_main_reuses_one_parser_across_calls(tmp_path):
    # a parse error must leave the shared parser usable for the next call
    family = tmp_path / "f.txt"
    family.write_text("ground: a\n{}\na\n")
    parser = cli.build_parser()
    with pytest.raises(SystemExit):
        cli.main(["convexity", "check", str(family), str(family)])
    assert cli.main(["convexity", "check", str(family)]) == 0
    assert cli.build_parser() is parser


def test_convexity_hull_requires_set(tmp_path):
    family = tmp_path / "f.txt"
    family.write_text("ground: a\n{}\na\n")
    assert cli.main(["convexity", "hull", str(family)]) == 2


def test_log_env_var_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QUASIFIT_LOG", "INFO")
    family = tmp_path / "f.txt"
    family.write_text("ground: a\n{}\na\n")
    assert cli.main(["convexity", "check", str(family)]) == 0
    assert json.loads(capsys.readouterr().out)["closure_space"] is True
