"""Tests of the benchmark itself: the checks reject wrong outputs, and the
traced call counts reconcile with what the program reports.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the project's own suite; they run
small fits (21 and 25 points) so they take a few seconds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workload  # noqa: E402
from spans import Tracer  # noqa: E402

from quasifit import axiomatic, bisection, cli  # noqa: E402

CHEB = dict(workload.CHEB1D_CONFIG, grid={"lower": [-1.0], "upper": [1.0], "step": [0.1]})
RATIONAL = json.loads((workload.CONFIGS / "benchmark_rational_cubed.json").read_text())
RATIONAL["grid"]["step"] = [0.5, 0.5]
RATIONAL["output"] = {"result_path": "rational_result.json", "surface_path": "rational_surface.csv"}


def run_fit(tmp: Path, config: dict) -> dict:
    (tmp / "config.json").write_text(json.dumps(config))
    with contextlib.chdir(tmp), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["fit", "config.json"]) == 0
    return json.loads((tmp / config["output"]["result_path"]).read_text())


@pytest.fixture(scope="module")
def fits(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fits")
    return tmp, {"cheb": run_fit(tmp, CHEB), "rational": run_fit(tmp, RATIONAL)}


# -- fit checks ------------------------------------------------------------------

@pytest.mark.parametrize("name", ["cheb", "rational"])
def test_fit_check_accepts_program_output(fits, name):
    tmp, results = fits
    config = CHEB if name == "cheb" else RATIONAL
    assert checks.check_fit(config, results[name], tmp / config["output"]["surface_path"]) == []


@pytest.mark.parametrize("name", ["cheb", "rational"])
@pytest.mark.parametrize("damage", ["coefficient", "deviation", "lower", "upper", "iterations", "trace"])
def test_fit_check_rejects_damaged_result(fits, name, damage):
    config = CHEB if name == "cheb" else RATIONAL
    bad = copy.deepcopy(fits[1][name])
    lower, upper = bad["certified_bounds"]
    if damage == "coefficient":
        bad["coefficients"]["numerator"][1] += 1e-3
    elif damage == "deviation":
        bad["achieved_deviation"] *= 1 + 1e-6
    elif damage == "lower":  # claims more than HiGHS can certify
        bad["certified_bounds"][0] = lower + 10 * (upper - lower)
    elif damage == "upper":
        bad["certified_bounds"][1] = lower * 0.9
    elif damage == "iterations":
        bad["iterations"] += 1
    else:
        bad["trace"][3][1] = not bad["trace"][3][1]
    assert checks.check_fit(config, bad)


@pytest.mark.parametrize("name", ["cheb", "rational"])
def test_highs_rejects_a_bracket_only_it_can_refute(fits, name):
    """Worse coefficients with a deviation, trace and bracket made consistent
    with them: only the HiGHS level LP shows that the claimed lower bound is
    not a lower bound."""
    config = CHEB if name == "cheb" else RATIONAL
    bad = copy.deepcopy(fits[1][name])
    bad["coefficients"]["numerator"][0] += 1e-2
    prob = checks.FitProblem(config)
    g, _den = prob.model_values(bad["coefficients"])
    achieved = float(abs(prob.f - g).max())
    assert achieved > bad["certified_bounds"][1] * 1.01
    # bisect towards the worse deviation: a level is feasible once it reaches it
    lo, hi = 0.0, float(abs(prob.f).max())
    for step in bad["trace"]:
        z = 0.5 * (lo + hi)
        step[:] = [z, achieved <= z]
        lo, hi = (lo, z) if achieved <= z else (z, hi)
    bad.update(achieved_deviation=achieved, certified_bounds=[lo, hi])
    problems = checks.check_fit(config, bad)
    assert len(problems) == 1 and "HiGHS finds the level just below lower" in problems[0]


def test_denominator_below_delta_is_rejected(fits):
    bad = copy.deepcopy(fits[1]["rational"])
    bad["coefficients"]["denominator"][1] = 1.0  # 1 + x*y reaches 0 at a corner
    assert any("below delta" in p for p in checks.check_fit(RATIONAL, bad))


def test_surface_with_a_wrong_residual_is_rejected(fits, tmp_path):
    tmp, results = fits
    lines = (tmp / CHEB["output"]["surface_path"]).read_text().splitlines()
    cells = lines[5].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-3)
    lines[5] = ",".join(cells)
    (tmp_path / "surface.csv").write_text("\n".join(lines) + "\n")
    assert checks.check_fit(CHEB, results["cheb"], tmp_path / "surface.csv")


def test_chebyshev_check(fits):
    result = fits[1]["cheb"]
    verify = {"verdict": "optimal", "certificate": {"count": 6}}
    assert checks.check_chebyshev(CHEB, result, verify) == []
    assert checks.check_chebyshev(CHEB, result, {"verdict": "not-certified", "certificate": {"count": 6}})
    assert checks.check_chebyshev(CHEB, result, {"verdict": "optimal", "certificate": {"count": 5}})
    shifted = copy.deepcopy(result)
    shifted["certified_bounds"] = [b + 1e-3 for b in result["certified_bounds"]]
    assert checks.check_chebyshev(CHEB, shifted, verify)


def test_fine_residual_check(fits, tmp_path):
    tmp, results = fits
    result = results["rational"]
    prob = checks.FitProblem(RATIONAL, checks.grid_points(dict(RATIONAL["grid"], step=[0.25, 0.25])))
    g, _ = prob.model_values(result["coefficients"])
    residual = prob.f - g
    rows = ["x1,x2,f"] + [f"{x!r},{y!r},{r!r}" for (x, y), r in zip(prob.points.tolist(), residual.tolist())]
    good = tmp_path / "fine.csv"
    good.write_text("\n".join(rows) + "\n")
    deviation = float(abs(residual).max())
    assert checks.check_fine_residual(RATIONAL, result, good, 0.25, deviation) == []
    assert checks.check_fine_residual(RATIONAL, result, good, 0.25, deviation * 1.01)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows[:-1]) + "\n")  # one point missing
    assert checks.check_fine_residual(RATIONAL, result, bad, 0.25, deviation)


def test_missing_outputs_are_problems_not_skipped_checks(fits, tmp_path):
    tmp, _results = fits
    report = {"outputs": {"configs": {"cheb1d": CHEB, "rational": RATIONAL}}, "digests": {}, "ops": []}
    assert checks.check_workload("fit-benchmarks", report, tmp) == ["verify cheb1d: no output to check"]
    assert checks.check_workload("fit-benchmarks", report, tmp_path) == [
        "fit cheb1d: no result or surface file to check", "fit rational: no result or surface file to check"]


def test_digests_must_repeat():
    assert checks.check_digests({"a": ["x", "x"]}) == []
    assert checks.check_digests({"a": ["x", "y"]})


# -- convexity checks ------------------------------------------------------------

@pytest.fixture(scope="module")
def convexity_outputs():
    """The convexity workload's operations on seed 7, run once."""
    ctx = workload.Context(Path("."), 7)
    for op in workload.setup_convexity_enum(ctx):
        if op.name.startswith(("l_convex_sets k=15", "l_convex_sets k=16", "indicator_lift m=16")):
            continue  # the largest enumerations add seconds and nothing new to check
        op.record(op.fn())
    return ctx.outputs


def test_convexity_check_accepts_program_output(convexity_outputs):
    assert checks.check_convexity(convexity_outputs) == []


def test_convexity_operation_without_output_is_a_problem(convexity_outputs):
    ops = [[f"{kind} {label}", "convexity_s"] for kind, entries in convexity_outputs.items() for label in entries]
    report = {"outputs": convexity_outputs, "digests": {}, "ops": ops}
    assert checks.check_workload("convexity-enum", report, Path(".")) == []
    partial = dict(convexity_outputs)
    del partial["caratheodory_number"]
    problems = checks.check_workload("convexity-enum", dict(report, outputs=partial), Path("."))
    assert "caratheodory_number powerset10: no output to check" in problems


@pytest.mark.parametrize("kind", ["l_convex_sets", "indicator_lift", "convexity_extension"])
def test_family_with_a_member_dropped_is_rejected(convexity_outputs, kind):
    bad = copy.deepcopy(convexity_outputs)
    entry = next(iter(bad[kind].values()))
    entry["family"] = [m for m in entry["family"] if m][1:] + [[]]  # drop one nonempty member
    assert checks.check_convexity(bad)


def test_wrong_verdicts_and_numbers_are_rejected(convexity_outputs):
    for kind, key, value in [("is_convexity_structure", "verdict", False),
                             ("caratheodory_number", "number", 3)]:
        bad = copy.deepcopy(convexity_outputs)
        next(iter(bad[kind].values()))[key] = value
        assert checks.check_convexity(bad)
    bad = copy.deepcopy(convexity_outputs)
    bad["cli"]["hull"] = {"hull": ["2", "4"]}
    assert checks.check_convexity(bad)


def test_independent_enumerations_match_known_answers():
    chain = [sum(1 << x for x in range(i, j + 1)) for i in range(5) for j in range(i, 5)] + [0]
    assert checks.is_closure_space(set(chain), 5)
    assert checks.caratheodory_masks(set(chain), 5) == 2
    assert checks.caratheodory_masks(set(range(1 << 4)), 4) == 1
    # rows (0, 1) and (1, 0): the support sets are {}, {0}, {1} and {0, 1}
    assert checks.l_convex_masks([[0.0, 1.0], [1.0, 0.0]]) == {0, 1, 2, 3}
    assert checks.l_convex_masks([[0.0, 0.0], [1.0, 1.0]]) == {0, 1, 3}


# -- tracing ----------------------------------------------------------------------

def test_traced_solve_calls_equal_bisection_levels(tmp_path):
    for config in (CHEB, RATIONAL):
        tracer = Tracer()
        workload.install_tracing(tracer)
        try:
            result = run_fit(tmp_path, config)
        finally:
            tracer.restore()
        assert tracer.counts["simplex.solve_calls"] == result["iterations"]
        assert tracer.counts["linearize.build_feasibility_lp_calls"] == result["iterations"]
        assert tracer.counts["simplex.pivots"] > 0
        # self times partition the time of the outermost spans
        _total, own = tracer.times()
        roots = sum(end - start for _name, parent, start, end in tracer.spans if parent < 0)
        assert math.isclose(sum(own.values()), roots, rel_tol=1e-9)


def test_tracing_wraps_every_binding_and_restores_it():
    import quasifit

    originals = (bisection.fit, cli.fit, quasifit.fit, axiomatic.support_set)
    tracer = Tracer()
    workload.install_tracing(tracer)
    try:
        assert bisection.fit is cli.fit is quasifit.fit
        assert bisection.fit.__wrapped__ is originals[0]
        assert axiomatic.support_set.__wrapped__ is originals[3]
    finally:
        tracer.restore()
    assert (bisection.fit, cli.fit, quasifit.fit, axiomatic.support_set) == originals


def test_host_speed_scaling_uses_the_kernels_around_each_operation():
    # kernels of 0.033 s (usual speed) until t = 1, then of 0.066 s (half speed)
    runs = [[t, t + 0.033] for t in (0.0, 0.04, 0.08)] + [[t, t + 0.066] for t in (1.2, 1.3, 1.4)]
    # a short operation sees only the kernels next to it
    assert hostspeed.estimate(runs, 0.12, 0.13) == pytest.approx(0.033)
    assert hostspeed.estimate(runs, 1.18, 1.195) == pytest.approx(0.066)
    # a long one sees those within its own length, from both phases
    assert hostspeed.estimate(runs, 0.12, 1.19) == pytest.approx(0.0495)
    rounds = [{"op_t": [[0.12, 0.13], [0.2, 0.3]], "kernels": runs[:3]},
              {"op_t": [[1.18, 1.195], None], "kernels": runs[3:]}]
    hostspeed.scale_rounds(rounds, [True, False])
    # 0.015 s at half speed is 0.0075 s at the usual speed; an unscaled
    # operation keeps its wall time
    assert rounds[0]["op_ref_s"] == [pytest.approx(0.01 * hostspeed.NOMINAL_S / 0.033),
                                     pytest.approx(0.1)]
    assert rounds[1]["op_ref_s"] == [pytest.approx(0.0075 * hostspeed.NOMINAL_S / 0.033), None]
