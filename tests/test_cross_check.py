"""Optional cross-validation of the simplex against an external LP solver.

scipy comes with the `test` extra and is skipped when absent; it is not a
runtime dependency.  The external path (HiGHS) is a fully independent
implementation, so agreement here complements the vertex-enumeration oracle
used elsewhere.
"""

import json
from pathlib import Path

import numpy as np
import pytest

scipy_opt = pytest.importorskip("scipy.optimize")

from quasifit.bisection import fit
from quasifit.cli import _build_model
from quasifit.expr import parse
from quasifit.grid import Grid, sample
from quasifit.linearize import LevelProblem, LinearProgram, build_feasibility_lp
from quasifit.models import BasisSpec, ModelClass, MonotoneOuter
from quasifit.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve

from test_simplex import random_bounded_instance

XY = ("x", "y")


def _highs(lp: LinearProgram):
    return scipy_opt.linprog(
        lp.objective,
        A_ub=lp.rows,
        b_ub=lp.rhs,
        bounds=[(None, None)] * lp.variable_count,
        method="highs",
    )


def test_random_instances_match_highs():
    rng = np.random.default_rng(314159)
    for _ in range(80):
        c, rows, rhs = random_bounded_instance(rng)
        names = tuple(f"v{i}" for i in range(len(c)))
        lp = LinearProgram(c, rows, rhs, names)
        ours = solve(lp)
        ref = _highs(lp)
        if ref.status == 2:
            assert ours.status == INFEASIBLE
        elif ref.status == 3:
            assert ours.status == UNBOUNDED
        else:
            assert ref.status == 0
            assert ours.status == OPTIMAL
            assert ours.objective == pytest.approx(ref.fun, abs=1e-8)


def test_adversarial_instances_match_highs():
    # integer data without boxes: plenty of degeneracy, duplicate rows, free
    # rays and empty polytopes
    rng = np.random.default_rng(987654321)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        G = rng.integers(-2, 3, size=(m, n)).astype(float)
        h = rng.integers(-2, 3, size=m).astype(float)
        c = rng.integers(-2, 3, size=n).astype(float)
        lp = LinearProgram(c, G, h, tuple(f"v{i}" for i in range(n)))
        ours = solve(lp)
        ref = scipy_opt.linprog(
            c, A_ub=G, b_ub=h, bounds=[(None, None)] * n, method="highs"
        )
        if ref.status == 2:
            # presolve may fold "unbounded" into this status; disambiguate
            ref = scipy_opt.linprog(
                c, A_ub=G, b_ub=h, bounds=[(None, None)] * n,
                method="highs", options={"presolve": False},
            )
        if ref.status == 2:
            assert ours.status == INFEASIBLE
        elif ref.status == 3:
            assert ours.status == UNBOUNDED
        elif ref.status == 0:
            assert ours.status == OPTIMAL
            assert ours.objective == pytest.approx(ref.fun, abs=1e-7)


def test_rational_benchmark_oracle_levels_match_highs():
    # probe the oracle around the certified optimum of the rational-composed
    # benchmark; verdict signs must agree with the independent solver
    grid = Grid((-1.0, -1.0), (1.0, 1.0), (0.1, 0.1))
    f = sample(parse("(-x + y^3 + x^4)^4", list(XY)), grid, XY)
    model = ModelClass(
        XY,
        MonotoneOuter.odd_power(3),
        BasisSpec.from_sources(["1", "x", "y", "x^2", "y^2"], XY),
        BasisSpec.from_sources(["1", "x*y"], XY),
        (0, 1.0),
        1e-4,
    )
    problem = LevelProblem(model, f)
    for z in (6.0297, 6.0299, 11.48):
        lp = build_feasibility_lp(problem, z)
        ours = solve(lp)
        ref = _highs(lp)
        assert ours.status == OPTIMAL and ref.status == 0
        assert ours.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-10)
        assert (ours.objective <= 0.0) == (ref.fun <= 0.0)


@pytest.mark.parametrize("name", ["benchmark_affine_cubed", "benchmark_rational_cubed"])
def test_benchmark_trace_verdicts_match_highs(name):
    # every bisection level of a committed benchmark fit: the verdict must
    # agree in sign with the independent solver on the same level LP
    config = json.loads((Path(__file__).parent.parent / "configs" / f"{name}.json").read_text())
    model, target, grid = _build_model(config)
    f = sample(target, grid, model.variables)
    res = fit(model, f, epsilon=config["solver"]["epsilon"])
    assert len(res.trace) == res.iterations > 0
    problem = LevelProblem(model, f)
    for t in res.trace:
        lp = build_feasibility_lp(problem, t.z)
        ref = scipy_opt.linprog(
            lp.objective, A_ub=lp.rows, b_ub=lp.rhs,
            bounds=[(None, None)] * (lp.variable_count - 1) + [(-1.0, None)],
            method="highs",
            options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
        )
        assert ref.status == 0
        assert t.feasible == (ref.fun <= 0.0), t.z
