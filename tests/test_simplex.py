import json
import tracemalloc
from itertools import combinations, count
from pathlib import Path

import numpy as np
import pytest

from quasifit import cli, simplex
from quasifit.grid import sample
from quasifit.linearize import LevelProblem, LinearProgram, build_feasibility_lp
from quasifit.simplex import INFEASIBLE, NUMERICAL_FAILURE, OPTIMAL, UNBOUNDED, solve


def _lp(c, rows, rhs):
    c = np.asarray(c, dtype=float)
    names = tuple(f"v{i + 1}" for i in range(c.shape[0]))
    return LinearProgram(c, np.asarray(rows, dtype=float), np.asarray(rhs, dtype=float), names)


def brute_force_minimum(c, rows, rhs, tol=1e-9):
    """Vertex enumeration oracle: solve every square row subsystem, keep
    feasible vertices, return the best objective (None when no vertex is
    feasible, which for bounded instances means infeasible)."""
    G = np.asarray(rows, dtype=float)
    h = np.asarray(rhs, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = G.shape
    best = None
    vertices = []
    for idx in combinations(range(m), n):
        A = G[list(idx)]
        b = h[list(idx)]
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)) or not np.allclose(A @ x, b, atol=1e-7):
            continue
        if np.all(G @ x <= h + tol * (1.0 + np.abs(h))):
            vertices.append(x)
            val = float(c @ x)
            if best is None or val < best:
                best = val
    return best, vertices


def random_bounded_instance(rng):
    n = int(rng.integers(1, 5))
    rows, rhs = [], []
    lo = rng.uniform(-2.0, -0.1, n)
    hi = rng.uniform(0.1, 2.0, n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append(e.copy())
        rhs.append(hi[i])
        rows.append(-e)
        rhs.append(-lo[i])
    for _ in range(int(rng.integers(0, max(0, 8 - 2 * n) + 1))):
        rows.append(rng.uniform(-1.0, 1.0, n))
        rhs.append(float(rng.uniform(-0.5, 1.5)))
    c = rng.uniform(-1.0, 1.0, n)
    return c, np.array(rows), np.array(rhs)


def test_box_maximum():
    sol = solve(_lp([-1.0], [[1.0], [-1.0]], [1.0, 0.0]))
    assert sol.status == OPTIMAL
    assert sol.solution[0] == pytest.approx(1.0)
    assert sol.objective == pytest.approx(-1.0)


def test_single_binding_row():
    sol = solve(_lp([1.0], [[-1.0]], [-2.0]))
    assert sol.status == OPTIMAL
    assert sol.solution[0] == pytest.approx(2.0)
    assert sol.objective == pytest.approx(2.0)


def test_unbounded_ray():
    # v >= 0 with no upper bound: pushing v up is unbounded
    sol = solve(_lp([-1.0], [[-1.0]], [0.0]))
    assert sol.status == UNBOUNDED


def test_infeasible_pair():
    sol = solve(_lp([1.0], [[1.0], [-1.0]], [0.0, -1.0]))
    assert sol.status == INFEASIBLE


def test_free_variables_can_go_negative():
    sol = solve(_lp([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [5.0, 5.0, 4.0]))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-4.0)


def test_no_rows_zero_objective():
    sol = solve(_lp([0.0, 0.0], np.zeros((0, 2)), np.zeros(0)))
    assert sol.status == OPTIMAL
    assert sol.objective == 0.0


def test_no_rows_nonzero_objective_unbounded():
    sol = solve(_lp([1.0], np.zeros((0, 1)), np.zeros(0)))
    assert sol.status == UNBOUNDED


def test_degenerate_vertex():
    # three rows through the same point; min -x - y over the unit triangle
    sol = solve(
        _lp(
            [-1.0, -1.0],
            [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            [1.0, 1.0, 1.0, 0.0, 0.0],
        )
    )
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-1.0)


def test_duplicate_binding_rows_leave_redundant_artificial():
    # both rows need artificials; after phase one the second row is linearly
    # dependent and must be dropped rather than poison phase two
    sol = solve(_lp([1.0], [[-1.0], [-1.0]], [-1.0, -1.0]))
    assert sol.status == OPTIMAL
    assert sol.solution[0] == pytest.approx(1.0)
    assert sol.objective == pytest.approx(1.0)


def test_dependent_equality_like_pair():
    # x <= 2 and -x <= -2 pin x = 2 exactly
    sol = solve(_lp([-3.0], [[1.0], [-1.0]], [2.0, -2.0]))
    assert sol.status == OPTIMAL
    assert sol.solution[0] == pytest.approx(2.0)
    assert sol.objective == pytest.approx(-6.0)


def test_iteration_cap_reports_numerical_failure():
    lp = _lp([-1.0, -1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    status, _ = simplex._solve_dual(lp.rows, lp.rhs, lp.objective, 1)
    assert status == NUMERICAL_FAILURE


def test_matches_brute_force_on_random_bounded_instances():
    rng = np.random.default_rng(2024)
    checked = 0
    statuses = set()
    while checked < 60:
        c, rows, rhs = random_bounded_instance(rng)
        expected, vertices = brute_force_minimum(c, rows, rhs)
        sol = solve(_lp(c, rows, rhs))
        statuses.add(sol.status)
        if expected is None:
            assert sol.status == INFEASIBLE
        else:
            assert sol.status == OPTIMAL
            assert sol.objective == pytest.approx(expected, abs=1e-8)
            # weak duality spot check against every enumerated feasible vertex
            for v in vertices:
                assert float(c @ v) >= sol.objective - 1e-8
        checked += 1
    assert OPTIMAL in statuses


def test_optimal_solutions_satisfy_rows_within_tolerance():
    rng = np.random.default_rng(7)
    for _ in range(40):
        c, rows, rhs = random_bounded_instance(rng)
        sol = solve(_lp(c, rows, rhs))
        if sol.status != OPTIMAL:
            continue
        slack = rows @ sol.solution - rhs
        assert np.all(slack <= 1e-9 * (1.0 + np.abs(rhs)))
        assert sol.objective == pytest.approx(float(c @ sol.solution), rel=1e-9, abs=1e-12)


def test_deterministic_resolve():
    rng = np.random.default_rng(99)
    c, rows, rhs = random_bounded_instance(rng)
    lp = _lp(c, rows, rhs)
    a = solve(lp)
    b = solve(lp)
    assert a.status == b.status
    assert a.iterations == b.iterations
    if a.status == OPTIMAL:
        assert np.array_equal(a.solution, b.solution)


def test_duplicated_column_leaves_redundant_dual_row():
    # v2 repeats v1, so the dual equations G^T y = -c repeat one row; the
    # redundant row is dropped and v1 + v2 still reaches its bound
    sol = solve(_lp([-1.0, -1.0], [[1.0, 1.0], [-1.0, -1.0]], [2.0, 1.0]))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-2.0)
    assert sol.solution.sum() == pytest.approx(2.0)
    # the optimal basis is one row short, so it is not offered as a start
    assert sol.basis is None


def test_zero_column_with_cost_is_unbounded():
    # v2 appears in no row: the dual is infeasible, the primal feasible
    sol = solve(_lp([0.0, 1.0], [[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0]))
    assert sol.status == UNBOUNDED


def test_primal_and_dual_both_infeasible():
    # v1 <= -1 and v1 >= 1 cannot hold, and v2's cost makes the dual
    # infeasible too; the c = 0 dual is unbounded, which names the primal
    sol = solve(_lp([0.0, 1.0], [[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0]))
    assert sol.status == INFEASIBLE


# min -v1 - v2 on the unit box: the dual G^T y = (1, 1) is met by y >= 0 on
# rows {0, 1}, by y = (-1, -1) on rows {2, 3}, and rows {0, 2} are parallel
_BOX = ([-1.0, -1.0], [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0, 0.0, 0.0])


def test_start_from_the_optimal_basis_takes_no_pivot():
    lp = _lp(*_BOX)
    cold = solve(lp)
    warm = solve(lp, start=cold.basis)
    assert cold.status == warm.status == OPTIMAL
    assert cold.iterations > 0 and warm.iterations == 0
    assert warm.objective == cold.objective == -2.0
    assert np.array_equal(warm.basis, cold.basis)


@pytest.mark.parametrize("start", [[2, 3], [0, 2]], ids=["infeasible", "singular"])
def test_unusable_start_basis_solves_from_scratch(start):
    lp = _lp(*_BOX)
    cold = solve(lp)
    warm = solve(lp, start=np.array(start))
    assert (warm.status, warm.objective, warm.iterations) == (cold.status, cold.objective, cold.iterations)
    assert np.array_equal(warm.solution, cold.solution)
    assert np.array_equal(warm.basis, cold.basis)


def test_start_from_a_neighbouring_lp_matches_a_cold_solve():
    # the optimal basis of one LP offered to a perturbed copy, as from one
    # bisection level to the next: whether it is used or not, the verdict
    # and the optimum are those of a solve from scratch
    rng = np.random.default_rng(31)
    warm_starts = 0
    for _ in range(200):
        c, rows, rhs = random_bounded_instance(rng)
        first = solve(_lp(c, rows, rhs))
        if first.basis is None:
            continue
        scale = rng.choice([0.0, 0.1])
        lp = _lp(c + scale * rng.normal(size=c.shape), rows + scale * rng.normal(size=rows.shape),
                 rhs + rng.normal(scale=0.3, size=rhs.shape))
        cold, warm = solve(lp), solve(lp, start=first.basis)
        warm_starts += warm.iterations < cold.iterations
        assert warm.status == cold.status
        if cold.status == OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    assert warm_starts > 50


def test_level_lp_solve_allocates_less_than_its_rows():
    # the rational benchmark on an 81 x 81 grid: 19,684 rows of 7 entries; the
    # solve keeps an n-row basis, so it never holds an array the size of G
    configs = Path(__file__).resolve().parents[1] / "configs"
    config = json.loads((configs / "benchmark_rational_cubed.json").read_text())
    config["grid"]["step"] = [0.025, 0.025]
    model, target, grid = cli._build_model(config)
    lp = build_feasibility_lp(LevelProblem(model, sample(target, grid, model.variables)), 7.0)
    assert lp.rows.shape == (19684, 7)
    tracemalloc.start()
    try:
        sol = solve(lp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == OPTIMAL
    assert peak < lp.rows.nbytes


def _factor_fails_from_call(monkeypatch, first):
    """Make the basis factorization raise LinAlgError from its `first`-th call on."""
    calls = count(1)
    factor = simplex._Basis.factor

    def failing(self):
        if next(calls) >= first:
            raise np.linalg.LinAlgError("Singular matrix")
        return factor(self)

    monkeypatch.setattr(simplex._Basis, "factor", failing)


def test_factorization_failure_is_a_numerical_failure(monkeypatch):
    _factor_fails_from_call(monkeypatch, 3)
    sol = solve(_lp(*_BOX))
    assert sol.status == NUMERICAL_FAILURE
    assert sol.iterations == 2


def test_factorization_failure_in_a_fit_exits_4(tmp_path, monkeypatch, capsys):
    # LinAlgError is a ValueError, which `main` would report as a config error
    config = {"variables": ["x"], "target": "x^2", "grid": {"lower": -1.0, "upper": 1.0, "step": 0.1},
              "model": {"outer": "identity", "numerator_basis": ["1", "x"]},
              "output": {"result_path": str(tmp_path / "result.json")}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    _factor_fails_from_call(monkeypatch, 3)
    assert cli.main(["fit", str(path)]) == 4
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "solver"
    assert error["message"].startswith("LP oracle failed with status 'numerical_failure'")
    assert not (tmp_path / "result.json").exists()
