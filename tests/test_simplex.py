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


def _pivot_fails_from_call(monkeypatch, first):
    """Make the pivot step raise LinAlgError, as a refactor of a singular basis
    does, from its `first`-th call on."""
    calls = count(1)
    pivot = simplex._Basis.pivot

    def failing(self, *args):
        if next(calls) >= first:
            raise np.linalg.LinAlgError("Singular matrix")
        return pivot(self, *args)

    monkeypatch.setattr(simplex._Basis, "pivot", failing)


def test_factorization_failure_is_a_numerical_failure(monkeypatch):
    _pivot_fails_from_call(monkeypatch, 2)
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
    _pivot_fails_from_call(monkeypatch, 2)
    assert cli.main(["fit", str(path)]) == 4
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "solver"
    assert error["message"].startswith("LP oracle failed with status 'numerical_failure'")
    assert not (tmp_path / "result.json").exists()


def test_updated_inverse_stays_an_inverse(monkeypatch):
    # every pivot of a cold solve of the affine benchmark's first level, z = u0 / 2
    configs = Path(__file__).resolve().parents[1] / "configs"
    model, target, grid = cli._build_model(json.loads((configs / "benchmark_affine_cubed.json").read_text()))
    f = sample(target, grid, model.variables)
    lp = build_feasibility_lp(LevelProblem(model, f), float(np.abs(f.values).max()) / 2)
    drifts = []
    pivot = simplex._Basis.pivot

    def checked(self, *args):
        pivot(self, *args)
        m, k = self.G.shape
        B = np.zeros((k, k))  # laid out afresh from the basis' index
        for col, j in enumerate(self.index):
            if j < m:
                B[:, col] = self.G[j]
            else:
                B[j - m, col] = self.sign[j - m]
        drift = np.abs(self.inv @ B - np.eye(k)).sum(axis=1).max()
        drifts.append(drift / np.linalg.cond(B, 1))

    monkeypatch.setattr(simplex._Basis, "pivot", checked)
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert len(drifts) == sol.iterations > 0
    assert max(drifts) <= 1e-9


def _factor_calls(monkeypatch):
    """The number of `_Basis.factor` calls from here on, in a one-item list."""
    calls = [0]
    factor = simplex._Basis.factor

    def counted(self):
        calls[0] += 1
        factor(self)

    monkeypatch.setattr(simplex._Basis, "factor", counted)
    return calls


def _same_solve(a, b):
    assert (a.status, a.objective, a.iterations) == (b.status, b.objective, b.iterations)
    assert np.array_equal(a.solution, b.solution) and np.array_equal(a.basis, b.basis)


def test_start_from_a_solution_reuses_its_factorisation(monkeypatch):
    lp = _lp(*_BOX)
    warm = solve(lp, start=solve(lp).basis)
    calls = _factor_calls(monkeypatch)
    again = solve(lp, start=warm)
    assert calls == [0]
    _same_solve(again, warm)
    # a solution's basis is its own array, not the one the next solve pivots
    assert not np.shares_memory(again.basis, warm.basis)
    assert not np.shares_memory(again.basis, again._factors.index)


@pytest.mark.parametrize("rewrite", ["negative zero", "scaled"])
def test_no_reuse_of_a_rewritten_basis_row(monkeypatch, rewrite):
    c, rows, rhs = _BOX
    rows = np.array(rows)
    lp = _lp(c, rows, rhs)
    warm = solve(lp, start=solve(lp).basis)
    row = rows[warm.basis[0]]  # (1, 0), rewritten in place under the LP
    if rewrite == "negative zero":
        row[row == 0.0] = -0.0  # the same numbers, other bits
    else:
        row *= 2.0
    calls = _factor_calls(monkeypatch)
    carried = solve(lp, start=warm)
    assert calls == [1]
    _same_solve(carried, solve(lp, start=warm.basis))
    assert carried.objective == (-2.0 if rewrite == "negative zero" else -1.5)


# min -v1 - v2 - v3 on the unit cube cut by two oblique rows; its optimal
# basis is rows {7, 1, 6}
_CUT_CUBE = ([-1.0, -1.0, -1.0], np.vstack([np.eye(3), -np.eye(3), [[0.1, 0.3, 0.7], [0.6, 0.2, 0.4]]]),
             [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.05, 1.0])


def test_start_from_a_solution_leaves_its_basis_alone(monkeypatch):
    # as from one affine level to the next, only the rhs moves: the second
    # LP takes the first solution's factorisation over and pivots twice
    c, rows, rhs = _CUT_CUBE
    lp = _lp(c, rows, rhs)
    first = solve(lp, start=solve(lp).basis)
    assert first.basis.tolist() == [7, 1, 6]
    moved = _lp(c, rows, rhs[:6] + [2.0, 2.0])  # the oblique rows no longer bind
    calls = _factor_calls(monkeypatch)
    second = solve(moved, start=first)
    assert calls == [0] and second.iterations == 2
    assert first.basis.tolist() == [7, 1, 6]
    _same_solve(second, solve(moved, start=first.basis))


def test_no_reuse_of_an_updated_inverse(monkeypatch):
    # row 2 enters in place of row 7 and row 7 comes back: the basis and its
    # rows are those factored, but the inverse holds two rank-one updates
    # and is no longer bitwise a fresh one
    c, rows, rhs = _CUT_CUBE
    lp = _lp(c, rows, rhs)
    updated = solve(lp, start=solve(lp).basis)
    basis = updated._factors
    fresh = basis.inv.copy()
    for j in (2, 7):
        basis.pivot(0, j, basis.inv @ rows[j])
    assert basis.index.tolist() == [7, 1, 6] and basis.updates == 2
    assert basis.inv.tobytes() != fresh.tobytes()
    calls = _factor_calls(monkeypatch)
    carried = solve(lp, start=updated)
    assert calls == [1]
    _same_solve(carried, solve(lp, start=updated.basis))
    assert carried.iterations == 0


def test_no_reuse_for_another_objective(monkeypatch):
    # the feasibility verdict of a factorisation holds for its own -c only
    c, rows, rhs = _CUT_CUBE
    first = solve(_lp(c, rows, rhs), start=solve(_lp(c, rows, rhs)).basis)
    steeper = _lp([-1.0, -1.0, -2.0], rows, rhs)
    calls = _factor_calls(monkeypatch)
    carried = solve(steeper, start=first)
    assert calls[0] >= 1
    _same_solve(carried, solve(steeper, start=first.basis))


@pytest.mark.parametrize("name", ["benchmark_affine_cubed", "benchmark_rational_cubed"])
def test_permuted_optimal_basis_gives_the_same_solution(name):
    # the point is solved on the basis rows in index order, so it does not
    # depend on the order in which the pivots left them; a level LP's rows
    # repeat magnitudes (+-1, the u column), where LU's pivoting would
    # otherwise follow the row order
    configs = Path(__file__).resolve().parents[1] / "configs"
    config = json.loads((configs / f"{name}.json").read_text())
    config["grid"]["step"] = [0.25, 0.25]
    model, target, grid = cli._build_model(config)
    problem = LevelProblem(model, sample(target, grid, model.variables))
    rng = np.random.default_rng(5)
    for z in (2.0, 6.0, 9.0, 12.0):
        lp = build_feasibility_lp(problem, z)
        cold = solve(lp)
        for _ in range(4):
            again = solve(lp, start=rng.permutation(cold.basis))
            assert again.iterations == 0
            assert again.solution.tobytes() == cold.solution.tobytes()
            assert again.objective == cold.objective


def _with_floor_row(c, rows, rhs, floor):
    """The LP with one more row, -c.v <= floor: the objective's floor, as u >= -1 in a level LP."""
    return _lp(c, np.vstack([rows, -np.asarray(c)]), np.append(rhs, floor))


def test_infeasible_start_restarts_from_the_floor_row(monkeypatch):
    # a start basis whose dual values are not all >= 0 swaps in the row equal
    # to -c, and phase two goes on from there: the verdict and the optimum
    # are those of a solve from scratch
    starts = []
    start = simplex._Basis.start.__func__

    def recorded(cls, G, b, index, carried=None):
        basis = start(cls, G, b, index, carried)
        starts.append(basis is not None and basis.feasible)
        return basis

    monkeypatch.setattr(simplex._Basis, "start", classmethod(recorded))
    rng = np.random.default_rng(17)
    restarts = 0
    for _ in range(200):
        c, rows, rhs = random_bounded_instance(rng)
        floor = rng.uniform(0.1, 3.0)
        first = solve(_with_floor_row(c, rows, rhs, floor))
        if first.basis is None:
            continue
        c2 = c + 0.3 * rng.normal(size=c.shape)
        lp = _with_floor_row(c2, rows + 0.3 * rng.normal(size=rows.shape),
                             rhs + rng.normal(scale=0.3, size=rhs.shape), floor)
        starts.clear()
        warm = solve(lp, start=first.basis)
        restarts += starts == [False, True]
        cold = solve(lp)
        assert warm.status == cold.status
        if cold.status == OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    assert restarts >= 30  # 40 with this generator
