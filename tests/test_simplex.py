from itertools import combinations

import numpy as np
import pytest

from quasifit.linearize import LinearProgram
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
    assert solve(lp, max_iterations=1).status == NUMERICAL_FAILURE


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


def test_zero_column_with_cost_is_unbounded():
    # v2 appears in no row: the dual is infeasible, the primal feasible
    sol = solve(_lp([0.0, 1.0], [[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0]))
    assert sol.status == UNBOUNDED


def test_primal_and_dual_both_infeasible():
    # v1 <= -1 and v1 >= 1 cannot hold, and v2's cost makes the dual
    # infeasible too; the c = 0 dual is unbounded, which names the primal
    sol = solve(_lp([0.0, 1.0], [[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0]))
    assert sol.status == INFEASIBLE
