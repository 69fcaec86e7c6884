"""Dense two-phase simplex on the dual of inequality-form programs with free variables.

The primal  min c.v  subject to  G v <= h  with v sign-unrestricted has m
rows but only n columns, and the level LPs of the fitter have m in the
thousands and n below ten.  It is solved through its dual in standard form,

    min h.y  subject to  G^T y = -c,  y >= 0,

an n-row tableau with one artificial per equality row, driven out in phase
one.  This is the classical treatment of discrete Chebyshev problems
(Stiefel, Numer. Math. 1, 1959; Barrodale & Phillips, ACM TOMS Alg. 495,
1975).  The rows of the optimal dual basis B are the active primal rows, so
the primal solution solves  G[B] v = h[B].  Redundant equality rows, from a
rank-deficient G, are deleted after phase one; v is then the
minimum-norm solution of the shorter system.

A solve may be given a starting basis, one row per primal variable, such as
the optimal basis of an earlier LP of the same shape (the bisection's
previous level).  When those rows form a well-conditioned basis whose dual
values B^-1(-c) are nonnegative, the tableau is built from B^-1 directly
and phase one is skipped; phase two is the same code either way.
Otherwise the solve runs both phases from the artificial start.

Verdicts follow from duality.  An unbounded dual means an infeasible
primal.  An infeasible dual means the primal is unbounded or infeasible;
the dual with c = 0 is always feasible and is bounded exactly when the
primal is feasible (Farkas), so one more run tells the two apart.

The pivot rule is largest reduced cost with lowest-index tie-breaking, which
is deterministic; after a run of degenerate pivots the rule switches to
Bland's, which cannot cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linearize import LinearProgram

__all__ = ["LpSolution", "solve"]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL_FAILURE = "numerical_failure"

_RED_TOL = 1e-9  # reduced cost significance
_PIV_TOL = 1e-10  # ratio test eligibility
_PIV_MIN = 1e-12  # below this a pivot is numerically meaningless
_FEAS_TOL = 1e-9  # basic values of a given start basis, relative to the data
_COND_MAX = 1e12  # a start basis with a larger 1-norm condition number is not used


@dataclass
class LpSolution:
    status: str
    solution: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0
    # the optimal dual basis, one row index per variable; None when phase
    # one deleted redundant rows and it is shorter
    basis: np.ndarray | None = None


class _Tableau:
    """Rows B^-1 [A | b] of A x = b, x >= 0, for the basis B; any artificial
    columns sit between A and b until `drop_artificials`."""

    def __init__(self, T: np.ndarray, basis: np.ndarray, n_cols: int):
        self.T = T
        self.basis = basis
        self.m = T.shape[0]
        self.n_cols = n_cols  # structural columns; artificials follow
        self.iterations = 0

    @classmethod
    def artificial(cls, A: np.ndarray, b: np.ndarray) -> "_Tableau":
        """Started from one artificial per row."""
        m, n_cols = A.shape
        sign = np.where(b < 0, -1.0, 1.0)
        T = np.hstack([A * sign[:, None], np.eye(m), (b * sign)[:, None]])
        return cls(T, n_cols + np.arange(m), n_cols)

    @classmethod
    def from_basis(cls, A: np.ndarray, b: np.ndarray, basis: np.ndarray) -> "_Tableau | None":
        """Started from the structural columns `basis`, one per row; None
        when they are (nearly) singular or their basic values are not >= 0."""
        B = A[:, basis]
        if not np.linalg.cond(B, 1) < _COND_MAX:
            return None
        T = np.linalg.solve(B, np.column_stack([A, b]))
        if T[:, -1].min() < -_FEAS_TOL * (1.0 + np.abs(b).max()):
            return None
        np.maximum(T[:, -1], 0.0, out=T[:, -1])  # what the tolerance let in is a degenerate 0
        return cls(T, basis.copy(), A.shape[1])

    def pivot(self, r: int, j: int) -> None:
        T = self.T
        piv = T[r, j]
        T[r] /= piv
        col = T[:, j].copy()
        col[r] = 0.0
        T -= np.outer(col, T[r])
        self.basis[r] = j

    def run(self, cost: np.ndarray, max_iterations: int) -> tuple[str, float]:
        """Minimise cost over the current basis; returns (status, objective)."""
        T = self.T
        m = self.m
        red = np.append(cost, 0.0)
        for r, bc in enumerate(self.basis):
            if cost[bc] != 0.0:
                red -= cost[bc] * T[r]
        bland = False
        degenerate_run = 0
        while True:
            cand = red[:-1]
            if bland:
                elig = np.flatnonzero(cand < -_RED_TOL)
                if elig.size == 0:
                    return OPTIMAL, -red[-1]
                j = int(elig[0])
            else:
                j = int(np.argmin(cand))
                if cand[j] >= -_RED_TOL:
                    return OPTIMAL, -red[-1]
            col = T[:, j]
            elig_rows = col > _PIV_TOL
            if not elig_rows.any():
                if (col > _PIV_MIN).any():
                    # only numerically meaningless pivots remain in this column
                    if bland:
                        return NUMERICAL_FAILURE, -red[-1]
                    bland = True
                    continue
                return UNBOUNDED, -red[-1]
            ratios = np.full(m, np.inf)
            ratios[elig_rows] = T[elig_rows, -1] / col[elig_rows]
            best = ratios.min()
            ties = np.flatnonzero(ratios <= best + 1e-12)
            if bland and ties.size > 1:
                r = int(ties[np.argmin(self.basis[ties])])
            else:
                r = int(ties[0])
            if T[r, -1] <= 1e-12:
                degenerate_run += 1
                if degenerate_run > 5 * m:
                    bland = True
            else:
                degenerate_run = 0
            self.pivot(r, j)
            red -= red[j] * T[r]
            self.iterations += 1
            if self.iterations > max_iterations:
                return NUMERICAL_FAILURE, -red[-1]

    def drop_artificials(self) -> None:
        """Pivot basic artificials out; delete rows made redundant by them."""
        redundant = []
        for r in range(self.m):
            if self.basis[r] >= self.n_cols:
                row = np.abs(self.T[r, : self.n_cols])
                j = int(np.argmax(row))
                if row[j] > 1e-9:
                    self.pivot(r, j)
                else:
                    redundant.append(r)
        if redundant:
            keep = np.setdiff1d(np.arange(self.m), redundant)
            self.T = self.T[keep]
            self.basis = self.basis[keep]
            self.m = keep.size
        self.T = np.hstack([self.T[:, : self.n_cols], self.T[:, -1:]])


def _solve_dual(
    G: np.ndarray, h: np.ndarray, c: np.ndarray, max_iterations: int, start: np.ndarray | None = None
) -> tuple[str, _Tableau]:
    """min h.y s.t. G^T y = -c, y >= 0; the status is the dual's own.

    Phase one is skipped when `start` is a feasible basis.
    """
    tab = None if start is None else _Tableau.from_basis(G.T, -c, start)
    if tab is None:
        tab = _Tableau.artificial(G.T, -c)
        cost1 = np.zeros(tab.n_cols + tab.m)
        cost1[tab.n_cols :] = 1.0
        status, obj1 = tab.run(cost1, max_iterations)
        # the phase-one objective is a sum of nonnegative variables, so an
        # unbounded verdict here can only be numerical noise
        if status != OPTIMAL:
            return NUMERICAL_FAILURE, tab
        if obj1 > 1e-7 * (1.0 + np.abs(c).max(initial=0.0)):
            return INFEASIBLE, tab
        tab.drop_artificials()
    status, _ = tab.run(h, max_iterations)
    return status, tab


def solve(
    lp: LinearProgram, max_iterations: int | None = None, start: np.ndarray | None = None
) -> LpSolution:
    """Solve min c.v s.t. rows.v <= rhs with free v.

    `start` names one row per variable, for example the `basis` of an
    optimal solution of an LP of the same shape; when those rows make a
    feasible dual basis of this LP, the solve starts there and skips phase
    one, and otherwise it runs from scratch.  Deterministic: identical input
    yields an identical pivot path, solution and iteration count.
    """
    G, h, c = lp.rows, lp.rhs, lp.objective
    m, n = lp.row_count, lp.variable_count
    if m == 0:
        if np.any(c != 0.0):
            return LpSolution(UNBOUNDED)
        return LpSolution(OPTIMAL, np.zeros(n), 0.0, 0)
    if max_iterations is None:
        max_iterations = 20000 + 200 * (m + n)

    status, tab = _solve_dual(G, h, c, max_iterations, start)
    if status == OPTIMAL:
        B = tab.basis
        if B.size == n:
            x = np.linalg.solve(G[B], h[B])
            return LpSolution(OPTIMAL, x, float(c @ x), tab.iterations, B)
        x = np.linalg.lstsq(G[B], h[B], rcond=None)[0]
        return LpSolution(OPTIMAL, x, float(c @ x), tab.iterations)
    if status == UNBOUNDED:
        return LpSolution(INFEASIBLE, iterations=tab.iterations)
    if status == INFEASIBLE:
        farkas, tab0 = _solve_dual(G, h, np.zeros(n), max_iterations - tab.iterations)
        iterations = tab.iterations + tab0.iterations
        if farkas == OPTIMAL:
            return LpSolution(UNBOUNDED, iterations=iterations)
        if farkas == UNBOUNDED:
            return LpSolution(INFEASIBLE, iterations=iterations)
        return LpSolution(NUMERICAL_FAILURE, iterations=iterations)
    return LpSolution(status, iterations=tab.iterations)
