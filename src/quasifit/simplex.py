"""Revised two-phase simplex on the dual of inequality-form programs with free variables.

The primal  min c.v  subject to  G v <= h  with v sign-unrestricted has m
rows but only n columns, and the level LPs of the fitter have m in the
thousands and n below ten.  It is solved through its dual in standard form,

    min h.y  subject to  G^T y = -c,  y >= 0,

with n equality rows and one column per primal row, as in discrete Chebyshev
approximation (Stiefel, Numer. Math. 1, 1959; Barrodale & Phillips, ACM TOMS
Alg. 495, 1975).  Its only state is a basis, one primal row per equality
row; each pivot factors that n x n matrix, and the multipliers v of
G[B] v = h[B] price every column in one pass h - G v, the primal row slacks.
The m columns never form a tableau; at the optimum v is the primal solution.

A solve starts either from one artificial per equality row, driven out in
phase one, which deletes the rows a rank-deficient G makes redundant (v is
then the minimum-norm solution of the shorter system), or from a given
basis, such as the previous bisection level's optimum, when it is well
conditioned and its dual values B^-1(-c) are nonnegative.

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


class _Basis:
    """A basis of  G^T y = b, y >= 0: one column index per equality row, where
    k < m names row k of G and m + i the artificial sign(b_i) e_i of row i."""

    def __init__(self, G: np.ndarray, b: np.ndarray, index: np.ndarray):
        self.G, self.b, self.index = G, b, index
        self.sign = np.where(b < 0, -1.0, 1.0)
        self.iterations = 0
        self.factor()

    def factor(self) -> None:
        """Lay out the basis matrix B and invert it; LinAlgError when it is singular."""
        m, k = self.G.shape
        real = self.index < m
        self.B = np.zeros((k, k))
        self.B[:, real] = self.G[self.index[real]].T
        art = self.index[~real] - m
        self.B[art, np.flatnonzero(~real)] = self.sign[art]
        self.inv = np.linalg.inv(self.B)

    @classmethod
    def start(cls, G: np.ndarray, b: np.ndarray, index: np.ndarray) -> "_Basis | None":
        """The rows `index` of G as a basis; None when they are (nearly)
        singular or their basic values are not >= 0."""
        try:
            basis = cls(G, b, index.copy())
        except np.linalg.LinAlgError:
            return None
        cond = np.abs(basis.B).sum(axis=0).max() * np.abs(basis.inv).sum(axis=0).max()  # in the 1-norm
        feasible = (basis.inv @ b).min() >= -_FEAS_TOL * (1.0 + np.abs(b).max())
        return basis if cond < _COND_MAX and feasible else None

    def run(self, cost: np.ndarray, max_iterations: int) -> tuple[str, float]:
        """Minimise cost.y from the current basis; the artificials are priced
        when `cost` has entries past m.  Returns (status, objective)."""
        G, m = self.G, self.G.shape[0]
        bland, degenerate_run = False, 0
        while True:
            inv = self.inv
            x = np.maximum(inv @ self.b, 0.0)  # what a tolerance let below 0 is a degenerate 0
            cost_b = cost[self.index]
            v = inv.T @ cost_b
            red = cost - (G @ v if cost.size == m else np.append(G @ v, self.sign * v))
            red[self.index] = 0.0  # exactly, not up to the roundoff of a large cost
            objective = float(cost_b @ x)
            j = int(np.argmax(red < -_RED_TOL) if bland else np.argmin(red))
            if red[j] >= -_RED_TOL:
                return OPTIMAL, objective
            d = inv @ G[j] if j < m else inv[:, j - m] * self.sign[j - m]
            if not (d > _PIV_TOL).any():
                if not (d > _PIV_MIN).any():
                    return UNBOUNDED, objective
                if bland:  # only numerically meaningless pivots remain in this column
                    return NUMERICAL_FAILURE, objective
                bland = True
                continue
            ratios = np.where(d > _PIV_TOL, x / np.maximum(d, _PIV_TOL), np.inf)
            ties = np.flatnonzero(ratios <= ratios.min() + 1e-12)
            r = int(ties[np.argmin(self.index[ties])] if bland else ties[0])
            degenerate_run = degenerate_run + 1 if x[r] <= 1e-12 else 0
            bland = bland or degenerate_run > 5 * d.size
            self.index[r] = j
            self.iterations += 1
            self.factor()
            if self.iterations > max_iterations:
                return NUMERICAL_FAILURE, objective

    def drop_artificials(self) -> None:
        """Pivot basic artificials out; delete the rows made redundant by them."""
        m = self.G.shape[0]
        redundant = []
        for r in np.flatnonzero(self.index >= m):
            row = np.abs(self.G @ self.inv[r])
            j = int(np.argmax(row))
            if row[j] > 1e-9:
                self.index[r] = j
                self.factor()
            else:
                redundant.append(r)
        if redundant:
            # an artificial's column touches only its own row, which goes with it
            keep = np.setdiff1d(np.arange(self.index.size), self.index[redundant] - m)
            self.G, self.b, self.sign = self.G[:, keep], self.b[keep], self.sign[keep]
            self.index = np.delete(self.index, redundant)
            self.factor()


def _solve_dual(
    G: np.ndarray, h: np.ndarray, c: np.ndarray, max_iterations: int, start: np.ndarray | None = None
) -> tuple[str, _Basis]:
    """min h.y s.t. G^T y = -c, y >= 0, from `start` if it is a feasible basis; the status is the dual's own."""
    basis = None if start is None else _Basis.start(G, -c, start)
    try:
        if basis is None:
            m, n = G.shape
            basis = _Basis(G, -c, m + np.arange(n))
            status, obj1 = basis.run(np.append(np.zeros(m), np.ones(n)), max_iterations)
            # the phase-one objective is a sum of nonnegative variables, so an
            # unbounded verdict here can only be numerical noise
            if status != OPTIMAL:
                return NUMERICAL_FAILURE, basis
            if obj1 > 1e-7 * (1.0 + np.abs(c).max(initial=0.0)):
                return INFEASIBLE, basis
            basis.drop_artificials()
        status, _ = basis.run(h, max_iterations)
    except np.linalg.LinAlgError:  # the ratio test let a near-zero pivot through
        return NUMERICAL_FAILURE, basis
    return status, basis


def solve(lp: LinearProgram, start: np.ndarray | None = None) -> LpSolution:
    """Solve min c.v s.t. rows.v <= rhs with free v.

    `start` names one row per variable, for example the `basis` of an
    optimal solution of an LP of the same shape; when those rows make a
    feasible dual basis of this LP, the solve starts there and skips phase
    one, and otherwise it runs from scratch.  After 20000 + 200 (m + n)
    pivots in all the solve gives up with a numerical failure.
    Deterministic: identical input yields an identical pivot path, solution
    and iteration count.
    """
    G, h, c = lp.rows, lp.rhs, lp.objective
    m, n = lp.row_count, lp.variable_count
    if m == 0:
        if np.any(c != 0.0):
            return LpSolution(UNBOUNDED)
        return LpSolution(OPTIMAL, np.zeros(n), 0.0, 0)
    max_iterations = 20000 + 200 * (m + n)
    status, basis = _solve_dual(G, h, c, max_iterations, start)
    if status == OPTIMAL:
        B = basis.index
        if B.size == n:
            try:
                x = np.linalg.solve(G[B], h[B])
            except np.linalg.LinAlgError:  # the ratio test let a near-zero pivot through
                return LpSolution(NUMERICAL_FAILURE, iterations=basis.iterations)
            return LpSolution(OPTIMAL, x, float(c @ x), basis.iterations, B)
        x = np.linalg.lstsq(G[B], h[B], rcond=None)[0]
        return LpSolution(OPTIMAL, x, float(c @ x), basis.iterations)
    if status == UNBOUNDED:
        return LpSolution(INFEASIBLE, iterations=basis.iterations)
    if status == INFEASIBLE:  # the primal is unbounded exactly when the c = 0 dual is bounded
        farkas, basis0 = _solve_dual(G, h, np.zeros(n), max_iterations - basis.iterations)
        status = {OPTIMAL: UNBOUNDED, UNBOUNDED: INFEASIBLE}.get(farkas, NUMERICAL_FAILURE)
        return LpSolution(status, iterations=basis.iterations + basis0.iterations)
    return LpSolution(status, iterations=basis.iterations)
