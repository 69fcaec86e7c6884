"""Revised two-phase simplex on the dual of inequality-form programs with free variables.

The primal  min c.v  subject to  G v <= h  with v sign-unrestricted has m
rows but only n columns, and the level LPs of the fitter have m in the
thousands and n below ten.  It is solved through its dual in standard form,

    min h.y  subject to  G^T y = -c,  y >= 0,

with n equality rows and one column per primal row, as in discrete Chebyshev
approximation (Stiefel, Numer. Math. 1, 1959; Barrodale & Phillips, ACM TOMS
Alg. 495, 1975).  Its only state is a basis, one primal row per equality
row, and the inverse of that n x n matrix.  Each pivot updates the inverse
by a rank-one step, the product form of the inverse (Dantzig &
Orchard-Hays, 1954), and every n-th pivot inverts the matrix from scratch,
so that the updates' roundoff cannot pile up.  The multipliers v of
G[B] v = h[B] price every column in one pass h - G v, the primal row slacks.
The m columns never form a tableau; at the optimum v is the primal solution.

A solve starts either from one artificial per equality row, driven out in
phase one, which deletes the rows a rank-deficient G makes redundant (v is
then the minimum-norm solution of the shorter system), or from a given
basis, such as the previous bisection level's optimum, when it is well
conditioned and its dual values B^-1(-c) are nonnegative.  Given the
earlier solution itself, the solve takes over its factorised basis, with
that verdict, when no pivot has updated the inverse since its last factor
and the basis rows of G and -c are bitwise the ones it was factored from.
That inverse is then bitwise the one a fresh factor computes, so the
pivots, and every result, are those of a start from the basis's indices;
otherwise the basis is factored afresh.

A well-conditioned start with a negative dual value is not dropped for
phase one when some row k of G equals -c, as the floor row u >= -1 of a
level LP does.  Row k enters in place of the basic row r with the largest
|B^-1 g_k|: since g_k = -c is the right-hand side itself, the basic values
of the new basis are e_r, which are feasible whatever the old ones were,
and the largest entry is the largest pivot the swap can take (a crash
basis, Bixby, ORSA J. Comput. 4, 1992).  The new basis is factored and
checked as any start, and phase two runs from it; phase one remains for a
first solve, a (nearly) singular start, c = 0 and LPs without such a row.

At the optimum the point v is solved from the basis rows in ascending
index order, not in the order the pivots left them, so it depends on the
optimal basis alone: two paths to the same basis give the same bits.

Verdicts follow from duality.  An unbounded dual means an infeasible
primal.  An infeasible dual means the primal is unbounded or infeasible;
the dual with c = 0 is always feasible and is bounded exactly when the
primal is feasible (Farkas), so one more run tells the two apart.

The pivot rule is largest reduced cost with lowest-index tie-breaking, which
is deterministic; after a run of degenerate pivots the rule switches to
Bland's, which cannot cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf

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
    # the factorised basis behind `basis`, for a solve that starts from this solution
    _factors: "_Basis | None" = field(default=None, repr=False, compare=False)


class _Basis:
    """A basis of  G^T y = b, y >= 0: one column index per equality row, where
    k < m names row k of G and m + i the artificial sign(b_i) e_i of row i."""

    def __init__(self, G: np.ndarray, b: np.ndarray, index: np.ndarray):
        self.G, self.b, self.index = G, b, index
        self.sign = np.where(b < 0, -1.0, 1.0)
        self.iterations = 0
        self.factor()

    def factor(self) -> None:
        """Lay out the basis matrix B and invert it; LinAlgError when it is singular.

        `B` is the matrix of the last factor: a pivot updates only the inverse.
        """
        m, k = self.G.shape
        real = self.index < m
        if real.all():  # C order, as below, so that `start` sums its columns in the same order
            self.B = np.ascontiguousarray(self.G[self.index].T)
        else:
            self.B = np.zeros((k, k))
            self.B[:, real] = self.G[self.index[real]].T
            art = self.index[~real] - m
            self.B[art, np.flatnonzero(~real)] = self.sign[art]
        self.inv = np.linalg.inv(self.B)
        self.updates = 0
        self.conditioned = self.feasible = None  # the verdicts of `start`, computed when first asked

    def pivot(self, r: int, j: int, d: np.ndarray) -> None:
        """Column j enters at row r, where d = B^-1 (column j) and d[r] > 0.

        B^-1 is updated by a rank-one step, and refactored from scratch every
        k-th pivot of a basis of size k, so roundoff cannot pile up;
        LinAlgError when a refactor finds B singular.
        """
        self.index[r] = j
        self.updates += 1
        if self.updates == self.G.shape[1]:
            self.factor()
            return
        row = self.inv[r] / d[r]
        self.inv -= d[:, None] * row
        self.inv[r] = row

    def reuse(self, G: np.ndarray, b: np.ndarray, index: np.ndarray) -> bool:
        """Take this basis over as the rows `index` of G, for  G^T y = b,  with
        its factorisation, when that is the one a fresh factor would compute:
        no pivot has updated the inverse since the last factor, and the rows
        `index` of G and b are bitwise the ones it was factored from (-0.0 is
        not 0.0).  The basis holds no artificial, as after phase two."""
        if self.updates or G.shape != self.G.shape:
            return False
        if G[index].tobytes() != self.B.T.tobytes() or b.tobytes() != self.b.tobytes():
            return False
        self.G, self.b, self.index, self.iterations = G, b, index.copy(), 0
        return True

    @classmethod
    def start(cls, G: np.ndarray, b: np.ndarray, index: np.ndarray,
              carried: "_Basis | None" = None) -> "_Basis | None":
        """The rows `index` of G as a basis, with `feasible` telling whether
        its basic values are >= 0; None when they are (nearly) singular.
        `carried`, a basis of an earlier solve, is taken over with its
        factorisation and its verdicts when `reuse` allows, and otherwise
        left as it is."""
        if carried is not None and carried.reuse(G, b, index):
            basis = carried
        else:
            try:
                basis = cls(G, b, index.copy())
            except np.linalg.LinAlgError:
                return None
        if basis.conditioned is None:
            cond = np.abs(basis.B).sum(axis=0).max() * np.abs(basis.inv).sum(axis=0).max()  # in the 1-norm
            basis.conditioned = cond < _COND_MAX
            basis.feasible = (basis.inv @ b).min() >= -_FEAS_TOL * (1.0 + np.abs(b).max())
        return basis if basis.conditioned else None

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
            j = int((red < -_RED_TOL).argmax() if bland else red.argmin())
            if red[j] >= -_RED_TOL:
                return OPTIMAL, float(cost_b @ x)
            d = inv @ G[j] if j < m else inv[:, j - m] * self.sign[j - m]
            # the ratio test over the n entries, in Python floats
            ds = d.tolist()
            if not any(dr > _PIV_TOL for dr in ds):
                if not any(dr > _PIV_MIN for dr in ds):
                    return UNBOUNDED, float(cost_b @ x)
                if bland:  # only numerically meaningless pivots remain in this column
                    return NUMERICAL_FAILURE, float(cost_b @ x)
                bland = True
                continue
            xs = x.tolist()
            ratios = [xr / dr if dr > _PIV_TOL else inf for xr, dr in zip(xs, ds)]
            least = min(ratios) + 1e-12
            ties = [r for r, ratio in enumerate(ratios) if ratio <= least]
            r = min(ties, key=self.index.__getitem__) if bland else ties[0]
            degenerate_run = degenerate_run + 1 if xs[r] <= 1e-12 else 0
            bland = bland or degenerate_run > 5 * len(ds)
            self.iterations += 1
            self.pivot(r, j, d)
            if self.iterations > max_iterations:
                return NUMERICAL_FAILURE, float(cost_b @ x)

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


def _row_equal_to(G: np.ndarray, b: np.ndarray) -> int | None:
    """The lowest index of a row of G equal to b, or None; one column at a time over the rows still equal."""
    rows = np.flatnonzero(G[:, 0] == b[0])
    for j in range(1, b.size):
        rows = rows[G[rows, j] == b[j]]
    return int(rows[0]) if rows.size else None


def _feasible_start(G: np.ndarray, b: np.ndarray, start: np.ndarray, carried: _Basis | None) -> _Basis | None:
    """A feasible basis of  G^T y = b, y >= 0  from the rows `start` (factorised
    as `carried`, when given), or None.

    When those rows are well conditioned but a basic value is negative, and a
    row k of G equals b, row k takes the place of the largest |B^-1 g_k|.
    Since g_k = b, the new basis has the basic values e_r, feasible whatever
    the old ones were; it is factored and checked as any start.
    """
    basis = _Basis.start(G, b, start, carried)
    if basis is None or basis.feasible:
        return basis
    k = _row_equal_to(G, b)
    if k is None:
        return None
    index = basis.index.copy()
    index[np.argmax(np.abs(basis.inv @ b))] = k
    basis = _Basis.start(G, b, index)
    return basis if basis is not None and basis.feasible else None


def _solve_dual(
    G: np.ndarray, h: np.ndarray, c: np.ndarray, max_iterations: int, start: np.ndarray | None = None,
    carried: _Basis | None = None,
) -> tuple[str, _Basis]:
    """min h.y s.t. G^T y = -c, y >= 0, from `start` (factorised as `carried`,
    when given) or the feasible basis `_feasible_start` makes of it, and
    otherwise from phase one; the status is the dual's own."""
    basis = None if start is None else _feasible_start(G, -c, start, carried)
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


def solve(lp: LinearProgram, start: np.ndarray | LpSolution | None = None) -> LpSolution:
    """Solve min c.v s.t. rows.v <= rhs with free v.

    `start` names one row per variable, for example the `basis` of an
    optimal solution of an LP of the same shape; when those rows make a
    feasible dual basis of this LP, or do after a row equal to -c is
    swapped in (`_feasible_start`), the solve starts there and skips phase
    one, and otherwise it runs from scratch.  `start` may also be such a
    solution itself: the solve then also reuses its factorised basis when
    that is bitwise the one a fresh factor would give (`_Basis.reuse`), so
    the pivots are those of a start from its `basis`.  After 20000 + 200 (m + n)
    pivots in all the solve gives up with a numerical failure.
    Deterministic: identical input yields an identical pivot path, solution
    and iteration count, and the solution depends on the optimal basis only,
    not on the path to it.
    """
    G, h, c = lp.rows, lp.rhs, lp.objective
    m, n = lp.row_count, lp.variable_count
    if m == 0:
        if np.any(c != 0.0):
            return LpSolution(UNBOUNDED)
        return LpSolution(OPTIMAL, np.zeros(n), 0.0, 0)
    max_iterations = 20000 + 200 * (m + n)
    carried = None
    if isinstance(start, LpSolution):
        start, carried = start.basis, start._factors
    status, basis = _solve_dual(G, h, c, max_iterations, start, carried)
    if status == OPTIMAL:
        B = basis.index
        rows = sorted(B.tolist())  # the point depends on the basis, not on the order the pivots left it in
        if B.size == n:
            try:
                x = np.linalg.solve(G[rows], h[rows])
            except np.linalg.LinAlgError:  # the ratio test let a near-zero pivot through
                return LpSolution(NUMERICAL_FAILURE, iterations=basis.iterations)
            return LpSolution(OPTIMAL, x, float(c @ x), basis.iterations, B.copy(), basis)
        x = np.linalg.lstsq(G[rows], h[rows], rcond=None)[0]
        return LpSolution(OPTIMAL, x, float(c @ x), basis.iterations)
    if status == UNBOUNDED:
        return LpSolution(INFEASIBLE, iterations=basis.iterations)
    if status == INFEASIBLE:  # the primal is unbounded exactly when the c = 0 dual is bounded
        farkas, basis0 = _solve_dual(G, h, np.zeros(n), max_iterations - basis.iterations)
        status = {OPTIMAL: UNBOUNDED, UNBOUNDED: INFEASIBLE}.get(farkas, NUMERICAL_FAILURE)
        return LpSolution(status, iterations=basis.iterations + basis0.iterations)
    return LpSolution(status, iterations=basis.iterations)
