"""Reduction of the fixed-level feasibility question to a linear program.

For a deviation level z >= 0, the set of coefficients whose uniform error is
at most z is a polytope, because each pointwise constraint

    |f(x) - phi(r(x))| <= z

pulls back through the strictly increasing outer phi to a two-sided bound

    phi_inv(f(x) - z) <= r(x) <= phi_inv(f(x) + z),

which is linear in the coefficients for r(x) = A.G(x), and becomes linear
after multiplying both sides by the positive denominator for
r(x) = A.G(x) / B.H(x).  Emptiness of the polytope is decided by minimising
a single relaxation variable u added to the slack side of every level row:
the polytope is nonempty exactly when the optimum satisfies u* <= 0.

Denominator positivity rows  -B.H(x) <= -delta  define the model's domain
rather than the level set, so the decision oracle keeps them hard, and a
last floor row u >= -1 keeps a deeply feasible level bounded.  Only
hi = phi_inv(f + z) and lo = phi_inv(f - z) depend on z: a fit builds one
`LevelProblem`, which evaluates the bases and lays out every row once, and
`build_feasibility_lp` fills in hi and lo for each level it probes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SampledFunction
from .models import ModelClass, basis_matrix

__all__ = ["LevelProblem", "LinearProgram", "build_feasibility_lp"]


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min objective . v  subject to  rows . v <= rhs,  v free; read-only views of the arrays passed in."""

    objective: np.ndarray  # (v,)
    rows: np.ndarray  # (m, v)
    rhs: np.ndarray  # (m,)
    names: tuple[str, ...]

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        rhs = np.asarray(self.rhs, dtype=float).ravel()
        if rows.shape[0] != rhs.shape[0]:
            raise ValueError("one rhs entry per row required")
        if rows.shape[0] and rows.shape[1] != obj.shape[0]:
            raise ValueError("row width must match objective length")
        if not (np.all(np.isfinite(obj)) and np.all(np.isfinite(rows)) and np.all(np.isfinite(rhs))):
            raise ValueError("linear program data must be finite")
        if len(self.names) != obj.shape[0]:
            raise ValueError("one name per variable required")
        for name, arr in (("objective", obj), ("rows", rows), ("rhs", rhs)):
            arr = arr.view()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def variable_count(self) -> int:
        return self.objective.shape[0]

    @property
    def row_count(self) -> int:
        return self.rows.shape[0]


class LevelProblem:
    """The z-independent part of every level LP of one fit, built once.

    Holds G (and H) evaluated on the sample points and the row layout that
    `build_feasibility_lp` fills in; an affine model is laid out as a
    rational one with denominator 1 and no free denominator column.
    """

    def __init__(self, model: ModelClass, f: SampledFunction):
        pts = f.points
        n_pts = pts.shape[0]
        n_g = len(model.numerator)
        free_b = model.free_denominator_indices()
        n_free = n_g + len(free_b)
        self.model = model
        self.values = f.values
        self.names = tuple(model.coefficient_names() + ["u"])
        self.objective = np.append(np.zeros(n_free), 1.0)
        self.den_columns = slice(n_g, n_free)
        self.block = 2 if model.denominator is None else 3
        self.rows = np.zeros((self.block * n_pts + 1, n_free + 1))
        self.rhs = np.zeros(self.block * n_pts + 1)
        level = self.rows[:-1]
        # A.G(x) - hi * B.H(x) <= u, then lo * B.H(x) - A.G(x) <= u; u only
        # ever relaxes the level rows, so a deeply feasible level could drive
        # it to minus infinity, and the floor u >= -1 keeps every level bounded
        gmat = basis_matrix(model.numerator, model.variables, pts)
        level[0::self.block, :n_g] = gmat
        level[1::self.block, :n_g] = -gmat
        self.rows[:, -1] = -1.0
        self.rhs[-1] = 1.0
        if model.denominator is None:
            self.den_fixed = np.ones(n_pts)
            self.h_free = np.zeros((n_pts, 0))
        else:
            hmat = basis_matrix(model.denominator, model.variables, pts)
            idx, val = model.fixed_coefficient
            self.den_fixed = val * hmat[:, idx]
            self.h_free = hmat[:, free_b]
            # -B.H(x) <= -delta, kept hard: it defines the model's domain
            level[2::3, self.den_columns] = -self.h_free
            level[2::3, -1] = 0.0
            self.rhs[2:-1:3] = self.den_fixed - model.delta
        for arr in (self.objective, self.rows, self.rhs):
            arr.setflags(write=False)


def build_feasibility_lp(problem: LevelProblem, z: float) -> LinearProgram:
    """The level-z emptiness LP over the free coefficients plus the slack u.

    Fills hi = phi_inv(f + z) and lo = phi_inv(f - z) into the rows laid out
    by `problem`: grid points in enumeration order, within a point the upper
    level row, the lower level row, then (rational models) the denominator
    positivity row, and the floor row u >= -1 last.
    """
    if z < 0:
        raise ValueError("level z must be nonnegative")
    hi = problem.model.outer.inverse(problem.values + z)
    lo = problem.model.outer.inverse(problem.values - z)
    k = problem.block
    rows = problem.rows
    if problem.h_free.size:
        rows = rows.copy()
        rows[0:-1:k, problem.den_columns] = -hi[:, None] * problem.h_free
        rows[1:-1:k, problem.den_columns] = lo[:, None] * problem.h_free
    rhs = problem.rhs.copy()
    rhs[0:-1:k] = hi * problem.den_fixed
    rhs[1:-1:k] = -lo * problem.den_fixed
    return LinearProgram(problem.objective, rows, rhs, problem.names)
