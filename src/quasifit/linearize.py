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
`LevelProblem`, which evaluates the bases and lays out and validates its one
LP once, and `build_feasibility_lp` writes hi and lo into it for each level.
The rows are laid out column-major, so that the solver's pricing pass G v
reads each coefficient's column as one contiguous run.
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
    """The one level LP of a fit, laid out and validated once, refilled at each level.

    Evaluates G (and H) on the sample points, lays out the writable `rows`
    and `rhs`, and validates `lp`, the read-only LP over them; an affine
    model is laid out as a rational one with denominator 1 (`den_fixed` is
    None) and no free denominator column.
    """

    def __init__(self, model: ModelClass, f: SampledFunction):
        pts = f.points
        n_pts = pts.shape[0]
        n_g = len(model.numerator)
        free_b = model.free_denominator_indices()
        n_free = n_g + len(free_b)
        self.model = model
        self.values = f.values
        self.den_columns = slice(n_g, n_free)
        self.block = 2 if model.denominator is None else 3
        self.rows = np.zeros((self.block * n_pts + 1, n_free + 1), order="F")  # column-major, see above
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
            self.den_fixed = None
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
        names = tuple(model.coefficient_names() + ["u"])
        self.lp = LinearProgram(np.append(np.zeros(n_free), 1.0), self.rows, self.rhs, names)


def build_feasibility_lp(problem: LevelProblem, z: float) -> LinearProgram:
    """The level-z emptiness LP over the free coefficients plus the slack u.

    Writes hi = phi_inv(f + z) and lo = phi_inv(f - z) into the rows laid out
    by `problem`: grid points in enumeration order, within a point the upper
    level row, the lower level row, then (rational models) the denominator
    positivity row, and the floor row u >= -1 last.  Returns `problem.lp`,
    the problem's own LP, so the next call on the same problem refills it:
    read a level's LP before building the next.  The values written are
    checked to be finite here; the rest was checked once, in `problem.lp`.
    """
    if z < 0:
        raise ValueError("level z must be nonnegative")
    k, rows, rhs, n = problem.block, problem.rows, problem.rhs, problem.values.size
    # f +- z and the products can overflow, and an infinite bound times a
    # zero of H is nan; the check below reports either as one error
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = problem.model.outer.inverse(np.concatenate((problem.values + z, problem.values - z)))
        hi, lo = bounds[:n], bounds[n:]
        if problem.den_fixed is None:  # the denominator is 1
            rhs[0:-1:k] = hi
            rhs[1:-1:k] = -lo
        else:
            rhs[0:-1:k] = hi * problem.den_fixed
            rhs[1:-1:k] = -lo * problem.den_fixed
        if problem.h_free.size:
            rows[0:-1:k, problem.den_columns] = -hi[:, None] * problem.h_free
            rows[1:-1:k, problem.den_columns] = lo[:, None] * problem.h_free
    if not (np.isfinite(rhs).all()
            and (problem.h_free.size == 0 or np.isfinite(rows[:, problem.den_columns]).all())):
        raise ValueError(f"the bounds of level z={z!r} are not finite")
    return problem.lp
