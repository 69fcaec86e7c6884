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
rather than the level set, so the decision oracle keeps them hard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .grid import SampledFunction
from .models import ModelClass, basis_matrix

__all__ = ["LinearProgram", "build_feasibility_lp", "write_lp_text"]


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min objective . v  subject to  rows . v <= rhs,  v free."""

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
        for arr in (obj, rows, rhs):
            arr.setflags(write=False)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def variable_count(self) -> int:
        return self.objective.shape[0]

    @property
    def row_count(self) -> int:
        return self.rows.shape[0]


def build_feasibility_lp(model: ModelClass, f: SampledFunction, z: float) -> LinearProgram:
    """The level-z emptiness LP over the free coefficients plus the slack u.

    Row order is deterministic: grid points in enumeration order, and within
    a point the upper level row, the lower level row, then (rational models)
    the denominator positivity row.
    """
    if z < 0:
        raise ValueError("level z must be nonnegative")
    pts = f.points
    n_pts = pts.shape[0]
    gmat = basis_matrix(model.numerator, model.variables, pts)
    n_g = len(model.numerator)
    free_b = model.free_denominator_indices()
    n_free = n_g + len(free_b)
    n_vars = n_free + 1  # trailing u
    names = tuple(model.coefficient_names() + ["u"])

    hi = model.outer.inverse(f.values + z)
    lo = model.outer.inverse(f.values - z)

    if model.denominator is None:
        rows = np.zeros((2 * n_pts, n_vars))
        rhs = np.zeros(2 * n_pts)
        # A.G(x) - hi <= u
        rows[0::2, :n_g] = gmat
        rows[0::2, -1] = -1.0
        rhs[0::2] = hi
        # lo - A.G(x) <= u
        rows[1::2, :n_g] = -gmat
        rows[1::2, -1] = -1.0
        rhs[1::2] = -lo
    else:
        hmat = basis_matrix(model.denominator, model.variables, pts)
        idx, val = model.fixed_coefficient
        den_fixed = val * hmat[:, idx]
        h_free = hmat[:, free_b]
        rows = np.zeros((3 * n_pts, n_vars))
        rhs = np.zeros(3 * n_pts)
        # A.G(x) - hi * B.H(x) <= u
        rows[0::3, :n_g] = gmat
        rows[0::3, n_g:n_free] = -hi[:, None] * h_free
        rows[0::3, -1] = -1.0
        rhs[0::3] = hi * den_fixed
        # lo * B.H(x) - A.G(x) <= u
        rows[1::3, :n_g] = -gmat
        rows[1::3, n_g:n_free] = lo[:, None] * h_free
        rows[1::3, -1] = -1.0
        rhs[1::3] = -lo * den_fixed
        # -B.H(x) <= -delta, kept hard: it defines the model's domain
        rows[2::3, n_g:n_free] = -h_free
        rhs[2::3] = den_fixed - model.delta

    objective = np.zeros(n_vars)
    objective[-1] = 1.0
    return LinearProgram(objective, rows, rhs, names)


def write_lp_text(lp: LinearProgram, out: TextIO) -> None:
    """Plain inequality dump for cross-checking with external tools."""
    out.write("min " + " + ".join(
        f"{c:g} {n}" for c, n in zip(lp.objective, lp.names) if c != 0.0
    ) + "\n")
    for i in range(lp.row_count):
        terms = [
            f"{lp.rows[i, j]:+.17g} {lp.names[j]}"
            for j in range(lp.variable_count)
            if lp.rows[i, j] != 0.0
        ]
        lhs = " ".join(terms) if terms else "0"
        out.write(f"{lhs} <= {lp.rhs[i]:.17g}\n")
