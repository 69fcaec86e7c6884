"""Bisection on the deviation level with the LP emptiness oracle.

The uniform error of a quasiaffine model is a quasiconvex function of the
coefficients, so its sublevel sets are nested polytopes.  Starting from the
bracket [0, u0], where u0 = max|f| is the deviation of the zero numerator
(the start A = 0, B = 0 but for its fixed entry), each step solves the
level-z feasibility LP at the midpoint: optimum u* <= 0 means the level set
is nonempty, so the upper bound moves down to z and the solution is kept;
otherwise the lower bound moves up to z.  The bracket halves exactly, so
the loop runs ceil(log2(u0 / epsilon)) times; an epsilon below 2 ulp of u0
is refused, since doubles cannot bisect that finely.

Consecutive level LPs differ only in hi and lo, so each level's solve starts
from the optimal basis of the one before.  For an affine model the dual's
feasible region does not depend on z, and that basis is always a feasible
start; for a rational one it moves with z only through the denominator
columns, and `solve` starts from scratch when the basis is no longer feasible.

The coefficients returned are those of the last feasible oracle call, and
the reported deviation is recomputed from them by direct evaluation, which
is the honest number when the LP stops inside its own tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import SampledFunction
from .linearize import LevelProblem, build_feasibility_lp
from .models import Coefficients, ModelClass, default_initial_coefficients, evaluate_model_values
from .simplex import INFEASIBLE, OPTIMAL, LpSolution, solve

__all__ = ["FitResult", "TraceEntry", "FitError", "fit", "certify_bracket", "expected_iterations"]


class FitError(RuntimeError):
    """Fit could not start or the oracle returned an impossible verdict."""


@dataclass(frozen=True)
class TraceEntry:
    z: float
    feasible: bool
    lp_objective: float
    pivots: int


@dataclass
class FitResult:
    coefficients: Coefficients
    lower: float
    upper: float
    achieved_deviation: float
    iterations: int
    model_values: np.ndarray  # the final model at every point, behind achieved_deviation
    trace: list[TraceEntry] = field(default_factory=list)

    @property
    def certified_bounds(self) -> tuple[float, float]:
        return (self.lower, self.upper)


def _oracle(
    problem: LevelProblem, z: float, start: np.ndarray | None = None
) -> tuple[bool, Coefficients | None, LpSolution]:
    """Decide level-z emptiness; when nonempty also return witness coefficients."""
    lp = build_feasibility_lp(problem, z)
    sol = solve(lp, start=start)
    if sol.status == OPTIMAL:
        if sol.objective <= 0.0:
            return True, problem.model.coefficients_from_free(sol.solution[:-1]), sol
        return False, None, sol
    if sol.status == INFEASIBLE:
        # positivity rows do not depend on z and the start was feasible
        raise FitError(
            f"oracle reported an infeasible LP at level z={z}, which contradicts "
            "the feasible starting coefficients"
        )
    raise FitError(f"LP oracle failed with status {sol.status!r} at level z={z}")


def fit(model: ModelClass, f: SampledFunction, epsilon: float = 1e-6) -> FitResult:
    """Minimise the uniform deviation of the model over the sampled function."""
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    initial = default_initial_coefficients(model, f.points)
    # the start's numerator is +-0 at every point, and so is phi of it
    u0 = float(np.max(np.abs(f.values)))
    if u0 > epsilon and epsilon < 2.0 * np.spacing(u0):
        # while the bracket is wider than 2 ulp(u0), its rounded midpoint lies strictly inside
        raise ValueError(f"epsilon {epsilon!r} is below 2 ulp of max|f| = {u0!r}, "
                         "finer than a bisection in doubles can go")

    lower = 0.0
    upper = u0
    best: Coefficients | None = None
    trace: list[TraceEntry] = []
    problem = LevelProblem(model, f)
    basis = None
    while upper - lower > epsilon:
        z = 0.5 * (upper + lower)
        feasible, coeffs, sol = _oracle(problem, z, basis)
        basis = sol.basis
        trace.append(TraceEntry(z, feasible, sol.objective, sol.iterations))
        if feasible:
            upper = z
            best = coeffs
        else:
            lower = z

    final = best if best is not None else initial
    g = evaluate_model_values(model, final, f.points)
    achieved = float(np.max(np.abs(f.values - g)))
    return FitResult(final, lower, upper, achieved, len(trace), g, trace)


def expected_iterations(u0: float, epsilon: float) -> int:
    """ceil(log2(u0 / epsilon)), the exact bisection step count."""
    if u0 <= epsilon:
        return 0
    return int(np.ceil(np.log2(u0 / epsilon)))


def certify_bracket(
    model: ModelClass, f: SampledFunction, result: FitResult, epsilon: float
) -> tuple[bool, bool | None]:
    """Post-hoc oracle certificate for a finished fit.

    Returns (upper_feasible, lower_infeasible): the level u + epsilon must be
    feasible, and when l > 0 the level l - min(epsilon, l/2) must be
    infeasible.  The second entry is None when l = 0.
    """
    problem = LevelProblem(model, f)
    up_ok, _, _ = _oracle(problem, result.upper + epsilon)
    if result.lower <= 0.0:
        return up_ok, None
    probe = result.lower - min(epsilon, result.lower / 2.0)
    low_feasible, _, _ = _oracle(problem, probe)
    return up_ok, not low_feasible
