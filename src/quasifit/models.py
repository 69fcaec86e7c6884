"""Approximation model classes.

A model is phi(r(x)) where phi is a strictly increasing outer function that
maps the reals onto the reals, and r is either a linear combination of
numerator basis functions or a ratio of two such combinations:

    r(x) = A . G(x)                    (linear-in-basis)
    r(x) = A . G(x) / B . H(x)         (generalised rational)

The denominator, when present, is normalised by hard-fixing one entry of B,
and must stay above a positivity margin delta on every evaluation point.
Surjectivity of phi onto the reals is required so that every deviation level
can be pulled back through phi inverse when the fit is linearised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import Expression, parse, power
from .grid import evaluate_at

__all__ = [
    "BasisSpec",
    "MonotoneOuter",
    "ModelClass",
    "Coefficients",
    "DenominatorPositivityError",
    "InfeasibleInitialCoefficientsError",
    "evaluate_model_values",
    "default_initial_coefficients",
    "basis_matrix",
]


class DenominatorPositivityError(ValueError):
    """Denominator dropped below the positivity margin at some point."""

    def __init__(self, point, value: float, delta: float):
        self.point = tuple(map(float, point))
        self.value = value
        super().__init__(f"denominator value {value} is below the margin {delta} at point {self.point}")


class InfeasibleInitialCoefficientsError(ValueError):
    """Default initialisation violates denominator positivity; carries the failing points."""

    def __init__(self, failing_points):
        pts = [tuple(map(float, p)) for p in failing_points]
        super().__init__(
            f"default denominator coefficients are infeasible at {len(pts)} point(s), "
            f"e.g. {pts[0]}; choose model.fixed_coefficient, model.delta or "
            "model.denominator_basis so that the fixed term alone clears the margin"
        )
        self.failing_points = pts


@dataclass(frozen=True)
class BasisSpec:
    """Ordered list of basis expressions over the domain variables."""

    functions: tuple[Expression, ...]

    def __post_init__(self):
        if len(self.functions) == 0:
            raise ValueError("basis must be nonempty")
        object.__setattr__(self, "functions", tuple(self.functions))

    @classmethod
    def from_sources(cls, sources: Sequence[str], variables: Sequence[str]) -> "BasisSpec":
        return cls(tuple(parse(s, list(variables)) for s in sources))

    def __len__(self) -> int:
        return len(self.functions)


@dataclass(frozen=True)
class MonotoneOuter:
    """Strictly increasing bijection of the reals t -> t**power, for one odd power.

    Power 1 is the identity.
    """

    power: int = 1

    def __post_init__(self):
        if not isinstance(self.power, int) or self.power < 1 or self.power % 2 == 0:
            raise ValueError("odd_power requires a positive odd integer power")

    @classmethod
    def identity(cls) -> "MonotoneOuter":
        return cls(1)

    @classmethod
    def odd_power(cls, p: int) -> "MonotoneOuter":
        return cls(p)

    def forward(self, t: float | np.ndarray) -> np.ndarray:
        """phi elementwise; odd powers use numpy's power."""
        t = np.asarray(t, dtype=float)
        return t if self.power == 1 else t**self.power

    def inverse(self, s: float | np.ndarray) -> np.ndarray:
        """phi inverse elementwise; odd roots use libm pow, as Python's float ** does."""
        s = np.asarray(s, dtype=float)
        if self.power == 1:
            return s
        return np.copysign(power(np.abs(s), 1.0 / self.power), s)


@dataclass(frozen=True)
class ModelClass:
    variables: tuple[str, ...]
    outer: MonotoneOuter
    numerator: BasisSpec
    denominator: BasisSpec | None = None
    fixed_coefficient: tuple[int, float] | None = None  # (index into B, value)
    delta: float = 1e-4

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if self.denominator is not None:
            if self.fixed_coefficient is None:
                raise ValueError("a denominator requires one fixed coefficient for normalisation")
            idx, val = self.fixed_coefficient
            if not (0 <= idx < len(self.denominator)):
                raise ValueError(f"fixed coefficient index {idx} out of range")
            object.__setattr__(self, "fixed_coefficient", (int(idx), float(val)))
        elif self.fixed_coefficient is not None:
            raise ValueError("fixed coefficient given without a denominator")
        if not (self.delta > 0):
            raise ValueError("delta must be positive")

    def free_denominator_indices(self) -> list[int]:
        if self.denominator is None:
            return []
        fixed = self.fixed_coefficient[0]
        return [j for j in range(len(self.denominator)) if j != fixed]

    def coefficient_names(self) -> list[str]:
        names = [f"a{i + 1}" for i in range(len(self.numerator))]
        names += [f"b{j + 1}" for j in self.free_denominator_indices()]
        return names

    def coefficients_from_free(self, free: Sequence[float]) -> "Coefficients":
        """Assemble full coefficients from the free entries, in LP variable order."""
        free = [float(v) for v in free]
        n_g = len(self.numerator)
        if len(free) != n_g + len(self.free_denominator_indices()):
            raise ValueError("wrong number of free coefficients")
        a = tuple(free[:n_g])
        if self.denominator is None:
            return Coefficients(a, None)
        b = [0.0] * len(self.denominator)
        idx, val = self.fixed_coefficient
        b[idx] = val
        for j, v in zip(self.free_denominator_indices(), free[n_g:]):
            b[j] = v
        return Coefficients(a, tuple(b))


@dataclass(frozen=True)
class Coefficients:
    numerator: tuple[float, ...]  # A
    denominator: tuple[float, ...] | None = None  # B, full vector including the fixed entry

    def __post_init__(self):
        object.__setattr__(self, "numerator", tuple(float(v) for v in self.numerator))
        if self.denominator is not None:
            object.__setattr__(self, "denominator", tuple(float(v) for v in self.denominator))


def _check_shapes(model: ModelClass, coeffs: Coefficients) -> None:
    if len(coeffs.numerator) != len(model.numerator):
        raise ValueError("numerator coefficient length does not match basis")
    if model.denominator is None:
        if coeffs.denominator is not None:
            raise ValueError("denominator coefficients given for a model without denominator")
        return
    if coeffs.denominator is None:
        raise ValueError("model has a denominator but no B coefficients were given")
    if len(coeffs.denominator) != len(model.denominator):
        raise ValueError("denominator coefficient length does not match basis")
    idx, val = model.fixed_coefficient
    if coeffs.denominator[idx] != val:
        raise ValueError(
            f"fixed denominator coefficient b{idx + 1} must equal {val}, "
            f"got {coeffs.denominator[idx]}"
        )


def basis_matrix(basis: BasisSpec, variables: Sequence[str], points: np.ndarray) -> np.ndarray:
    """Evaluate every basis function at every point: (N, len(basis)) array."""
    pts = np.atleast_2d(points)
    # filled in place, so one evaluated column at a time is alive next to the matrix
    out = np.empty((pts.shape[0], len(basis)), dtype=float)
    for j, fn in enumerate(basis.functions):
        out[:, j] = evaluate_at(fn, variables, pts)
    return out


def _combine(mat: np.ndarray, coeffs: Sequence[float]) -> np.ndarray:
    """mat @ coeffs summed column by column, so a row rounds alike in any batch."""
    r = mat[:, 0] * coeffs[0]
    for j in range(1, len(coeffs)):
        r = r + mat[:, j] * coeffs[j]
    return r


def evaluate_model_values(model: ModelClass, coeffs: Coefficients, points: np.ndarray) -> np.ndarray:
    """g(A, x) over an (N, d) point array; errors if the denominator dips below delta."""
    _check_shapes(model, coeffs)
    pts = np.atleast_2d(points)
    r = _combine(basis_matrix(model.numerator, model.variables, pts), coeffs.numerator)
    if model.denominator is not None:
        den = _combine(basis_matrix(model.denominator, model.variables, pts), coeffs.denominator)
        bad = den < model.delta * (1.0 - 1e-9) - 1e-12
        if np.any(bad):
            k = int(np.argmax(bad))
            raise DenominatorPositivityError(pts[k], float(den[k]), model.delta)
        r = r / den
    return model.outer.forward(r)


def default_initial_coefficients(model: ModelClass, points: np.ndarray | None = None) -> Coefficients:
    """A = 0 and B = 0 except the fixed entry.

    When evaluation points are supplied and the model is rational, the
    resulting denominator is checked against the positivity margin; failure
    raises with the offending points.
    """
    coeffs = model.coefficients_from_free([0.0] * len(model.coefficient_names()))
    if model.denominator is not None and points is not None:
        pts = np.atleast_2d(points)
        hmat = basis_matrix(model.denominator, model.variables, pts)
        den = _combine(hmat, coeffs.denominator)
        bad = den < model.delta
        if np.any(bad):
            raise InfeasibleInitialCoefficientsError(pts[bad])
    return coeffs
