"""Alternation counts and defect arithmetic for univariate optimality checks.

A best uniform polynomial fit of degree n is certified by n+2 points of
near-maximal residual with alternating signs; a rational fit with numerator
degree n, denominator degree m and defect d needs n+m+2-d.  On a finite grid
the continuous maximal-deviation points are only hit approximately, so a
point qualifies when its residual is within a relative threshold tau of the
maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SampledFunction

__all__ = [
    "AlternationReport",
    "DefectInfo",
    "extract_alternations",
    "check_polynomial_optimality",
    "check_rational_optimality",
    "compute_defect",
    "effective_degree",
]


@dataclass(frozen=True)
class AlternationReport:
    point_indices: tuple[int, ...]  # one representative per sign block
    signs: tuple[int, ...]
    count: int
    max_abs_residual: float
    exact_fit: bool = False


@dataclass(frozen=True)
class DefectInfo:
    nominal_numerator_degree: int  # n
    nominal_denominator_degree: int  # m
    actual_numerator_degree: int  # p
    actual_denominator_degree: int  # q

    @property
    def defect(self) -> int:
        return min(
            self.nominal_numerator_degree - self.actual_numerator_degree,
            self.nominal_denominator_degree - self.actual_denominator_degree,
        )


def extract_alternations(residuals: SampledFunction, tau: float = 1e-3) -> AlternationReport:
    """Longest sign-alternating subsequence of near-maximal residuals.

    The domain must be one-dimensional with strictly increasing coordinates.
    Residuals that are zero everywhere yield the distinguished exact-fit
    report, whose count is the grid size by convention (every point attains
    the zero maximal deviation).
    """
    if residuals.dimension != 1:
        raise ValueError("alternation extraction is defined for 1-D domains only")
    coords = residuals.points[:, 0]
    if np.any(np.diff(coords) <= 0):
        raise ValueError("grid coordinates must be strictly increasing")
    if not (0 <= tau < 1):
        raise ValueError("tau must lie in [0, 1)")

    vals = residuals.values
    max_abs = float(np.max(np.abs(vals)))
    if max_abs == 0.0:
        return AlternationReport((), (), len(vals), 0.0, exact_fit=True)

    threshold = (1.0 - tau) * max_abs
    points: list[int] = []
    signs: list[int] = []
    last_sign = 0
    block_best = -1.0
    for k, v in enumerate(vals):
        if abs(v) < threshold:
            continue
        s = 1 if v > 0 else -1
        if s != last_sign:
            points.append(k)
            signs.append(s)
            last_sign = s
            block_best = abs(v)
        elif abs(v) > block_best:
            # same-sign run: keep the strongest representative
            points[-1] = k
            block_best = abs(v)
    return AlternationReport(tuple(points), tuple(signs), len(points), max_abs)


def check_polynomial_optimality(n: int, report: AlternationReport) -> bool:
    """Degree-n polynomial fits need n + 2 alternating points."""
    return report.count >= n + 2


def check_rational_optimality(n: int, m: int, d: int, report: AlternationReport) -> bool:
    """Rational fits with defect d need n + m + 2 - d alternating points."""
    return report.count >= n + m + 2 - d


def compute_defect(n: int, m: int, p: int, q: int) -> DefectInfo:
    """Defect from nominal degrees (n, m) and post-cancellation degrees (p, q)."""
    if p > n:
        raise ValueError(f"actual numerator degree {p} exceeds nominal {n}")
    if q > m:
        raise ValueError(f"actual denominator degree {q} exceeds nominal {m}")
    return DefectInfo(n, m, p, q)


def effective_degree(coefficients, rel_tol: float = 1e-8) -> int:
    """Largest index whose coefficient is significant against the vector norm.

    Coefficients are in ascending degree order.  The zero vector reports
    degree 0.
    """
    c = np.asarray(list(coefficients), dtype=float)
    scale = float(np.linalg.norm(c))
    if scale == 0.0:
        return 0
    significant = np.flatnonzero(np.abs(c) >= rel_tol * scale)
    return int(significant[-1]) if significant.size else 0
