"""Alternation counts and defect arithmetic for univariate optimality checks.

A best uniform fit is certified by points of near-maximal residual with
alternating signs; `required_count` says how many a rational fit of nominal
degrees (n, m) and defect d needs, and a degree-n polynomial is its case
m = d = 0.  On a finite grid the continuous maximal-deviation points are
only hit approximately, so a point qualifies when its residual is within a
relative threshold tau of the maximum.
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
    "required_count",
    "effective_degree",
]

_REL_TOL = 1e-8  # a coefficient below this fraction of the norm does not raise the degree


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

    near = np.flatnonzero(np.abs(vals) >= (1.0 - tau) * max_abs)
    mags = np.abs(vals[near])
    signs = np.where(vals[near] > 0, 1, -1)  # -0.0 counts as negative
    starts = np.flatnonzero(np.diff(signs, prepend=0))  # where each same-sign run begins
    # one representative per run: its largest |v|, the first on ties (lexsort is stable)
    runs = np.repeat(np.arange(starts.size), np.diff(starts, append=near.size))
    points = near[np.lexsort((-mags, runs))[starts]]
    return AlternationReport(tuple(points.tolist()), tuple(signs[starts].tolist()), starts.size, max_abs)


def required_count(n: int, m: int, d: int) -> int:
    """Alternating points that certify a best fit of nominal degrees (n, m) with defect d."""
    return n + m + 2 - d


def check_rational_optimality(n: int, m: int, d: int, report: AlternationReport) -> bool:
    """Whether the report has the `required_count(n, m, d)` alternations a best fit needs."""
    return report.count >= required_count(n, m, d)


def check_polynomial_optimality(n: int, report: AlternationReport) -> bool:
    """The rational check with m = d = 0: a degree-n polynomial needs n + 2 points."""
    return check_rational_optimality(n, 0, 0, report)


def compute_defect(n: int, m: int, p: int, q: int) -> DefectInfo:
    """Defect from nominal degrees (n, m) and post-cancellation degrees (p, q)."""
    if p > n:
        raise ValueError(f"actual numerator degree {p} exceeds nominal {n}")
    if q > m:
        raise ValueError(f"actual denominator degree {q} exceeds nominal {m}")
    return DefectInfo(n, m, p, q)


def effective_degree(coefficients) -> int:
    """Largest index whose coefficient is at least `_REL_TOL` times the vector norm.

    Coefficients are in ascending degree order.  The zero vector reports
    degree 0.
    """
    c = np.asarray(list(coefficients), dtype=float)
    scale = float(np.linalg.norm(c))
    if scale == 0.0:
        return 0
    significant = np.flatnonzero(np.abs(c) >= _REL_TOL * scale)
    return int(significant[-1]) if significant.size else 0
