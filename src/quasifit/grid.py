"""Finite evaluation domains: regular grids and explicit point clouds.

A fit never sees a continuous domain; the uniform norm is always taken over
an enumerated finite set of points.  Regular grids are described by
per-axis lower/upper bounds and step sizes, with both endpoints included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from .expr import EvaluationError, Expression, evaluate

__all__ = ["Grid", "SampledFunction", "enumerate_points", "evaluate_at", "sample", "export_csv", "write_csv"]

# rows per block of CSV output: every temporary of the writer has this many
# rows, never a whole column
_CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class Grid:
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    step: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        object.__setattr__(self, "step", tuple(float(v) for v in self.step))
        if not (len(self.lower) == len(self.upper) == len(self.step)):
            raise ValueError("lower, upper and step must have equal length")
        if len(self.lower) == 0:
            raise ValueError("grid must have at least one axis")
        for axis, (lo, hi, st) in enumerate(zip(self.lower, self.upper, self.step), 1):
            if not all(map(math.isfinite, (lo, hi, st))):
                raise ValueError(f"axis {axis}: lower {lo}, upper {hi} and step {st} must be finite")
            if not (lo <= hi):
                raise ValueError(f"lower bound {lo} exceeds upper bound {hi}")
            if not (st > 0):
                raise ValueError(f"step must be positive, got {st}")
            if not math.isfinite((hi - lo) / st):
                raise ValueError(f"axis {axis}: (upper - lower) / step = ({hi} - {lo}) / {st} is not finite")

    @property
    def dimension(self) -> int:
        return len(self.lower)

    def axis_counts(self) -> tuple[int, ...]:
        # floor with a small guard so that upper lands on the last point
        # despite rounding in (upper - lower) / step
        return tuple(
            int(np.floor((hi - lo) / st + 1e-9)) + 1
            for lo, hi, st in zip(self.lower, self.upper, self.step)
        )

    def cardinality(self) -> int:
        return math.prod(self.axis_counts())


def enumerate_points(grid: Grid) -> np.ndarray:
    """All grid points as an (N, d) array in lexicographic order, last axis fastest.

    Coordinates are computed as lower + k * step rather than by cumulative
    addition, so enumeration is bit-stable.
    """
    axes = [
        lo + np.arange(count, dtype=float) * st
        for lo, st, count in zip(grid.lower, grid.step, grid.axis_counts())
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    pts.setflags(write=False)
    return pts


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Target values on an enumerated finite domain, as read-only views of the arrays passed in."""

    points: np.ndarray  # (N, d)
    values: np.ndarray  # (N,)
    grid: Grid | None = field(default=None)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        vals = np.asarray(self.values, dtype=float).ravel()
        if pts.shape[0] != vals.shape[0]:
            raise ValueError("one value per point required")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        if self.grid is not None:
            if pts.shape != (self.grid.cardinality(), self.grid.dimension):
                raise ValueError("points do not match the attached grid's enumeration")
        for name, arr in (("points", pts), ("values", vals)):
            arr = arr.view()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_points(cls, points: Iterable[Sequence[float]], values: Iterable[float]) -> "SampledFunction":
        """Explicit point-cloud constructor for non-grid domains."""
        return cls(np.asarray(list(points), dtype=float), np.asarray(list(values), dtype=float))

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


def sample(f: Expression, grid: Grid, variables: Sequence[str]) -> SampledFunction:
    """Evaluate `f` at every grid point, in enumeration order."""
    pts = enumerate_points(grid)
    return SampledFunction(pts, evaluate_at(f, variables, pts), grid)


def evaluate_at(f: Expression, variables: Sequence[str], points: np.ndarray) -> np.ndarray:
    """`f` at every row of an (N, d) point array, one distinct name per column; a failure names its point."""
    if len(set(variables)) != len(variables):
        raise ValueError(f"variable names must be distinct, got {list(variables)}")
    if len(variables) != points.shape[1]:
        raise ValueError(f"points have {points.shape[1]} coordinates, but the variables are {list(variables)}")
    try:
        values = evaluate(f, dict(zip(variables, points.T)))
    except EvaluationError as exc:
        raise EvaluationError(f"{exc} at point {tuple(map(float, points[exc.index]))}", exc.index) from exc
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(np.argmax(bad))
        raise EvaluationError(f"non-finite value {values[k]} at point {tuple(map(float, points[k]))}", k)
    return values


def export_csv(sf: SampledFunction, out: TextIO) -> None:
    """One row per point, columns x1..xd,f."""
    write_csv(out, sf.points, {"f": sf.values})


def write_csv(out: TextIO, points: np.ndarray, columns: Mapping[str, np.ndarray]) -> None:
    """One row per point: coordinates x1..xd, then the named value columns.

    Each cell is the `repr` of the value as a Python float, so `float(cell)`
    gives back the exact double.  Rows are written in blocks of
    `_CSV_BLOCK_ROWS`, and each column of a block formats each distinct
    value once: grid axes repeat few values.  Values are told apart by
    their bits, which keeps -0.0 and 0.0 apart.
    """
    out.write(",".join([f"x{i + 1}" for i in range(points.shape[1])] + list(columns)) + "\n")
    cols = [np.asarray(col, dtype=float) for col in [*points.T, *columns.values()]]
    for start in range(0, points.shape[0], _CSV_BLOCK_ROWS):
        cells = []
        for col in cols:
            block = col[start : start + _CSV_BLOCK_ROWS].view(np.int64)
            bits, inverse = np.unique(block, return_inverse=True)
            text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
            cells.append(text[inverse].tolist())
        # two writes: `... + "\n"` copies the block once more, and with that
        # copy the coarse-to-fine benchmark's peak RSS reached 60 MB in some
        # checkouts (glibc heap fragmentation), against 56.4-57.4 MB without
        out.write("\n".join(map(",".join, zip(*cells))))
        out.write("\n")
