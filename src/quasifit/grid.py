"""Finite evaluation domains: regular grids and explicit point clouds.

A fit never sees a continuous domain; the uniform norm is always taken over
an enumerated finite set of points.  Regular grids are described by
per-axis lower/upper bounds and step sizes, with both endpoints included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .expr import EvaluationError, Expression, _evaluator, _product
from .floattext import WIDTH, repr_bytes

__all__ = ["Grid", "SampledFunction", "enumerate_points", "evaluate_columns", "sample", "export_csv", "write_csv"]

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
    return SampledFunction(pts, next(evaluate_columns([f], variables, pts)), grid)


def evaluate_columns(fs: Sequence[Expression], variables: Sequence[str], points: np.ndarray) -> Iterator[np.ndarray]:
    """Each of `fs` at every row of an (N, d) point array, in turn: a new (N,) array per expression.

    Variable k reads column k of the points, and the names must be distinct.
    The points' product is found once for all expressions.  An evaluation
    failure, or else a non-finite value, raises `EvaluationError` naming its
    point when its expression's turn comes, so the first expression's error
    comes before the second's.
    """
    if len(set(variables)) != len(variables):
        raise ValueError(f"variable names must be distinct, got {list(variables)}")
    if len(variables) != points.shape[1]:
        raise ValueError(f"points have {points.shape[1]} coordinates, but the variables are {list(variables)}")
    evaluate_here = _evaluator(dict(zip(variables, points.T)))
    for f in fs:
        try:
            values = evaluate_here(f)
        except EvaluationError as exc:
            raise EvaluationError(f"{exc} at point {tuple(map(float, points[exc.index]))}", exc.index) from exc
        bad = ~np.isfinite(values)
        if bad.any():
            k = int(np.argmax(bad))
            raise EvaluationError(f"non-finite value {values[k]} at point {tuple(map(float, points[k]))}", k)
        yield values


def export_csv(sf: SampledFunction, out: TextIO) -> None:
    """One row per point, columns x1..xd,f, each cell `repr`'s text of its value (see `write_csv`)."""
    write_csv(out, sf.points, {"f": sf.values})


def write_csv(out: TextIO, points: np.ndarray, columns: Mapping[str, np.ndarray]) -> None:
    """One row per point: coordinates x1..xd, then the named value columns.

    Each cell holds the bytes of `repr` of the value as a Python float, so
    `float(cell)` gives back the exact double.  `floattext.repr_bytes`
    computes them in numpy, with Schubfach's shortest digits (Giulietti,
    2020), each text zero-padded to a fixed width.  Rows go out in blocks
    of `_CSV_BLOCK_ROWS`, and each block's cells are formatted in one call.
    When the points enumerate a Cartesian product, as a grid's do
    (`expr._product`), each axis value is formatted once, in the first
    block's call, and each block gathers the axis texts by row index; a
    later block with no value columns formats nothing.  A block's texts
    sit in fixed-width slots, each ending in its separator, and one boolean
    compress drops the padding, so the block is written as one string and
    every temporary holds a block or an axis, never a whole column.
    """
    names = [f"x{i + 1}" for i in range(points.shape[1])]
    out.write(",".join(names + list(columns)) + "\n")
    n = points.shape[0]
    axes, counts = _product(dict(zip(names, np.asarray(points, dtype=float).T)), n)
    # an axis smaller than the column repeats its values; off a product every axis is a whole column
    repeated = [(j, a.reshape(-1), math.prod(counts[j + 1 :])) for j, a in enumerate(axes.values()) if a.size < n]
    whole = [(j, a.reshape(-1)) for j, a in enumerate(axes.values()) if a.size == n]
    whole += [(len(names) + j, np.asarray(c, dtype=float)) for j, c in enumerate(columns.values())]
    slots = np.zeros((min(n, _CSV_BLOCK_ROWS), len(names) + len(columns), WIDTH + 1), np.uint8)
    slots[:, :, WIDTH] = ord(",")
    slots[:, -1, WIDTH] = ord("\n")
    for start in range(0, n, _CSV_BLOCK_ROWS):
        rows = min(n - start, _CSV_BLOCK_ROWS)
        cells = [c[start : start + rows] for _, c in whole]
        if start == 0:  # the axes' values go into the first block's call
            cells += [a for _, a, _ in repeated]
        block = slots[:rows]
        if cells:  # a later block of a grid with no value columns has only axis texts
            texts = repr_bytes(np.concatenate(cells))
            for i, (j, _) in enumerate(whole):
                block[:, j, :WIDTH] = texts[i * rows : (i + 1) * rows]
            if start == 0:
                axis_texts = texts[rows * len(whole) :].copy()
        index, offset = np.arange(start, start + rows), 0
        for j, a, run in repeated:
            block[:, j, :WIDTH] = axis_texts.take(offset + index // run % a.size, axis=0)
            offset += a.size
        out.write(str(block[block > 0], "ascii"))
