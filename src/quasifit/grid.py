"""Finite evaluation domains: regular grids and explicit point clouds.

A fit never sees a continuous domain; the uniform norm is always taken over
an enumerated finite set of points.  Regular grids are described by
per-axis lower/upper bounds and step sizes, with both endpoints included.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .expr import EvaluationError, Expression, _evaluator, _product
from .floattext import WIDTH, repr_bytes

__all__ = ["Grid", "SampledFunction", "enumerate_points", "evaluate_columns", "sample", "export_csv", "write_csv"]

# rows per block of CSV output: every temporary of the writer has this many
# rows, never a whole column; a block's texts, then its slots and their
# compress, stay under 2 MB on a 160,801-point grid
_CSV_BLOCK_ROWS = 3072


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
    counts = grid.axis_counts()
    pts = np.empty((*counts, grid.dimension))
    for k, (lo, st, count) in enumerate(zip(grid.lower, grid.step, counts)):
        axis = lo + np.arange(count, dtype=float) * st
        pts[..., k] = axis.reshape([-1 if j == k else 1 for j in range(len(counts))])  # broadcast to every point
    pts = pts.reshape(-1, grid.dimension)
    pts.setflags(write=False)
    return pts


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Target values on an enumerated finite domain, as read-only views of the arrays passed in."""

    points: np.ndarray  # (N, d)
    values: np.ndarray  # (N,)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        vals = np.asarray(self.values, dtype=float).ravel()
        if pts.shape[0] != vals.shape[0]:
            raise ValueError("one value per point required")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
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
    return SampledFunction(pts, next(evaluate_columns([f], variables, pts)))


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
    A block's texts sit in fixed-width slots, each ending in its separator,
    and one boolean compress drops the padding, so the block is written as
    one string and every temporary holds a block or an axis, never a whole
    column.

    When the points enumerate a Cartesian product, as a grid's do
    (`expr._product`), each axis value is formatted once, in the first
    block's call, and an axis's slots are only as wide as its longest text.
    An axis's column repeats its period: each text in a run as long as the
    axes after it have points.  A block copies the axis's cells as one
    slice of that period, tiled to a block past it but never past the
    table's rows, or else, where the period is longer than a block and its
    runs longer than a row, run by run, each broadcast from its one text.
    A later block with no value columns formats nothing.

    The bytes and their order are those of a row-by-row writer.  When a
    write raises, nothing is written after it, and `write_csv` raises that
    exception.
    """
    names = [f"x{i + 1}" for i in range(points.shape[1])]
    out.write(",".join(names + list(columns)) + "\n")
    n = points.shape[0]
    axes, counts = _product(dict(zip(names, np.asarray(points, dtype=float).T)), n)
    # an axis smaller than the column repeats its values; off a product every axis is a whole column
    repeated = [(j, a.reshape(-1), math.prod(counts[j + 1 :])) for j, a in enumerate(axes.values()) if a.size < n]
    whole = [(j, a.reshape(-1)) for j, a in enumerate(axes.values()) if a.size == n]
    whole += [(len(names) + j, np.asarray(c, dtype=float)) for j, c in enumerate(columns.values())]
    for start in range(0, n, _CSV_BLOCK_ROWS):
        rows = min(n - start, _CSV_BLOCK_ROWS)
        cells = [c[start : start + rows] for _, c in whole]
        if start == 0:  # the axes' values go into the first block's call
            cells += [a for _, a, _ in repeated]
        # a later block of a grid with no value columns has only axis texts
        texts = repr_bytes(np.concatenate(cells)) if cells else None
        if start == 0:
            slots, slot, axis_cells = _csv_slots(texts[rows * len(whole) :], repeated, len(names) + len(columns), n)
        block = slots[:rows]
        for i, (j, _) in enumerate(whole):
            block[:, slot[j]] = texts[i * rows : (i + 1) * rows]
        del texts  # not held while the block is compressed
        for j, axis in axis_cells:
            axis.fill(block[:, slot[j]], start)
        out.write(str(block[block > 0], "ascii"))


def _csv_slots(axis_texts: np.ndarray, repeated: list, columns: int, rows: int) -> tuple:
    """A block's slots for a `write_csv` table of `rows` rows, each column's slice of them,
    and the cells of each repeated axis, from the axes' texts.  A value column's slot is
    `WIDTH` wide, a repeated axis's as wide as its longest text; each ends in its separator."""
    widths, axis_cells, offset = [WIDTH] * columns, [], 0
    lengths = np.count_nonzero(axis_texts, axis=1)
    for j, a, run in repeated:
        widths[j] = int(lengths[offset : offset + a.size].max())
        axis_cells.append((j, _AxisCells(axis_texts[offset : offset + a.size, : widths[j]], run, rows)))
        offset += a.size
    ends = list(itertools.accumulate(w + 1 for w in widths))
    slots = np.zeros((min(rows, _CSV_BLOCK_ROWS), ends[-1]), np.uint8)
    slots[:, [end - 1 for end in ends]] = ord(",")
    slots[:, -1] = ord("\n")
    return slots, [slice(end - w - 1, end - 1) for end, w in zip(ends, widths)], axis_cells


class _AxisCells:
    """The cells of one repeated axis of a `write_csv` table of `rows` rows."""

    def __init__(self, texts: np.ndarray, run: int, rows: int):
        self.run, self.period = run, run * len(texts)
        self.texts = self.table = None
        if run == 1 or self.period <= _CSV_BLOCK_ROWS:  # the table is at most an axis and a block long
            tiled = min(rows, self.period - 1 + _CSV_BLOCK_ROWS)
            self.table = np.resize(np.repeat(texts, run, axis=0), (tiled, texts.shape[1]))
        else:
            self.texts = texts.copy()  # not a view of the first block's texts

    def fill(self, cells: np.ndarray, start: int) -> None:
        """The axis's column from row `start` on, into `cells`."""
        if self.table is not None:
            first = start % self.period
            cells[...] = self.table[first : first + len(cells)]
        else:  # a block within a longer period
            run = self.run
            for r in range(start // run, (start + len(cells) - 1) // run + 1):
                cells[max(r * run - start, 0) : (r + 1) * run - start] = self.texts[r % len(self.texts)]
