"""Finite-instance computations for set-theoretic convexity.

Everything here is exhaustive and exact over a finite ground set: families
of subsets play the role of convexity structures, and tables of extended-
real-valued functions play the role of generating families of elementary
functions.  A function is "generated-convex" when it is the pointwise
supremum of table rows; the family of support sets of such functions is
always intersection-stable, every closure space arises that way from its
indicator lift, and sandwiching sets between strict and ordinary support
sets extends the family to a full convexity structure.  The map sending a
set of rows to the support set of its supremum is a closure operator whose
closed sets are exactly the generated support sets, so both families are
enumerated from the closed sets alone.  Hulls and Caratheodory numbers are
computed exhaustively; every enumeration runs under an explicit size guard.

Subsets are frozensets of element indices in the API; extended reals are
floats with math.inf for plus infinity and -math.inf as the bottom element
produced by empty suprema.  No arithmetic ever mixes the two infinities:
only comparisons and pointwise max occur.

The enumerations work on bitmasks instead: a set of indices is the int
with bit i set for each member i (Python ints, so any ground size fits;
numpy int64 arrays only where a size guard keeps the width at most 20).
For a table of k rows on n points, cover[j, x] is the mask of the rows i
with row_j(x) >= row_i(x).  Row i lies below the supremum of a nonempty
row set S exactly when some row of S covers it at every x, so cl(S) is
the AND over x of the OR of cover[j, x] over j in S.  Those ORs come from
per-point byte tables, built by doubling: entry [c, b, x] is the OR of
cover[8c + t, x] over the bits t of the byte b, so closing a batch of row
sets is one table lookup per byte of the row masks, an OR across the
bytes and an AND across the points (the bit-parallel table method of
Arlazarov, Dinic, Kronrod and Faradzev).  The empty set's closure is the
set of rows that are -inf everywhere.  The closed sets are found in
passes, each closing every one-row extension of the sets the pass before
found, a batch at a time; two bool bitmaps over all 2^k masks record the
sets found so far and those found in the current pass, so a set reached
many times is kept and extended once.  The strict support set of sup(S)
is the same closure over a second table whose cover holds the rows
strictly below row j at x, or every row where row_j(x) is +inf.  Every set
between a strict and an ordinary support set is expanded from the gap
bits in k vectorised passes and marked in a third bitmap.  Masks become
frozensets as unions of one piece per byte, each from a 256-entry table
of frozensets.  Caratheodory numbers come from a table of the hulls of
all 2^n subsets, built by a superset-AND transform: start from each
member's own mask (the full mask elsewhere) and, for each bit b, AND
every subset without b with its superset with b, n vectorised passes over
a 2^n array.  Every table is built on first use.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "GroundSet",
    "ConvexityFamily",
    "FunctionTable",
    "SizeGuardError",
    "is_closure_space",
    "is_convexity_structure",
    "hull",
    "support_set",
    "strict_support_set",
    "sup_of_rows",
    "l_convex_envelope",
    "indicator_lift",
    "sorted_members",
    "l_convex_sets",
    "convexity_extension",
    "caratheodory_number",
    "family_over_rows",
    "parse_family_text",
    "parse_function_table_csv",
]

INF = math.inf
_BLOCK = 1 << 13  # elements in the largest temporary array of one enumeration pass


class SizeGuardError(ValueError):
    """Instance exceeds the exhaustive-enumeration size guard."""


@dataclass(frozen=True)
class GroundSet:
    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        if len(labels) == 0:
            raise ValueError("ground set must be nonempty")
        if len(set(labels)) != len(labels):
            raise ValueError("ground set labels must be distinct")
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown element label {label!r}") from None

    def full(self) -> frozenset[int]:
        return frozenset(range(self.size))


@dataclass(frozen=True)
class ConvexityFamily:
    ground: GroundSet
    members: frozenset[frozenset[int]]

    def __post_init__(self):
        members = frozenset(frozenset(m) for m in self.members)
        full = self.ground.full()
        for m in members:
            if not m <= full:
                raise ValueError(f"member {sorted(m)} is not a subset of the ground set")
        object.__setattr__(self, "members", members)

    def member_labels(self) -> list[list[str]]:
        return [[self.ground.labels[i] for i in sorted(m)] for m in sorted_members(self)]


@dataclass(frozen=True)
class FunctionTable:
    """Rows are functions on the ground set with values in the extended reals."""

    ground: GroundSet
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(float(v) for v in row) for row in self.rows)
        for row in rows:
            if len(row) != self.ground.size:
                raise ValueError("row length must equal the ground set size")
            for v in row:
                if math.isnan(v):
                    raise ValueError("NaN is not an extended real value")
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.rows)


def is_closure_space(family: ConvexityFamily) -> bool:
    """Empty set and ground present, closed under pairwise intersection.

    Finite induction extends pairwise stability to arbitrary intersections.
    """
    masks = [_mask(m) for m in family.members]
    members = set(masks)
    if 0 not in members or (1 << family.ground.size) - 1 not in members:
        return False
    return all(members.issuperset({a & b for b in masks[i + 1 :]}) for i, a in enumerate(masks))


def is_convexity_structure(family: ConvexityFamily) -> bool:
    """Closure space plus stability of nested unions.

    A finite chain has a maximum, so its union is that maximum and the axiom
    holds automatically for any finite closure space.
    """
    return is_closure_space(family)


def hull(family: ConvexityFamily, subset: Iterable[int]) -> frozenset[int]:
    """Intersection of all members containing the subset."""
    s = frozenset(subset)
    result: frozenset[int] | None = None
    for m in family.members:
        if s <= m:
            result = m if result is None else result & m
    if result is None:
        raise ValueError(f"no family member contains {sorted(s)}")
    return result


def sup_of_rows(table: FunctionTable, indices: Iterable[int]) -> tuple[float, ...]:
    """Pointwise supremum of selected rows; the empty supremum is the bottom row."""
    chosen = [table.rows[i] for i in indices]
    if not chosen:
        return tuple(-INF for _ in range(table.ground.size))
    return tuple(max(col) for col in zip(*chosen))


def support_set(table: FunctionTable, f: Sequence[float]) -> frozenset[int]:
    """Indices of rows lying pointwise at or below f."""
    f = tuple(float(v) for v in f)
    if len(f) != table.ground.size:
        raise ValueError("function length must equal the ground set size")
    return frozenset(
        i for i, row in enumerate(table.rows) if all(r <= v for r, v in zip(row, f))
    )


def strict_support_set(table: FunctionTable, f: Sequence[float]) -> frozenset[int]:
    """Rows strictly below f on the domain of f (where f is finite).

    A function that is plus infinity everywhere has empty domain, so the
    condition is vacuous and every row qualifies.
    """
    f = tuple(float(v) for v in f)
    if len(f) != table.ground.size:
        raise ValueError("function length must equal the ground set size")
    dom = [x for x, v in enumerate(f) if v < INF]
    return frozenset(
        i for i, row in enumerate(table.rows) if all(row[x] < f[x] for x in dom)
    )


def l_convex_envelope(table: FunctionTable, f: Sequence[float]) -> tuple[float, ...]:
    """Pointwise sup of the support rows of f; equals f exactly when f is generated-convex."""
    return sup_of_rows(table, support_set(table, f))


def sorted_members(family: ConvexityFamily) -> list[frozenset[int]]:
    """Canonical member order: by cardinality, then sorted index tuples."""
    return sorted(family.members, key=lambda s: (len(s), sorted(s)))


def indicator_lift(family: ConvexityFamily) -> FunctionTable:
    """One row per member in canonical order: 0 on the member, +inf off it."""
    n = family.ground.size
    rows = []
    for m in sorted_members(family):
        rows.append(tuple(0.0 if x in m else INF for x in range(n)))
    return FunctionTable(family.ground, tuple(rows))


def _mask(subset: Iterable[int]) -> int:
    """The bitmask of a set of indices."""
    return sum(1 << i for i in subset)


@functools.cache
def _byte_sets(c: int) -> tuple[frozenset[int], ...]:
    """The 256 index sets of one byte of a mask: entry b holds 8c + t for each bit t of b."""
    return tuple(frozenset(8 * c + t for t in range(8) if b >> t & 1) for b in range(256))


def _sets(masks: np.ndarray, width: int) -> frozenset[frozenset[int]]:
    """The index sets of an int array of bitmasks, each a union of one piece per byte."""
    pieces = [map(_byte_sets(c).__getitem__, (masks >> 8 * c & 255).tolist())
              for c in range(max(1, -(-width // 8)))]
    return frozenset(pieces[0] if len(pieces) == 1 else map(frozenset.union, *pieces))


def _closure_tables(values: np.ndarray, above) -> np.ndarray:
    """(bytes, 256, n) int64 tables of row masks for closing a row set one byte at a time.

    cover[j, x] is the mask of rows i with above(row_j(x), row_i(x)); entry
    [c, b, x] is the union of cover[8c + t, x] over the bits t of b.  Rows
    past k cover nothing, and columns [2^t, 2^(t+1)) are columns [0, 2^t)
    with the cover of bit t added.
    """
    k, n = values.shape
    weights = np.left_shift(1, np.arange(k, dtype=np.int64))
    cover = np.zeros((8 * max(1, -(-k // 8)), n), dtype=np.int64)
    cover[:k] = np.einsum("jix,i->jx", above(values[:, None, :], values[None, :, :]), weights)
    cover = cover.reshape(-1, 8, 1, n)
    tables = np.zeros((len(cover), 256, n), dtype=np.int64)
    for t in range(8):
        tables[:, 1 << t : 2 << t] = tables[:, : 1 << t] | cover[:, t]
    return tables


def _close(sets: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """For each set S, the rows i such that at every x some row of S covers row i."""
    reached = tables[0][sets & 255]
    for c in range(1, len(tables)):
        reached |= tables[c][sets >> 8 * c & 255]
    return np.bitwise_and.reduce(reached, axis=1)


def _values(table: FunctionTable) -> np.ndarray:
    """The (k, n) float array of the table's rows."""
    return np.array(table.rows, dtype=float).reshape(len(table), table.ground.size)


def _closed_masks(values: np.ndarray) -> np.ndarray:
    """Sorted masks of the closed sets of cl(S) = support_set(sup_of_rows(S)).

    Enumerated from cl(empty set), the rows that are -inf everywhere, by
    closing each set found with one more row until no new set appears.
    Every closed set is reached one row at a time because cl(cl(A) | {i})
    == cl(A | {i}).  Each pass extends the sets the pass before found: the
    k one-row extensions of a batch of them are closed together, and two
    bitmaps over all 2^k masks mark the sets found so far and in this pass,
    so a set closed many times is kept once.  A pass adds at least one row,
    so there are at most k + 1 passes.
    """
    k, n = values.shape
    tables = _closure_tables(values, np.greater_equal)
    bits = np.left_shift(1, np.arange(k, dtype=np.int64))
    bottom = (values == -INF).all(axis=1) @ bits
    found = np.zeros(1 << k, dtype=bool)
    fresh = np.zeros(1 << k, dtype=bool)  # found in the last pass, not yet extended
    found[bottom] = fresh[bottom] = True
    step = max(1, _BLOCK // max(1, k * n))
    while (pending := np.flatnonzero(fresh)).size:
        fresh[:] = False
        for lo in range(0, len(pending), step):
            extensions = (pending[lo : lo + step, None] | bits).ravel()
            closures = _close(extensions[~found[extensions]], tables)
            new = closures[~found[closures]]
            found[new] = fresh[new] = True
    return np.flatnonzero(found)


def l_convex_sets(table: FunctionTable) -> frozenset[frozenset[int]]:
    """Support sets of every pointwise supremum of rows.

    These are the closed sets of cl(S) = support_set(sup_of_rows(S)); the
    work is (closed sets) x (rows) closures, and closed sets can still
    number 2^k, hence the guard.
    """
    k = len(table)
    if k > 20:
        raise SizeGuardError(f"l_convex_sets is limited to 20 rows, got {k}")
    return _sets(_closed_masks(_values(table)), k)


def convexity_extension(table: FunctionTable) -> frozenset[frozenset[int]]:
    """Every set sandwiched between strict and ordinary support sets.

    Generators range over all pointwise suprema of row subsets, the
    generated-convex functions of a finite table.  A row subset and its
    closure have the same supremum, whose support set is that closure, so
    each sandwich is taken once per l-convex set.  The result always
    contains the support sets themselves and always forms a convexity
    structure.
    """
    k = len(table)
    if k > 12:
        raise SizeGuardError(f"convexity_extension is limited to 12 rows, got {k}")
    values = _values(table)
    closed = _closed_masks(values)
    strict = _close(closed, _closure_tables(values, lambda a, b: (a > b) | (a == INF)))
    gap = closed & ~strict
    sizes = np.ones_like(gap)  # 2^|gap|: the sandwiches of each closed set
    for b in range(k):
        sizes <<= gap >> b & 1
    ends = np.cumsum(sizes)
    out = np.zeros(1 << k, dtype=bool)
    lo = 0
    while lo < len(closed):  # closed sets in runs of at most _BLOCK sandwiches
        hi = int(np.searchsorted(ends, ends[lo] - sizes[lo] + _BLOCK, side="right"))
        sets, gaps = strict[lo:hi], gap[lo:hi]
        for b in range(k):  # add bit b to every partial sandwich whose gap has it
            has = (gaps >> b & 1).astype(bool)
            sets = np.concatenate([sets, sets[has] | 1 << b])
            gaps = np.concatenate([gaps, gaps[has]])
        out[sets] = True
        lo = hi
    return _sets(np.flatnonzero(out), k)


def family_over_rows(table: FunctionTable, members: Iterable[frozenset[int]]) -> ConvexityFamily:
    """Wrap a family of row-index sets as a ConvexityFamily over row labels."""
    ground = GroundSet(tuple(f"l{i}" for i in range(len(table))))
    return ConvexityFamily(ground, frozenset(frozenset(m) for m in members))


def caratheodory_number(family: ConvexityFamily) -> int:
    """Largest cardinality of a Caratheodory independent subset of the ground set.

    A nonempty subset is independent when its hull is not covered by the
    hulls of its one-smaller subsets.  Hulls, covers and sizes of all 2^n
    subsets are arrays indexed by mask, each filled in n passes.
    """
    n = family.ground.size
    if n > 10:
        raise SizeGuardError(f"caratheodory_number is limited to ground size 10, got {n}")
    hulls = np.full(1 << n, (1 << n) - 1, dtype=np.int64)
    sets = list(family.members)  # each member's mask is the sum of its elements' bits
    elements = np.fromiter(itertools.chain.from_iterable(sets), dtype=np.int64)
    owners = np.repeat(np.arange(len(sets)), list(map(len, sets)))
    members = np.bincount(owners, np.left_shift(1, elements), len(sets)).astype(np.int64)
    hulls[members] = members
    covered = np.zeros_like(hulls)
    sizes = np.zeros_like(hulls)
    for b in range(n):  # superset-AND: hull(s) &= hull(s | {b}) for s without b
        h = hulls.reshape(-1, 2, 1 << b)
        h[:, 0] &= h[:, 1]
    # the hulls' fixed points are the intersections of members, so with the
    # empty set and the ground present the family is a closure space exactly
    # when they are no more than its members
    if (
        frozenset() not in family.members
        or family.ground.full() not in family.members
        or np.count_nonzero(hulls == np.arange(1 << n)) != len(members)
    ):
        raise ValueError("caratheodory_number requires a closure space")
    for b in range(n):  # s with b: covered by hull(s - {b}), one element larger
        covered.reshape(-1, 2, 1 << b)[:, 1] |= hulls.reshape(-1, 2, 1 << b)[:, 0]
        sizes.reshape(-1, 2, 1 << b)[:, 1] += 1
    return int(sizes[(hulls & ~covered) != 0].max(initial=0))


# -- text formats -------------------------------------------------------------
#
# Family files: one member per line as comma-separated labels, "{}" for the
# empty set, optional "ground:" header, "#" comments.  Function tables: CSV
# with a label header row and the tokens inf / +inf / -inf allowed.


def parse_family_text(text: str) -> ConvexityFamily:
    ground_labels: list[str] | None = None
    member_label_sets: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower().startswith("ground:"):
            ground_labels = [t.strip() for t in line[len("ground:") :].split(",") if t.strip()]
            continue
        if line == "{}":
            member_label_sets.append([])
            continue
        member_label_sets.append([t.strip() for t in line.split(",") if t.strip()])
    if ground_labels is None:
        seen = sorted({lbl for member in member_label_sets for lbl in member})
        if not seen:
            raise ValueError("family file declares no ground set and no members")
        ground_labels = seen
    ground = GroundSet(tuple(ground_labels))
    members = frozenset(
        frozenset(ground.index_of(lbl) for lbl in member) for member in member_label_sets
    )
    return ConvexityFamily(ground, members)


def parse_function_table_csv(text: str) -> FunctionTable:
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if len(rows) < 1:
        raise ValueError("function table needs a header row of element labels")
    ground = GroundSet(tuple(cell.strip() for cell in rows[0]))
    values = tuple(tuple(float(cell) for cell in row) for row in rows[1:])
    return FunctionTable(ground, values)
