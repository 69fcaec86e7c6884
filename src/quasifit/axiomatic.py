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
A table of k rows on n points gives the (k, n) row-mask table
ge[i, x] = {j : row_j(x) >= row_i(x)}.  Row i lies below the supremum of a
nonempty row set S exactly when S & ge[i, x] != 0 at every x (an x where
row_i(x) is -inf puts every row in ge[i, x] and so sets no condition), so
one vectorised pass closes a whole batch of row sets; the empty set's
closure is the set of rows that are -inf everywhere.  The strict support
set of sup(S) is the same test on gt[i, x] | inf_at[x], the rows strictly
above row i at x or +inf there.  Caratheodory numbers come from a table of
the hulls of all 2^n subsets, built by a superset-AND transform: start from
each member's own mask (the full mask elsewhere) and, for each bit b, AND
every subset without b with its superset with b, n vectorised passes over
a 2^n array.
"""

from __future__ import annotations

import csv
import io
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
    "family_to_text",
    "parse_function_table_csv",
    "function_table_to_csv",
]

INF = math.inf
_BLOCK = 1 << 13  # elements in the largest array of one closure pass


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


def _sets(masks: Iterable[int], width: int) -> frozenset[frozenset[int]]:
    """The index sets of bitmasks of the given width."""
    return frozenset(frozenset(i for i in range(width) if m >> i & 1) for m in masks)


def _row_masks(table: FunctionTable, above) -> np.ndarray:
    """(k, n) int64 masks: bit j of [i, x] is set when above(row_j(x), row_i(x))."""
    k = len(table)
    values = np.array(table.rows, dtype=float).reshape(k, table.ground.size)
    weights = np.left_shift(1, np.arange(k, dtype=np.int64))
    return np.einsum("ijx,j->ix", above(values[None, :, :], values[:, None, :]), weights)


def _rows_met(sets: np.ndarray, row_masks: np.ndarray) -> np.ndarray:
    """For each set S, the mask of rows i with S & row_masks[i, x] != 0 at every x."""
    k, n = row_masks.shape
    weights = np.left_shift(1, np.arange(k, dtype=np.int64))
    step = max(1, _BLOCK // max(1, k * n))
    out = np.empty(len(sets), dtype=np.int64)
    for lo in range(0, len(sets), step):
        hits = (sets[lo : lo + step, None, None] & row_masks) != 0
        out[lo : lo + step] = hits.all(axis=2) @ weights
    return out


def _closed_masks(table: FunctionTable) -> list[int]:
    """Masks of the closed sets of cl(S) = support_set(sup_of_rows(S)).

    Enumerated from cl(empty set) by closing each set found with one more
    row until no new set appears.  Every closed set is reached one row at a
    time because cl(cl(A) | {i}) == cl(A | {i}); the k one-row extensions of
    a batch of pending sets are closed in one pass.
    """
    k = len(table)
    bottom = _mask(i for i, row in enumerate(table.rows) if all(v == -INF for v in row))
    ge = _row_masks(table, np.greater_equal)
    step = max(1, _BLOCK // max(1, k))
    closed = {bottom}
    pending = [bottom]
    while pending:
        extensions = {c | 1 << i for c in pending[-step:] for i in range(k)} - closed
        del pending[-step:]
        found = set(_rows_met(np.array(list(extensions), dtype=np.int64), ge).tolist()) - closed
        closed |= found
        pending.extend(found)
    return sorted(closed)


def l_convex_sets(table: FunctionTable) -> frozenset[frozenset[int]]:
    """Support sets of every pointwise supremum of rows.

    These are the closed sets of cl(S) = support_set(sup_of_rows(S)); the
    work is (closed sets) x (rows) closures, and closed sets can still
    number 2^k, hence the guard.
    """
    k = len(table)
    if k > 20:
        raise SizeGuardError(f"l_convex_sets is limited to 20 rows, got {k}")
    return _sets(_closed_masks(table), k)


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
    closed = _closed_masks(table)
    below = _row_masks(table, lambda a, b: (a > b) | (a == INF))
    out = set()
    for c, strict in zip(closed, _rows_met(np.array(closed, dtype=np.int64), below).tolist()):
        gap = extra = c & ~strict
        while True:  # every submask of the gap, down to 0
            out.add(strict | extra)
            if not extra:
                break
            extra = (extra - 1) & gap
    return _sets(out, k)


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
    members = np.array([_mask(m) for m in family.members], dtype=np.int64)
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


def family_to_text(family: ConvexityFamily) -> str:
    lines = ["ground: " + ",".join(family.ground.labels)]
    for member in sorted_members(family):
        if not member:
            lines.append("{}")
        else:
            lines.append(",".join(family.ground.labels[i] for i in sorted(member)))
    return "\n".join(lines) + "\n"


def parse_function_table_csv(text: str) -> FunctionTable:
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if len(rows) < 1:
        raise ValueError("function table needs a header row of element labels")
    ground = GroundSet(tuple(cell.strip() for cell in rows[0]))
    values = tuple(tuple(float(cell) for cell in row) for row in rows[1:])
    return FunctionTable(ground, values)


def function_table_to_csv(table: FunctionTable) -> str:
    lines = [",".join(table.ground.labels)]
    for row in table.rows:
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"
