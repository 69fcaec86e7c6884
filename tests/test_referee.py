"""An exact referee for small affine fits, sharing no code with the solver.

For an identity outer and an affine model with n coefficients whose basis
matrix G has rank n, the discrete minimax value over N points is the largest
minimax value over any n+1 of them (Helly's theorem on the convex sublevel
sets; Cheney, Introduction to Approximation Theory, 1966).  For n+1 points
whose rows have rank n, the left null vector lam of G_S gives that value as
|lam.f| / |lam|_1, the de la Vallee Poussin reference formula.  lam_i is the
signed n x n minor of G_S without row i, so on integer data everything here
is exact: the points are multiples of 1/8, so a monomial's column is an
integer column times a power of 1/8, which scales no null vector, and the
target values are converted to `Fraction` exactly.

The target values are multiples of 2^-10 in [-8, 8].  Each bisection
midpoint z is then a multiple of 2^-43 (max|f| halved at most 33 times for
epsilon = 1e-9), so the level bounds f +- z, of magnitude below 16, need at
most 47 bits and are exact in doubles: the level LP is the exact one.
For other values f +- z rounds, and the bracket is that of the rounded
problem: f = (6.5e-232, -1) with a constant model has t* = 0.5 + 3.2e-232,
but f + 0.5 rounds to 0.5, so level 0.5 is feasible and `upper` is 0.5.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
from hypothesis import given, settings, strategies as st

from quasifit.bisection import fit
from quasifit.grid import SampledFunction
from quasifit.models import BasisSpec, ModelClass, MonotoneOuter, basis_matrix

EPS = 1e-9
SCALE = 8  # every coordinate is k / SCALE for an integer k

# the basis functions as exponents of (x, y), so that the referee evaluates them itself
BASES = {1: [(0, 0), (1, 0), (2, 0), (3, 0)], 2: [(0, 0), (1, 0), (0, 1), (1, 1)]}


def _source(exponents, variables):
    terms = [v if p == 1 else f"{v}^{p}" for v, p in zip(variables, exponents) if p]
    return "*".join(terms) or "1"


def _int_power(point, exponents):
    """The monomial x^a y^b at the integer coordinates of a point."""
    out = 1
    for k, p in zip(point, exponents):
        out *= k**p
    return out


def _det(m):
    """The determinant of a square matrix of ints, by cofactors along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _rank(rows):
    """The rank of a matrix of ints, by elimination in `Fraction`."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            ratio = rows[i][j] / rows[rank][j]
            rows[i] = [a - ratio * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def exact_minimax(rows, values):
    """max over (n+1)-row subsets S of rank n of |lam.f| / |lam|_1, lam the left null vector of G_S."""
    n = len(rows[0])
    best = Fraction(0)
    for subset in combinations(range(len(rows)), n + 1):
        lam = [(-1) ** i * _det([rows[k] for k in subset if k != drop]) for i, drop in enumerate(subset)]
        norm = sum(abs(v) for v in lam)
        if norm:
            best = max(best, abs(sum(v * values[k] for v, k in zip(lam, subset))) / norm)
    return best


def test_referee_on_hand_solved_cases():
    # a constant on f = (0, 1): the midrange 1/2; a line through |x| at -1, 0, 1: 1/2
    assert exact_minimax([[1], [1]], [Fraction(0), Fraction(1)]) == Fraction(1, 2)
    assert exact_minimax([[1, -1], [1, 0], [1, 1]], [Fraction(1), Fraction(0), Fraction(1)]) == Fraction(1, 2)
    # a line through x^2 at -1, 0, 1, 2: errors +1, -1, +1 at -1, 0, 2 (a = 1, b = 1)
    assert exact_minimax([[1, -1], [1, 0], [1, 1], [1, 2]], [Fraction(v) for v in (1, 0, 1, 4)]) == 1


@st.composite
def problems(draw):
    dimension = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 4))
    coords = st.integers(-SCALE, SCALE)
    point = coords.map(lambda k: (k,)) if dimension == 1 else st.tuples(coords, coords)
    points = draw(st.lists(point, min_size=n + 1, max_size=12, unique=True))
    # multiples of 2^-10, so that every level's f +- z is exact in doubles
    values = draw(st.lists(st.integers(-2**13, 2**13).map(lambda k: k / 2**10), min_size=len(points),
                           max_size=len(points)))
    return dimension, BASES[dimension][:n], points, values


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problems())
def test_the_exact_optimum_lies_in_the_bracket(problem):
    dimension, exponents, points, values = problem
    rows = [[_int_power(p, e) for e in exponents] for p in points]
    if _rank(rows) < len(exponents):  # Helly's (n+1)-subsets need rank n
        return
    variables = ("x", "y")[:dimension]
    model = ModelClass(variables, MonotoneOuter.identity(),
                       BasisSpec.from_sources([_source(e, variables) for e in exponents], variables))
    pts = np.array(points, dtype=float) / SCALE
    # the solver's basis matrix is the referee's, column by column up to a power of 1/SCALE
    scale = np.array([float(SCALE) ** sum(e) for e in exponents])
    assert np.array_equal(basis_matrix(model.numerator, variables, pts) * scale, np.array(rows, dtype=float))
    result = fit(model, SampledFunction(pts, np.array(values)), epsilon=EPS)
    t = exact_minimax(rows, [Fraction(v) for v in values])
    assert Fraction(result.lower) <= t <= Fraction(result.upper)
