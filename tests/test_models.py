import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasifit.expr import EvaluationError
from quasifit.grid import Grid, enumerate_points
from quasifit.models import (
    BasisSpec,
    Coefficients,
    DenominatorPositivityError,
    InfeasibleInitialCoefficientsError,
    ModelClass,
    MonotoneOuter,
    basis_matrix,
    default_initial_coefficients,
    evaluate_model_values,
)

XY = ("x", "y")


def _basis(sources, variables=("x",)):
    return BasisSpec.from_sources(list(sources), list(variables))


def test_cubed_constant():
    # 2^3 = 8 at any point
    m = ModelClass(("x",), MonotoneOuter.odd_power(3), _basis(["1"]))
    assert evaluate_model_values(m, Coefficients((2.0,)), [(0.7,)])[0] == 8.0
    assert evaluate_model_values(m, Coefficients((2.0,)), [(-5.0,)])[0] == 8.0


def test_affine_identity_model():
    # 1 + 2*3 = 7
    m = ModelClass(("x",), MonotoneOuter.identity(), _basis(["1", "x"]))
    assert evaluate_model_values(m, Coefficients((1.0, 2.0)), [(3.0,)])[0] == 7.0


def test_rational_constant_ratio():
    # 4 / 2 = 2
    m = ModelClass(
        ("x",), MonotoneOuter.identity(), _basis(["1"]), _basis(["1"]), (0, 2.0)
    )
    assert evaluate_model_values(m, Coefficients((4.0,), (2.0,)), [(0.0,)])[0] == 2.0


def test_denominator_below_margin_errors_with_point():
    m = ModelClass(
        ("x",), MonotoneOuter.identity(), _basis(["1"]), _basis(["x"]), (0, 1.0), 1e-4
    )
    with pytest.raises(DenominatorPositivityError) as err:
        evaluate_model_values(m, Coefficients((1.0,), (1.0,)), [(-0.5,)])
    assert err.value.point == (-0.5,)
    assert str(err.value).endswith("at point (-0.5,)")


def test_fixed_coefficient_must_match_exactly():
    m = ModelClass(
        ("x",), MonotoneOuter.identity(), _basis(["1"]), _basis(["1"]), (0, 1.0)
    )
    with pytest.raises(ValueError):
        evaluate_model_values(m, Coefficients((1.0,), (2.0,)), [(0.0,)])


def test_denominator_requires_fixed_coefficient():
    with pytest.raises(ValueError):
        ModelClass(("x",), MonotoneOuter.identity(), _basis(["1"]), _basis(["1"]))


def test_delta_must_be_positive():
    with pytest.raises(ValueError):
        ModelClass(("x",), MonotoneOuter.identity(), _basis(["1"]), delta=0.0)


def test_default_initial_rational_denominator_one():
    # denominator basis {1, xy} with b1 fixed to 1: B = (1, 0), so B.H(x) is 1 everywhere
    grid = Grid((-1.0, -1.0), (1.0, 1.0), (0.5, 0.5))
    m = ModelClass(
        XY,
        MonotoneOuter.odd_power(3),
        _basis(["1", "x", "y", "x^2", "y^2"], XY),
        _basis(["1", "x*y"], XY),
        (0, 1.0),
    )
    coeffs = default_initial_coefficients(m, enumerate_points(grid))
    assert coeffs.numerator == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert coeffs.denominator == (1.0, 0.0)
    hmat = basis_matrix(m.denominator, XY, enumerate_points(grid))
    assert np.all(hmat @ np.array(coeffs.denominator) == 1.0)


def test_default_initial_affine_is_zero():
    m = ModelClass(("x",), MonotoneOuter.identity(), _basis(["1", "x"]))
    coeffs = default_initial_coefficients(m)
    assert coeffs.numerator == (0.0, 0.0)
    assert coeffs.denominator is None


def test_default_initial_sign_changing_denominator_reports_points():
    # H = {xy} with the only coefficient fixed to 1 changes sign on the square
    grid = Grid((-1.0, -1.0), (1.0, 1.0), (1.0, 1.0))
    m = ModelClass(
        XY,
        MonotoneOuter.identity(),
        _basis(["1"], XY),
        _basis(["x*y"], XY),
        (0, 1.0),
    )
    with pytest.raises(InfeasibleInitialCoefficientsError) as err:
        default_initial_coefficients(m, enumerate_points(grid))
    failing = set(err.value.failing_points)
    assert (-1.0, 1.0) in failing and (1.0, -1.0) in failing
    assert "e.g. (-1.0, 0.0);" in str(err.value)


def test_failing_basis_names_its_point():
    pts = np.array([[-1.0], [0.0], [1.0]])
    with pytest.raises(EvaluationError, match=r"^division by zero at point \(0\.0,\)$") as err:
        basis_matrix(_basis(["1", "1/x"]), ["x"], pts)
    assert err.value.index == 1


def test_non_finite_basis_value_raises_evaluation_error():
    # 1e200 * 1e200 overflows to inf without raising in the arithmetic itself
    pts = np.array([[1.0], [1e200]])
    with pytest.raises(EvaluationError, match=r"^non-finite value inf at point \(1e\+200,\)$") as err:
        basis_matrix(_basis(["1", "x*x"]), ["x"], pts)
    assert err.value.index == 1


def test_vectorized_evaluation_matches_pointwise():
    # bitwise: a surface value must equal a one-point re-evaluation
    m = ModelClass(
        XY,
        MonotoneOuter.odd_power(3),
        _basis(["1", "x", "y", "x^2", "y^2", "x*y"], XY),
        _basis(["1", "x*y", "y^2"], XY),
        (0, 1.0),
    )
    coeffs = Coefficients((0.3, -1.1, 0.7, 2.3, -0.9, 1.7), (1.0, 0.31, 0.27))
    pts = enumerate_points(Grid((-1.0, -1.0), (1.0, 1.0), (0.05, 0.05)))
    assert pts.shape[0] == 41 * 41
    vec = evaluate_model_values(m, coeffs, pts)
    for k in range(pts.shape[0]):
        assert vec[k] == evaluate_model_values(m, coeffs, [pts[k]])[0]


def test_points_need_one_coordinate_per_variable():
    # a column without a name is refused, not dropped
    m = ModelClass(("x",), MonotoneOuter.identity(), _basis(["x"]))
    with pytest.raises(ValueError, match=r"^points have 2 coordinates, but the variables are \['x'\]$"):
        evaluate_model_values(m, Coefficients((1.0,)), np.array([[1.0, 5.0], [2.0, 6.0]]))


@given(st.floats(min_value=-1e6, max_value=1e6), st.sampled_from([1, 3, 5, 7]))
def test_outer_round_trip(t, p):
    outer = MonotoneOuter.odd_power(p)
    back = outer.inverse(outer.forward(t))
    assert back == pytest.approx(t, rel=1e-10, abs=1e-12)


@given(st.floats(min_value=-1e6, max_value=1e6), st.sampled_from([3, 5]))
def test_outer_round_trip_reverse(s, p):
    outer = MonotoneOuter.odd_power(p)
    assert outer.forward(outer.inverse(s)) == pytest.approx(s, rel=1e-10, abs=1e-12)


def test_outer_validation():
    with pytest.raises(ValueError):
        MonotoneOuter.odd_power(2)
    with pytest.raises(ValueError):
        MonotoneOuter.odd_power(-3)
    with pytest.raises(ValueError):
        MonotoneOuter("sigmoid")


def test_identity_is_the_first_odd_power():
    assert MonotoneOuter.odd_power(1) == MonotoneOuter.identity()


def test_outer_is_strictly_increasing():
    outer = MonotoneOuter.odd_power(3)
    ts = np.linspace(-4.0, 4.0, 41)
    vals = [outer.forward(t) for t in ts]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_quasiaffinity_on_coefficient_segments():
    # along any segment between feasible coefficient vectors, the model value
    # at a fixed point is maximised at an endpoint
    rng = np.random.default_rng(70)
    m = ModelClass(
        XY,
        MonotoneOuter.odd_power(3),
        _basis(["1", "x", "y"], XY),
        _basis(["1", "x*y"], XY),
        (0, 1.0),
    )
    pts = enumerate_points(Grid((-1.0, -1.0), (1.0, 1.0), (0.25, 0.25)))
    hmat = basis_matrix(m.denominator, XY, pts)
    for _ in range(25):
        ends = []
        while len(ends) < 2:
            a = rng.uniform(-2, 2, 3)
            b_free = rng.uniform(-0.9, 0.9)
            beta = np.array([1.0, b_free])
            if np.all(hmat @ beta >= m.delta):
                ends.append(Coefficients(tuple(a), (1.0, b_free)))
        x0 = pts[rng.integers(0, pts.shape[0])]
        ts = np.linspace(0.0, 1.0, 101)
        vals = []
        for t in ts:
            a = tuple((1 - t) * np.array(ends[0].numerator) + t * np.array(ends[1].numerator))
            b = tuple((1 - t) * np.array(ends[0].denominator) + t * np.array(ends[1].denominator))
            vals.append(evaluate_model_values(m, Coefficients(a, b), [x0])[0])
        interior_max = max(vals[1:-1]) if len(vals) > 2 else -np.inf
        scale = 1.0 + abs(vals[0]) + abs(vals[-1])
        assert interior_max <= max(vals[0], vals[-1]) + 1e-9 * scale
