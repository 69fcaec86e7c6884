import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasifit.expr import (
    BinOp,
    Const,
    EvaluationError,
    ExprSyntaxError,
    Neg,
    Pow,
    UnknownVariableError,
    Var,
    evaluate,
    parse,
    to_source,
    variables_of,
)


def test_parse_quartic_composite():
    e = parse("(-x + y^3 + x^4)^4", ["x", "y"])
    assert isinstance(e, Pow)
    assert e.exponent == 4


def test_parse_single_variable():
    assert parse("x", ["x"]) == Var("x")


def test_syntax_error_reports_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x +* y", ["x", "y"])
    assert err.value.position == 3


def test_unknown_identifier():
    with pytest.raises(UnknownVariableError):
        parse("x + z", ["x", "y"])


def test_empty_source():
    with pytest.raises(ExprSyntaxError):
        parse("   ", ["x"])


def test_non_integer_exponent():
    with pytest.raises(ExprSyntaxError):
        parse("x^2.5", ["x"])


def test_negative_integer_exponent():
    e = parse("x^-2", ["x"])
    assert evaluate(e, {"x": 2.0}) == 0.25
    with pytest.raises(EvaluationError):
        evaluate(e, {"x": 0.0})


def test_evaluate_quartic_zero():
    e = parse("(-x+y^3+x^4)^4", ["x", "y"])
    assert evaluate(e, {"x": 0.0, "y": 0.0}) == 0.0


def test_evaluate_quartic_at_corner():
    # (1 + 1 + 1)^4 = 81 by direct arithmetic
    e = parse("(-x+y^3+x^4)^4", ["x", "y"])
    assert evaluate(e, {"x": -1.0, "y": 1.0}) == 81.0


def test_evaluate_product_plus_constant():
    # 3*4 + 2 = 14
    e = parse("x*y + 2", ["x", "y"])
    assert evaluate(e, {"x": 3.0, "y": 4.0}) == 14.0


def test_division_by_zero_is_error():
    e = parse("1 / x", ["x"])
    with pytest.raises(EvaluationError):
        evaluate(e, {"x": 0.0})


def test_unassigned_variable_is_error():
    e = parse("x + y", ["x", "y"])
    with pytest.raises(EvaluationError):
        evaluate(e, {"x": 1.0})


def test_precedence_and_associativity():
    assert evaluate(parse("2 + 3 * 4", ["x"]), {}) == 14.0
    assert evaluate(parse("2 * 3 ^ 2", ["x"]), {}) == 18.0
    assert evaluate(parse("-2^2", ["x"]), {}) == -4.0  # ^ binds above unary minus
    assert evaluate(parse("8 - 4 - 2", ["x"]), {}) == 2.0  # left associative
    assert evaluate(parse("2^3^2", ["x"]), {}) == 512.0  # right associative exponent chain


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse("2 x", ["x"])


def test_whitespace_insensitive():
    a = parse("1+x * y^2", ["x", "y"])
    b = parse("  1 + x*y ^ 2 ", ["x", "y"])
    assert a == b


def test_number_literal_forms():
    assert evaluate(parse(".5 + 2.", ["x"]), {}) == 2.5
    assert evaluate(parse("1e2 + 1E-2", ["x"]), {}) == 100.01
    assert evaluate(parse("2.5e1", ["x"]), {}) == 25.0


def test_variables_of():
    e = parse("x*y + x^2", ["x", "y", "z"])
    assert variables_of(e) == {"x", "y"}


# --- randomized structural properties ---------------------------------------

_names = st.sampled_from(["x", "y", "z"])


def _expressions() -> st.SearchStrategy:
    consts = st.floats(min_value=0.0, max_value=10.0, allow_nan=False).map(Const)
    atoms = st.one_of(consts, _names.map(Var))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])
            ),
            children.map(Neg),
            st.tuples(children, st.integers(min_value=0, max_value=4)).map(
                lambda t: Pow(t[0], t[1])
            ),
        )

    return st.recursive(atoms, extend, max_leaves=12)


def _naive_eval(e, env):
    # independent recursive evaluator used as the structural oracle
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        return -_naive_eval(e.arg, env)
    if isinstance(e, Pow):
        return _naive_eval(e.base, env) ** e.exponent
    a, b = _naive_eval(e.left, env), _naive_eval(e.right, env)
    return {"+": a + b, "-": a - b, "*": a * b}[e.op]


@given(_expressions())
def test_print_parse_identity(e):
    assert parse(to_source(e), ["x", "y", "z"]) == e


@given(_expressions(), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_evaluator_matches_naive_recursion(e, x, y, z):
    env = {"x": x, "y": y, "z": z}
    expected = _naive_eval(e, env)
    if not math.isfinite(expected):
        return
    got = evaluate(e, env)
    assert got == expected  # bitwise: identical operation order


@given(_expressions(), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_reprinted_expression_evaluates_identically(e, x, y, z):
    env = {"x": x, "y": y, "z": z}
    try:
        expected = evaluate(e, env)
    except EvaluationError:
        return
    if not math.isfinite(expected):
        return
    assert evaluate(parse(to_source(e), ["x", "y", "z"]), env) == expected


def _same_float(a, b):
    # bitwise up to NaN payloads: equal values with equal signs, or both NaN
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


_coords = st.floats(-3, 3)


# up to 64 points, so that numpy's SIMD loops run: there its own power differs from libm's
@given(_expressions(), st.lists(st.tuples(_coords, _coords, _coords), min_size=1, max_size=64))
def test_array_evaluation_matches_naive_recursion_per_point(e, points):
    columns = {name: np.array(col) for name, col in zip("xyz", zip(*points))}
    try:
        expected = [_naive_eval(e, dict(zip("xyz", p))) for p in points]
    except OverflowError:
        with pytest.raises(EvaluationError):
            evaluate(e, columns)
        return
    got = evaluate(e, columns)
    assert isinstance(got, np.ndarray) and got.shape == (len(points),)
    assert all(_same_float(g, want) for g, want in zip(got.tolist(), expected))


def test_array_evaluation_errors_name_the_first_failing_index():
    with pytest.raises(EvaluationError) as err:
        evaluate(parse("1 / x", ["x"]), {"x": np.array([1.0, 0.0, 0.0])})
    assert err.value.index == 1
    with pytest.raises(EvaluationError) as err:
        evaluate(parse("x^-2", ["x"]), {"x": np.array([1.0, 2.0, -0.0])})
    assert err.value.index == 2
    with pytest.raises(EvaluationError) as err:
        evaluate(parse("x^3", ["x"]), {"x": np.array([1.0, 1e200, 2e200])})
    assert str(err.value) == "overflow in power" and err.value.index == 1


def test_array_evaluation_of_constants_and_bare_variables():
    x = np.array([1.0, 2.0])
    assert np.array_equal(evaluate(parse("2", ["x"]), {"x": x}), [2.0, 2.0])
    out = evaluate(parse("x", ["x"]), {"x": x})
    assert np.array_equal(out, x) and out is not x
    with pytest.raises(ValueError):
        evaluate(parse("x + y", ["x", "y"]), {"x": x, "y": np.zeros(3)})
