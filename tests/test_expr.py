import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quasifit

from quasifit.expr import (
    BinOp,
    Const,
    EvaluationError,
    ExprSyntaxError,
    Neg,
    Pow,
    UnknownVariableError,
    Var,
    _tokenize,
    evaluate,
    parse,
    to_source,
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


# --- randomized structural properties ---------------------------------------

_names = st.sampled_from(["x", "y", "z"])


def _expressions(names=_names, ops="+-*", min_exponent=0) -> st.SearchStrategy:
    consts = st.floats(min_value=0.0, max_value=10.0, allow_nan=False).map(Const)
    atoms = st.one_of(consts, names.map(Var))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(ops), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])
            ),
            children.map(Neg),
            st.tuples(children, st.integers(min_value=min_exponent, max_value=4)).map(
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
    if e.op == "/":
        return a / b
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


# axis values: both zeros, repeats, and reals in [-3, 3]
_axis_values = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -2.0]), st.floats(-3, 3))


@st.composite
def _grid_columns(draw):
    """The columns of a 2-D or 3-D lexicographic grid, last axis fastest, or of 0 or 1 points."""
    d = draw(st.sampled_from([2, 3]))
    names = "xyz"[:d]
    if draw(st.booleans()):
        points = list(itertools.product(*(draw(st.lists(_axis_values, min_size=1, max_size=6)) for _ in names)))
    else:
        points = draw(st.lists(st.tuples(*[_axis_values] * d), max_size=1))
    return {name: np.array([p[k] for p in points]) for k, name in enumerate(names)}


@given(st.data(), _grid_columns())
def test_grid_evaluation_matches_naive_recursion_per_point(data, columns):
    e = data.draw(_expressions(st.sampled_from(sorted(columns)), "+-*/", -2))
    points = [dict(zip(columns, p)) for p in zip(*(c.tolist() for c in columns.values()))]

    def fails(env):
        try:
            evaluate(e, env)
        except EvaluationError:
            return True
        return False

    first = next((k for k, env in enumerate(points) if fails(env)), None)
    if first is not None:
        with pytest.raises(EvaluationError) as err:
            evaluate(e, columns)
        assert err.value.index == first
        return
    got = evaluate(e, columns)
    assert isinstance(got, np.ndarray) and got.shape == (len(points),)
    assert all(_same_float(g, _naive_eval(e, env)) for g, env in zip(got.tolist(), points))


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
    # no point, so nothing fails
    assert evaluate(parse("1/0 + 1e300^9", ["x"]), {"x": np.array([])}).shape == (0,)


# --- tokenizer against the scanning loop it replaced ------------------------

_REFERENCE_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _reference_tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _REFERENCE_TOKEN.match(source, pos)
        if m is None:
            stripped = pos
            while stripped < len(source) and source[stripped].isspace():
                stripped += 1
            if stripped == len(source):
                break
            raise ExprSyntaxError(f"unexpected character {source[stripped]!r}", stripped)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


def _tokens_or_error(tokenize, source):
    try:
        return tokenize(source)
    except ExprSyntaxError as exc:
        return (str(exc), exc.position)


# the token alphabet, stray characters (a non-ASCII digit and letter among
# them) and ASCII and Unicode whitespace
_SOURCE_CHARS = st.sampled_from(list("0123456789.eExyz_+-*/^()") + list("$#é٣") + list(" \t\n\x1c\u00a0\u2003"))


@settings(max_examples=300)
@given(st.text(_SOURCE_CHARS, max_size=24))
def test_tokenizer_matches_reference_scan(source):
    assert _tokens_or_error(_tokenize, source) == _tokens_or_error(_reference_tokenize, source)


def test_tokenizer_reports_the_first_stray_character():
    with pytest.raises(ExprSyntaxError) as err:
        parse(" x +\u2003$ 1", ["x"])
    assert str(err.value) == "unexpected character '$' (at offset 5)"
    assert parse("x\x1c+\u00a01", ["x"]) == BinOp("+", Var("x"), Const(1.0))


# --- guards against sources that would hang or exhaust the stack -----------


def test_exponent_chain_too_large_is_refused_quickly():
    # 9^9^9 has 369 million digits: it must be refused, not computed, so run
    # it where a hang fails the test instead of the suite
    code = (
        "from quasifit.expr import ExprSyntaxError, parse\n"
        "try:\n    parse('x^9^9^9', ['x'])\n"
        "except ExprSyntaxError as exc:\n    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(quasifit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30)
    assert proc.stdout == "exponent too large (at offset 3)\n", proc.stderr


@pytest.mark.parametrize("source, exponent", [
    ("x^2^3^2", 512), ("x^0^9223372036854775808", 0), ("x^1^9223372036854775808", 1),
    ("x^2^63", 2**63), ("x^3^39", 3**39), ("x^-2^3", -8), ("x^9223372036854775808", 2**63),
    ("x^-0009223372036854775808", -(2**63)),
])
def test_exponent_chains_up_to_2_to_the_63_fold(source, exponent):
    assert parse(source, ["x"]) == Pow(Var("x"), exponent)


# a literal above 2**63 is refused at its own offset, as a fold is at its
# '^'; one with 400 digits used to parse and fail in evaluation with
# "overflow in power", and one with 5000 digits raised int()'s ValueError
@pytest.mark.parametrize("source, position", [
    ("x^2^64", 3), ("x^3^40", 3), ("x^2^2^3^2", 3),
    ("x^9223372036854775809", 2), ("x^99999999999999999999", 2),
    ("x^0^99999999999999999999", 4), ("x^1^99999999999999999999", 4),
    pytest.param("x^-" + "9" * 400, 3, id="x^-400-nines"), pytest.param("x^" + "9" * 5000, 2, id="x^5000-nines"),
])
def test_exponent_chain_past_2_to_the_63_is_refused(source, position):
    with pytest.raises(ExprSyntaxError) as err:
        parse(source, ["x"])
    assert (str(err.value), err.value.position) == (f"exponent too large (at offset {position})", position)


_DEPTH = 100  # the deepest nesting parse accepts


# each source nests k levels: parentheses, signs, or operators of a chain
@pytest.mark.parametrize("nest", [
    lambda k: "(" * k + "x" + ")" * k,
    lambda k: "-" * k + "x",
    lambda k: "+".join(["x"] * (k + 1)),
    lambda k: "*".join(["x"] * (k + 1)),
    lambda k: "x^" + "-" * k + "1",
    lambda k: "x^" + "^".join(["1"] * (k + 1)),
], ids=["parentheses", "unary-minus", "sum", "product", "exponent-signs", "exponent-chain"])
def test_nesting_is_refused_one_level_past_the_limit(nest):
    parse(nest(_DEPTH), ["x"])
    with pytest.raises(ExprSyntaxError, match="expression is nested too deeply"):
        parse(nest(_DEPTH + 1), ["x"])
    with pytest.raises(ExprSyntaxError, match="expression is nested too deeply"):
        parse(nest(3000), ["x"])


def test_accepted_depth_evaluates_and_prints():
    e = parse("+".join(["x"] * (_DEPTH + 1)), ["x"])
    assert evaluate(e, {"x": 1.0}) == _DEPTH + 1
    assert parse(to_source(e), ["x"]) == e
