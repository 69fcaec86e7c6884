"""Arithmetic expression trees: parsing, evaluation and printing.

Target functions, basis functions and anything else the fitting pipeline
evaluates pointwise are plain text expressions over named variables, so a
model is pure data.  The grammar is deliberately small:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' exponent)?      exponent is a signed integer literal
    atom   := NUMBER | IDENT | '(' expr ')'

Precedence is ^ above unary minus above * and / above + and -, with ^
right-associative.  Implicit multiplication is not supported and exponents
must be integer literals, which keeps evaluation total on negative bases.

`evaluate` takes one array per variable and runs each tree node as one
array operation.  When the arrays enumerate a Cartesian product in
lexicographic order, as the points of a regular grid do, it finds the
product's axes from the arrays themselves and runs every node over the
axes it depends on, broadcasting as the axes meet: a node over one variable
costs as many operations as that axis has values, not as the grid has
points.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import length_hint
from typing import Mapping, Union

import numpy as np

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Pow",
    "ExprError",
    "ExprSyntaxError",
    "UnknownVariableError",
    "EvaluationError",
    "parse",
    "evaluate",
    "power",
    "to_source",
]


class ExprError(ValueError):
    """Base class for expression parsing and evaluation errors."""


class ExprSyntaxError(ExprError):
    """Malformed source text; carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownVariableError(ExprSyntaxError):
    """Identifier not in the declared variable list."""


class EvaluationError(ExprError):
    """Division by zero, unassigned variable, or overflow during evaluation.

    `index` is the position of the offending point in an array evaluation.
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of "+-*/"
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: int


Expression = Union[Const, Var, Neg, BinOp, Pow]

_TOKEN = re.compile(
    r"(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S)"  # whitespace matches no group and is skipped
)

# Deepest nesting a parse accepts, both of its descent (parentheses, unary
# minus, exponent chains) and of the operators in the tree it builds.  Every
# walk over a tree recurses once per level, so this keeps each far from the
# interpreter's recursion limit.
_MAX_DEPTH = 100

_BINARY = ("+-", "*/")  # binary operators by precedence level, loosest first


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(source):
        if m.lastgroup == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, variables: list[str]):
        self.source = source
        self.variables = set(variables)
        self.tokens = _tokenize(source)
        self.i = 0
        self.depth = 0  # levels of the descent in progress
        self.height = 0  # operator levels of the tree last built

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        self.advance()

    def within(self, levels: int, pos: int) -> int:
        if levels > _MAX_DEPTH:
            raise ExprSyntaxError("expression is nested too deeply", pos)
        return levels

    def descend(self, rule, pos: int):
        """rule() one level deeper."""
        self.depth = self.within(self.depth + 1, pos)
        result = rule()
        self.depth -= 1
        return result

    def built(self, node: Expression, pos: int, left: int = 0) -> Expression:
        """node, one operator level above its operands; `left` is a left operand's height."""
        self.height = self.within(max(left, self.height) + 1, pos)
        return node

    def parse(self) -> Expression:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r}", pos)
        return node

    def expr(self, level: int = 0) -> Expression:
        """A left-associative chain of `_BINARY[level]` operators over the next level, then factors."""
        # partial, unlike a lambda, adds no Python frame per level of the recursion
        operand = self.factor if level + 1 == len(_BINARY) else partial(self.expr, level + 1)
        node = operand()
        while True:
            kind, text, pos = self.peek()
            if kind != "op" or text not in _BINARY[level]:
                return node
            self.advance()
            left = self.height
            node = self.built(BinOp(text, node, operand()), pos, left)

    def factor(self) -> Expression:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return self.built(Neg(self.descend(self.factor, pos)), pos)
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return self.built(Pow(base, self.exponent()), pos)
        return base

    def exponent(self) -> int:
        # Signed integer literal; chains like 2^3 fold right-associatively.
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return -self.descend(self.exponent, pos)
        if kind != "number":
            raise ExprSyntaxError("expected integer exponent", pos)
        if not text.isdigit():
            raise ExprSyntaxError("exponent must be an integer literal", pos)
        self.advance()
        # past 19 digits a literal exceeds 2**63, and int() may refuse its length
        value = int(text) if len(text.lstrip("0")) <= 19 else 2**64
        if value > 2**63:
            raise ExprSyntaxError("exponent too large", pos)
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            rest = self.descend(self.exponent, pos)
            if rest < 0:
                raise ExprSyntaxError("exponent must be an integer literal", pos)
            # value**rest has at least (bits - 1) * rest + 1 bits: refuse a huge
            # power before taking it
            if value > 1 and (value.bit_length() - 1) * rest >= 64 or value**rest > 2**63:
                raise ExprSyntaxError("exponent too large", pos)
            value = value**rest
        return value

    def atom(self) -> Expression:
        kind, text, pos = self.advance()
        self.height = 0
        if kind == "number":
            return Const(float(text))
        if kind == "ident":
            if text not in self.variables:
                raise UnknownVariableError(f"unknown identifier {text!r}", pos)
            return Var(text)
        if kind == "op" and text == "(":
            node = self.descend(self.expr, pos)
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input", pos)


def parse(source: str, variables: list[str]) -> Expression:
    """Parse `source` into an expression tree over the given variable names."""
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(source, list(variables)).parse()


def evaluate(expr: Expression, point: Mapping[str, float | np.ndarray]) -> float | np.ndarray:
    """Evaluate an expression at one point or at many.

    `point` maps each variable name to a real, or to a 1-D array holding that
    coordinate of every point (all of equal length).  Each tree node is one
    array operation; a point of reals is the one-point case and gives a
    float.  When the columns enumerate a Cartesian product in lexicographic
    order, last column fastest, as a regular grid does, every node is taken
    over the product's axes and broadcast: `y^3` on a 401 x 401 grid is 401
    powers.  Each point still sees the same operations on the same operands,
    so the bits do not depend on the shape.  Errors carry the index of the
    first point at which evaluation fails.
    """
    columns = {name: np.asarray(v, dtype=float) for name, v in point.items()}
    shapes = {c.shape for c in columns.values()} or {()}
    if len(shapes) > 1 or any(len(s) > 1 for s in shapes):
        raise ValueError("point values must be reals or 1-D arrays of equal length")
    (shape,) = shapes
    size = math.prod(shape)
    columns = {name: c.reshape(-1) for name, c in columns.items()}
    axes, counts = _product(columns, size)
    with np.errstate(all="ignore"):  # inf and nan propagate as in float arithmetic
        try:
            out = _node(expr, axes, counts)
        except EvaluationError as exc:
            # a node evaluated later may fail at an earlier point: look there first
            if exc.index:
                evaluate(expr, {name: c[: exc.index] for name, c in columns.items()})
            raise
    if not shape:
        return out.item()
    if out.size == size and not isinstance(expr, Var):
        return out.reshape(-1)
    values = np.empty(size)  # the one copy: broadcast out of the axes, or off the caller's column
    values.reshape(counts)[...] = out
    return values


def _product(columns: dict[str, np.ndarray], size: int) -> tuple[dict[str, np.ndarray], tuple[int, ...]]:
    """The columns as the axes of the Cartesian product they enumerate, with its counts.

    Column k of a lexicographic product repeats each of its axis values in a
    run as long as the product of the counts after k, so its first run gives
    the count of axis k.  The guess is checked against every point, by bits
    so that -0.0 and 0.0 stay apart.  Any other point set is its own
    one-axis product, of shape (size,).
    """
    cloud = columns, (size,)
    if not columns or not size:
        return cloud
    counts, stride = [], size
    for c in columns.values():
        head = c[:stride].view(np.int64)
        run = int(np.argmax(head != head[0])) or stride
        if stride % run:
            return cloud
        counts.append(stride // run)
        stride = run
    if stride != 1:
        return cloud
    axes = {}
    for k, (name, c) in enumerate(columns.items()):
        run = math.prod(counts[k + 1 :])
        axis = c[: counts[k] * run : run].reshape([1] * k + [counts[k]] + [1] * (len(counts) - k - 1))
        if not (c.view(np.int64).reshape(counts) == axis.view(np.int64)).all():
            return cloud
        axes[name] = axis
    return axes, tuple(counts)


def _node(expr: Expression, columns: dict[str, np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """expr over `columns`, whose shapes broadcast to `shape`; the result broadcasts to it too."""
    if isinstance(expr, Const):
        # no element over no points, where `1/0` must not fail
        return np.full([min(n, 1) for n in shape], expr.value)
    if isinstance(expr, Var):
        try:
            return columns[expr.name]
        except KeyError:
            raise EvaluationError(f"variable {expr.name!r} is not assigned") from None
    if isinstance(expr, Neg):
        return -_node(expr.arg, columns, shape)
    if isinstance(expr, BinOp):
        a = _node(expr.left, columns, shape)
        b = _node(expr.right, columns, shape)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        _raise_at(b == 0.0, "division by zero", shape)
        return a / b
    if isinstance(expr, Pow):
        base = _node(expr.base, columns, shape)
        if expr.exponent < 0:
            _raise_at(base == 0.0, "division by zero", shape)
        try:
            return power(base, expr.exponent)
        except EvaluationError as exc:
            _raise_at(np.arange(base.size).reshape(base.shape) == exc.index, str(exc), shape)
    raise TypeError(f"not an expression node: {expr!r}")


def _raise_at(mask: np.ndarray, message: str, shape: tuple[int, ...]) -> None:
    if mask.any():
        raise EvaluationError(message, int(np.argmax(np.broadcast_to(mask, shape)))) from None


def power(base: float | np.ndarray, exponent: float) -> np.ndarray:
    """base ** exponent element by element through libm pow.

    This is the pow that Python's float ** calls.  numpy's SIMD power can
    differ from it in the last bit, which would move fitted coefficients.
    """
    base = np.asarray(base, dtype=float)
    rest = iter(base.reshape(-1))
    try:
        out = np.fromiter(map(math.pow, rest, repeat(float(exponent))), float, base.size)
    except OverflowError:
        # the failing element is the last one the iterator handed out
        raise EvaluationError("overflow in power", max(0, base.size - length_hint(rest) - 1)) from None
    return out.reshape(base.shape)


_PREC_SUM = 0
_PREC_PROD = 1
_PREC_NEG = 2
_PREC_POW = 3
_PREC_ATOM = 4


def _prec(expr: Expression) -> int:
    if isinstance(expr, BinOp):
        return _PREC_SUM if expr.op in "+-" else _PREC_PROD
    if isinstance(expr, Neg):
        return _PREC_NEG
    if isinstance(expr, Pow):
        return _PREC_POW
    return _PREC_ATOM


def to_source(expr: Expression) -> str:
    """Render to text that parses back to the identical tree."""
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        inner = to_source(expr.arg)
        if _prec(expr.arg) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, BinOp):
        me = _prec(expr)
        left = to_source(expr.left)
        if _prec(expr.left) < me:
            left = f"({left})"
        right = to_source(expr.right)
        # parenthesize equal precedence on the right to keep left-associativity
        if _prec(expr.right) <= me:
            right = f"({right})"
        return f"{left} {expr.op} {right}"
    if isinstance(expr, Pow):
        base = to_source(expr.base)
        if _prec(expr.base) < _PREC_ATOM:
            base = f"({base})"
        return f"{base}^{expr.exponent}"
    raise TypeError(f"not an expression node: {expr!r}")
