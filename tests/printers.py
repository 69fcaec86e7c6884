"""Text that only the tests write: an expression as source, a convexity
family as the text `axiomatic.parse_family_text` reads, and a function
table as the CSV `axiomatic.parse_function_table_csv` reads.  The tests
round-trip through these and the package's parsers."""

from quasifit.axiomatic import ConvexityFamily, FunctionTable, sorted_members
from quasifit.expr import BinOp, Const, Expression, Neg, Pow, Var

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


def family_to_text(family: ConvexityFamily) -> str:
    lines = ["ground: " + ",".join(family.ground.labels)]
    for member in sorted_members(family):
        if not member:
            lines.append("{}")
        else:
            lines.append(",".join(family.ground.labels[i] for i in sorted(member)))
    return "\n".join(lines) + "\n"


def function_table_to_csv(table: FunctionTable) -> str:
    lines = [",".join(table.ground.labels)]
    for row in table.rows:
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"
