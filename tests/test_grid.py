import io
import re

import numpy as np
import pytest

import quasifit.expr
from quasifit.expr import EvaluationError, parse, power
from quasifit.grid import Grid, SampledFunction, enumerate_points, evaluate_at, export_csv, sample, write_csv


def test_unit_interval_step_tenth():
    g = Grid((-1.0,), (1.0,), (0.1,))
    pts = enumerate_points(g)
    assert pts.shape == (21, 1)
    assert pts[0, 0] == -1.0
    assert pts[-1, 0] == 1.0


def test_square_grid_cardinality():
    g = Grid((-1.0, -1.0), (1.0, 1.0), (0.1, 0.1))
    assert g.cardinality() == 441  # 21 * 21
    assert enumerate_points(g).shape == (441, 2)


def test_degenerate_interval():
    g = Grid((0.0,), (0.0,), (1.0,))
    pts = enumerate_points(g)
    assert pts.shape == (1, 1)
    assert pts[0, 0] == 0.0


def test_lexicographic_order_last_axis_fastest():
    g = Grid((0.0, 0.0), (1.0, 2.0), (1.0, 1.0))
    pts = enumerate_points(g)
    expected = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert [tuple(p) for p in pts] == [(float(a), float(b)) for a, b in expected]


def test_endpoint_inclusion_within_tolerance():
    for lo, hi, st in [(-1.0, 1.0, 0.1), (0.0, 2.0, 0.05), (-3.0, 3.0, 0.7)]:
        g = Grid((lo,), (hi,), (st,))
        pts = enumerate_points(g)
        count = int(np.floor((hi - lo) / st + 1e-9)) + 1
        assert pts.shape[0] == count
        last = pts[-1, 0]
        assert last <= hi + 1e-12
        # max enumerated coordinate reaches upper whenever the step divides the span
        if abs(round((hi - lo) / st) - (hi - lo) / st) < 1e-9:
            assert abs(last - hi) <= 1e-12


def test_invalid_grids_rejected():
    with pytest.raises(ValueError):
        Grid((1.0,), (0.0,), (0.1,))
    with pytest.raises(ValueError):
        Grid((0.0,), (1.0,), (0.0,))
    with pytest.raises(ValueError):
        Grid((0.0,), (1.0,), (0.1, 0.1))


@pytest.mark.parametrize(
    "lower, upper, step, message",
    [
        (0.0, float("inf"), 0.5, "axis 2: lower 0.0, upper inf and step 0.5 must be finite"),
        (float("nan"), 1.0, 0.5, "axis 2: lower nan, upper 1.0 and step 0.5 must be finite"),
        (0.0, 1e300, 1e-300, "axis 2: (upper - lower) / step = (1e+300 - 0.0) / 1e-300 is not finite"),
        (-1e308, 1e308, 1.0, "axis 2: (upper - lower) / step = (1e+308 - -1e+308) / 1.0 is not finite"),
    ],
    ids=["infinite", "nan", "count-overflows", "span-overflows"],
)
def test_grid_needs_a_finite_point_count(lower, upper, step, message):
    # the second axis is at fault, and the message names it
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Grid((0.0, lower), (1.0, upper), (1.0, step)).cardinality()


def test_grid_near_the_largest_double():
    # lower + upper + step overflows here, yet every value and the count are finite
    assert Grid((1e308,), (1.7e308,), (1e307,)).cardinality() == 8


def test_sample_zero_function():
    g = Grid((-1.0, -1.0), (1.0, 1.0), (0.5, 0.5))
    sf = sample(parse("0", ["x", "y"]), g, ["x", "y"])
    assert np.all(sf.values == 0.0)


def test_sample_identity():
    g = Grid((-1.0,), (1.0,), (1.0,))
    sf = sample(parse("x", ["x"]), g, ["x"])
    assert list(sf.values) == [-1.0, 0.0, 1.0]


def test_sample_quartic_value_at_corner():
    g = Grid((-1.0, -1.0), (1.0, 1.0), (0.1, 0.1))
    sf = sample(parse("(-x+y^3+x^4)^4", ["x", "y"]), g, ["x", "y"])
    k = next(i for i in range(len(sf)) if tuple(sf.points[i]) == (-1.0, 1.0))
    assert sf.values[k] == 81.0


def test_sample_dimension_mismatch():
    g = Grid((0.0,), (1.0,), (0.5,))
    with pytest.raises(ValueError):
        sample(parse("x", ["x"]), g, ["x", "y"])


def test_sampling_is_idempotent_and_order_stable():
    g = Grid((-1.0, 0.0), (1.0, 2.0), (0.25, 0.5))
    e = parse("x^2 - y", ["x", "y"])
    a = sample(e, g, ["x", "y"])
    b = sample(e, g, ["x", "y"])
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.values, b.values)


def test_sample_propagates_evaluation_error_with_point():
    g = Grid((-1.0,), (1.0,), (1.0,))
    with pytest.raises(EvaluationError) as err:
        sample(parse("1/x", ["x"]), g, ["x"])
    assert str(err.value) == "division by zero at point (0.0,)"
    assert err.value.index == 1


@pytest.mark.parametrize(
    "source, grid, message",
    [
        ("x^-1", Grid((-1.0,), (1.0,), (0.5,)), "division by zero at point (0.0,)"),
        ("1/(x - y)", Grid((0.0, 0.0), (2.0, 2.0), (1.0, 1.0)), "division by zero at point (0.0, 0.0)"),
        # 1/(x - 1) fails first in evaluation order, 1/x first in point order
        ("1/(x - 1) + 1/x", Grid((-1.0,), (1.0,), (1.0,)), "division by zero at point (0.0,)"),
        # 5^400 is finite, 6^400 overflows: the first overflowing point is named
        ("x^400", Grid((0.0,), (10.0,), (1.0,)), "overflow in power at point (6.0,)"),
        # on a 2-D grid each node runs over the axes it depends on, and its
        # first failing element is mapped back to the first failing point
        ("1/(x - 2) + 1/(y - 1)", Grid((0.0, 0.0), (2.0, 2.0), (1.0, 1.0)), "division by zero at point (0.0, 1.0)"),
        ("x^400 + y", Grid((0.0, 0.0), (10.0, 2.0), (1.0, 1.0)), "overflow in power at point (6.0, 0.0)"),
        ("y^400 + x", Grid((0.0, 0.0), (2.0, 10.0), (1.0, 1.0)), "overflow in power at point (0.0, 6.0)"),
        ("(x*y)^400", Grid((-10.0, 0.0), (10.0, 10.0), (1.0, 1.0)), "overflow in power at point (-10.0, 1.0)"),
        # on three axes a node over the middle one must map back through it
        ("x + y^400 + z", Grid((0.0, 0.0, 0.0), (1.0, 10.0, 1.0), (1.0, 1.0, 1.0)),
         "overflow in power at point (0.0, 6.0, 0.0)"),
        ("x*z + 1/(y - 2)", Grid((0.0,) * 3, (2.0,) * 3, (1.0,) * 3), "division by zero at point (0.0, 2.0, 0.0)"),
        ("(x*z)^-1 + y", Grid((-1.0, 0.0, -1.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
         "division by zero at point (-1.0, 0.0, 0.0)"),
    ],
)
def test_sample_names_first_failing_point(source, grid, message):
    variables = ["x", "y", "z"][: grid.dimension]
    with pytest.raises(EvaluationError) as err:
        sample(parse(source, variables), grid, variables)
    assert str(err.value) == message


def test_sampling_a_grid_powers_each_axis_value_once(monkeypatch):
    sizes = []

    def counting(base, exponent):
        sizes.append(np.asarray(base).size)
        return power(base, exponent)

    monkeypatch.setattr(quasifit.expr, "power", counting)
    g = Grid((-1.0, -1.0), (1.0, 1.0), (0.005, 0.005))
    f = parse("(-x + y^3 + x^4)^4", ["x", "y"])
    sf = sample(f, g, ["x", "y"])
    # y^3 and x^4 over 401 axis values each, then ^4 over all 160,801 points
    assert sum(sizes) <= 161_603
    sizes.clear()
    shuffled = np.random.default_rng(17).permutation(sf.points)
    evaluate_at(f, ["x", "y"], shuffled)
    assert sum(sizes) == 3 * 160_801


def test_sample_names_first_non_finite_point():
    g = Grid((0.0,), (3.0,), (1.0,))
    with pytest.raises(EvaluationError) as err:
        sample(parse("1e300 * x^100", ["x"]), g, ["x"])
    assert str(err.value) == "non-finite value inf at point (2.0,)"


def test_point_cloud_constructor():
    sf = SampledFunction.from_points([(0.0, 0.0), (0.5, 1.0)], [1.0, 2.0])
    assert sf.dimension == 2
    assert len(sf) == 2
    assert sf.grid is None


def test_values_must_be_finite():
    with pytest.raises(ValueError):
        SampledFunction.from_points([(0.0,)], [float("inf")])


def test_attached_grid_must_match_points():
    g = Grid((0.0,), (1.0,), (0.5,))  # 3 points
    with pytest.raises(ValueError):
        SampledFunction(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]), g)


def test_sampled_arrays_are_read_only():
    g = Grid((0.0,), (1.0,), (0.5,))
    sf = sample(parse("x", ["x"]), g, ["x"])
    with pytest.raises(ValueError):
        sf.values[0] = 99.0


def test_csv_export_roundtrip():
    g = Grid((0.0, 0.0), (1.0, 1.0), (1.0, 1.0))
    sf = sample(parse("x + 2*y", ["x", "y"]), g, ["x", "y"])
    buf = io.StringIO()
    export_csv(sf, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "x1,x2,f"
    assert len(lines) == 1 + 4
    parsed = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed[:, :2], sf.points)
    assert np.array_equal(parsed[:, 2], sf.values)


def _reference_write_csv(out, points, columns):
    """Row-by-row writer that `write_csv` must match byte for byte."""
    out.write(",".join([f"x{i + 1}" for i in range(points.shape[1])] + list(columns)) + "\n")
    cells = [map(repr, map(float, col)) for col in [*points.T, *columns.values()]]
    for row in zip(*cells):
        out.write(",".join(row) + "\n")


def _tricky_table(rng, rows, cols):
    """Half the cells from a small pool holding both zeros, both infinities and
    neighbours one ulp apart, so blocks repeat values; the rest all distinct."""
    base = rng.standard_normal(8)
    pool = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 5e-324, -5e-324],
        base,
        np.nextafter(base, np.inf),
    ])
    shape = (rows, cols)
    return np.where(rng.random(shape) < 0.5, rng.choice(pool, shape), rng.standard_normal(shape))


def _csv_text(writer, points, columns):
    buf = io.StringIO()
    writer(buf, points, columns)
    return buf.getvalue()


def _assert_same_text(got, expected):
    """A mismatch names its first differing line; a full diff of 8,000 lines takes minutes."""
    for k, (a, b) in enumerate(zip(got.splitlines(), expected.splitlines())):
        assert a == b, f"line {k}"
    assert len(got) == len(expected) and got == expected


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 8193])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_write_csv_matches_row_by_row_writer(rows, dim):
    rng = np.random.default_rng(10 * rows + dim)
    table = _tricky_table(rng, rows, 2 * dim + 3)
    points = table[:, : 2 * dim : 2]  # strided columns of a row-major table
    columns = {"f": table[:, 2 * dim], "g": np.ascontiguousarray(table[:, 2 * dim + 1]), "residual": table[:, -1]}
    _assert_same_text(_csv_text(write_csv, points, columns), _csv_text(_reference_write_csv, points, columns))
    if rows > 1:
        assert not points.flags.c_contiguous and not columns["f"].flags.c_contiguous


def test_write_csv_roundtrip_is_bit_exact():
    rng = np.random.default_rng(7)
    table = _tricky_table(rng, 4097, 4)
    text = _csv_text(write_csv, table[:, :2], {"f": table[:, 2], "g": table[:, 3]})
    lines = text.splitlines()
    assert lines[0] == "x1,x2,f,g"
    parsed = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed.view(np.int64), table.view(np.int64))
    assert np.any(table.view(np.int64) == np.float64(-0.0).view(np.int64))


def test_sampled_function_holds_read_only_views_of_the_callers_arrays():
    points, values = np.zeros((3, 1)), np.arange(3.0)
    f = SampledFunction(points, values)
    for given_array, held in ((points, f.points), (values, f.values)):
        assert given_array.flags.writeable and not held.flags.writeable
        assert np.shares_memory(given_array, held)  # no copy is made
    points[0, 0] = -1.0
    assert f.points[0, 0] == -1.0
