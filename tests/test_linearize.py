import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasifit.bisection import _oracle
from quasifit.expr import parse
from quasifit.grid import Grid, SampledFunction, sample
from quasifit.linearize import LevelProblem, LinearProgram, build_feasibility_lp
from quasifit.models import BasisSpec, ModelClass, MonotoneOuter, evaluate_model_values
from quasifit.simplex import solve

XY = ("x", "y")


def _affine_model():
    return ModelClass(
        ("x",), MonotoneOuter.identity(), BasisSpec.from_sources(["1", "x"], ["x"])
    )


def _two_point_samples():
    return SampledFunction.from_points([(0.0,), (1.0,)], [0.0, 1.0])


def test_hand_built_affine_rows_at_level_zero():
    lp = build_feasibility_lp(LevelProblem(_affine_model(), _two_point_samples()), 0.0)
    # per point: A.G - (f+z) <= u, then (f-z) - A.G <= u; the floor u >= -1 last
    assert lp.names == ("a1", "a2", "u")
    expected_rows = np.array(
        [
            [1.0, 0.0, -1.0],
            [-1.0, -0.0, -1.0],
            [1.0, 1.0, -1.0],
            [-1.0, -1.0, -1.0],
            [0.0, 0.0, -1.0],
        ]
    )
    expected_rhs = np.array([0.0, 0.0, 1.0, -1.0, 1.0])
    assert np.allclose(lp.rows, expected_rows)
    assert np.allclose(lp.rhs, expected_rhs)
    assert np.allclose(lp.objective, [0.0, 0.0, 1.0])


def test_rational_cubed_model_row_count():
    # 3 constraint families over 441 points plus the floor row, 6 free
    # coefficients plus u
    grid = Grid((-1.0, -1.0), (1.0, 1.0), (0.1, 0.1))
    f = sample(parse("(-x+y^3+x^4)^4", XY), grid, XY)
    model = ModelClass(
        XY,
        MonotoneOuter.odd_power(3),
        BasisSpec.from_sources(["1", "x", "y", "x^2", "y^2"], XY),
        BasisSpec.from_sources(["1", "x*y"], XY),
        (0, 1.0),
    )
    lp = build_feasibility_lp(LevelProblem(model, f), 5.0)
    assert lp.rows.shape == (3 * 441 + 1, 7)
    assert lp.names == ("a1", "a2", "a3", "a4", "a5", "b2", "u")
    assert np.all(np.isfinite(lp.rows))
    assert np.array_equal(lp.rows[-1], [0.0] * 6 + [-1.0]) and lp.rhs[-1] == 1.0


def test_cube_outer_level_rows_use_inverse():
    # f(x0) = 8 with cube outer at z = 0: the pulled-back bound is 2
    model = ModelClass(
        ("x",), MonotoneOuter.odd_power(3), BasisSpec.from_sources(["1"], ["x"])
    )
    f = SampledFunction.from_points([(0.3,)], [8.0])
    lp = build_feasibility_lp(LevelProblem(model, f), 0.0)
    assert np.allclose(lp.rows, [[1.0, -1.0], [-1.0, -1.0], [0.0, -1.0]])
    assert np.allclose(lp.rhs, [2.0, -2.0, 1.0])


def test_positivity_rows_are_hard():
    model = ModelClass(
        ("x",),
        MonotoneOuter.identity(),
        BasisSpec.from_sources(["1"], ["x"]),
        BasisSpec.from_sources(["1", "x"], ["x"]),
        (0, 1.0),
        1e-3,
    )
    f = SampledFunction.from_points([(0.5,)], [2.0])
    lp = build_feasibility_lp(LevelProblem(model, f), 0.25)
    # third row of the point block: -B.H(x) <= -delta with fixed part folded
    assert np.allclose(lp.rows[2], [0.0, -0.5, 0.0])
    assert lp.rhs[2] == pytest.approx(1.0 - 1e-3)
    assert lp.rows[2, -1] == 0.0


def test_identity_rational_rows_match_premultiplied_form():
    # with the identity outer the rows are exactly the premultiplied level
    # constraints: f.BH - A.G - z.BH <= u and A.G - f.BH - z.BH <= u
    model = ModelClass(
        ("x",),
        MonotoneOuter.identity(),
        BasisSpec.from_sources(["x"], ["x"]),
        BasisSpec.from_sources(["1", "x"], ["x"]),
        (0, 1.0),
    )
    x0, fx, z = 0.5, 2.0, 0.25
    f = SampledFunction.from_points([(x0,)], [fx])
    lp = build_feasibility_lp(LevelProblem(model, f), z)
    # variables (a1, b2, u); upper row: a1*x0 - (fx+z)*(1 + b2*x0) <= u
    assert np.allclose(lp.rows[0], [x0, -(fx + z) * x0, -1.0])
    assert lp.rhs[0] == pytest.approx(fx + z)
    assert np.allclose(lp.rows[1], [-x0, (fx - z) * x0, -1.0])
    assert lp.rhs[1] == pytest.approx(-(fx - z))


def test_rejects_negative_level():
    with pytest.raises(ValueError):
        build_feasibility_lp(LevelProblem(_affine_model(), _two_point_samples()), -0.1)


def test_soundness_of_feasible_oracle_solutions():
    # whenever u* <= 0, the solution coefficients meet every level constraint
    grid = Grid((-1.0,), (1.0,), (0.25,))
    f = sample(parse("x^2", ["x"]), grid, ["x"])
    model = ModelClass(
        ("x",),
        MonotoneOuter.identity(),
        BasisSpec.from_sources(["1", "x"], ["x"]),
        BasisSpec.from_sources(["1", "x^2"], ["x"]),
        (0, 1.0),
    )
    for z in (0.2, 0.5, 1.0):
        sol = solve(build_feasibility_lp(LevelProblem(model, f), z))
        assert sol.status == "optimal"
        if sol.objective <= 0.0:
            coeffs = model.coefficients_from_free(sol.solution[:-1])
            g = evaluate_model_values(model, coeffs, f.points)
            scale = 1.0 + float(np.max(np.abs(f.values)))
            assert np.max(np.abs(f.values - g)) <= z + 1e-8 * scale


def test_completeness_strictly_feasible_coefficients():
    # coefficients satisfying all constraints strictly force optimum <= 0
    model = _affine_model()
    f = _two_point_samples()
    # a = (0.25, 0.5) has residuals (0.25, 0.25), strictly below z = 0.3
    lp = build_feasibility_lp(LevelProblem(model, f), 0.3)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective <= 0.0


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    z=st.floats(min_value=0.0, max_value=3.0),
    power=st.sampled_from([1, 3]),
    rational=st.booleans(),
)
def test_oracle_soundness_randomized(data, z, power, rational):
    # whenever the level LP reports u* <= 0, its witness satisfies the level
    n_pts = data.draw(st.integers(min_value=2, max_value=8))
    xs = sorted(
        data.draw(
            st.lists(
                st.floats(min_value=-1.0, max_value=1.0),
                min_size=n_pts,
                max_size=n_pts,
                unique=True,
            )
        )
    )
    vals = data.draw(
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0),
            min_size=n_pts,
            max_size=n_pts,
        )
    )
    f = SampledFunction.from_points([(x,) for x in xs], vals)
    outer = MonotoneOuter.identity() if power == 1 else MonotoneOuter.odd_power(power)
    if rational:
        model = ModelClass(
            ("x",),
            outer,
            BasisSpec.from_sources(["1", "x"], ["x"]),
            BasisSpec.from_sources(["1", "x^2"], ["x"]),
            (0, 1.0),
        )
    else:
        model = ModelClass(("x",), outer, BasisSpec.from_sources(["1", "x"], ["x"]))
    # the oracle folds the unbounded case (denominator scalable to infinity
    # at a deeply feasible level) into a feasible verdict with a witness
    feasible, coeffs, _ = _oracle(LevelProblem(model, f), z)
    if feasible:
        g = evaluate_model_values(model, coeffs, f.points)
        scale = 1.0 + float(np.max(np.abs(f.values)))
        assert np.max(np.abs(f.values - g)) <= z + 1e-8 * scale


def test_optimum_monotone_in_level():
    grid = Grid((-1.0,), (1.0,), (0.2,))
    f = sample(parse("x^3 - x", ["x"]), grid, ["x"])
    model = ModelClass(
        ("x",), MonotoneOuter.identity(), BasisSpec.from_sources(["1", "x"], ["x"])
    )
    levels = [0.0, 0.05, 0.1, 0.2, 0.5, 1.0]
    opts = [solve(build_feasibility_lp(LevelProblem(model, f), z)).objective for z in levels]
    for a, b in zip(opts, opts[1:]):
        assert b <= a + 1e-9


def test_lp_data_must_be_finite():
    with pytest.raises(ValueError):
        LinearProgram(np.array([1.0]), np.array([[np.inf]]), np.array([0.0]), ("v",))



def _reference_lp(model, f, z):
    """One-shot assembly of the level-z LP with the floor row appended."""
    from quasifit.models import basis_matrix

    pts = f.points
    n_pts = pts.shape[0]
    gmat = basis_matrix(model.numerator, model.variables, pts)
    n_g = len(model.numerator)
    free_b = model.free_denominator_indices()
    n_free = n_g + len(free_b)
    n_vars = n_free + 1
    names = tuple(model.coefficient_names() + ["u"])
    hi = model.outer.inverse(f.values + z)
    lo = model.outer.inverse(f.values - z)
    if model.denominator is None:
        rows = np.zeros((2 * n_pts, n_vars))
        rhs = np.zeros(2 * n_pts)
        rows[0::2, :n_g] = gmat
        rows[0::2, -1] = -1.0
        rhs[0::2] = hi
        rows[1::2, :n_g] = -gmat
        rows[1::2, -1] = -1.0
        rhs[1::2] = -lo
    else:
        hmat = basis_matrix(model.denominator, model.variables, pts)
        idx, val = model.fixed_coefficient
        den_fixed = val * hmat[:, idx]
        h_free = hmat[:, free_b]
        rows = np.zeros((3 * n_pts, n_vars))
        rhs = np.zeros(3 * n_pts)
        rows[0::3, :n_g] = gmat
        rows[0::3, n_g:n_free] = -hi[:, None] * h_free
        rows[0::3, -1] = -1.0
        rhs[0::3] = hi * den_fixed
        rows[1::3, :n_g] = -gmat
        rows[1::3, n_g:n_free] = lo[:, None] * h_free
        rows[1::3, -1] = -1.0
        rhs[1::3] = -lo * den_fixed
        rows[2::3, n_g:n_free] = -h_free
        rhs[2::3] = den_fixed - model.delta
    objective = np.zeros(n_vars)
    objective[-1] = 1.0
    floor = np.zeros(n_vars)
    floor[-1] = -1.0
    return LinearProgram(objective, np.vstack([rows, floor]), np.append(rhs, 1.0), names)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_level_lps_match_reference_assembly():
    # the per-fit template plus per-level fill gives bit for bit the LP of a
    # one-shot assembly, and re-filling an earlier level gives it again;
    # comparing only after every level is built also catches LPs sharing
    # a buffer that a later level overwrites
    grid = Grid((-1.0, -1.0), (1.0, 1.0), (0.25, 0.5))
    f = sample(parse("(-x + y^3 + x^4)^2 - 0.5", XY), grid, XY)
    numerator = BasisSpec.from_sources(["1", "x", "y", "x*y"], XY)
    denominator = BasisSpec.from_sources(["x^2", "1", "y"], XY)
    for outer in (MonotoneOuter.identity(), MonotoneOuter.odd_power(3)):
        models = (
            ModelClass(XY, outer, numerator),
            ModelClass(XY, outer, numerator, denominator, (1, 2.0), 0.25),
        )
        for model in models:
            problem = LevelProblem(model, f)
            levels = (0.0, 0.3, 1.7, 0.3, 0.0)
            lps = [build_feasibility_lp(problem, z) for z in levels]
            for z, lp in zip(levels, lps):
                ref = _reference_lp(model, f, z)
                assert lp.names == ref.names
                assert _same_bits(lp.objective, ref.objective)
                assert _same_bits(lp.rows, ref.rows), (model.denominator, z)
                assert _same_bits(lp.rhs, ref.rhs), (model.denominator, z)


def test_linear_program_holds_read_only_views_of_the_callers_arrays():
    c, G, h = np.ones(2), np.eye(2), np.zeros(2)
    lp = LinearProgram(c, G, h, ("a", "b"))
    for given_array, held in ((c, lp.objective), (G, lp.rows), (h, lp.rhs)):
        assert given_array.flags.writeable and not held.flags.writeable
        assert np.shares_memory(given_array, held)  # no copy is made
    G[0, 0] = 5.0
    assert lp.rows[0, 0] == 5.0
