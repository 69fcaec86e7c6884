import numpy as np
import pytest

from quasifit.bisection import certify_bracket, expected_iterations, fit
from quasifit.expr import parse
from quasifit.grid import Grid, SampledFunction, sample
from quasifit.models import (
    BasisSpec,
    Coefficients,
    InfeasibleInitialCoefficientsError,
    ModelClass,
    MonotoneOuter,
    basis_matrix,
)

EPS = 1e-6


def _constant_model():
    return ModelClass(("x",), MonotoneOuter.identity(), BasisSpec.from_sources(["1"], ["x"]))


def test_best_constant_is_midrange():
    # best constant for samples {0, 1} is (max + min) / 2 with error (max - min) / 2
    f = SampledFunction.from_points([(0.0,), (1.0,)], [0.0, 1.0])
    res = fit(_constant_model(), f, epsilon=EPS)
    assert res.achieved_deviation == pytest.approx(0.5, abs=EPS)
    assert res.coefficients.numerator[0] == pytest.approx(0.5, abs=1e-5)


def test_exact_membership_cubed_affine():
    grid = Grid((-1.0,), (1.0,), (0.1,))
    f = sample(parse("(1+x)^3", ["x"]), grid, ["x"])
    model = ModelClass(
        ("x",), MonotoneOuter.odd_power(3), BasisSpec.from_sources(["1", "x"], ["x"])
    )
    res = fit(model, f, epsilon=EPS)
    assert res.achieved_deviation <= EPS


def test_exact_membership_rational():
    grid = Grid((-0.9,), (0.9,), (0.1,))
    f = sample(parse("x / (1 + x/2)", ["x"]), grid, ["x"])
    model = ModelClass(
        ("x",),
        MonotoneOuter.identity(),
        BasisSpec.from_sources(["1", "x"], ["x"]),
        BasisSpec.from_sources(["1", "x"], ["x"]),
        (0, 1.0),
    )
    res = fit(model, f, epsilon=EPS)
    assert res.achieved_deviation <= EPS
    # denominator positivity holds at the returned coefficients everywhere
    hmat = basis_matrix(model.denominator, model.variables, f.points)
    den = hmat @ np.array(res.coefficients.denominator)
    assert np.all(den >= model.delta * (1 - 1e-9))


def test_zero_target_terminates_immediately():
    f = SampledFunction.from_points([(0.0,), (1.0,)], [0.0, 0.0])
    res = fit(_constant_model(), f, epsilon=EPS)
    assert res.iterations == 0
    assert res.achieved_deviation == 0.0
    assert res.upper == 0.0


def test_iteration_count_formula():
    # u0 = 1 at zero coefficients, so the bracket [0, 1] halves to 1e-6 in
    # exactly ceil(log2(1e6)) = 20 steps
    f = SampledFunction.from_points([(0.0,), (1.0,)], [-1.0, 1.0])
    res = fit(_constant_model(), f, epsilon=EPS)
    assert res.iterations == expected_iterations(1.0, EPS) == 20


def test_bracket_invariant_from_trace():
    f = SampledFunction.from_points([(0.0,), (1.0,), (2.0,)], [0.0, 0.7, 1.0])
    res = fit(_constant_model(), f, epsilon=EPS)
    feasible_zs = [t.z for t in res.trace if t.feasible]
    infeasible_zs = [t.z for t in res.trace if not t.feasible]
    assert res.upper - res.lower <= EPS
    if feasible_zs:
        assert min(feasible_zs) == res.upper
    if infeasible_zs:
        assert max(infeasible_zs) == res.lower
    if feasible_zs and infeasible_zs:
        assert max(infeasible_zs) < min(feasible_zs)
    # bounds bracket the recomputed deviation
    scale = 1.0 + float(np.max(np.abs(f.values)))
    assert res.lower <= res.achieved_deviation <= res.upper + 1e-8 * scale


def test_certificate_of_finished_fit():
    f = SampledFunction.from_points([(0.0,), (1.0,)], [0.0, 1.0])
    res = fit(_constant_model(), f, epsilon=EPS)
    upper_ok, lower_ok = certify_bracket(_constant_model(), f, res, EPS)
    assert upper_ok is True
    assert lower_ok is True


def test_optimal_at_initial_coefficients():
    # symmetric samples make the zero start optimal: no level below u0 is
    # feasible, so the initial coefficients are returned
    f = SampledFunction.from_points([(0.0,), (1.0,)], [-1.0, 1.0])
    res = fit(_constant_model(), f, epsilon=EPS)
    assert res.achieved_deviation == pytest.approx(1.0, abs=1e-12)
    assert res.coefficients.numerator[0] == 0.0
    assert res.upper == 1.0
    assert res.lower >= 1.0 - EPS
    upper_ok, lower_ok = certify_bracket(_constant_model(), f, res, EPS)
    assert upper_ok is True and lower_ok is True


def test_infeasible_start_raises():
    grid = Grid((-1.0, -1.0), (1.0, 1.0), (1.0, 1.0))
    f = sample(parse("x", ["x", "y"]), grid, ["x", "y"])
    model = ModelClass(
        ("x", "y"),
        MonotoneOuter.identity(),
        BasisSpec.from_sources(["1"], ["x", "y"]),
        BasisSpec.from_sources(["x*y"], ["x", "y"]),
        (0, 1.0),
    )
    with pytest.raises(InfeasibleInitialCoefficientsError):
        fit(model, f, epsilon=EPS)


def test_caller_supplied_start():
    f = SampledFunction.from_points([(0.0,), (1.0,)], [0.0, 1.0])
    res = fit(_constant_model(), f, epsilon=EPS, initial=Coefficients((5.0,)))
    # u0 = max(|0-5|, |1-5|) = 5 changes the iteration count but not the optimum
    assert res.achieved_deviation == pytest.approx(0.5, abs=EPS)
    assert res.iterations == expected_iterations(5.0, EPS)


def test_global_optimality_against_scan():
    # dense scan over the single coefficient confirms the bisection bracket
    rng = np.random.default_rng(5)
    values = rng.uniform(-2.0, 2.0, 7)
    pts = [(float(i),) for i in range(7)]
    f = SampledFunction.from_points(pts, values)
    res = fit(_constant_model(), f, epsilon=EPS)
    cs = np.linspace(values.min(), values.max(), 20001)
    scan = np.min(np.max(np.abs(values[None, :] - cs[:, None]), axis=1))
    assert res.achieved_deviation <= scan + 1e-4
    assert res.lower - 1e-12 <= scan


def test_unbounded_oracle_level_yields_witness():
    # with H = {1, x^2} and every sample at x^2 > 0, the denominator can be
    # scaled up without bound, so a deeply feasible level drives the
    # relaxation variable to minus infinity; the oracle must still produce
    # feasible witness coefficients
    from quasifit.bisection import _oracle

    f = SampledFunction.from_points([(0.5,), (1.0,)], [0.0, 0.0])
    model = ModelClass(
        ("x",),
        MonotoneOuter.identity(),
        BasisSpec.from_sources(["1", "x"], ["x"]),
        BasisSpec.from_sources(["1", "x^2"], ["x"]),
        (0, 1.0),
    )
    feasible, coeffs, _ = _oracle(model, f, 1.0)
    assert feasible
    from quasifit.models import evaluate_model_values

    g = evaluate_model_values(model, coeffs, f.points)
    assert np.max(np.abs(f.values - g)) <= 1.0 + 1e-8

    # a nonzero target on the same domain hits the unbounded branch at every
    # bisection level (two points, two numerator functions: exactly fittable
    # for any denominator scale) and must still converge
    f2 = SampledFunction.from_points([(0.5,), (1.0,)], [0.05, 0.1])
    res = fit(model, f2, epsilon=EPS)
    assert res.achieved_deviation <= EPS
    assert all(t.lp_objective == pytest.approx(-1.0) for t in res.trace if t.feasible)


def test_tight_positivity_margin_respected():
    # delta = 0.5 caps the denominator swing at |b2| <= 0.5 on [-1, 1]; the
    # positivity rows are active constraints, not an afterthought
    grid = Grid((-1.0,), (1.0,), (0.1,))
    f = sample(parse("x^3", ["x"]), grid, ["x"])
    model = ModelClass(
        ("x",),
        MonotoneOuter.identity(),
        BasisSpec.from_sources(["1", "x"], ["x"]),
        BasisSpec.from_sources(["1", "x"], ["x"]),
        (0, 1.0),
        0.5,
    )
    res = fit(model, f, epsilon=EPS)
    hmat = basis_matrix(model.denominator, model.variables, f.points)
    den = hmat @ np.array(res.coefficients.denominator)
    assert den.min() >= 0.5 * (1 - 1e-9)
    upper_ok, lower_ok = certify_bracket(model, f, res, EPS)
    assert upper_ok and (lower_ok is None or lower_ok)


def test_two_coefficient_fit_matches_grid_scan():
    # independent oracle: dense scan over (a1, a2) brackets the optimum of the
    # affine fit from above at scan resolution
    rng = np.random.default_rng(1234)
    for _ in range(3):
        values = rng.uniform(-1.0, 1.0, 9)
        pts = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
        f = SampledFunction(pts, values)
        model = ModelClass(
            ("x",), MonotoneOuter.identity(), BasisSpec.from_sources(["1", "x"], ["x"])
        )
        res = fit(model, f, epsilon=EPS)
        a1s = np.linspace(-1.5, 1.5, 301)
        a2s = np.linspace(-1.5, 1.5, 301)
        best = np.inf
        for a2 in a2s:
            resid = values[None, :] - (a1s[:, None] + a2 * pts[:, 0][None, :])
            best = min(best, float(np.min(np.max(np.abs(resid), axis=1))))
        assert res.achieved_deviation <= best + 1e-9
        assert best <= res.achieved_deviation + 0.02  # scan resolution slack


def test_three_variable_fit():
    grid = Grid((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), (0.5, 0.5, 0.5))
    names = ["x", "y", "z"]
    f = sample(parse("x + 2*y - z", names), grid, names)
    model = ModelClass(
        tuple(names),
        MonotoneOuter.identity(),
        BasisSpec.from_sources(["1", "x", "y", "z"], names),
    )
    res = fit(model, f, epsilon=EPS)
    assert res.achieved_deviation <= EPS


def test_epsilon_validation():
    f = SampledFunction.from_points([(0.0,)], [1.0])
    with pytest.raises(ValueError):
        fit(_constant_model(), f, epsilon=0.0)


def test_trace_pivots_repeat_on_resolve():
    from quasifit.bisection import _oracle

    model = ModelClass(
        ("x",),
        MonotoneOuter.odd_power(3),
        BasisSpec.from_sources(["1", "x"], ["x"]),
        BasisSpec.from_sources(["1", "x"], ["x"]),
        (0, 1.0),
    )
    f = sample(parse("x^2", ["x"]), Grid((0.0,), (1.0,), (0.125,)), ("x",))
    res = fit(model, f, epsilon=1e-4)
    assert res.trace and all(t.pivots > 0 for t in res.trace)
    for t in res.trace:
        _, _, sol = _oracle(model, f, t.z)
        assert sol.iterations == t.pivots
