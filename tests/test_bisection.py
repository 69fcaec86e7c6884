import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import quasifit.bisection
from quasifit.bisection import FitError, certify_bracket, expected_iterations, fit
from quasifit.expr import parse
from quasifit.grid import Grid, SampledFunction, enumerate_points, sample
from quasifit.linearize import LevelProblem
from quasifit.models import (
    BasisSpec,
    InfeasibleInitialCoefficientsError,
    ModelClass,
    MonotoneOuter,
    basis_matrix,
    evaluate_model_values,
)
from quasifit.simplex import solve

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


def test_model_values_are_the_final_coefficients_evaluated():
    # the values behind achieved_deviation, bit for bit, so no caller evaluates again
    f = sample(parse("x^3/(2-x)", ["x"]), Grid((-1.0,), (1.0,), (0.1,)), ["x"])
    numerator = BasisSpec.from_sources(["1", "x"], ["x"])
    affine = ModelClass(("x",), MonotoneOuter.identity(), numerator)
    rational = ModelClass(("x",), MonotoneOuter.odd_power(3), numerator,
                          BasisSpec.from_sources(["1", "x", "x^2"], ["x"]), (0, 1.0))
    for model in (affine, rational):
        res = fit(model, f, epsilon=EPS)
        direct = evaluate_model_values(model, res.coefficients, f.points)
        assert res.model_values.tobytes() == direct.tobytes()
        assert res.achieved_deviation == float(np.max(np.abs(f.values - res.model_values)))


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
    feasible, coeffs, _ = _oracle(LevelProblem(model, f), 1.0)
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


def test_fit_evaluates_each_basis_once_for_its_levels(monkeypatch):
    # one level problem per fit: G (and H) are evaluated once, not per level
    import quasifit.linearize

    calls = []

    def counted(*args):
        calls.append(args[0])
        return basis_matrix(*args)

    monkeypatch.setattr(quasifit.linearize, "basis_matrix", counted)
    f = sample(parse("x^3", ["x"]), Grid((-1.0,), (1.0,), (0.1,)), ("x",))
    numerator = BasisSpec.from_sources(["1", "x"], ["x"])
    affine = ModelClass(("x",), MonotoneOuter.identity(), numerator)
    rational = ModelClass(
        ("x",),
        MonotoneOuter.odd_power(3),
        numerator,
        BasisSpec.from_sources(["1", "x"], ["x"]),
        (0, 1.0),
        0.5,
    )
    for model, per_fit in ((affine, 1), (rational, 2)):
        for eps in (1e-2, EPS):
            calls.clear()
            res = fit(model, f, epsilon=eps)
            assert res.iterations > 1
            assert len(calls) == per_fit, (model.denominator, eps, res.iterations)


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
    # below 2 ulp of max|f| the rounded midpoint would stop moving the bracket
    with pytest.raises(ValueError, match=r"epsilon 1e-300 is below 2 ulp of max\|f\| = 1\.0"):
        fit(_constant_model(), f, epsilon=1e-300)


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
    # the first level starts cold; a later one whose start basis stays
    # optimal takes no pivot at all
    assert res.trace and res.trace[0].pivots > 0
    problem = LevelProblem(model, f)
    start = None
    for t in res.trace:
        _, _, sol = _oracle(problem, t.z, start=start)
        assert sol.iterations == t.pivots
        start = sol.basis


# Invariances of the minimax problem on random targets over square grids.
# Each fit's deviation lies in its certified bracket, epsilon wide, up to the
# LP's own tolerance, so two fits of equivalent problems agree within _tol.
_XY = ("x", "y")
_MODELS = {
    "identity-affine": (1, ["1", "x", "y", "x*y"], None),
    "cube-affine": (3, ["1", "x", "y"], None),
    "identity-rational": (1, ["1", "x", "y"], ["1", "x^2"]),
}


def _model(power, numerator, denominator, variables=_XY):
    if "y" not in variables:  # the 1-D restriction drops the basis functions in y
        numerator = [g for g in numerator if "y" not in g]
    if denominator is None:
        return ModelClass(variables, MonotoneOuter.odd_power(power), BasisSpec.from_sources(numerator, variables))
    return ModelClass(variables, MonotoneOuter.odd_power(power), BasisSpec.from_sources(numerator, variables),
                      BasisSpec.from_sources(denominator, variables), (0, 1.0))


def _grid_target(dimension, size, seed):
    """Normal random values on the size**dimension grid over [-1, 1]**dimension, last axis fastest."""
    axis = np.linspace(-1.0, 1.0, size)
    points = np.stack(np.meshgrid(*[axis] * dimension, indexing="ij"), axis=-1).reshape(-1, dimension)
    return SampledFunction(points, np.random.default_rng(seed).normal(size=len(points)))


def _random_target(seed=0):
    return _grid_target(2, 9, seed)


def _deviation(model, f, epsilon=EPS):
    return fit(model, f, epsilon=epsilon).achieved_deviation


def _tol(f):
    return EPS + 1e-8 * (1.0 + np.max(np.abs(f.values)))


def _deviations(model, *problems):
    """Deviations of fits of (f, epsilon) pairs; None if one ends on a singular optimal basis.

    That FitError is the known outcome of the ratio test's tiny pivots (see
    test_singular_optimal_basis_is_a_fit_error); every other failure fails.
    """
    try:
        return [_deviation(model, f, epsilon) for f, epsilon in problems]
    except FitError as exc:
        assert "status 'numerical_failure'" in str(exc)
        return None


# grids of 3-7 points per axis in one or two dimensions; the seeded 9x9
# case of each test is an explicit example
_invariance = settings(max_examples=30, deadline=None, derandomize=True)
_grids = dict(dimension=st.sampled_from([1, 2]), size=st.integers(3, 7), seed=st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("case", _MODELS)
@_invariance
@given(**_grids, order_seed=st.integers(0, 2**32 - 1))
@example(dimension=2, size=9, seed=0, order_seed=1)
def test_deviation_invariant_under_point_order(case, dimension, size, seed, order_seed):
    model, f = _model(*_MODELS[case], _XY[:dimension]), _grid_target(dimension, size, seed)
    perm = np.random.default_rng(order_seed).permutation(len(f.values))
    shuffled = SampledFunction(f.points[perm], f.values[perm])
    deviations = _deviations(model, (shuffled, EPS), (f, EPS))
    if deviations:
        assert abs(deviations[0] - deviations[1]) <= _tol(f)


@pytest.mark.parametrize("case", _MODELS)
@_invariance
@given(**_grids)
@example(dimension=2, size=9, seed=0)
def test_deviation_invariant_under_basis_order(case, dimension, size, seed):
    power, numerator, denominator = _MODELS[case]
    variables, f = _XY[:dimension], _grid_target(dimension, size, seed)
    reordered = _deviations(_model(power, numerator[::-1], denominator, variables), (f, EPS))
    original = _deviations(_model(power, numerator, denominator, variables), (f, EPS))
    if reordered and original:
        assert abs(reordered[0] - original[0]) <= _tol(f)


@pytest.mark.parametrize("case", ["identity-affine", "identity-rational"])
@_invariance
@given(**_grids, s=st.floats(0.125, 8.0))
@example(dimension=2, size=9, seed=0, s=2.5)
def test_deviation_scales_with_target_for_identity_outer(case, dimension, size, seed, s):
    # scaling f by s scales A, and the bracket with it, by s
    model, f = _model(*_MODELS[case], _XY[:dimension]), _grid_target(dimension, size, seed)
    scaled = SampledFunction(f.points, s * f.values)
    deviations = _deviations(model, (scaled, s * EPS), (f, EPS))
    if deviations:
        assert abs(deviations[0] - s * deviations[1]) <= s * _tol(f)


@_invariance
@given(**_grids, c=st.floats(-10.0, 10.0))
@example(dimension=2, size=9, seed=0, c=3.0)
def test_deviation_invariant_under_adding_a_constant(dimension, size, seed, c):
    # an identity outer over a basis holding the constant 1: g + c is in the model class
    model, f = _model(*_MODELS["identity-affine"], _XY[:dimension]), _grid_target(dimension, size, seed)
    shifted = SampledFunction(f.points, f.values + c)
    deviations = _deviations(model, (shifted, EPS), (f, EPS))
    if deviations:
        assert abs(deviations[0] - deviations[1]) <= _tol(shifted)


@pytest.mark.parametrize("case", _MODELS)
def test_adding_a_basis_function_never_increases_deviation(case):
    power, numerator, denominator = _MODELS[case]
    f = _random_target()
    larger = _model(power, numerator + ["y^2"], denominator)
    assert _deviation(larger, f) <= _deviation(_model(*_MODELS[case]), f) + _tol(f)


@pytest.mark.parametrize("case", _MODELS)
def test_refined_grid_never_decreases_deviation(case):
    # the 9x9 grid holds every point of the 5x5 grid of step 0.5, with the
    # same target values there, so its best deviation can only be larger
    model, fine = _model(*_MODELS[case]), _random_target()
    coarse_points = enumerate_points(Grid((-1.0, -1.0), (1.0, 1.0), (0.5, 0.5)))
    on_coarse = (fine.points[:, None, :] == coarse_points[None, :, :]).all(axis=2).any(axis=1)
    assert on_coarse.sum() == len(coarse_points)
    coarse = SampledFunction(fine.points[on_coarse], fine.values[on_coarse])
    assert _deviation(model, fine) >= _deviation(model, coarse) - _tol(fine)


def test_singular_optimal_basis_is_a_fit_error():
    # the ratio test can end on an optimal basis with a singular block here;
    # the fit then fails with FitError, never with numpy's LinAlgError
    model = _model(*_MODELS["identity-rational"])
    points = enumerate_points(Grid((-1.0, -1.0), (1.0, 1.0), (0.5, 0.5)))
    f = SampledFunction(points, np.random.default_rng(3941458232).normal(size=len(points)))
    try:
        result = fit(model, f, epsilon=EPS)
    except FitError:
        return
    assert result.lower <= result.achieved_deviation <= result.upper + _tol(f)


def _cold_fit(model, f, epsilon=EPS):
    """The fit with every level LP solved from scratch, ignoring the start basis."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quasifit.bisection, "solve", lambda lp, start=None: solve(lp))
        return fit(model, f, epsilon=epsilon)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=st.sampled_from(sorted(_MODELS)), dimension=st.sampled_from([1, 2]),
       size=st.integers(3, 7), seed=st.integers(0, 2**32 - 1))
def test_warm_started_levels_match_cold_solves(case, dimension, size, seed):
    # each level starts from the last level's optimal basis; solving every
    # level from scratch must give the same verdicts, hence the same bracket
    power, numerator, denominator = _MODELS[case]
    variables = _XY[:dimension]
    if dimension == 1:
        numerator = [g for g in numerator if "y" not in g]
    model = _model(power, numerator, denominator, variables)
    axis = np.linspace(-1.0, 1.0, size)
    points = np.stack(np.meshgrid(*[axis] * dimension, indexing="ij"), axis=-1).reshape(-1, dimension)
    f = SampledFunction(points, np.random.default_rng(seed).normal(size=len(points)))
    warm, cold = fit(model, f, epsilon=EPS), _cold_fit(model, f)
    assert [(t.z, t.feasible) for t in warm.trace] == [(t.z, t.feasible) for t in cold.trace]
    assert (warm.lower, warm.upper, warm.iterations) == (cold.lower, cold.upper, cold.iterations)
    # the zero numerator starts every fit, whatever the outer and the denominator
    assert warm.iterations == expected_iterations(float(np.max(np.abs(f.values))), EPS)
    assert warm.lower <= warm.achieved_deviation <= warm.upper + 1e-8 * (1.0 + np.max(np.abs(f.values)))


def test_rank_deficient_basis_solves_every_level_cold():
    # a repeated basis function repeats a dual equation; phase one deletes
    # it, the optimal basis is one row short, and no level starts warm
    from quasifit.bisection import _oracle

    model = ModelClass(("x",), MonotoneOuter.identity(), BasisSpec.from_sources(["1", "x", "x"], ["x"]))
    f = sample(parse("x^3", ["x"]), Grid((-1.0,), (1.0,), (0.1,)), ("x",))
    warm, cold = fit(model, f, epsilon=EPS), _cold_fit(model, f)
    assert warm.trace == cold.trace
    assert warm.coefficients == cold.coefficients
    assert (warm.lower, warm.upper, warm.achieved_deviation) == (cold.lower, cold.upper, cold.achieved_deviation)
    assert all(_oracle(LevelProblem(model, f), t.z)[2].basis is None for t in warm.trace)
