import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasifit.bisection import fit
from quasifit.expr import parse
from quasifit.grid import Grid, SampledFunction, enumerate_points, sample
from quasifit.models import BasisSpec, ModelClass, MonotoneOuter
from quasifit.oscillation import (
    AlternationReport,
    check_polynomial_optimality,
    check_rational_optimality,
    compute_defect,
    effective_degree,
    extract_alternations,
    required_count,
)


def _residuals_1d(xs, values):
    return SampledFunction.from_points([(float(x),) for x in xs], values)


def test_absolute_value_residual_alternates_three_times():
    # the best degree-1 fit to |x| on [-1, 1] is the constant 1/2; its
    # residual |x| - 1/2 peaks at -1 (+), 0 (-), 1 (+)
    xs = np.linspace(-1.0, 1.0, 201)
    report = extract_alternations(_residuals_1d(xs, np.abs(xs) - 0.5))
    assert report.count == 3
    assert report.signs == (1, -1, 1)
    assert not report.exact_fit
    peaks = [xs[i] for i in report.point_indices]
    assert peaks[0] == pytest.approx(-1.0)
    assert peaks[1] == pytest.approx(0.0)
    assert peaks[2] == pytest.approx(1.0)


def test_identity_under_constant_model_alternates_twice():
    xs = np.linspace(-1.0, 1.0, 41)
    report = extract_alternations(_residuals_1d(xs, xs.copy()))
    assert report.count == 2
    assert report.signs == (-1, 1)


def test_zero_residuals_exact_fit_report():
    xs = np.linspace(0.0, 1.0, 11)
    report = extract_alternations(_residuals_1d(xs, np.zeros(11)))
    assert report.exact_fit
    assert report.count == 11  # every point attains the zero maximum
    assert report.point_indices == ()


def test_same_sign_run_counts_once():
    xs = [0.0, 1.0, 2.0, 3.0, 4.0]
    vals = [1.0, 0.999, -1.0, 0.9995, 1.0]
    report = extract_alternations(_residuals_1d(xs, vals), tau=1e-2)
    assert report.count == 3
    # the strongest point represents each run
    assert report.point_indices == (0, 2, 4)


def test_multivariate_rejected():
    sf = SampledFunction.from_points([(0.0, 0.0), (1.0, 1.0)], [1.0, -1.0])
    with pytest.raises(ValueError):
        extract_alternations(sf)


def test_unsorted_grid_rejected():
    sf = SampledFunction.from_points([(1.0,), (0.0,)], [1.0, -1.0])
    with pytest.raises(ValueError):
        extract_alternations(sf)


def test_scaling_invariance_and_sign_flip():
    xs = np.linspace(-1.0, 1.0, 101)
    vals = np.sin(3 * np.pi * xs)
    base = extract_alternations(_residuals_1d(xs, vals))
    scaled = extract_alternations(_residuals_1d(xs, 7.5 * vals))
    flipped = extract_alternations(_residuals_1d(xs, -vals))
    assert scaled.count == base.count
    assert scaled.point_indices == base.point_indices
    assert flipped.count == base.count
    assert flipped.signs == tuple(-s for s in base.signs)


def test_polynomial_thresholds():
    assert check_polynomial_optimality(1, AlternationReport((), (), 3, 1.0))
    assert check_polynomial_optimality(0, AlternationReport((), (), 2, 1.0))
    assert not check_polynomial_optimality(2, AlternationReport((), (), 3, 1.0))


def test_rational_thresholds():
    assert check_rational_optimality(1, 1, 0, AlternationReport((), (), 4, 1.0))
    assert check_rational_optimality(1, 1, 1, AlternationReport((), (), 3, 1.0))
    assert not check_rational_optimality(2, 1, 0, AlternationReport((), (), 4, 1.0))


def test_polynomial_rule_is_the_rational_rule_at_m_zero():
    assert required_count(1, 1, 1) == 3 and required_count(2, 3, 0) == 7
    for n in range(4):
        assert required_count(n, 0, 0) == n + 2
        for count in range(7):
            report = AlternationReport((), (), count, 1.0)
            assert check_polynomial_optimality(n, report) == check_rational_optimality(n, 0, 0, report)


def test_defect_examples():
    assert compute_defect(2, 2, 1, 1).defect == 1  # min(1, 1)
    assert compute_defect(3, 1, 3, 1).defect == 0  # no reduction
    assert compute_defect(5, 2, 3, 2).defect == 0  # min(2, 0)


def test_defect_degree_overflow():
    with pytest.raises(ValueError):
        compute_defect(2, 2, 3, 1)
    with pytest.raises(ValueError):
        compute_defect(2, 2, 1, 3)


def test_effective_degree():
    assert effective_degree([1.0, 2.0, 0.0]) == 1
    assert effective_degree([1.0, 2.0, 1e-12]) == 1  # trailing noise ignored
    assert effective_degree([0.0, 0.0, 1.0]) == 2
    assert effective_degree([0.0, 0.0]) == 0
    assert effective_degree([3.0]) == 0


def test_fit_to_absolute_value_certifies_optimal():
    grid = Grid((-1.0,), (1.0,), (0.02,))
    xs = enumerate_points(grid)
    f = SampledFunction(xs, np.abs(xs[:, 0]))
    model = ModelClass(
        ("x",), MonotoneOuter.identity(), BasisSpec.from_sources(["1", "x"], ["x"])
    )
    res = fit(model, f, epsilon=1e-6)
    assert res.achieved_deviation == pytest.approx(0.5, abs=1e-3)
    residuals = SampledFunction(f.points, f.values - res.model_values)
    tau = 10 * 1e-6 / res.achieved_deviation
    report = extract_alternations(residuals, tau=tau)
    assert check_polynomial_optimality(1, report)


def test_exact_fit_from_pipeline():
    grid = Grid((-1.0,), (1.0,), (0.5,))
    f = sample(parse("0", ["x"]), grid, ["x"])
    model = ModelClass(("x",), MonotoneOuter.identity(), BasisSpec.from_sources(["1"], ["x"]))
    res = fit(model, f)
    report = extract_alternations(SampledFunction(f.points, f.values - res.model_values))
    assert report.exact_fit


def _reference_extract_alternations(residuals, tau=1e-3):
    # the point-by-point scan that extract_alternations replaced
    vals = residuals.values
    max_abs = float(np.max(np.abs(vals)))
    if max_abs == 0.0:
        return AlternationReport((), (), len(vals), 0.0, exact_fit=True)
    threshold = (1.0 - tau) * max_abs
    points, signs = [], []
    last_sign = 0
    block_best = -1.0
    for k, v in enumerate(vals):
        if abs(v) < threshold:
            continue
        s = 1 if v > 0 else -1
        if s != last_sign:
            points.append(k)
            signs.append(s)
            last_sign = s
            block_best = abs(v)
        elif abs(v) > block_best:
            points[-1] = k
            block_best = abs(v)
    return AlternationReport(tuple(points), tuple(signs), len(points), max_abs)


# few distinct magnitudes, so runs hold ties and equal |v|, and both zeros
_RESIDUAL = st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.9995, -0.9995, 0.99999, -0.99999, 1.0, -1.0])


@settings(max_examples=300)
@given(st.lists(_RESIDUAL, min_size=1, max_size=40), st.sampled_from([0.0, 1e-3, 0.5]))
def test_alternations_match_reference_scan(values, tau):
    residuals = _residuals_1d(range(len(values)), values)
    assert extract_alternations(residuals, tau) == _reference_extract_alternations(residuals, tau)


def test_alternations_keep_the_first_of_equal_maxima():
    vals = [0.5, 1.0, 1.0, -1.0, -0.0, -1.0, 1.0]
    report = extract_alternations(_residuals_1d(range(len(vals)), vals), tau=0.6)
    assert report.point_indices == (1, 3, 6)
    assert report.signs == (1, -1, 1)
    # a zero that clears the threshold counts as negative
    zeros = extract_alternations(_residuals_1d(range(3), [5e-324, -0.0, 0.0]), tau=0.5)
    assert zeros == AlternationReport((0, 1), (1, -1), 2, 5e-324)
