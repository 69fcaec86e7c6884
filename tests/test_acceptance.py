"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.

Criterion 2 asserts a reference deviation range for the rational-composed
benchmark that this solver's certified global optimum undercuts; the test is
kept faithful to the stated range and is expected to fail, with the analysis
printed alongside (see the assertion message for the verified numbers).
"""

import time
from itertools import combinations

import numpy as np
import pytest

from quasifit.axiomatic import (
    INF,
    ConvexityFamily,
    FunctionTable,
    GroundSet,
    caratheodory_number,
    family_over_rows,
    hull,
    indicator_lift,
    is_closure_space,
    is_convexity_structure,
    l_convex_sets,
    convexity_extension,
    sorted_members,
    support_set,
)
from quasifit.bisection import certify_bracket, expected_iterations, fit
from quasifit.expr import parse
from quasifit.grid import Grid, SampledFunction, enumerate_points, sample
from quasifit.linearize import LinearProgram
from quasifit.models import (
    BasisSpec,
    ModelClass,
    MonotoneOuter,
    basis_matrix,
    default_initial_coefficients,
    evaluate_model_values,
)
from quasifit.oscillation import check_polynomial_optimality, compute_defect, extract_alternations
from quasifit.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve

from test_simplex import brute_force_minimum, random_bounded_instance

XY = ("x", "y")
TARGET = "(-x + y^3 + x^4)^4"
EPS = 1e-6


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def square_samples():
    grid = Grid((-1.0, -1.0), (1.0, 1.0), (0.1, 0.1))
    samples = sample(parse(TARGET, list(XY)), grid, XY)
    assert len(samples) == 441  # 21 points per axis, endpoints included
    return samples


@pytest.fixture(scope="module")
def affine_cubed_model():
    return ModelClass(
        XY,
        MonotoneOuter.odd_power(3),
        BasisSpec.from_sources(["1", "x", "y", "x^2", "y^2", "x*y"], XY),
    )


def _rational_cubed_model(delta: float) -> ModelClass:
    return ModelClass(
        XY,
        MonotoneOuter.odd_power(3),
        BasisSpec.from_sources(["1", "x", "y", "x^2", "y^2"], XY),
        BasisSpec.from_sources(["1", "x*y"], XY),
        (0, 1.0),
        delta,
    )


@pytest.fixture(scope="module")
def exp1(square_samples, affine_cubed_model):
    t0 = time.time()
    result = fit(affine_cubed_model, square_samples, epsilon=EPS)
    return result, time.time() - t0


@pytest.fixture(scope="module")
def exp2_fits(square_samples):
    out = {}
    for delta in (1e-2, 1e-4, 1e-6):
        out[delta] = fit(_rational_cubed_model(delta), square_samples, epsilon=EPS)
    return out


@pytest.fixture(scope="module")
def abs_fit():
    pts = enumerate_points(Grid((-1.0,), (1.0,), (0.01,)))
    assert pts.shape[0] == 201
    f = SampledFunction(pts, np.abs(pts[:, 0]))
    model = ModelClass(
        ("x",), MonotoneOuter.identity(), BasisSpec.from_sources(["1", "x"], ["x"])
    )
    return model, f, fit(model, f, epsilon=EPS)


def test_criterion_1_affine_cubed_benchmark(exp1):
    """441-point square grid, six-term quadratic under a cube: deviation 8.01."""
    result, runtime = exp1
    ok = abs(result.achieved_deviation - 8.01) <= 0.02 and runtime < 60.0
    _report(
        1,
        ok,
        f"achieved deviation {result.achieved_deviation:.5f} (target 8.01 +/- 0.02), "
        f"runtime {runtime:.1f}s (< 60s), {result.iterations} bisection steps",
    )
    assert abs(result.achieved_deviation - 8.01) <= 0.02
    assert runtime < 60.0


def test_criterion_2_rational_cubed_deviation_range(square_samples, exp2_fits):
    """Reference range [11.30, 11.55] for the rational-composed benchmark.

    Kept faithful to the stated range.  The bisection with its LP oracle is
    globally convergent on this quasiconvex problem and certifies a strictly
    better optimum near 6.03, reproducibly and with verified denominator
    positivity, so this assertion fails; the printed detail carries the
    evidence.
    """
    result = exp2_fits[1e-4]
    dev = result.achieved_deviation
    model = _rational_cubed_model(1e-4)
    hmat = basis_matrix(model.denominator, XY, square_samples.points)
    den = hmat @ np.array(result.coefficients.denominator)
    g = evaluate_model_values(model, result.coefficients, square_samples.points)
    recomputed = float(np.max(np.abs(square_samples.values - g)))
    ok = 11.30 <= dev <= 11.55
    _report(
        2,
        ok,
        f"achieved deviation {dev:.5f} vs reference range [11.30, 11.55]; "
        f"solution re-verified by direct evaluation ({recomputed:.5f}) with "
        f"denominator in [{den.min():.4f}, {den.max():.4f}] >= delta; "
        f"certified bounds [{result.lower:.6f}, {result.upper:.6f}] prove no "
        f"deviation below {result.lower:.4f} is attainable, so the reference "
        f"range cannot contain the optimum",
    )
    assert den.min() >= model.delta * (1 - 1e-9)
    assert recomputed == dev
    assert 11.30 <= dev <= 11.55, (
        f"certified global optimum {dev:.5f} lies below the reference range "
        f"[11.30, 11.55]; the bracket [{result.lower:.6f}, {result.upper:.6f}] "
        f"is oracle-certified and the witness coefficients are feasible, so the "
        f"reference value is not reproducible as an optimum of this problem"
    )


def test_criterion_2_delta_sensitivity(square_samples, exp2_fits):
    """Positivity-margin sensitivity: smaller delta can only enlarge the
    feasible set, so the certified deviation is nonincreasing in it."""
    devs = {d: r.achieved_deviation for d, r in exp2_fits.items()}
    for delta, result in exp2_fits.items():
        model = _rational_cubed_model(delta)
        hmat = basis_matrix(model.denominator, XY, square_samples.points)
        den = hmat @ np.array(result.coefficients.denominator)
        assert den.min() >= delta * (1 - 1e-9)
    ok = devs[1e-6] <= devs[1e-4] + 1e-6 and devs[1e-4] <= devs[1e-2] + 1e-6
    _report(
        2,
        ok,
        "delta sensitivity: "
        + ", ".join(f"delta={d:g} -> {v:.6f}" for d, v in sorted(devs.items())),
    )
    assert ok


def test_criterion_3_bracket_certificates(exp1, exp2_fits, abs_fit, square_samples, affine_cubed_model):
    """Every fit: oracle(u + eps) feasible, oracle(l - min(eps, l/2)) infeasible,
    and the step count equals ceil(log2(u0 / eps))."""
    abs_model, abs_samples, abs_result = abs_fit
    small_model = ModelClass(
        ("x",), MonotoneOuter.identity(), BasisSpec.from_sources(["1"], ["x"])
    )
    small_samples = SampledFunction.from_points([(0.0,), (1.0,)], [0.0, 1.0])
    small_result = fit(small_model, small_samples, epsilon=EPS)

    cube_model = ModelClass(
        ("x",), MonotoneOuter.odd_power(3), BasisSpec.from_sources(["1", "x"], ["x"])
    )
    cube_grid = Grid((-1.0,), (1.0,), (0.1,))
    cube_samples = sample(parse("(1+x)^3", ["x"]), cube_grid, ["x"])
    cube_result = fit(cube_model, cube_samples, epsilon=EPS)

    suite = [
        ("affine-cubed benchmark", affine_cubed_model, square_samples, exp1[0]),
        ("rational-cubed benchmark", _rational_cubed_model(1e-4), square_samples, exp2_fits[1e-4]),
        ("abs fit", abs_model, abs_samples, abs_result),
        ("midrange fit", small_model, small_samples, small_result),
        ("exact cube fit", cube_model, cube_samples, cube_result),
    ]
    details = []
    all_ok = True
    for name, model, samples, result in suite:
        upper_ok, lower_ok = certify_bracket(model, samples, result, EPS)
        start = default_initial_coefficients(model, samples.points)
        g0 = evaluate_model_values(model, start, samples.points)
        u0 = float(np.max(np.abs(samples.values - g0)))
        iter_ok = result.iterations == expected_iterations(u0, EPS)
        case_ok = upper_ok and (lower_ok is None or lower_ok) and iter_ok
        all_ok &= case_ok
        details.append(f"{name}: cert=({upper_ok},{lower_ok}) iters={result.iterations} ok={case_ok}")
    _report(3, all_ok, "; ".join(details))
    assert all_ok


def test_criterion_4_equioscillation_and_defect(abs_fit):
    """Degree-1 fit to |x| on 201 points: deviation 1/2 and 3 alternations;
    defect arithmetic on a hand-checked table."""
    model, samples, result = abs_fit
    dev_ok = abs(result.achieved_deviation - 0.5) <= 1e-3
    g = evaluate_model_values(model, result.coefficients, samples.points)
    report = extract_alternations(SampledFunction(samples.points, samples.values - g))
    count_ok = report.count >= 3 and check_polynomial_optimality(1, report)

    # (n, m, p, q) -> min(n - p, m - q), all verified by hand
    defect_table = [
        (2, 2, 1, 1, 1),
        (3, 1, 3, 1, 0),
        (5, 2, 3, 2, 0),
        (4, 4, 4, 4, 0),
        (4, 4, 0, 0, 4),
        (3, 2, 1, 0, 2),
        (6, 3, 2, 2, 1),
        (1, 0, 0, 0, 0),
        (5, 5, 2, 4, 1),
        (7, 2, 7, 0, 0),
    ]
    defect_ok = all(
        compute_defect(n, m, p, q).defect == expected for n, m, p, q, expected in defect_table
    )
    ok = dev_ok and count_ok and defect_ok
    _report(
        4,
        ok,
        f"deviation {result.achieved_deviation:.6f} (0.5 +/- 1e-3), "
        f"alternation count {report.count} >= 3, defect table 10/10",
    )
    assert dev_ok and count_ok and defect_ok


def test_criterion_5_lp_oracle_equivalence():
    """Simplex agrees with vertex enumeration on 200 bounded instances and
    exhibits all three statuses."""
    rng = np.random.default_rng(424242)
    statuses = set()
    compared = 0
    worst = 0.0
    while compared < 200:
        c, rows, rhs = random_bounded_instance(rng)
        names = tuple(f"v{i}" for i in range(len(c)))
        sol = solve(LinearProgram(c, rows, rhs, names))
        statuses.add(sol.status)
        expected, vertices = brute_force_minimum(c, rows, rhs)
        if expected is None:
            assert sol.status == INFEASIBLE
        else:
            assert sol.status == OPTIMAL
            worst = max(worst, abs(sol.objective - expected))
            assert abs(sol.objective - expected) <= 1e-8
            for v in vertices:
                assert float(c @ v) >= sol.objective - 1e-8
        compared += 1

    ray = solve(LinearProgram(np.array([-1.0]), np.array([[-1.0]]), np.array([0.0]), ("v",)))
    assert ray.status == UNBOUNDED
    statuses.add(ray.status)
    ok = statuses >= {OPTIMAL, INFEASIBLE, UNBOUNDED} and worst <= 1e-8
    _report(
        5,
        ok,
        f"200 bounded instances, max objective gap {worst:.2e}, statuses {sorted(statuses)}",
    )
    assert ok


def _random_table(rng) -> FunctionTable:
    n = int(rng.integers(1, 6))
    k = int(rng.integers(1, 7))
    rows = []
    for _ in range(k):
        row = [float(v) for v in rng.integers(-3, 4, n)]
        for j in range(n):
            if rng.random() < 0.12:
                row[j] = INF
        rows.append(tuple(row))
    return FunctionTable(GroundSet(tuple(f"e{i}" for i in range(n))), tuple(rows))


def _closure_spaces(n: int):
    """Every intersection-stable family on {0..n-1} containing {} and the ground,
    enumerated over bitmask-encoded subsets."""
    full = (1 << n) - 1
    middles = [m for m in range(1, full)]
    for pick in range(1 << len(middles)):
        family = {0, full}
        for i, m in enumerate(middles):
            if pick >> i & 1:
                family.add(m)
        if all(a & b in family for a, b in combinations(family, 2)):
            yield family


def _family_from_masks(n: int, masks) -> ConvexityFamily:
    ground = GroundSet(tuple(str(i) for i in range(n)))
    members = frozenset(
        frozenset(i for i in range(n) if mask >> i & 1) for mask in masks
    )
    return ConvexityFamily(ground, members)


def test_criterion_6_generated_families_and_indicator_isomorphism():
    """Random tables generate intersection-stable support families; the
    indicator lift of every closure space on grounds of size <= 4 regenerates
    a family order-anti-isomorphic to it (plus the bottom from the empty sup)."""
    rng = np.random.default_rng(777)
    for _ in range(120):
        table = _random_table(rng)
        generated = l_convex_sets(table)
        full = frozenset(range(len(table)))
        family = family_over_rows(table, set(generated) | {frozenset(), full})
        assert is_closure_space(family)
        gen = list(generated)
        for a in gen:
            for b in gen:
                assert (a & b) in generated

    checked = 0
    cross_checked = 0
    for n in range(1, 5):
        for masks in _closure_spaces(n):
            family = _family_from_masks(n, masks)
            members = sorted_members(family)
            k = len(members)
            table = indicator_lift(family)
            # independent oracle: sup of indicator rows is the indicator of the
            # intersection, so generated sets are up-sets of members plus the
            # bottom from the empty supremum
            index = {m: i for i, m in enumerate(members)}
            expected = {frozenset(index[a] for a in members if s <= a) for s in members}
            expected.add(frozenset())
            if k <= 10 or n <= 3:
                generated = l_convex_sets(table)
                assert generated == frozenset(expected)
                cross_checked += 1
            # the up-set map is an inclusion-reversing bijection member -> support set
            image = {m: support_set(table, table.rows[index[m]]) for m in members}
            assert set(image.values()) == expected - {frozenset()}
            assert len(set(image.values())) == k
            for a in members:
                for b in members:
                    assert (a <= b) == (image[b] <= image[a])
            checked += 1
    ok = checked > 0
    _report(
        6,
        ok,
        f"120 random tables intersection-stable; {checked} closure spaces on "
        f"grounds <= 4 exhaustively anti-isomorphic to their regenerated "
        f"families ({cross_checked} re-derived with the full generator)",
    )
    assert ok


def test_criterion_7_extension_is_convexity_structure():
    rng = np.random.default_rng(999)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 7))
        rows = []
        for _ in range(k):
            row = [float(v) for v in rng.integers(-2, 3, n)]
            for j in range(n):
                if rng.random() < 0.1:
                    row[j] = INF
            rows.append(tuple(row))
        table = FunctionTable(GroundSet(tuple(f"e{i}" for i in range(n))), tuple(rows))
        ext = convexity_extension(table)
        assert is_convexity_structure(family_over_rows(table, ext))
        assert l_convex_sets(table) <= ext
        checked += 1
    _report(7, True, f"{checked} random tables: extension passes the structure axioms")


def _interval_family(n: int) -> ConvexityFamily:
    members = [frozenset()]
    for i in range(n):
        for j in range(i, n):
            members.append(frozenset(range(i, j + 1)))
    return ConvexityFamily(GroundSet(tuple(str(i) for i in range(n))), frozenset(members))


def _power_family(n: int) -> ConvexityFamily:
    members = []
    for k in range(n + 1):
        members.extend(frozenset(c) for c in combinations(range(n), k))
    return ConvexityFamily(GroundSet(tuple(str(i) for i in range(n))), frozenset(members))


def _random_closure_space(rng, n: int) -> ConvexityFamily:
    seeds = [
        frozenset(int(x) for x in rng.choice(n, size=rng.integers(1, n + 1), replace=False))
        for _ in range(4)
    ]
    members = {frozenset(), frozenset(range(n))} | set(seeds)
    changed = True
    while changed:
        changed = False
        for a, b in list(combinations(members, 2)):
            if a & b not in members:
                members.add(a & b)
                changed = True
    return ConvexityFamily(GroundSet(tuple(str(i) for i in range(n))), frozenset(members))


def test_criterion_8_caratheodory_numbers_and_covering():
    """Interval convexity on a 5-chain has number 2, the power set 1, and in
    every tested structure each element of a member is generated by at most
    that many of its points."""
    interval5 = _interval_family(5)
    power3 = _power_family(3)
    c_interval = caratheodory_number(interval5)
    c_power = caratheodory_number(power3)

    rng = np.random.default_rng(31337)
    families = [
        interval5,
        _interval_family(6),
        _interval_family(7),
        power3,
        _power_family(4),
        _power_family(7),
        _random_closure_space(rng, 5),
        _random_closure_space(rng, 6),
    ]
    covering_ok = True
    for family in families:
        c = caratheodory_number(family)
        for member in family.members:
            for x in member:
                found = False
                for size in range(1, c + 1):
                    for combo in combinations(sorted(member), size):
                        if x in hull(family, combo):
                            found = True
                            break
                    if found:
                        break
                if not found:
                    covering_ok = False
    ok = c_interval == 2 and c_power == 1 and covering_ok
    _report(
        8,
        ok,
        f"interval 5-chain number {c_interval} (expected 2), power set number "
        f"{c_power} (expected 1), covering property on {len(families)} structures",
    )
    assert ok


def test_criterion_9_exact_membership_fits():
    """Targets inside the model class come back with deviation <= epsilon."""
    cube_model = ModelClass(
        ("x",), MonotoneOuter.odd_power(3), BasisSpec.from_sources(["1", "x"], ["x"])
    )
    grid = Grid((-1.0,), (1.0,), (0.1,))
    cube_samples = sample(parse("(1+x)^3", ["x"]), grid, ["x"])
    cube_result = fit(cube_model, cube_samples, epsilon=EPS)

    rat_model = ModelClass(
        ("x",),
        MonotoneOuter.identity(),
        BasisSpec.from_sources(["1", "x"], ["x"]),
        BasisSpec.from_sources(["1", "x"], ["x"]),
        (0, 1.0),
    )
    rat_grid = Grid((-0.9,), (0.9,), (0.1,))
    rat_samples = sample(parse("x / (1 + x/2)", ["x"]), rat_grid, ["x"])
    rat_result = fit(rat_model, rat_samples, epsilon=EPS)

    zero_model = ModelClass(("x",), MonotoneOuter.identity(), BasisSpec.from_sources(["1"], ["x"]))
    zero_samples = sample(parse("0", ["x"]), grid, ["x"])
    zero_result = fit(zero_model, zero_samples, epsilon=EPS)
    g = evaluate_model_values(zero_model, zero_result.coefficients, zero_samples.points)
    zero_report = extract_alternations(SampledFunction(zero_samples.points, zero_samples.values - g))

    ok = (
        cube_result.achieved_deviation <= EPS
        and rat_result.achieved_deviation <= EPS
        and zero_result.achieved_deviation == 0.0
        and zero_report.exact_fit
    )
    _report(
        9,
        ok,
        f"cube-affine {cube_result.achieved_deviation:.2e}, rational "
        f"{rat_result.achieved_deviation:.2e}, zero target exact-fit report "
        f"(count {zero_report.count})",
    )
    assert ok
