"""Checks of the benchmark's outputs against computations made apart from quasifit.

Nothing here imports quasifit.  Targets and basis functions are evaluated in
numpy from their formulas, level LPs are built here and solved by HiGHS
(through scipy, which only the benchmark and the cross-check tests use), and
the convexity families are enumerated again with bitmasks.  Every check
returns a list of problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

# The targets the benchmark fits, by the source text of their configs.
TARGETS = {
    "(-x + y^3 + x^4)^4": lambda x, y: (-x + y**3 + x**4) ** 4,
    "x^5": lambda x: x**5,
}

# HiGHS decides each probe level a relative 1e-5 beyond the certified
# bracket, where |u*| is about 3e-6 on the benchmark configs; its own
# tolerances are tightened well below that.
LEVEL_MARGIN = 1e-5
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
# Recomputed deviations agree with the reported ones to this relative error:
# grid points and sums are formed in another order than quasifit's.
REL_TOL = 1e-9


# -- fits ----------------------------------------------------------------------

def grid_points(grid: dict) -> np.ndarray:
    axes = [
        np.linspace(lo, hi, int(round((hi - lo) / st)) + 1)
        for lo, hi, st in zip(grid["lower"], grid["upper"], grid["step"])
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def monomial(source: str, variables: list[str], points: np.ndarray) -> np.ndarray:
    """A basis function written as a product of variable powers, e.g. "x^2*y"."""
    value = np.ones(points.shape[0])
    if source.strip() == "1":
        return value
    for factor in source.split("*"):
        name, _, power = factor.strip().partition("^")
        value = value * points[:, variables.index(name)] ** int(power or 1)
    return value


class FitProblem:
    """A fit config evaluated in numpy: target values and basis matrices."""

    def __init__(self, config: dict, points: np.ndarray | None = None):
        variables = config["variables"]
        model = config["model"]
        self.points = grid_points(config["grid"]) if points is None else points
        self.f = TARGETS[config["target"]](*self.points.T)
        self.G = np.column_stack([monomial(s, variables, self.points) for s in model["numerator_basis"]])
        den = model.get("denominator_basis")
        self.H = (np.column_stack([monomial(s, variables, self.points) for s in den])
                  if den else None)
        fixed = model.get("fixed_coefficient")
        self.fixed = (fixed["index"], fixed["value"]) if den else None
        self.delta = model.get("delta", 1e-4)
        self.power = model.get("power", 1) if model.get("outer") == "odd_power" else 1
        self.epsilon = config.get("solver", {}).get("epsilon", 1e-6)

    def model_values(self, coefficients: dict) -> tuple[np.ndarray, np.ndarray | None]:
        """(g, denominator) at the points for the result's coefficients."""
        r = self.G @ np.asarray(coefficients["numerator"], dtype=float)
        den = None
        if self.H is not None:
            den = self.H @ np.asarray(coefficients["denominator"], dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):  # den is checked separately
                r = r / den
        return r**self.power, den

    def level_lp_optimum(self, z: float) -> float:
        """min u over the level-z LP, built here and solved by HiGHS.

        |f - phi(r)| <= z pulls back through the odd power to
        lo <= r <= hi; a denominator multiplies through and stays >= delta.
        u >= -1 keeps the LP bounded without deciding the sign of u*.
        """
        inv = lambda s: np.sign(s) * np.abs(s) ** (1.0 / self.power)  # noqa: E731
        hi, lo = inv(self.f + z), inv(self.f - z)
        n_pts, n_g = self.G.shape
        minus_u = -np.ones((n_pts, 1))
        if self.H is None:
            a_ub = np.vstack([np.hstack([self.G, minus_u]), np.hstack([-self.G, minus_u])])
            b_ub = np.concatenate([hi, -lo])
        else:
            idx, val = self.fixed
            free = [j for j in range(self.H.shape[1]) if j != idx]
            h_free, d0 = self.H[:, free], val * self.H[:, idx]
            a_ub = np.vstack([
                np.hstack([self.G, -hi[:, None] * h_free, minus_u]),
                np.hstack([-self.G, lo[:, None] * h_free, minus_u]),
                np.hstack([np.zeros((n_pts, n_g)), -h_free, np.zeros((n_pts, 1))]),
            ])
            b_ub = np.concatenate([hi * d0, -lo * d0, d0 - self.delta])
        c = np.zeros(a_ub.shape[1])
        c[-1] = 1.0
        bounds = [(None, None)] * (a_ub.shape[1] - 1) + [(-1.0, None)]
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs", options=HIGHS_OPTIONS)
        if res.status != 0:
            raise RuntimeError(f"HiGHS could not solve the level-{z} LP: {res.message}")
        return float(res.fun)

    def minimax_optimum(self) -> float:
        """Best uniform error of a linear model (identity outer, no denominator)."""
        n_pts, n_g = self.G.shape
        minus_t = -np.ones((n_pts, 1))
        a_ub = np.vstack([np.hstack([self.G, minus_t]), np.hstack([-self.G, minus_t])])
        b_ub = np.concatenate([self.f, -self.f])
        c = np.zeros(n_g + 1)
        c[-1] = 1.0
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (n_g + 1),
                      method="highs", options=HIGHS_OPTIONS)
        if res.status != 0:
            raise RuntimeError(f"HiGHS could not solve the minimax LP: {res.message}")
        return float(res.fun)


def check_fit(config: dict, result: dict, surface_csv: Path | None = None) -> list[str]:
    """Deviation, positivity, bisection trace and HiGHS bracket of one fit result."""
    name = config["output"]["result_path"]
    problems = []
    prob = FitProblem(config)
    g, den = prob.model_values(result["coefficients"])
    if den is not None and den.min() < prob.delta * (1 - 1e-9):
        problems.append(f"{name}: denominator {den.min()} below delta {prob.delta}")
    deviation = float(np.max(np.abs(prob.f - g)))
    achieved = result["achieved_deviation"]
    if not math.isclose(deviation, achieved, rel_tol=REL_TOL, abs_tol=1e-15):
        problems.append(f"{name}: achieved_deviation {achieved} but numpy gives {deviation}")

    lower, upper = result["certified_bounds"]
    if not (lower <= achieved <= upper * (1 + REL_TOL)):
        problems.append(f"{name}: achieved {achieved} outside the bracket [{lower}, {upper}]")

    u0 = float(np.max(np.abs(prob.f)))  # zero coefficients start every fit
    expected = math.ceil(math.log2(u0 / prob.epsilon))
    if result["iterations"] != expected or len(result["trace"]) != expected:
        problems.append(f"{name}: {result['iterations']} iterations, expected "
                        f"ceil(log2({u0}/{prob.epsilon})) = {expected}")
    lo, hi = 0.0, u0
    for z, feasible in result["trace"]:
        if not math.isclose(z, 0.5 * (lo + hi), rel_tol=1e-12, abs_tol=1e-12 * u0):
            problems.append(f"{name}: trace level {z} is not the bracket midpoint")
            break
        lo, hi = (lo, z) if feasible else (z, hi)
    if not (math.isclose(lo, lower, abs_tol=1e-12 * u0) and math.isclose(hi, upper, abs_tol=1e-12 * u0)):
        problems.append(f"{name}: the trace ends at [{lo}, {hi}], not at the certified bounds")

    if prob.level_lp_optimum(upper * (1 + LEVEL_MARGIN)) >= 0.0:
        problems.append(f"{name}: HiGHS finds the level just above upper={upper} infeasible")
    if lower > 0 and prob.level_lp_optimum(lower * (1 - LEVEL_MARGIN)) <= 0.0:
        problems.append(f"{name}: HiGHS finds the level just below lower={lower} feasible")

    if surface_csv is not None:
        data = np.loadtxt(surface_csv, delimiter=",", skiprows=1, ndmin=2)
        d = prob.points.shape[1]
        if data.shape != (prob.points.shape[0], d + 3):
            problems.append(f"{surface_csv.name}: shape {data.shape}")
        elif (np.max(np.abs(data[:, :d] - prob.points)) > 1e-12
              or np.max(np.abs(data[:, -1] - (prob.f - g))) > REL_TOL * max(1.0, u0)):
            problems.append(f"{surface_csv.name}: points or residuals differ from numpy")
    return problems


def check_chebyshev(config: dict, result: dict, verify: dict) -> list[str]:
    """The 1-D fit of x^5 by degree-4 polynomials and its `verify` verdict."""
    problems = []
    prob = FitProblem(config)
    optimum = prob.minimax_optimum()
    lower, upper = result["certified_bounds"]
    if not (lower - 1e-9 <= optimum <= upper + 1e-9):
        problems.append(f"cheb1d: HiGHS minimax optimum {optimum} outside [{lower}, {upper}]")
    if optimum > 2.0**-4 + 1e-12:
        problems.append(f"cheb1d: minimax optimum {optimum} above Chebyshev's bound 2^-4")
    if verify.get("verdict") != "optimal" or verify["certificate"]["count"] < 6:
        problems.append(f"cheb1d: verify reports {verify}")
    return problems


def check_fine_residual(config: dict, result: dict, csv_path: Path, step: float,
                        reported_deviation: float) -> list[str]:
    """The fine-grid residual CSV of a coarse fit, recomputed in numpy."""
    name = csv_path.name
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    fine = dict(config["grid"], step=[step] * len(config["variables"]))
    points = grid_points(fine)
    if data.shape != (points.shape[0], points.shape[1] + 1):
        return [f"{name}: shape {data.shape}, expected {(points.shape[0], points.shape[1] + 1)}"]
    problems = []
    if np.max(np.abs(data[:, :-1] - points)) > 1e-12:
        problems.append(f"{name}: points differ from the step-{step} grid")
    prob = FitProblem(config, points)
    g, den = prob.model_values(result["coefficients"])
    if den is not None and den.min() < prob.delta * (1 - 1e-9):
        problems.append(f"{name}: denominator {den.min()} below delta {prob.delta}")
    residual = prob.f - g
    scale = max(1.0, float(np.max(np.abs(prob.f))))
    if np.max(np.abs(data[:, -1] - residual)) > REL_TOL * scale:
        problems.append(f"{name}: residuals differ from numpy by {np.max(np.abs(data[:, -1] - residual))}")
    fine_dev = float(np.max(np.abs(data[:, -1])))
    if not math.isclose(fine_dev, reported_deviation, rel_tol=REL_TOL):
        problems.append(f"{name}: reported deviation {reported_deviation}, CSV holds {fine_dev}")
    # the fine grid contains the coarse one, so it cannot fit better
    if fine_dev < result["achieved_deviation"] * (1 - REL_TOL):
        problems.append(f"{name}: fine deviation {fine_dev} below coarse {result['achieved_deviation']}")
    return problems


# -- convexity -----------------------------------------------------------------

def masks(sets) -> set[int]:
    return {sum(1 << i for i in s) for s in sets}


def l_convex_masks(rows) -> set[int]:
    """Support sets of the sups of all row subsets, enumerated with numpy."""
    rows = np.asarray(rows, dtype=float)
    k, n = rows.shape
    sup = np.full((1 << k, n), -np.inf)
    for i in range(k):
        block = 1 << i
        sup[block : 2 * block] = np.maximum(sup[:block], rows[i])
    below = np.all(rows[None, :, :] <= sup[:, None, :], axis=2)
    return set((below.astype(np.int64) @ (1 << np.arange(k, dtype=np.int64))).tolist())


def is_closure_space(members: set[int], n: int) -> bool:
    arr = np.array(sorted(members), dtype=np.int64)
    full = (1 << n) - 1
    return (0 in members and full in members
            and bool(np.isin(np.bitwise_and.outer(arr, arr), arr).all()))


def caratheodory_masks(members: set[int], n: int) -> int:
    """Largest S whose hull is not covered by the hulls of S minus one element."""
    full = (1 << n) - 1
    m = np.array(sorted(members), dtype=np.int64)
    subsets = np.arange(1 << n, dtype=np.int64)
    contains = (subsets[:, None] & (full ^ m)[None, :]) == 0
    hull = np.bitwise_and.reduce(np.where(contains, m[None, :], full), axis=1).tolist()
    best = 0
    for s in range(1, 1 << n):
        covered, rest = 0, s
        while rest:
            low = rest & -rest
            covered |= hull[s ^ low]
            rest ^= low
        if hull[s] & ~covered:
            best = max(best, bin(s).count("1"))
    return best


CLI_EXPECTED = {
    # configs/chain_intervals.txt: the intervals of the chain 1 < 2 < 3 < 4 < 5
    "check": {"closure_space": True, "convexity_structure": True},
    "hull": {"hull": ["2", "3", "4"]},
    "caratheodory": {"caratheodory_number": 2},
    # configs/two_functions.csv: rows (0, 1) and (1, 0); every subset of the
    # two rows lies between a strict and an ordinary support set
    "extension": {"ground": ["l0", "l1"], "members": [[], ["l0"], ["l1"], ["l0", "l1"]]},
}


def check_convexity(outputs: dict) -> list[str]:
    problems = []
    for label, e in outputs.get("l_convex_sets", {}).items():
        got = masks(e["family"])
        if got != l_convex_masks(e["rows"]):
            problems.append(f"l_convex_sets {label}: family differs from the numpy enumeration")
        elif not is_closure_space(got, len(e["rows"])):
            problems.append(f"l_convex_sets {label}: not intersection-closed")

    for label, e in outputs.get("indicator_lift", {}).items():
        members = sorted(masks(e["members"]))
        lifted = [sum(1 << x for x, v in enumerate(row) if v == 0.0) for row in e["rows"]]
        if sorted(lifted) != members or any(v not in (0.0, math.inf) for r in e["rows"] for v in r):
            problems.append(f"indicator_lift {label}: rows are not the members' indicators")
            continue
        # the sup of lifted rows is the indicator of an intersection C, whose
        # support set is the up-set {j : C <= M_j}; the empty sup supports nothing
        up_sets = {sum(1 << j for j, mj in enumerate(lifted) if c & ~mj == 0) for c in members}
        if masks(e["family"]) != up_sets | {0}:
            problems.append(f"indicator_lift {label}: family differs from the up-set formula")

    for label, e in outputs.get("convexity_extension", {}).items():
        got, k = masks(e["family"]), len(e["rows"])
        if not is_closure_space(got, k):
            problems.append(f"convexity_extension {label}: not a closure space")
        if not l_convex_masks(e["rows"]) <= got:
            problems.append(f"convexity_extension {label}: misses some l-convex sets")

    for label, e in outputs.get("is_convexity_structure", {}).items():
        expected = is_closure_space(masks(e["members"]), e["n"])
        if e["verdict"] is not expected:
            problems.append(f"is_convexity_structure {label}: {e['verdict']}, expected {expected}")

    expected_numbers = {"intervals10": 2, "powerset10": 1}
    for label, e in outputs.get("caratheodory_number", {}).items():
        brute_force = caratheodory_masks(masks(e["members"]), e["n"])
        want = expected_numbers.get(label, brute_force)
        if e["number"] != want or brute_force != want:
            problems.append(f"caratheodory_number {label}: {e['number']}, expected {want}")

    for name, want in CLI_EXPECTED.items():
        got = outputs.get("cli", {}).get(name)
        if got != want:
            problems.append(f"quasifit convexity {name}: {got}, expected {want}")
    return problems


# -- per workload ----------------------------------------------------------------

def check_digests(digests: dict) -> list[str]:
    return [f"{name}: bytes differ between rounds" for name, d in digests.items() if len(set(d)) != 1]


def check_workload(workload: str, report: dict, workdir: Path) -> list[str]:
    """Every output the workload should have left; a missing one is a problem."""
    outputs = report["outputs"]
    problems = check_digests(report["digests"])
    if workload == "convexity-enum":
        recorded = {f"{kind} {label}" for kind, entries in outputs.items() for label in entries}
        problems += [f"{op}: no output to check" for op, _stage in report["ops"] if op not in recorded]
        return problems + check_convexity(outputs)

    for name, config in outputs["configs"].items():
        result_path = workdir / config["output"]["result_path"]
        surface = workdir / config["output"]["surface_path"]
        if not (result_path.is_file() and surface.is_file()):
            problems.append(f"fit {name}: no result or surface file to check")
            continue
        result = json.loads(result_path.read_text())
        problems += check_fit(config, result, surface)
        if name == "cheb1d":
            if "verify" in outputs:
                problems += check_chebyshev(config, result, outputs["verify"])
            else:
                problems.append("verify cheb1d: no output to check")
        if workload == "coarse-to-fine":
            model = name.removeprefix("coarse_")
            csv_path = workdir / f"fine_{model}_residual.csv"
            deviation = outputs.get("fine_deviation", {}).get(model)
            if deviation is None or not csv_path.is_file():
                problems.append(f"evaluate and export fine {model}: no output to check")
                continue
            problems += check_fine_residual(config, result, csv_path, outputs["fine_step"], deviation)
    return problems
