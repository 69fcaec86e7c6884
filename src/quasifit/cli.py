"""Batch command line front door.

Three subcommands: `fit` runs a minimax fit from a JSON config and writes a
result JSON plus an optional surface CSV; `verify` re-checks a finished 1-D
fit against the alternation count it needs for optimality; `convexity`
exposes the finite convexity toolkit over small text files.

Exit codes, with the `kind` of the one JSON error line on stderr: 0 success;
2 `config` (`fit`) or `input` (`verify`, `convexity`) for a file that cannot
be read, parsed or written or a bad config key or argument, and `evaluation`
for a target or basis that fails or is not finite at a grid point;
3 `infeasible_start` for a default denominator below the positivity margin;
4 `solver` for a failed LP oracle or a fitted denominator below the margin.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict
from typing import Any, Callable, Sequence, TextIO

import numpy as np

from . import axiomatic
from .bisection import FitError, fit
from .expr import EvaluationError, ExprError, parse
from .grid import Grid, SampledFunction, sample, write_csv
from .models import (
    BasisSpec,
    DenominatorPositivityError,
    InfeasibleInitialCoefficientsError,
    ModelClass,
    MonotoneOuter,
)
from .oscillation import (
    check_polynomial_optimality,
    check_rational_optimality,
    compute_defect,
    effective_degree,
    extract_alternations,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

log = logging.getLogger("quasifit")


class ConfigError(ValueError):
    pass


# What `main` makes of an exception from a command, first match wins:
# (classes, exit code, error kind); kind None is the command's own kind for
# bad input, "config" for `fit` and "input" for `verify` and `convexity`.
_FAILURES = (
    (InfeasibleInitialCoefficientsError, EXIT_INFEASIBLE, "infeasible_start"),
    ((FitError, DenominatorPositivityError), EXIT_NUMERICAL, "solver"),
    (EvaluationError, EXIT_CONFIG, "evaluation"),
    ((OSError, ValueError, KeyError, TypeError), EXIT_CONFIG, None),
)


def _object(value: Any, key: str) -> dict:
    """`value`, read from the config key `key`, which must hold a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object")
    return value


def _basis(model_cfg: dict, key: str, variables: list[str]) -> BasisSpec:
    sources = model_cfg[key]
    if not (isinstance(sources, list) and all(isinstance(s, str) for s in sources)):
        raise ConfigError(f"{key} must be a JSON list of strings")
    return BasisSpec.from_sources(sources, variables)


def _build_model(config: dict) -> tuple[ModelClass, Any, Grid]:
    variables = [str(v) for v in config["variables"]]
    grid_cfg = _object(config["grid"], "grid")
    model_cfg = _object(config["model"], "model")
    grid = Grid(
        _as_vector(grid_cfg["lower"], len(variables)),
        _as_vector(grid_cfg["upper"], len(variables)),
        _as_vector(grid_cfg["step"], len(variables)),
    )

    try:
        target = parse(config["target"], variables)
        numerator = _basis(model_cfg, "numerator_basis", variables)
        denominator = None
        fixed = None
        if model_cfg.get("denominator_basis"):
            denominator = _basis(model_cfg, "denominator_basis", variables)
            fixed_cfg = model_cfg.get("fixed_coefficient")
            if fixed_cfg is None:
                raise ConfigError("a denominator_basis requires fixed_coefficient {index, value}")
            fixed_cfg = _object(fixed_cfg, "fixed_coefficient")
            fixed = (int(fixed_cfg["index"]), float(fixed_cfg["value"]))
    except ExprError as exc:
        raise ConfigError(f"expression error: {exc}") from exc

    outer_kind = model_cfg.get("outer", "identity")
    if outer_kind not in ("identity", "odd_power"):
        raise ConfigError(f"unknown outer kind {outer_kind!r}")

    model = ModelClass(
        variables=tuple(variables),
        outer=MonotoneOuter(int(model_cfg.get("power", 1)) if outer_kind == "odd_power" else 1),
        numerator=numerator,
        denominator=denominator,
        fixed_coefficient=fixed,
        delta=float(model_cfg.get("delta", 1e-4)),
    )
    return model, target, grid


def _as_vector(v, d: int) -> list[float]:
    if isinstance(v, (int, float)):
        return [float(v)] * d
    vec = [float(x) for x in v]
    if len(vec) != d:
        raise ConfigError(f"expected {d} entries, got {len(vec)}")
    return vec


def _read(path: str, what: str, load: Callable[[TextIO], Any]) -> Any:
    """`load` applied to the open file; failing to open or parse it is an input error naming it."""
    try:
        with open(path) as fh:
            return load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _surface(fh: TextIO) -> tuple[list[np.ndarray], np.ndarray]:
    """The coordinate columns and the residual column of a surface CSV."""
    header = fh.readline().strip().split(",")
    rows = [line for line in fh if line.partition("#")[0].strip()]  # loadtxt drops comments too
    if not rows:
        raise ValueError("no data rows")
    data = np.loadtxt(rows, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{len(header)} column names but {data.shape[1]} data columns")
    coords = [data[:, i] for i, name in enumerate(header) if name.startswith("x")]
    return coords, data[:, header.index("residual")]


def cmd_fit(config_path: str) -> int:
    config = _read(config_path, "config", json.load)
    if not isinstance(config, dict):
        raise ConfigError(f"config {config_path} is not a JSON object")
    try:
        model, target, grid = _build_model(config)
        solver_cfg = _object(config.get("solver", {}), "solver")
        epsilon = float(solver_cfg.get("epsilon", 1e-6))
        lp_cap = solver_cfg.get("max_iterations")
        lp_cap = int(lp_cap) if lp_cap is not None else None
        output_cfg = _object(config["output"], "output")
        result_path = output_cfg["result_path"]
        surface_path = output_cfg.get("surface_path")
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc}") from None

    sampled = sample(target, grid, model.variables)
    log.info("fitting %d points, %d free coefficients", len(sampled), len(model.coefficient_names()))
    result = fit(model, sampled, epsilon=epsilon, lp_max_iterations=lp_cap)
    residual = sampled.values - result.model_values

    stored_surface = surface_path
    if surface_path and not os.path.isabs(surface_path):
        # relative to the result file, so `verify` finds it from any working directory
        stored_surface = os.path.relpath(surface_path, os.path.dirname(result_path) or ".")

    certificate = None
    if sampled.dimension == 1:
        certificate = asdict(extract_alternations(SampledFunction(sampled.points, residual)))

    payload = {
        "config": config,
        "coefficients": asdict(result.coefficients),
        "achieved_deviation": result.achieved_deviation,
        "certified_bounds": [result.lower, result.upper],
        "iterations": result.iterations,
        "trace": [[entry.z, entry.feasible] for entry in result.trace],
        "certificate": certificate,
        "surface_path": stored_surface,
    }
    # the surface first: a result never points at a surface that failed to write
    if surface_path:
        columns = {"f": sampled.values, "g": result.model_values, "residual": residual}
        with open(surface_path, "w") as fh:
            write_csv(fh, sampled.points, columns)
    with open(result_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({
        "achieved_deviation": result.achieved_deviation,
        "certified_bounds": [result.lower, result.upper],
        "iterations": result.iterations,
        "result_path": result_path,
    }, sort_keys=True))
    return EXIT_OK


def cmd_verify(result_path: str, n: int, m: int | None, tau: float) -> int:
    result = _read(result_path, "result", json.load)
    if not isinstance(result, dict):
        raise ConfigError(f"result {result_path} is not a JSON object")
    surface_path = result.get("surface_path")
    if not surface_path:
        raise ConfigError("result has no surface_path; rerun fit with one")
    surface_file = os.path.join(os.path.dirname(result_path), surface_path)
    coords, residual = _read(surface_file, "surface", _surface)
    if len(coords) != 1:
        raise ConfigError(f"alternation checks need a 1-D fit; surface has {len(coords)} coordinates")
    residuals = SampledFunction(coords[0].reshape(-1, 1), residual)
    report = extract_alternations(residuals, tau=tau)

    if m is None:
        optimal = check_polynomial_optimality(n, report)
        needed = n + 2
        defect = None
    else:
        coeffs = result.get("coefficients", {})
        p = effective_degree(coeffs.get("numerator", []))
        q = effective_degree(coeffs.get("denominator") or [0.0])
        info = compute_defect(n, m, min(p, n), min(q, m))
        optimal = check_rational_optimality(n, m, info.defect, report)
        needed = n + m + 2 - info.defect
        defect = info.defect

    print(json.dumps({
        "certificate": asdict(report),
        "required_count": needed,
        "defect": defect,
        "verdict": "optimal" if optimal else "not-certified",
    }, sort_keys=True))
    return EXIT_OK


def cmd_convexity(sub: str, path: str, query: str | None) -> int:
    text = _read(path, "input", lambda fh: fh.read())
    if sub == "extension":
        table = axiomatic.parse_function_table_csv(text)
        fam = axiomatic.family_over_rows(table, axiomatic.convexity_extension(table))
        out = {"ground": list(fam.ground.labels), "members": fam.member_labels()}
    else:
        family = axiomatic.parse_family_text(text)
        if sub == "check":
            # a finite closure space is a convexity structure (is_convexity_structure)
            closed = axiomatic.is_closure_space(family)
            out = {"closure_space": closed, "convexity_structure": closed}
        elif sub == "caratheodory":
            out = {"caratheodory_number": axiomatic.caratheodory_number(family)}
        elif not query:
            raise ConfigError("hull requires --set with element labels")
        else:
            labels = [t.strip() for t in query.split(",") if t.strip()]
            idx = [family.ground.index_of(lbl) for lbl in labels]
            out = {"hull": [family.ground.labels[i] for i in sorted(axiomatic.hull(family, idx))]}
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quasifit")
    subs = parser.add_subparsers(dest="command", required=True)

    p_fit = subs.add_parser("fit", help="run a minimax fit from a JSON config")
    p_fit.add_argument("config", help="path to the fit config JSON")

    p_verify = subs.add_parser("verify", help="alternation certificate for a 1-D fit result")
    p_verify.add_argument("result", help="path to a fit result JSON")
    p_verify.add_argument("--n", type=int, required=True, help="numerator degree")
    p_verify.add_argument("--m", type=int, default=None, help="denominator degree (rational fits)")
    p_verify.add_argument("--tau", type=float, default=1e-3, help="near-maximality threshold")

    p_conv = subs.add_parser("convexity", help="finite convexity computations")
    p_conv.add_argument("sub", choices=["hull", "caratheodory", "check", "extension"])
    p_conv.add_argument("file", help="family text file or function table CSV")
    p_conv.add_argument("--set", dest="query", default=None, help="comma-separated labels for hull")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("QUASIFIT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            return cmd_fit(args.config)
        if args.command == "verify":
            return cmd_verify(args.result, args.n, args.m, args.tau)
        return cmd_convexity(args.sub, args.file, args.query)
    except Exception as exc:
        for classes, code, kind in _FAILURES:
            if isinstance(exc, classes):
                log.debug("%s failed", args.command, exc_info=True)
                kind = kind or ("config" if args.command == "fit" else "input")
                sys.stderr.write(json.dumps({"error": {"kind": kind, "message": str(exc)}}) + "\n")
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
