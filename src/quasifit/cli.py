"""Batch command line front door.

Three subcommands: `fit` runs a minimax fit from a JSON config and writes a
result JSON plus an optional surface CSV; `verify` re-checks a finished 1-D
fit against the alternation count it needs for optimality; `convexity`
exposes the finite convexity toolkit over small text files.

Exit codes, with the `kind` of the one JSON error line on stderr: 0 success;
2 `config` (`fit`) or `input` (`verify`, `convexity`) for a file that cannot
be read, parsed or written, a bad config key or argument, or a grid too
large to hold in memory, and `evaluation` for a target or basis that fails
or is not finite at a grid point;
3 `infeasible_start` for a default denominator below the positivity margin;
4 `solver` for a failed LP oracle or a fitted denominator below the margin.

What loads when: importing this module loads neither half of the package.
`convexity` imports `axiomatic` when it runs; `fit` and `verify` call
`_fit_pipeline`, which imports the fitting pipeline once and binds the names
of `_FIT_PIPELINE` as globals of this module (`cli.fit`, `cli.sample`, ...).
Reading one of those names before any command runs loads it the same way.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from dataclasses import asdict
from functools import cache
from typing import Any, Callable, Sequence, TextIO

import numpy as np

# The fitting pipeline's names this module uses, by defining module (see `_fit_pipeline`).
_FIT_PIPELINE = {
    "bisection": ("FitError", "fit"),
    "expr": ("EvaluationError", "ExprError", "parse"),
    "grid": ("Grid", "SampledFunction", "sample", "write_csv"),
    "models": ("BasisSpec", "DenominatorPositivityError", "InfeasibleInitialCoefficientsError", "ModelClass",
               "MonotoneOuter"),
    "oscillation": ("check_rational_optimality", "compute_defect", "effective_degree", "extract_alternations",
                    "required_count"),
}
_FIT_NAMES = frozenset(name for names in _FIT_PIPELINE.values() for name in names)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

log = logging.getLogger("quasifit")


class ConfigError(ValueError):
    pass


@cache
def _fit_pipeline() -> None:
    """Import the fitting pipeline and bind the names of `_FIT_PIPELINE` here, once.

    A name already set (by a monkeypatch, say) is left as it is.
    """
    for module, names in _FIT_PIPELINE.items():
        loaded = __import__(f"{__package__}.{module}", fromlist=names)  # shows in `python -X importtime`
        for name in names:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str) -> Any:
    if name in _FIT_NAMES:
        _fit_pipeline()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@cache
def _failures() -> tuple:
    """What `main` makes of an exception from a command, first match wins:
    (classes, exit code, error kind); kind None is the command's own kind for
    bad input, "config" for `fit` and "input" for `verify` and `convexity`."""
    _fit_pipeline()
    return (
        (InfeasibleInitialCoefficientsError, EXIT_INFEASIBLE, "infeasible_start"),
        ((FitError, DenominatorPositivityError), EXIT_NUMERICAL, "solver"),
        (EvaluationError, EXIT_CONFIG, "evaluation"),
        ((OSError, ValueError, KeyError, TypeError, MemoryError), EXIT_CONFIG, None),
    )


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# The JSON kinds a config or result value may be asked for: (description, test).
_KINDS: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "object": ("a JSON object", lambda v: isinstance(v, dict)),
    "string": ("a JSON string", lambda v: isinstance(v, str)),
    "number": ("a JSON number", _is_number),
    "integer": ("an integral JSON number", lambda v: _is_number(v) and float(v).is_integer()),
    "strings": ("a JSON list of strings", lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)),
    "numbers": ("a JSON list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
    "coordinates": ("a JSON number or a JSON list of numbers",
                    lambda v: _is_number(v) or (isinstance(v, list) and all(map(_is_number, v)))),
}
_REQUIRED = object()


def _get(obj: dict, key: str, kind: str, default: Any = _REQUIRED) -> Any:
    """`obj[key]` if it holds a JSON value of `kind`; a null counts as absent."""
    value = obj.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing config key: {key!r}")
        return default
    description, accepts = _KINDS[kind]
    if not accepts(value):
        raise ConfigError(f"{key} must be {description}")
    return value


def _build_model(config: dict) -> tuple[ModelClass, Any, Grid]:
    _fit_pipeline()
    variables = _get(config, "variables", "strings")
    grid_cfg = _get(config, "grid", "object")
    model_cfg = _get(config, "model", "object")
    bounds = []
    for key in ("lower", "upper", "step"):  # a number stands for the same value on every axis
        value = _get(grid_cfg, key, "coordinates")
        value = value if isinstance(value, list) else [value] * len(variables)
        if len(value) != len(variables):
            raise ConfigError(f"{key} must have one entry per variable: {len(variables)}, not {len(value)}")
        bounds.append([float(v) for v in value])

    try:
        target = parse(_get(config, "target", "string"), variables)
        numerator = BasisSpec.from_sources(_get(model_cfg, "numerator_basis", "strings"), variables)
        denominator_sources = _get(model_cfg, "denominator_basis", "strings", [])
        denominator = BasisSpec.from_sources(denominator_sources, variables) if denominator_sources else None
    except ExprError as exc:
        raise ConfigError(f"expression error: {exc}") from exc
    fixed = None
    if denominator is not None:
        fixed_cfg = _get(model_cfg, "fixed_coefficient", "object")
        fixed = (int(_get(fixed_cfg, "index", "integer")), float(_get(fixed_cfg, "value", "number")))

    outer_kind = _get(model_cfg, "outer", "string", "identity")
    if outer_kind not in ("identity", "odd_power"):
        raise ConfigError(f"unknown outer kind {outer_kind!r}")

    model = ModelClass(
        variables=tuple(variables),
        outer=MonotoneOuter(int(_get(model_cfg, "power", "integer", 1)) if outer_kind == "odd_power" else 1),
        numerator=numerator,
        denominator=denominator,
        fixed_coefficient=fixed,
        delta=float(_get(model_cfg, "delta", "number", 1e-4)),
    )
    return model, target, Grid(*bounds)


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
    _fit_pipeline()
    config = _read(config_path, "config", json.load)
    if not isinstance(config, dict):
        raise ConfigError(f"config {config_path} is not a JSON object")
    model, target, grid = _build_model(config)
    epsilon = float(_get(_get(config, "solver", "object", {}), "epsilon", "number", 1e-6))
    output_cfg = _get(config, "output", "object")
    result_path = _get(output_cfg, "result_path", "string")
    surface_path = _get(output_cfg, "surface_path", "string", None)

    sampled = sample(target, grid, model.variables)
    log.info("fitting %d points, %d free coefficients", len(sampled), len(model.coefficient_names()))
    result = fit(model, sampled, epsilon=epsilon)
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
    summary = {key: payload[key] for key in ("achieved_deviation", "certified_bounds", "iterations")}
    print(json.dumps({**summary, "result_path": result_path}, sort_keys=True))
    return EXIT_OK


def _effective_degree(result: dict, part: str) -> int:
    """The effective degree of the result's `part` coefficients, 0 for none.

    A result written by `fit` holds its config, and there each coefficient's
    degree is that of its basis entry, `1`, `x` or `x^k`; coefficients of one
    degree add up.  In a result without a config a coefficient's degree is
    its position.
    """
    _fit_pipeline()
    values = _get(_get(result, "coefficients", "object", {}), part, "numbers", [])  # null in an affine result
    config = _get(result, "config", "object", None)
    if config is None:
        return effective_degree(values)
    names = "|".join(map(re.escape, _get(config, "variables", "strings")))
    basis = _get(_get(config, "model", "object"), f"{part}_basis", "strings", [])
    if len(basis) != len(values):
        raise ConfigError(f"{len(values)} {part} coefficients but {len(basis)} {part}_basis entries")
    by_degree = {0: 0.0}  # so that a zero polynomial reads as degree 0
    for entry, value in zip(basis, values):
        monomial = re.fullmatch(rf"\s*(?:(1)|(?:{names})(?:\s*\^\s*(\d+))?)\s*", entry)
        if monomial is None:
            raise ConfigError(f"{part}_basis entry {entry!r} is not 1, x or x^k; verify needs its degree")
        k = 0 if monomial[1] else int(monomial[2] or 1)
        by_degree[k] = by_degree.get(k, 0.0) + value
    degrees = sorted(by_degree)
    return degrees[effective_degree([by_degree[k] for k in degrees])]


def cmd_verify(result_path: str, n: int, m: int | None, tau: float) -> int:
    _fit_pipeline()
    result = _read(result_path, "result", json.load)
    if not isinstance(result, dict):
        raise ConfigError(f"result {result_path} is not a JSON object")
    surface_path = _get(result, "surface_path", "string", None)
    if not surface_path:
        raise ConfigError("result has no surface_path; rerun fit with one")
    surface_file = os.path.join(os.path.dirname(result_path), surface_path)
    coords, residual = _read(surface_file, "surface", _surface)
    if len(coords) != 1:
        raise ConfigError(f"alternation checks need a 1-D fit; surface has {len(coords)} coordinates")
    residuals = SampledFunction(coords[0].reshape(-1, 1), residual)
    report = extract_alternations(residuals, tau=tau)

    nominal_m = m or 0  # a polynomial fit is the rational case m = 0
    p, q = (_effective_degree(result, part) for part in ("numerator", "denominator"))
    d = compute_defect(n, nominal_m, p, q).defect
    print(json.dumps({
        "certificate": asdict(report),
        "required_count": required_count(n, nominal_m, d),
        "defect": None if m is None else d,
        "verdict": "optimal" if check_rational_optimality(n, nominal_m, d, report) else "not-certified",
    }, sort_keys=True))
    return EXIT_OK


def cmd_convexity(sub: str, path: str, query: str | None) -> int:
    from . import axiomatic

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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on first use and shared by every later `main` call."""
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
        for classes, code, kind in _failures():
            if isinstance(exc, classes):
                log.debug("%s failed", args.command, exc_info=True)
                kind = kind or ("config" if args.command == "fit" else "input")
                message = str(exc)
                if isinstance(exc, MemoryError):  # numpy's names the failed allocation, a bare one nothing
                    message = "memory ran out" + (f": {message}" if message else "")
                sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}}) + "\n")
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
