"""One workload process of the quasifit benchmark.

`run.py` starts this file in a fresh interpreter with BLAS pinned to one
thread.  It imports quasifit from the checkout's `src/` as a user would,
prepares the workload's inputs from the seed, runs whole rounds of the same
operations for the requested time, and writes a JSON report: timings, the
operation counts, and the outputs the independent checks in `checks.py`
need.  The host-speed kernel of `hostspeed.py` runs between operations, so
each time can be scaled to the host's usual speed.  With `--trace 1` the first half of the time runs untraced and the
second half traced, so the tracing overhead is the difference between the
two.  With `--setup-only` it stops after set-up, so `run.py` can sample the
set-up time in several fresh processes.

Workloads (see README.md for why each was chosen):
  fit-benchmarks  `quasifit fit` on both committed configs and a 1-D
                  Chebyshev fit followed by `quasifit verify`
  coarse-to-fine  121-point fits of both models, then sampling, evaluation
                  and CSV export on the 160,801-point grid
  convexity-enum  a seeded batch of `axiomatic` enumerations and the four
                  `quasifit convexity` subcommands on `configs/`
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
from pathlib import Path

import hostspeed  # numpy, which quasifit imports too; its arrays come later

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
SETUP_KERNELS = 5  # host-speed kernels timed right after set-up, median taken
WORKLOADS = ("fit-benchmarks", "coarse-to-fine", "convexity-enum")

# Stage names per workload: the untraced time of each, per round.
STAGES = {
    "fit-benchmarks": ("fit_affine_s", "fit_rational_s", "fit_cheb1d_s"),
    "coarse-to-fine": ("fit_coarse_s", "evaluate_fine_s"),
    "convexity-enum": ("convexity_s",),
}


class OperationFailed(RuntimeError):
    pass


class Op:
    """One timed operation of a round; `stage` names the stage it counts to.

    `scaled` says whether its time is scaled to the host's usual speed
    (`hostspeed.py`).  Fits are not: their time, dense LP pivots in numpy,
    did not follow the kernel's speed phases, and scaling made it spread
    more between runs, not less.
    """

    def __init__(self, name: str, stage: str, fn, artifacts: tuple[str, ...] = (), record=None,
                 scaled: bool = True):
        self.name = name
        self.stage = stage
        self.fn = fn
        self.artifacts = artifacts  # files whose bytes must repeat across rounds
        self.record = record  # keeps fn's result for the checks, outside the timing
        self.scaled = scaled


class Context:
    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.tracer = None  # set during traced rounds
        self.outputs: dict[str, object] = {}  # last round's outputs, for the checks

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def cli(self, span_name: str, argv: list[str]) -> str:
        """Run `quasifit <argv>` through `cli.main`; return what it printed."""
        from quasifit import cli

        out = io.StringIO()
        with self.span(span_name), contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise OperationFailed(f"quasifit {' '.join(argv)} exited with {code}")
        return out.getvalue()


# -- fit workloads -------------------------------------------------------------

CHEB1D_CONFIG = {
    "variables": ["x"],
    "target": "x^5",
    "grid": {"lower": [-1.0], "upper": [1.0], "step": [0.01]},
    "model": {"outer": "identity", "numerator_basis": ["1", "x", "x^2", "x^3", "x^4"]},
    "solver": {"epsilon": 1e-6},
    "output": {"result_path": "cheb1d_result.json", "surface_path": "cheb1d_surface.csv"},
}


def _write_config(ctx: Context, name: str, config: dict) -> str:
    path = ctx.workdir / f"{name}.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    ctx.outputs.setdefault("configs", {})[name] = config
    return path.name


def _fit_op(ctx: Context, name: str, stage: str, config_file: str, config: dict) -> Op:
    result_path = config["output"]["result_path"]

    def run():
        ctx.cli("cli.cmd_fit", ["fit", config_file])

    return Op(f"fit {name}", stage, run, (result_path, config["output"]["surface_path"]), scaled=False)


def _seeded_order(seed: int, items: list) -> list:
    import numpy as np

    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order]


def setup_fit_benchmarks(ctx: Context) -> list[Op]:
    fits = []
    for name, source in (("affine", "benchmark_affine_cubed.json"),
                         ("rational", "benchmark_rational_cubed.json")):
        config = json.loads((CONFIGS / source).read_text())
        fits.append([_fit_op(ctx, name, f"fit_{name}_s", _write_config(ctx, name, config), config)])
    cheb = _fit_op(ctx, "cheb1d", "fit_cheb1d_s", _write_config(ctx, "cheb1d", CHEB1D_CONFIG),
                   CHEB1D_CONFIG)

    def verify():
        return ctx.cli("cli.cmd_verify", ["verify", CHEB1D_CONFIG["output"]["result_path"], "--n", "4"])

    def record(printed):
        ctx.outputs["verify"] = json.loads(printed)

    fits.append([cheb, Op("verify cheb1d", "fit_cheb1d_s", verify, record=record, scaled=False)])
    return [op for group in _seeded_order(ctx.seed, fits) for op in group]


FINE_STEP = 0.005
COARSE_STEP = 0.2


def setup_coarse_to_fine(ctx: Context) -> list[Op]:
    from quasifit import cli
    from quasifit import grid as qgrid
    from quasifit import models as qmodels

    fits = []
    model_specs = {}
    for name, source in (("affine", "benchmark_affine_cubed.json"),
                         ("rational", "benchmark_rational_cubed.json")):
        config = json.loads((CONFIGS / source).read_text())
        config["grid"]["step"] = [COARSE_STEP, COARSE_STEP]
        config["output"] = {"result_path": f"coarse_{name}_result.json",
                            "surface_path": f"coarse_{name}_surface.csv"}
        fits.append(_fit_op(ctx, f"coarse_{name}", "fit_coarse_s",
                            _write_config(ctx, f"coarse_{name}", config), config))
        model_specs[name] = config

    # the models and the target as `quasifit fit` builds them from the configs
    built = {name: cli._build_model(cfg) for name, cfg in model_specs.items()}
    models = {name: model for name, (model, _target, _grid) in built.items()}
    affine, target, coarse = built["affine"]
    variables = affine.variables
    fine = qgrid.Grid(coarse.lower, coarse.upper, (FINE_STEP,) * coarse.dimension)
    state: dict[str, object] = {}
    ctx.outputs["fine_step"] = FINE_STEP

    def sample_fine():
        state["target"] = qgrid.sample(target, fine, variables)

    def evaluate(name: str):
        def run():
            result = json.loads((ctx.workdir / model_specs[name]["output"]["result_path"]).read_text())
            coeffs = qmodels.Coefficients(result["coefficients"]["numerator"],
                                          result["coefficients"]["denominator"])
            sampled = state["target"]
            g = qmodels.evaluate_model_values(models[name], coeffs, sampled.points)
            state[name] = qgrid.SampledFunction(sampled.points, sampled.values - g)
            return float(abs(state[name].values).max())
        return run

    def record_deviation(name: str):
        def record(deviation):
            ctx.outputs.setdefault("fine_deviation", {})[name] = deviation
        return record

    def export(name: str):
        def run():
            with open(ctx.workdir / f"fine_{name}_residual.csv", "w") as fh:
                qgrid.export_csv(state.pop(name), fh)
        return run

    ops = _seeded_order(ctx.seed, fits)
    ops.append(Op("sample fine", "evaluate_fine_s", sample_fine))
    for name in ("affine", "rational"):
        ops.append(Op(f"evaluate fine {name}", "evaluate_fine_s", evaluate(name),
                      record=record_deviation(name)))
        ops.append(Op(f"export fine {name}", "evaluate_fine_s", export(name),
                      (f"fine_{name}_residual.csv",)))
    return ops


# -- convexity workload --------------------------------------------------------

# Table sizes are fixed and only the values come from the seed, so every
# seed asks for the same number of enumeration steps.
L_CONVEX_ROWS = (14, 15, 16)
L_CONVEX_GROUND = 6
LIFT_MEMBERS = (12, 16)
EXTENSION_ROWS = (10, 12)
EXTENSION_GROUND = 5
TIED_ROWS, TIED_GROUND = 10, 4  # integers 0-3
STRUCTURE_MEMBERS = (10, 12)
CLOSURE_GROUND = 8


def random_closure_space(rng, n: int, size: int) -> list[int]:
    """Members (as bitmasks over n elements) of a random intersection-closed
    family with exactly `size` members, containing the empty and full sets."""
    full = (1 << n) - 1
    while True:
        family = {0, full}
        for _ in range(4000):
            if len(family) == size:
                return sorted(family)
            cand = int(rng.integers(1, full))
            grown = family | {cand & m for m in family}
            if len(grown) <= size:
                family = grown


def _family(labels: tuple[str, ...], masks) -> object:
    from quasifit.axiomatic import ConvexityFamily, GroundSet

    n = len(labels)
    return ConvexityFamily(
        GroundSet(labels),
        frozenset(frozenset(i for i in range(n) if m >> i & 1) for m in masks),
    )


def _as_lists(family) -> list[list[int]]:
    return sorted(sorted(m) for m in family)


def _rows(table) -> list[list[float]]:
    return [list(r) for r in table.rows]


def setup_convexity_enum(ctx: Context) -> list[Op]:
    import numpy as np
    from quasifit import axiomatic as ax

    rng = np.random.default_rng(ctx.seed)
    ops: list[Op] = []

    def add(kind: str, label: str, fn, describe) -> None:
        """An operation whose result `describe` turns into data for the checks."""
        def record(result):
            ctx.outputs.setdefault(kind, {})[label] = describe(result)
        ops.append(Op(f"{kind} {label}", "convexity_s", fn, record=record))

    ground6 = ax.GroundSet(tuple(f"e{i}" for i in range(L_CONVEX_GROUND)))
    for k in L_CONVEX_ROWS:
        rows = rng.integers(0, 10, (k, L_CONVEX_GROUND)).astype(float)
        table = ax.FunctionTable(ground6, tuple(map(tuple, rows.tolist())))
        add("l_convex_sets", f"k={k}", lambda table=table: ax.l_convex_sets(table),
            lambda fam, table=table: {"rows": _rows(table), "family": _as_lists(fam)})

    labels8 = tuple(f"p{i}" for i in range(CLOSURE_GROUND))
    for size in LIFT_MEMBERS:
        family = _family(labels8, random_closure_space(rng, CLOSURE_GROUND, size))

        def lift(family=family):
            table = ax.indicator_lift(family)
            return table, ax.l_convex_sets(table)

        add("indicator_lift", f"m={size}", lift,
            lambda res, family=family: {"n": family.ground.size, "members": _as_lists(family.members),
                                        "rows": _rows(res[0]), "family": _as_lists(res[1])})

    ground5 = ax.GroundSet(tuple(f"e{i}" for i in range(EXTENSION_GROUND)))
    tables = {}
    for k in EXTENSION_ROWS:
        # three decimals: ties are rare, so the strict/ordinary support gaps
        # (and with them the work) stay small for every seed
        rows = np.round(rng.random((k, EXTENSION_GROUND)), 3)
        tables[f"k={k}"] = ax.FunctionTable(ground5, tuple(map(tuple, rows.tolist())))
    # Ties widen the gaps, and the work grows with 2^gap.  This table has
    # many ties and is the same for every seed, so that cost shows in every
    # run without making the work depend on the seed.
    tied = np.random.default_rng(0).integers(0, 4, (TIED_ROWS, TIED_GROUND)).astype(float)
    tables[f"tied k={TIED_ROWS}"] = ax.FunctionTable(
        ax.GroundSet(tuple(f"e{i}" for i in range(TIED_GROUND))), tuple(map(tuple, tied.tolist())))
    for label, table in tables.items():
        add("convexity_extension", label, lambda table=table: ax.convexity_extension(table),
            lambda fam, table=table: {"rows": _rows(table), "family": _as_lists(fam)})

    for size in STRUCTURE_MEMBERS:
        family = _family(labels8, random_closure_space(rng, CLOSURE_GROUND, size))
        add("is_convexity_structure", f"m={size}",
            lambda family=family: ax.is_convexity_structure(family),
            lambda verdict, family=family: {"n": family.ground.size,
                                            "members": _as_lists(family.members),
                                            "verdict": verdict})

    labels10 = tuple(str(i) for i in range(10))
    intervals = [0] + [((1 << (j + 1)) - 1) ^ ((1 << i) - 1) for i in range(10) for j in range(i, 10)]
    families = {
        "intervals10": _family(labels10, intervals),
        "powerset10": _family(labels10, range(1 << 10)),
        "random8": _family(labels8, random_closure_space(rng, CLOSURE_GROUND, 24)),
    }
    for name, family in families.items():
        add("caratheodory_number", name, lambda family=family: ax.caratheodory_number(family),
            lambda number, family=family: {"n": family.ground.size,
                                           "members": _as_lists(family.members), "number": number})

    chain = str(CONFIGS / "chain_intervals.txt")
    cli_calls = {
        "check": ["convexity", "check", chain],
        "hull": ["convexity", "hull", chain, "--set", "2,4"],
        "caratheodory": ["convexity", "caratheodory", chain],
        "extension": ["convexity", "extension", str(CONFIGS / "two_functions.csv")],
    }
    for name, argv in cli_calls.items():
        add("cli", name, lambda argv=argv: ctx.cli("cli.cmd_convexity", argv), json.loads)
    return ops


SETUPS = {
    "fit-benchmarks": setup_fit_benchmarks,
    "coarse-to-fine": setup_coarse_to_fine,
    "convexity-enum": setup_convexity_enum,
}


# -- tracing -------------------------------------------------------------------

def install_tracing(tracer) -> None:
    from quasifit import axiomatic, bisection, grid, linearize, models, oscillation, simplex

    def lp_rows(tr, args, lp):
        tr.counts["linearize.lp_rows"] += lp.row_count

    def solve_stats(tr, args, sol):
        lp = args[0]
        tr.counts["simplex.pivots"] += sol.iterations
        # dense primal tableau implied by the LP's shape: split free
        # variables, one slack per row, one artificial per negative rhs,
        # plus the rhs column; 8 bytes per entry
        m, n = lp.row_count, lp.variable_count
        cols = 2 * n + m + int((lp.rhs < 0).sum()) + 1
        tr.peak("simplex.tableau_mb", m * cols * 8 / 1e6)

    tracer.trace(grid, "sample", "grid.sample")
    tracer.trace(grid, "export_csv", "grid.export_csv")
    tracer.trace(models, "basis_matrix", "models.basis_matrix")
    tracer.trace(models, "evaluate_model_values", "models.evaluate_model_values")
    tracer.trace(linearize, "build_feasibility_lp", "linearize.build_feasibility_lp", lp_rows)
    tracer.trace(simplex, "solve", "simplex.solve", solve_stats)
    tracer.trace(bisection, "fit", "bisection.fit")
    tracer.trace(oscillation, "extract_alternations", "oscillation.extract_alternations")
    hot = {"support_set", "strict_support_set", "sup_of_rows", "hull"}
    for attr in axiomatic.__all__:
        fn = getattr(axiomatic, attr)
        if not callable(fn) or isinstance(fn, type):
            continue
        if attr in hot:
            tracer.count(axiomatic, attr, f"axiomatic.{attr}")
        else:
            tracer.trace(axiomatic, attr, f"axiomatic.{attr}")


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer numbers of one traced round."""
    total, own = tracer.times()
    c = tracer.counts
    return {
        "grid.sample_s": total.get("grid.sample", 0.0),
        "models.basis_matrix_s": total.get("models.basis_matrix", 0.0),
        "models.basis_matrix_calls": c["models.basis_matrix_calls"],
        "models.evaluate_model_values_s": total.get("models.evaluate_model_values", 0.0),
        "grid.export_csv_s": total.get("grid.export_csv", 0.0),
        "linearize.build_feasibility_lp_s": own.get("linearize.build_feasibility_lp", 0.0),
        "linearize.lp_rows": c["linearize.lp_rows"],
        "simplex.solve_s": total.get("simplex.solve", 0.0),
        "simplex.solve_calls": c["simplex.solve_calls"],
        "simplex.pivots": c["simplex.pivots"],
        "simplex.tableau_mb": tracer.peaks.get("simplex.tableau_mb", 0.0),
        "bisection.self_s": own.get("bisection.fit", 0.0),
        "oscillation.extract_alternations_s": total.get("oscillation.extract_alternations", 0.0),
        "cli.cmd_verify_s": total.get("cli.cmd_verify", 0.0),
        "cli.cmd_fit_self_s": own.get("cli.cmd_fit", 0.0),
        "axiomatic.l_convex_sets_s": total.get("axiomatic.l_convex_sets", 0.0),
        "axiomatic.convexity_extension_s": total.get("axiomatic.convexity_extension", 0.0),
        "axiomatic.is_convexity_structure_s": total.get("axiomatic.is_convexity_structure", 0.0),
        "axiomatic.caratheodory_number_s": total.get("axiomatic.caratheodory_number", 0.0),
        "axiomatic.support_set_calls": c["axiomatic.support_set_calls"],
    }


# -- rounds --------------------------------------------------------------------

def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_round(ctx: Context, ops: list[Op], digests: dict) -> dict:
    """Run every operation once, with host-speed kernels before the first
    and after each scaled one; failures skip the rest of the round.  `op_t`
    holds each operation's start and end, for `hostspeed.scale_rounds`."""
    op_s: list[float | None] = [None] * len(ops)
    op_t: list[list[float] | None] = [None] * len(ops)
    kernels = hostspeed.kernels(hostspeed.ROUND_START_KERNELS)
    failed = 0
    errors = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            result = op.fn()
        except Exception as exc:  # counted and reported, never fatal for the run
            errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
            failed = len(ops) - i
            break
        t1 = time.perf_counter()
        op_s[i], op_t[i] = t1 - t0, [t0, t1]
        if op.scaled:
            kernels += hostspeed.kernels_after(op_s[i])
        if op.record is not None:
            op.record(result)
        for name in op.artifacts:
            digests.setdefault(name, []).append(_digest(ctx.workdir / name))
    return {"round_s": time.perf_counter() - start, "op_s": op_s, "op_t": op_t,
            "kernels": kernels, "attempted": len(ops), "failed": failed, "errors": errors}


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--report", type=Path, required=True)
    p.add_argument("--spans", type=Path, default=None, help="where the traced run writes its spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import quasifit  # noqa: F401  (part of the timed set-up)

    os.chdir(args.workdir)  # committed configs write their artifacts to the cwd
    ctx = Context(args.workdir, args.seed)
    ops = SETUPS[args.workload](ctx)
    setup_s = time.perf_counter() - T_PROCESS
    hostspeed.kernel()  # warm-up: makes the kernel's arrays
    setup_kernel_s = statistics.median(hostspeed.durations(hostspeed.kernels(SETUP_KERNELS)))
    report = {"workload": args.workload, "setup_s": setup_s,
              "setup_ref_s": hostspeed.scale(setup_s, setup_kernel_s),
              "env": environment(args.seed)}
    if args.setup_only:
        args.report.write_text(json.dumps(report))
        return 0

    digests: dict[str, list[str]] = {}
    untraced, traced = [], []
    budget = args.seconds / 2 if args.trace else args.seconds
    t0 = time.perf_counter()
    while not untraced or time.perf_counter() - t0 < budget:
        untraced.append(run_round(ctx, ops, digests))
    scaled = [op.scaled for op in ops]
    hostspeed.scale_rounds(untraced, scaled)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        from spans import Tracer

        tracers = []
        t0 = time.perf_counter()
        while not traced or time.perf_counter() - t0 < budget:
            tracer = Tracer()
            install_tracing(tracer)
            ctx.tracer = tracer
            try:
                rnd = run_round(ctx, ops, digests)
            finally:
                ctx.tracer = None
                tracer.restore()
            rnd["layers"] = layer_metrics(tracer)
            rnd["layers"]["bisection.levels"] = sum(
                json.loads((ctx.workdir / c["output"]["result_path"]).read_text())["iterations"]
                for c in ctx.outputs.get("configs", {}).values())
            traced.append(rnd)
            tracers.append(tracer)
        if args.spans is not None:
            with open(args.spans, "w") as fh:
                json.dump([{"spans": t.spans, "counts": dict(t.counts), "peaks": t.peaks}
                           for t in tracers], fh)

    hostspeed.scale_rounds(traced, scaled)
    report.update({
        "ops": [[op.name, op.stage] for op in ops],
        "rounds": untraced,
        "traced_rounds": traced,
        "digests": digests,
        "outputs": ctx.outputs,
    })
    args.report.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
