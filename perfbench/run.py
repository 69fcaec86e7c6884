"""Benchmark of quasifit: certified fits, coarse-to-fine evaluation, convexity enumeration.

    python3 perfbench/run.py --workload fit-benchmarks --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh process
(`workload.py`) with BLAS pinned to one thread, in a scratch directory under
`perfbench/out/` that is removed afterwards.  This process then checks the
outputs against computations made apart from quasifit (`checks.py`), writes
a record of the run to `perfbench/out/records/` and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json, with
`--trace 1` the per-layer ones.  Set-up is sampled in SETUP_SAMPLES extra
fresh processes and reported as the median.
"""

from __future__ import annotations

import os

# Before numpy or scipy load here or in any child process.
BLAS_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from workload import STAGES, WORKLOADS  # noqa: E402  (imports no quasifit)

SETUP_SAMPLES = 4  # extra set-up-only processes; the workload process adds one
CHILD_TIMEOUT_S = 150  # for all child processes together; a run must end within 180 s


def run_child(args: argparse.Namespace, workdir: Path, report: Path, extra: list[str],
              timeout: float) -> dict:
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--report", str(report), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **BLAS_ENV), timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(report.read_text())


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_calls", "_rows", ".pivots", ".levels")):
        return "count"
    return "s"


def op_medians(report: dict, rounds: list[dict], key: str = "op_ref_s") -> list[tuple[str, float]]:
    """(stage, median seconds over the rounds) for each operation of a round;
    `key` is "op_ref_s" for times scaled to the host's usual speed, "op_s" for
    wall times."""
    out = []
    for i, (_name, stage) in enumerate(report["ops"]):
        times = [r[key][i] for r in rounds if r[key][i] is not None]
        out.append((stage, statistics.median(times) if times else 0.0))
    return out


def metrics(args: argparse.Namespace, report: dict, setups: list[float]) -> dict:
    """A round's time is each operation's median over the run's rounds, summed:
    a burst of load on the shared machine then slows one sample of one
    operation instead of the whole run's figure.  Times other than the fits'
    are scaled to the host's usual speed (`hostspeed.py`), which takes out
    the slow and fast phases of the shared machine that last longer than a
    run."""
    untraced = op_medians(report, report["rounds"])
    if not args.trace:
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
            "round_ref_s": (sum(t for _stage, t in untraced), "s"),
        }
    else:
        traced_rounds = report["traced_rounds"]
        values = {stage: (0.0, "s") for stages in STAGES.values() for stage in stages}
        for stage, t in untraced:
            values[stage] = (values[stage][0] + t, "s")
        values["round_wall_s"] = (sum(t for _s, t in op_medians(report, report["rounds"], "op_s")), "s")
        kernels = hostspeed.durations([run for r in report["rounds"] for run in r["kernels"]])
        values["host.kernel_ms"] = (1e3 * statistics.median(kernels), "ms")
        for name in traced_rounds[0]["layers"]:
            unit = unit_of(name)
            median = statistics.median_low if unit == "count" else statistics.median
            values[name] = (median(r["layers"][name] for r in traced_rounds), unit)
        traced = op_medians(report, traced_rounds)
        values["trace.overhead_s"] = (sum(t for _s, t in traced) - sum(t for _s, t in untraced), "s")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = [str(path.relative_to(ROOT)) for path in
               (ROOT / "src" / "quasifit" / "__init__.py", ROOT / "configs" / "benchmark_affine_cubed.json")
               if not path.is_file()]
    if missing:
        sys.stderr.write(f"run from a quasifit checkout; missing {', '.join(missing)}\n")
        return 2

    started = time.monotonic()
    out = HERE / "out"
    records = out / "records"
    records.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = out / f"work-{os.getpid()}"
    def remaining() -> float:
        return CHILD_TIMEOUT_S - (time.monotonic() - started)

    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_SAMPLES):
                probe = run_child(args, scratch / f"setup{k}", scratch / f"setup{k}.json",
                                  ["--setup-only"], remaining())
                setups.append(probe["setup_ref_s"])
        report = run_child(args, scratch / "run", scratch / "report.json",
                           ["--spans", str(records / f"{tag}-spans.json")] if args.trace else [],
                           remaining())
        setups.append(report["setup_ref_s"])

        all_rounds = report["rounds"] + report["traced_rounds"]
        failed = sum(r["failed"] for r in all_rounds)

        import checks  # loads scipy, after the workload process has ended

        problems = checks.check_workload(args.workload, report, scratch / "run")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in all_rounds),
        "failed": failed,
        "metrics": metrics(args, report, setups),
    }
    for problem in problems:
        sys.stderr.write(f"check failed: {problem}\n")
    for error in {e for r in all_rounds for e in r["errors"]}:
        sys.stderr.write(f"operation failed: {error}\n")
    (records / f"{tag}.json").write_text(json.dumps({
        "args": vars(args), "env": report["env"], "setup_samples_ref_s": setups,
        "problems": problems, "rounds": report["rounds"], "traced_rounds": report["traced_rounds"],
        "result": result,
    }, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
