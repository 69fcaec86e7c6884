"""Large fits: both benchmark configs on fine grids, one fresh process per fit.

    python tools/large_fits.py                    # steps 0.005 and 0.002: 160,801 and 1,002,001 points
    python tools/large_fits.py --step 0.5 --step 0.25

For each grid step and each of `configs/benchmark_affine_cubed.json` and
`configs/benchmark_rational_cubed.json`, a child interpreter samples the
config's target with that step on both axes and fits it in process through
`quasifit.bisection.fit`, with the config's epsilon. Each child prints one
JSON line: the config, step and point count, the sampling and fit wall
times, the bisection levels, the simplex pivots, the resident set before
the fit (Linux only, else null) and the process's peak resident set
(`ru_maxrss`), both in MB. A fresh process per fit keeps one fit's peak out
of the next. Standard library and `src/` only.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ("benchmark_affine_cubed", "benchmark_rational_cubed")
STEPS = (0.005, 0.002)


def _rss_mb() -> float | None:
    """The current resident set in MB, from /proc; None where that is missing."""
    try:
        fields = Path("/proc/self/status").read_text().split("VmRSS:")[1].split()
    except (OSError, IndexError):
        return None
    return int(fields[0]) / 1024


def fit_one(name: str, step: float) -> dict:
    """Sample and fit one config at one grid step in this process; its measurements."""
    sys.path.insert(0, str(ROOT / "src"))
    from quasifit.bisection import fit
    from quasifit.cli import _build_model
    from quasifit.grid import sample

    config = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    config["grid"]["step"] = [step] * len(config["grid"]["step"])
    model, target, grid = _build_model(config)
    t0 = time.perf_counter()
    f = sample(target, grid, model.variables)
    t1 = time.perf_counter()
    rss_before = _rss_mb()
    t2 = time.perf_counter()
    result = fit(model, f, epsilon=config["solver"]["epsilon"])
    t3 = time.perf_counter()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KB on Linux
    return {"config": name, "step": step, "points": len(f), "sample_s": round(t1 - t0, 4),
            "fit_s": round(t3 - t2, 4), "levels": result.iterations,
            "pivots": sum(t.pivots for t in result.trace),
            "rss_before_fit_mb": None if rss_before is None else round(rss_before, 1),
            "max_rss_mb": round(peak, 1)}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--step", type=float, action="append", help=f"grid step on both axes (default {STEPS})")
    p.add_argument("--one", nargs=2, metavar=("CONFIG", "STEP"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.one:
        print(json.dumps(fit_one(args.one[0], float(args.one[1]))), flush=True)
        return 0
    for step in args.step or STEPS:
        for name in CONFIGS:
            subprocess.run([sys.executable, __file__, "--one", name, repr(step)], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
