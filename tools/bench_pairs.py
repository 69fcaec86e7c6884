"""Paired benchmark runs: a base revision against the working tree.

    python tools/bench_pairs.py --base HEAD~1 --label axes
    python tools/bench_pairs.py --base 55da3c8 --pairs 10 --workload coarse-to-fine

Exports REV with `git archive`, and copies the working tree's files as they
are on disk (tracked, and untracked but not ignored), into two sibling
directories of a temporary directory, `base` and `work`: a run's peak RSS
and fit times can depend on the directory it runs in, so both sides run
from paths of the same length. For seeds 1..N it runs BENCHMARK.json's
command once in each copy, for the benchmark's `run_seconds`, for each
workload, alternating which side runs first. It then writes
BENCH_<label>.json at the root of the working tree with, per workload and
end-to-end metric, each side's runs, median and quartiles, the median's
relative change, the pairs the change won (was better in) and a verdict
against the metric's bound (see `compare`), together with the CPU count,
the Python and numpy versions, whether each side's runs wrote bytecode
(see `wrote_bytecode`) and both checkout directories. Per workload
it also keeps each side's host-kernel medians, one per run (see
`host_kernel_ms`), which tell a slower host from a slower change. Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(rev: str, dest: Path) -> str:
    """REV's committed files under dest; returns its full commit hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = dest.with_name(dest.name + ".tar")
    subprocess.run(["git", "archive", "--output", str(archive), commit], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return commit


def copy_worktree(dest: Path) -> None:
    """The working tree's files that git tracks or would add, as they are on disk, under dest."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=ROOT,
                           check=True, capture_output=True, text=True).stdout.split("\0")
    for name in filter(None, names):
        if (ROOT / name).is_file():  # a tracked file deleted on disk stays deleted
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run(command: list[str], checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_kernel_ms(checkout: Path, workload: str, seed: int) -> float:
    """The median host-speed kernel of a run, in ms: over every round's `kernels`
    ([start, end] pairs) in the record `perfbench/run.py` leaves in the checkout."""
    record = checkout / "perfbench" / "out" / "records" / f"{workload}-seed{seed}-trace0.json"
    rounds = json.loads(record.read_text())["rounds"]
    return 1e3 * statistics.median(end - start for r in rounds for start, end in r["kernels"])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(base: list[dict], change: list[dict], metric: dict) -> dict:
    """One metric over the pairs: both sides' spread, how often the change was better, and a verdict.

    The verdict is `worse` when the change's median is worse than the base's
    by more than the metric's bound (a fraction of the base median);
    otherwise `unresolved` when either side's (Q3 - Q1) / median exceeds the
    bound and not every change run beats every base run; otherwise `within bound`.
    """
    a = [r["metrics"][metric["name"]]["value"] for r in base]
    b = [r["metrics"][metric["name"]]["value"] for r in change]
    sign = 1 if metric["better"] == "lower" else -1
    bound = metric["bound"]
    out = {"unit": metric["unit"], "bound": bound, "base": summary(a), "change": summary(b)}
    out["median_change"] = out["change"]["median"] / out["base"]["median"] - 1
    out["pairs_won"] = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (out["base"], out["change"]))
    if sign * out["median_change"] > bound:
        out["verdict"] = "worse"
    elif spread > bound and not all(sign * (y - x) < 0 for x in a for y in b):
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "within bound"
    return out


def wrote_bytecode(checkout: Path) -> bool:
    """Whether runs in the checkout left compiled bytecode behind.

    Neither copy starts with a `__pycache__`, so a run that writes none (as
    under PYTHONDONTWRITEBYTECODE) compiles every module it imports from
    source, and that compile time is part of its `setup_s`.
    """
    return any(checkout.rglob("__pycache__/*.pyc"))


def environment(python: str) -> dict:
    probe = "import sys, numpy; print(sys.version.split()[0], numpy.__version__)"
    version, numpy = subprocess.run([python, "-c", probe], capture_output=True, text=True,
                                    check=True).stdout.split()
    return {"cpu_count": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": version, "numpy": numpy}


def parse_args(argv: list[str] | None, names: list[str]) -> argparse.Namespace:
    """The command line; `names` are the benchmark's workloads, all of them run when none is named."""
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, metavar="REV", help="the revision to compare against")
    p.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload, seeds 1..N (at least 2)")
    p.add_argument("--workload", action="extend", nargs="+", choices=names,
                   help="workloads to run, in the benchmark's order; repeat or list several (default: all)")
    p.add_argument("--label", default="pairs", help="the output is BENCH_<label>.json")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    args.workload = [w for w in names if args.workload is None or w in args.workload]
    return args


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])

    command = bench["command"]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"base": Path(tmp) / "base", "change": Path(tmp) / "work"}
        commit = export(args.base, sides["base"])
        copy_worktree(sides["change"])
        runs: dict[str, dict[str, list[dict]]] = {w: {"base": [], "change": []} for w in args.workload}
        for seed in range(1, args.pairs + 1):
            order = ("base", "change") if seed % 2 else ("change", "base")
            for w in args.workload:
                for side in order:
                    res = run(command, sides[side], w, seed, bench["run_seconds"])
                    res["host_kernel_ms"] = host_kernel_ms(sides[side], w, seed)
                    runs[w][side].append(res)
                    print(f"seed {seed} {w} {side}: " + ", ".join(
                        f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                        + f", host_kernel_ms={res['host_kernel_ms']:.4g}", flush=True)
        bytecode = {side: wrote_bytecode(checkout) for side, checkout in sides.items()}

    report = {
        "base": {"rev": args.base, "commit": commit, "checkout": str(sides["base"])},
        "change": {"checkout": str(sides["change"])},
        "pairs": args.pairs,
        "seconds": bench["run_seconds"],
        "order": "odd seeds run the base first, even seeds the change",
        "environment": {**environment(command[0]), "wrote_bytecode": bytecode},
        "workloads": {},
    }
    for w, by_side in runs.items():
        entry = {side: {"all_correct": all(r["correct"] for r in rs),
                        "failed": sum(r["failed"] for r in rs), "attempted": sum(r["attempted"] for r in rs)}
                 for side, rs in by_side.items()}
        entry["metrics"] = {m["name"]: compare(by_side["base"], by_side["change"], m) for m in bench["end_to_end"]}
        entry["host_kernel_ms"] = {side: summary([r["host_kernel_ms"] for r in rs]) for side, rs in by_side.items()}
        report["workloads"][w] = entry

    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n{'workload':16} {'metric':12} {'base median [q1-q3]':>28} {'change median [q1-q3]':>28} "
          f"{'won':>5} {'change':>8}  verdict")
    for w, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            a, b = m["base"], m["change"]
            print(f"{w:16} {name:12} {a['median']:10.4g} [{a['q1']:.4g}-{a['q3']:.4g}] "
                  f"{b['median']:10.4g} [{b['q1']:.4g}-{b['q3']:.4g}] "
                  f"{m['pairs_won']:>2}/{args.pairs} {m['median_change']:+8.1%}  {m['verdict']}")
    print(f"\n{'workload':16} {'host kernel ms':12} {'base median [q1-q3]':>28} {'change median [q1-q3]':>28}")
    for w, entry in report["workloads"].items():
        a, b = entry["host_kernel_ms"]["base"], entry["host_kernel_ms"]["change"]
        print(f"{w:16} {'':12} {a['median']:10.4g} [{a['q1']:.4g}-{a['q3']:.4g}] "
              f"{b['median']:10.4g} [{b['q1']:.4g}-{b['q3']:.4g}]")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
