"""Same outputs: the benchmark's outputs at a base revision against the working tree.

    python tools/same_outputs.py --base HEAD

Exports REV and copies the working tree as `tools/bench_pairs.py` does, into
sibling directories `base` and `work` of a temporary directory. In each copy
it runs one untraced and one traced round of each of WORKLOADS
(`perfbench/workload.py --seed 1 --seconds 0.01 --trace 1`), each in an
empty working directory with its report written outside it. The working
directories hold every config, result JSON, surface CSV and residual CSV the
rounds write. It then compares the two sides' files byte for byte, the
reports' `outputs` as parsed JSON (the fine deviations and the `verify`
report of the fit workloads, and every enumerated family and the four
`convexity` CLI answers of `convexity-enum`), and the integer counts of the
traced round's layers: pivots, LP solves and rows, bisection levels and
the call counts it reports, so a change of pivot path shows even when the
outputs stay the same. Every difference is printed, a file on one side
only included, and then each workload's counts; the exit status is 1 when
there is any difference, else 0. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import copy_worktree, export

WORKLOADS = ("fit-benchmarks", "coarse-to-fine", "convexity-enum")


def run_round(checkout: Path, workload: str, workdir: Path, report: Path) -> dict:
    """One untraced and one traced seeded round of `workload` in `checkout`, its files written under
    `workdir`; its report."""
    workdir.mkdir(parents=True)
    subprocess.run([sys.executable, "perfbench/workload.py", "--workload", workload, "--seed", "1",
                    "--seconds", "0.01", "--trace", "1", "--workdir", str(workdir), "--report", str(report)],
                   cwd=checkout, check=True)
    return json.loads(report.read_text())


def file_differences(base: Path, change: Path) -> list[str]:
    """The files under two directories that differ or exist on one side only, one line each."""
    names = {p.relative_to(d).as_posix() for d in (base, change) for p in d.rglob("*") if p.is_file()}
    lines = []
    for name in sorted(names):
        a, b = base / name, change / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"{name}: only in {'base' if a.is_file() else 'change'}")
        elif a.read_bytes() != b.read_bytes():
            lines.append(f"{name}: differs")
    return lines


def output_differences(workload: str, base: dict, change: dict) -> list[str]:
    """The entries of two reports' `outputs` that differ, and any operation that failed."""
    lines = [f"{workload} {side}: {error}" for side, report in (("base", base), ("change", change))
             for rnd in report["rounds"] for error in rnd["errors"]]
    a, b = base["outputs"], change["outputs"]
    lines += [f"{workload} outputs[{key!r}]: {json.dumps(a.get(key))} against {json.dumps(b.get(key))}"
              for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]
    return lines


def counts(report: dict) -> dict[str, int]:
    """The integer layer metrics of a report's first traced round."""
    layers = report["traced_rounds"][0]["layers"]
    return {key: value for key, value in layers.items() if type(value) is int}


def count_differences(workload: str, base: dict, change: dict) -> list[str]:
    """The counts of two reports' first traced rounds that differ, a count on one side only included."""
    a, b = counts(base), counts(change)
    return [f"{workload} traced counts[{key!r}]: {a.get(key)} against {b.get(key)}"
            for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, metavar="REV", help="the revision to compare against")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        checkouts = {"base": Path(tmp) / "base", "change": Path(tmp) / "work"}
        export(args.base, checkouts["base"])
        copy_worktree(checkouts["change"])
        outs = {side: Path(tmp) / "out" / path.name for side, path in checkouts.items()}
        lines, summary = [], []
        for w in WORKLOADS:
            reports = {side: run_round(checkouts[side], w, outs[side] / w, Path(tmp) / f"{side}-{w}.json")
                       for side in checkouts}
            lines += output_differences(w, reports["base"], reports["change"])
            lines += count_differences(w, reports["base"], reports["change"])
            summary.append(f"{w} counts: " + " ".join(f"{k}={v}" for k, v in sorted(counts(reports["change"]).items())))
        lines += file_differences(outs["base"], outs["change"])
        count = sum(1 for p in outs["change"].rglob("*") if p.is_file())

    for line in lines + summary:
        print(line)
    print(f"{len(lines)} difference(s) against {args.base}; {count} files compared")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
