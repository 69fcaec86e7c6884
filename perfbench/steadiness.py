"""Steadiness of the benchmark: two sets of runs of the same code, compared.

    python3 perfbench/steadiness.py            # two sets of ten runs per workload
    python3 perfbench/steadiness.py --runs 5   # quicker, for tuning

Runs `run.py` for BENCHMARK.json's `run_seconds` with a new seed for every
run (set k uses seeds k*runs+1 ...), interleaving the workloads, then reports
per workload and end-to-end metric each set's median and quartiles and the
spread (Q3 - Q1) / median, and checks them against the bounds in
BENCHMARK.json:
  - every spread is within the metric's bound (and, for a steady benchmark,
    within a third of it);
  - the second set's median is not worse than the first set's by more than
    the bound;
  - the share of failed operations is identical in both sets;
  - every run is correct.
It then makes two traced runs per workload and checks that every count
metric repeats exactly.  Everything is written to perfbench/out/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
TRACED_RUNS = 2
MIN_RUNS = 5  # fewer give quartiles that mean little


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10, help=f"runs per set and workload, at least {MIN_RUNS}")
    args = p.parse_args(argv)
    if args.runs < MIN_RUNS:
        p.error(f"--runs must be at least {MIN_RUNS}")
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    results: dict[str, list[list[dict]]] = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for i in range(args.runs):
            seed = s * args.runs + i + 1
            for w in workloads:
                res = run_once(w, seed, seconds, 0)
                results[w][s].append(res)
                print(f"set {s + 1} seed {seed} {w}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)

    ok = True
    summary: dict[str, dict] = {}
    print(f"\n{'workload':16} {'metric':12} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        summary[w] = {}
        if any(not r["correct"] for runs in results[w] for r in runs):
            print(f"{w}: some run reported incorrect outputs")
            ok = False
        shares = {Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in results[w]}
        if len(shares) != 1:
            print(f"{w}: failed share differs between sets: {sorted(shares)}")
            ok = False
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [spread([r["metrics"][name]["value"] for r in runs]) for runs in results[w]]
            summary[w][name] = [dict(zip(("median", "q1", "q3", "spread"), st)) for st in sets]
            for k, (med, q1, q3, sp) in enumerate(sets):
                verdict = ["steady" if sp <= bound / 3 else
                           "within bound" if sp <= bound else "TOO WIDE"]
                ok &= sp <= bound
                if k > 0:
                    drift = (med - sets[0][0]) / sets[0][0]
                    if m["better"] == "higher":
                        drift = -drift
                    verdict.append(f"drift {drift:+.3f}" + (" TOO FAR" if drift > bound else ""))
                    ok &= drift <= bound
                print(f"{w:16} {name:12} {k + 1:>3} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                      f"{sp:>7.3f} {bound:>6}  {', '.join(verdict)}")

    counts = {}
    for w in workloads:
        traced = [run_once(w, 1000 + i, seconds, 1) for i in range(TRACED_RUNS)]
        counts[w] = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                     for r in traced]
        same = all(c == counts[w][0] for c in counts[w])
        print(f"{w}: counts over {len(traced)} traced runs "
              f"{'repeat exactly' if same else 'DIFFER'}: {counts[w][0]}")
        ok &= same

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(
        {"args": vars(args), "summary": summary, "runs": results, "traced_counts": counts}, indent=1))
    print("\nsteady within the bounds" if ok else "\nNOT steady within the bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
