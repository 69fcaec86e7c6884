"""Speed of the host, measured by a fixed kernel run between timed operations.

The benchmark runs on a few cores of a shared machine whose speed drifts by
up to about 25 %, in phases from seconds to minutes, often longer than a
run: the operations of a run, and their CPU time as much as their wall
time, slow down together.  The kernel below does the same work in every
run and never changes with quasifit, so its time tracks the host's speed.
An operation's time scaled by `NOMINAL_S / kernel time` is the time it would
take on this host at its usual speed, and a change to quasifit moves it in
proportion, as it moves the wall time.

The kernel is interpreter work on a small set of integers, which stays in
a core's own caches.  A kernel that also streamed a 6 MB or a 24 MB array
through rank-one updates, as the simplex pivots do, varied on its own from
sample to sample: on the same runs, times scaled by it spread 1.5 to 2
times as widely between seeds as times scaled by the interpreter part
alone.

The kernel cannot run during an operation, so its time there is estimated
from the kernels run within one operation's length before it and after it
(`estimate`): the adjacent ones for a short operation, several of them for
a long one, which averages over the phases the operation lasted through.
"""

from __future__ import annotations

import statistics
import time

# The kernel's median time on the reference host: a 2-vCPU Xeon VM at
# 2.1 GHz, Python 3.11.7, numpy 2.4.6 with scipy-openblas 0.3.31, one BLAS
# thread.  Scaled times are in seconds of that host at its usual speed.
NOMINAL_S = 0.028

ROUND_START_KERNELS = 5  # before the first operation of a round
KERNEL_SHARE = 0.03  # kernel time after an operation, as a share of its time
WINDOW = 1.0  # kernels this many operation lengths away count for its estimate
MIN_WINDOW_S = 0.01


def kernel() -> list[float]:
    """Run the fixed kernel once; return its `[start, end]` in perf_counter seconds."""
    t0 = time.perf_counter()
    seen: set[int] = set()
    acc = 0
    for i in range(160_000):
        m = (i * 40503) & 0xFFF
        if m in seen:
            acc ^= m
        else:
            seen.add(m)
    return [t0, time.perf_counter()]


def kernels(n: int) -> list[list[float]]:
    """Run the kernel `n` times."""
    return [kernel() for _ in range(n)]


def kernels_after(op_s: float) -> list[list[float]]:
    """Run the kernel after an operation that took `op_s` seconds: at least
    once, and on until the kernels took `KERNEL_SHARE` of the operation's
    time, so a long operation is not scaled by a few samples that a burst
    on the machine may have spoiled."""
    runs = [kernel()]
    while runs[-1][1] - runs[0][0] < KERNEL_SHARE * op_s:
        runs.append(kernel())
    return runs


def durations(runs: list[list[float]]) -> list[float]:
    return [end - start for start, end in runs]


def estimate(runs: list[list[float]], t0: float, t1: float) -> float:
    """The kernel's time during `[t0, t1]`: the median over the kernel runs
    that end or start within `WINDOW` times the interval's length of it."""
    w = max(WINDOW * (t1 - t0), MIN_WINDOW_S)
    return statistics.median(end - start for start, end in runs if end >= t0 - w and start <= t1 + w)


def scale_rounds(rounds: list[dict], scaled: list[bool]) -> None:
    """Set each round's `op_ref_s` from its `op_t` and the kernel runs of
    all the rounds, which ran one after another: the scaled time of each
    operation whose `scaled` is true, the wall time of the others."""
    runs = [run for r in rounds for run in r["kernels"]]
    for r in rounds:
        r["op_ref_s"] = [None if t is None else
                         scale(t[1] - t[0], estimate(runs, *t)) if s else t[1] - t[0]
                         for t, s in zip(r["op_t"], scaled)]


def scale(seconds: float, kernel_s: float) -> float:
    """`seconds` measured while the kernel took `kernel_s`, at the usual speed."""
    return seconds * NOMINAL_S / kernel_s
