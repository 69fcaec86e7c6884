"""One worker thread, for the half of the fine-grid work that can run beside the caller.

The caller keeps one CPU busy; on a host with two, the worker uses the
other.  numpy releases the interpreter lock inside its loops, so the
worker's loops (half of a large `expr.power`, a CSV block's compress and
write in `grid.write_csv`) run while the caller's do.

`submit` hands a call to a one-thread `ThreadPoolExecutor`: jobs run one at
a time, in the order submitted, and a job's `Future.result` re-raises what
the call raised.  The executor starts its thread with the first job, not at
import.  A forked child inherits no thread but the caller's, and an executor
whose thread ran in the parent never runs the child's jobs, so the child
binds a fresh executor, which `submit` reads.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable


def _new_executor() -> None:
    global _executor
    _executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="quasifit-worker")


_new_executor()
if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_new_executor)


def submit(call: Callable[..., object], *args) -> Future:
    """Run `call(*args)` on the worker thread, after every job submitted before it."""
    return _executor.submit(call, *args)
