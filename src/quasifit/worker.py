"""One long-lived worker thread, for the half of the fine-grid work that can run beside the caller.

The caller keeps one CPU busy; on a host with two, the worker uses the
other.  numpy releases the interpreter lock inside its loops, so the
worker's loops (half of a large `expr.power`, a CSV block's compress and
write in `grid.write_csv`) run while the caller's do.  Jobs run one at a time, in the order submitted.
The thread starts with the first job, not at import, and again in a forked
child, which inherits no thread but the caller's.

It is built on `threading`'s locks alone: numpy imports `threading`
already, `concurrent.futures` would cost milliseconds of import for one
thread, and a lock's acquire waits in C, with the interpreter lock
released, where `threading.Event` and `Semaphore` run Python code.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable


class Job:
    """A submitted call; `result` waits for it and re-raises what it raised."""

    __slots__ = ("call", "args", "error", "_running")

    def __init__(self, call: Callable[..., object], args: tuple):
        self.call, self.args = call, args
        self.error: BaseException | None = None
        self._running = threading.Lock()
        self._running.acquire()  # released once the call has returned or raised

    def wait(self) -> None:
        with self._running:
            pass

    def result(self) -> None:
        self.wait()
        if self.error is not None:
            raise self.error

    def _run(self) -> None:
        try:
            self.call(*self.args)
        except BaseException as exc:  # handed to the caller, which re-raises it from `result`
            self.error = exc
        finally:
            self._running.release()


class Worker:
    """A daemon thread that runs the jobs submitted to it, in order."""

    def __init__(self):
        self._jobs: deque[Job] = deque()
        self._lock = threading.Lock()  # guards the jobs and the thread's state
        self._thread: threading.Thread | None = None
        self._idle = False  # the thread waits on `_wake`, which only `submit` releases
        self._wake = threading.Lock()

    def submit(self, call: Callable[..., object], *args) -> Job:
        job = Job(call, args)
        with self._lock:
            self._jobs.append(job)
            if self._thread is None or not self._thread.is_alive():
                self._idle, self._wake = False, threading.Lock()
                self._wake.acquire()
                self._thread = threading.Thread(target=self._run, name="quasifit-worker", daemon=True)
                self._thread.start()
            elif self._idle:
                self._idle = False
                self._wake.release()
        return job

    def _run(self) -> None:
        while True:
            with self._lock:
                job = self._jobs.popleft() if self._jobs else None
                self._idle = job is None
            if job is None:
                self._wake.acquire()
            else:
                job._run()


WORKER = Worker()
