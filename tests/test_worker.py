import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import quasifit
from quasifit.worker import Worker


def test_jobs_from_many_threads_each_run_once_and_in_order():
    # more callers than CPUs, switching threads as often as the interpreter can
    worker, ran = Worker(), []

    def caller(k):
        jobs = [worker.submit(ran.append, (k, i)) for i in range(300)]
        for job in jobs:
            job.result()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,), daemon=True) for k in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in callers)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == [(k, i) for k in range(4) for i in range(300)]
    for k in range(4):
        assert [i for caller, i in ran if caller == k] == list(range(300))


def test_a_job_raises_in_its_caller_and_the_worker_goes_on():
    worker, error = Worker(), OSError("no space left")

    def fail():
        raise error

    failed, after = worker.submit(fail), worker.submit(int, "7")
    waiter = threading.Thread(target=lambda: (failed.wait(), after.wait()), daemon=True)
    waiter.start()
    waiter.join(timeout=30)
    assert not waiter.is_alive()
    with pytest.raises(OSError) as raised:
        failed.result()
    assert raised.value is error
    after.result()
    failed.wait()  # done: returns without raising


def test_importing_quasifit_starts_no_thread():
    code = "import threading, quasifit; print(threading.active_count())"
    env = dict(os.environ, PYTHONPATH=str(Path(quasifit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30)
    assert proc.stdout == "1\n", proc.stderr
