import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import quasifit
from quasifit import worker

_ENV = dict(os.environ, PYTHONPATH=str(Path(quasifit.__file__).resolve().parents[1]))


def test_jobs_from_many_threads_each_run_once_and_in_order():
    # more callers than CPUs, switching threads as often as the interpreter can;
    # the CSV writer's blocks go out in the order their jobs were submitted
    ran = []

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
    error = OSError("no space left")

    def fail():
        raise error

    failed, after = worker.submit(fail), worker.submit(int, "7")
    with pytest.raises(OSError) as raised:
        failed.result(timeout=30)
    assert raised.value is error
    assert after.result(timeout=30) == 7


def test_importing_quasifit_starts_no_thread():
    # `grid` and `expr` import `worker`, which makes its executor at import
    code = "import threading, quasifit.grid, quasifit.expr; print(threading.active_count())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_ENV, timeout=30)
    assert proc.stdout == "1\n", proc.stderr


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_forked_child_runs_its_jobs():
    # the parent's worker thread has started before the fork; the child inherits no thread but the caller's
    code = """if True:
        import os
        from quasifit import worker
        worker.submit(int, "1").result(timeout=30)
        pid = os.fork()
        if pid == 0:
            try:
                os._exit(0 if worker.submit(int, "7").result(timeout=10) == 7 else 1)
            except BaseException:
                os._exit(2)
        print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_ENV, timeout=60)
    assert proc.stdout == "0\n", proc.stderr
