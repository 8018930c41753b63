"""Tests for the process's task pool and the OpenBLAS thread-count table."""

import contextlib
import functools
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import pytest
import scipy.linalg  # noqa: F401  # its OpenBLAS mapped before any test runs

from oscilab import _pool
from oscilab.errors import ComputeFailure, InvariantViolation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pid_of(task):
    return task, os.getpid()


def _children():
    """Pids of this process's children, zombies included."""
    me, kids = os.getpid(), set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # gone since the listing
            continue
        # the fields after the name, which ends at the last ")": state, ppid
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            kids.add(int(entry))
    return kids


def _only_workers_are_left():
    """The process's children are its pool's workers, and the next pooled
    call runs in them."""
    pids = set(_pool._workers.pids)
    assert len(pids) == 2
    assert _children() == pids
    assert {pid for _, pid in _pool.pool_map(_pid_of, range(4))} <= pids


def test_pool_map_keeps_task_order_and_runs_in_other_processes(two_cpus):
    tasks = list(range(7))
    out = _pool.pool_map(_pid_of, tasks)
    assert [t for t, _ in out] == tasks
    pids = {pid for _, pid in out}
    assert os.getpid() not in pids
    assert 1 <= len(pids) <= 2
    assert _pool.workers(len(tasks)) == 2
    assert multiprocessing.active_children() == []


def test_pool_map_runs_in_process_below_its_thresholds(two_cpus, monkeypatch):
    here = os.getpid()
    # a single task and a single CPU both stay in-process
    assert _pool.workers(1) == 1
    assert _pool.pool_map(_pid_of, [1]) == [(1, here)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _pool.workers(2) == 1
    assert _pool.pool_map(_pid_of, [1, 2]) == [(1, here), (2, here)]
    assert _pool._workers.pids == []


def test_two_calls_run_in_the_same_workers(two_cpus):
    first = _pool.pool_map(_pid_of, range(6))
    pids = list(_pool._workers.pids)
    second = _pool.pool_map(_pid_of, range(6))
    assert _pool._workers.pids == pids
    assert {pid for _, pid in first} | {pid for _, pid in second} <= set(pids)
    _only_workers_are_left()


def test_a_new_mask_forks_a_fresh_set_and_one_cpu_leaves_no_worker(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _pool.pool_map(_pid_of, range(4))
    before = set(_pool._workers.pids)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 0, 2})
    after = {pid for _, pid in _pool.pool_map(_pid_of, range(6))}
    assert len(_pool._workers.pids) == 3
    assert not before & set(_pool._workers.pids) and after <= set(_pool._workers.pids)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _pool.pool_map(_pid_of, [1, 2]) == [(1, os.getpid()), (2, os.getpid())]
    assert _pool._workers.pids == []
    _no_child_is_left()


def _cpus_of(task):
    return os.getpid(), sorted(os.sched_getaffinity(0))


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs to bind workers to"
)
def test_each_worker_is_bound_to_a_cpu_of_its_own():
    mask = sorted(os.sched_getaffinity(0))
    cpus = dict(_pool.pool_map(_cpus_of, range(8)))
    assert all(len(c) == 1 and c[0] in mask for c in cpus.values())
    assert len({c[0] for c in cpus.values()}) == len(cpus)
    assert sorted(os.sched_getaffinity(0)) == mask


def _nested(task):
    time.sleep(0.3)  # long enough for each worker to take one task
    return os.getpid(), _pool.pool_map(_pid_of, [task, task])


def test_a_worker_runs_its_own_pool_map_in_process(two_cpus):
    out = _pool.pool_map(_nested, [0, 1])
    for pid, inner in out:
        assert pid != os.getpid()
        assert [p for _, p in inner] == [pid, pid]
    assert multiprocessing.active_children() == []
    # the second worker, forked while the first was in the pool, does not
    # take the first for its own: both are still there
    assert len({pid for pid, _ in out}) == 2
    _only_workers_are_left()


@pytest.mark.parametrize("cls", [InvariantViolation, ComputeFailure])
def test_invariant_errors_survive_pickling(cls):
    err = pickle.loads(pickle.dumps(cls("norm-convergence", "no convergence at z")))
    assert type(err) is cls
    assert err.invariant == "norm-convergence"
    assert str(err) == "no convergence at z"


def _fails_on_two(task):
    if task == 2:
        raise ComputeFailure("norm-convergence", f"task {task}")
    return task


def test_pool_map_reraises_a_task_failure_with_its_invariant(two_cpus):
    with pytest.raises(ComputeFailure) as err:
        _pool.pool_map(_fails_on_two, range(4))
    assert err.value.invariant == "norm-convergence"
    assert str(err.value) == "task 2"
    assert multiprocessing.active_children() == []


def _dies_on_one(task):
    if task == 1:
        os._exit(1)
    return task


def test_a_dead_worker_breaks_the_pool_instead_of_hanging(two_cpus):
    with pytest.raises(BrokenProcessPool):
        _pool.pool_map(_dies_on_one, range(4))
    assert multiprocessing.active_children() == []
    _no_child_is_left()
    # the next call forks a fresh set
    assert _pool.pool_map(abs, [-1, -2]) == [1, 2]
    _only_workers_are_left()


def _no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _sleeps_on_zero(task):
    if task == 0:
        time.sleep(0.5)
    return os.getpid()


def test_tasks_are_handed_out_as_workers_come_free(two_cpus):
    pids = _pool.pool_map(_sleeps_on_zero, range(8))
    # while one worker sleeps on task 0, the other takes tasks 1-7
    assert len(set(pids[1:])) == 1
    assert pids[0] not in pids[1:]
    _only_workers_are_left()


def _logs_then_fails_on_zero(log, i):
    with open(log, "a") as fh:
        fh.write(f"{i}\n")
    if i == 0:
        time.sleep(0.2)
        raise ComputeFailure("norm-convergence", "task 0")
    time.sleep(0.5)
    return i


def test_no_task_starts_once_one_has_failed(two_cpus, tmp_path):
    log = tmp_path / "started"
    task = functools.partial(_logs_then_fails_on_zero, str(log))
    with pytest.raises(ComputeFailure, match="task 0"):
        _pool.pool_map(task, range(8))
    # task 1 may have begun before task 0 failed; tasks 2-7 never start
    started = {int(line) for line in log.read_text().split()}
    assert 0 in started and started <= {0, 1}
    _only_workers_are_left()
    # the flag is cleared for the next call: every task of it runs
    log.unlink()
    assert _pool.pool_map(task, [1, 2, 3]) == [1, 2, 3]
    assert sorted(int(line) for line in log.read_text().split()) == [1, 2, 3]


def _fails_or_dies(task):
    if task == 1:
        raise ComputeFailure("norm-convergence", f"task {task}")
    if task == 2:
        os._exit(3)
    return task


@pytest.mark.parametrize(
    "tasks, error", [([0, 3], None), ([0, 1], ComputeFailure), ([0, 2], BrokenProcessPool)]
)
def test_no_worker_outlives_a_call(two_cpus, tasks, error):
    with pytest.raises(error) if error else contextlib.nullcontext():
        _pool.pool_map(_fails_or_dies, tasks)
    if error is BrokenProcessPool:
        _no_child_is_left()
        assert _pool.pool_map(_fails_or_dies, [0, 3]) == [0, 3]
    # a call that returns or re-raises a task's exception keeps the workers
    _only_workers_are_left()


def test_an_interrupt_in_the_wait_kills_and_reaps_the_workers(two_cpus):
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        with pytest.raises(KeyboardInterrupt):
            _pool.pool_map(time.sleep, [30, 30])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 10
    _no_child_is_left()


def test_text_printed_before_a_pooled_call_is_written_once():
    # stdout is a pipe, so the first line sits in the parent's buffer when
    # the workers fork
    out = _python(
        "import os\n"
        "from oscilab import _pool\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "print('before')\n"
        "print(_pool.pool_map(abs, [-1, -2, -3]))\n"
    )
    assert out == "before\n[1, 2, 3]\n"


def _alive(pid):
    """Whether pid is a process that has not exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except OSError:
        return False


_RUN_AND_PRINT_WORKERS = (
    "import atexit, os\n"
    "def check():\n"
    "    try:\n"
    "        os.waitpid(-1, os.WNOHANG)\n"
    "        print('a child is left', flush=True)\n"
    "    except ChildProcessError:\n"
    "        print('no child is left', flush=True)\n"
    "# before the pool's handler, registered at import, so it runs after it\n"
    "atexit.register(check)\n"
    "from oscilab import _pool\n"
    "os.sched_getaffinity = lambda pid: {0, 1}\n"
    "print(_pool.pool_map(abs, [-1, -2, -3]))\n"
    "print(*_pool._workers.pids, flush=True)\n"
)


def test_a_process_that_ran_pool_map_leaves_no_worker_when_it_exits():
    out = _python(_RUN_AND_PRINT_WORKERS).splitlines()
    assert out[0] == "[1, 2, 3]"
    assert out[2] == "no child is left"
    assert not any(_alive(int(pid)) for pid in out[1].split())


def test_workers_exit_when_their_parent_is_gone():
    # os._exit runs no atexit handler: the workers see their command pipe
    # end and exit by themselves
    out = _python(_RUN_AND_PRINT_WORKERS + "os._exit(0)\n").splitlines()
    assert out[0] == "[1, 2, 3]" and len(out) == 2
    pids = [int(pid) for pid in out[1].split()]
    deadline = time.monotonic() + 10
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_alive(pid) for pid in pids)


def _python(script, **env):
    """The stdout of script, run in a fresh process with oscilab importable
    and env added to the environment."""
    env = dict(os.environ, **env)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _python_at_two_blas_threads(script):
    """The last stdout line of script, run in a fresh process whose
    environment asks OpenBLAS for two threads, parsed as JSON."""
    out = _python(script, OPENBLAS_NUM_THREADS="2")
    return json.loads(out.strip().splitlines()[-1])


two_blas_threads = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="OpenBLAS caps its threads at the CPU count"
)


@two_blas_threads
def test_pooled_tasks_run_one_blas_thread_and_the_parent_keeps_its_own():
    out = _python_at_two_blas_threads(
        "import json, os\n"
        "import oscilab.lap  # maps numpy's OpenBLAS alone\n"
        "from oscilab import _pool\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "def threads(_):\n"
        "    return _pool.blas_threads()\n"
        "tasks = _pool.pool_map(threads, [0, 1])\n"
        "print(json.dumps({'tasks': tasks, 'parent': _pool.blas_threads()}))\n"
    )
    # no scipy in the process, so no second OpenBLAS to count
    assert out["tasks"] == [{"numpy": 1, "scipy": None}] * 2
    assert out["parent"] == {"numpy": 2, "scipy": None}


@two_blas_threads
def test_a_library_scan_runs_one_blas_thread_and_gives_the_caller_back_its_own():
    out = _python_at_two_blas_threads(
        "import json\n"
        "from oscilab import _pool\n"
        "from oscilab.discretize import build_schrodinger, line_grid\n"
        "from oscilab.lap import LapScanSpec, lap_scan\n"
        "inside = []\n"
        "def build(L):\n"
        "    inside.append(_pool.blas_threads())\n"
        "    return build_schrodinger(line_grid(L, 0.2), None)\n"
        "before = _pool.blas_threads()\n"
        "spec = LapScanSpec(interval=(0.5, 1.5), s=0.51, weight_kind='conjugate_A',\n"
        "                   box_list=(9.9, 19.8))\n"
        "lap_scan(build, spec)\n"
        "print(json.dumps({'before': before, 'inside': inside,\n"
        "                  'after': _pool.blas_threads()}))\n"
    )
    assert out["before"] == out["after"] == {"numpy": 2, "scipy": None}
    assert out["inside"] == [{"numpy": 1, "scipy": None}] * 2


def test_the_scope_restores_each_package_to_its_own_count(monkeypatch):
    counts = {"numpy": 3, "scipy": 2}

    def symbols(owner):
        def set_(n):
            counts[owner] = n

        return (lambda: counts[owner], set_)

    monkeypatch.setattr(_pool, "_found", {o: symbols(o) for o in counts})
    with _pool.one_blas_thread():
        assert _pool.blas_threads() == {"numpy": 1, "scipy": 1}
    assert counts == {"numpy": 3, "scipy": 2}


def test_each_openblas_is_opened_once_and_a_missing_one_is_looked_for_again(
    monkeypatch,
):
    _pool.blas_threads()
    found = dict(_pool._found)
    assert set(found) == {"numpy", "scipy"}
    # scipy's OpenBLAS not found yet: the next call looks for it
    monkeypatch.setattr(_pool, "_found", {"numpy": found["numpy"]})
    _pool.blas_threads()
    assert set(_pool._found) == {"numpy", "scipy"}
    # both found: no scan and no open from here on
    opened = []
    monkeypatch.setattr(_pool.ctypes, "CDLL", lambda path: opened.append(path))
    monkeypatch.setattr(_pool, "open", lambda *a: opened.append(a), raising=False)
    with _pool.one_blas_thread():
        _pool.blas_threads()
    assert opened == []
    assert _pool._found["numpy"] == found["numpy"]
