"""Tests for the forked task pool and the OpenBLAS thread-count table."""

import contextlib
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

from oscilab import _pool
from oscilab.errors import ComputeFailure, InvariantViolation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pid_of(task):
    return task, os.getpid()


def test_pool_map_keeps_task_order_and_runs_in_other_processes(two_cpus):
    tasks = list(range(7))
    out = _pool.pool_map(_pid_of, tasks, _pool.MIN_ROWS)
    assert [t for t, _ in out] == tasks
    pids = {pid for _, pid in out}
    assert os.getpid() not in pids
    assert 1 <= len(pids) <= 2
    assert _pool.workers(len(tasks), _pool.MIN_ROWS) == 2
    assert multiprocessing.active_children() == []


def test_pool_map_runs_in_process_below_its_thresholds(two_cpus, monkeypatch):
    here = os.getpid()
    # small matrices, a single task, and a single CPU all stay in-process
    for tasks, rows in (([1, 2], _pool.MIN_ROWS - 1), ([1], _pool.MIN_ROWS)):
        assert _pool.workers(len(tasks), rows) == 1
        assert _pool.pool_map(_pid_of, tasks, rows) == [(t, here) for t in tasks]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _pool.workers(2, _pool.MIN_ROWS) == 1
    assert _pool.pool_map(_pid_of, [1, 2], _pool.MIN_ROWS) == [(1, here), (2, here)]


def _cpus_of(task):
    return os.getpid(), sorted(os.sched_getaffinity(0))


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs to bind workers to"
)
def test_each_worker_is_bound_to_a_cpu_of_its_own():
    mask = sorted(os.sched_getaffinity(0))
    cpus = dict(_pool.pool_map(_cpus_of, range(8), _pool.MIN_ROWS))
    assert all(len(c) == 1 and c[0] in mask for c in cpus.values())
    assert len({c[0] for c in cpus.values()}) == len(cpus)
    assert sorted(os.sched_getaffinity(0)) == mask


def test_a_worker_runs_its_own_pool_map_in_process(two_cpus):
    def nested(task):
        return os.getpid(), _pool.pool_map(_pid_of, [task, task], _pool.MIN_ROWS)

    for pid, inner in _pool.pool_map(nested, [0, 1], _pool.MIN_ROWS):
        assert pid != os.getpid()
        assert [p for _, p in inner] == [pid, pid]
    assert multiprocessing.active_children() == []


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
        _pool.pool_map(_fails_on_two, range(4), _pool.MIN_ROWS)
    assert err.value.invariant == "norm-convergence"
    assert str(err.value) == "task 2"
    assert multiprocessing.active_children() == []


def _dies_on_one(task):
    if task == 1:
        os._exit(1)
    return task


def test_a_dead_worker_breaks_the_pool_instead_of_hanging(two_cpus):
    with pytest.raises(BrokenProcessPool):
        _pool.pool_map(_dies_on_one, range(4), _pool.MIN_ROWS)
    assert multiprocessing.active_children() == []


def _no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _sleeps_on_zero(task):
    if task == 0:
        time.sleep(0.5)
    return os.getpid()


def test_tasks_are_handed_out_as_workers_come_free(two_cpus):
    pids = _pool.pool_map(_sleeps_on_zero, range(8), _pool.MIN_ROWS)
    # while one worker sleeps on task 0, the other takes tasks 1-7
    assert len(set(pids[1:])) == 1
    assert pids[0] not in pids[1:]
    _no_child_is_left()


def test_no_task_starts_once_one_has_failed(two_cpus, tmp_path):
    log = tmp_path / "started"

    def task(i):
        with open(log, "a") as fh:
            fh.write(f"{i}\n")
        if i == 0:
            time.sleep(0.2)
            raise ComputeFailure("norm-convergence", "task 0")
        time.sleep(0.5)
        return i

    with pytest.raises(ComputeFailure, match="task 0"):
        _pool.pool_map(task, range(8), _pool.MIN_ROWS)
    # task 1 may have begun before task 0 failed; tasks 2-7 never start
    started = {int(line) for line in log.read_text().split()}
    assert 0 in started and started <= {0, 1}
    _no_child_is_left()


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
        _pool.pool_map(_fails_or_dies, tasks, _pool.MIN_ROWS)
    _no_child_is_left()


def test_an_interrupt_in_the_wait_kills_and_reaps_the_workers(two_cpus):
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        with pytest.raises(KeyboardInterrupt):
            _pool.pool_map(time.sleep, [30, 30], _pool.MIN_ROWS)
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
        "print(_pool.pool_map(abs, [-1, -2, -3], _pool.MIN_ROWS))\n"
    )
    assert out == "before\n[1, 2, 3]\n"


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
        "import oscilab.lap  # loads numpy's and scipy's OpenBLAS\n"
        "from oscilab import _pool\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "tasks = _pool.pool_map(lambda _: _pool.blas_threads(), [0, 1], _pool.MIN_ROWS)\n"
        "print(json.dumps({'tasks': tasks, 'parent': _pool.blas_threads()}))\n"
    )
    assert out["tasks"] == [{"numpy": 1, "scipy": 1}] * 2
    assert out["parent"] == {"numpy": 2, "scipy": 2}


@two_blas_threads
def test_a_library_scan_runs_one_blas_thread_and_gives_the_caller_back_its_own():
    out = _python_at_two_blas_threads(
        "import json\n"
        "from oscilab import _pool\n"
        "from oscilab.lap import LapScanSpec, lap_scan, schrodinger_line_factory\n"
        "build, inside = schrodinger_line_factory(0.2), []\n"
        "def factory(V, L):\n"
        "    inside.append(_pool.blas_threads())\n"
        "    return build(V, L)\n"
        "before = _pool.blas_threads()\n"
        "spec = LapScanSpec(interval=(0.5, 1.5), s=0.51, weight_kind='conjugate_A',\n"
        "                   box_list=(9.9, 19.8))\n"
        "lap_scan(factory, None, spec)\n"
        "print(json.dumps({'before': before, 'inside': inside,\n"
        "                  'after': _pool.blas_threads()}))\n"
    )
    assert out["before"] == out["after"] == {"numpy": 2, "scipy": 2}
    assert out["inside"] == [{"numpy": 1, "scipy": 1}] * 2


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
    # load scipy's OpenBLAS, whichever test files ran before this one
    import scipy.linalg  # noqa: F401

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
