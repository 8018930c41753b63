"""Tests for the forked task pool and the OpenBLAS thread-count table."""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
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


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="OpenBLAS caps its threads at the CPU count"
)
def test_pooled_tasks_run_one_blas_thread_and_the_parent_keeps_its_own():
    script = (
        "import json, os\n"
        "import oscilab.lap  # loads numpy's and scipy's OpenBLAS\n"
        "from oscilab import _pool\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "tasks = _pool.pool_map(lambda _: _pool.blas_threads(), [0, 1], _pool.MIN_ROWS)\n"
        "print(json.dumps({'tasks': tasks, 'parent': _pool.blas_threads()}))\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env.pop("OSCILAB_THREADS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["tasks"] == [{"numpy": 1, "scipy": 1}] * 2
    assert out["parent"] == {"numpy": 2, "scipy": 2}
