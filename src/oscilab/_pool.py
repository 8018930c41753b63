"""Forked workers for independent scan tasks, and the OpenBLAS thread count.

``pool_map(fn, tasks, rows)`` returns ``[fn(t) for t in tasks]`` in task
order. It forks one worker per CPU of the process's affinity mask, capped at
the task count, when there is more than one such worker, the tasks handle
matrices of at least ``MIN_ROWS`` rows and the caller is not itself a
worker; otherwise it runs the tasks in-process. Under the fork start method
``fn`` and ``tasks`` are inherited, not pickled, so closures and arrays cost
nothing to hand over: only task indices and results cross the pipe. The
executor forks every worker before it starts its own threads, and
OpenBLAS quiesces its thread pool around a fork. Each worker runs one BLAS
thread, so a pooled task does the arithmetic of a serial one at one BLAS
thread, in the same order. Each worker is bound to a CPU of its own: left
to the scheduler, two fresh workers can start on one CPU and share it for
up to half a second before one is moved, so the same pooled phase cell
took 0.9 s on one call and 1.5 s on the next. A worker that dies breaks
the pool (BrokenProcessPool) instead of hanging it, and an exception a
task raises is re-raised in the caller.

numpy and scipy each bundle their own OpenBLAS (under numpy.libs/ and
scipy.libs/). Both copies are found among the libraries mapped into the
process and are read and set through their exported thread-count symbols.
``one_blas_thread()`` holds both at one thread for its scope, or for the
function it decorates, and then gives each package back its own count. Every
CLI run and every entry point of the block-norm kernel runs in it, so no
output depends on the thread count the environment asks OpenBLAS for.
"""

import contextlib
import ctypes
import os

# smallest matrix size worth a fork. Medians of five lap_scans (s = 1 on
# the oscillation w sin(2|x|)/|x| with w = 3, interval [0.5, 1.5], h = 0.05,
# boxes L/2 and L: 10 chains), four repeats on a shared two-core Xeon at one
# BLAS thread, pooled against serial: 125-189 against 116-144 ms at
# n = 200, 112-205 against 121-154 ms at n = 480, 139-237 against
# 174-219 ms at n = 960, 186-261 against 280-322 ms at n = 2,000 and
# 293-373 against 433-637 ms at n = 4,000. Pooled wins every repeat from
# n = 2,000 on; below it the fork can cost more than it saves.
MIN_ROWS = 2000

# the thread-count symbols an OpenBLAS build may export, by symbol prefix
_SYMBOLS = {
    verb: tuple(
        f"{prefix}openblas_{verb}_num_threads{suffix}"
        for prefix in ("", "scipy_")
        for suffix in ("", "64_")
    )
    for verb in ("get", "set")
}

_PACKAGES = ("numpy", "scipy")
# package -> (get, set) thread-count symbols of its OpenBLAS, once found
_found = {}

# set in a forked worker: a pool_map it calls runs in-process
_in_worker = False
_fn = _tasks = None


def _openblas():
    """{package: (get, set)} for each package's OpenBLAS mapped into the
    process (a symbol is None where not exported). A library is opened once;
    a package not mapped in yet is looked for again on the next call."""
    if len(_found) == len(_PACKAGES):
        return _found
    try:
        with open("/proc/self/maps") as fh:
            maps = [line.split(None, 5) for line in fh]
    except OSError:
        return _found
    paths = {m[5].strip() for m in maps if len(m) == 6 and "openblas" in m[5]}
    for path in sorted(paths):
        owner = os.path.basename(os.path.dirname(path)).removesuffix(".libs")
        if owner in _PACKAGES and owner not in _found:
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            _found[owner] = (_symbol(lib, "get"), _symbol(lib, "set"))
    return _found


def _symbol(lib, verb):
    """lib's exported openblas_{verb}_num_threads, or None."""
    for name in _SYMBOLS[verb]:
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


def blas_threads():
    """BLAS threads in effect per package; None where the count is unreadable."""
    counts = dict.fromkeys(_PACKAGES)
    for owner, (getter, _) in _openblas().items():
        counts[owner] = None if getter is None else int(getter())
    return counts


def set_blas_threads(counts):
    """Set each package's OpenBLAS to its count in counts, where both exist."""
    for owner, (_, setter) in _openblas().items():
        if setter is not None and counts.get(owner):
            setter(int(counts[owner]))


@contextlib.contextmanager
def one_blas_thread():
    """Every bundled OpenBLAS at one thread inside the scope, each package's
    own count back on exit; also a function decorator."""
    before = blas_threads()
    set_blas_threads(dict.fromkeys(_PACKAGES, 1))
    try:
        yield
    finally:
        set_blas_threads(before)


def workers(n_tasks, rows):
    """Processes pool_map runs n_tasks tasks of rows-row matrices in."""
    if _in_worker or rows < MIN_ROWS:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_tasks))


def _start_worker(fn, tasks, cpus, started):
    global _in_worker, _fn, _tasks
    _in_worker, _fn, _tasks = True, fn, tasks
    set_blas_threads(dict.fromkeys(_PACKAGES, 1))
    with started.get_lock():
        slot = started.value
        started.value += 1
    try:
        os.sched_setaffinity(0, {cpus[slot % len(cpus)]})
    except OSError:  # not a CPU this process may use: stay unbound
        pass


def _run(index):
    return _fn(_tasks[index])


def pool_map(fn, tasks, rows):
    """[fn(t) for t in tasks], in forked workers when they pay (see module)."""
    tasks = list(tasks)
    count = workers(len(tasks), rows)
    if count == 1:
        return [fn(t) for t in tasks]
    # imported here: they add about 35 ms to every start, pooled or not
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(
        count,
        mp_context=context,
        initializer=_start_worker,
        initargs=(fn, tasks, sorted(os.sched_getaffinity(0)), context.Value("i", 0)),
    )
    try:
        futures = [pool.submit(_run, i) for i in range(len(tasks))]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)
