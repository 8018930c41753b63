"""Forked workers for independent scan tasks, and the OpenBLAS thread count.

``pool_map(fn, tasks, rows)`` returns ``[fn(t) for t in tasks]`` in task
order. It forks one worker per CPU of the process's affinity mask, capped at
the task count, when there is more than one such worker, the tasks handle
matrices of at least ``MIN_ROWS`` rows and the caller is not itself a
worker; otherwise it runs the tasks in-process. The workers are bare
``os.fork`` children: ``fn`` and ``tasks`` are inherited, not pickled, so
closures and arrays cost nothing to hand over.

* **Hand-out.** After the forks the parent writes the task indices, 4 bytes
  each, to one index pipe, and closes it. Each worker reads the next index
  whenever it comes free, so a long task does not hold up the short ones
  behind it. A write of 4 bytes is atomic, so the pipe only ever holds
  whole indices and each 4-byte read takes one.
* **Results.** Each worker has a result pipe of its own. Once the index
  pipe is empty it sends one pickle of ``[(index, ok, result or
  exception)]`` down it and leaves by ``os._exit``: it runs no atexit
  handler and does not flush a second time the stdout the parent had
  buffered (the parent flushes before it forks). The parent reads each
  result pipe to its end and reaps each worker with ``waitpid``.
* **Failures.** A task's exception is re-raised in the caller; of several,
  the one of the lowest task index. A worker whose task fails reads the rest
  of the index pipe, so no task starts after a failure. A worker that exits
  non-zero or sends nothing (it died) raises
  ``concurrent.futures.process.BrokenProcessPool``. Any exception in the
  parent while it waits (a ``KeyboardInterrupt``, say) kills and reaps every
  worker before it propagates, so no call leaves a child behind.

Each worker runs one BLAS thread, so a pooled task does the arithmetic of a
serial one at one BLAS thread, in the same order; OpenBLAS quiesces its
thread pool around a fork. Each worker is bound to a CPU of its own: left
to the scheduler, two fresh workers can start on one CPU and share it for
up to half a second before one is moved, so the same pooled phase cell
took 0.9 s on one call and 1.5 s on the next.

numpy and scipy each bundle their own OpenBLAS (under numpy.libs/ and
scipy.libs/). The package's LAPACK and BLAS calls go to numpy's copy
(``_lapack``), so a CLI run, which imports no scipy, maps numpy's alone;
scipy's is mapped only in a process that imports scipy.linalg itself (a
test run, or ``_lapack``'s fallback on a numpy without these entry
points). Each copy mapped in is found among the process's libraries
(``openblas``), once, and read and set through its exported thread-count
symbols; a package not imported yet is not looked for. ``one_blas_thread()``
holds every copy at one thread for its scope, or for the function it
decorates, and then gives each package back its own count. Every CLI run and
every entry point of the block-norm kernel runs in it, so no output depends
on the thread count the environment asks OpenBLAS for.
"""

import contextlib
import ctypes
import os
import pickle
import signal
import sys

# smallest matrix size worth a fork. Medians of five lap_scans (s = 1 on
# the oscillation w sin(2|x|)/|x| with w = 3, interval [0.5, 1.5], h = 0.05,
# boxes L/2 and L: 10 chains), four repeats on a shared two-core Xeon at one
# BLAS thread, pooled against serial: 28-34 against 20-32 ms at n = 200,
# 27-34 against 22-34 ms at n = 480, 32-37 against 32-49 ms at n = 960,
# 40-52 against 46-57 ms at n = 2,000 and 61-67 against 74-99 ms at
# n = 4,000. Pooled loses every repeat at n = 200, is a toss-up at
# n = 480-960, and wins 3 or 4 repeats of 4 from n = 2,000 on, in two runs
# of the table; below that a fork saves too little to count on.
MIN_ROWS = 2000

# an OpenBLAS build may prefix every symbol it exports (scipy-openblas
# does, with "scipy_") and suffix it when built with 64-bit integers ("64_")
_AFFIXES = tuple(
    (prefix, suffix) for prefix in ("", "scipy_") for suffix in ("", "64_")
)

_PACKAGES = ("numpy", "scipy")
# package -> (get, set) thread-count symbols of its OpenBLAS, once found
_found = {}
# package -> its OpenBLAS as a ctypes.CDLL, once found
_libraries = {}

# set in a forked worker: a pool_map it calls runs in-process
_in_worker = False


def _openblas():
    """{package: (get, set)} for each package's OpenBLAS mapped into the
    process (a symbol is None where not exported). A library is opened once;
    a package imported but not mapped in yet is looked for again on the next
    call. A package's OpenBLAS is mapped in only by its own extension
    modules, so one not imported is not looked for: a process without scipy
    reads /proc/self/maps once, not at every call."""
    if all(p in _found or p not in sys.modules for p in _PACKAGES):
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
            _libraries[owner] = lib
    return _found


def openblas(package):
    """package's OpenBLAS mapped into the process, as a ctypes.CDLL; None
    when it is not mapped in."""
    _openblas()
    return _libraries.get(package)


def affixes(lib, stem):
    """The (prefix, suffix) under which lib exports the symbol stem, or None."""
    for prefix, suffix in _AFFIXES:
        if hasattr(lib, f"{prefix}{stem}{suffix}"):
            return prefix, suffix
    return None


def _symbol(lib, verb):
    """lib's exported openblas_{verb}_num_threads, or None."""
    stem = f"openblas_{verb}_num_threads"
    found = affixes(lib, stem)
    if found is None:
        return None
    prefix, suffix = found
    return getattr(lib, f"{prefix}{stem}{suffix}")


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


def _flush_std_streams():
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _serve(fn, tasks, index_r, result_w, cpu):
    """A forked worker's body: run the tasks whose indices it reads off
    index_r, then send [(index, ok, result or exception)] down result_w as
    one pickle. A failed task stops it taking more: it reads the rest of
    the indices off the pipe, so no worker starts them."""
    global _in_worker
    _in_worker = True
    set_blas_threads(dict.fromkeys(_PACKAGES, 1))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # not a CPU this process may use: stay unbound
        pass
    done = []
    while raw := os.read(index_r, 4):
        index = int.from_bytes(raw, "little")
        try:
            done.append((index, True, fn(tasks[index])))
        except Exception as exc:
            done.append((index, False, exc))
            while os.read(index_r, 1 << 16):
                pass
    _flush_std_streams()
    with open(result_w, "wb") as fh:
        fh.write(pickle.dumps(done))


def _fork(fn, tasks, index_fds, cpu, inherited):
    """Fork one worker; returns (pid, its result pipe opened for reading).
    The worker closes the parent's pipe ends it inherited and leaves by
    os._exit, so it runs no atexit handler and flushes no buffer it
    inherited."""
    result_r, result_w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(result_r)
        os.close(result_w)
        raise
    if pid == 0:
        code = 1
        try:
            for fd in (index_fds[1], result_r, *inherited):
                os.close(fd)
            _serve(fn, tasks, index_fds[0], result_w, cpu)
            code = 0
        finally:
            os._exit(code)
    os.close(result_w)
    return pid, open(result_r, "rb")


def pool_map(fn, tasks, rows):
    """[fn(t) for t in tasks], in forked workers when they pay (see module)."""
    tasks = list(tasks)
    count = workers(len(tasks), rows)
    if count == 1:
        return [fn(t) for t in tasks]
    cpus = sorted(os.sched_getaffinity(0))
    _flush_std_streams()
    index_r, index_w = os.pipe()
    children = {}  # pid -> its result pipe, until reaped
    done, broken = [], False
    try:
        for slot in range(count):
            inherited = [fh.fileno() for fh in children.values()]
            pid, fh = _fork(fn, tasks, (index_r, index_w), cpus[slot % len(cpus)],
                            inherited)
            children[pid] = fh
        os.close(index_r)
        index_r = None
        # written after the forks: a pipe holds 16,384 indices, and a write
        # beyond that waits for a reader
        try:
            for index in range(len(tasks)):
                os.write(index_w, index.to_bytes(4, "little"))
        except BrokenPipeError:  # every worker is gone; their status says why
            pass
        os.close(index_w)
        index_w = None
        for pid, fh in list(children.items()):
            with fh:
                data = fh.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if status != 0 or not data:
                broken = True
            else:
                done.extend(pickle.loads(data))
    except BaseException:
        for pid, fh in children.items():
            fh.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        raise
    finally:
        for fd in (index_r, index_w):
            if fd is not None:
                os.close(fd)
    if broken:
        from concurrent.futures.process import BrokenProcessPool

        raise BrokenProcessPool("a pool_map worker died before sending its results")
    done.sort(key=lambda item: item[0])
    for _, ok, value in done:
        if not ok:
            raise value
    return [value for _, _, value in done]
