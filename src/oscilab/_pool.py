"""The process's task pool, and the OpenBLAS thread count.

``pool_map(fn, tasks)`` returns ``[fn(t) for t in tasks]`` in task order.
It runs the tasks in the process's workers when there is more than one
task, more than one CPU in the process's affinity mask, and the caller is
not itself a worker; otherwise it runs them in-process.

* **Lifetime.** The workers are bare ``os.fork`` children, one per CPU of
  the mask, each bound to its CPU and run at one BLAS thread. They are
  forked at the first pooled call, never at import, and every later call
  reuses them. A worker keeps the module state of its fork: a function
  patched after it will not be seen there until ``shutdown`` and the next
  pooled call fork a fresh set. After a worker death, an exception in the
  parent's wait (a ``KeyboardInterrupt``, say) or a change of the mask,
  ``shutdown`` kills and reaps every worker, and the next pooled call forks
  afresh. An ``atexit`` handler reaps them at normal exit; a worker whose
  parent is gone exits at the end of file of its command pipe.
* **Hand-over.** A call pickles ``(fn, tasks)`` once and writes it down
  each worker's command pipe, so ``fn`` must pickle: a module-level function
  or a ``functools.partial`` of one, whose arguments, arrays included, go
  over in the pickle. The parent then writes the task indices, 4 bytes each,
  to one index pipe that the workers share, followed by one stop mark per
  worker. Each worker reads the next index whenever it comes free, so a long
  task does not hold up the short ones behind it. A write of at most
  ``PIPE_BUF`` bytes is atomic, so the pipe only ever holds whole indices and
  each 4-byte read takes one. At its stop mark a worker sends one pickle of
  ``([(index, ok, result or exception)], its peak RSS)`` down a result pipe
  of its own.
* **Failures.** A task's exception is re-raised in the caller; of several,
  the one of the lowest task index. The workers stay. No task starts after
  a failure: the failing worker sets a flag, one byte of a shared anonymous
  ``mmap`` that every worker reads before each task, and a worker that finds
  it set reads its indices on to its stop mark without running them.
  (Draining the index pipe would eat the other workers' stop marks.) A
  worker that dies raises ``concurrent.futures.process.BrokenProcessPool``.

Each worker runs one BLAS thread, so a pooled task does the arithmetic of a
serial one at one BLAS thread, in the same order. OpenBLAS shuts its thread
pool down at a fork and starts it again at the child's next set call,
whose fresh threads spin on the child's CPU for a while (a child ran its
chains 2-2.4 times slower for its first 0.2 s): a worker forked inside
``one_blas_thread`` is at one thread already and makes no set call
(``set_blas_threads``). Each worker is bound to a CPU of its own: left
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

import atexit
import contextlib
import ctypes
import mmap
import os
import pickle
import resource
import select
import signal
import sys

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

# a task index on the index pipe, and the mark that ends a worker's call
_INDEX_BYTES = 4
_STOP = b"\xff" * _INDEX_BYTES

# set in a worker: a pool_map it calls runs in-process
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
    """Set each package's OpenBLAS to its count in counts, where both exist
    and the count differs from the one in effect. A set call in a process
    forked since OpenBLAS last ran its thread pool starts that pool afresh,
    and its fresh threads spin for a while: a forked worker whose count is
    already 1 makes no call, so no thread of its own competes with it."""
    for owner, (getter, setter) in _openblas().items():
        count = counts.get(owner)
        if setter is not None and count and (getter is None or getter() != count):
            setter(int(count))


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


def workers(n_tasks):
    """Processes pool_map runs n_tasks tasks in."""
    if _in_worker:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_tasks))


def worker_peak_rss_mb():
    """The largest peak RSS, in MB, that a worker reported since the last
    call; None when no pooled call ran since."""
    peak, _workers.peak_kb = _workers.peak_kb, None
    return None if peak is None else peak / 1024.0


def _flush_std_streams():
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _send(fh, data):
    """Write data to fh as one message: its length, 8 bytes, then itself."""
    fh.write(len(data).to_bytes(8, "little"))
    fh.write(data)
    fh.flush()


def _receive(fh):
    """The next message on fh; None at end of file, its writer gone."""
    head = fh.read(8)
    if len(head) < 8:
        return None
    size = int.from_bytes(head, "little")
    data = fh.read(size)
    return data if len(data) == size else None


def _worker(command, index_r, result, failed, cpu):
    """A worker's body. For each call's pickle read off command, run the
    tasks whose indices it reads off index_r, up to a stop mark, then send
    ([(index, ok, result or exception)], its peak RSS in KiB) down result as
    one pickle. A task is not started once failed is set; a failed task sets
    it. Returns at the end of file of command or of index_r: the parent has
    shut the pool down or is gone."""
    global _in_worker
    _in_worker = True
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # not a CPU this process may use: stay unbound
        pass
    while (payload := _receive(command)) is not None:
        # a package imported since the last call maps its OpenBLAS in
        set_blas_threads(dict.fromkeys(_PACKAGES, 1))
        job, done = None, []
        while (raw := os.read(index_r, _INDEX_BYTES)) != _STOP:
            if not raw:
                return
            if failed[0]:
                continue
            index = int.from_bytes(raw, "little")
            try:
                if job is None:
                    job = pickle.loads(payload)
                fn, tasks = job
                done.append((index, True, fn(tasks[index])))
            except Exception as exc:
                failed[0] = 1
                done.append((index, False, exc))
        _flush_std_streams()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        _send(result, pickle.dumps((done, peak), pickle.HIGHEST_PROTOCOL))
        # an idle worker holds no call's tasks or results
        del payload, job, done


class _Workers:
    """The process's workers, none until the first pooled call: the
    affinity mask they were forked for, their pids, the parent's ends of
    their command and result pipes (as files), the write end of the index
    pipe they share, and the failure flag."""

    def __init__(self):
        self._clear()
        # the largest peak RSS, in KiB, a worker reported since
        # worker_peak_rss_mb last read it
        self.peak_kb = None

    def _clear(self):
        self.mask, self.pids, self.commands, self.results = None, [], [], []
        self.index_w = self.failed = None

    def fork(self, mask):
        """Fork one worker per CPU of mask. The parent flushes its standard
        streams first, so no worker writes what the parent had buffered."""
        _flush_std_streams()
        index_r, self.index_w = os.pipe()
        self.mask, self.failed = mask, mmap.mmap(-1, 1)
        try:
            for cpu in mask:
                self._fork_one(index_r, cpu)
        except BaseException:
            self.stop()
            raise
        finally:
            os.close(index_r)

    def _fork_one(self, index_r, cpu):
        """Fork a worker bound to cpu. It closes the parent's pipe ends it
        inherited and leaves by os._exit, so it runs no atexit handler and
        flushes no buffer it inherited."""
        command_r, command_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (command_r, command_w, result_r, result_w):
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                failed = self.failed
                for fd in (self.index_w, command_w, result_r):
                    os.close(fd)
                for fh in self.commands + self.results:
                    fh.close()
                # the workers forked before this one are not its to stop
                self._clear()
                with open(command_r, "rb") as command, open(result_w, "wb") as result:
                    _worker(command, index_r, result, failed, cpu)
                code = 0
            finally:
                os._exit(code)
        os.close(command_r)
        os.close(result_w)
        self.pids.append(pid)
        self.commands.append(open(command_w, "wb"))
        self.results.append(open(result_r, "rb"))

    def stop(self):
        """Kill and reap the workers and close the parent's pipe ends. Every
        worker is killed before the first wait, so they exit side by side."""
        for pid in self.pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid in self.pids:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
        for fh in self.commands + self.results:
            with contextlib.suppress(OSError):  # a write its reader never took
                fh.close()
        if self.index_w is not None:
            os.close(self.index_w)
            self.failed.close()
        self._clear()

    def exited(self):
        """Reap the workers that have exited; whether there were any."""
        live = []
        for pid in self.pids:
            with contextlib.suppress(ChildProcessError):
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    live.append(pid)
        gone = len(live) < len(self.pids)
        self.pids[:] = live
        return gone

    def run(self, payload, n_tasks):
        """Hand a call's pickle and n_tasks task indices to the workers; each
        worker's reply, None for one that died."""
        self.failed[0] = 0
        marks = b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in range(n_tasks))
        marks += _STOP * len(self.pids)
        try:
            for fh in self.commands:
                _send(fh, payload)
            # each write whole indices, and atomic
            for start in range(0, len(marks), select.PIPE_BUF):
                os.write(self.index_w, marks[start : start + select.PIPE_BUF])
            return [_receive(fh) for fh in self.results]
        except BrokenPipeError:  # a worker is gone
            return [None]


# the process's workers
_workers = _Workers()


def shutdown():
    """Kill and reap the process's workers; the next pooled call forks a
    fresh set."""
    _workers.stop()


atexit.register(shutdown)


def pool_map(fn, tasks):
    """[fn(t) for t in tasks], in the process's workers when more than one
    process would run them (see module)."""
    tasks = list(tasks)
    mask = tuple(sorted(os.sched_getaffinity(0)))
    if _workers.pids and (_workers.exited() or _workers.mask != mask):
        shutdown()
    if workers(len(tasks)) == 1:
        return [fn(t) for t in tasks]
    payload = pickle.dumps((fn, tasks), pickle.HIGHEST_PROTOCOL)
    if not _workers.pids:
        _workers.fork(mask)
    try:
        replies = _workers.run(payload, len(tasks))
    except BaseException:
        shutdown()
        raise
    if None in replies:
        shutdown()
        from concurrent.futures.process import BrokenProcessPool

        raise BrokenProcessPool("a pool_map worker died before sending its results")
    done = []
    for reply in replies:
        results, peak = pickle.loads(reply)
        done.extend(results)
        _workers.peak_kb = max(_workers.peak_kb or 0, peak)
    done.sort(key=lambda item: item[0])
    for _, ok, value in done:
        if not ok:
            raise value
    return [value for _, _, value in done]
