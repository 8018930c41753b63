"""Span tracer that times oscilab's module boundaries from the outside.

``Tracer.install()`` replaces module attributes with timing wrappers:

* every function a module imports from another oscilab module
  (``oscilab.lap.eig_window``, ``oscilab.cli.lap_scan``, ...), named after
  the module that defines it (``discretize.eig_window``);
* every public function called inside its own module
  (``oscilab.lap.weighted_resolvent_norm``, ``oscilab.lap.lap_scan``);
* the numeric kernels: ``numpy.linalg.qr``/``norm``, ``numpy.fft.fft``/
  ``ifft``, ``eigh_tridiagonal`` and ``eigh`` as bound in each module, and
  the ``gttrf``/``gttrs`` that ``oscilab.lap.get_lapack_funcs`` returns.
  A kernel span is named after the module of the span that encloses it
  (``lap.qr``, ``spectral.qr``).

``uninstall()`` restores every original. Spans are kept in memory as
(name, start, end, parent, op) and aggregated after the run.
"""

import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("cli", "lap", "spectral", "discretize", "potentials", "construct", "_smooth")


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for a in obj if isinstance(a, np.ndarray)]
    return []


def bytes_computed(args, kwargs, result):
    """Bytes of every array argument read plus every array returned."""
    arrays = _arrays(list(args) + list(kwargs.values())) + _arrays(result)
    return sum(a.nbytes for a in arrays)


def _norm_label(args, kwargs):
    order = kwargs.get("ord", args[1] if len(args) > 1 else None)
    return "norm2" if order == 2 else "norm"


class Tracer:
    """In-memory span recorder with attribute patching."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1, op]
        self.counters = {}
        self.op = None
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def exit(self, idx):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def module(self):
        """Module of the innermost open span ("harness" outside any span)."""
        if not self._stack:
            return "harness"
        return self.spans[self._stack[-1]][0].split(".", 1)[0]

    # -- wrappers ------------------------------------------------------------

    def call(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def kernel(self, label, fn):
        """Wrap a kernel; label is a name or a function of (args, kwargs)."""

        def wrapper(*args, **kwargs):
            kname = label(args, kwargs) if callable(label) else label
            name = f"{self.module()}.{kname}"
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            self.count(name + ".bytes_computed", bytes_computed(args, kwargs, result))
            if kname == "eigh_tridiagonal" and isinstance(result, tuple):
                self.count(name + ".vec_bytes", result[1].nbytes)
            return result

        return wrapper

    def _lapack(self, get_lapack_funcs):
        @functools.wraps(get_lapack_funcs)
        def wrapper(names, *args, **kwargs):
            funcs = get_lapack_funcs(names, *args, **kwargs)
            if isinstance(names, str):
                return self.kernel(names, funcs)
            return tuple(self.kernel(n, f) for n, f in zip(names, funcs))

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"oscilab.{m}") for m in MODULES}
        for mod in mods.values():
            public = set(getattr(mod, "__all__", ()))
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if home.startswith("oscilab.") and (home != mod.__name__ or attr in public):
                    name = f"{home.rsplit('.', 1)[1]}.{obj.__name__}"
                    self._patch(mod, attr, self.call(name, obj, AFTER.get(name)))
            for attr, label in (("eigh_tridiagonal", "eigh_tridiagonal"), ("eigh", "eigh_dense")):
                if hasattr(mod, attr):
                    self._patch(mod, attr, self.kernel(label, getattr(mod, attr)))
        self._patch(mods["lap"], "get_lapack_funcs", self._lapack(mods["lap"].get_lapack_funcs))
        self._patch(np.linalg, "qr", self.kernel("qr", np.linalg.qr))
        self._patch(np.linalg, "norm", self.kernel(_norm_label, np.linalg.norm))
        self._patch(np.fft, "fft", self.kernel("fft", np.fft.fft))
        self._patch(np.fft, "ifft", self.kernel("fft", np.fft.ifft))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _count_rows(tracer, result):
    tracer.count("lap.norm_evals", len(result.rows))


def _count_radii(tracer, result):
    tracer.count("spectral.corner_evals", len(result.radii))


# counters taken from a span's return value at its boundary
AFTER = {
    "lap.lap_scan": _count_rows,
    "spectral.oscillation_compactness_probe": _count_radii,
}


# -- aggregation ------------------------------------------------------------


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def aggregate(spans):
    """{name: (self seconds, calls)} summed over all spans."""
    out = {}
    for span, self_s in zip(spans, self_times(spans)):
        total, calls = out.get(span[0], (0.0, 0))
        out[span[0]] = (total + self_s, calls + 1)
    return out


def covered_time(spans, root_name="cli.run"):
    """Time inside the direct children of every root span named root_name."""
    roots = {i for i, s in enumerate(spans) if s[3] == -1 and s[0] == root_name}
    return sum(end - start for _, start, end, parent, _ in spans if parent in roots)
