"""The LAPACK and BLAS binding on numpy's OpenBLAS (oscilab._lapack).

Its routines must give the bits of scipy.linalg's, which are also its
fallback; a CLI run must not import scipy; and no array it refuses may reach
the library.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg  # the fallback, mapped before any test runs

from oscilab import _lapack, _pool
from oscilab.discretize import _rayleigh_ritz, build_schrodinger, line_grid
from oscilab.lap import LapScanSpec, lap_scan
from oscilab.potentials import OscillatingSpec, ShortRangeSample, SumPotential

from conftest import line_build

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _s12_potential():
    """Scenario 12's potential: the oscillation w = 3, k = 2, alpha = beta
    = 1 plus the short-range 0.5 sech^2 sample."""
    x = np.linspace(-8.0, 8.0, 161)
    sample = ShortRangeSample(
        x=tuple(x), values=tuple(0.5 / np.cosh(x) ** 2), rho_sr=2.0
    )
    return SumPotential((OscillatingSpec(w=3.0, k=2.0, alpha=1.0, beta=1.0), sample))


def _s12_hamiltonian(L):
    return build_schrodinger(line_grid(L, 0.1), _s12_potential())


def _native():
    """The routines on numpy's OpenBLAS, bound afresh."""
    cdll = _pool.openblas("numpy")
    try:
        return _lapack._bind(_lapack._Library(cdll))
    except (AttributeError, TypeError):
        pytest.skip("numpy's OpenBLAS does not export the LAPACKE entry points")


@pytest.fixture
def scipy_routines(monkeypatch):
    """_lapack bound to its fallback, scipy.linalg's routines, as where
    numpy's library is hidden; bound to numpy's again afterwards."""
    monkeypatch.setattr(_lapack, "_library", lambda: None)
    _lapack._routines.cache_clear()
    routines = _lapack._routines()
    assert routines.eigh_tridiagonal.__module__.startswith("scipy.")
    yield routines
    monkeypatch.undo()
    _lapack._routines.cache_clear()


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_the_package_binds_numpy_s_openblas():
    # the routines a run of this suite uses are the native ones
    assert not _lapack._routines().eigh_tridiagonal.__module__.startswith("scipy.")


@_pool.one_blas_thread()
def test_tridiagonal_routines_give_scipy_s_bits_on_the_s12_hamiltonian(scipy_routines):
    native = _native()
    H = _s12_hamiltonian(400.0)
    assert H.shape[0] == 7999
    # the LU of H - z and a conjugate-transpose solve, as lap_scan takes them
    z = complex(0.55, 0.01)
    e = np.asarray(H.e, dtype=complex)
    b = np.array([1.0, 1j]) @ np.random.default_rng(0).standard_normal((2, 7999))
    solved = []
    for routines in (native, scipy_routines):
        gttrf, gttrs = routines.get_lapack_funcs(("gttrf", "gttrs"), (e,))
        dl, d, du, du2, ipiv, info = gttrf(np.conj(e), H.d - z, e)
        x, info2 = gttrs(dl, d, du, du2, ipiv, b.copy(), trans="C", overwrite_b=1)
        solved.append((dl, d, du, du2, info, x, info2))
    for mine, theirs in zip(*solved):
        assert _same_bits(mine, theirs)
    # stebz: the eigenvalues in a window
    window = dict(eigvals_only=True, select="v", select_range=(0.2, 0.6), tol=1e-7)
    values = [r.eigh_tridiagonal(H.d, H.e, **window) for r in (native, scipy_routines)]
    assert len(values[0]) == 84 and _same_bits(*values)
    # stevd: every eigenpair, on boxes small enough for dense vectors
    for L in (6.0, 15.0):
        small = _s12_hamiltonian(L)
        pairs = [r.eigh_tridiagonal(small.d, small.e) for r in (native, scipy_routines)]
        assert all(_same_bits(a, b) for a, b in zip(*pairs))


def _random(rng, shape, dtype):
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if dtype is complex else x


@_pool.one_blas_thread()
def test_dense_and_blas_routines_give_scipy_s_bits(scipy_routines):
    native = _native()
    both = (native, scipy_routines)
    rng = np.random.default_rng(2)
    for dtype in (float, complex):
        # a Golub-Kahan-Lanczos run's steps, the basis grown past its rows
        runs = [r.gkl_steps(np.dtype(dtype), 40, 4) for r in both]
        basis = _random(rng, (8, 40), dtype)
        y, u = _random(rng, 40, dtype), _random(rng, 40, dtype)
        for steps in runs:
            steps.basis[:] = basis[:4]
            steps.grow(4)
            steps.basis[4:] = basis[4:]
        assert _same_bits(*(st.right(6, y.copy(), -0.7) for st in runs))
        assert _same_bits(*(st.left(u, y.copy(), -1.3) for st in runs))
        d, e = rng.uniform(1.0, 2.0, 9), rng.uniform(0.1, 1.0, 8)
        tops = [st.top(d, e) for st in runs]
        assert all(_same_bits(x, y) for x, y in zip(*tops))


@pytest.mark.parametrize("k", [2, 4])
@_pool.one_blas_thread()
def test_rayleigh_ritz_gives_the_bits_of_scipy_s_qr(k):
    # numpy's QR is LAPACK's, but C-ordered; the Ritz step must multiply it
    # F-ordered, as scipy's, or its GEMMs round otherwise
    H = _s12_hamiltonian(400.0)
    X = np.random.default_rng(k).standard_normal((k, H.shape[0])).T
    Q = scipy.linalg.qr(X, mode="economic")[0]
    theta, Y = np.linalg.eigh(Q.T @ H.matvec(Q))
    V = np.asfortranarray(Q @ Y)
    want = theta, V, H.matvec(V)
    got = _rayleigh_ritz(H, X.copy(order="F"))
    assert all(_same_bits(a, b) for a, b in zip(got, want))


@_pool.one_blas_thread()
def test_a_scan_gives_the_same_rows_on_the_fallback(scipy_routines, monkeypatch):
    spec = LapScanSpec(interval=(0.5, 1.5), s=0.51, weight_kind="conjugate_A",
                       box_list=(9.9, 19.8))
    build = line_build(0.2, _s12_potential())
    on_scipy = lap_scan(build, spec)
    monkeypatch.undo()
    _lapack._routines.cache_clear()
    assert not _lapack._routines().eigh_tridiagonal.__module__.startswith("scipy.")
    on_numpy = lap_scan(build, spec)
    assert on_numpy.rows == on_scipy.rows
    assert on_numpy.norm_iterations == on_scipy.norm_iterations


class _Recording:
    """A stand-in for numpy's OpenBLAS: it exports every entry point (64-bit
    integers, suffix 64_) and records each call instead of running it."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        if not name.endswith("64_"):
            raise AttributeError(name)
        return self[name]

    def __getitem__(self, name):
        calls = self.calls

        class Entry:
            def __call__(self, *args):
                calls.append(name)
                return 0

        return Entry()


def _bad_calls(routines):
    """{label: call} of routines given an array of the wrong dtype, a
    non-contiguous one, one of the wrong length, or pivots of the wrong
    integer width."""
    n = 12
    z, r = np.ones(n, complex), np.ones(n)
    gttrf, gttrs = routines.get_lapack_funcs(("gttrf", "gttrs"), (z,))
    lu = gttrf(z[:-1].copy(), z.copy(), z[:-1].copy())[:5]
    steps = routines.gkl_steps(np.dtype(float), n, 4)
    return {
        "gttrs-dtype": lambda: gttrs(*lu, r.copy()),
        "gttrs-strides": lambda: gttrs(*lu, np.ones(2 * n, complex)[::2], overwrite_b=1),
        "gttrs-length": lambda: gttrs(*lu, z[:-1].copy()),
        "gttrs-ipiv-width": lambda: gttrs(*lu[:4], lu[4].astype(np.int32), z.copy()),
        "gttrf-length": lambda: gttrf(z.copy(), z.copy(), z[:-1].copy()),
        "stebz-length": lambda: routines.eigh_tridiagonal(
            r, r, eigvals_only=True, select="v", select_range=(0.0, 1.0)
        ),
        "right-dtype": lambda: steps.right(2, z.copy(), 1.0),
        "right-strides": lambda: steps.right(2, np.ones(2 * n)[::2], 1.0),
        "right-length": lambda: steps.right(2, r[:-1].copy(), 1.0),
        "right-rows": lambda: steps.right(5, r.copy(), 1.0),
        "left-strides": lambda: steps.left(r, np.ones(2 * n)[::2], 1.0),
        "left-length": lambda: steps.left(r[:-1].copy(), r.copy(), 1.0),
        "top-dtype": lambda: steps.top(z.copy(), r[:-1].copy()),
        "top-length": lambda: steps.top(r.copy(), r.copy()),
    }


def _bound_to(library):
    return _lapack._bind(_lapack._Library(library))


@pytest.mark.parametrize("label", list(_bad_calls(_bound_to(_Recording()))))
def test_a_refused_array_raises_before_the_library_is_called(label):
    library = _Recording()
    call = _bad_calls(_bound_to(library))[label]
    library.calls.clear()
    with pytest.raises(ValueError):
        call()
    assert library.calls == []


def test_accepted_arrays_reach_the_library():
    library = _Recording()
    routines = _bound_to(library)
    z = np.ones(12, complex)
    gttrf, gttrs = routines.get_lapack_funcs(("gttrf", "gttrs"), (z,))
    lu = gttrf(z[:-1].copy(), z.copy(), z[:-1].copy())[:5]
    gttrs(*lu, z.copy(), trans="C")
    # top copies d and e into the run's own buffers, so an e of any strides
    # is accepted, as scipy's dstev accepts it
    routines.gkl_steps(np.dtype(float), 12, 4).top(np.ones(12), np.ones(22)[::2])
    assert library.calls == [
        "LAPACKE_zgttrf_work64_", "LAPACKE_zgttrs_work64_", "LAPACKE_dstev_work64_"
    ]


# configs, each small, of the CLI routes that reach LAPACK
_CLI_RUNS = {
    "lap-scan-position": ("lap-scan", {
        "interval": [0.5, 1.5], "s": 1.0, "h": 0.4, "re_points": 3,
        "boxes": [20.0, 40.0]}),
    "lap-scan-conjugate-A": ("lap-scan", {
        "interval": [0.5, 1.5], "s": 0.51, "h": 0.2, "weight_kind": "conjugate_A",
        "boxes": [9.9, 19.8]}),
    "phase-diagram": ("phase-diagram", {
        "alphas": [1.0], "betas": [0.75], "k": 2.0, "w": 3.0,
        "windows": {"below": [0.2, 0.6], "above": [1.2, 1.7]}, "h": 0.25,
        "boxes": [60.0, 120.0]}),
    "find-embedded": ("find-embedded", {
        "potential": {"kind": "wvn_1d"}, "window": [0.8, 1.2],
        "boxes": [60.0, 120.0], "h": 0.05}),
    "mourre-weighted": ("mourre-check", {
        "kind": "weighted", "window": [0.5, 1.5], "L": 60.0, "h": 0.05,
        "phi": {"s": 0.6, "R": 4.0}}),
    "probe-smoothed": ("compactness-probe", {
        "mode": "smoothed_multiplier", "L": 100.0, "n": 8192, "p": 1.0,
        "alpha": 2.0, "k": 1.0, "radii": [5.0, 10.0, 20.0]}),
}


def test_cli_runs_load_no_scipy(tmp_path):
    configs = {}
    for name, (command, params) in _CLI_RUNS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "command": command, "params": params,
            "output_dir": str(tmp_path / name),
        }))
        configs[name] = str(path)
    script = (
        "import contextlib, io, json, sys\n"
        "import oscilab.cli\n"
        f"configs = {configs!r}\n"
        "codes = {}\n"
        "for name, path in configs.items():\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes[name] = oscilab.cli.run(path)\n"
        "print(json.dumps({'codes': codes, 'scipy': sorted(\n"
        "    m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))}))\n"
    )
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["codes"] == dict.fromkeys(_CLI_RUNS, 0)
    assert out["scipy"] == []
    manifest = json.loads((tmp_path / "lap-scan-position" / "manifest.json").read_text())
    assert manifest["blas_threads"] == {"numpy": 1, "scipy": None}
