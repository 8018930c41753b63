"""Shared fixtures and small helpers for the test suite."""

import os

import numpy as np
import pytest

from oscilab import _pool
from oscilab.discretize import build_conjugate_A, build_schrodinger, line_grid
from oscilab.potentials import SimonSeriesSpec


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs in the affinity mask, whatever the host has, so that
    _pool.pool_map runs more than one task in its workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def one_cpu(monkeypatch):
    """One CPU in the affinity mask, so that _pool.pool_map runs its tasks
    in-process, where a test's patches and counters see them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.fixture(autouse=True)
def fresh_pool():
    """Every test leaves no pool behind: the workers keep the module state
    of their fork, so a later test's patches would not reach them."""
    yield
    _pool.shutdown()


@pytest.fixture(autouse=True)
def blas_threads_restored():
    """Every test leaves the BLAS thread counts as it found them, so a scope
    that forgets to restore fails here instead of changing later tests."""
    before = _pool.blas_threads()
    yield
    assert _pool.blas_threads() == before


def line_build(h, V=None):
    """build(L) of H = H0 + V on the symmetric box of half-length L."""
    return lambda L: build_schrodinger(line_grid(L, h), V)


def demo_simon():
    """Three-tail truncated series plus a monotone envelope that bounds it.

    Each tail contributes at most 4 kappa_n / x for x > R_n, so
    |V(x)| (1 + x) <= sum over active tails of 4 kappa_n (1 + x) / x.  The
    envelope table uses (1 + x)/x <= (1 + R_n)/R_n on each band and rounds
    up, so the bound must hold at every grid point.
    """
    spec = SimonSeriesSpec(
        kappas=(1.0, 2.0, 3.0),
        radii=(1.0, 10.0, 100.0),
        phases=(0.0, 0.5, 1.0),
        truncation_count=3,
    )
    envelope_x = (0.0, 1.0, 10.0, 100.0, 1.0e6)
    envelope_values = (8.0, 8.0, 17.0, 30.0, 30.0)
    return spec, envelope_x, envelope_values


def richardson_derivative(fn, x, h):
    """Fourth-order Richardson extrapolation of the central difference."""
    x = np.asarray(x, dtype=float)

    def central(step):
        return (fn(x + step) - fn(x - step)) / (2.0 * step)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def dense(T):
    """The dense matrix J = tridiag(e, d, e) of an OperatorMatrix."""
    return np.diag(T.d) + np.diag(T.e, 1) + np.diag(T.e, -1)


def phase(n):
    """The diagonal of D = diag(i^j), j < n, which carries build_conjugate_A's
    real J to the dilation generator A = D^H J D."""
    return np.power(1j, np.arange(n) % 4)


def dilation(grid):
    """The dilation generator A = D^H J D as a dense complex matrix, J being
    build_conjugate_A's real tridiagonal and D = diag(phase); small grids
    only."""
    ph = phase(grid.n)
    return np.conj(ph)[:, None] * dense(build_conjugate_A(grid)) * ph


def apply_dilation(grid, v):
    """A v = conj(ph) J (ph v) for a vector v, without a dense matrix."""
    ph = phase(grid.n)
    return np.conj(ph) * build_conjugate_A(grid).matvec(ph * v)


def conjugate_A_weight_reference(grid, s):
    """<A>^(-s) as a dense complex matrix, by np.linalg.eigh of the dense
    dilation(grid): a reference that shares no step with the package's
    weight; exactly Hermitian, small grids only."""
    a, U = np.linalg.eigh(dilation(grid))
    mat = (U * (1.0 + a**2) ** (-s / 2.0)) @ U.conj().T
    return 0.5 * (mat + mat.conj().T)
