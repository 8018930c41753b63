"""Shared fixtures and small helpers for the test suite."""

import os

import numpy as np
import pytest

from oscilab import _pool
from oscilab.potentials import SimonSeriesSpec


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs in the affinity mask, whatever the host has, so that
    _pool.pool_map forks for tasks of at least _pool.MIN_ROWS rows."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture(autouse=True)
def blas_threads_restored():
    """Every test leaves the BLAS thread counts as it found them, so a scope
    that forgets to restore fails here instead of changing later tests."""
    before = _pool.blas_threads()
    yield
    assert _pool.blas_threads() == before


def counting_qr(monkeypatch):
    """Record the shape of every np.linalg.qr call; returns the list."""
    calls = []
    qr = np.linalg.qr

    def counted(A, *args, **kwargs):
        calls.append(A.shape)
        return qr(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


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
