"""Tests for the Golub-Kahan-Lanczos norm kernel on dense operators."""

import numpy as np
import pytest

from oscilab import _blocknorm

N = 60


def _dense(dtype):
    """A non-normal n x n matrix of the given dtype."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((N, N))
    if dtype == complex:
        A = A + 1j * rng.standard_normal((N, N))
    return A


def _norm(A, x0, **kwargs):
    return _blocknorm._gkl_norm(lambda v: A @ v, lambda u: A.conj().T @ u, x0, **kwargs)


def _start(dtype, scale=1.0):
    x0 = np.random.default_rng(1).standard_normal(N).astype(dtype)
    return scale * x0 / np.linalg.norm(x0)


@pytest.mark.parametrize("dtype", [float, complex])
def test_kernel_finds_the_top_singular_value(dtype):
    A = _dense(dtype)
    want = np.linalg.svd(A, compute_uv=False)[0]
    norm, steps, converged, x, residual = _norm(A, _start(dtype))
    assert converged and residual <= 1e-6
    assert norm == pytest.approx(want, rel=1e-9)
    # x is the unit top right Ritz vector, in the start vector's dtype
    assert x.dtype == np.dtype(dtype)
    assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(A @ x) == pytest.approx(want, rel=1e-9)
    # an unnormalised start vector gives the same norm
    assert _norm(A, _start(dtype, 7.0))[0] == pytest.approx(norm, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-170, 1e170])
@pytest.mark.parametrize("dtype", [float, complex])
def test_start_vector_outside_the_squared_range_gives_the_same_norm(dtype, scale):
    # the entries' squares underflow or overflow; the start is still scaled
    A = _dense(dtype)
    want = _norm(A, _start(dtype))[0]
    assert _norm(A, _start(dtype, scale))[0] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("dtype", [float, complex])
def test_zero_operator_returns_zero_after_one_step(dtype):
    norm, steps, converged, _, residual = _norm(np.zeros((N, N), dtype), _start(dtype))
    assert (norm, steps, converged, residual) == (0.0, 1, True, 0.0)


@pytest.mark.parametrize("dtype", [float, complex])
def test_step_cap_is_reported(dtype):
    _, steps, converged, _, residual = _norm(_dense(dtype), _start(dtype), max_steps=2)
    assert (steps, converged) == (2, False)
    assert residual > 1e-6
