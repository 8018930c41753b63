"""Tests for the Golub-Kahan-Lanczos norm kernel on dense operators."""

import numpy as np
import pytest

from oscilab import _blocknorm
from oscilab.errors import ComputeFailure

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


@pytest.mark.parametrize("k", range(1, 41))
def test_top_triplet_matches_the_svd_of_the_bidiagonal(k):
    rng = np.random.default_rng(k)
    alphas, betas = rng.uniform(0.1, 2.0, k), rng.uniform(0.1, 2.0, k - 1)
    B = np.diag(alphas) + np.diag(betas, 1)
    P, s, Qh = np.linalg.svd(B)
    sigma, p, q = _blocknorm._top_triplet(alphas, betas)
    assert sigma == pytest.approx(s[0], rel=1e-14)
    # the stopping rule reads |p_k|; q is the top right singular vector
    assert abs(p[-1]) == pytest.approx(abs(P[-1, 0]), abs=1e-10)
    assert abs(q @ Qh[0]) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("dtype", [float, complex])
def test_a_run_past_the_initial_basis_rows_finds_the_top_singular_value(
    dtype, monkeypatch
):
    A = _dense(dtype)
    want = _norm(A, _start(dtype))
    monkeypatch.setattr(_blocknorm, "_BASIS_ROWS", 2)
    norm, steps, converged, x, _ = _norm(A, _start(dtype))
    # the basis doubled at least twice: 2 -> 4 -> 8 rows
    assert converged and steps > 4
    assert norm == pytest.approx(np.linalg.svd(A, compute_uv=False)[0], rel=1e-9)
    # the same run as with the default rows, to rounding
    assert steps == want[1] and norm == pytest.approx(want[0], rel=1e-14)
    assert np.allclose(x, want[3], rtol=0, atol=1e-12)


def test_a_failed_bidiagonal_eigensolve_raises(monkeypatch):
    # the run's dstev (its steps' top) reports a failure
    make_steps = _blocknorm.gkl_steps

    def failing_steps(*args):
        steps = make_steps(*args)
        steps.top = lambda d, e: (d[-1], np.ones(len(d)), 1)
        return steps

    monkeypatch.setattr(_blocknorm, "gkl_steps", failing_steps)
    with pytest.raises(ComputeFailure) as err:
        _norm(_dense(float), _start(float))
    assert err.value.invariant == "norm-bidiagonal"


def _operator_with_a_gap(dtype, seed):
    """U diag(s) V^H with random unitary U and V, a top singular value of 2
    and the rest in [0, 1)."""
    rng = np.random.default_rng(seed)

    def unitary():
        G = rng.standard_normal((N, N))
        if dtype == complex:
            G = G + 1j * rng.standard_normal((N, N))
        return np.linalg.qr(G)[0]

    s = rng.uniform(0.0, 1.0, N)
    s[0] = 2.0
    return (unitary() * s) @ unitary().conj().T


@pytest.mark.parametrize("rows", [_blocknorm._BASIS_ROWS, 2])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dtype", [float, complex])
def test_random_operators_give_the_top_singular_value_of_the_svd(
    dtype, seed, rows, monkeypatch
):
    # the in-place BLAS step on real and complex vectors; at 2 basis rows
    # the run goes past them and the basis grows
    monkeypatch.setattr(_blocknorm, "_BASIS_ROWS", rows)
    A = _operator_with_a_gap(dtype, seed)
    norm, steps, converged, x, _ = _norm(A, _start(dtype), tol=1e-16)
    assert converged and steps > 2
    assert x.dtype == np.dtype(dtype)
    assert norm == pytest.approx(np.linalg.svd(A, compute_uv=False)[0], rel=1e-12)
