"""Tests for the block subspace iteration on real blocks."""

import numpy as np
import pytest

from conftest import counting_qr
from oscilab import _blocknorm

N = 60


def _gram_apply(A):
    """The apply of the real PSD operator A^T A, with its Rayleigh quotient,
    as _subspace_norm_sq takes it."""

    def apply_mhm(V):
        U = A @ V
        return A.T @ U, U.T @ U

    return apply_mhm


def test_real_block_finds_the_top_eigenvalue():
    A = np.random.default_rng(0).standard_normal((N, N))
    start = np.linalg.qr(np.random.default_rng(1).standard_normal((N, 5)))[0]
    lam, _, converged, X, residual = _blocknorm._subspace_norm_sq(
        _gram_apply(A), N, X=start
    )
    assert converged and residual <= 1e-6
    assert lam == pytest.approx(np.linalg.eigvalsh(A.T @ A)[-1], rel=1e-9)
    # the block stays real, and orthonormal
    assert X.dtype == np.float64
    assert np.allclose(X.T @ X, np.eye(5), atol=1e-13)


def test_real_singular_gram_falls_back_to_householder(monkeypatch):
    rng = np.random.default_rng(1)
    A = rng.standard_normal((N, N))
    # A maps e_1..e_4 to zero; the start block is e_1..e_4 beside a unit
    # column orthogonal to them. It is orthonormal, as the kernel requires,
    # and the Gram matrix of its image has rank 1
    A[:, 1:5] = 0.0
    col = rng.standard_normal(N)
    col[1:5] = 0.0
    X = np.eye(N, 5, order="F")
    X[:, 0] = col / np.linalg.norm(col)
    qr_calls = counting_qr(monkeypatch)
    lam, _, converged, X, _ = _blocknorm._subspace_norm_sq(_gram_apply(A), N, X=X)
    assert qr_calls
    assert converged
    assert X.dtype == np.float64
    assert lam == pytest.approx(np.linalg.eigvalsh(A.T @ A)[-1], rel=1e-9)
