"""Block subspace iteration for the largest eigenvalue of a PSD operator M^H M.

The one iterative-norm kernel of the package: the LAP resolvent norms and
the periodic compactness probe both call it with their own apply of M^H M.
Callers go through the module (``_blocknorm._subspace_norm_sq``) rather than
importing the names, so the span tracer of ``perfbench/spans.py``, which
wraps names imported across modules, keeps booking the kernel's BLAS and
LAPACK calls under the calling module (``lap.qr``, ``spectral.norm2``).
"""

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .errors import ComputeFailure

# BLAS/LAPACK kernels of the block iteration, bound once for complex blocks
_herk, _trsm = get_blas_funcs(("herk", "trsm"), dtype=complex)
(_potrf,) = get_lapack_funcs(("potrf",), dtype=complex)

# entries of the unit-column block below this are raised to it. Repeated
# applies of a decaying resolvent push the block's far tail toward zero; a
# tail in the subnormal range (< 2.2e-308) makes every later solve and Gram
# product several times slower. Far below double precision's resolution, the
# floor keeps the tail and its Gram products normal without moving a norm.
_TAIL_FLOOR = 1e-100

# largest entry of |X^H X - I| after one CholeskyQR pass that still lets the
# second pass restore orthonormality (for 5 columns, ||X^H X - I||_2 <= 1/2)
_CHOLQR_DRIFT = 0.1


def _gram(Z):
    """Z^H Z by herk; only the upper triangle is filled."""
    return _herk(1.0, Z, trans=2)


def _orthonormalise(Z, G):
    """Orthonormal basis of range(Z) by CholeskyQR2, overwriting Z.

    G is the upper triangle of Z^H Z. Each pass factors the Gram matrix as
    R^H R and solves Z <- Z R^{-1}; the second pass removes the loss of
    orthogonality of the first (Fukaya et al., ScalA 2014). When a Cholesky
    factor breaks down, or the first pass leaves the block too far from
    orthonormal for the second to repair (Z close to rank deficient),
    Householder QR takes over for this block.
    """
    k = Z.shape[1]
    for first in (True, False):
        R, info = _potrf(G, lower=0, clean=1, overwrite_a=1)
        if info != 0:
            break
        Z = _trsm(1.0, R, Z, side=1, lower=0, overwrite_b=1)
        if not first:
            return Z
        G = _gram(Z)
        if np.max(np.abs(np.triu(G) - np.eye(k))) > _CHOLQR_DRIFT:
            break
    return np.asfortranarray(np.linalg.qr(Z)[0])


def _subspace_norm_sq(apply_mhm, n, block=5, tol=1e-12, max_iters=600, seed=0, X=None):
    """Largest eigenvalue of the PSD operator M^H M by block subspace iteration.

    Each step applies M^H M to the orthonormal block X, reads the estimate
    lam = ||Z||_2 off the Gram matrix Z^H Z (its 2-norm is ||Z||_2^2) and
    re-orthonormalises Z by CholeskyQR2. The block lives in one private
    Fortran-ordered array: apply_mhm may overwrite its argument and may
    return a block in either order.

    Returns (lam, iterations, converged, X). X is the last orthonormal block,
    so callers can warm-start the next spectral parameter from it. converged
    is False when max_iters ran out before the stopping rule held; lam is
    then the last estimate, not a converged value.
    """
    if X is None:
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, block)) + 1j * rng.standard_normal((n, block))
        X, _ = np.linalg.qr(X)
    X = np.array(X, dtype=complex, order="F")
    lam = prev = 0.0
    settled = converged = False
    it = 0
    for it in range(1, max_iters + 1):
        Z = np.asfortranarray(apply_mhm(X))
        G = _gram(Z)
        G_full = np.triu(G) + np.triu(G, 1).conj().T
        lam = float(np.sqrt(np.linalg.norm(G_full, 2)))
        X = _orthonormalise(Z, G)
        X[np.abs(X) < _TAIL_FLOOR] = _TAIL_FLOOR
        small = abs(lam - prev) <= tol * max(lam, 1e-300)
        if it > 4 and small and settled:
            converged = True
            break
        settled = small
        prev = lam
    return lam, it, converged, X


def _require_converged(iterations, converged, where):
    if not converged:
        raise ComputeFailure(
            "norm-convergence",
            f"block iteration for the norm {where} did not converge "
            f"in {iterations} iterations",
        )
