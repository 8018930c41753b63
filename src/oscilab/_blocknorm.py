"""Block subspace iteration for the largest eigenvalue of a PSD operator M^H M.

The one iterative-norm kernel of the package: the LAP resolvent norms and
the periodic compactness probe both call it with their own apply of M^H M.

Stopping rule: the residual of the top Ritz pair. With X orthonormal and
Z = M^H M X, the Rayleigh quotient R = X^H Z = (M X)^H (M X) has the top
eigenpair (theta, y), and ||Z y - theta X y||^2 = y^H (Z^H Z) y - theta^2
needs only k x k matrices. The apply forms R itself, as the Gram matrix of
its half-way block M X, so X may be overwritten and no copy of it is kept.
The iteration stops once that relative residual is at most sqrt(tol). An
eigenvalue then lies within sqrt(tol) * theta of theta; when it is the top
one, it lies within tol * theta^2 / gap of theta, where gap separates theta
from the rest of the spectrum (Kato-Temple; Saad, Numerical Methods for
Large Eigenvalue Problems, SIAM 2011). That it is the top one rests on the
start block having a component along the top direction: a random block has
one; a warm start inherits the previous block's (the compactness probe
swaps in a random column for that reason). The returned estimate ||Z||_2
lies between theta and the top eigenvalue.

Callers go through the module (``_blocknorm._subspace_norm_sq``) rather than
importing the names, so the span tracer of ``perfbench/spans.py``, which
wraps names imported across modules, keeps booking the kernel's BLAS and
LAPACK calls under the calling module (``lap.qr``, ``spectral.norm2``).
"""

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .errors import ComputeFailure

# BLAS/LAPACK kernels of the block iteration, bound once for complex blocks
_gemm, _herk, _trsm = get_blas_funcs(("gemm", "herk", "trsm"), dtype=complex)
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

# rows per slice when the converged block is rotated in place
_ROTATE_ROWS = 4096


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


def _random_block(n, k, rng):
    """Complex Gaussian n x k block, Fortran-ordered, filled part by part
    (no complex temporaries beside the block)."""
    X = np.empty((n, k), dtype=complex, order="F")
    X.real = rng.standard_normal((n, k))
    X.imag = rng.standard_normal((n, k))
    return X


def _ritz_pairs(R, G_full):
    """Ritz pairs of the block and the squared residual of the top one.

    R is the Rayleigh quotient X^H M^H M X (upper triangle read) and G_full
    the Gram matrix Z^H Z. Returns (theta, ||Z y - theta X y||^2, Y): theta
    and y are R's top eigenpair, the residual is y^H G y - theta^2, and Y
    holds all of R's eigenvectors, the top one first.
    """
    w, v = np.linalg.eigh(R, UPLO="U")
    theta, y = float(w[-1]), v[:, -1]
    return theta, float((y.conj() @ G_full @ y).real) - theta * theta, v[:, ::-1]


def _subspace_norm_sq(apply_mhm, n, block=5, tol=1e-12, max_iters=600, seed=0, X=None):
    """Largest eigenvalue of the PSD operator M^H M by block subspace iteration.

    apply_mhm(X) returns (Z, R): Z = M^H M X, in either order, and the
    Rayleigh quotient R = (M X)^H (M X), of which only the upper triangle
    is read. It may overwrite X. Each step applies it to the orthonormal
    block X, reads the estimate lam = ||Z||_2 off the Gram matrix Z^H Z
    (its 2-norm is ||Z||_2^2), and re-orthonormalises Z by CholeskyQR2. It
    stops at the first step whose top Ritz pair has
    y^H Z^H Z y - theta^2 <= tol * theta^2, i.e. a relative residual
    r = ||Z y - theta X y|| / theta <= sqrt(tol).

    A start block X (orthonormal columns) is taken over: the kernel may
    overwrite it. Without one, the start block is random under the seed.
    Returns (lam, iterations, converged, X, r). X is the last orthonormal
    block, so callers can warm-start the next spectral parameter from it;
    once converged, its columns follow the Ritz vectors, the top one first.
    converged is False when max_iters ran out before the residual fell to
    sqrt(tol); lam is then the last estimate, not a converged value, and r
    says how far it was.
    """
    if X is None:
        X, _ = np.linalg.qr(_random_block(n, block, np.random.default_rng(seed)))
    X = np.asfortranarray(X, dtype=complex)
    lam, rel = 0.0, np.inf
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        Z, R = apply_mhm(X)
        Z = np.asfortranarray(Z)
        G = _gram(Z)
        G_full = np.triu(G) + np.triu(G, 1).conj().T
        lam = float(np.sqrt(np.linalg.norm(G_full, 2)))
        theta, res_sq, Y = _ritz_pairs(R, G_full)
        converged = res_sq <= tol * theta * theta
        rel = float(np.sqrt(max(res_sq, 0.0)) / max(theta, np.finfo(float).tiny))
        if converged:
            # the same span, ordered: Z's images of the Ritz vectors, top
            # first; rotated in place, a few thousand rows at a time, so
            # that no second n x k block is allocated
            for i in range(0, n, _ROTATE_ROWS):
                Z[i : i + _ROTATE_ROWS] = _gemm(1.0, Z[i : i + _ROTATE_ROWS], Y)
            G = np.asfortranarray(Y.conj().T @ G_full @ Y)
        X = _orthonormalise(Z, G)
        X[np.abs(X) < _TAIL_FLOOR] = _TAIL_FLOOR
        if converged:
            break
    return lam, it, converged, X, rel


def _require_converged(iterations, converged, where):
    if not converged:
        raise ComputeFailure(
            "norm-convergence",
            f"block iteration for the norm {where} did not converge "
            f"in {iterations} iterations",
        )
