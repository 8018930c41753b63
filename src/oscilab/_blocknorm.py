"""Golub-Kahan-Lanczos bidiagonalisation for the largest singular value of M.

The one iterative-norm kernel of the package: the LAP resolvent norms and
the periodic compactness probe both call it with their own applies of M and
M^H, the former on complex vectors, the latter on real ones.

From a unit start vector v_1, step k applies M once and M^H once:
alpha_k u_k = M v_k - beta_{k-1} u_{k-1} and
beta_k v_{k+1} = M^H u_k - alpha_k v_k (Golub & Kahan, SIAM J. Numer. Anal.
B 2, 1965). Then M V_k = U_k B_k with B_k upper bidiagonal (alpha on the
diagonal, beta above it). Only the right vectors are reorthogonalised: each
new one by classical Gram-Schmidt, run twice, against the right basis built
so far, which grows by one vector a step. Reorthogonalising one side keeps
the computed singular values accurate (Simon & Zha, SIAM J. Sci. Comput.
21, 2000), and it keeps one vector a step where both sides would keep two.
The basis V_k is the first k rows of one array, so a Gram-Schmidt pass is
two matrix-vector products, c = conj(V_k) r and r -= V_k^T c.

A step works in place through BLAS, since at the sizes of a LAP scan its
vector passes are memory-bound: the two Gram-Schmidt products are GEMVs on
V_k^T (the first k rows, read as an F-ordered n x k matrix, no copy), the
second of them updating r where it lies, and r -= alpha v and
u = M v - beta u are AXPYs. _lapack.gkl_steps makes these calls, and the
bidiagonal's dstev, on buffers it holds for the run. A vector is scaled by
the reciprocal of its norm: a complex vector divided by a real scalar goes
through complex division, about six times the cost of the multiply at
n = 8,000.

Stopping rule: with (sigma, p, q) the top singular triplet of B_k and
x = V_k q, M^H M x - sigma^2 x = sigma beta_k p_k v_{k+1}. The triplet is
read off the k x k tridiagonal B_k B_k^T: sigma^2 and p are its top
eigenpair and q = B_k^T p / sigma. So the relative
M^H M residual of the top Ritz pair is beta_k |p_k| / sigma, read off the
k x k bidiagonal alone, and the kernel stops once it is at most sqrt(tol).
sigma^2 then lies within sqrt(tol) sigma^2 of an eigenvalue of M^H M; when
it is the top one, within tol sigma^4 / gap (Kato-Temple; Saad, Numerical
Methods for Large Eigenvalue Problems, SIAM 2011). That it is the top one
rests on the start vector having a component along the top direction: a
random vector has one; a warm start inherits the previous top's, and the
compactness probe mixes in a little of a random vector for the rest.
"""

import numpy as np

from ._lapack import gkl_steps
from .errors import ComputeFailure

# rows of the right basis allocated before the first step; a run that takes
# more steps doubles the array
_BASIS_ROWS = 16


def _top_pair(alphas, diag, off, top):
    """B_k's top singular value sigma and left singular vector p, from its
    diagonal alphas and B_k B_k^T's diagonal alpha_i^2 + beta_i^2
    (beta_k = 0) and off-diagonal beta_i alpha_{i+1}: sigma^2 and p are
    their top eigenpair, from top(diag, off), dstev's eigenpair and info
    (_lapack._Steps.top); at k = 1, sigma = alpha_1 and p = (1). Squaring
    costs B_k's small singular values their accuracy, not the top one:
    sigma^2 is accurate to about eps sigma^2, sigma to eps / 2 relative."""
    if len(alphas) == 1:
        return float(alphas[0]), np.ones(1)
    top_value, p, info = top(diag, off)
    if info != 0:
        raise ComputeFailure(
            "norm-bidiagonal",
            f"dstev on the {len(alphas)} x {len(alphas)} Golub-Kahan-Lanczos "
            f"tridiagonal failed (info={info})",
        )
    return float(np.sqrt(top_value)), p


def _right_vector(alphas, betas, sigma, p):
    """q = B_k^T p / sigma, B_k's top right singular vector, from betas,
    its superdiagonal, and _top_pair's sigma and p; (1) at k = 1."""
    if len(alphas) == 1:
        return np.ones(1)
    q = alphas * p
    q[1:] += betas * p[:-1]
    q /= sigma
    return q


def _norm(x):
    """np.linalg.norm(x) of a vector x, by the same arithmetic (the square
    root of the dot products of its real and imaginary parts) without the
    argument handling around it."""
    if np.iscomplexobj(x):
        re, im = x.real, x.imag
        return np.sqrt(re.dot(re) + im.dot(im))
    return np.sqrt(x.dot(x))


def _gkl_norm(apply_m, apply_mh, x0, tol=1e-12, max_steps=600):
    """Largest singular value of M by Golub-Kahan-Lanczos bidiagonalisation.

    apply_m(v) and apply_mh(u) return M v and M^H u as new vectors and leave
    their argument as it is. x0 is the start vector, of any nonzero norm;
    the kernel works in its dtype (complex or float64), and the applies keep
    it. Each step applies M and M^H once; the kernel stops at the first
    step whose top Ritz pair has a relative M^H M residual of at most
    sqrt(tol) (see the module docstring). A zero first image M x0 (a zero
    operator) returns 0 as converged after one step.
    Returns (norm, steps, converged, x, residual): x is the top right Ritz
    vector, of unit norm, so callers can warm-start the next spectral
    parameter from it. converged is False when max_steps ran out first;
    norm is then the last estimate, not a converged value, and residual
    says how far it was.

    The right basis is the rows of one array of _BASIS_ROWS rows, doubled
    when a run outgrows it; the Ritz vector x = V_k^T q is one more
    matrix-vector product. B_k is kept as two float arrays, its diagonal
    and superdiagonal, and _top_pair reads the stopping rule off them and
    off B_k B_k^T's, entered as B_k grows; a step reads sigma and p only,
    and q (_right_vector) is formed once, for the last step.
    The basis and the step's BLAS and LAPACK calls (GEMV, AXPY, dstev) are
    those of _lapack.gkl_steps, in x0's dtype. Two numpy calls stay among
    them because perfbench's tracer counts them: the start vector's
    one-column QR (lap.qr, spectral.qr) and the one np.linalg.norm(r, 2) a
    step (lap.norm2, which the tracer reads as the kernel's steps).
    """
    # x0's norm is read off the R factor of its one-column QR: LAPACK's
    # Householder step scales the norm, so a start vector whose squared
    # entries would overflow or underflow (np.linalg.norm squares them) is
    # still scaled to unit length
    v = x0 * (1.0 / abs(np.linalg.qr(x0[:, None], mode="r")[0, 0]))
    u = apply_m(v)
    alpha = _norm(u)
    if alpha == 0.0:
        return 0.0, 1, True, v, 0.0
    u *= 1.0 / alpha
    steps = gkl_steps(v.dtype, len(v), min(_BASIS_ROWS, max_steps))
    steps.basis[0] = v
    right, left, top = steps.right, steps.left, steps.top
    alphas, betas = np.empty(max_steps), np.empty(max_steps)
    alphas[0] = alpha
    # B_k B_k^T's diagonal and off-diagonal (_top_pair), entered as B_k grows
    bbt_d, bbt_e = np.empty(max_steps), np.empty(max_steps)
    bbt_d[0] = alpha * alpha
    stop = np.sqrt(tol)
    for step in range(1, max_steps + 1):
        # r = M^H u - alpha v, v being the last of the step basis rows,
        # reorthogonalised against them in place
        r = right(step, apply_mh(u), -alpha)
        # the one explicit 2-norm of a step: perfbench's tracer counts these
        # calls as the kernel's steps (lap.iters_per_norm)
        beta = np.linalg.norm(r, 2)
        sigma, p = _top_pair(
            alphas[:step], bbt_d[:step], bbt_e[: step - 1], top
        )
        residual = float(beta * abs(p[-1]) / sigma)
        converged = residual <= stop
        if converged or step == max_steps:
            break
        if step == len(steps.basis):
            steps.grow(step)
        v = steps.basis[step]
        np.multiply(r, 1.0 / beta, out=v)
        u = left(u, apply_m(v), -beta)
        alpha = _norm(u)
        u *= 1.0 / alpha
        alphas[step] = alpha
        betas[step - 1] = beta
        bbt_d[step - 1] += beta * beta
        bbt_d[step] = alpha * alpha
        bbt_e[step - 1] = beta * alpha
    q = _right_vector(alphas[:step], betas[: step - 1], sigma, p)
    return sigma, step, converged, q @ steps.basis[:step], residual


def _require_converged(steps, converged, where):
    if not converged:
        raise ComputeFailure(
            "norm-convergence",
            f"Golub-Kahan-Lanczos for the norm {where} did not converge "
            f"in {steps} steps",
        )
