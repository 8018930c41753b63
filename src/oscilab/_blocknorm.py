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

Stopping rule: with (sigma, p, q) the top singular triplet of B_k and
x = V_k q, M^H M x - sigma^2 x = sigma beta_k p_k v_{k+1}. So the relative
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

from .errors import ComputeFailure


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
    """
    # x0's norm is read off the R factor of its one-column QR: LAPACK's
    # Householder step scales the norm, so a start vector whose squared
    # entries would overflow or underflow (np.linalg.norm squares them) is
    # still scaled to unit length
    v = x0 / abs(np.linalg.qr(x0[:, None], mode="r")[0, 0])
    u = apply_m(v)
    alpha = np.linalg.norm(u)
    if alpha == 0.0:
        return 0.0, 1, True, v, 0.0
    u /= alpha
    basis, alphas, betas = [v], [alpha], []
    for step in range(1, max_steps + 1):
        r = apply_mh(u)
        r -= alpha * v
        for _ in range(2):
            for w, c in zip(basis, [np.vdot(w, r) for w in basis]):
                r -= c * w
        # the one explicit 2-norm of a step: perfbench's tracer counts these
        # calls as the kernel's steps (lap.iters_per_norm)
        beta = np.linalg.norm(r, 2)
        P, s, Qh = np.linalg.svd(np.diag(alphas) + np.diag(betas, 1))
        residual = float(beta * abs(P[-1, 0]) / s[0])
        converged = residual <= np.sqrt(tol)
        if converged or step == max_steps:
            break
        v = r / beta
        basis.append(v)
        u = apply_m(v) - beta * u
        alpha = np.linalg.norm(u)
        u /= alpha
        alphas.append(alpha)
        betas.append(beta)
    x = sum(c * w for c, w in zip(Qh[0], basis))
    return float(s[0]), step, converged, x, residual


def _require_converged(steps, converged, where):
    if not converged:
        raise ComputeFailure(
            "norm-convergence",
            f"Golub-Kahan-Lanczos for the norm {where} did not converge "
            f"in {steps} steps",
        )
