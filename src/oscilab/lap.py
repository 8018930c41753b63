"""Limiting-absorption and commutator-positivity diagnostics.

The central object is the weighted resolvent norm ||W (H - z)^{-1} W||
scanned over a grid of spectral parameters z = E + i eta with eta walking
down a ladder toward 0. On a finite box the walk must stop at the
level-spacing scale: below it the discrete spectrum resolves into isolated
poles and every norm blows up like 1/eta regardless of the continuum
physics. The scan therefore floors the ladder at 10x the mean level spacing
inside the scan interval, fits the local divergence exponent p in
norm ~ C eta^{-p} at the floor, and reads the verdict off p:
bounded (p near 0) means the weighted resolvent stays finite as eta -> 0,
p near 1 is the free-pole blowup. The thresholds are calibrated on the two
analytic controls (weighted free resolvent: holds; unweighted: p = 1).

Commutator positivity is checked on sharp spectral windows with the
analytic commutator realization [H, iA] = 2 H0 - x V' (the literal
finite-difference commutator has a vanishing-trace defect on window
compressions and is not used here).
"""

from dataclasses import dataclass
import csv
import itertools

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal, get_lapack_funcs

from . import _blocknorm
from .discretize import (
    MATERIALIZE_MAX,
    OperatorMatrix,
    build_conjugate_A,
    build_schrodinger,
    build_weight,
    eig_full,
    eig_window,
    line_grid,
)
from .errors import ComputeFailure, InvariantViolation
from .potentials import OscillatingSpec
from ._smooth import smoothstep_quintic, smoothstep_quintic_prime
from .spectral import find_embedded

__all__ = [
    "LapScanSpec",
    "LapScanResult",
    "MourreCheckResult",
    "MourreInfinityReport",
    "PhaseDiagramCell",
    "weighted_resolvent_norm",
    "lap_scan",
    "schrodinger_line_factory",
    "mourre_check",
    "weighted_mourre_check",
    "mourre_at_infinity_check",
    "phase_sweep",
    "scan_to_csv",
    "scan_summary",
    "phase_cells_to_csv",
    "phase_cells_to_svg",
]

# verdict thresholds for the divergence exponent, calibrated on the free
# controls: weighted free scan measures p ~ 0.1, unweighted exactly 1
P_HOLDS = 0.15
P_FAILS = 0.85
STABILITY_TOL = 0.2

_POSINF = float("inf")


# ---------------------------------------------------------------------------
# weighted resolvent norms


def _check_weight(W):
    if W.storage == "diagonal":
        if np.min(W.data["d"]) < 0:
            raise InvariantViolation("weight-positivity", "weight must be >= 0")
        return
    if W.shape[0] <= MATERIALIZE_MAX:
        wmin = float(eigh(W.entries, eigvals_only=True)[0])
        if wmin < -1e-10:
            raise InvariantViolation("weight-positivity", "weight must be PSD")


def _tridiag_solver(d, e, z):
    """LU factorization of the complex tridiagonal H - z, returning a solver.

    solver(B, trans) solves (H - z) X = B for trans='N' and the conjugate
    transpose system for trans='C', overwriting B when it is a complex
    Fortran-ordered block.
    """
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (np.zeros(2, dtype=complex),))
    dl = np.asarray(e, dtype=complex)
    du = np.asarray(e, dtype=complex)
    dd = np.asarray(d, dtype=complex) - z
    dl, dd, du, du2, ipiv, info = gttrf(dl, dd, du)
    if info != 0:
        raise ComputeFailure(
            "resolvent-factorization", f"tridiagonal LU failed (info={info})"
        )

    def solve(B, trans):
        x, info2 = gttrs(dl, dd, du, du2, ipiv, B, trans=trans, overwrite_b=1)
        if info2 != 0:
            raise ComputeFailure(
                "resolvent-solve", f"tridiagonal solve failed (info={info2})"
            )
        return x

    return solve


def _banded_norm(d, e, wdiag, z, tol=1e-12, max_iters=600, seed=0, X=None):
    """||W (H - z)^{-1} W|| for tridiagonal H and diagonal W, O(n) per apply.

    Returns (norm, iterations, converged, X) as _subspace_norm_sq does.
    """
    solve = _tridiag_solver(d, e, z)
    w = wdiag[:, None]
    w2 = w * w

    def apply_mhm(V):
        V *= w
        V = solve(V, "N")
        V *= w2
        V = solve(V, "C")
        V *= w
        return V

    lam, iters, converged, X = _blocknorm._subspace_norm_sq(
        apply_mhm, len(d), tol=tol, max_iters=max_iters, seed=seed, X=X
    )
    return float(np.sqrt(lam)), iters, converged, X


def _spectral_norm_route(H, W, z):
    """Dense route: resolvent applied exactly on H's eigendecomposition."""
    if H.shape[0] > MATERIALIZE_MAX:
        raise InvariantViolation(
            "materialization-size", "dense resolvent route needs a small matrix"
        )
    w, v = eig_full(H)
    wm = W.entries
    u = wm @ v
    M = (u * (1.0 / (w - z))) @ u.conj().T
    return float(np.linalg.norm(M, 2))


def weighted_resolvent_norm(H, W, z, method="auto", tol=1e-12, max_iters=600):
    """Largest singular value of W (H - z)^{-1} W.

    The resolvent is applied spectrally (exactly, on the matrix): either
    through a dense eigendecomposition of H or through a tridiagonal LU
    with subspace iteration on the squared operator; both routes agree to
    solver precision and the dense one is kept available as a cross-check.
    """
    z = complex(z)
    if z.imag == 0.0:
        raise InvariantViolation("imag-z", "need Im z != 0")
    _check_weight(W)
    if method not in ("auto", "spectral", "iterative"):
        raise InvariantViolation("norm-method", f"unknown method {method!r}")
    if method == "spectral":
        return _spectral_norm_route(H, W, z)
    diag_pair = H.storage == "diagonal" and W.storage == "diagonal"
    if diag_pair:
        return float(np.max(np.abs(W.data["d"] ** 2 / (H.data["d"] - z))))
    if H.storage == "tridiagonal" and W.storage == "diagonal":
        norm, iters, converged, _ = _banded_norm(
            H.data["d"], H.data["e"], W.data["d"], z, tol=tol, max_iters=max_iters
        )
        _blocknorm._require_converged(iters, converged, f"at z={z}")
        return norm
    if H.storage == "fourier" and W.storage == "diagonal":
        coef = 1.0 / (H.data["multiplier"] - z)
        wdiag = W.data["d"][:, None]

        def apply_mhm(V):
            Y = wdiag * np.fft.ifft(coef[:, None] * np.fft.fft(wdiag * V, axis=0), axis=0)
            return wdiag * np.fft.ifft(
                np.conj(coef)[:, None] * np.fft.fft(wdiag * Y, axis=0), axis=0
            )

        lam, iters, converged, _ = _blocknorm._subspace_norm_sq(
            apply_mhm, H.shape[0], tol=tol, max_iters=max_iters
        )
        _blocknorm._require_converged(iters, converged, f"at z={z}")
        return float(np.sqrt(lam))
    if method == "iterative":
        raise InvariantViolation(
            "norm-route", "no iterative route for this storage combination"
        )
    return _spectral_norm_route(H, W, z)


# ---------------------------------------------------------------------------
# the scan


@dataclass(frozen=True)
class LapScanSpec:
    """Scan parameters: interval, weight, z-grid shape, box ladder.

    im_ladder = None generates the standard geometric ladder down to the
    level-spacing floor. s = 0 means no weight (the divergent control).
    """

    interval: tuple
    s: float = 0.51
    weight_kind: str = "position"
    re_points: int = 5
    im_ladder: tuple = None
    box_list: tuple = (200.0, 400.0)

    def __post_init__(self):
        lo, hi = self.interval
        if not lo < hi:
            raise InvariantViolation("interval-order", "interval needs lo < hi")
        if self.s < 0:
            raise InvariantViolation("s-range", "need s >= 0")
        if self.weight_kind not in ("position", "conjugate_A"):
            raise InvariantViolation(
                "weight-kind", f"unknown weight kind {self.weight_kind!r}"
            )
        if self.re_points < 3:
            raise InvariantViolation("re-points", "need >= 3 Re z points")
        if self.im_ladder is not None:
            lad = tuple(float(v) for v in self.im_ladder)
            if len(lad) < 2 or min(lad) <= 0 or any(
                b >= a for a, b in zip(lad, lad[1:])
            ):
                raise InvariantViolation(
                    "im-ladder", "im_ladder must be strictly decreasing and positive"
                )
            object.__setattr__(self, "im_ladder", lad)
        if len(self.box_list) < 2:
            raise InvariantViolation("box-count", "need at least two box sizes")
        object.__setattr__(
            self, "box_list", tuple(sorted(float(L) for L in self.box_list))
        )
        object.__setattr__(self, "interval", (float(lo), float(hi)))


@dataclass(frozen=True)
class LapScanResult:
    """Scan output: the raw (Re z, Im z, box, norm) grid plus the verdict."""

    rows: tuple
    sup_norm: float
    divergence_exponent: float
    box_stability: float
    verdict: str
    im_floor: float
    level_spacing: float
    box_reports: tuple  # (box_L, p, sup_norm, verdict) per box


def _free_dirichlet_eigs(grid):
    """Closed-form spectrum of the Dirichlet difference Laplacian."""
    n, h = grid.n, grid.h
    j = np.arange(1, n + 1)
    return (2.0 - 2.0 * np.cos(j * np.pi / (n + 1))) / h**2


def _count_spectrum(H, lo, hi):
    if H.kind == "free" and H.storage == "tridiagonal":
        ev = _free_dirichlet_eigs(H.grid)
        return int(np.searchsorted(ev, hi, "right") - np.searchsorted(ev, lo, "left"))
    if H.storage == "tridiagonal":
        w = eigh_tridiagonal(
            H.data["d"], H.data["e"], select="v", select_range=(lo, hi),
            eigvals_only=True,
        )
        return len(w)
    if H.storage == "diagonal":
        d = H.data["d"]
        return int(np.count_nonzero((d >= lo) & (d <= hi)))
    if H.storage == "fourier":
        m = H.data["multiplier"]
        return int(np.count_nonzero((m >= lo) & (m <= hi)))
    w = eigh(H.entries, eigvals_only=True)
    return int(np.count_nonzero((w >= lo) & (w <= hi)))


def _standard_ladder(floor, im_max=1.0):
    top = max(im_max, 14.0 * floor)
    K = max(4, int(np.ceil(np.log(top / (1.4 * floor)) / np.log(1.8))) + 1)
    return list(np.geomspace(top, 1.4 * floor, K)) + [floor]


def _fit_exponent(ladder, norms, floor):
    """Local divergence exponent at the floor from the last three rungs.

    Fits log norm as a quadratic in log eta and evaluates -d(log norm)/
    d(log eta) at eta = floor; the curvature term keeps the estimate from
    being dragged up by the crossover region above the floor.
    """
    la = np.log(np.asarray(ladder[-3:], dtype=float))
    ln = np.log(np.maximum(np.asarray(norms[-3:], dtype=float), 1e-300))
    c2 = np.polyfit(la, ln, 2)
    return float(-(2.0 * c2[0] * np.log(floor) + c2[1]))


def _verdict(p, stability):
    if p <= P_HOLDS and stability <= STABILITY_TOL:
        return "lap_holds"
    if p >= P_FAILS:
        return "lap_fails"
    return "inconclusive"


def schrodinger_line_factory(h, kind="line"):
    """factory(V, L) building H = H0 + V on a symmetric box of half-length L."""

    def factory(V, L):
        if kind == "line":
            return build_schrodinger(line_grid(L, h), V)
        raise InvariantViolation("factory-kind", f"unknown grid kind {kind!r}")

    return factory


def lap_scan(factory, V, spec):
    """Weighted resolvent scan over (Re z, Im z, box) with exponent fit.

    factory(V, L) must return the Hamiltonian OperatorMatrix on box L. The
    interval is assumed pre-screened for genuine embedded eigenvalues.
    Norms walk down the Im z ladder with warm-started subspaces; the ladder
    floors at 10x the mean level spacing of H inside the interval (reported
    in the result, together with the spacing itself).
    """
    lo, hi = spec.interval
    re_grid = np.linspace(lo, hi, spec.re_points)
    hams = {L: factory(V, L) for L in spec.box_list}

    spacing = 0.0
    for L, H in hams.items():
        count = _count_spectrum(H, lo, hi)
        if count == 0:
            raise InvariantViolation(
                "interval-spectrum", f"no spectrum of H in the interval at L={L:g}"
            )
        spacing = max(spacing, (hi - lo) / count)
    floor = 10.0 * spacing

    if spec.im_ladder is not None:
        ladder = [v for v in spec.im_ladder if v > floor * (1.0 + 1e-12)] + [floor]
        if len(ladder) < 4:
            ladder = _standard_ladder(floor)
    else:
        ladder = _standard_ladder(floor)

    rows = []
    box_reports = []
    p_values = []
    sup_by_box = {}
    for L in spec.box_list:
        H = hams[L]
        grid = H.grid
        if spec.weight_kind == "position":
            W = build_weight(grid, spec.s)
        else:
            W = build_weight(grid, spec.s, operator_basis=build_conjugate_A(grid))
        free_fast = (
            H.kind == "free" and H.storage == "tridiagonal" and spec.s == 0.0
        )
        ev = _free_dirichlet_eigs(grid) if free_fast else None
        box_p = []
        box_sup = 0.0
        for re_z in re_grid:
            norms = []
            X = None
            for eta in ladder:
                z = complex(re_z, eta)
                if free_fast:
                    # W = I: the norm is exactly 1/dist(z, spec(H))
                    j = np.searchsorted(ev, re_z)
                    near = ev[max(j - 1, 0) : j + 1]
                    dre = float(np.min(np.abs(near - re_z)))
                    val = 1.0 / float(np.hypot(dre, eta))
                elif H.storage == "tridiagonal" and W.storage == "diagonal":
                    val, iters, converged, X = _banded_norm(
                        H.data["d"], H.data["e"], W.data["d"], z, X=X
                    )
                    _blocknorm._require_converged(iters, converged, f"at z={z}")
                else:
                    val = weighted_resolvent_norm(H, W, z)
                norms.append(val)
                rows.append((float(re_z), float(eta), float(L), float(val)))
            box_p.append(_fit_exponent(ladder, norms, floor))
            box_sup = max(box_sup, max(norms))
        p_box = max(box_p)
        p_values.extend(box_p)
        sup_by_box[L] = box_sup
        box_reports.append((float(L), float(p_box), float(box_sup)))

    L1, L2 = spec.box_list[-2], spec.box_list[-1]
    stability = abs(sup_by_box[L2] - sup_by_box[L1]) / sup_by_box[L2]
    p_max, p_min = max(p_values), min(p_values)
    verdict = _verdict(p_max, stability)
    if verdict == "lap_fails" and p_min <= P_HOLDS:
        # the Re z points disagree about the divergence; refuse to call it
        verdict = "inconclusive"
    box_reports = tuple(
        (L, p, sup, _verdict(p, stability)) for (L, p, sup) in box_reports
    )
    return LapScanResult(
        rows=tuple(rows),
        sup_norm=float(sup_by_box[L2]),
        divergence_exponent=float(p_max),
        box_stability=float(stability),
        verdict=verdict,
        im_floor=float(floor),
        level_spacing=float(spacing),
        box_reports=box_reports,
    )


def scan_to_csv(result, path):
    """Write the raw scan grid as CSV with columns re_z, im_z, box_L, norm."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("re_z", "im_z", "box_L", "norm"))
        for re_z, im_z, L, norm in result.rows:
            writer.writerow(
                (f"{re_z:.17g}", f"{im_z:.17g}", f"{L:.17g}", f"{norm:.17g}")
            )


def scan_summary(result):
    """JSON-ready scan summary with the floor disclosures."""
    return {
        "sup_norm": result.sup_norm,
        "divergence_exponent": result.divergence_exponent,
        "box_stability": result.box_stability,
        "verdict": result.verdict,
        "im_floor": result.im_floor,
        "level_spacing": result.level_spacing,
        "boxes": [
            {"box_L": L, "p": p, "sup_norm": sup, "verdict": v}
            for (L, p, sup, v) in result.box_reports
        ],
    }


# ---------------------------------------------------------------------------
# Mourre positivity checks


@dataclass(frozen=True)
class MourreCheckResult:
    window: tuple
    commutator_form_min_eig: float
    best_c: float
    remainder_rank: int
    kind: str


def _analytic_commutator(H):
    """[H, iA] realized analytically: 2 H0 - x V'(x).

    The literal finite-difference commutator compressed to a spectral
    window has identically vanishing trace, which poisons positivity
    checks; the analytic realization does not. V' is recovered from the
    stored diagonal by centered differences.
    """
    if H.storage == "fourier":
        return OperatorMatrix(
            H.grid, "hamiltonian", "[H,iA]", "fourier",
            {"multiplier": 2.0 * H.data["multiplier"]},
        )
    if H.storage != "tridiagonal":
        raise InvariantViolation(
            "commutator-route",
            "analytic commutator needs tridiagonal or fourier H; "
            "pass an explicit commutator operator instead",
        )
    grid = H.grid
    h = grid.h
    kin_d = 2.0 / h**2
    vdiag = H.data["d"] - kin_d
    d = np.full(grid.n, 2.0 * kin_d)
    if np.any(vdiag):
        vprime = np.gradient(vdiag, grid.x)
        d = d - grid.x * vprime
    return OperatorMatrix(
        H.grid, "hamiltonian", "[H,iA]", "tridiagonal",
        {"d": d, "e": 2.0 * H.data["e"]},
    )


def mourre_check(H, A, J, mode="strict", remainder_rank_budget=0, commutator=None):
    """Positivity of the commutator form on the sharp spectral window J.

    strict: best_c is the smallest eigenvalue of E_J [H, iA] E_J on the
    window's range. plain: the remainder_rank_budget most negative
    directions are deflated first (the finite-rank stand-in for a compact
    error term). An empty window reports +inf.
    """
    lo, hi = float(J[0]), float(J[1])
    if not lo < hi:
        raise InvariantViolation("window-order", "window needs lo < hi")
    if mode not in ("strict", "plain"):
        raise InvariantViolation("mourre-mode", f"unknown mode {mode!r}")
    if remainder_rank_budget < 0:
        raise InvariantViolation("rank-budget", "rank budget must be >= 0")
    w, v = eig_window(H, lo, hi)
    if len(w) == 0:
        return MourreCheckResult((lo, hi), _POSINF, _POSINF, 0, mode)
    C = commutator if commutator is not None else _analytic_commutator(H)
    cv = C.matvec(v)
    F = v.conj().T @ cv
    F = 0.5 * (F + F.conj().T)
    eigs = eigh(F, eigvals_only=True)
    min_eig = float(eigs[0])
    if mode == "strict":
        return MourreCheckResult((lo, hi), min_eig, min_eig, 0, "strict")
    k = min(remainder_rank_budget, len(eigs))
    best = _POSINF if k == len(eigs) else float(eigs[k])
    return MourreCheckResult((lo, hi), min_eig, best, k, "plain")


def weighted_mourre_check(H, S, phi, J, s, commutator=None):
    """Window positivity of [H, i psi(S)] - <S>^{-2s}, exact calculus on S.

    The commutator with the bounded weight psi(S) is realized as
    psi'(S)^{1/2} [H, iA] psi'(S)^{1/2} with psi'(a) = c R <a>^{-2 phi.s};
    phi = None means psi = 0 (the failing control). best_c is the smallest
    eigenvalue of the full form, commutator_form_min_eig that of the
    commutator part alone.
    """
    lo, hi = float(J[0]), float(J[1])
    if not lo < hi:
        raise InvariantViolation("window-order", "window needs lo < hi")
    wE, vE = eig_window(H, lo, hi)
    if len(wE) == 0:
        return MourreCheckResult((lo, hi), _POSINF, _POSINF, 0, "weighted")
    a, vA = eig_full(S)
    Y = vA.conj().T @ vE
    wt = (1.0 + a**2) ** (-s)
    M2 = Y.conj().T @ (wt[:, None] * Y)
    if phi is None:
        psi_prime = np.zeros_like(a)
    else:
        if phi.kind != "psi":
            raise InvariantViolation(
                "weight-kind", "weighted Mourre check needs a psi weight spec"
            )
        psi_prime = phi.c * phi.R * (1.0 + a**2) ** (-phi.s)
    Z = vA @ (np.sqrt(psi_prime)[:, None] * Y)
    C = commutator if commutator is not None else _analytic_commutator(H)
    CZ = C.matvec(Z)
    M1 = Z.conj().T @ CZ
    M1 = 0.5 * (M1 + M1.conj().T)
    M = M1 - M2
    M = 0.5 * (M + M.conj().T)
    best_c = float(eigh(M, eigvals_only=True)[0])
    comm_min = float(eigh(M1, eigvals_only=True)[0])
    return MourreCheckResult((lo, hi), comm_min, best_c, 0, "weighted")


@dataclass(frozen=True)
class MourreInfinityReport:
    """Trial-state witness of the localized commutator lower bound."""

    window: tuple
    R_values: tuple
    c1_values: tuple
    c1_predicted: float
    error_witness: tuple
    decay_ok: bool
    trials_used: tuple


def _br_profile(x, R, delta):
    """f = chi_R^2 g_delta x and its derivative, both in closed form."""
    b = np.sqrt(1.0 + x * x)
    g = (2.0 - b ** (-delta)) / b
    gp = (x / b**3) * ((1.0 + delta) * b ** (-delta) - 2.0)
    t = np.abs(x) / R - 1.0
    chi = smoothstep_quintic(t)
    chip = smoothstep_quintic_prime(t) * np.sign(x) / R
    f = chi**2 * g * x
    fp = chi**2 * (g + x * gp) + 2.0 * chi * chip * g * x
    return f, fp


def _commutator_br_form(H, grid, R, delta):
    """Analytic [H, iB_R] = 4 P f'P - f''' - 2 f V' as tridiagonal arrays.

    The literal matrix commutator vanishes identically on exact eigenvectors
    of H (the finite-matrix virial identity kills every diagonal element of
    the window compression), so the form must be realized analytically, as
    with the plain Mourre check. P f'P uses midpoint weights, which keeps it
    exactly PSD whenever f' >= 0.
    """
    if H.storage != "tridiagonal":
        raise InvariantViolation(
            "commutator-route", "the localized commutator form needs tridiagonal H"
        )
    x = grid.x
    h = grid.h
    xm = np.concatenate(([x[0] - h / 2.0], (x[:-1] + x[1:]) / 2.0, [x[-1] + h / 2.0]))
    _, fpm = _br_profile(xm, R, delta)
    d = 4.0 * (fpm[:-1] + fpm[1:]) / h**2
    e = -4.0 * fpm[1:-1] / h**2
    f, fp = _br_profile(x, R, delta)
    fppp = np.gradient(np.gradient(fp, x), x)
    vdiag = H.data["d"] - 2.0 / h**2
    low = fppp.copy()
    if np.any(vdiag):
        low = low + 2.0 * f * np.gradient(vdiag, x)
    return d - low, e


def mourre_at_infinity_check(
    H, grid, R, delta, s, gamma, window, trials=64, seed=0
):
    """Random-state check of <f, [H, iB_R] f> >= c1 ||chi_R <Q>^-s f||^2 - err.

    The commutator is the analytic form 4 P f'P - f''' - 2 f V' with
    f = chi_R^2 g_delta x. Trial states are Gaussian combinations in the
    window eigenbasis (fixed seed). Evaluated at R and 2R to expose the
    decay of the error witness max(0, c1_pred ||.||^2 - <f, C_R f>) / ||.||,
    with c1_pred = 2 inf J.
    """
    if not gamma > 0.5:
        raise InvariantViolation("gamma-range", "need gamma > 1/2")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise InvariantViolation("window-order", "window needs lo < hi")
    wE, vE = eig_window(H, lo, hi)
    if len(wE) == 0:
        return MourreInfinityReport(
            (lo, hi), (float(R), 2.0 * R), (_POSINF, _POSINF),
            2.0 * lo, (0.0, 0.0), True, (0, 0),
        )
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((len(wE), trials))
    c1_pred = 2.0 * lo
    br_x = np.sqrt(1.0 + grid.x**2)
    c1_vals = []
    witnesses = []
    used = []
    for R_val in (float(R), 2.0 * float(R)):
        if not R_val < grid.L:
            raise InvariantViolation("BR-radius", "2R must stay inside the box")
        cd, ce = _commutator_br_form(H, grid, R_val, delta)
        chi = smoothstep_quintic(np.abs(grid.x) / R_val - 1.0)
        wloc = chi * br_x ** (-s)
        c1_best = _POSINF
        witness = 0.0
        n_used = 0
        for t in range(trials):
            f = vE @ coeffs[:, t]
            f = f / np.linalg.norm(f)
            cf = cd * f
            cf[:-1] += ce * f[1:]
            cf[1:] += ce * f[:-1]
            num = float(f @ cf)
            den = float(np.linalg.norm(wloc * f))
            if den < 1e-12:
                continue
            n_used += 1
            c1_best = min(c1_best, num / den**2)
            witness = max(witness, max(0.0, c1_pred * den**2 - num) / den)
        c1_vals.append(c1_best)
        witnesses.append(witness)
        used.append(n_used)
    decay_ok = witnesses[1] <= witnesses[0] + 1e-12
    return MourreInfinityReport(
        (lo, hi),
        (float(R), 2.0 * float(R)),
        tuple(c1_vals),
        c1_pred,
        tuple(witnesses),
        decay_ok,
        tuple(used),
    )


# ---------------------------------------------------------------------------
# phase-diagram sweep


@dataclass(frozen=True)
class PhaseDiagramCell:
    alpha: float
    beta: float
    window_name: str
    window: tuple
    verdict: str
    divergence_exponent: float
    embedded_count: int
    note: str = ""


def phase_sweep(
    alphas,
    betas,
    k,
    w,
    windows,
    s=2.0,
    h=0.1,
    box_list=(200.0, 400.0),
    budget=40,
    out_csv=None,
    out_svg=None,
):
    """Scan the (alpha, beta) grid of oscillating potentials for LAP verdicts.

    ``windows`` maps names ("below", "above") to energy intervals on either
    side of the interference threshold k^2/4. Each live cell is screened
    for genuine embedded eigenvalues over the hull of the windows, then
    scanned per window; cells beyond the budget are emitted as skipped.
    A window straddling k^2/4 is reported inconclusive by policy.
    """
    if not windows:
        raise InvariantViolation("windows-empty", "need at least one named window")
    names = list(windows.keys())
    factory = schrodinger_line_factory(h)
    threshold = k * k / 4.0
    hull = (
        min(windows[nm][0] for nm in names),
        max(windows[nm][1] for nm in names),
    )
    cells = []
    pairs = list(itertools.product(alphas, betas))
    for idx, (alpha, beta) in enumerate(pairs):
        if idx >= budget:
            for nm in names:
                cells.append(
                    PhaseDiagramCell(
                        float(alpha), float(beta), nm,
                        tuple(map(float, windows[nm])),
                        "skipped", float("nan"), 0, "over budget",
                    )
                )
            continue
        V = OscillatingSpec(w=w, k=k, alpha=alpha, beta=beta)
        found = find_embedded(lambda L: factory(V, L), hull, box_list)
        genuine = [c for c in found if c.verdict == "genuine"]
        for nm in names:
            win = tuple(map(float, windows[nm]))
            inside = [c for c in genuine if win[0] <= c.energy <= win[1]]
            if inside:
                cells.append(
                    PhaseDiagramCell(
                        float(alpha), float(beta), nm, win,
                        "inconclusive", float("nan"), len(inside),
                        "genuine embedded eigenvalue inside the window",
                    )
                )
                continue
            scan = lap_scan(
                factory, V,
                LapScanSpec(interval=win, s=s, box_list=tuple(box_list)),
            )
            verdict = scan.verdict
            note = ""
            if win[0] < threshold < win[1]:
                verdict = "inconclusive"
                note = "window straddles k^2/4; inconclusive by policy"
            cells.append(
                PhaseDiagramCell(
                    float(alpha), float(beta), nm, win, verdict,
                    scan.divergence_exponent, 0, note,
                )
            )
    if out_csv is not None:
        phase_cells_to_csv(cells, out_csv)
    if out_svg is not None:
        phase_cells_to_svg(cells, out_svg)
    return cells


def phase_cells_to_csv(cells, path):
    """Phase-diagram CSV with columns alpha, beta, window, verdict."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("alpha", "beta", "window", "verdict"))
        for c in cells:
            writer.writerow((f"{c.alpha:.17g}", f"{c.beta:.17g}", c.window_name, c.verdict))


_SVG_COLORS = {
    "lap_holds": "#2f9e44",
    "lap_fails": "#d9480f",
    "inconclusive": "#e8a117",
    "skipped": "#adb5bd",
}


def phase_cells_to_svg(cells, path):
    """Self-contained SVG scatter: below verdict as fill, above as outline."""
    by_pair = {}
    for c in cells:
        by_pair.setdefault((c.alpha, c.beta), {})[c.window_name] = c.verdict
    alphas = sorted({a for a, _ in by_pair})
    betas = sorted({b for _, b in by_pair})
    width, height = 460, 360
    mleft, mright, mtop, mbot = 70, 30, 54, 60

    def sx(a):
        if len(alphas) == 1 or alphas[-1] == alphas[0]:
            return mleft + (width - mleft - mright) / 2.0
        t = (a - alphas[0]) / (alphas[-1] - alphas[0])
        return mleft + t * (width - mleft - mright)

    def sy(b):
        if len(betas) == 1 or betas[-1] == betas[0]:
            return height - mbot - (height - mtop - mbot) / 2.0
        t = (b - betas[0]) / (betas[-1] - betas[0])
        return height - mbot - t * (height - mtop - mbot)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        '<text x="16" y="28" font-family="monospace" font-size="14">'
        "LAP verdicts: fill = below k^2/4, outline = above</text>",
    ]
    ax_y = height - mbot
    parts.append(
        f'<line x1="{mleft}" y1="{ax_y}" x2="{width - mright}" y2="{ax_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{mleft}" y1="{mtop}" x2="{mleft}" y2="{ax_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    for a in alphas:
        parts.append(
            f'<text x="{sx(a):.1f}" y="{ax_y + 20:.1f}" font-family="monospace" '
            f'font-size="12" text-anchor="middle">{a:g}</text>'
        )
    for b in betas:
        parts.append(
            f'<text x="{mleft - 10:.1f}" y="{sy(b) + 4:.1f}" font-family="monospace" '
            f'font-size="12" text-anchor="end">{b:g}</text>'
        )
    parts.append(
        f'<text x="{(mleft + width - mright) / 2:.1f}" y="{height - 16}" '
        'font-family="monospace" font-size="13" text-anchor="middle">alpha</text>'
    )
    parts.append(
        f'<text x="20" y="{(mtop + ax_y) / 2:.1f}" font-family="monospace" '
        'font-size="13" text-anchor="middle" transform="rotate(-90 20 '
        f'{(mtop + ax_y) / 2:.1f})">beta</text>'
    )
    for (a, b), verdicts in sorted(by_pair.items()):
        fill = _SVG_COLORS.get(verdicts.get("below", "skipped"), "#adb5bd")
        stroke = _SVG_COLORS.get(verdicts.get("above", "skipped"), "#adb5bd")
        parts.append(
            f'<circle cx="{sx(a):.1f}" cy="{sy(b):.1f}" r="13" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="5"/>'
        )
    ly = height - 36
    lx = mleft
    for name, color in _SVG_COLORS.items():
        parts.append(
            f'<rect x="{lx}" y="{ly}" width="11" height="11" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{lx + 15}" y="{ly + 10}" font-family="monospace" '
            f'font-size="11">{name}</text>'
        )
        lx += 15 + 9 * len(name) + 18
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
