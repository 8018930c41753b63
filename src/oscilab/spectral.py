"""Eigenanalysis and compactness diagnostics.

Embedded-eigenvalue detection works by a box-stability protocol: eigenvalues
inside a spectral window are computed on a ladder of box sizes; values whose
eigenvectors are localized in the inner half-box and whose energies are
stable under box doubling are genuine, everything else is a box artifact of
the truncated continuum.

The compactness side sandwiches an oscillating multiplier between spectral
windows or smoothing weights and tracks the corner norms ||chi_R M chi_R||
over growing radii: vanishing tails certify compactness, a plateau measures
the non-compact part.
"""

import functools
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import _blocknorm, _pool
from ._csv import write_csv
from ._smooth import smoothstep_quintic
from .discretize import (
    build_radial_channel,
    eig_window,
    eigvals_window,
    localized_pairs,
)
from .errors import InvariantViolation
from .potentials import CutoffSpec, eval_cutoff

__all__ = [
    "EmbeddedCandidate",
    "TailDecayReport",
    "find_embedded",
    "genuine_embedded",
    "interference_symbol_check",
    "small_plus_decay_probe",
    "oscillation_compactness_probe",
    "DEFAULT_CHANNEL_ALPHAS",
    "candidate_to_json",
    "tail_report_to_json",
    "append_sweep_csv",
]

# verdict thresholds for embedded candidates (the numerical reading of
# "embedded eigenvalue": localized and stable under box doubling)
LOCALIZATION_THRESHOLD = 0.99
DRIFT_TOL = 5e-3
# genuine_embedded drops a group of eigenvalues once its localization bound
# is below LOCALIZATION_THRESHOLD by this margin, far above the rounding of
# a localization
_SETTLE_MARGIN = 1e-9

# angular channel coefficients l - 1 + d/2 for d = 3 over a wide ladder of l;
# high-l channels carry the far-region mass that distinguishes a genuine
# plateau from truncation effects
DEFAULT_CHANNEL_ALPHAS = (0.5, 800.5, 3200.5, 7200.5, 12800.5, 20000.5, 28800.5)


# ---------------------------------------------------------------------------
# embedded-eigenvalue detection


@dataclass(frozen=True)
class EmbeddedCandidate:
    """One eigenvalue candidate inside the scan window."""

    energy: float
    localization: float
    box_drift: float
    verdict: str


def _radius(grid):
    return np.abs(grid.x) if grid.kind != "halfline" else grid.x


def _screen_args(window, box_list):
    """(lo, hi, boxes ascending) of a screen, checked."""
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise InvariantViolation("window-order", "window needs lo < hi")
    if lo < 0:
        raise InvariantViolation(
            "window-essential", "window must sit inside the essential spectrum [0, inf)"
        )
    boxes = sorted(float(L) for L in box_list)
    if len(boxes) < 2:
        raise InvariantViolation("box-count", "need at least two box sizes")
    return lo, hi, boxes


def _inner(grid, big):
    """The rows of the inner half-box of a box of half-length big."""
    return _radius(grid) <= big / 2.0


def _localizations(v, inner):
    """Each column's mass inside the inner rows, over its whole mass."""
    localizations = []
    for i in range(v.shape[1]):
        mass = np.abs(v[:, i]) ** 2
        localizations.append(float(mass[inner].sum() / mass.sum()))
    return localizations


def _largest_box(build, lo, hi, big):
    """The eigenvalues of build(big) in [lo, hi] and the localization of
    each: its eigenvector's mass inside the inner half-box."""
    T = build(big)
    energies, v = eig_window(T, lo, hi)
    return energies, _localizations(v, _inner(T.grid, big))


def _candidates(build, lo, hi, boxes, drift_tol, energies, localizations):
    """An EmbeddedCandidate per largest-box eigenvalue; the smaller boxes
    supply eigenvalues over the window widened by 10 * drift_tol."""
    reach = 10.0 * drift_tol
    partners = [eigvals_window(build(L), lo - reach, hi + reach) for L in boxes[:-1]]
    out = []
    for energy, loc in zip(energies, localizations):
        drift = 0.0
        for other in partners:
            if len(other) == 0:
                drift = np.inf
            else:
                drift = max(drift, float(np.min(np.abs(other - energy))))
        if loc >= LOCALIZATION_THRESHOLD and drift <= drift_tol:
            verdict = "genuine"
        elif loc < LOCALIZATION_THRESHOLD or drift >= 10.0 * drift_tol:
            verdict = "box_artifact"
        else:
            verdict = "unresolved"
        out.append(
            EmbeddedCandidate(
                energy=float(energy),
                localization=loc,
                box_drift=float(drift),
                verdict=verdict,
            )
        )
    return out


def find_embedded(build, window, box_list, drift_tol=DRIFT_TOL):
    """Scan a window for embedded eigenvalues with box-stability filtering.

    ``build`` maps a box size L to the Hamiltonian OperatorMatrix on that
    box; ``window`` is the energy interval (lo, hi); ``box_list`` needs at
    least two sizes. Candidates and their eigenvectors come from the largest
    box alone, computed first; localization is the eigenvector mass inside
    the inner half-box. The smaller boxes supply eigenvalues only, over the
    window widened by 10 * drift_tol on each side, and the drift is the
    worst nearest-match distance to them; so every drift below
    10 * drift_tol is exact, also for a candidate whose partner lies just
    outside the window.
    verdict: genuine iff localization >= 0.99 and drift <= drift_tol;
    box_artifact iff localization < 0.99 or drift >= 10 * drift_tol;
    unresolved between.
    """
    lo, hi, boxes = _screen_args(window, box_list)
    energies, localizations = _largest_box(build, lo, hi, boxes[-1])
    return _candidates(build, lo, hi, boxes, drift_tol, energies, localizations)


def genuine_embedded(build, window, box_list, count=None):
    """The genuine candidates of find_embedded(build, window, box_list).

    Only a localized candidate can be genuine, so the largest box's
    eigenpairs come from localized_pairs: its coarse pass drops a group of
    close eigenvalues once a Davis-Kahan bound shows that none of its
    eigenvectors reaches LOCALIZATION_THRESHOLD, less _SETTLE_MARGIN, and
    the others are eig_window's pairs, bit for bit; when every group is
    dropped, no fine eigensolve runs. The smaller boxes'
    spectra are read only when some eigenvalue left reaches the threshold;
    otherwise no smaller box is built or solved. count is the number of
    eigenvalues of the largest box in the window, when the caller has it.
    """
    lo, hi, boxes = _screen_args(window, box_list)
    big = boxes[-1]
    T = build(big)
    inner = _inner(T.grid, big)
    energies, v = localized_pairs(
        T, lo, hi, inner, LOCALIZATION_THRESHOLD - _SETTLE_MARGIN, count=count
    )
    localizations = _localizations(v, inner)
    if not any(loc >= LOCALIZATION_THRESHOLD for loc in localizations):
        return []
    found = _candidates(build, lo, hi, boxes, DRIFT_TOL, energies, localizations)
    return [c for c in found if c.verdict == "genuine"]


# ---------------------------------------------------------------------------
# tail-decay reports


@dataclass(frozen=True)
class TailDecayReport:
    """Corner norms ||chi_{>=R} T chi_{>=R}|| over an increasing radius list."""

    radii: tuple
    tail_norms: tuple
    plateau_estimate: float
    verdict: str
    operator_norm: float = float("nan")
    # Golub-Kahan-Lanczos steps per radius and the largest relative Ritz
    # residual of the iterative corner norms (empty and 0.0 for the dense
    # channel probe); run disclosures, left out of tail_report_to_json
    norm_iterations: tuple = ()
    norm_residual_max: float = 0.0


def _make_report(radii, norms, op_norm=float("nan")):
    norms = [float(v) for v in norms]
    first, last = norms[0], norms[-1]
    if last <= 0.1 * first:
        verdict = "decays_to_zero"
    elif last >= 10.0 * first and last > 0.0:
        verdict = "grows"
    else:
        verdict = "plateaus"
    plateau = float(np.median(norms[-3:])) if len(norms) >= 3 else last
    return TailDecayReport(
        radii=tuple(float(R) for R in radii),
        tail_norms=tuple(norms),
        plateau_estimate=plateau,
        verdict=verdict,
        operator_norm=float(op_norm),
    )


def _check_radii(radii):
    radii = [float(R) for R in radii]
    if len(radii) < 2 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise InvariantViolation(
            "radii-increasing", "need >= 2 strictly increasing radii"
        )
    return radii


def _gram_corner_norm(B, core):
    """||X core X^H|| for X = B (rows of the left factor), via the Gram root."""
    G = B.conj().T @ B
    gw, gv = np.linalg.eigh(G)
    gw = np.clip(gw, 0.0, None)
    gh = (gv * np.sqrt(gw)) @ gv.conj().T
    mat = gh @ core @ gh.conj().T
    if mat.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(mat))))


# ---------------------------------------------------------------------------
# interference threshold diagnostics


def interference_symbol_check(theta, k):
    """Max over momenta xi in R^2 of theta(|xi|^2) theta(|xi - k e1|^2).

    Zero exactly when the two momentum annuli cannot intersect, which is the
    cheap predictor for the tail-decay verdict: a window below k^2/4 gives 0,
    a window reaching above it gives a positive maximum. The two radii
    (|xi|, |xi - k e1|) range over all pairs compatible with the triangle
    inequality against the translation k.
    """
    k = abs(float(k))
    lo, hi = theta.support
    hi_r = np.sqrt(max(hi, 0.0))
    if hi_r == 0.0:
        return 0.0
    rr = np.linspace(0.0, hi_r * 1.05, 600)
    r1, r2 = np.meshgrid(rr, rr, indexing="ij")
    feasible = (np.abs(r1 - r2) <= k) & (k <= r1 + r2)
    prod = theta.weights(r1**2) * theta.weights(r2**2)
    prod = np.where(feasible, prod, 0.0)
    return float(prod.max())


def _channel_window_factors(grid, theta, k, alpha_channel):
    """Windowed channel factors (U, F, ||M_alpha||) with M = U F U^T."""
    r = grid.x
    w, v = eig_window(build_radial_channel(grid, alpha_channel), *theta.support)
    if len(w) == 0:
        return None, None, 0.0
    th = theta.weights(w)
    U = v * th
    F = v.T @ (np.sin(k * r)[:, None] * v)
    core = (th[:, None] * F) * th[None, :]
    mnorm = float(np.max(np.abs(np.linalg.eigvalsh(core))))
    return U, F, mnorm


def _channel_tails(grid, theta, k, radii, alpha):
    """One radial channel's tail norms at the radii, zeros when its window
    holds no eigenvalue, and its ||M_alpha||."""
    U, F, mnorm = _channel_window_factors(grid, theta, k, alpha)
    tails = [0.0] * len(radii)
    if U is not None:
        r = grid.x
        for i, R in enumerate(radii):
            mask = r >= R
            tails[i] = _gram_corner_norm(U[mask, :], F) if np.any(mask) else 0.0
    return tails, mnorm


@_pool.one_blas_thread()
def small_plus_decay_probe(grid, theta, k, radii, channel_alphas=DEFAULT_CHANNEL_ALPHAS):
    """Tail decay of the windowed oscillation theta(h) sin(k r) theta(h).

    Runs over the direct sum of radial channels h_alpha = -d^2/dr^2 +
    alpha r^(-2) (Dirichlet) on the supplied half-line grid; the direct-sum
    tail norm at each radius is the max over channels. The plateau estimates
    the norm of the non-decaying part; below the interference threshold it
    collapses to zero instead. The channels run in the process's workers
    (_pool.pool_map), and the maxima are taken in channel order.
    """
    if grid.kind != "halfline":
        raise InvariantViolation("channel-grid", "probe needs a halfline grid")
    if len(channel_alphas) == 0:
        raise InvariantViolation("channel-count", "probe needs at least one channel")
    radii = _check_radii(radii)
    channels = _pool.pool_map(
        functools.partial(_channel_tails, grid, theta, k, radii), channel_alphas
    )
    tails = np.zeros(len(radii))
    total_norm = 0.0
    for channel_tails, mnorm in channels:
        total_norm = max(total_norm, mnorm)
        for i, val in enumerate(channel_tails):
            tails[i] = max(tails[i], val)
    return _make_report(radii, tails, total_norm)


# ---------------------------------------------------------------------------
# oscillation compactness probe (periodic Fourier calculus)


# the probe's corner norms stop at a relative M^H M residual of
# sqrt(_PROBE_TOL) = 1e-4. A single vector resolves a clustered top more
# slowly than a block did: on periodic_grid(100, 8192), a warm start
# stopped at 1e-3 on a lower Ritz value, 2.9e-3 low at alpha = 2 (R = 10)
# and 24.22 instead of 29.28 at alpha = 1 (R = 80). At 1e-4 a top can
# still be read off a singular value just below it: 6.3e-5 low at alpha = 2,
# n = 16384, R = 5
_PROBE_TOL = 1e-8
# Golub-Kahan-Lanczos steps a corner norm may take before norm-convergence
_PROBE_ITERS = 200

# weight of the seeded random unit vector mixed into each warm start
_WARM_MIX = 0.01


@_pool.one_blas_thread()
def oscillation_compactness_probe(
    grid,
    p,
    alpha,
    k,
    smoothing_orders=(2, 2),
    radii=(10.0, 20.0, 40.0, 80.0, 160.0),
    seed=0,
):
    """Corner-norm decay of <P>^-l1 <Q>^p (1-kappa) sin(k |Q|^alpha) <P>^-l2.

    Periodic Fourier calculus realizes the smoothing weights exactly; the
    multiplier carries the standard unit cutoff around the origin and a
    seam cutoff that keeps it away from the periodic wrap-around. Corner
    norms use a smooth radial cutoff and Golub-Kahan-Lanczos
    bidiagonalisation of the corner, stopped at a relative Ritz residual of
    sqrt(_PROBE_TOL), at most _PROBE_ITERS steps. Every factor of the
    corner is real, so it maps real vectors to real vectors, and the
    iteration runs in real arithmetic: real vectors and real-input FFTs.
    The first radius starts from a random real vector (deterministic under
    the seed, like every random vector below). Every later radius is
    warm-started from the previous radius's top right Ritz vector, which
    already points along the top of a nearby corner, plus _WARM_MIX times
    a random unit vector, so that a top which moves to where the previous
    vector had decayed is still found. The report carries the steps per
    radius and the largest residual.
    """
    if grid.kind != "periodic":
        raise InvariantViolation("probe-grid", "probe needs a periodic grid")
    if not alpha >= 1.0:
        raise InvariantViolation("alpha-range", "probe needs alpha >= 1")
    if p < 0:
        raise InvariantViolation("p-range", "need p >= 0")
    radii = _check_radii(radii)
    l1, l2 = smoothing_orders
    x = grid.x
    ax = np.abs(x)
    L = grid.L
    h = grid.h
    live = 1.0 - eval_cutoff(CutoffSpec(1.0, 2.0), ax)
    seam = 1.0 - smoothstep_quintic((ax - 0.85 * L) / (0.07 * L))
    mult = (1.0 + x * x) ** (p / 2.0) * live * seam * np.sin(k * ax**alpha)
    xi = grid.xi
    wl1 = (1.0 + xi * xi) ** (-l1 / 2.0)
    wl2 = (1.0 + xi * xi) ** (-l2 / 2.0)
    # grid-size arrays read no more: freed before the iteration's own
    del x, live, seam, xi
    norms, steps, residuals = [], [], []
    rng = np.random.default_rng(seed)
    X = rng.standard_normal(len(mult))
    for i, R in enumerate(radii):
        chi = smoothstep_quintic((ax - R) / max(0.05 * R, 2.0 * h))
        if i > 0:
            g = rng.standard_normal(len(mult))
            X += _WARM_MIX / np.linalg.norm(g) * g
        norm, n_steps, residual, X = _fourier_corner_norm(
            mult, wl1, wl2, chi, iters=_PROBE_ITERS, tol=_PROBE_TOL, X=X
        )
        norms.append(norm)
        steps.append(n_steps)
        residuals.append(residual)
    return replace(
        _make_report(radii, norms),
        norm_iterations=tuple(steps),
        norm_residual_max=float(max(residuals)),
    )


def _fourier_corner_norm(mult, wl1, wl2, chi, iters=200, tol=1e-12, X=None):
    """||chi M chi|| for M = W1(P) diag(mult) W2(P), by Golub-Kahan-Lanczos.

    mult, chi and the even weights wl1, wl2 (np.fft.fftfreq order) are real,
    so the vectors stay real. The corner chi M chi and its adjoint are
    applied as an rfft into one half-spectrum buffer, a multiply by the
    weight's half spectrum and an irfft back, per Fourier stage. X is an
    optional real start vector; without one, a random vector seeded with 0.
    The kernel stops at a relative residual of sqrt(tol). Returns (norm,
    steps, residual, x) with x the top right Ritz vector; raises
    norm-convergence when iters steps run out.
    """
    rfft, irfft = np.fft.rfft, np.fft.irfft
    n = len(mult)
    if X is None:
        X = np.random.default_rng(0).standard_normal(n)
    half_n = n // 2 + 1
    # an even weight's spectrum on the rfft frequencies 0..n//2
    wl1, wl2 = wl1[:half_n], wl2[:half_n]
    buf = np.empty(half_n, dtype=complex)
    # the corner chi M chi, and its adjoint, as (Fourier weight, position
    # factor) stages after a first multiply by chi
    half = ((wl2, mult), (wl1, chi))
    adjoint = ((wl1, mult), (wl2, chi))

    def apply_stages(v, stages):
        v = v * chi
        for wl, factor in stages:
            rfft(v, out=buf)
            np.multiply(buf, wl, out=buf)
            irfft(buf, n=n, out=v)
            v *= factor
        return v

    norm, steps, converged, x, residual = _blocknorm._gkl_norm(
        lambda v: apply_stages(v, half),
        lambda u: apply_stages(u, adjoint),
        X,
        tol=tol,
        max_steps=iters,
    )
    _blocknorm._require_converged(steps, converged, "of the corner chi M chi")
    return norm, steps, residual, x


# ---------------------------------------------------------------------------
# serialization


def candidate_to_json(c):
    """EmbeddedCandidate as a JSON-compatible dict."""
    return asdict(c)


def tail_report_to_json(rep):
    """TailDecayReport as a JSON-compatible dict."""
    d = asdict(rep)
    del d["norm_iterations"], d["norm_residual_max"]
    d["radii"] = list(d["radii"])
    d["tail_norms"] = list(d["tail_norms"])
    return d


def append_sweep_csv(path, window_lo, window_hi, k, report):
    """Append one sweep row (window, k, verdict, plateau) to a CSV file."""
    header = ("window_lo", "window_hi", "k", "verdict", "plateau")
    row = (window_lo, window_hi, k, report.verdict, report.plateau_estimate)
    write_csv(path, header, [row], append=True)
