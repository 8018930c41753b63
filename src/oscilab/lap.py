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
import functools
import itertools

import numpy as np

from . import _blocknorm, _pool
from ._lapack import eigh_tridiagonal, get_lapack_funcs
from .discretize import (
    OperatorMatrix,
    _require_dense,
    _weight_factor,
    build_conjugate_A,
    build_schrodinger,
    build_weight,
    count_window,
    eig_window,
    line_grid,
    phase,
)
from .errors import ComputeFailure, InvariantViolation
from .potentials import OscillatingSpec
from ._csv import write_csv
from ._smooth import smoothstep_quintic, smoothstep_quintic_prime
from .spectral import genuine_embedded

__all__ = [
    "LapScanSpec",
    "LapScanResult",
    "MourreCheckResult",
    "MourreInfinityReport",
    "PhaseDiagramCell",
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
# a position-weight lap_scan whose largest factored box has fewer rows runs
# its chains in the calling process, where a span tracer sees its kernels
# (perfbench's tracer does not see the pool's workers). Every other scan
# with more than one chain, conjugate-A ones included, goes to the pool.
# Speed does not set it. On a two-core Xeon, one-shot scans at n <= 199
# (s = 1, 5 Re z, boxes 20/40, fresh interpreters) read 28-45 ms
# in-process against 32-43 ms pooled, and in a warm process the pool wins
# there, 13.8 against 9.3 ms
_POOL_ROWS = 200


# ---------------------------------------------------------------------------
# weighted resolvent norms


def _check_weight(W, n):
    """Reject a weight that is not an n-vector (a diagonal) or a Hermitian
    PSD n x n matrix, n being the size of H."""
    if W.shape not in ((n,), (n, n)):
        raise InvariantViolation(
            "weight-shape",
            f"weight of shape {W.shape} for an operator of size {n}",
        )
    if W.ndim == 1:
        if np.min(W) < 0:
            raise InvariantViolation("weight-positivity", "weight must be >= 0")
        return
    scale = max(np.linalg.norm(W), 1.0)
    if np.linalg.norm(W - W.conj().T) > 1e-12 * scale:
        raise InvariantViolation(
            "operator-hermiticity", "dense weight is not Hermitian to 1e-12"
        )
    if np.iscomplexobj(W):
        # W = A + iB is PSD iff the real [[A, -B], [B, A]] is
        W = np.block([[W.real, -W.imag], [W.imag, W.real]])
    # W >= -1e-10 iff W + 1e-10 I has a Cholesky factor
    shifted = np.array(W, order="F")
    shifted.flat[:: W.shape[0] + 1] += 1e-10
    (potrf,) = get_lapack_funcs(("potrf",), (shifted,))
    if potrf(shifted, overwrite_a=1)[1] != 0:
        raise InvariantViolation("weight-positivity", "weight must be PSD")


def _tridiag_solver(d, e, z):
    """LU factorization of the complex tridiagonal H - z, returning a solver.

    H is Hermitian with real diagonal d and upper off-diagonal e, real or
    complex (the lower one is conj(e)); a caller that factors one H at many
    z passes e complex, so it is not cast again at each. solver(B, trans)
    solves (H - z) X = B for trans='N' and the conjugate transpose system
    for trans='C', overwriting B when it is a complex vector.
    """
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (np.zeros(2, dtype=complex),))
    du = np.asarray(e, dtype=complex)
    dl = np.conj(du)
    dd = d - z
    # dl and dd are this call's own arrays; du may be the caller's e, which
    # gttrf copies before it factors
    dl, dd, du, du2, ipiv, info = gttrf(dl, dd, du, overwrite_dl=1, overwrite_d=1)
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


def _real_times(F, X):
    """F X for a real matrix F and a complex vector or C-ordered matrix X.

    One real GEMM on X's float view, whose rows hold each entry's real and
    imaginary parts side by side: F @ X would copy F to complex first.
    """
    Y = F @ X.view(np.float64).reshape(len(X), -1)
    return Y.view(complex).reshape((len(F),) + X.shape[1:])


def _start_vector(n):
    """The seeded complex start vector of a norm run with no warm start."""
    rng = np.random.default_rng(0)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _banded_norm(d, e, w, z, max_iters=600, X=None):
    """||W (H - z)^{-1} W|| for tridiagonal H by LU applies of (H - z)^{-1}.

    H has diagonal d and upper off-diagonal e (see _tridiag_solver). W is
    real: w is its diagonal (a vector; O(n) per apply) or W itself, a dense
    symmetric matrix applied by one real GEMM (_real_times). X is the start
    vector, _start_vector when None. The kernel runs at its default tol,
    1e-12: it stops at a relative Ritz residual of 1e-6. Returns (norm,
    steps, converged, x, residual) as _blocknorm._gkl_norm does.
    """
    solve = _tridiag_solver(d, e, z)
    # M = W (H - z)^{-1} W for trans "N" and M^H = W (H - z)^{-H} W for
    # trans "C", W being symmetric
    if w.ndim == 1:

        def apply(trans):
            def apply_w(v):
                x = solve(w * v, trans)
                x *= w
                return x

            return apply_w

    else:
        # the right-hand side of the solves: one buffer, W v written into
        # its (n, 2) float view by one real GEMM (_real_times), solved in
        # place
        rhs = np.empty((len(d), 2))
        b = rhs.view(complex).reshape(len(d))

        def apply(trans):
            def apply_f(v):
                np.matmul(w, v.view(np.float64).reshape(rhs.shape), out=rhs)
                return _real_times(w, solve(b, trans))

            return apply_f

    if X is None:
        X = _start_vector(len(d))
    return _blocknorm._gkl_norm(apply("N"), apply("C"), X, max_steps=max_iters)


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
    # Golub-Kahan-Lanczos steps of the tridiagonal-LU norm kernel, summed
    # over the rows and the largest per row: {"total", "max"}
    norm_iterations: dict = None
    # largest relative Ritz residual the kernel stopped on over the rows
    # (0.0 when no row ran the kernel)
    norm_residual_max: float = 0.0
    # processes the (box, Re z) chains ran in; 1 for an in-process scan
    workers: int = 1


def _free_dirichlet_eigs(grid):
    """Closed-form spectrum of the Dirichlet difference Laplacian."""
    n, h = grid.n, grid.h
    j = np.arange(1, n + 1)
    return (2.0 - 2.0 * np.cos(j * np.pi / (n + 1))) / h**2


def _standard_ladder(floor):
    top = max(1.0, 14.0 * floor)
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


def schrodinger_line_factory(h):
    """factory(V, L) building H = H0 + V on a symmetric box of half-length L."""

    def factory(V, L):
        return build_schrodinger(line_grid(L, h), V)

    return factory


@dataclass(frozen=True, eq=False)
class _ScanSetup:
    """What every chain and the assembly of one lap_scan read.

    hams maps each box L to its H and counts to its Sturm count in the
    interval; free holds the boxes of the unweighted free control, whose
    norms are read off the closed-form spectrum. tasks are the (box, Re z)
    chains, largest box first. boxes holds each box's chain operands once
    _box has built them.
    """

    spec: LapScanSpec
    hams: dict
    counts: dict
    free: frozenset
    spacing: float
    floor: float
    ladder: list
    re_grid: np.ndarray
    tasks: list
    boxes: dict


def _scan_setup(factory, V, spec):
    """The boxes, counts, floor and ladder of a scan."""
    lo, hi = spec.interval
    hams, counts = {}, {}
    spacing = 0.0
    for L in spec.box_list:
        H = hams[L] = factory(V, L)
        count = count_window(H, lo, hi)
        if count == 0:
            raise InvariantViolation(
                "interval-spectrum", f"no spectrum of H in the interval at L={L:g}"
            )
        counts[L] = count
        spacing = max(spacing, (hi - lo) / count)
    # at s = 0 on the free Laplacian (d = 2/h^2 and e = -1/h^2 exactly)
    free = frozenset(
        L for L, H in hams.items()
        if spec.s == 0.0
        and np.all(H.d == 2.0 / H.grid.h**2)
        and np.all(H.e == -1.0 / H.grid.h**2)
    )
    floor = 10.0 * spacing
    ladder = [v for v in spec.im_ladder or () if v > floor * (1.0 + 1e-12)] + [floor]
    if len(ladder) < 4:
        ladder = _standard_ladder(floor)
    # largest box first, so the longest chains start first in a pool
    re_grid = np.linspace(lo, hi, spec.re_points)
    tasks = [(L, re_z) for L in reversed(spec.box_list) for re_z in re_grid]
    return _ScanSetup(
        spec, hams, counts, free, spacing, floor, ladder, re_grid, tasks, {}
    )


def _box(setup, L):
    """(d, e, W, ev, X0) of box L's chains, built and checked at the first
    call on setup: the diagonal and the upper off-diagonal, complex,
    the resolvent is taken of, the weight, the closed-form spectrum of the
    free control (None otherwise), and the first rung's start vector, from
    which every chain of the box starts."""
    operands = setup.boxes.get(L)
    if operands is None:
        H, spec = setup.hams[L], setup.spec
        grid = H.grid
        X0 = _start_vector(grid.n)
        if spec.weight_kind == "position":
            W, e = build_weight(grid, spec.s), H.e
        else:
            # W = <A>^(-s) = D^H F D with D = diag(phase) and F real, so
            # ||W R W|| = ||F (D R D^H) F||, R = (H - z)^(-1); D R D^H is the
            # resolvent of D H D^H, whose upper off-diagonal is
            # e_j i^j conj(i^(j+1)) = -i e_j. From D x0 the chains take the
            # Krylov spaces of the unrotated run, turned by D, and its step
            # counts
            W = _weight_factor(build_conjugate_A(grid), spec.s)
            e = -1j * H.e
            X0 = phase(grid.n) * X0
        _check_weight(W, grid.n)
        ev = _free_dirichlet_eigs(grid) if L in setup.free else None
        # e complex once per box: every rung's factorization reads it as is
        operands = (H.d, np.asarray(e, dtype=complex), W, ev, X0)
        setup.boxes[L] = operands
    return operands


def _chain(setup, task):
    """Norms down the Im z ladder at one (box, Re z), warm-started: (norms,
    steps, residuals, p), p the chain's divergence exponent (_fit_exponent).
    The fit runs with the walk, so a caller whose chains run in workers
    makes no least-squares call of its own."""
    L, re_z = task
    d, e, W, ev, X = _box(setup, L)
    norms, steps, residuals = [], [], []
    for eta in setup.ladder:
        z = complex(re_z, eta)
        if ev is not None:
            # W = I: the norm is exactly 1/dist(z, spec(H))
            j = np.searchsorted(ev, re_z)
            near = ev[max(j - 1, 0) : j + 1]
            dre = float(np.min(np.abs(near - re_z)))
            val = 1.0 / float(np.hypot(dre, eta))
        else:
            val, n_steps, converged, X, residual = _banded_norm(d, e, W, z, X=X)
            _blocknorm._require_converged(n_steps, converged, f"at z={z}")
            steps.append(n_steps)
            residuals.append(residual)
        norms.append(val)
    return norms, steps, residuals, _fit_exponent(setup.ladder, norms, setup.floor)


def _scan_result(setup, walked, workers):
    """The LapScanResult of a scan from its chains: walked maps each task of
    setup to its _chain; workers is the processes they ran in."""
    box_list = setup.spec.box_list
    rows = []
    box_reports = []
    p_values = []
    sup_by_box = {}
    steps = []
    residuals = []
    for L in box_list:
        box_p = []
        box_sup = 0.0
        for re_z in setup.re_grid:
            norms, chain_steps, chain_residuals, p = walked[L, re_z]
            steps.extend(chain_steps)
            residuals.extend(chain_residuals)
            rows.extend(
                (float(re_z), float(eta), float(L), float(val))
                for eta, val in zip(setup.ladder, norms)
            )
            box_p.append(p)
            box_sup = max(box_sup, max(norms))
        p_box = max(box_p)
        p_values.extend(box_p)
        sup_by_box[L] = box_sup
        box_reports.append((float(L), float(p_box), float(box_sup)))

    L1, L2 = box_list[-2], box_list[-1]
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
        im_floor=float(setup.floor),
        level_spacing=float(setup.spacing),
        box_reports=box_reports,
        norm_iterations={"total": sum(steps), "max": max(steps, default=0)},
        norm_residual_max=float(max(residuals, default=0.0)),
        workers=workers,
    )


@_pool.one_blas_thread()
def lap_scan(factory, V, spec):
    """Weighted resolvent scan over (Re z, Im z, box) with exponent fit.

    factory(V, L) must return the Hamiltonian OperatorMatrix on box L. The
    interval is assumed pre-screened for genuine embedded eigenvalues. At
    s = 0 on the free Laplacian (d = 2/h^2 and e = -1/h^2 exactly) the norms
    are read off its closed-form spectrum.
    Norms walk down the Im z ladder, each rung warm-started from the top
    right Ritz vector of the rung before; the ladder floors at 10x the mean
    level spacing of H inside the interval (reported in the result,
    together with the spacing itself). The scan runs in three steps: the
    setup (_scan_setup, then each box's operands, _box), one ladder walk
    and exponent fit per (box, Re z) chain (_chain) and the assembly of
    rows, per-box exponents and verdict (_scan_result). Each chain walks
    its own ladder, so the chains run in the process's workers
    (_pool.pool_map), except those of a position-weight scan whose largest
    factored box has fewer than _POOL_ROWS rows; the rows are the same
    either way.
    """
    setup = _scan_setup(factory, V, spec)
    # every box's operands built and checked once, in the caller; they go
    # to the workers inside the task pickle, the dense weight included
    for L in spec.box_list:
        _box(setup, L)
    chain = functools.partial(_chain, setup)
    rows = max((H.shape[0] for L, H in setup.hams.items() if L not in setup.free),
               default=0)
    if spec.weight_kind == "position" and rows < _POOL_ROWS:
        walked, workers = [chain(task) for task in setup.tasks], 1
    else:
        walked = _pool.pool_map(chain, setup.tasks)
        workers = _pool.workers(len(setup.tasks))
    return _scan_result(setup, dict(zip(setup.tasks, walked)), workers)


def scan_to_csv(result, path):
    """Write the raw scan grid as CSV with columns re_z, im_z, box_L, norm."""
    write_csv(path, ("re_z", "im_z", "box_L", "norm"), result.rows)


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


def _potential_slope(H):
    """V' read off the diagonal d = 2/h^2 + V of H by centered differences."""
    return np.gradient(H.d - 2.0 / H.grid.h**2, H.grid.x)


def _analytic_commutator(H):
    """[H, iA] realized analytically: 2 H0 - x V'(x).

    The literal finite-difference commutator compressed to a spectral
    window has identically vanishing trace, which poisons positivity
    checks; the analytic realization does not.
    """
    grid = H.grid
    d = 4.0 / grid.h**2 - grid.x * _potential_slope(H)
    return OperatorMatrix(grid, d, 2.0 * H.e)


def _mourre_window(H, J):
    """The window (lo, hi) of J = (lo, hi) and eig_window's pairs on it."""
    lo, hi = float(J[0]), float(J[1])
    if not lo < hi:
        raise InvariantViolation("window-order", "window needs lo < hi")
    return (lo, hi), *eig_window(H, lo, hi)


def mourre_check(H, J, mode="strict", remainder_rank_budget=0):
    """Positivity of the commutator form on the sharp spectral window J.

    strict: best_c is the smallest eigenvalue of E_J [H, iA] E_J on the
    window's range. plain: the remainder_rank_budget most negative
    directions are deflated first (the finite-rank stand-in for a compact
    error term). An empty window reports +inf. The commutator is the
    analytic form 2 H0 - x V', [H, iA] for the dilation generator A.
    """
    if mode not in ("strict", "plain"):
        raise InvariantViolation("mourre-mode", f"unknown mode {mode!r}")
    if remainder_rank_budget < 0:
        raise InvariantViolation("rank-budget", "rank budget must be >= 0")
    C = _analytic_commutator(H)
    win, w, v = _mourre_window(H, J)
    if len(w) == 0:
        return MourreCheckResult(win, _POSINF, _POSINF, 0, mode)
    F = v.conj().T @ C.matvec(v)
    F = 0.5 * (F + F.conj().T)
    eigs = np.linalg.eigvalsh(F)
    min_eig = float(eigs[0])
    if mode == "strict":
        return MourreCheckResult(win, min_eig, min_eig, 0, "strict")
    k = min(remainder_rank_budget, len(eigs))
    best = _POSINF if k == len(eigs) else float(eigs[k])
    return MourreCheckResult(win, min_eig, best, k, "plain")


def weighted_mourre_check(H, S, phi, J, s):
    """Window positivity of [H, i psi(A)] - <A>^{-2s}, exact calculus on A.

    S is build_conjugate_A's J, the real tridiagonal with A = D^H S D and
    D = diag(phase). The commutator with the bounded weight psi(A) is
    realized as psi'(A)^{1/2} [H, iA] psi'(A)^{1/2} with
    psi'(a) = c R <a>^{-2 phi.s}; phi = None means psi = 0 (the failing
    control). best_c is the smallest eigenvalue of the full form,
    commutator_form_min_eig that of the commutator part alone. S's n x n
    eigenvectors are dense, so an S above MATERIALIZE_MAX rows is refused
    (materialization-size) before any solve.
    """
    _require_dense(S.shape[0])
    C = _analytic_commutator(H)
    win, wE, vE = _mourre_window(H, J)
    if len(wE) == 0:
        return MourreCheckResult(win, _POSINF, _POSINF, 0, "weighted")
    # S = V diag(a) V^T with V real, so A's eigenvectors are D^H V:
    # Y = V^T D vE and Z = D^H V (sqrt(psi') Y), with the n x n V kept real
    a, V = eigh_tridiagonal(S.d, S.e)
    ph = phase(len(a))
    Y = _real_times(V.T, ph[:, None] * vE)
    wt = (1.0 + a**2) ** (-s)
    M2 = Y.conj().T @ (wt[:, None] * Y)
    if phi is None:
        psi_prime = np.zeros_like(a)
    else:
        psi_prime = phi.c * phi.R * (1.0 + a**2) ** (-phi.s)
    Z = np.conj(ph)[:, None] * _real_times(V, np.sqrt(psi_prime)[:, None] * Y)
    M1 = Z.conj().T @ C.matvec(Z)
    M1 = 0.5 * (M1 + M1.conj().T)
    M = M1 - M2
    M = 0.5 * (M + M.conj().T)
    best_c = float(np.linalg.eigvalsh(M)[0])
    comm_min = float(np.linalg.eigvalsh(M1)[0])
    return MourreCheckResult(win, comm_min, best_c, 0, "weighted")


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


def _commutator_br_form(H, R, delta):
    """Analytic [H, iB_R] = 4 P f'P - f''' - 2 f V'.

    The literal matrix commutator vanishes identically on exact eigenvectors
    of H (the finite-matrix virial identity kills every diagonal element of
    the window compression), so the form must be realized analytically, as
    with the plain Mourre check. P f'P uses midpoint weights, which keeps it
    exactly PSD whenever f' >= 0.
    """
    vprime = _potential_slope(H)
    grid = H.grid
    x, h = grid.x, grid.h
    xm = np.concatenate(([x[0] - h / 2.0], (x[:-1] + x[1:]) / 2.0, [x[-1] + h / 2.0]))
    _, fpm = _br_profile(xm, R, delta)
    d = 4.0 * (fpm[:-1] + fpm[1:]) / h**2
    e = -4.0 * fpm[1:-1] / h**2
    f, fp = _br_profile(x, R, delta)
    fppp = np.gradient(np.gradient(fp, x), x)
    return OperatorMatrix(grid, d - (fppp + 2.0 * f * vprime), e)


def mourre_at_infinity_check(H, R, delta, s, window, trials=64, seed=0):
    """Random-state check of <f, [H, iB_R] f> >= c1 ||chi_R <Q>^-s f||^2 - err.

    The commutator is the analytic form 4 P f'P - f''' - 2 f V' with
    f = chi_R^2 g_delta x, 0 < delta < 1. The trial states are one block of
    trials >= 1 Gaussian combinations in the window eigenbasis (fixed seed).
    Evaluated at R and 2R (R > 0, 2R < L) to expose the decay of the error
    witness max(0, c1_pred ||.||^2 - <f, C_R f>) / ||.||, with
    c1_pred = 2 inf J.
    """
    if not trials >= 1:
        raise InvariantViolation("trials-range", f"need trials >= 1, got {trials}")
    if not 0.0 < R < H.grid.L / 2.0:
        raise InvariantViolation("BR-radius", "need R > 0 and 2R inside the box")
    if not 0.0 < delta < 1.0:
        raise InvariantViolation("delta-range", f"delta must lie in (0,1), got {delta}")
    R_values = (float(R), 2.0 * float(R))
    forms = [_commutator_br_form(H, R_val, delta) for R_val in R_values]
    win, wE, vE = _mourre_window(H, window)
    c1_pred = 2.0 * win[0]
    if len(wE) == 0:
        return MourreInfinityReport(
            win, R_values, (_POSINF, _POSINF), c1_pred, (0.0, 0.0), True, (0, 0)
        )
    x = H.grid.x
    F = vE @ np.random.default_rng(seed).standard_normal((len(wE), trials))
    F /= np.linalg.norm(F, axis=0)
    c1_vals, witnesses, used = [], [], []
    for R_val, C in zip(R_values, forms):
        num = np.einsum("ij,ij->j", F, C.matvec(F))
        wloc = smoothstep_quintic(np.abs(x) / R_val - 1.0) * np.sqrt(1.0 + x**2) ** (-s)
        den = np.linalg.norm(wloc[:, None] * F, axis=0)
        kept = den >= 1e-12
        num, den = num[kept], den[kept]
        c1_vals.append(float(np.min(num / den**2, initial=_POSINF)))
        witnesses.append(float(np.max((c1_pred * den**2 - num) / den, initial=0.0)))
        used.append(int(np.count_nonzero(kept)))
    return MourreInfinityReport(
        win, R_values, tuple(c1_vals), c1_pred, tuple(witnesses),
        witnesses[1] <= witnesses[0] + 1e-12, tuple(used),
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


class PhaseSweep(list):
    """The cells of a sweep in order; workers is the processes the sweep's
    screens and chains ran in, 1 for an in-process sweep."""

    workers = 1


def _attempt(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


def _built(hams, V, L):
    """A scan factory's H on box L, for a cell whose H per box is hams."""
    return hams[L]


def _window_setup(hams, V, win, s, boxes):
    """The scan setup of one window of a cell whose H per box is hams."""
    spec = LapScanSpec(interval=win, s=s, box_list=boxes)
    return _scan_setup(functools.partial(_built, hams), V, spec)


def _sweep_task(jobs, boxes, task):
    """One task of a sweep's list, or the exception it raised: job j's
    screen when chain is None, else its (box, Re z) chain."""
    j, chain = task
    *_, win, hams, setup = jobs[j]
    if chain is not None:
        return _attempt(_chain, setup, chain)
    count = None if isinstance(setup, Exception) else setup.counts[max(boxes)]
    return _attempt(genuine_embedded, hams.__getitem__, win, boxes, count=count)


@_pool.one_blas_thread()
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
):
    """Scan the (alpha, beta) grid of oscillating potentials for LAP verdicts.

    ``windows`` maps names ("below", "above") to energy intervals on either
    side of the interference threshold k^2/4. Each live cell builds H once
    per box; each window is screened on its own for genuine embedded
    eigenvalues (genuine_embedded, with the largest box's count from the
    scan's setup), and a window without one is LAP-scanned. The parent runs
    every window's scan setup (_scan_setup; the chains build their boxes'
    operands themselves, _box), then hands _pool.pool_map one task list:
    every window's screen, then every window's (box, Re z) chains, longest
    first, so the workers share both. The chains run speculatively: a
    window whose screen finds a genuine eigenvalue drops its chains and any
    failure among them; in a scanned window a failure surfaces as it would
    in lap_scan, the first window's first. Cells beyond the budget are
    emitted as skipped. A window straddling k^2/4 is reported inconclusive
    by policy. Returns a PhaseSweep, a list of the cells.
    """
    if not windows:
        raise InvariantViolation("windows-empty", "need at least one named window")
    factory = schrodinger_line_factory(h)
    threshold = k * k / 4.0
    boxes = tuple(float(L) for L in box_list)
    pairs = list(itertools.product(alphas, betas))
    live = max(budget, 0)
    # one job per (live cell, window), each cell's H built once per box: the
    # window's scan setup, or the exception it raised, which surfaces only
    # if the window is scanned
    jobs = []
    for alpha, beta in pairs[:live]:
        V = OscillatingSpec(w=w, k=k, alpha=alpha, beta=beta)
        hams = {L: factory(V, L) for L in boxes}
        for nm in windows:
            win = tuple(map(float, windows[nm]))
            setup = _attempt(_window_setup, hams, V, win, s, boxes)
            jobs.append((alpha, beta, nm, win, hams, setup))
    # every screen solves a box of the same size, so they go in job order;
    # then the chains, the most rows times rungs first
    chains = []
    for j, (*_, setup) in enumerate(jobs):
        if not isinstance(setup, Exception):
            for L, re_z in setup.tasks:
                work = setup.hams[L].shape[0] * len(setup.ladder)
                chains.append((-work, j, (L, re_z)))
    chains.sort(key=lambda c: c[0])
    tasks = [(j, None) for j in range(len(jobs))] + [c[1:] for c in chains]
    run = functools.partial(_sweep_task, jobs, boxes)
    done = dict(zip(tasks, _pool.pool_map(run, tasks)))
    cells = PhaseSweep()
    cells.workers = _pool.workers(len(tasks))
    for j, (alpha, beta, nm, win, _, setup) in enumerate(jobs):
        genuine = done[j, None]
        if isinstance(genuine, Exception):
            raise genuine
        if genuine:
            cells.append(PhaseDiagramCell(
                float(alpha), float(beta), nm, win,
                "inconclusive", float("nan"), len(genuine),
                "genuine embedded eigenvalue inside the window",
            ))
            continue
        if isinstance(setup, Exception):
            raise setup
        walked = {task: done[j, task] for task in setup.tasks}
        for chain in walked.values():
            if isinstance(chain, Exception):
                raise chain
        scan = _scan_result(setup, walked, cells.workers)
        verdict = scan.verdict
        note = ""
        if win[0] < threshold < win[1]:
            verdict = "inconclusive"
            note = "window straddles k^2/4; inconclusive by policy"
        cells.append(PhaseDiagramCell(
            float(alpha), float(beta), nm, win, verdict,
            scan.divergence_exponent, 0, note,
        ))
    for alpha, beta in pairs[live:]:
        for nm in windows:
            cells.append(
                PhaseDiagramCell(
                    float(alpha), float(beta), nm, tuple(map(float, windows[nm])),
                    "skipped", float("nan"), 0, "over budget",
                )
            )
    return cells


def phase_cells_to_csv(cells, path):
    """Phase-diagram CSV with columns alpha, beta, window, verdict."""
    rows = ((c.alpha, c.beta, c.window_name, c.verdict) for c in cells)
    write_csv(path, ("alpha", "beta", "window", "verdict"), rows)


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
