"""Finite Hermitian matrix realizations of the operators under study.

Grids are uniform 1D boxes (line, half-line, or periodic). Every operator
is held in one form, a real symmetric tridiagonal J, and every solver and
product runs on that form; none forms a dense matrix of an operator. The
dilation generator A is held as the real J with A = D^H J D, D = diag(i^j)
(``phase``), and D is applied only where A itself is needed: the
conjugate_A LAP scan and the weighted Mourre check. Weights are plain
arrays: the diagonal of <Q>^(-s), or the dense real factor of <A>^(-s)
built by exact functional calculus (eigendecomposition, never a series
approximation).

Hamiltonians are central differences with Dirichlet ends, on line and
half-line grids only. Periodic grids carry the Fourier calculus of the
relativistic construction and the smoothed compactness probe, which work
on arrays and build no OperatorMatrix.
"""

from dataclasses import dataclass

import numpy as np

from ._lapack import eigh_tridiagonal, get_lapack_funcs
from ._smooth import spectral_bump
from .errors import ComputeFailure, InvariantViolation
from .potentials import eval_potential

__all__ = [
    "Grid1D",
    "WindowSpec",
    "OperatorMatrix",
    "build_h0",
    "build_radial_channel",
    "build_schrodinger",
    "build_conjugate_A",
    "build_weight",
    "eig_window",
    "eigvals_window",
    "localized_pairs",
    "count_window",
]

# largest dimension for which a dense weight factor may be materialized
MATERIALIZE_MAX = 6000


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid: line (-L, L), halfline (0, L], or periodic [-L, L).

    Line and half-line grids hold the n interior Dirichlet points, so the
    spacing is extent/(n+1); half-line grids start at h, never at 0.
    Periodic grids hold n points with spacing 2L/n.
    """

    kind: str
    L: float
    n: int

    def __post_init__(self):
        if self.kind not in ("line", "halfline", "periodic"):
            raise InvariantViolation("grid-kind", f"unknown grid kind {self.kind!r}")
        if not self.L > 0:
            raise InvariantViolation("grid-extent", f"L must be > 0, got {self.L}")
        if self.n < 16:
            raise InvariantViolation("grid-size", f"need n >= 16, got {self.n}")

    @property
    def h(self):
        if self.kind == "line":
            return 2.0 * self.L / (self.n + 1)
        if self.kind == "halfline":
            return self.L / (self.n + 1)
        return 2.0 * self.L / self.n

    @property
    def x(self):
        h = self.h
        if self.kind == "line":
            return -self.L + h * np.arange(1, self.n + 1)
        if self.kind == "halfline":
            return h * np.arange(1, self.n + 1)
        return -self.L + h * np.arange(self.n)

    @property
    def xi(self):
        """Angular Fourier frequencies (periodic grids only), FFT mode order."""
        if self.kind != "periodic":
            raise InvariantViolation(
                "grid-fourier", "Fourier frequencies exist only on periodic grids"
            )
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)


def line_grid(L, h):
    """Line grid on (-L, L) with spacing (approximately) h."""
    n = int(round(2.0 * L / h)) - 1
    return Grid1D("line", float(L), n)


def halfline_grid(L, h):
    """Half-line grid on (0, L) with spacing (approximately) h."""
    n = int(round(L / h)) - 1
    return Grid1D("halfline", float(L), n)


def periodic_grid(L, n):
    """Periodic grid on [-L, L) with n points."""
    return Grid1D("periodic", float(L), int(n))


# ---------------------------------------------------------------------------
# window spec


@dataclass(frozen=True)
class WindowSpec:
    """Smooth spectral window on an interval J = [a, b].

    A C-infinity theta, 1 on J, 0 outside [a - margin, b + margin].
    margin defaults to 0.1 |J|.
    """

    a: float
    b: float
    margin: float = None

    def __post_init__(self):
        if not self.a < self.b:
            raise InvariantViolation("window-order", "window needs a < b")
        if self.margin is None:
            object.__setattr__(self, "margin", 0.1 * (self.b - self.a))
        if not self.margin > 0:
            raise InvariantViolation("window-margin", "margin must be > 0")

    def weights(self, energies):
        """Evaluate the window function at the given energies."""
        return spectral_bump(energies, self.a, self.b, self.margin)

    @property
    def support(self):
        """Interval outside which the window vanishes."""
        return (self.a - self.margin, self.b + self.margin)


# ---------------------------------------------------------------------------
# operator container


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Real symmetric tridiagonal n x n matrix J = tridiag(e, d, e) on an
    n-point grid. Every eigensolve, Sturm count and product runs on (d, e);
    ``matvec`` applies J.
    """

    grid: Grid1D
    d: np.ndarray
    e: np.ndarray

    @property
    def shape(self):
        return (self.grid.n, self.grid.n)

    def matvec(self, vec):
        """Apply the operator to a vector or a stack of column vectors."""
        d, e = self.d, self.e
        v = np.asarray(vec)
        if v.ndim == 2:  # a block of column vectors
            d, e = d[:, None], e[:, None]
        out = d * v
        out[:-1] += e * v[1:]
        out[1:] += e * v[:-1]
        return out


# windowed eigenpairs (_window_pairs): stebz bisects to an absolute
# tolerance of _BISECT_TOL mean level spacings; coarse values less than
# _GROUP_GAP tolerances apart share a group; a residual is certified when
# it is at most _RESIDUAL_EPS * eps * ||T||_1 times its group's size; a
# group that is not certified within _MAX_SWEEPS solves per vector raises
# eig-window-convergence
_BISECT_TOL = 1e-4
_GROUP_GAP = 1e3
_RESIDUAL_EPS = 16.0
_MAX_SWEEPS = 12
# the localization screen (localized_pairs): stebz bisects to _SCREEN_TOL
# mean level spacings, coarse values less than two such tolerances apart
# share a group, and a group's vectors take at most _SCREEN_SWEEPS solves
# to show that it can be dropped
_SCREEN_TOL = 0.1
_SCREEN_SWEEPS = 4


def _rayleigh_ritz(J, X):
    """Orthonormalise X's columns and rotate them onto J's Ritz vectors.

    Returns (theta, X, J X): the Ritz values, ascending, and the Ritz
    vectors as contiguous columns. numpy's Q is LAPACK's but C-ordered; made
    F-ordered, it takes the GEMM paths, and bits, of LAPACK's F-ordered Q."""
    if X.shape[1] == 1:
        X = X / np.linalg.norm(X)
        JX = J.matvec(X)
        return np.einsum("ij,ij->j", X, JX), X, JX
    X = np.asfortranarray(np.linalg.qr(X)[0])
    theta, Y = np.linalg.eigh(X.T @ J.matvec(X))
    X = np.asfortranarray(X @ Y)
    return theta, X, J.matvec(X)


def _max_localization(X, residual, inner, gap):
    """Upper bound on the mass inside ``inner`` of every unit vector of the
    eigenspace that the orthonormal block X approximates with residual
    Frobenius norm ``residual``, when every other eigenvalue lies at least
    gap from X's values.

    Davis-Kahan sin theta (Davis & Kahan, SIAM J. Numer. Anal. 7, 1970):
    the eigenspace lies within an angle residual / gap of X's span, so the
    square root of the mass is at most the top singular value of X's inner
    rows plus residual / gap.
    """
    if not gap > 0.0:
        return np.inf
    Xi = X[inner]
    top = np.linalg.eigvalsh(Xi.T @ Xi)[-1]
    return (np.sqrt(max(top, 0.0)) + residual / gap) ** 2


def _scale(T, lo, hi, k):
    """(eps * ||T||_1, the mean spacing of the k eigenvalues of T in
    [lo, hi])."""
    rows = np.abs(T.d)
    rows[:-1] += np.abs(T.e)
    rows[1:] += np.abs(T.e)
    norm = rows.max()
    # the spacing of the spectrum, not of a window reaching past it
    return np.finfo(float).eps * norm, (min(hi, norm) - max(lo, -norm)) / k


def _coarse_groups(T, lo, hi, k, tol, reach):
    """stebz's values of T in [lo, hi] and within reach outside it, each to
    tol, grouped.

    Values closer than reach share a group. Returns (coarse, keep, groups):
    the values, ascending; the slice of the k values in [lo, hi]; and each
    group of indices into coarse that holds one of them.
    """
    # stebz counts each range from the Sturm counts at its ends, so the
    # three ranges split the spectrum exactly at lo and hi
    edges = (lo - reach, lo, hi, hi + reach)
    below, inside, above = (
        eigh_tridiagonal(
            T.d, T.e, eigvals_only=True, select="v", select_range=span, tol=tol
        )
        for span in zip(edges, edges[1:])
    )
    coarse = np.concatenate((below, inside, above))
    keep = slice(len(below), len(below) + k)
    splits = np.flatnonzero(np.diff(coarse) > reach) + 1
    groups = [
        group
        for group in np.split(np.arange(len(coarse)), splits)
        # a neighbour outside the window, alone, is not solved
        if group[-1] >= keep.start and group[0] < keep.stop
    ]
    return coarse, keep, groups


def _factors(gttrf, T, shifts, unit):
    """One LU factorization of T - shift per shift."""
    lus = []
    for shift in shifts:
        dl, dd, du, du2, ipiv, _ = gttrf(T.e, T.d - shift, T.e)
        # an exactly singular T - shift: a tiny pivot keeps the solve finite
        # and its direction right
        dd[dd == 0.0] = unit
        lus.append((dl, dd, du, du2, ipiv))
    return lus


def _solve(gttrs, lus, X):
    """One solve per vector, in place: column j against the j-th factors."""
    for j, lu in enumerate(lus):
        X[:, j] = gttrs(*lu, X[:, j], overwrite_b=1)[0]


def _sweep(T, gttrs, lus, X, values=None):
    """One solve per vector, then Rayleigh-Ritz: (theta, X, squares), with
    squares the residuals' squared norms against values, or against theta
    when values is None."""
    _solve(gttrs, lus, X)
    theta, X, JX = _rayleigh_ritz(T, X)
    R = JX - X * (theta if values is None else values)
    return theta, X, np.einsum("ij,ij->j", R, R)


def _window_pairs(T, lo, hi, vectors=True, count=None):
    """Eigenpairs (w, V) of T with eigenvalues in [lo, hi], never forming a
    dense matrix.

    The count is Sturm-exact (count_window). stebz bisects each eigenvalue
    only to tol, a fraction of the mean level spacing, inside the window
    and within reach = _GROUP_GAP * tol outside it. Coarse values closer
    than reach form a group, so a singleton's vector contracts onto its
    eigenvector by at least 1/_GROUP_GAP a solve, and a close pair, also
    one split by a window end, is orthonormalised and separated by
    Rayleigh-Ritz on its own span (Parlett, The Symmetric Eigenvalue
    Problem, ch. 4). Each coarse value w_j shifts its own LU factorization
    of T - w_j, from one seeded start vector. A sweep solves once per
    vector, then Rayleigh-Ritz gives the group's values w; the group's
    eigenvalues are the w of the first sweep whose every residual
    ||T v - w v|| is at most the bound (16 eps ||T||_1), times the group's
    size. A vector certified so is still off by up to residual/gap, so the
    vectors take further sweeps until they are certified against those
    eigenvalues (LAPACK's stein runs two extra solves); with vectors False
    the group stops at its eigenvalues, the same bits. A group not
    certified within _MAX_SWEEPS raises eig-window-convergence.

    count, when given, is that Sturm count, from a caller that has it.
    """
    n = len(T.d)
    k = count_window(T, lo, hi) if count is None else count
    if k == 0:
        return np.empty(0), np.empty((n, 0))
    unit, spacing = _scale(T, lo, hi, k)
    tol = _BISECT_TOL * spacing
    coarse, keep, groups = _coarse_groups(T, lo, hi, k, tol, _GROUP_GAP * tol)
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (T.d,))
    rng = np.random.default_rng(0)
    w, V = np.empty(len(coarse)), np.empty((n, len(coarse)))
    for group in groups:
        lus = _factors(gttrf, T, coarse[group], unit)
        X = rng.standard_normal((len(group), n)).T  # contiguous columns
        # orthonormalising and rotating k vectors rounds k-fold
        bound = _RESIDUAL_EPS * len(group) * unit
        values = None
        for _ in range(_MAX_SWEEPS):
            theta, X, squares = _sweep(T, gttrs, lus, X, values)
            certified = np.max(squares) <= bound**2
            if certified and values is None:
                values = theta
                if vectors:
                    continue
            if certified:
                break
        else:
            raise ComputeFailure(
                "eig-window-convergence",
                f"inverse iteration left {len(group)} eigenpair(s) near "
                f"{coarse[group[0]]:.17g} above the residual bound "
                f"{bound:.3g} after {_MAX_SWEEPS} solves",
            )
        w[group], V[:, group] = values, X
    return w[keep], V[:, keep]


def eig_window(T, lo, hi):
    """Eigenpairs of T with eigenvalues in [lo, hi]; returns (w, V), real.

    The solver is _window_pairs.
    """
    return _window_pairs(T, lo, hi)


def localized_pairs(T, lo, hi, inner, level, count=None):
    """eig_window's pairs of T in [lo, hi] whose group of close eigenvalues
    may hold an eigenvector with a mass of at least level in the boolean row
    mask inner, bit-identical to eig_window's; count is the Sturm count of
    [lo, hi] when the caller has it.

    A coarse pass first: stebz bisects to tol = _SCREEN_TOL mean level
    spacings, inside the window and within 2 tol outside it, and coarse
    values closer than 2 tol form a group, so every eigenvalue outside a
    group lies at or below its lower coarse neighbour + tol, or at or above
    its upper one - tol (or beyond the bisected ranges). Each coarse value
    shifts its own LU factorization, every group starts from the first
    columns of one seeded block, and its vectors take at most
    _SCREEN_SWEEPS solves; after each solve but the first, Rayleigh-Ritz
    and the Davis-Kahan bound (_max_localization) against those neighbours
    may drop the group. The residual is padded by twice the kernel's
    certified bound for its own rounding and for the residual of the
    vectors eig_window certifies, so no group that could hold a vector of
    mass level is dropped. When
    every group is dropped the result is empty and no fine bisection runs;
    otherwise the result is eig_window's pairs at the kept groups' indices:
    the j-th coarse value in the window belongs to the j-th eigenvalue, both
    counts being Sturm-exact.
    """
    n = len(T.d)
    k = count_window(T, lo, hi) if count is None else count
    if k == 0:
        return np.empty(0), np.empty((n, 0))
    unit, spacing = _scale(T, lo, hi, k)
    tol = _SCREEN_TOL * spacing
    reach = 2.0 * tol
    coarse, keep, groups = _coarse_groups(T, lo, hi, k, tol, reach)
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (T.d,))
    start = np.random.default_rng(0).standard_normal((max(map(len, groups)), n))
    held = []
    for group in groups:
        first, last = group[0], group[-1]
        # every eigenvalue outside the group lies at or below floor, or at
        # or above ceiling
        floor = (coarse[first - 1] if first > 0 else lo - reach) + tol
        ceiling = (coarse[last + 1] if last + 1 < len(coarse) else hi + reach) - tol
        lus = _factors(gttrf, T, coarse[group], unit)
        X = start[: len(group)].T.copy(order="F")  # contiguous columns
        # one solve from a random start, at a shift up to tol off, seldom
        # bounds a group (48 of the catalog windows' 1,089 groups), so
        # Rayleigh-Ritz and the bound first run after the second
        _solve(gttrs, lus, X)
        residual_pad = 2.0 * _RESIDUAL_EPS * len(group) * unit
        for _ in range(_SCREEN_SWEEPS - 1):
            theta, X, squares = _sweep(T, gttrs, lus, X)
            gap = min(theta[0] - floor, ceiling - theta[-1])
            residual = np.sqrt(squares.sum()) + residual_pad
            if _max_localization(X, residual, inner, gap) < level:
                break
        else:
            held.extend(j - keep.start for j in group if keep.start <= j < keep.stop)
    if not held:
        return np.empty(0), np.empty((n, 0))
    w, V = _window_pairs(T, lo, hi, count=k)
    return w[held], V[:, held]


def eigvals_window(T, lo, hi):
    """Eigenvalues of T in [lo, hi], ascending, without eigenvectors.

    They come from eig_window's solver and are bit-identical to its
    eigenvalues.
    """
    return _window_pairs(T, lo, hi, vectors=False)[0]


def count_window(T, lo, hi):
    """Number of eigenvalues of T in [lo, hi], by Sturm counts."""
    # stebz fixes its count from the Sturm counts at the two window ends; an
    # absolute tolerance of the window's width ends the bisection right there
    return len(
        eigh_tridiagonal(
            T.d, T.e, eigvals_only=True, select="v", select_range=(lo, hi), tol=hi - lo
        )
    )


# ---------------------------------------------------------------------------
# builders


def _require_box(grid):
    if grid.kind == "periodic":
        raise InvariantViolation(
            "hamiltonian-grid",
            "Hamiltonians are finite differences on line or halfline grids, "
            "not on periodic grids",
        )


def build_h0(grid):
    """Free Hamiltonian |P|^2: the central-difference Dirichlet Laplacian."""
    _require_box(grid)
    h = grid.h
    d = np.full(grid.n, 2.0 / h**2)
    e = np.full(grid.n - 1, -1.0 / h**2)
    return OperatorMatrix(grid, d, e)


def build_radial_channel(grid, alpha_channel):
    """Half-line channel operator -d^2/dr^2 + alpha r^(-2), Dirichlet ends.

    The coefficient alpha is used verbatim (the channel index set supplies
    values like l - 1 + d/2; no l(l+1) rewriting happens here).
    """
    if grid.kind != "halfline":
        raise InvariantViolation(
            "channel-grid", "radial channel operators need a halfline grid"
        )
    h = grid.h
    d = 2.0 / h**2 + alpha_channel / grid.x**2
    e = np.full(grid.n - 1, -1.0 / h**2)
    return OperatorMatrix(grid, d, e)


def build_schrodinger(grid, V):
    """Hamiltonian H = H0 + V(Q), V a diagonal perturbation of H0."""
    if V is None:
        return build_h0(grid)
    _require_box(grid)
    vvals = np.atleast_1d(np.asarray(eval_potential(V, grid.x), dtype=float))
    h = grid.h
    d = 2.0 / h**2 + vvals
    e = np.full(grid.n - 1, -1.0 / h**2)
    return OperatorMatrix(grid, d, e)


def phase(n):
    """The diagonal of D = diag(i^j), j < n, which carries build_conjugate_A's
    real J to the dilation generator A = D^H J D."""
    return np.power(1j, np.arange(n) % 4)


def build_conjugate_A(grid):
    """Generator of dilations (P x + x P)/2 via the central difference, as
    the real J with A's eigenvalues.

    A is the purely off-diagonal Hermitian matrix i S with
    S[j, j+1] = s[j] = -S[j+1, j], s[j] = -(x_j + x_{j+1}) / (4h); the sign
    is fixed by requiring <f, [H0, iA] f> approximately equal to
    <f, 2 H0 f> on interior wave packets. i S = D^H J D with
    J = tridiag(s, 0, s) and D = diag(phase(n)); this returns J, whose
    eigenvectors u give A's as D^H u.
    """
    if grid.kind == "periodic":
        raise InvariantViolation(
            "conjugate-grid", "the dilation generator needs a non-periodic grid"
        )
    x, n = grid.x, grid.n
    s = -(x[:-1] + x[1:]) / (4.0 * grid.h)
    return OperatorMatrix(grid, np.zeros(n), s)


def _require_dense(n):
    """Refuse n x n dense eigenvectors above MATERIALIZE_MAX rows
    (materialization-size)."""
    if n > MATERIALIZE_MAX:
        raise InvariantViolation(
            "materialization-size",
            f"an operator of {n} rows needs dense {n} x {n} eigenvectors; "
            f"the limit is {MATERIALIZE_MAX} rows",
        )


def _weight_factor(T, s):
    """F = <T>^(-s): a dense real symmetric n x n matrix.

    Exact functional calculus on T's eigendecomposition (eigh_tridiagonal,
    real vectors V), F = V diag(<w>^(-s)) V^T by one real GEMM and then
    symmetrised exactly. For build_conjugate_A's J, <A>^(-s) is D^H F D,
    so a caller that can move D onto the other factors works on F in real
    arithmetic. Refuses a T above MATERIALIZE_MAX (materialization-size).
    """
    _require_dense(T.shape[0])
    w, v = eigh_tridiagonal(T.d, T.e)
    F = (v * (1.0 + w**2) ** (-s / 2.0)) @ v.T
    return 0.5 * (F + F.T)


def build_weight(grid, s):
    """Weight <Q>^(-s) as its diagonal, a vector."""
    if s < 0:
        raise InvariantViolation("weight-exponent", f"need s >= 0, got {s}")
    return (1.0 + grid.x**2) ** (-s / 2.0)
