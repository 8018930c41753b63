"""Finite Hermitian matrix realizations of the operators under study.

Grids are uniform 1D boxes (line, half-line, or periodic). Matrices carry a
structured storage tag (tridiagonal, diagonal, imaginary tridiagonal,
dense) so that large scans can exploit structure while small diagnostics
may materialize dense entries. Functional calculus (operator weights) is
exact eigendecomposition, never a series approximation.

Hamiltonians are central differences with Dirichlet ends, on line and
half-line grids only. Periodic grids carry the Fourier calculus of the
relativistic construction and the smoothed compactness probe, which work
on arrays and build no OperatorMatrix.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal

from ._smooth import spectral_bump
from .errors import InvariantViolation
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
    "eig_full",
    "eig_window",
    "eigvals_window",
]

# largest dimension for which dense entries may be materialized
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
    boundary: str = ""

    def __post_init__(self):
        if self.kind not in ("line", "halfline", "periodic"):
            raise InvariantViolation("grid-kind", f"unknown grid kind {self.kind!r}")
        if not self.L > 0:
            raise InvariantViolation("grid-extent", f"L must be > 0, got {self.L}")
        if self.n < 16:
            raise InvariantViolation("grid-size", f"need n >= 16, got {self.n}")
        expected = "periodic" if self.kind == "periodic" else "dirichlet"
        if self.boundary == "":
            object.__setattr__(self, "boundary", expected)
        elif self.boundary != expected:
            raise InvariantViolation(
                "grid-boundary",
                f"{self.kind} grid requires {expected} boundary, got {self.boundary!r}",
            )

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
    """Spectral window on an interval J = [a, b].

    smooth_bump: C-infinity theta, 1 on J, 0 outside [a - margin, b + margin].
    sharp_projector: spectral projector onto J.
    margin defaults to 0.1 |J|.
    """

    a: float
    b: float
    margin: float = None
    kind: str = "smooth_bump"

    def __post_init__(self):
        if not self.a < self.b:
            raise InvariantViolation("window-order", "window needs a < b")
        if self.kind not in ("smooth_bump", "sharp_projector"):
            raise InvariantViolation("window-kind", f"unknown window kind {self.kind!r}")
        if self.margin is None:
            object.__setattr__(self, "margin", 0.1 * (self.b - self.a))
        if not self.margin > 0:
            raise InvariantViolation("window-margin", "margin must be > 0")

    def weights(self, energies):
        """Evaluate the window function at the given energies."""
        energies = np.asarray(energies, dtype=float)
        if self.kind == "sharp_projector":
            return ((energies >= self.a) & (energies <= self.b)).astype(float)
        return spectral_bump(energies, self.a, self.b, self.margin)

    @property
    def support(self):
        """Interval outside which the window vanishes."""
        if self.kind == "sharp_projector":
            return (self.a, self.b)
        return (self.a - self.margin, self.b + self.margin)


# ---------------------------------------------------------------------------
# the storage table: per storage, the dense entries, the matrix-vector product,
# the eigendecomposition, the eigenvalues alone and their count (window
# (lo, hi), or None for the full spectrum) of an OperatorMatrix held in that
# storage


def _column(a, v):
    """a broadcast against v: a column when v is a block of column vectors."""
    return a[:, None] if v.ndim == 2 else a


def _select(values, window):
    """(values, indices) of the values in the window, in ascending order."""
    lo, hi = window or (-np.inf, np.inf)
    idx = np.where((values >= lo) & (values <= hi))[0]
    idx = idx[np.argsort(values[idx])]
    return values[idx], idx


def _tridiagonal_eig(d, e, window, eigvals_only=False):
    kwargs = {} if window is None else {"select": "v", "select_range": window}
    return eigh_tridiagonal(d, e, eigvals_only=eigvals_only, **kwargs)


def _sturm_count(d, e, window):
    # stebz fixes its count from the Sturm counts at the two window ends; an
    # absolute tolerance of the window's width ends the bisection right there
    lo, hi = window
    return len(
        eigh_tridiagonal(
            d, e, eigvals_only=True, select="v", select_range=window, tol=hi - lo
        )
    )


# tridiagonal -- data: d (n), e (n-1), both real


def _tri_entries(T):
    m = np.diag(T.data["d"].astype(float))
    m += np.diag(T.data["e"], 1) + np.diag(T.data["e"], -1)
    return m


def _tri_matvec(T, v):
    d, e = _column(T.data["d"], v), _column(T.data["e"], v)
    out = d * v
    out[:-1] += e * v[1:]
    out[1:] += e * v[:-1]
    return out


# diagonal -- data: d (n) real


def _diag_matvec(T, v):
    return _column(T.data["d"], v) * v


def _diag_eig(T, window):
    w, idx = _select(T.data["d"], window)
    v = np.zeros((len(T.data["d"]), len(idx)))
    v[idx, np.arange(len(idx))] = 1.0
    return w, v


# imag_tridiagonal -- data: s (n-1) real; the matrix is i S with S real
# antisymmetric, S[j, j+1] = s[j]


def _itri_entries(T):
    s = T.data["s"]
    return 1j * (np.diag(s, 1) - np.diag(s, -1))


def _itri_matvec(T, v):
    s = _column(T.data["s"], v)
    out = np.zeros(v.shape, dtype=complex)
    out[:-1] += s * v[1:]
    out[1:] -= s * v[:-1]
    return 1j * out


def _itri_eig(T, window):
    # i S = D^H J D with J the real symmetric tridiagonal of off-diagonal s
    # and D = diag(i^j), so the eigenvectors are those of J rotated by D^H
    n = T.grid.n
    w, vb = _tridiagonal_eig(np.zeros(n), T.data["s"], window)
    phase = np.power(1j, np.arange(n) % 4)
    return w, np.conj(phase)[:, None] * vb


# dense -- data: mat (n, n) Hermitian


def _dense_eig(T, window):
    w, v = eigh(T.entries)
    if window is None:
        return w, v
    keep = (w >= window[0]) & (w <= window[1])
    return w[keep], v[:, keep]


def _counted(eigvals):
    """The count column of a storage whose eigenvalues cost no more than it."""
    return lambda T, win: len(eigvals(T, win))


def _diag_eigvals(T, win):
    return _select(T.data["d"], win)[0]


def _dense_eigvals(T, win):
    return _select(eigh(T.entries, eigvals_only=True), win)[0]


class _Storage(NamedTuple):
    entries: Callable
    matvec: Callable
    eig: Callable
    eigvals: Callable
    count: Callable


_STORAGE = {
    "tridiagonal": _Storage(
        _tri_entries, _tri_matvec,
        lambda T, win: _tridiagonal_eig(T.data["d"], T.data["e"], win),
        lambda T, win: _tridiagonal_eig(T.data["d"], T.data["e"], win, True),
        lambda T, win: _sturm_count(T.data["d"], T.data["e"], win),
    ),
    "diagonal": _Storage(
        lambda T: np.diag(T.data["d"].astype(float)), _diag_matvec, _diag_eig,
        _diag_eigvals, _counted(_diag_eigvals),
    ),
    "imag_tridiagonal": _Storage(
        _itri_entries, _itri_matvec, _itri_eig,
        lambda T, win: _tridiagonal_eig(np.zeros(T.grid.n), T.data["s"], win, True),
        lambda T, win: _sturm_count(np.zeros(T.grid.n), T.data["s"], win),
    ),
    "dense": _Storage(
        lambda T: T.data["mat"], lambda T, v: T.data["mat"] @ v, _dense_eig,
        _dense_eigvals, _counted(_dense_eigvals),
    ),
}


# ---------------------------------------------------------------------------
# operator container

_VALID_KINDS = ("hamiltonian", "free", "conjugate_A", "weight")


class OperatorMatrix:
    """Hermitian n x n matrix on an n-point grid, with structured storage.

    ``entries`` materializes the dense matrix (guarded by MATERIALIZE_MAX);
    ``matvec`` applies the operator without materializing. All storage
    variants are Hermitian by construction; dense input is validated.
    """

    def __init__(self, grid, kind, label, storage, data):
        if kind not in _VALID_KINDS:
            raise InvariantViolation("operator-kind", f"unknown kind {kind!r}")
        if storage not in _STORAGE:
            raise InvariantViolation("operator-storage", f"unknown storage {storage!r}")
        self.grid = grid
        self.kind = kind
        self.label = label
        self.storage = storage
        self.data = data
        if storage == "dense":
            mat = data["mat"]
            if mat.shape != self.shape:
                raise InvariantViolation(
                    "operator-dimension", "dense matrix does not match grid size"
                )
            scale = max(np.linalg.norm(mat), 1.0)
            if np.linalg.norm(mat - mat.conj().T) > 1e-12 * scale:
                raise InvariantViolation(
                    "operator-hermiticity", "dense matrix is not Hermitian to 1e-12"
                )

    @property
    def shape(self):
        return (self.grid.n, self.grid.n)

    @property
    def entries(self):
        n = self.grid.n
        if n > MATERIALIZE_MAX:
            raise InvariantViolation(
                "materialization-size",
                f"refusing to materialize {n}x{n} dense entries "
                f"(limit {MATERIALIZE_MAX}); use matvec or the structured data",
            )
        return _STORAGE[self.storage].entries(self)

    def matvec(self, vec):
        """Apply the operator to a vector or a stack of column vectors."""
        return _STORAGE[self.storage].matvec(self, np.asarray(vec))


def eig_full(T):
    """Full eigendecomposition of an OperatorMatrix; returns (w, V).

    V's columns are orthonormal eigenvectors; V may be complex for storage
    kinds with complex entries.
    """
    return _STORAGE[T.storage].eig(T, None)


def eig_window(T, lo, hi):
    """Eigenpairs of T with eigenvalues in [lo, hi]; returns (w, V).

    Uses the windowed tridiagonal solver where the storage allows, never
    forming a dense matrix for structured input.
    """
    return _STORAGE[T.storage].eig(T, (lo, hi))


def eigvals_window(T, lo, hi):
    """Eigenvalues of T in [lo, hi], ascending, without eigenvectors.

    For tridiagonal storage they are bit-identical to eig_window's.
    """
    return _STORAGE[T.storage].eigvals(T, (lo, hi))


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
    return OperatorMatrix(grid, "free", "h0", "tridiagonal", {"d": d, "e": e})


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
    return OperatorMatrix(
        grid,
        "hamiltonian",
        f"h_alpha[{alpha_channel:g}]",
        "tridiagonal",
        {"d": d, "e": e},
    )


def build_schrodinger(grid, V):
    """Hamiltonian H = H0 + V(Q), V a diagonal perturbation of H0."""
    if V is None:
        return build_h0(grid)
    _require_box(grid)
    vvals = np.atleast_1d(np.asarray(eval_potential(V, grid.x), dtype=float))
    h = grid.h
    d = 2.0 / h**2 + vvals
    e = np.full(grid.n - 1, -1.0 / h**2)
    return OperatorMatrix(grid, "hamiltonian", "h", "tridiagonal", {"d": d, "e": e})


def build_conjugate_A(grid):
    """Generator of dilations (P x + x P)/2 via the central difference.

    Realized as the purely off-diagonal Hermitian matrix with
    A[j, j+1] = -i (x_j + x_{j+1}) / (4h); the sign is fixed by requiring
    <f, [H0, iA] f> approximately equal to <f, 2 H0 f> on interior wave
    packets.
    """
    if grid.kind == "periodic":
        raise InvariantViolation(
            "conjugate-grid", "the dilation generator needs a non-periodic grid"
        )
    x = grid.x
    s = -(x[:-1] + x[1:]) / (4.0 * grid.h)
    return OperatorMatrix(grid, "conjugate_A", "A", "imag_tridiagonal", {"s": s})


def build_weight(grid, s, operator_basis=None):
    """Weight <Q>^(-s) as a diagonal matrix, or <T>^(-s) for a supplied T.

    With an operator basis the weight is exact functional calculus on T's
    eigendecomposition (dense result).
    """
    if s < 0:
        raise InvariantViolation("weight-exponent", f"need s >= 0, got {s}")
    if operator_basis is None:
        d = (1.0 + grid.x**2) ** (-s / 2.0)
        return OperatorMatrix(grid, "weight", f"<Q>^-{s:g}", "diagonal", {"d": d})
    if operator_basis.shape[0] > MATERIALIZE_MAX:
        raise InvariantViolation(
            "materialization-size",
            "operator-basis weights produce dense matrices; grid too large",
        )
    w, v = eig_full(operator_basis)
    vals = (1.0 + w**2) ** (-s / 2.0)
    mat = (v * vals) @ v.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    return OperatorMatrix(
        operator_basis.grid,
        "weight",
        f"<{operator_basis.label}>^-{s:g}",
        "dense",
        {"mat": mat},
    )
