"""Embedded-eigenvalue constructions.

Three families:

* residual verification of the explicit 1D and 3D-radial potentials with a
  bound state at energy 1 (closed-form derivative oracles, no finite
  differences);
* a relativistic (Klein-Gordon type) construction on a periodic grid, where
  the potential is defined through Fourier multipliers so that
  sqrt(P^2+m^2) - m has the eigenvalue sqrt(1+m^2) - m;
* the inverse construction for radial Dirac channels: prescribe a spinor
  profile u, transport it with exp(rM), and solve for the scalar and
  anomalous-magnetic potentials that make it an eigenvector.
"""

from dataclasses import dataclass, replace
import csv

import numpy as np

from ._smooth import smoothstep_quintic, smoothstep_quintic_prime
from .discretize import Grid1D, halfline_grid
from .errors import InvariantViolation
from .potentials import eval_wvn_3d, eval_wvn_bound_state, eval_wvn_potential

__all__ = [
    "DiracChannelSpec",
    "DiracConstruction",
    "DiracLimitReport",
    "KgConstruction",
    "verify_wvn_1d",
    "verify_wvn_3d",
    "kg_construct",
    "dirac_build_u",
    "dirac_solve_potential",
    "dirac_solve_from_profiles",
    "dirac_residual",
    "dirac_check_limits",
    "dirac_default_grid",
    "dirac_to_csv",
    "kg_to_csv",
    "dirac_summary",
    "kg_summary",
]


# ---------------------------------------------------------------------------
# explicit 1D / 3D-radial residual checks


def verify_wvn_1d(x_max, step, v_shift=0.0):
    """Max of |-f'' + V f - f| over [0, x_max] with analytic derivatives.

    ``v_shift`` adds a constant to V (negative control: the identity must
    degrade by about |shift| * max|f|).
    """
    if not (x_max > 0 and step > 0):
        raise InvariantViolation("grid-extent", "x_max and step must be > 0")
    x = np.arange(0.0, x_max + 0.5 * step, step)
    f, _, fpp = eval_wvn_bound_state(x)
    v = eval_wvn_potential(x) + v_shift
    return float(np.max(np.abs(-fpp + v * f - f)))


def verify_wvn_3d(r_max, step, v_shift=0.0):
    """Max radial residual |-u'' - (2/r) u' + W u - u| over (0, r_max]."""
    if not (r_max > 0 and step > 0):
        raise InvariantViolation("grid-extent", "r_max and step must be > 0")
    r = np.arange(step, r_max + 0.5 * step, step)
    vals = eval_wvn_3d(r)
    resid = -vals.fpp - 2.0 / r * vals.fp + (vals.W + v_shift) * vals.f - vals.f
    return float(np.max(np.abs(resid)))


# ---------------------------------------------------------------------------
# Klein-Gordon type construction on a periodic grid

# The profile g(x) = a (2x - sin 2x) keeps g' >= 0 and g odd for any a > 0.
# With a = 1 the Fourier-transformed profile k(x) changes sign near |x| ~ 1.1
# and 1.9, which puts genuine poles into V; a = 0.5 keeps k strictly positive
# (it stays positive for a <= 0.6) while every structural property the
# construction relies on is preserved.
_KG_AMPLITUDE = 0.5


@dataclass(frozen=True)
class KgConstruction:
    """Record of the relativistic construction on a periodic grid."""

    grid: Grid1D
    m: float
    lam: float
    h: np.ndarray
    k_fn: np.ndarray
    f: np.ndarray
    V: np.ndarray
    residual_max: float
    v_bracket_bound: float


def kg_construct(m, grid):
    """Build the potential V with (sqrt(P^2+m^2) - m + V) f = lambda f.

    f = k * sin with k the inverse Fourier image of
    (sqrt((xi+1)^2+m^2) + sqrt((xi-1)^2+m^2)) applied to (1+g^2)^(-1), and
    lambda = sqrt(1+m^2) - m. V = lambda - (Tf)/f away from the zeros of
    sin; inside a 3-step neighborhood of each zero the quotient is
    evaluated by a local quadratic fit (both numerator and denominator
    vanish there; the quotient itself stays smooth).
    """
    if not m > 0:
        raise InvariantViolation("mass-positivity", f"need m > 0, got {m}")
    if grid.kind != "periodic":
        raise InvariantViolation("kg-grid", "construction needs a periodic grid")
    if 2.0 * grid.L < 200.0:
        raise InvariantViolation("kg-grid", "need box length >= 200")
    if grid.n / (2.0 * grid.L) < 16.0:
        raise InvariantViolation("kg-grid", "need >= 16 points per unit length")
    lam = float(np.sqrt(1.0 + m * m) - m)
    x = grid.x
    n = grid.n
    step = grid.h
    g = _KG_AMPLITUDE * (2.0 * x - np.sin(2.0 * x))
    hfun = 1.0 / (1.0 + g * g)
    xi = grid.xi
    bmult = np.sqrt((xi + 1.0) ** 2 + m * m) + np.sqrt((xi - 1.0) ** 2 + m * m)
    k_fn = np.fft.ifft(bmult * np.fft.fft(hfun)).real
    f = k_fn * np.sin(x)
    tmult = np.sqrt(xi * xi + m * m) - m
    tf = np.fft.ifft(tmult * np.fft.fft(f)).real

    v = np.empty(n)
    nearest = np.round(x / np.pi)
    patched = np.abs(x - nearest * np.pi) <= 3.0 * step + 1e-15
    good = ~patched
    if np.any(np.abs(f[good]) < 1e-12):
        raise InvariantViolation(
            "kg-division-guard",
            "f vanished away from the recognized sine zeros; "
            "the quotient V is numerically unstable on this grid",
        )
    v[good] = lam - tf[good] / f[good]
    for z in np.unique(nearest[patched]):
        idx = np.where(patched & (nearest == z))[0]
        lo, hi = idx.min(), idx.max()
        ring = np.r_[lo - 3 : lo, hi + 1 : hi + 4]
        ring = ring[(ring >= 0) & (ring < n)]
        t = x[ring] - z * np.pi
        q = lam - tf[ring] / f[ring]
        coef, *_ = np.linalg.lstsq(np.vander(t, 3), q, rcond=None)
        v[idx] = np.vander(x[idx] - z * np.pi, 3) @ coef

    resid = np.abs(tf + v * f - lam * f)
    interior = np.abs(x) <= 0.8 * grid.L
    residual_max = float(resid[interior].max())
    inner = np.abs(x) <= 0.9 * grid.L
    v_bracket = float((np.abs(v) * np.sqrt(1.0 + x * x))[inner].max())
    return KgConstruction(
        grid=grid,
        m=float(m),
        lam=lam,
        h=hfun,
        k_fn=k_fn,
        f=f,
        V=v,
        residual_max=residual_max,
        v_bracket_bound=v_bracket,
    )


# ---------------------------------------------------------------------------
# Dirac inverse construction


@dataclass(frozen=True)
class DiracChannelSpec:
    """Parameters of one radial Dirac channel construction.

    phi_el selects the electric potential: "bracket" for <r>^(-1), "zero",
    or any callable of the radius (finite at 0, tending to 0 at infinity).
    """

    m: float
    lam: float
    kappa_rho: int
    u_decay: float = 1.0
    match_radius: float = 1.0
    phi_el: object = "bracket"

    def __post_init__(self):
        if self.m < 0:
            raise InvariantViolation("mass-nonnegative", f"need m >= 0, got {self.m}")
        if not abs(self.lam) > self.m:
            raise InvariantViolation(
                "lambda-above-mass", f"need |lambda| > m, got lam={self.lam}, m={self.m}"
            )
        if int(self.kappa_rho) != self.kappa_rho or self.kappa_rho == 0:
            raise InvariantViolation(
                "kappa-nonzero", "kappa_rho must be a nonzero integer"
            )
        if not self.u_decay > 0.5:
            raise InvariantViolation(
                "u-decay-range", f"need u_decay > 1/2, got {self.u_decay}"
            )
        if not self.match_radius > 0:
            raise InvariantViolation(
                "match-radius-positivity", "match_radius must be > 0"
            )
        if isinstance(self.phi_el, str) and self.phi_el not in ("bracket", "zero"):
            raise InvariantViolation(
                "phi-el-kind", f"unknown phi_el option {self.phi_el!r}"
            )

    def eval_phi_el(self, r):
        r = np.asarray(r, dtype=float)
        if callable(self.phi_el):
            return np.asarray(self.phi_el(r), dtype=float)
        if self.phi_el == "zero":
            return np.zeros_like(r)
        return 1.0 / np.sqrt(1.0 + r * r)


@dataclass(frozen=True)
class DiracConstruction:
    """Full record of one Dirac channel construction on its grid."""

    grid: Grid1D
    spec: DiracChannelSpec
    u1: np.ndarray
    u2: np.ndarray
    u1p: np.ndarray
    u2p: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    phi_sc: np.ndarray
    phi_am: np.ndarray
    phi_el: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    residual_max: float


def dirac_default_grid():
    """Default channel grid: (0, 200] with step 1e-3 (first point at the step)."""
    return halfline_grid(200.0, 1e-3)


def _exp_rM_arrays(spec, r):
    """Entries (c, kp*s, km*s) of exp(rM) = [[c, kp*s], [km*s, c]] over r.

    M = [[0, kp], [km, 0]] with kp = m + lam, km = m - lam, so M^2 =
    (m^2 - lam^2) I and, for lam^2 > m^2, exp(rM) is a rotation-type matrix
    of frequency omega = sqrt(lam^2 - m^2): c = cos(omega r), s =
    sin(omega r)/omega, and det exp(rM) = 1 (trace M = 0).
    """
    kp, km = spec.m + spec.lam, spec.m - spec.lam
    disc = spec.lam**2 - spec.m**2  # > 0 by the spec invariant
    om = np.sqrt(disc)
    c = np.cos(om * r)
    s = np.sin(om * r) / om
    return c, kp * s, km * s


def dirac_build_u(spec, grid):
    """Blended spinor profile u and its analytic derivative on the grid.

    Below match_radius/2 the profile is the exact near-origin power law
    ((0, r^kappa) for kappa > 0, (r^(-kappa), 0) for kappa < 0); above
    2*match_radius it is (r^(-delta), r^(-delta)); between, a quintic
    smoothstep blend with the differentiated blend weight.
    """
    r = grid.x
    if not (grid.kind == "halfline" and r[0] > 0):
        raise InvariantViolation("dirac-grid", "construction needs a halfline grid")
    if not (grid.x[0] < spec.match_radius < grid.L):
        raise InvariantViolation(
            "match-radius-inside", "match_radius must lie inside the grid"
        )
    lo, hi = 0.5 * spec.match_radius, 2.0 * spec.match_radius
    t = (r - lo) / (hi - lo)
    s = smoothstep_quintic(t)
    ds = smoothstep_quintic_prime(t) / (hi - lo)
    kap = float(spec.kappa_rho)
    if kap > 0:
        un1, un2 = np.zeros_like(r), r**kap
        dn1, dn2 = np.zeros_like(r), kap * r ** (kap - 1.0)
    else:
        un1, un2 = r ** (-kap), np.zeros_like(r)
        dn1, dn2 = -kap * r ** (-kap - 1.0), np.zeros_like(r)
    d = spec.u_decay
    uf = r ** (-d)
    df = -d * r ** (-d - 1.0)
    u1 = (1.0 - s) * un1 + s * uf
    u2 = (1.0 - s) * un2 + s * uf
    u1p = (1.0 - s) * dn1 + s * df + ds * (uf - un1)
    u2p = (1.0 - s) * dn2 + s * df + ds * (uf - un2)
    if np.any(u1 * u1 + u2 * u2 <= 0.0):
        raise InvariantViolation(
            "u-nonvanishing",
            "u1^2 + u2^2 vanished on the grid; change match_radius",
        )
    return u1, u2, u1p, u2p


def dirac_solve_potential(spec, grid=None):
    """Run the full inverse construction for one channel.

    v = exp(rM) u; w = [[0,1],[-1,0]] exp(rM) u' (the real form of the
    i sigma_2 factor); then phi_sc and phi_am are solved from the two linear
    conditions, and f = v is the bound state. The returned record carries
    the residual of the first-order system, evaluated with the analytic
    derivative f' = M f + exp(rM) u'.
    """
    if grid is None:
        grid = dirac_default_grid()
    u1, u2, u1p, u2p = dirac_build_u(spec, grid)
    return dirac_solve_from_profiles(spec, grid, u1, u2, u1p, u2p)


def dirac_solve_from_profiles(spec, grid, u1, u2, u1p, u2p):
    """Inverse construction from explicitly supplied profiles (u, u')."""
    r = grid.x
    c, kps, kms = _exp_rM_arrays(spec, r)
    v1 = c * u1 + kps * u2
    v2 = kms * u1 + c * u2
    z1 = c * u1p + kps * u2p
    z2 = kms * u1p + c * u2p
    w1, w2 = z2, -z1
    n2 = v1 * v1 + v2 * v2
    if np.any(n2 <= 1e-280):
        raise InvariantViolation(
            "v-nonvanishing", "v1^2 + v2^2 underflowed on the grid"
        )
    pe = spec.eval_phi_el(r)
    kap = float(spec.kappa_rho)
    phi_sc = (v1 * w1 - v2 * w2) / n2 + (v2 * v2 - v1 * v1) / n2 * pe
    phi_am = (v1 * w2 + v2 * w1) / n2 - 2.0 * v1 * v2 / n2 * pe - kap / r
    cons = DiracConstruction(
        grid=grid,
        spec=spec,
        u1=u1,
        u2=u2,
        u1p=u1p,
        u2p=u2p,
        v1=v1,
        v2=v2,
        w1=w1,
        w2=w2,
        phi_sc=phi_sc,
        phi_am=phi_am,
        phi_el=pe,
        f1=v1,
        f2=v2,
        residual_max=0.0,
    )
    return replace(cons, residual_max=dirac_residual(cons, spec))


def dirac_residual(cons, spec):
    """Max over the grid of |D f - lambda f| (Euclidean norm of the 2-vector).

    D is the first-order channel system with the constructed potentials;
    f' is analytic: f' = M f + exp(rM) u'.
    """
    r = cons.grid.x
    c, kps, kms = _exp_rM_arrays(spec, r)
    z1 = c * cons.u1p + kps * cons.u2p
    z2 = kms * cons.u1p + c * cons.u2p
    kp, km = spec.m + spec.lam, spec.m - spec.lam
    df1 = kp * cons.f2 + z1
    df2 = km * cons.f1 + z2
    kap = float(spec.kappa_rho)
    lam = spec.lam
    m = spec.m
    r1 = (
        (m + cons.phi_sc + cons.phi_el) * cons.f1
        + (-df2 + (kap / r + cons.phi_am) * cons.f2)
        - lam * cons.f1
    )
    r2 = (
        (df1 + (kap / r + cons.phi_am) * cons.f1)
        + (-m - cons.phi_sc + cons.phi_el) * cons.f2
        - lam * cons.f2
    )
    return float(np.max(np.hypot(r1, r2)))


@dataclass(frozen=True)
class DiracLimitReport:
    """Boundary behavior of a construction: near-0 finiteness, far decay."""

    phi_sc_at_first: float
    phi_am_at_first: float
    phi_el_at_first: float
    phi_sc_tail_max: float
    phi_am_tail_max: float
    phi_el_tail_max: float
    u_ratio_tail_max: float


def dirac_check_limits(cons):
    """Report near-origin values and last-decade decay of the potentials.

    The tail maxima run over r >= R_max/10; u_ratio is the far-field
    diagnostic ||(u1', u2')|| / ||(u1, u2)|| in the Euclidean norm.
    """
    r = cons.grid.x
    tail = r >= r[-1] / 10.0
    ratio = np.hypot(cons.u1p, cons.u2p) / np.hypot(cons.u1, cons.u2)
    return DiracLimitReport(
        phi_sc_at_first=float(cons.phi_sc[0]),
        phi_am_at_first=float(cons.phi_am[0]),
        phi_el_at_first=float(cons.phi_el[0]),
        phi_sc_tail_max=float(np.max(np.abs(cons.phi_sc[tail]))),
        phi_am_tail_max=float(np.max(np.abs(cons.phi_am[tail]))),
        phi_el_tail_max=float(np.max(np.abs(cons.phi_el[tail]))),
        u_ratio_tail_max=float(np.max(ratio[tail])),
    )


# ---------------------------------------------------------------------------
# exports


def dirac_to_csv(cons, path):
    """Write the construction arrays as CSV."""
    cols = (
        "r",
        "u1",
        "u2",
        "v1",
        "v2",
        "w1",
        "w2",
        "phi_sc",
        "phi_am",
        "phi_el",
        "f1",
        "f2",
    )
    arrays = (
        cons.grid.x,
        cons.u1,
        cons.u2,
        cons.v1,
        cons.v2,
        cons.w1,
        cons.w2,
        cons.phi_sc,
        cons.phi_am,
        cons.phi_el,
        cons.f1,
        cons.f2,
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in zip(*arrays):
            writer.writerow([f"{val:.17g}" for val in row])


def kg_to_csv(cons, path):
    """Write the construction arrays as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("x", "h", "k_fn", "f", "V"))
        for row in zip(cons.grid.x, cons.h, cons.k_fn, cons.f, cons.V):
            writer.writerow([f"{val:.17g}" for val in row])


def dirac_summary(cons):
    """JSON-ready summary: residual and limit diagnostics."""
    rep = dirac_check_limits(cons)
    return {
        "m": cons.spec.m,
        "lambda": cons.spec.lam,
        "kappa_rho": cons.spec.kappa_rho,
        "u_decay": cons.spec.u_decay,
        "residual_max": cons.residual_max,
        "phi_sc_at_first": rep.phi_sc_at_first,
        "phi_am_at_first": rep.phi_am_at_first,
        "phi_sc_tail_max": rep.phi_sc_tail_max,
        "phi_am_tail_max": rep.phi_am_tail_max,
        "u_ratio_tail_max": rep.u_ratio_tail_max,
    }


def kg_summary(cons):
    """JSON-ready summary: eigenvalue, residual, weighted potential bound."""
    return {
        "m": cons.m,
        "lambda": cons.lam,
        "residual_max": cons.residual_max,
        "v_bracket_bound": cons.v_bracket_bound,
    }
