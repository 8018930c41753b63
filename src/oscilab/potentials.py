"""Pointwise evaluators for the potential families used throughout the package.

Everything here is a pure function of an immutable spec: oscillating tails
w(1-kappa(|x|))|x|^(-beta) sin(k|x|^alpha), the explicit 1D and 3D-radial
potentials with a known bound state embedded at energy 1, truncated
resonant-bump series on the half-line, sampled short/long-range parts, and
the specs of the scalar weight functions used by the commutator diagnostics.

Derivatives that feed residual checks are hand-derived closed forms (tests
compare them against Richardson finite differences); none of the evaluators
differentiate numerically.
"""

from dataclasses import dataclass, field

import numpy as np

from ._smooth import smoothstep_quintic
from .errors import InvariantViolation

__all__ = [
    "CutoffSpec",
    "OscillatingSpec",
    "SimonSeriesSpec",
    "ShortRangeSample",
    "LongRangeSample",
    "SumPotential",
    "CustomSample",
    "WignerVonNeumann1D",
    "WignerVonNeumann3DRadial",
    "WeightFunctionSpec",
    "WvnRadialValues",
    "SimonBoundReport",
    "eval_cutoff",
    "eval_oscillating_radial",
    "eval_wvn_potential",
    "eval_wvn_bound_state",
    "eval_wvn_3d",
    "eval_simon_series",
    "eval_potential",
    "check_simon_envelope",
    "potential_to_json",
    "potential_from_json",
]


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class CutoffSpec:
    """Radial cutoff kappa: 1 on [0, inner_radius], 0 beyond outer_radius.

    The transition is a quintic smoothstep, C^2 and monotone nonincreasing.
    """

    inner_radius: float = 1.0
    outer_radius: float = 2.0

    def __post_init__(self):
        if not self.inner_radius > 0:
            raise InvariantViolation(
                "cutoff-inner-positivity",
                f"inner_radius must be > 0, got {self.inner_radius}",
            )
        if not self.outer_radius > self.inner_radius:
            raise InvariantViolation(
                "cutoff-ordering",
                f"outer_radius ({self.outer_radius}) must exceed "
                f"inner_radius ({self.inner_radius})",
            )


@dataclass(frozen=True)
class OscillatingSpec:
    """Oscillating tail w (1 - kappa(|x|)) |x|^(-beta) sin(k |x|^alpha)."""

    w: float
    k: float
    alpha: float
    beta: float
    cutoff: CutoffSpec = field(default_factory=CutoffSpec)

    def __post_init__(self):
        if self.w == 0:
            raise InvariantViolation("w-nonzero", "strength w must be nonzero")
        if self.k == 0:
            raise InvariantViolation("k-nonzero", "frequency k must be nonzero")
        if not self.alpha > 0:
            raise InvariantViolation(
                "alpha-positivity", f"alpha must be > 0, got {self.alpha}"
            )
        if not self.beta > 0:
            raise InvariantViolation(
                "beta-positivity", f"beta must be > 0, got {self.beta}"
            )


@dataclass(frozen=True)
class SimonSeriesSpec:
    """Truncated half-line series of resonant tails 4 kappa_n sin(2 kappa_n x + phi_n)/x.

    ``core_samples`` holds a real function sampled uniformly on [0, 1]
    (linearly interpolated, zero outside); each tail switches on at x > R_n.
    """

    kappas: tuple
    radii: tuple
    phases: tuple
    core_samples: tuple = ()
    truncation_count: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kappas", tuple(float(v) for v in self.kappas))
        object.__setattr__(self, "radii", tuple(float(v) for v in self.radii))
        object.__setattr__(self, "phases", tuple(float(v) for v in self.phases))
        object.__setattr__(
            self, "core_samples", tuple(float(v) for v in self.core_samples)
        )
        if self.truncation_count < 1:
            raise InvariantViolation(
                "truncation-count", "truncation_count must be >= 1"
            )
        n = self.truncation_count
        if min(len(self.kappas), len(self.radii), len(self.phases)) < n:
            raise InvariantViolation(
                "series-length",
                "kappas, radii, phases must each have length >= truncation_count",
            )
        ks = self.kappas[:n]
        if any(k <= 0 for k in ks) or len(set(ks)) != n:
            raise InvariantViolation(
                "kappa-distinct-positive",
                "kappas must be pairwise distinct and positive",
            )
        rs = self.radii[:n]
        if any(r <= 0 for r in rs) or any(b <= a for a, b in zip(rs, rs[1:])):
            raise InvariantViolation(
                "radii-increasing", "radii must be positive and strictly increasing"
            )


@dataclass(frozen=True)
class ShortRangeSample:
    """Short-range part sampled on a grid, with its decay exponent rho_sr."""

    x: tuple
    values: tuple
    rho_sr: float

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        _check_samples(self.x, self.values)
        if not self.rho_sr > 0:
            raise InvariantViolation(
                "rho-sr-positivity", f"rho_sr must be > 0, got {self.rho_sr}"
            )


@dataclass(frozen=True)
class LongRangeSample:
    """Long-range part sampled on a grid, with decay exponents for V and x V'."""

    x: tuple
    values: tuple
    rho_lr: float
    rho_lr_prime: float

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        _check_samples(self.x, self.values)
        if not self.rho_lr > 0 or not self.rho_lr_prime > 0:
            raise InvariantViolation(
                "rho-lr-positivity", "rho_lr and rho_lr_prime must be > 0"
            )


@dataclass(frozen=True)
class SumPotential:
    """Pointwise sum of a nonempty list of potential specs."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.parts) == 0:
            raise InvariantViolation("sum-nonempty", "Sum potential needs >= 1 part")


@dataclass(frozen=True)
class CustomSample:
    """Arbitrary real potential given by samples on a grid (linear interpolation)."""

    x: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        _check_samples(self.x, self.values)


@dataclass(frozen=True)
class WignerVonNeumann1D:
    """The explicit 1D potential with a bound state at energy 1 (no parameters)."""


@dataclass(frozen=True)
class WignerVonNeumann3DRadial:
    """3D radial version of the same potential, W(x) = V(|x|)."""


def _check_samples(x, values):
    if len(x) != len(values) or len(x) < 2:
        raise InvariantViolation(
            "sample-shape", "need matching x/values arrays of length >= 2"
        )
    xa = np.asarray(x)
    if np.any(np.diff(xa) <= 0):
        raise InvariantViolation("sample-order", "sample x grid must be increasing")
    if not np.all(np.isfinite(values)):
        raise InvariantViolation("finite-samples", "sample values must be finite")


@dataclass(frozen=True)
class WeightFunctionSpec:
    """Scalar weight function: one of g_delta, psi, or bracket_power.

    * g_delta(x) = (2 - <x>^(-delta)) <x>^(-1), delta in (0, 1); always >= <x>^(-1).
    * psi(t) = c R int_{-inf}^t <tau>^(-2s) dtau, s > 1/2, R >= 1, c > 0;
      bounded and nondecreasing.
    * bracket_power(s)(t) = (1 + t^2)^(-s/2).
    """

    kind: str
    delta: float = 0.5
    s: float = 1.0
    R: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in ("g_delta", "psi", "bracket_power"):
            raise InvariantViolation(
                "weight-kind", f"unknown weight kind {self.kind!r}"
            )
        if self.kind == "g_delta" and not (0.0 < self.delta < 1.0):
            raise InvariantViolation(
                "delta-range", f"delta must lie in (0,1), got {self.delta}"
            )
        if self.kind == "psi":
            if not self.s > 0.5:
                raise InvariantViolation(
                    "s-range", f"psi needs s > 1/2, got {self.s}"
                )
            if not self.R >= 1.0:
                raise InvariantViolation("R-range", f"psi needs R >= 1, got {self.R}")
            if not self.c > 0.0:
                raise InvariantViolation("c-positivity", f"psi needs c > 0, got {self.c}")


# ---------------------------------------------------------------------------
# evaluators


def eval_cutoff(spec, r):
    """Evaluate the radial cutoff kappa at r >= 0.

    Exactly 1 for r <= inner_radius, exactly 0 for r >= outer_radius, and a
    C^2 quintic blend in between (value 1/2 at the midpoint).
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("cutoff argument must be >= 0")
    t = (r - spec.inner_radius) / (spec.outer_radius - spec.inner_radius)
    return 1.0 - smoothstep_quintic(t)


def eval_oscillating_radial(spec, r):
    """Oscillating tail as a function of the radius r = |x| (vectorized).

    Returns exactly 0 where r <= inner_radius, so the |x|^(-beta) singularity
    never evaluates there.
    """
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    out = np.zeros_like(r)
    live = r > spec.cutoff.inner_radius
    if np.any(live):
        rl = r[live]
        out[live] = (
            spec.w
            * (1.0 - eval_cutoff(spec.cutoff, rl))
            * rl ** (-spec.beta)
            * np.sin(spec.k * rl**spec.alpha)
        )
    return float(out[0]) if scalar else out


def _wvn_pieces(x):
    x = np.asarray(x, dtype=float)
    s = np.sin(x)
    s2 = np.sin(2.0 * x)
    g = 2.0 * x - s2
    gp = 2.0 - 2.0 * np.cos(2.0 * x)  # = 4 sin^2 x
    gpp = 4.0 * s2
    den = 1.0 + g * g
    return s, s2, g, gp, gpp, den


def eval_wvn_potential(x):
    """The explicit even potential V with -f'' + V f = f for f = sin(x)/(1+g(x)^2).

    Here g(x) = 2x - sin(2x).  V is bounded by C <x>^(-1); tests report C.
    """
    x = np.asarray(x, dtype=float)
    s, s2, g, _, _, den = _wvn_pieces(x)
    v = -16.0 * g * s2 / den - 32.0 * (1.0 - 3.0 * g * g) * s**4 / den**2
    return float(v) if v.ndim == 0 else v


def eval_wvn_bound_state(x):
    """Bound state f(x) = sin(x)/(1+g(x)^2) with analytic f' and f''.

    Returns (f, f', f'').  These closed forms are the oracle for the
    residual check -f'' + V f - f = 0.
    """
    x = np.asarray(x, dtype=float)
    s, _, g, gp, gpp, den = _wvn_pieces(x)
    c = np.cos(x)
    dp = 2.0 * g * gp
    dpp = 2.0 * gp * gp + 2.0 * g * gpp
    f = s / den
    fp = c / den - s * dp / den**2
    fpp = (
        -s / den
        - 2.0 * c * dp / den**2
        - s * dpp / den**2
        + 2.0 * s * dp * dp / den**3
    )
    if f.ndim == 0:
        return float(f), float(fp), float(fpp)
    return f, fp, fpp


@dataclass(frozen=True)
class WvnRadialValues:
    """Radial potential and bound-state values at one or more radii.

    f is sin(r)/(r (1+g(r)^2)) with analytic first and second radial
    derivatives, the ingredients of the residual -f'' - (2/r) f' + W f - f.
    """

    W: object
    f: object
    fp: object
    fpp: object


def eval_wvn_3d(r):
    """3D-radial potential W(r) = V(r) and radial bound-state derivatives.

    Requires r > 0 elementwise except that r = 0 is mapped to the finite
    limit f -> 1 (with W = 0, f' -> 0 there by symmetry).
    """
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r).astype(float)
    if np.any(r < 0):
        raise ValueError("radius must be >= 0")
    W = eval_wvn_potential(r)
    W = np.atleast_1d(W)
    f = np.empty_like(r)
    fp = np.empty_like(r)
    fpp = np.empty_like(r)
    pos = r > 0
    if np.any(pos):
        rp = r[pos]
        f1, f1p, f1pp = eval_wvn_bound_state(rp)
        f1, f1p, f1pp = np.atleast_1d(f1), np.atleast_1d(f1p), np.atleast_1d(f1pp)
        f[pos] = f1 / rp
        fp[pos] = f1p / rp - f1 / rp**2
        fpp[pos] = f1pp / rp - 2.0 * f1p / rp**2 + 2.0 * f1 / rp**3
    if np.any(~pos):
        # sin(r)/r -> 1 and the odd symmetry kills the first derivative
        f[~pos] = 1.0
        fp[~pos] = 0.0
        fpp[~pos] = np.nan  # second derivative at the origin is not needed
        W[~pos] = 0.0
    if scalar:
        return WvnRadialValues(float(W[0]), float(f[0]), float(fp[0]), float(fpp[0]))
    return WvnRadialValues(W, f, fp, fpp)


def eval_simon_series(spec, x):
    """Truncated resonant series on the half-line (vectorized in x).

    V(x) = core(x) + 4 sum_{n < truncation_count} kappa_n 1_{x > R_n}
    sin(2 kappa_n x + phi_n) / x.  Each indicator guards x > R_n > 0, so the
    1/x never divides by zero.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(float)
    out = _core_eval(spec.core_samples, x)
    for n in range(spec.truncation_count):
        kap, rn, phi = spec.kappas[n], spec.radii[n], spec.phases[n]
        live = x > rn
        if np.any(live):
            xl = x[live]
            out[live] += 4.0 * kap * np.sin(2.0 * kap * xl + phi) / xl
    return float(out[0]) if scalar else out


def _core_eval(core_samples, x):
    if len(core_samples) == 0:
        return np.zeros_like(x)
    grid = np.linspace(0.0, 1.0, len(core_samples))
    return np.interp(x, grid, np.asarray(core_samples, dtype=float), left=0.0, right=0.0)


def eval_potential(spec, x):
    """Evaluate any potential spec on a 1D coordinate array (elementwise).

    For the oscillating family the coordinate is interpreted as a signed 1D
    position (radius |x|); sampled specs interpolate linearly and vanish
    outside their sample range.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xa = np.atleast_1d(x).astype(float)
    if isinstance(spec, OscillatingSpec):
        out = eval_oscillating_radial(spec, np.abs(xa))
    elif isinstance(spec, WignerVonNeumann1D):
        out = eval_wvn_potential(xa)
    elif isinstance(spec, WignerVonNeumann3DRadial):
        out = np.atleast_1d(eval_wvn_3d(np.abs(xa)).W)
    elif isinstance(spec, SimonSeriesSpec):
        out = eval_simon_series(spec, xa)
    elif isinstance(spec, (ShortRangeSample, LongRangeSample, CustomSample)):
        out = np.interp(
            xa,
            np.asarray(spec.x, dtype=float),
            np.asarray(spec.values, dtype=float),
            left=0.0,
            right=0.0,
        )
    elif isinstance(spec, SumPotential):
        out = np.zeros_like(xa)
        for part in spec.parts:
            out = out + eval_potential(part, xa)
    else:
        raise TypeError(f"not a potential spec: {type(spec).__name__}")
    out = np.atleast_1d(out)
    if not np.all(np.isfinite(out)):
        raise InvariantViolation(
            "finite-evaluation", "potential evaluated to a non-finite value"
        )
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class SimonBoundReport:
    """Result of checking |V(x)| <= envelope(|x|) (1+|x|)^(-1) on a grid."""

    holds: bool
    max_ratio: float
    worst_x: float


def check_simon_envelope(spec, envelope_x, envelope_values, x):
    """Check the decay bound of a truncated series against a supplied envelope.

    ``envelope_x``/``envelope_values`` give a monotone nondecreasing
    piecewise-linear table g; the check verifies
    |V(x)| <= g(|x|) (1+|x|)^(-1) at every grid point and reports the worst
    ratio.  The bound is checked, never assumed.
    """
    ex = np.asarray(envelope_x, dtype=float)
    ev = np.asarray(envelope_values, dtype=float)
    if np.any(np.diff(ex) <= 0):
        raise InvariantViolation(
            "envelope-grid-order", "envelope x table must be increasing"
        )
    if np.any(np.diff(ev) < 0):
        raise InvariantViolation(
            "envelope-monotonicity", "envelope values must be nondecreasing"
        )
    if np.any(ev <= 0):
        raise InvariantViolation(
            "envelope-positivity", "envelope values must be positive"
        )
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.atleast_1d(eval_simon_series(spec, x))
    g = np.interp(np.abs(x), ex, ev)
    ratio = np.abs(v) * (1.0 + np.abs(x)) / g
    i = int(np.argmax(ratio))
    return SimonBoundReport(
        holds=bool(ratio[i] <= 1.0), max_ratio=float(ratio[i]), worst_x=float(x[i])
    )


# ---------------------------------------------------------------------------
# JSON round-trip for potential specs

_KIND_TO_CLS = {
    "oscillating": OscillatingSpec,
    "wvn_1d": WignerVonNeumann1D,
    "wvn_3d_radial": WignerVonNeumann3DRadial,
    "simon_series": SimonSeriesSpec,
    "short_range_sample": ShortRangeSample,
    "long_range_sample": LongRangeSample,
    "sum": SumPotential,
    "custom": CustomSample,
}


def potential_to_json(spec):
    """Serialize a potential spec to a JSON-compatible dict with a "kind" tag."""
    if isinstance(spec, OscillatingSpec):
        return {
            "kind": "oscillating",
            "w": spec.w,
            "k": spec.k,
            "alpha": spec.alpha,
            "beta": spec.beta,
            "cutoff": {
                "inner_radius": spec.cutoff.inner_radius,
                "outer_radius": spec.cutoff.outer_radius,
            },
        }
    if isinstance(spec, WignerVonNeumann1D):
        return {"kind": "wvn_1d"}
    if isinstance(spec, WignerVonNeumann3DRadial):
        return {"kind": "wvn_3d_radial"}
    if isinstance(spec, SimonSeriesSpec):
        return {
            "kind": "simon_series",
            "kappas": list(spec.kappas),
            "radii": list(spec.radii),
            "phases": list(spec.phases),
            "core_samples": list(spec.core_samples),
            "truncation_count": spec.truncation_count,
        }
    if isinstance(spec, ShortRangeSample):
        return {
            "kind": "short_range_sample",
            "x": list(spec.x),
            "values": list(spec.values),
            "rho_sr": spec.rho_sr,
        }
    if isinstance(spec, LongRangeSample):
        return {
            "kind": "long_range_sample",
            "x": list(spec.x),
            "values": list(spec.values),
            "rho_lr": spec.rho_lr,
            "rho_lr_prime": spec.rho_lr_prime,
        }
    if isinstance(spec, SumPotential):
        return {"kind": "sum", "parts": [potential_to_json(p) for p in spec.parts]}
    if isinstance(spec, CustomSample):
        return {"kind": "custom", "x": list(spec.x), "values": list(spec.values)}
    raise TypeError(f"not a potential spec: {type(spec).__name__}")


def potential_from_json(doc):
    """Rebuild a potential spec from its JSON dict (inverse of potential_to_json)."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InvariantViolation(
            "potential-kind", "potential document needs a 'kind' field"
        )
    kind = doc["kind"]
    if kind not in _KIND_TO_CLS:
        raise InvariantViolation("potential-kind", f"unknown potential kind {kind!r}")
    if kind == "oscillating":
        cut = doc.get("cutoff", {})
        return OscillatingSpec(
            w=float(doc["w"]),
            k=float(doc["k"]),
            alpha=float(doc["alpha"]),
            beta=float(doc["beta"]),
            cutoff=CutoffSpec(
                inner_radius=float(cut.get("inner_radius", 1.0)),
                outer_radius=float(cut.get("outer_radius", 2.0)),
            ),
        )
    if kind == "wvn_1d":
        return WignerVonNeumann1D()
    if kind == "wvn_3d_radial":
        return WignerVonNeumann3DRadial()
    if kind == "simon_series":
        return SimonSeriesSpec(
            kappas=tuple(doc["kappas"]),
            radii=tuple(doc["radii"]),
            phases=tuple(doc["phases"]),
            core_samples=tuple(doc.get("core_samples", ())),
            truncation_count=int(doc["truncation_count"]),
        )
    if kind == "short_range_sample":
        return ShortRangeSample(
            x=tuple(doc["x"]), values=tuple(doc["values"]), rho_sr=float(doc["rho_sr"])
        )
    if kind == "long_range_sample":
        return LongRangeSample(
            x=tuple(doc["x"]),
            values=tuple(doc["values"]),
            rho_lr=float(doc["rho_lr"]),
            rho_lr_prime=float(doc["rho_lr_prime"]),
        )
    if kind == "sum":
        return SumPotential(parts=tuple(potential_from_json(p) for p in doc["parts"]))
    return CustomSample(x=tuple(doc["x"]), values=tuple(doc["values"]))
