"""Pointwise evaluators for the potential families used throughout the package.

Everything here is a pure function of an immutable spec: oscillating tails
w(1-kappa(|x|))|x|^(-beta) sin(k|x|^alpha), the explicit 1D and 3D-radial
potentials with a known bound state embedded at energy 1, truncated
resonant-bump series on the half-line, sampled short/long-range parts, and
the spec of the psi weight of the weighted commutator check.

Derivatives that feed residual checks are hand-derived closed forms (tests
compare them against Richardson finite differences); none of the evaluators
differentiate numerically.

A potential spec's fields are also its JSON schema: each field's annotation
converts the value of its key and the field's default is the key's default.
The decoder that reads them checks the command-line configs; a document's
selector key (a potential's kind, a command's variant) picks its table first.
"""

import numbers
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

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
class CustomSample:
    """Arbitrary real potential given by samples on a grid (linear interpolation)."""

    x: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.x) != len(self.values) or len(self.x) < 2:
            raise InvariantViolation(
                "sample-shape", "need matching x/values arrays of length >= 2"
            )
        if np.any(np.diff(self.x) <= 0):
            raise InvariantViolation("sample-order", "sample x grid must be increasing")
        if not np.all(np.isfinite(self.values)):
            raise InvariantViolation("finite-samples", "sample values must be finite")


@dataclass(frozen=True)
class ShortRangeSample(CustomSample):
    """Short-range part sampled on a grid, with its decay exponent rho_sr."""

    rho_sr: float

    def __post_init__(self):
        super().__post_init__()
        if not self.rho_sr > 0:
            raise InvariantViolation(
                "rho-sr-positivity", f"rho_sr must be > 0, got {self.rho_sr}"
            )


@dataclass(frozen=True)
class LongRangeSample(CustomSample):
    """Long-range part sampled on a grid, with decay exponents for V and x V'."""

    rho_lr: float
    rho_lr_prime: float

    def __post_init__(self):
        super().__post_init__()
        if not self.rho_lr > 0 or not self.rho_lr_prime > 0:
            raise InvariantViolation(
                "rho-lr-positivity", "rho_lr and rho_lr_prime must be > 0"
            )


def _potentials(value, path):
    """The converter of SumPotential.parts: a list of potential documents."""
    if not isinstance(value, (list, tuple)):
        raise _type_error(path, "a list of potentials")
    return tuple(_decode_potential(v, f"{path}[{i}]") for i, v in enumerate(value))


@dataclass(frozen=True)
class SumPotential:
    """Pointwise sum of a nonempty list of potential specs."""

    parts: _potentials

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.parts) == 0:
            raise InvariantViolation("sum-nonempty", "Sum potential needs >= 1 part")


@dataclass(frozen=True)
class WignerVonNeumann1D:
    """The explicit 1D potential with a bound state at energy 1 (no parameters)."""


@dataclass(frozen=True)
class WignerVonNeumann3DRadial:
    """3D radial version of the same potential, W(x) = V(|x|)."""


@dataclass(frozen=True)
class WeightFunctionSpec:
    """The psi weight of the weighted Mourre check.

    psi(t) = c R int_{-inf}^t <tau>^(-2s) dtau, s > 1/2, R >= 1, c > 0;
    bounded and nondecreasing.
    """

    s: float = 1.0
    R: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not self.s > 0.5:
            raise InvariantViolation("s-range", f"psi needs s > 1/2, got {self.s}")
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
    elif isinstance(spec, CustomSample):
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
# JSON round-trip for potential specs, and the config decoder it runs on

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


def _spec(cls, doc, path):
    """Build a spec dataclass from its JSON object.

    Each field's annotation converts its key's value, and the field's default
    is the key's default.
    """
    table = {}
    for f in fields(cls):
        default = f.default if f.default_factory is MISSING else f.default_factory()
        table[f.name] = (f.type, default)
    return cls(**_decode(doc, table, path))


def _decode(doc, table, path=""):
    """The JSON object doc, checked and converted against table.

    table maps each key to (converter, default). A converter is float, int,
    str or tuple (a JSON number, integer, string or list of numbers), a spec
    dataclass or a nested table (a JSON object), or a callable
    (value, path) -> value. An absent or null key takes its default, and a
    default of dataclasses.MISSING makes the key required. Errors name the key
    by its dotted path below path: param-unknown, param-missing, params-type.
    """
    if not isinstance(doc, dict):
        what = f"param {path!r}" if path else "params"
        raise InvariantViolation("params-type", f"{what} must be an object")
    prefix = path + "." if path else ""
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise InvariantViolation(
            "param-unknown",
            f"unknown param {prefix + unknown[0]!r}; "
            f"known: {', '.join(prefix + k for k in table) or 'none'}",
        )
    decoded = {}
    for key, (convert, default) in table.items():
        value = doc.get(key)
        if value is not None:
            decoded[key] = _convert(convert, value, prefix + key)
        elif default is MISSING:
            raise InvariantViolation(
                "param-missing", f"missing required param {prefix + key!r}"
            )
        else:
            decoded[key] = default
    return decoded


def _variants(key, tables, invariant, default=MISSING):
    """The converter of a JSON object whose key, read first as (str, default),
    names its variant in tables: a table, whose decoded object keeps key, or
    a spec dataclass. A name outside tables raises invariant."""

    def decode(doc, path):
        head = {key: doc.get(key)} if isinstance(doc, dict) else doc
        name = _decode(head, {key: (str, default)}, path)[key]
        if name not in tables:
            raise InvariantViolation(
                invariant, f"unknown {key} {name!r}; known: {', '.join(tables)}"
            )
        rest = {k: v for k, v in doc.items() if k != key}
        if is_dataclass(tables[name]):
            return _spec(tables[name], rest, path)
        return {key: name, **_decode(rest, tables[name], path)}

    return decode


_decode_potential = _variants("kind", _KIND_TO_CLS, "potential-kind")


def _convert(convert, value, path):
    if isinstance(convert, dict):
        return _decode(value, convert, path)
    if is_dataclass(convert):
        return _spec(convert, value, path)
    return _CONVERTERS.get(convert, convert)(value, path)


def _type_error(path, shape):
    return InvariantViolation("params-type", f"param {path!r} must be {shape}")


def _is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _number(value, path):
    if not _is_number(value):
        raise _type_error(path, "a number")
    return float(value)


def _integer(value, path):
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise _type_error(path, "an integer")
    return int(value)


def _text(value, path):
    if not isinstance(value, str):
        raise _type_error(path, "a string")
    return value


def _floats(value, path, pair=False):
    """A list of numbers as a tuple of floats; a pair when pair is set."""
    if isinstance(value, (list, tuple)) and (not pair or len(value) == 2):
        if all(_is_number(v) for v in value):
            return tuple(float(v) for v in value)
    raise _type_error(path, f"{'a pair' if pair else 'a list'} of numbers")


_CONVERTERS = {float: _number, int: _integer, str: _text, tuple: _floats}
