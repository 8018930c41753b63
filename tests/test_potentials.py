import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscilab.discretize import build_weight, line_grid
from oscilab.errors import InvariantViolation
from oscilab.lap import _br_profile
from oscilab.potentials import (
    CustomSample,
    CutoffSpec,
    LongRangeSample,
    OscillatingSpec,
    ShortRangeSample,
    SimonSeriesSpec,
    SumPotential,
    WeightFunctionSpec,
    WignerVonNeumann1D,
    WignerVonNeumann3DRadial,
    check_simon_envelope,
    eval_cutoff,
    eval_oscillating_radial,
    eval_potential,
    eval_simon_series,
    eval_wvn_3d,
    eval_wvn_bound_state,
    eval_wvn_potential,
    _decode_potential,
)

from conftest import demo_simon, richardson_derivative


# ---------------------------------------------------------------------------
# cutoff


def test_cutoff_plateaus_and_midpoint():
    spec = CutoffSpec()
    assert eval_cutoff(spec, 0.0) == 1.0
    assert eval_cutoff(spec, 1.0) == 1.0
    assert eval_cutoff(spec, 2.0) == 0.0
    assert eval_cutoff(spec, 7.5) == 0.0
    assert eval_cutoff(spec, 1.5) == pytest.approx(0.5, abs=1e-15)


def test_cutoff_monotone_and_bounded():
    spec = CutoffSpec(inner_radius=0.5, outer_radius=3.0)
    r = np.linspace(0.0, 4.0, 4001)
    k = eval_cutoff(spec, r)
    assert np.all(k <= 1.0) and np.all(k >= 0.0)
    assert np.all(np.diff(k) <= 1e-15)


def test_cutoff_rejects_negative_radius():
    with pytest.raises(ValueError):
        eval_cutoff(CutoffSpec(), -0.1)


def test_cutoff_spec_validation():
    with pytest.raises(InvariantViolation) as err:
        CutoffSpec(inner_radius=2.0, outer_radius=1.0)
    assert err.value.invariant == "cutoff-ordering"
    with pytest.raises(InvariantViolation) as err:
        CutoffSpec(inner_radius=0.0)
    assert err.value.invariant == "cutoff-inner-positivity"


# ---------------------------------------------------------------------------
# oscillating tails


def test_oscillating_closed_form_outside_cutoff():
    spec = OscillatingSpec(w=3.0, k=1.0, alpha=2.0, beta=0.5)
    want = 3.0 * 4.0 ** (-0.5) * np.sin(16.0)
    assert eval_oscillating_radial(spec, 4.0) == pytest.approx(want, rel=1e-14)
    assert eval_potential(spec, 4.0) == pytest.approx(want, rel=1e-14)
    assert eval_potential(spec, -4.0) == pytest.approx(want, rel=1e-14)


def test_oscillating_vanishes_inside_cutoff():
    spec = OscillatingSpec(w=2.0, k=2.0, alpha=1.0, beta=1.0)
    r = np.linspace(0.0, 1.0, 101)
    assert np.all(eval_oscillating_radial(spec, r) == 0.0)


def test_oscillating_envelope_bound():
    spec = OscillatingSpec(w=2.5, k=3.0, alpha=1.5, beta=0.8)
    r = np.linspace(0.0, 200.0, 20001)
    v = eval_oscillating_radial(spec, r)
    live = r > spec.cutoff.inner_radius
    bound = np.zeros_like(r)
    bound[live] = abs(spec.w) * r[live] ** (-spec.beta)
    assert np.all(np.abs(v) <= bound + 1e-15)


def test_oscillating_spec_validation_slugs():
    cases = {
        "w-nonzero": dict(w=0.0, k=2.0, alpha=1.0, beta=1.0),
        "k-nonzero": dict(w=1.0, k=0.0, alpha=1.0, beta=1.0),
        "alpha-positivity": dict(w=1.0, k=2.0, alpha=0.0, beta=1.0),
        "beta-positivity": dict(w=1.0, k=2.0, alpha=1.0, beta=0.0),
    }
    for slug, kwargs in cases.items():
        with pytest.raises(InvariantViolation) as err:
            OscillatingSpec(**kwargs)
        assert err.value.invariant == slug


@settings(max_examples=80, deadline=None)
@given(
    w=st.floats(0.1, 10.0),
    k=st.floats(0.1, 5.0),
    alpha=st.floats(0.2, 3.0),
    beta=st.floats(0.1, 2.0),
    x=st.floats(-50.0, 50.0),
)
def test_oscillating_even_in_x(w, k, alpha, beta, x):
    spec = OscillatingSpec(w=w, k=k, alpha=alpha, beta=beta)
    assert eval_potential(spec, x) == eval_potential(spec, -x)


# ---------------------------------------------------------------------------
# the explicit 1D potential with an eigenvalue at energy 1


def test_wvn_values_at_half_pi():
    pi2 = np.pi * np.pi
    want_v = -32.0 * (1.0 - 3.0 * pi2) / (1.0 + pi2) ** 2
    assert eval_wvn_potential(np.pi / 2.0) == pytest.approx(want_v, rel=1e-12)
    f, _, _ = eval_wvn_bound_state(np.pi / 2.0)
    assert f == pytest.approx(1.0 / (1.0 + pi2), rel=1e-13)
    assert eval_wvn_potential(0.0) == 0.0


def test_wvn_residual_identity_on_sample_grid():
    x = np.linspace(1e-3, 30.0, 30001)
    f, _, fpp = eval_wvn_bound_state(x)
    res = -fpp + eval_wvn_potential(x) * f - f
    assert np.max(np.abs(res)) < 1e-9


def test_wvn_analytic_derivatives_match_richardson(rng):
    x = rng.uniform(0.1, 100.0, size=1000)
    f, fp, fpp = eval_wvn_bound_state(x)

    def f_only(t):
        return eval_wvn_bound_state(t)[0]

    def fp_only(t):
        return eval_wvn_bound_state(t)[1]

    dfp = richardson_derivative(f_only, x, 1e-3)
    dfpp = richardson_derivative(fp_only, x, 1e-3)
    assert np.max(np.abs(dfp - fp) / np.maximum(1.0, np.abs(fp))) < 1e-7
    assert np.max(np.abs(dfpp - fpp) / np.maximum(1.0, np.abs(fpp))) < 1e-7


def test_wvn_decay_constant_reported():
    x = np.geomspace(1e-3, 1e4, 200001)
    c = np.max(np.abs(eval_wvn_potential(x)) * np.sqrt(1.0 + x * x))
    assert np.isfinite(c)
    assert 8.0 <= c < 30.0


def test_wvn_symmetry():
    x = np.linspace(0.0, 40.0, 10001)
    assert np.allclose(
        eval_wvn_potential(-x), eval_wvn_potential(x), rtol=0.0, atol=1e-14
    )
    fm = eval_wvn_bound_state(-x)[0]
    fp_ = eval_wvn_bound_state(x)[0]
    assert np.allclose(fm, -fp_, rtol=0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# 3D radial variant


def test_wvn_3d_matches_1d_potential():
    assert eval_wvn_3d(2.0).W == eval_wvn_potential(2.0)


def test_wvn_3d_origin_limit():
    vals = eval_wvn_3d(0.0)
    assert vals.f == 1.0
    assert vals.fp == 0.0
    assert vals.W == 0.0


def test_wvn_3d_radial_residual():
    r = np.linspace(0.05, 50.0, 5001)
    vals = eval_wvn_3d(r)
    res = -vals.fpp - 2.0 / r * vals.fp + vals.W * vals.f - vals.f
    assert np.max(np.abs(res)) < 1e-9


def test_wvn_3d_rejects_negative_radius():
    with pytest.raises(ValueError):
        eval_wvn_3d(-1.0)


# ---------------------------------------------------------------------------
# truncated resonant series


def test_simon_single_term_value():
    spec = SimonSeriesSpec(kappas=(1.0,), radii=(1.0,), phases=(0.0,))
    assert eval_simon_series(spec, 2.0) == pytest.approx(2.0 * np.sin(4.0), rel=1e-14)
    assert eval_simon_series(spec, 0.5) == 0.0


def test_simon_core_interpolation():
    spec = SimonSeriesSpec(
        kappas=(1.0,), radii=(2.0,), phases=(0.0,), core_samples=(0.0, 1.0)
    )
    assert eval_simon_series(spec, 0.25) == pytest.approx(0.25)
    assert eval_simon_series(spec, 1.5) == 0.0


def test_simon_truncation_count_controls_active_tails():
    spec2 = SimonSeriesSpec(
        kappas=(1.0, 2.0), radii=(1.0, 10.0), phases=(0.0, 0.0), truncation_count=2
    )
    spec1 = SimonSeriesSpec(
        kappas=(1.0, 2.0), radii=(1.0, 10.0), phases=(0.0, 0.0), truncation_count=1
    )
    x = 5.0
    assert eval_simon_series(spec2, x) == eval_simon_series(spec1, x)
    x = 20.0
    extra = 4.0 * 2.0 * np.sin(4.0 * x) / x
    assert eval_simon_series(spec2, x) == pytest.approx(
        eval_simon_series(spec1, x) + extra, rel=1e-13
    )


def test_simon_spec_validation_slugs():
    with pytest.raises(InvariantViolation) as err:
        SimonSeriesSpec(kappas=(1.0, 1.0), radii=(1.0, 2.0), phases=(0.0, 0.0),
                        truncation_count=2)
    assert err.value.invariant == "kappa-distinct-positive"
    with pytest.raises(InvariantViolation) as err:
        SimonSeriesSpec(kappas=(1.0, 2.0), radii=(2.0, 1.0), phases=(0.0, 0.0),
                        truncation_count=2)
    assert err.value.invariant == "radii-increasing"
    with pytest.raises(InvariantViolation) as err:
        SimonSeriesSpec(kappas=(1.0,), radii=(1.0,), phases=(0.0,),
                        truncation_count=0)
    assert err.value.invariant == "truncation-count"


def test_simon_envelope_demo_holds():
    spec, ex, ev = demo_simon()
    x = np.linspace(0.05, 1.0e4, 10000)
    report = check_simon_envelope(spec, ex, ev, x)
    assert report.holds
    assert report.max_ratio <= 1.0


def test_simon_envelope_detects_violation():
    spec, ex, ev = demo_simon()
    small = tuple(v / 100.0 for v in ev)
    x = np.linspace(0.05, 1.0e4, 10000)
    report = check_simon_envelope(spec, ex, small, x)
    assert not report.holds
    assert report.max_ratio > 1.0
    assert report.worst_x in x


def test_simon_envelope_table_validation():
    spec, ex, ev = demo_simon()
    with pytest.raises(InvariantViolation) as err:
        check_simon_envelope(spec, (0.0, 1.0, 0.5), (1.0, 2.0, 3.0), [1.0])
    assert err.value.invariant == "envelope-grid-order"
    with pytest.raises(InvariantViolation) as err:
        check_simon_envelope(spec, (0.0, 1.0), (2.0, 1.0), [1.0])
    assert err.value.invariant == "envelope-monotonicity"


# ---------------------------------------------------------------------------
# scalar weight functions: g_delta enters the Mourre check at infinity through
# the B_R profile f = chi_R^2 g_delta x, where chi_R = 1 for |x| >= 2R; the
# bracket power is the position weight <Q>^-s of the resolvent estimates


def _g_delta(t, delta, R=1e-3):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    assert np.all(np.abs(t) >= 2.0 * R)
    f, _ = _br_profile(t, R, delta)
    return f / t


def test_weight_g_delta_origin_and_lower_bound():
    # g_delta(0) = 1, approached at the inner edge |x| = 2R of a small radius
    assert _g_delta(2e-9, 0.5, R=1e-9)[0] == pytest.approx(1.0, abs=1e-12)
    t = np.linspace(-50.0, 50.0, 1000)
    g = _g_delta(t, 0.5, R=0.02)
    assert np.all(g >= (1.0 + t * t) ** (-0.5) - 1e-15)


@settings(max_examples=60, deadline=None)
@given(delta=st.floats(0.01, 0.99), t=st.floats(-100.0, 100.0).filter(
    lambda v: abs(v) >= 2e-3))
def test_weight_g_delta_bounds_hold_everywhere(delta, t):
    g = _g_delta(t, delta)[0]
    lo = (1.0 + t * t) ** (-0.5)
    assert lo - 1e-15 <= g <= 2.0 * lo + 1e-15


def test_weight_bracket_power():
    g = line_grid(12.0, 0.5)
    d = build_weight(g, 0.5)
    assert d[np.argmin(np.abs(g.x))] == 1.0
    assert np.allclose(d, (1.0 + g.x * g.x) ** (-0.25), rtol=1e-15)


def test_weight_spec_validation_slugs():
    with pytest.raises(InvariantViolation) as err:
        WeightFunctionSpec(s=0.5)
    assert err.value.invariant == "s-range"


# ---------------------------------------------------------------------------
# generic evaluation and config decoding


def test_eval_potential_dispatch_matches_specialized():
    x = np.linspace(-30.0, 30.0, 601)
    osc = OscillatingSpec(w=2.0, k=2.0, alpha=1.0, beta=1.0)
    assert np.array_equal(eval_potential(osc, x), eval_oscillating_radial(osc, np.abs(x)))
    assert np.array_equal(
        eval_potential(WignerVonNeumann1D(), x), eval_wvn_potential(x)
    )


def test_eval_potential_sum_and_samples():
    base = CustomSample(x=(-1.0, 0.0, 1.0), values=(0.0, 2.0, 0.0))
    short = ShortRangeSample(x=(-2.0, 0.0, 2.0), values=(1.0, 1.0, 1.0), rho_sr=1.0)
    total = SumPotential(parts=(base, short))
    assert eval_potential(total, 0.0) == pytest.approx(3.0)
    assert eval_potential(total, 5.0) == 0.0
    assert eval_potential(base, 0.5) == pytest.approx(1.0)


def test_sample_spec_validation():
    with pytest.raises(InvariantViolation) as err:
        CustomSample(x=(0.0, 0.0), values=(1.0, 1.0))
    assert err.value.invariant == "sample-order"
    with pytest.raises(InvariantViolation) as err:
        ShortRangeSample(x=(0.0, 1.0), values=(1.0, 1.0), rho_sr=0.0)
    assert err.value.invariant == "rho-sr-positivity"
    with pytest.raises(InvariantViolation) as err:
        SumPotential(parts=())
    assert err.value.invariant == "sum-nonempty"


# one config document per potential kind and the spec it decodes to
_POTENTIAL_DOCS = [
    (
        {"kind": "oscillating", "w": 3.0, "k": 2.0, "alpha": 1.5, "beta": 0.75,
         "cutoff": {"inner_radius": 0.5, "outer_radius": 2.5}},
        OscillatingSpec(w=3.0, k=2.0, alpha=1.5, beta=0.75,
                        cutoff=CutoffSpec(0.5, 2.5)),
    ),
    ({"kind": "wvn_1d"}, WignerVonNeumann1D()),
    ({"kind": "wvn_3d_radial"}, WignerVonNeumann3DRadial()),
    (
        {"kind": "simon_series", "kappas": [1.0, 2.0], "radii": [1.0, 8.0],
         "phases": [0.1, 0.2], "core_samples": [0.0, 0.5, 0.0],
         "truncation_count": 2},
        SimonSeriesSpec(kappas=(1.0, 2.0), radii=(1.0, 8.0), phases=(0.1, 0.2),
                        core_samples=(0.0, 0.5, 0.0), truncation_count=2),
    ),
    (
        {"kind": "short_range_sample", "x": [-1.0, 1.0], "values": [0.5, 0.5],
         "rho_sr": 1.5},
        ShortRangeSample(x=(-1.0, 1.0), values=(0.5, 0.5), rho_sr=1.5),
    ),
    (
        {"kind": "long_range_sample", "x": [-1.0, 1.0], "values": [0.5, 0.5],
         "rho_lr": 0.6, "rho_lr_prime": 1.0},
        LongRangeSample(x=(-1.0, 1.0), values=(0.5, 0.5), rho_lr=0.6,
                        rho_lr_prime=1.0),
    ),
    (
        {"kind": "custom", "x": [0.0, 2.0], "values": [1.0, -1.0]},
        CustomSample(x=(0.0, 2.0), values=(1.0, -1.0)),
    ),
    (
        {"kind": "sum", "parts": [
            {"kind": "wvn_1d"},
            {"kind": "custom", "x": [0.0, 1.0], "values": [1.0, 0.0]},
        ]},
        SumPotential(parts=(WignerVonNeumann1D(),
                            CustomSample(x=(0.0, 1.0), values=(1.0, 0.0)))),
    ),
]


@pytest.mark.parametrize(
    "doc, spec", _POTENTIAL_DOCS, ids=[f"spec{i}" for i in range(len(_POTENTIAL_DOCS))]
)
def test_potential_json_round_trip(doc, spec):
    # the JSON text of a config document decodes to the spec it describes
    back = _decode_potential(json.loads(json.dumps(doc)), "potential")
    assert back == spec
    x = np.linspace(-5.0, 5.0, 101)
    assert np.array_equal(eval_potential(back, x), eval_potential(spec, x))


def test_decode_potential_rejects_unknown_kind():
    with pytest.raises(InvariantViolation) as err:
        _decode_potential({"kind": "mystery"}, "potential")
    assert err.value.invariant == "potential-kind"
    with pytest.raises(InvariantViolation):
        _decode_potential("not a dict", "potential")
    osc = {"kind": "oscillating", "w": 3.0, "k": 2.0, "alpha": 1.0, "beta": 1.0}
    for doc, invariant, key in (
        ({k: v for k, v in osc.items() if k != "beta"}, "param-missing",
         "potential.beta"),
        ({**osc, "betta": 5}, "param-unknown", "potential.betta"),
        ({"kind": "sum", "parts": [{"kind": "wvn_1d", "extra": 1}]}, "param-unknown",
         "potential.parts[0].extra"),
    ):
        with pytest.raises(InvariantViolation) as err:
            _decode_potential(doc, "potential")
        assert err.value.invariant == invariant
        assert repr(key) in str(err.value)
