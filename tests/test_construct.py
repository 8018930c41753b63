import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oscilab.construct import (
    DiracChannelSpec,
    _exp_rM_arrays,
    dirac_build_u,
    dirac_check_limits,
    dirac_default_grid,
    dirac_residual,
    dirac_solve_from_profiles,
    dirac_solve_potential,
    dirac_summary,
    dirac_to_csv,
    kg_construct,
    kg_summary,
    kg_to_csv,
    verify_wvn_1d,
    verify_wvn_3d,
)
from oscilab.discretize import halfline_grid, periodic_grid
from oscilab.errors import InvariantViolation


# ---------------------------------------------------------------------------
# closed-form residual checks for the explicit potentials


def test_wvn_1d_identity_sharp():
    assert verify_wvn_1d(50.0, 1e-3) < 1e-9
    assert verify_wvn_1d(0.001, 0.001) < 1e-9


def test_wvn_1d_detects_shifted_potential():
    assert verify_wvn_1d(50.0, 1e-3, v_shift=0.1) > 1e-3


def test_wvn_3d_identity_sharp():
    assert verify_wvn_3d(50.0, 1e-3) < 1e-9
    assert verify_wvn_3d(50.0, 1e-3, v_shift=0.05) > 1e-4


def test_wvn_3d_tail_mass_decay():
    # f ~ sin(r)/(4 r^3) far out, so the L^2 density f^2 r^2 ~ r^(-4) and
    # the integral from R to the 400 cap goes like R^(-3) - 400^(-3);
    # the 200-vs-100 ratio of those is 0.1117
    from oscilab.potentials import eval_wvn_3d

    r = np.linspace(100.0, 400.0, 120001)
    vals = eval_wvn_3d(r)
    mass = vals.f**2 * r**2
    h = r[1] - r[0]
    tail_100 = np.trapezoid(mass[r >= 100.0], dx=h)
    tail_200 = np.trapezoid(mass[r >= 200.0], dx=h)
    want = (200.0**-3 - 400.0**-3) / (100.0**-3 - 400.0**-3)
    assert tail_200 / tail_100 == pytest.approx(want, abs=0.05)


# ---------------------------------------------------------------------------
# relativistic construction on a periodic grid


def test_kg_eigenvalue_closed_form():
    grid = periodic_grid(100.0, 4096)
    cons = kg_construct(1.0, grid)
    assert cons.lam == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)


def test_kg_residual_decreases_with_resolution():
    maxes = []
    for n in (4096, 8192, 16384):
        cons = kg_construct(1.0, periodic_grid(100.0, n))
        maxes.append(cons.residual_max)
    assert maxes[1] < maxes[0] and maxes[2] < maxes[1]


def test_kg_potential_decay_bound():
    grid = periodic_grid(200.0, 16384)
    cons = kg_construct(1.0, grid)
    assert np.isfinite(cons.v_bracket_bound)
    assert cons.v_bracket_bound < 15.0
    x = grid.x
    interior = np.abs(x) <= 0.8 * grid.L
    weighted = np.abs(cons.V[interior]) * np.sqrt(1.0 + x[interior] ** 2)
    assert np.max(weighted) <= cons.v_bracket_bound + 1e-12


def test_kg_negative_control_shifted_potential():
    grid = periodic_grid(100.0, 8192)
    cons = kg_construct(1.0, grid)
    shifted = (cons.h + cons.V + 0.1) * cons.f - (
        cons.h + cons.V
    ) * cons.f  # the residual changes by exactly 0.1 f
    assert np.max(np.abs(shifted)) == pytest.approx(
        0.1 * np.max(np.abs(cons.f)), rel=1e-12
    )
    assert cons.residual_max < 0.01 * 0.1 * np.max(np.abs(cons.f))


def test_kg_summary_and_csv(tmp_path):
    grid = periodic_grid(100.0, 4096)
    cons = kg_construct(1.0, grid)
    summary = kg_summary(cons)
    assert summary["lambda"] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)
    assert set(summary) >= {"m", "lambda", "residual_max", "v_bracket_bound"}
    path = tmp_path / "kg.csv"
    kg_to_csv(cons, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape[0] == grid.n
    header = path.read_text().splitlines()[0]
    assert header.split(",")[0] == "x"


# ---------------------------------------------------------------------------
# transfer matrix for the Dirac channel


def exp_rM(m, lam, r):
    """exp(rM) as a 2x2 matrix from the pipeline's vectorized entries."""
    c, kps, kms = _exp_rM_arrays(DiracChannelSpec(m=m, lam=lam, kappa_rho=1), r)
    return np.array([[c, kps], [kms, c]])


def test_exp_rM_quarter_turn():
    out = exp_rM(0.0, 1.0, np.pi / 2.0)
    assert np.allclose(out, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)


def test_exp_rM_rotation_frequency():
    m, lam = 1.0, 1.5
    om = np.sqrt(lam**2 - m**2)
    r = 0.7
    out = exp_rM(m, lam, r)
    assert out[0, 0] == pytest.approx(np.cos(om * r), rel=1e-14)
    assert out[0, 1] == pytest.approx((m + lam) * np.sin(om * r) / om, rel=1e-14)


# the construction only ever sees lam^2 > m^2 (the spec forbids |lam| <= m),
# where exp(rM) is a rotation


@settings(max_examples=100, deadline=None)
@given(
    m=st.floats(0.0, 3.0),
    lam=st.floats(-4.0, 4.0),
    r=st.floats(0.0, 10.0),
)
def test_exp_rM_unit_determinant(m, lam, r):
    assume(lam * lam > m * m)
    out = exp_rM(m, lam, r)
    det = out[0, 0] * out[1, 1] - out[0, 1] * out[1, 0]
    scale = max(1.0, np.max(np.abs(out)) ** 2)
    assert abs(det - 1.0) <= 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(
    m=st.floats(0.0, 2.0),
    lam=st.floats(-3.0, 3.0),
    r=st.floats(0.0, 5.0),
    s=st.floats(0.0, 5.0),
)
def test_exp_rM_semigroup(m, lam, r, s):
    assume(lam * lam > m * m)
    lhs = exp_rM(m, lam, r + s)
    rhs = exp_rM(m, lam, r) @ exp_rM(m, lam, s)
    scale = max(1.0, np.max(np.abs(lhs)))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# spinor profile


def test_dirac_build_u_near_origin_power_law():
    grid = halfline_grid(20.0, 1e-3)
    spec = DiracChannelSpec(m=1.0, lam=1.5, kappa_rho=1)
    u1, u2, _, _ = dirac_build_u(spec, grid)
    r = grid.x
    near = r < 0.4
    assert np.all(u1[near] == 0.0)
    assert np.allclose(u2[near], r[near], rtol=1e-14)

    spec = DiracChannelSpec(m=1.0, lam=1.5, kappa_rho=-2)
    u1, u2, _, _ = dirac_build_u(spec, grid)
    assert np.all(u2[near] == 0.0)
    assert np.allclose(u1[near], r[near] ** 2, rtol=1e-14)


def test_dirac_build_u_far_field_log_derivative():
    grid = halfline_grid(200.0, 1e-2)
    spec = DiracChannelSpec(m=1.0, lam=1.5, kappa_rho=1)
    u1, u2, u1p, u2p = dirac_build_u(spec, grid)
    r = grid.x
    far = r > 150.0
    ratio = np.hypot(u1p[far], u2p[far]) * r[far] / np.hypot(u1[far], u2[far])
    assert np.allclose(ratio, spec.u_decay, rtol=1e-10)


def test_dirac_build_u_never_vanishes():
    grid = halfline_grid(20.0, 1e-3)
    spec = DiracChannelSpec(m=1.0, lam=1.5, kappa_rho=1)
    u1, u2, _, _ = dirac_build_u(spec, grid)
    assert np.all(u1**2 + u2**2 > 0.0)


# ---------------------------------------------------------------------------
# full channel construction


@pytest.fixture(scope="module")
def default_cons():
    spec = DiracChannelSpec(m=1.0, lam=1.5, kappa_rho=1)
    return spec, dirac_solve_potential(spec)


def test_dirac_default_grid_shape():
    grid = dirac_default_grid()
    assert grid.kind == "halfline"
    assert grid.L == 200.0
    assert grid.h == pytest.approx(1e-3, rel=1e-3)


def test_dirac_residual_below_target(default_cons):
    _, cons = default_cons
    assert cons.residual_max < 1e-8
    assert dirac_residual(cons) == cons.residual_max


def test_dirac_potentials_finite_at_origin(default_cons):
    _, cons = default_cons
    rep = dirac_check_limits(cons)
    assert np.isfinite(rep.phi_sc_at_first)
    assert np.isfinite(rep.phi_am_at_first)
    assert abs(rep.phi_sc_at_first) < 10.0
    assert abs(rep.phi_am_at_first) < 10.0


def test_dirac_scalar_potential_origin_value(default_cons):
    # phi_sc(0+) = 2 kappa k_+ + phi_el(0) for the kappa > 0 branch:
    # the leading fraction tends to 2 kappa (m + lam), the electric part
    # enters with weight (v2^2 - v1^2)/|v|^2 -> +1
    spec, cons = default_cons
    want = 2.0 * spec.kappa_rho * (spec.m + spec.lam) + cons.phi_el[0]
    assert cons.phi_sc[0] == pytest.approx(want, rel=1e-3)


def test_dirac_potentials_decay(default_cons):
    _, cons = default_cons
    r = cons.grid.x
    for arr in (cons.phi_sc, cons.phi_am):
        inner = np.max(np.abs(arr[(r >= 50.0) & (r <= 100.0)]))
        outer = np.max(np.abs(arr[(r >= 100.0) & (r <= 200.0)]))
        assert outer < inner


def test_dirac_bound_state_tail_is_square_integrable(default_cons):
    # |f| oscillates with an r^(-u_decay) envelope, so the L^2 density is
    # ~ r^(-2) and the tail integral truncated at the grid end R_max = 200
    # behaves like 1/R - 1/200; the 100-vs-50 ratio of those is 1/3
    _, cons = default_cons
    r = cons.grid.x
    dens = cons.f1**2 + cons.f2**2
    h = cons.grid.h
    tail_50 = np.sum(dens[r >= 50.0]) * h
    tail_100 = np.sum(dens[r >= 100.0]) * h
    want = (1.0 / 100.0 - 1.0 / 200.0) / (1.0 / 50.0 - 1.0 / 200.0)
    assert tail_100 / tail_50 == pytest.approx(want, abs=0.08)


def test_dirac_electric_zero_variant():
    spec = DiracChannelSpec(m=1.0, lam=1.5, kappa_rho=1, phi_el="zero")
    cons = dirac_solve_potential(spec)
    assert np.all(cons.phi_el == 0.0)
    assert cons.residual_max < 1e-8


def test_dirac_mirrored_lambda():
    spec = DiracChannelSpec(m=1.0, lam=-1.5, kappa_rho=1)
    cons = dirac_solve_potential(spec)
    assert cons.residual_max < 1e-8


def test_dirac_perturbed_scalar_potential_fails(default_cons):
    _, cons = default_cons
    bumped = dataclasses.replace(cons, phi_sc=cons.phi_sc + 0.01)
    res = dirac_residual(bumped)
    floor = 0.01 * np.min(np.hypot(cons.f1, cons.f2))
    assert res >= floor
    assert res > 100.0 * cons.residual_max


def test_dirac_synthetic_constant_profile():
    # u' = 0 makes w vanish, so phi_sc reduces to its electric projection
    grid = halfline_grid(50.0, 1e-2)
    spec = DiracChannelSpec(m=1.0, lam=1.5, kappa_rho=1)
    ones = np.ones(grid.n)
    zeros = np.zeros(grid.n)
    cons = dirac_solve_from_profiles(spec, grid, ones, ones, zeros, zeros)
    proj = (cons.v2**2 - cons.v1**2) / (cons.v1**2 + cons.v2**2)
    assert np.max(np.abs(cons.phi_sc - proj * cons.phi_el)) <= 1e-12


def test_dirac_spec_validation_slugs():
    with pytest.raises(InvariantViolation) as err:
        DiracChannelSpec(m=1.0, lam=0.5, kappa_rho=1)
    assert err.value.invariant == "lambda-above-mass"
    with pytest.raises(InvariantViolation) as err:
        DiracChannelSpec(m=1.0, lam=1.5, kappa_rho=0)
    assert err.value.invariant == "kappa-nonzero"
    with pytest.raises(InvariantViolation) as err:
        DiracChannelSpec(m=1.0, lam=1.5, kappa_rho=1, u_decay=0.5)
    assert err.value.invariant == "u-decay-range"
    with pytest.raises(InvariantViolation) as err:
        DiracChannelSpec(m=1.0, lam=1.5, kappa_rho=1, phi_el="mystery")
    assert err.value.invariant == "phi-el-kind"


def test_dirac_summary_and_csv(tmp_path, default_cons):
    spec, cons = default_cons
    summary = dirac_summary(cons)
    assert summary["residual_max"] < 1e-8
    assert summary["kappa_rho"] == spec.kappa_rho
    path = tmp_path / "dirac.csv"
    dirac_to_csv(cons, path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[0] == "r"
    assert "phi_sc" in header and "phi_am" in header
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape[0] == cons.grid.n
