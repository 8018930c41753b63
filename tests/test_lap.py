"""Tests for the weighted resolvent scan and the commutator positivity checks."""

import csv
import functools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from oscilab.discretize import (
    MATERIALIZE_MAX,
    Grid1D,
    OperatorMatrix,
    build_conjugate_A,
    build_h0,
    build_schrodinger,
    build_weight,
    eig_window,
    line_grid,
    phase,
)
import oscilab._blocknorm
import oscilab._pool
import oscilab.discretize
import oscilab.lap
import oscilab.spectral
from oscilab.errors import ComputeFailure, InvariantViolation
from oscilab.lap import (
    LapScanSpec,
    _banded_norm,
    lap_scan,
    mourre_at_infinity_check,
    mourre_check,
    phase_cells_to_csv,
    phase_cells_to_svg,
    phase_sweep,
    scan_summary,
    scan_to_csv,
    weighted_mourre_check,
)
from oscilab.potentials import (
    CustomSample,
    OscillatingSpec,
    ShortRangeSample,
    SumPotential,
    WeightFunctionSpec,
    WignerVonNeumann1D,
)

from conftest import conjugate_A_weight, dense, dilation, line_build


# ---------------------------------------------------------------------------
# weighted resolvent norms


def _spectral_norm_route(H, W, z):
    """Dense route: resolvent applied exactly on H's eigendecomposition."""
    if H.shape[0] > MATERIALIZE_MAX:
        raise InvariantViolation(
            "materialization-size", "dense resolvent route needs a small matrix"
        )
    w, v = eigh_tridiagonal(H.d, H.e)
    u = (np.diag(W) if W.ndim == 1 else W) @ v
    M = (u * (1.0 / (w - z))) @ u.conj().T
    return float(np.linalg.norm(M, 2))


def _complex_weight_norm(H, W, z, X=None):
    """||W (H - z)^{-1} W|| for a dense complex W, the scan's kernel with W
    applied by complex matrix-vector products; (norm, steps, converged, x,
    residual) from X, or from the scan's start vector when X is None."""
    solve = oscilab.lap._tridiag_solver(H.d, H.e, z)

    def apply(v, trans):
        return W @ solve(W @ v, trans)

    if X is None:
        X = oscilab.lap._start_vector(H.shape[0])
    return oscilab._blocknorm._gkl_norm(
        lambda v: apply(v, "N"), lambda u: apply(u, "C"), X
    )


def test_norm_identity_weight_is_inverse_distance():
    g = line_grid(10.0, 0.25)
    H = build_h0(g)
    W = build_weight(g, 0.0)
    ev = eigh_tridiagonal(H.d, H.e, eigvals_only=True)
    for z in (1.0 + 0.01j, 0.4 + 0.2j):
        dist = np.min(np.abs(ev - z))
        got = _banded_norm(H.d, H.e, W, z)[0]
        assert got == pytest.approx(1.0 / dist, rel=1e-9)


def test_norm_banded_and_dense_routes_agree():
    g = line_grid(10.0, 0.25)
    H = build_schrodinger(g, WignerVonNeumann1D())
    W = build_weight(g, 0.51)
    z = 1.0 + 0.05j
    banded = _banded_norm(H.d, H.e, W, z)[0]
    dense = _spectral_norm_route(H, W, z)
    assert banded == pytest.approx(dense, rel=1e-9)


def test_norm_far_z_weight_bound():
    g = line_grid(10.0, 0.25)
    H = build_schrodinger(g, WignerVonNeumann1D())
    W = build_weight(g, 0.51)
    z = 1.0 + 50.0j
    got = _banded_norm(H.d, H.e, W, z)[0]
    wmax = float(np.max(W))
    assert got <= wmax**2 / 50.0 * (1.0 + 1e-6)


def test_norm_decreases_with_stronger_weight():
    g = line_grid(10.0, 0.25)
    H = build_h0(g)
    z = 1.0 + 0.02j
    vals = [
        _banded_norm(H.d, H.e, build_weight(g, s), z)[0] for s in (0.3, 0.6, 1.2)
    ]
    assert vals[0] >= vals[1] >= vals[2]


def test_norm_is_deterministic_across_calls():
    g = line_grid(10.0, 0.25)
    H = build_schrodinger(g, WignerVonNeumann1D())
    W = build_weight(g, 0.51)
    z = 1.0 + 0.02j
    assert _banded_norm(H.d, H.e, W, z)[0] == _banded_norm(H.d, H.e, W, z)[0]


# ---------------------------------------------------------------------------
# the norm kernel


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(16, 80),
    seed=st.integers(0, 2**32 - 1),
    conjugate_A=st.booleans(),
    re_z=st.floats(-0.5, 4.5),
    eta=st.floats(1e-3, 1.0),
)
def test_banded_norm_certifies_its_ritz_residual(n, seed, conjugate_A, re_z, eta):
    rng = np.random.default_rng(seed)
    grid = Grid1D("line", 0.1 * n, n)
    d = rng.uniform(0.0, 4.0, n)
    e = -rng.uniform(0.2, 1.5, n - 1)
    H = OperatorMatrix(grid, d, e)
    s = rng.uniform(0.0, 2.0)
    z = complex(re_z, eta)
    if conjugate_A:
        # the scan's route: W's real factor on the rotated tridiagonal
        ph = phase(n)
        W = conjugate_A_weight(grid, s)
        rotated = e * ph[:-1] * np.conj(ph[1:])
        x0 = ph * oscilab.lap._start_vector(n)
        F = oscilab.discretize._weight_factor(build_conjugate_A(grid), s)
        norm, _, converged, _, residual = _banded_norm(d, rotated, F, z, X=x0)
    else:
        W = build_weight(grid, s)
        norm, _, converged, _, residual = _banded_norm(d, e, W, z)
    # the stop certifies a relative Ritz residual <= sqrt(tol), tol = 1e-12
    assert converged and residual <= 1e-6
    assert norm == pytest.approx(_spectral_norm_route(H, W, z), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(16, 120),
    s=st.floats(0.0, 2.0),
    re_z=st.floats(-0.5, 4.5),
    eta=st.floats(1e-3, 1.0),
)
def test_real_factor_route_matches_the_complex_weight(n, s, re_z, eta):
    # ||W R W|| for W = D^H F D equals ||F (D R D^H) F||, D R D^H being the
    # resolvent of the tridiagonal with upper off-diagonal e_j ph_j
    # conj(ph_{j+1}); started from D x0, the real-F run repeats the complex one
    grid = Grid1D("line", 0.1 * n, n)
    H = build_schrodinger(grid, WignerVonNeumann1D())
    F = oscilab.discretize._weight_factor(build_conjugate_A(grid), s)
    assert F.dtype == np.float64 and np.array_equal(F, F.T)
    z = complex(re_z, eta)
    ph = phase(n)
    e = H.e * ph[:-1] * np.conj(ph[1:])
    x0 = ph * oscilab.lap._start_vector(n)
    norm, _, converged, _, _ = _banded_norm(H.d, e, F, z, X=x0)
    want = _complex_weight_norm(H, conjugate_A_weight(grid, s), z)[0]
    assert converged and norm == pytest.approx(want, rel=1e-12)


def test_norm_iteration_cap_is_reported_and_raises(monkeypatch):
    g = line_grid(10.0, 0.25)
    H = build_schrodinger(g, WignerVonNeumann1D())
    W = build_weight(g, 0.51)
    z = 1.0 + 0.05j
    _, iters, converged, _, _ = _banded_norm(H.d, H.e, W, z, max_iters=2)
    assert (iters, converged) == (2, False)
    capped = functools.partial(oscilab.lap._banded_norm, max_iters=2)
    monkeypatch.setattr(oscilab.lap, "_banded_norm", capped)
    spec = LapScanSpec(interval=(0.5, 1.5), s=0.51, box_list=(10.0, 20.0))
    with pytest.raises(InvariantViolation) as err:
        lap_scan(line_build(0.25, WignerVonNeumann1D()), spec)
    assert err.value.invariant == "norm-convergence"


def test_scan_rows_match_the_dense_route_down_to_the_floor():
    build = line_build(0.4)
    spec = LapScanSpec(interval=(0.5, 1.5), s=0.51, box_list=(100.0, 200.0))
    res = lap_scan(build, spec)
    H = build(200.0)
    W = build_weight(H.grid, 0.51)
    rows = {(r[0], r[1]): r[3] for r in res.rows if r[2] == 200.0}
    etas = sorted({eta for (_, eta) in rows}, reverse=True)
    picked = (etas[0], etas[len(etas) // 2], etas[-1])
    assert picked[-1] == res.im_floor
    for eta in picked:
        dense = _spectral_norm_route(H, W, complex(1.0, eta))
        assert rows[(1.0, eta)] == pytest.approx(dense, rel=1e-9)


def _scenario12_potential():
    """Scenario 12's potential: oscillating tail plus a sampled sech^2 bump."""
    x = np.linspace(-8.0, 8.0, 161)
    bump = ShortRangeSample(x=tuple(x), values=tuple(0.5 / np.cosh(x) ** 2), rho_sr=2.0)
    return SumPotential((OscillatingSpec(w=3.0, k=2.0, alpha=1.0, beta=1.0), bump))


_CONJUGATE_A_SPEC = LapScanSpec(
    interval=(0.5, 1.5), s=0.51, weight_kind="conjugate_A", box_list=(10.0, 20.0)
)


def _conjugate_A_weight(H):
    return conjugate_A_weight(H.grid, 0.51)


@pytest.mark.parametrize("potential", ["free", "scenario12"])
def test_conjugate_A_scan_rows_match_the_dense_route(potential):
    V = None if potential == "free" else _scenario12_potential()
    build = line_build(0.2, V)
    res = lap_scan(build, _CONJUGATE_A_SPEC)
    assert len(res.rows) == 2 * 5 * len({r[1] for r in res.rows})
    assert 0 < res.norm_iterations["max"] < res.norm_iterations["total"]
    for L in _CONJUGATE_A_SPEC.box_list:
        H = build(L)
        W = _conjugate_A_weight(H)
        assert W.shape == H.shape
        for re_z, eta, _, norm in (r for r in res.rows if r[2] == L):
            z = complex(re_z, eta)
            dense = _spectral_norm_route(H, W, z)
            assert norm == pytest.approx(dense, rel=1e-9)
            if eta == res.im_floor:
                auto = _complex_weight_norm(H, W, z)[0]
                assert auto == pytest.approx(dense, rel=1e-9)


def test_conjugate_A_scan_takes_the_steps_of_the_complex_weight():
    # the scan runs on W's real factor from D x0; the complex W from x0
    # walks the same Krylov spaces turned by D. At these boxes a start of
    # x0 on the real factor takes 453 steps in place of 448
    spec = LapScanSpec(
        interval=(0.5, 1.5), s=0.51, weight_kind="conjugate_A", box_list=(9.9, 19.8)
    )
    build = line_build(0.2)
    res = lap_scan(build, spec)
    ladder = oscilab.lap._standard_ladder(res.im_floor)
    steps = []
    for L in spec.box_list:
        H = build(L)
        W = _conjugate_A_weight(H)
        for re_z in np.linspace(0.5, 1.5, spec.re_points):
            X = None
            for eta in ladder:
                _, n_steps, _, X, _ = _complex_weight_norm(H, W, complex(re_z, eta), X=X)
                steps.append(n_steps)
    assert res.norm_iterations == {"total": sum(steps), "max": max(steps)}


def test_conjugate_A_scan_does_the_weight_work_once_per_box(monkeypatch):
    calls = {"eigh": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted("eigh", getattr(np.linalg, name)))
    res = lap_scan(line_build(0.2), _CONJUGATE_A_SPEC)
    assert len(res.rows) > 2
    # no dense eigendecomposition
    assert calls == {"eigh": 0}

    # the iteration cap still raises on the dense-weight path
    H = line_build(0.2)(10.0)
    F = oscilab.discretize._weight_factor(build_conjugate_A(H.grid), 0.51)
    z = 1.0 + 0.05j
    _, iters, converged, _, _ = _banded_norm(H.d, H.e, F, z, max_iters=2)
    assert (iters, converged) == (2, False)
    capped = functools.partial(oscilab.lap._banded_norm, max_iters=2)
    monkeypatch.setattr(oscilab.lap, "_banded_norm", capped)
    # workers forked before the patch would not see it
    oscilab._pool.shutdown()
    with pytest.raises(InvariantViolation) as err:
        lap_scan(line_build(0.2), _CONJUGATE_A_SPEC)
    assert err.value.invariant == "norm-convergence"


def test_conjugate_A_scan_past_the_materialization_limit_is_refused(monkeypatch):
    # the dense weight of the smaller box (n = 99) is over the limit
    monkeypatch.setattr(oscilab.discretize, "MATERIALIZE_MAX", 50)
    with pytest.raises(InvariantViolation) as err:
        lap_scan(line_build(0.2), _CONJUGATE_A_SPEC)
    assert err.value.invariant == "materialization-size"


# ---------------------------------------------------------------------------
# scan specs


@pytest.mark.parametrize(
    "kwargs, slug",
    [
        (dict(interval=(2.0, 1.0)), "interval-order"),
        (dict(interval=(0.5, 1.5), s=-0.1), "s-range"),
        (dict(interval=(0.5, 1.5), weight_kind="banana"), "weight-kind"),
        (dict(interval=(0.5, 1.5), re_points=2), "re-points"),
        (dict(interval=(0.5, 1.5), im_ladder=(0.5,)), "im-ladder"),
        (dict(interval=(0.5, 1.5), im_ladder=(0.1, 0.5)), "im-ladder"),
        (dict(interval=(0.5, 1.5), im_ladder=(0.5, -0.1)), "im-ladder"),
        (dict(interval=(0.5, 1.5), box_list=(100.0,)), "box-count"),
        # one box twice would compare it with itself and read as box-stable
        (dict(interval=(0.5, 1.5), box_list=(100.0, 100.0)), "box-count"),
        (dict(interval=(0.5, 1.5), box_list=(200, 100.0, 200.0)), "box-count"),
        # three rungs or more, so the order and sign checks are reached
        (dict(interval=(0.5, 1.5), im_ladder=(0.4, 0.5, 0.1)), "im-ladder"),
        (dict(interval=(0.5, 1.5), im_ladder=(0.5, 0.2, -0.1)), "im-ladder"),
    ],
)
def test_scan_spec_guards(kwargs, slug):
    with pytest.raises(InvariantViolation) as err:
        LapScanSpec(**kwargs)
    assert err.value.invariant == slug


def test_scan_spec_sorts_boxes():
    spec = LapScanSpec(interval=(0.5, 1.5), box_list=(400, 200))
    assert spec.box_list == (200.0, 400.0)


# ---------------------------------------------------------------------------
# the scan itself


@pytest.fixture(scope="module")
def free_unweighted_scan():
    spec = LapScanSpec(interval=(0.5, 1.5), s=0.0, box_list=(400.0, 800.0))
    return lap_scan(line_build(0.2), spec)


def test_scan_unweighted_free_diverges_like_a_pole(free_unweighted_scan):
    res = free_unweighted_scan
    assert res.verdict == "lap_fails"
    assert res.divergence_exponent == pytest.approx(1.0, abs=0.02)
    assert res.im_floor == pytest.approx(10.0 * res.level_spacing, rel=1e-12)
    for _, p_box, _, verdict in res.box_reports:
        assert p_box == pytest.approx(1.0, abs=0.02)
        assert verdict == "lap_fails"


def test_scan_on_a_zero_potential_takes_the_closed_form(free_unweighted_scan):
    # a zero potential leaves d = 2/h^2 and e = -1/h^2 exactly, so the s = 0
    # control reads its norms off the closed-form spectrum, as V = None does
    zero = CustomSample(x=(-1.0, 1.0), values=(0.0, 0.0))
    spec = LapScanSpec(interval=(0.5, 1.5), s=0.0, box_list=(400.0, 800.0))
    res = lap_scan(line_build(0.2, zero), spec)
    assert res.norm_iterations == {"total": 0, "max": 0}
    assert res.rows == free_unweighted_scan.rows


def test_scan_row_grid_shape(free_unweighted_scan):
    res = free_unweighted_scan
    etas = sorted({row[1] for row in res.rows}, reverse=True)
    boxes = sorted({row[2] for row in res.rows})
    re_pts = sorted({row[0] for row in res.rows})
    assert boxes == [400.0, 800.0]
    assert len(re_pts) == 5
    assert len(res.rows) == 2 * 5 * len(etas)
    assert min(etas) == pytest.approx(res.im_floor)
    assert res.sup_norm == pytest.approx(max(r[3] for r in res.rows if r[2] == 800.0))


def test_scan_weighted_free_resolvent_stays_bounded():
    # at desk-size boxes the weighted exponent has not yet settled under
    # the holds threshold (it keeps falling as the box grows), but it is
    # already far from the pole law and the sup norm is box-stable
    spec = LapScanSpec(interval=(0.5, 1.5), s=0.51, box_list=(200.0, 400.0))
    res = lap_scan(line_build(0.4), spec)
    assert res.verdict != "lap_fails"
    assert res.divergence_exponent <= 0.5
    assert res.box_stability <= 0.05
    assert np.isfinite(res.sup_norm)


def test_scan_user_ladder_is_clipped_at_the_floor(free_unweighted_scan):
    floor = free_unweighted_scan.im_floor
    spec = LapScanSpec(
        interval=(0.5, 1.5),
        s=0.0,
        im_ladder=(0.8, 0.4, 0.2, 0.1, 0.05, 0.025),
        box_list=(400.0, 800.0),
    )
    res = lap_scan(line_build(0.2), spec)
    etas = sorted({row[1] for row in res.rows}, reverse=True)
    assert max(etas) == 0.8
    assert min(etas) == pytest.approx(floor)
    assert all(eta > floor * (1.0 - 1e-9) for eta in etas)
    assert 0.05 not in etas and 0.025 not in etas


def test_scan_empty_interval_rejected():
    spec = LapScanSpec(interval=(-3.0, -2.0), s=0.0, box_list=(400.0, 800.0))
    with pytest.raises(InvariantViolation) as err:
        lap_scan(line_build(0.2), spec)
    assert err.value.invariant == "interval-spectrum"


@pytest.mark.parametrize("im_ladder, left", [((0.05, 0.01), 0), ((2.0, 1.0, 0.01), 2)])
def test_scan_refuses_a_ladder_the_floor_leaves_too_short(im_ladder, left):
    # at h = 0.2 on boxes 100/200 the floor is 0.303: the scan walks no
    # stand-in ladder, it names the floor and the rungs left. A ladder of
    # two rungs can never keep three, so its spec refuses it, before any box
    # is built
    def make_spec():
        return LapScanSpec(
            interval=(0.5, 1.5), im_ladder=im_ladder, box_list=(100.0, 200.0)
        )

    if len(im_ladder) < 3:
        with pytest.raises(InvariantViolation) as err:
            make_spec()
        assert err.value.invariant == "im-ladder"
        assert str(err.value) == "im_ladder has 2 rungs; a scan needs 3"
        return
    with pytest.raises(InvariantViolation) as err:
        lap_scan(line_build(0.2), make_spec())
    assert err.value.invariant == "im-ladder"
    message = str(err.value)
    assert message.startswith(f"{left} im_ladder rungs")
    assert "floor 0.30303" in message


def test_scan_csv_round_trip(free_unweighted_scan, tmp_path):
    path = tmp_path / "scan.csv"
    scan_to_csv(free_unweighted_scan, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["re_z", "im_z", "box_L", "norm"]
    assert len(rows) == 1 + len(free_unweighted_scan.rows)
    got = tuple(float(v) for v in rows[1])
    assert got == free_unweighted_scan.rows[0]


def test_scan_summary_fields(free_unweighted_scan):
    doc = scan_summary(free_unweighted_scan)
    assert set(doc) == {
        "sup_norm",
        "divergence_exponent",
        "box_stability",
        "verdict",
        "im_floor",
        "level_spacing",
        "boxes",
    }
    assert doc["verdict"] == "lap_fails"
    assert len(doc["boxes"]) == 2
    assert set(doc["boxes"][0]) == {"box_L", "p", "sup_norm", "verdict"}


# ---------------------------------------------------------------------------
# scans in the pool's workers

_S12_OSCILLATION = OscillatingSpec(w=3.0, k=2.0, alpha=1.0, beta=1.0)


def test_pooled_scan_equals_a_serial_walk_of_the_same_ladder(two_cpus):
    h, spec = 0.05, LapScanSpec(interval=(0.5, 1.5), s=1.0, re_points=3,
                                box_list=(60.0, 120.0))
    line, built = line_build(h, _S12_OSCILLATION), []

    def build(L):
        built.append((os.getpid(), L))
        return line(L)

    res = lap_scan(build, spec)
    assert res.workers == 2
    # each box built once, in the caller, though the chains ran in workers
    assert built == [(os.getpid(), L) for L in spec.box_list]
    ladder = oscilab.lap._standard_ladder(res.im_floor)
    rows, iterations = [], []
    with oscilab._pool.one_blas_thread():
        for L in spec.box_list:
            H = build(L)
            w = build_weight(H.grid, spec.s)
            for re_z in np.linspace(0.5, 1.5, spec.re_points):
                X = None
                for eta in ladder:
                    val, iters, _, X, _ = _banded_norm(
                        H.d, H.e, w, complex(re_z, eta), X=X
                    )
                    rows.append((float(re_z), float(eta), L, val))
                    iterations.append(iters)
    # bit for bit: same kernels, same seeds, same order within each chain
    assert res.rows == tuple(rows)
    assert res.norm_iterations == {"total": sum(iterations), "max": max(iterations)}


def test_scans_below_the_pool_threshold_run_in_process(two_cpus):
    res = lap_scan(
        line_build(0.4),
        LapScanSpec(interval=(0.5, 1.5), s=1.0, re_points=3, box_list=(20.0, 40.0)),
    )
    assert res.workers == 1


def test_pooled_conjugate_A_scan_equals_the_one_cpu_scan(monkeypatch):
    # operator-weight scale: h = 0.2, boxes 12/24, the dense F in the pickle
    spec = LapScanSpec(interval=(0.5, 1.5), s=0.51, weight_kind="conjugate_A",
                       box_list=(12.0, 24.0))
    scans = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        scans.append(lap_scan(line_build(0.2, _S12_OSCILLATION), spec))
    pooled, serial = scans
    assert (pooled.workers, serial.workers) == (2, 1)
    assert pooled.rows == serial.rows
    assert pooled.norm_iterations == serial.norm_iterations
    assert pooled.norm_residual_max == serial.norm_residual_max
    assert pooled.verdict == serial.verdict


def test_a_position_scan_draws_one_start_vector_per_box(monkeypatch):
    draw = oscilab.lap._start_vector
    drawn = []

    def counted(n):
        drawn.append(n)
        return draw(n)

    monkeypatch.setattr(oscilab.lap, "_start_vector", counted)
    build = line_build(0.4, _S12_OSCILLATION)
    spec = LapScanSpec(interval=(0.5, 1.5), s=1.0, re_points=3, box_list=(20.0, 40.0))
    res = lap_scan(build, spec)
    sizes = [build(L).shape[0] for L in spec.box_list]
    assert drawn == sizes
    # the same rows, bit for bit, as chains that each draw their own
    ladder = oscilab.lap._standard_ladder(res.im_floor)
    rows = []
    with oscilab._pool.one_blas_thread():
        for L in spec.box_list:
            H = build(L)
            w = build_weight(H.grid, spec.s)
            for re_z in np.linspace(0.5, 1.5, spec.re_points):
                X = draw(H.shape[0])
                for eta in ladder:
                    val, _, _, X, _ = _banded_norm(H.d, H.e, w, complex(re_z, eta), X=X)
                    rows.append((float(re_z), float(eta), L, val))
    assert res.rows == tuple(rows)


def test_pooled_phase_sweep_builds_in_the_parent_and_screens_in_workers(
    two_cpus, monkeypatch, tmp_path
):
    log = tmp_path / "calls.jsonl"
    build = oscilab.lap.build_schrodinger
    localized_pairs = oscilab.spectral.localized_pairs
    chain = oscilab.lap._chain

    def record(*entry):
        with open(log, "a") as fh:
            fh.write(json.dumps([os.getpid(), *entry]) + "\n")

    def counted_build(grid, V):
        record("build", grid.L)
        return build(grid, V)

    def counted_screen(T, lo, hi, inner, level, count=None):
        record("screen", T.grid.L, lo, hi)
        return localized_pairs(T, lo, hi, inner, level, count=count)

    def counted_chain(setup, task):
        record("chain", task[0])
        return chain(setup, task)

    monkeypatch.setattr(oscilab.lap, "build_schrodinger", counted_build)
    monkeypatch.setattr(oscilab.spectral, "localized_pairs", counted_screen)
    monkeypatch.setattr(oscilab.lap, "_chain", counted_chain)
    windows = {"below": (0.2, 0.6), "above": (1.2, 1.7)}
    args = ((1.0,), (0.75,), 2.0, 3.0, windows)
    kwargs = dict(h=0.05, box_list=(60.0, 120.0))
    with oscilab._pool.one_blas_thread():
        cells = phase_sweep(*args, **kwargs)
    assert cells.workers == 2
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    builds = [c for c in calls if c[1] == "build"]
    screens = [c for c in calls if c[1] == "screen"]
    chains = [c for c in calls if c[1] == "chain"]
    # H once per box, in the parent
    assert [c[2] for c in builds] == [60.0, 120.0]
    assert {c[0] for c in builds} == {os.getpid()}
    # one screen per window, on the largest box, in the workers
    assert sorted(c[2:] for c in screens) == [[120.0, 0.2, 0.6], [120.0, 1.2, 1.7]]
    assert os.getpid() not in {c[0] for c in screens}
    # every window's chains, 2 boxes x 5 Re z, from the same task list
    assert sorted(c[2] for c in chains) == [60.0] * 10 + [120.0] * 10
    assert os.getpid() not in {c[0] for c in chains}
    # the same cells as an in-process sweep
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with oscilab._pool.one_blas_thread():
        serial = phase_sweep(*args, **kwargs)
    assert serial.workers == 1
    assert serial == cells


# ---------------------------------------------------------------------------
# Mourre checks


def test_mourre_strict_free_equals_twice_window_minimum():
    g = line_grid(60.0, 0.05)
    H = build_h0(g)
    w, _ = eig_window(H, 0.5, 1.5)
    res = mourre_check(H, (0.5, 1.5))
    assert res.kind == "strict"
    assert res.remainder_rank == 0
    assert res.best_c == pytest.approx(2.0 * w.min(), rel=1e-10)
    assert res.commutator_form_min_eig == res.best_c
    assert res.best_c >= 0.99


def test_mourre_constant_tracks_the_window_floor():
    g = line_grid(120.0, 0.05)
    H = build_h0(g)
    energies = np.array([0.5, 1.0, 1.5])
    cs = []
    for E in energies:
        res = mourre_check(H, (E - 0.1, E + 0.1))
        assert res.best_c == pytest.approx(2.0 * (E - 0.1), rel=0.05)
        cs.append(res.best_c)
    slope = np.polyfit(energies, cs, 1)[0]
    assert slope == pytest.approx(2.0, rel=0.1)


def test_mourre_fails_at_the_interference_threshold():
    # the bound-state potential oscillates at wavenumber 2, so its x V'
    # part transfers momentum between the +1 and -1 waves that make up
    # the window around E = 1; the compressed commutator picks up order
    # one negative directions there while the free operator stays at
    # the 2 inf J floor
    g = line_grid(120.0, 0.05)
    wvn = mourre_check(build_schrodinger(g, WignerVonNeumann1D()), (0.9, 1.1))
    free = mourre_check(build_h0(g), (0.9, 1.1))
    assert free.best_c == pytest.approx(1.8, abs=0.1)
    assert wvn.best_c < -1.0


def test_mourre_rank_budget_deflates_a_localized_defect(monkeypatch):
    g = line_grid(60.0, 0.05)
    H = build_h0(g)
    w, _ = eig_window(H, 0.5, 1.5)
    C = OperatorMatrix(g, 2.0 * H.d - 10.0 * np.exp(-g.x**2), 2.0 * H.e)
    monkeypatch.setattr(oscilab.lap, "_analytic_commutator", lambda _: C)
    best = []
    for k in range(5):
        res = mourre_check(H, (0.5, 1.5), mode="plain", remainder_rank_budget=k)
        assert res.kind == "plain"
        assert res.remainder_rank == k
        best.append(res.best_c)
    assert best[0] < 0.0
    assert all(a <= b + 1e-12 for a, b in zip(best, best[1:]))
    assert best[1] >= 0.5
    everything = mourre_check(
        H, (0.5, 1.5), mode="plain", remainder_rank_budget=len(w)
    )
    assert everything.best_c == np.inf
    assert everything.remainder_rank == len(w)


def test_mourre_empty_window_reports_infinite_constant():
    g = line_grid(20.0, 0.1)
    H = build_h0(g)
    res = mourre_check(H, (-2.0, -1.0))
    assert res.best_c == np.inf
    assert res.commutator_form_min_eig == np.inf
    assert res.remainder_rank == 0


@pytest.mark.parametrize(
    "kwargs, slug",
    [
        (dict(J=(1.0, 1.0)), "window-order"),
        (dict(J=(0.5, 1.5), mode="banana"), "mourre-mode"),
        (dict(J=(0.5, 1.5), mode="plain", remainder_rank_budget=-1), "rank-budget"),
    ],
)
def test_mourre_guards(kwargs, slug):
    g = line_grid(10.0, 0.25)
    H = build_h0(g)
    with pytest.raises(InvariantViolation) as err:
        mourre_check(H, **kwargs)
    assert err.value.invariant == slug


def test_weighted_mourre_constant_grows_with_R():
    g = line_grid(30.0, 0.1)
    H = build_h0(g)
    J = (0.5, 1.0)
    best = []
    for R in (1.0, 4.0, 16.0):
        phi = WeightFunctionSpec(s=0.51, R=R, c=2.0)
        res = weighted_mourre_check(H, phi, J, 0.51)
        assert res.kind == "weighted"
        assert res.commutator_form_min_eig >= -1e-9
        best.append(res.best_c)
    assert best[0] <= best[1] + 1e-12
    assert best[1] <= best[2] + 1e-12


@pytest.mark.parametrize("R", [None, 1.0, 16.0])
def test_weighted_mourre_matches_the_complex_eigenbasis_construction(R):
    # the form on S's complex eigenvectors, as built before S's vectors were
    # kept real
    g = line_grid(30.0, 0.1)
    H = build_schrodinger(g, WignerVonNeumann1D())
    phi = None if R is None else WeightFunctionSpec(s=0.51, R=R, c=2.0)
    res = weighted_mourre_check(H, phi, (0.5, 1.0), 0.51)
    _, vE = eig_window(H, 0.5, 1.0)
    a, vA = np.linalg.eigh(dilation(g))
    Y = vA.conj().T @ vE
    M2 = Y.conj().T @ ((1.0 + a**2)[:, None] ** -0.51 * Y)
    psi_prime = np.zeros_like(a) if phi is None else 2.0 * R * (1.0 + a**2) ** -0.51
    Z = vA @ (np.sqrt(psi_prime)[:, None] * Y)
    C = oscilab.lap._analytic_commutator(H)
    M1 = Z.conj().T @ C.matvec(Z)
    M1 = 0.5 * (M1 + M1.conj().T)
    M = M1 - M2
    best = np.linalg.eigvalsh(0.5 * (M + M.conj().T))[0]
    comm = np.linalg.eigvalsh(M1)[0]
    assert res.best_c == pytest.approx(best, rel=1e-12)
    assert res.commutator_form_min_eig == pytest.approx(comm, rel=1e-12)


def test_weighted_mourre_zero_weight_control_fails():
    g = line_grid(30.0, 0.1)
    res = weighted_mourre_check(build_h0(g), None, (0.5, 1.0), 0.51)
    assert res.best_c < 0.0
    assert res.kind == "weighted"


def test_weighted_mourre_past_the_materialization_limit_is_refused(monkeypatch):
    # S's dense eigenvectors are refused before the window is solved
    def no_window(*args):
        raise AssertionError("the window was solved")

    monkeypatch.setattr(oscilab.discretize, "MATERIALIZE_MAX", 50)
    monkeypatch.setattr(oscilab.lap, "eig_window", no_window)
    g = line_grid(30.0, 0.1)
    with pytest.raises(InvariantViolation) as err:
        weighted_mourre_check(build_h0(g), None, (0.5, 1.0), 0.51)
    assert err.value.invariant == "materialization-size"


def test_mourre_at_infinity_free_lower_bound():
    g = line_grid(120.0, 0.1)
    H = build_h0(g)
    rep = mourre_at_infinity_check(H, R=10.0, delta=0.1, s=0.51, window=(0.5, 1.0))
    assert rep.R_values == (10.0, 20.0)
    assert rep.c1_predicted == pytest.approx(1.0)
    assert rep.c1_values[0] > 0.0 and rep.c1_values[1] > 0.0
    assert rep.decay_ok
    assert rep.trials_used[0] > 0 and rep.trials_used[1] > 0


def test_mourre_at_infinity_empty_window():
    g = line_grid(40.0, 0.1)
    H = build_h0(g)
    rep = mourre_at_infinity_check(H, R=8.0, delta=0.1, s=0.51, window=(-2.0, -1.0))
    assert rep.c1_values == (np.inf, np.inf)
    assert rep.trials_used == (0, 0)
    assert rep.decay_ok


def test_mourre_at_infinity_block_matches_trial_by_trial():
    # each column of the trial block reads as that one trial state would
    # alone: <f, C f> / ||w f||^2 on the dense commutator form
    # (c1 < 0 at R, and both error witnesses are positive)
    g = line_grid(100.0, 0.1)
    H = build_schrodinger(g, OscillatingSpec(w=3.0, k=2.0, alpha=1.0, beta=1.0))
    R, delta, s, J = 10.0, 0.1, 0.51, (0.5, 1.0)
    rep = mourre_at_infinity_check(H, R, delta, s, J, trials=16, seed=3)
    _, vE = eig_window(H, *J)
    coeffs = np.random.default_rng(3).standard_normal((vE.shape[1], 16))
    for R_val, c1, witness in zip(rep.R_values, rep.c1_values, rep.error_witness):
        C = dense(oscilab.lap._commutator_br_form(H, R_val, delta))
        chi = oscilab.lap.smoothstep_quintic(np.abs(g.x) / R_val - 1.0)
        ratios, gaps = [], []
        for t in range(16):
            f = vE @ coeffs[:, t]
            f /= np.linalg.norm(f)
            num = f @ C @ f
            den = np.linalg.norm(chi * (1.0 + g.x**2) ** (-s / 2.0) * f)
            ratios.append(num / den**2)
            gaps.append(max(0.0, rep.c1_predicted * den**2 - num) / den)
        assert c1 == pytest.approx(min(ratios), rel=1e-10)
        assert witness == pytest.approx(max(gaps), rel=1e-10)
        assert witness > 0.0
    assert rep.c1_values[0] < 0.0
    assert rep.trials_used == (16, 16)


@pytest.mark.parametrize(
    "kwargs, slug",
    [
        (dict(R=45.0), "BR-radius"),
        (dict(R=30.0), "BR-radius"),
        (dict(R=8.0, window=(1.0, 1.0)), "window-order"),
        (dict(R=8.0, trials=0), "trials-range"),
        (dict(R=8.0, trials=-1), "trials-range"),
        (dict(R=-5.0), "BR-radius"),
        (dict(R=0.0), "BR-radius"),
        (dict(R=8.0, delta=-0.5), "delta-range"),
        (dict(R=8.0, delta=1.0), "delta-range"),
    ],
)
def test_mourre_at_infinity_guards(kwargs, slug):
    g = line_grid(40.0, 0.1)
    H = build_h0(g)
    base = dict(delta=0.1, s=0.51, window=(0.5, 1.0))
    base.update(kwargs)
    with pytest.raises(InvariantViolation) as err:
        mourre_at_infinity_check(H, **base)
    assert err.value.invariant == slug


# ---------------------------------------------------------------------------
# phase-diagram sweep


def test_phase_sweep_refuses_a_repeated_box():
    with pytest.raises(InvariantViolation) as err:
        phase_sweep(
            (1.0,), (0.75,), k=2.0, w=3.0, windows={"below": (0.2, 0.6)}, h=0.25,
            box_list=(60.0, 60.0),
        )
    assert err.value.invariant == "box-count"


@pytest.mark.parametrize(
    "window, box_list, slug",
    [((0.6, 0.2), (60.0, 120.0), "window-order"),
     ((-0.2, 0.6), (60.0, 120.0), "window-essential"),
     ((0.2, 0.6), (60.0,), "box-count")],
    ids=["reversed", "below-zero", "one-box"],
)
def test_phase_sweep_checks_the_windows_of_skipped_cells(window, box_list, slug):
    # budget 0 builds no cell; each window is still checked as a screen would
    with pytest.raises(InvariantViolation) as err:
        phase_sweep(
            (1.0, 2.0), (0.75,), k=2.0, w=3.0,
            windows={"ok": (1.2, 1.7), "bad": window}, h=0.25, box_list=box_list,
            budget=0,
        )
    assert err.value.invariant == slug


def test_phase_sweep_lite_cell_structure(tmp_path):
    csv_path = tmp_path / "phase.csv"
    svg_path = tmp_path / "phase.svg"
    windows = {"below": (0.2, 0.6), "above": (1.2, 1.7)}
    cells = phase_sweep(
        (1.0,),
        (0.75,),
        k=2.0,
        w=3.0,
        windows=windows,
        h=0.25,
        box_list=(60.0, 120.0),
    )
    phase_cells_to_csv(cells, csv_path)
    phase_cells_to_svg(cells, svg_path)
    assert {c.window_name for c in cells} == {"below", "above"}
    for c in cells:
        assert c.alpha == 1.0 and c.beta == 0.75
        assert c.verdict in ("lap_holds", "lap_fails", "inconclusive")
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha", "beta", "window", "verdict"]
    assert len(rows) == 3
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert "LAP verdicts" in svg
    # fixed seeds end to end: a rerun reproduces the cells exactly
    again = phase_sweep(
        (1.0,), (0.75,), k=2.0, w=3.0, windows=windows, h=0.25,
        box_list=(60.0, 120.0),
    )
    assert again == cells


def test_phase_cell_does_each_piece_of_spectral_work_once(monkeypatch, one_cpu):
    builds, screens, kernel, counts, bisections = [], [], [], [], []
    build = oscilab.lap.build_schrodinger
    localized_pairs = oscilab.spectral.localized_pairs
    window_pairs = oscilab.discretize._window_pairs
    count_window = oscilab.discretize.count_window
    eigh_tridiagonal_ = oscilab.discretize.eigh_tridiagonal

    def counted_build(grid, V):
        builds.append(grid.L)
        return build(grid, V)

    def counted_screen(T, lo, hi, inner, level, count=None):
        screens.append((T.grid.L, lo, hi))
        return localized_pairs(T, lo, hi, inner, level, count=count)

    def counted_kernel(T, lo, hi, vectors=True, count=None):
        kernel.append((T.shape[0], lo, hi, vectors, count))
        return window_pairs(T, lo, hi, vectors, count)

    def counted(caller):
        def count(T, lo, hi):
            counts.append((caller, T.shape[0], (lo, hi)))
            return count_window(T, lo, hi)

        return count

    def counted_tridiagonal(d, e, **kwargs):
        bisections.append(kwargs)
        return eigh_tridiagonal_(d, e, **kwargs)

    windows = {"below": (0.2, 0.6), "above": (1.2, 1.7)}
    V = OscillatingSpec(w=3.0, k=2.0, alpha=1.0, beta=0.75)
    n_small, n_big = (line_grid(L, 0.25).n for L in (60.0, 120.0))
    big_counts = {
        win: count_window(build(line_grid(120.0, 0.25), V), *win)
        for win in windows.values()
    }
    monkeypatch.setattr(oscilab.lap, "build_schrodinger", counted_build)
    monkeypatch.setattr(oscilab.spectral, "localized_pairs", counted_screen)
    monkeypatch.setattr(oscilab.discretize, "_window_pairs", counted_kernel)
    monkeypatch.setattr(oscilab.lap, "count_window", counted("scan"))
    monkeypatch.setattr(oscilab.discretize, "count_window", counted("kernel"))
    monkeypatch.setattr(oscilab.discretize, "eigh_tridiagonal", counted_tridiagonal)
    cells = phase_sweep(
        (1.0,), (0.75,), k=2.0, w=3.0, windows=windows, h=0.25,
        box_list=(60.0, 120.0),
    )
    # both windows are LAP-scanned, so every piece of the cell runs
    assert [c.embedded_count for c in cells] == [0, 0]
    assert all(np.isfinite(c.divergence_exponent) for c in cells)
    # each H built once per box
    assert builds == [60.0, 120.0]
    # one screen per window, on the largest box only
    assert screens == [(120.0, 0.2, 0.6), (120.0, 1.2, 1.7)]
    # one Sturm count per window and box, all in the scan's setup: the
    # screen takes the largest box's count from there and counts nothing
    # itself
    assert sorted(c[1:] for c in counts) == sorted(
        (n, win) for win in windows.values() for n in (n_small, n_big)
    )
    assert all(c[0] == "scan" for c in counts)
    # no windowed kernel: no candidate of the largest box is localized
    # (checked at the end), so each screen drops every group on its coarse
    # pass, none can be genuine and the smaller box's drift partners are
    # not read
    assert kernel == []
    # no LAPACK eigenvectors and no full-precision bisection: a count stops
    # at the window's width, and each screen bisects its window and the two
    # ranges beyond its ends at the screen tolerance, a tenth of the level
    # spacing
    assert all(kw["eigvals_only"] and kw["tol"] > 0.0 for kw in bisections)
    ranges = [(kw["select_range"], kw["tol"]) for kw in bisections]
    coarse = [(r, tol) for r, tol in ranges if tol != r[1] - r[0]]
    assert len(ranges) - len(coarse) == len(counts)
    assert len(coarse) == 3 * len(screens)
    for i, (_, lo, hi) in enumerate(screens):
        below, inside, above = coarse[3 * i : 3 * i + 3]
        assert inside[0] == (lo, hi)
        assert below[0][1] == lo and above[0][0] == hi
        spacing = (hi - lo) / big_counts[lo, hi]
        assert below[1] == inside[1] == above[1]
        assert inside[1] == pytest.approx(oscilab.discretize._SCREEN_TOL * spacing)
    monkeypatch.undo()
    big = build_schrodinger(line_grid(120.0, 0.25), V)
    for lo, hi in windows.values():
        _, localizations = oscilab.spectral._largest_box(lambda L: big, lo, hi, 120.0)
        assert 0 < len(localizations)
        assert max(localizations) < oscilab.spectral.LOCALIZATION_THRESHOLD


def test_a_localized_candidate_still_reads_the_partner_spectrum(monkeypatch):
    # scenario 02: the Wigner-von Neumann eigenvalue at E = 1, screened by the
    # helper phase_sweep uses
    partners, pairs = [], []
    eigvals_window_ = oscilab.spectral.eigvals_window
    localized_pairs = oscilab.spectral.localized_pairs

    def counted_values(T, lo, hi):
        partners.append((T.shape[0], lo, hi))
        return eigvals_window_(T, lo, hi)

    def counted_pairs(T, lo, hi, inner, level, count=None):
        pairs.append((T.shape[0], lo, hi))
        return localized_pairs(T, lo, hi, inner, level, count=count)

    build = line_build(0.05, WignerVonNeumann1D())
    hams = {L: build(L) for L in (200.0, 400.0)}
    found = oscilab.spectral.find_embedded(hams.__getitem__, (0.9, 1.1), (200.0, 400.0))
    monkeypatch.setattr(oscilab.spectral, "eigvals_window", counted_values)
    monkeypatch.setattr(oscilab.spectral, "localized_pairs", counted_pairs)
    genuine = oscilab.spectral.genuine_embedded(
        hams.__getitem__, (0.9, 1.1), (200.0, 400.0)
    )
    assert len(genuine) == 1 and abs(genuine[0].energy - 1.0) <= 1e-2
    assert genuine == [c for c in found if c.verdict == "genuine"]
    # the largest box's pairs first, then the smaller box's values over the
    # widened window, each once
    reach = 10.0 * oscilab.spectral.DRIFT_TOL
    assert pairs == [(hams[400.0].shape[0], 0.9, 1.1)]
    assert partners == [(hams[200.0].shape[0], 0.9 - reach, 1.1 + reach)]


def test_speculative_chains_of_a_genuine_window_are_dropped(
    two_cpus, monkeypatch, tmp_path
):
    # the "below" window's screen reads a genuine eigenvalue and its chains
    # fail; the workers, forked after both patches, see them
    log = tmp_path / "failed.txt"
    screen = oscilab.lap.genuine_embedded
    banded_norm = oscilab.lap._banded_norm
    found = oscilab.spectral.EmbeddedCandidate(0.4, 1.0, 0.0, "genuine")

    def genuine_below(build, window, box_list, **kwargs):
        if window == (0.2, 0.6):
            return [found]
        return screen(build, window, box_list, **kwargs)

    def failing_below(d, e, w, z, **kwargs):
        if z.real <= 0.6:
            with open(log, "a") as fh:
                fh.write(f"{z.real}\n")
            raise ComputeFailure("norm-convergence", f"no norm at z={z}")
        return banded_norm(d, e, w, z, **kwargs)

    monkeypatch.setattr(oscilab.lap, "genuine_embedded", genuine_below)
    monkeypatch.setattr(oscilab.lap, "_banded_norm", failing_below)
    windows = {"below": (0.2, 0.6), "above": (1.2, 1.7)}
    cells = phase_sweep(
        (1.5,), (0.75,), k=2.0, w=3.0, windows=windows, h=0.05,
        box_list=(60.0, 120.0),
    )
    assert cells.workers == 2
    below, above = cells
    assert (below.verdict, below.embedded_count) == ("inconclusive", 1)
    assert below.note == "genuine embedded eigenvalue inside the window"
    assert above.embedded_count == 0 and np.isfinite(above.divergence_exponent)
    # the window's chains ran beside its screen, each failing on its first
    # rung, and their failures were dropped
    assert len(log.read_text().split()) == 10
    # a failure in a scanned window still surfaces; workers forked before
    # the patch would not see it
    monkeypatch.setattr(oscilab.lap, "genuine_embedded", screen)
    oscilab._pool.shutdown()
    with pytest.raises(ComputeFailure) as err:
        phase_sweep(
            (1.5,), (0.75,), k=2.0, w=3.0, windows=windows, h=0.05,
            box_list=(60.0, 120.0),
        )
    assert err.value.invariant == "norm-convergence"


def test_phase_sweep_budget_marks_cells_skipped(tmp_path):
    svg_path = tmp_path / "skipped.svg"
    cells = phase_sweep(
        (1.0, 2.0),
        (0.75,),
        k=2.0,
        w=3.0,
        windows={"below": (0.2, 0.6)},
        h=0.25,
        box_list=(60.0, 120.0),
        budget=0,
    )
    phase_cells_to_svg(cells, svg_path)
    assert len(cells) == 2
    assert all(c.verdict == "skipped" for c in cells)
    assert all(c.note == "over budget" for c in cells)
    assert os.path.getsize(svg_path) > 0


def test_phase_sweep_straddling_window_is_inconclusive_by_policy():
    cells = phase_sweep(
        (2.0,),
        (0.75,),
        k=2.0,
        w=3.0,
        windows={"mid": (0.9, 1.1)},
        h=0.25,
        box_list=(60.0, 120.0),
    )
    assert len(cells) == 1
    assert cells[0].verdict == "inconclusive"
    assert cells[0].note != ""


def test_phase_sweep_needs_windows():
    with pytest.raises(InvariantViolation) as err:
        phase_sweep((1.0,), (1.0,), k=2.0, w=3.0, windows={})
    assert err.value.invariant == "windows-empty"
