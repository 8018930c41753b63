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

from conftest import counting_qr
from oscilab.discretize import (
    Grid1D,
    OperatorMatrix,
    build_conjugate_A,
    build_h0,
    build_schrodinger,
    build_weight,
    eig_window,
    line_grid,
)
import oscilab._pool
import oscilab.discretize
import oscilab.lap
import oscilab.spectral
from oscilab.errors import InvariantViolation
from oscilab.lap import (
    LapScanSpec,
    _banded_norm,
    _spectral_norm_route,
    lap_scan,
    mourre_at_infinity_check,
    mourre_check,
    phase_sweep,
    scan_summary,
    scan_to_csv,
    schrodinger_line_factory,
    weighted_mourre_check,
    weighted_resolvent_norm,
)
from oscilab.potentials import (
    OscillatingSpec,
    ShortRangeSample,
    SumPotential,
    WeightFunctionSpec,
    WignerVonNeumann1D,
)


# ---------------------------------------------------------------------------
# weighted resolvent norms


def test_norm_identity_weight_is_inverse_distance():
    g = line_grid(10.0, 0.25)
    H = build_h0(g)
    W = build_weight(g, 0.0)
    ev = eigh_tridiagonal(H.data["d"], H.data["e"], eigvals_only=True)
    for z in (1.0 + 0.01j, 0.4 + 0.2j):
        dist = np.min(np.abs(ev - z))
        got = weighted_resolvent_norm(H, W, z)
        assert got == pytest.approx(1.0 / dist, rel=1e-9)


def test_norm_banded_and_dense_routes_agree():
    g = line_grid(10.0, 0.25)
    H = build_schrodinger(g, WignerVonNeumann1D())
    W = build_weight(g, 0.51)
    z = 1.0 + 0.05j
    banded = weighted_resolvent_norm(H, W, z)
    dense = _spectral_norm_route(H, W, z)
    assert banded == pytest.approx(dense, rel=1e-9)


def test_norm_far_z_weight_bound():
    g = line_grid(10.0, 0.25)
    H = build_schrodinger(g, WignerVonNeumann1D())
    W = build_weight(g, 0.51)
    z = 1.0 + 50.0j
    got = weighted_resolvent_norm(H, W, z)
    wmax = float(np.max(W.data["d"]))
    assert got <= wmax**2 / 50.0 * (1.0 + 1e-6)


def test_norm_decreases_with_stronger_weight():
    g = line_grid(10.0, 0.25)
    H = build_h0(g)
    z = 1.0 + 0.02j
    vals = [
        weighted_resolvent_norm(H, build_weight(g, s), z) for s in (0.3, 0.6, 1.2)
    ]
    assert vals[0] >= vals[1] >= vals[2]


def test_norm_is_deterministic_across_calls():
    g = line_grid(10.0, 0.25)
    H = build_schrodinger(g, WignerVonNeumann1D())
    W = build_weight(g, 0.51)
    z = 1.0 + 0.02j
    assert weighted_resolvent_norm(H, W, z) == weighted_resolvent_norm(H, W, z)


def test_norm_real_z_rejected():
    g = line_grid(5.0, 0.5)
    H = build_h0(g)
    W = build_weight(g, 0.51)
    with pytest.raises(InvariantViolation) as err:
        weighted_resolvent_norm(H, W, 1.0)
    assert err.value.invariant == "imag-z"


def test_norm_rejects_pairs_off_the_lu_kernel():
    g = line_grid(5.0, 0.5)
    H = build_h0(g)
    W = build_weight(g, 0.51)
    z = 1.0 + 0.1j
    diagonal_H = OperatorMatrix(g, "hamiltonian", "diagonal", {"d": H.data["d"]})
    dense_H = OperatorMatrix(g, "hamiltonian", "dense", {"mat": H.entries})
    A = build_conjugate_A(g)
    for bad_H, bad_W in ((diagonal_H, W), (dense_H, W), (H, A), (H, H)):
        with pytest.raises(InvariantViolation) as err:
            weighted_resolvent_norm(bad_H, bad_W, z)
        assert err.value.invariant == "norm-route"


def test_scan_rejects_a_hamiltonian_off_the_lu_kernel():
    def dense_factory(V, L):
        H = schrodinger_line_factory(0.25)(V, L)
        return OperatorMatrix(H.grid, "hamiltonian", "dense", {"mat": H.entries})

    spec = LapScanSpec(interval=(0.5, 1.5), s=0.51, box_list=(5.0, 10.0))
    with pytest.raises(InvariantViolation) as err:
        lap_scan(dense_factory, None, spec)
    assert err.value.invariant == "norm-route"


# ---------------------------------------------------------------------------
# the block-norm kernel


def _dense_svd_norm(H, W, z):
    """sigma_max of W (H - z)^{-1} W from explicit dense matrices."""
    d, e = H.data["d"], H.data["e"]
    Hd = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    Wd = np.diag(W.data["d"])
    M = Wd @ np.linalg.inv(Hd - z * np.eye(len(d))) @ Wd
    return float(np.linalg.svd(M, compute_uv=False)[0])


def test_banded_norm_orthonormalises_by_cholesky_qr2(monkeypatch):
    g = line_grid(10.0, 0.25)
    H = build_schrodinger(g, WignerVonNeumann1D())
    W = build_weight(g, 0.51)
    z = 1.0 + 0.05j
    qr_calls = counting_qr(monkeypatch)
    norm, iters, converged, X, residual = _banded_norm(
        H.data["d"], H.data["e"], W.data["d"], z
    )
    # Householder QR only orthonormalises the random start block
    assert len(qr_calls) == 1
    # the kernel stops on its certificate: relative Ritz residual <= sqrt(tol)
    assert converged and residual <= 1e-6
    assert np.allclose(X.conj().T @ X, np.eye(X.shape[1]), atol=1e-13)
    assert norm == pytest.approx(_dense_svd_norm(H, W, z), rel=1e-9)


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
    H = OperatorMatrix(grid, "hamiltonian", "tridiagonal", {"d": d, "e": e})
    basis = build_conjugate_A(grid) if conjugate_A else None
    W = build_weight(grid, rng.uniform(0.0, 2.0), operator_basis=basis)
    z = complex(re_z, eta)
    norm, _, converged, _, residual = _banded_norm(
        d, e, W.data["mat" if conjugate_A else "d"], z
    )
    # the stop certifies a relative Ritz residual <= sqrt(tol), tol = 1e-12
    assert converged and residual <= 1e-6
    assert norm == pytest.approx(_spectral_norm_route(H, W, z), rel=1e-9)


def test_banded_norm_singular_gram_falls_back_to_householder(monkeypatch):
    g = line_grid(10.0, 0.25)
    H = build_schrodinger(g, WignerVonNeumann1D())
    W = build_weight(g, 0.51)
    z = 1.0 + 0.05j
    col = np.random.default_rng(1).standard_normal(g.n) + 0j
    # five copies of one column: the Gram matrix of the first block has rank 1
    X = np.repeat((col / np.linalg.norm(col))[:, None], 5, axis=1)
    qr_calls = counting_qr(monkeypatch)
    norm, _, converged, _, _ = _banded_norm(
        H.data["d"], H.data["e"], W.data["d"], z, X=X
    )
    assert qr_calls
    assert converged
    assert norm == pytest.approx(_dense_svd_norm(H, W, z), rel=1e-9)


def test_norm_iteration_cap_is_reported_and_raises():
    g = line_grid(10.0, 0.25)
    H = build_schrodinger(g, WignerVonNeumann1D())
    W = build_weight(g, 0.51)
    z = 1.0 + 0.05j
    _, iters, converged, _, _ = _banded_norm(
        H.data["d"], H.data["e"], W.data["d"], z, max_iters=2
    )
    assert (iters, converged) == (2, False)
    with pytest.raises(InvariantViolation) as err:
        weighted_resolvent_norm(H, W, z, max_iters=2)
    assert err.value.invariant == "norm-convergence"


def test_scan_rows_match_the_dense_route_down_to_the_floor():
    factory = schrodinger_line_factory(0.4)
    spec = LapScanSpec(interval=(0.5, 1.5), s=0.51, box_list=(100.0, 200.0))
    res = lap_scan(factory, None, spec)
    H = factory(None, 200.0)
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
    return build_weight(H.grid, 0.51, operator_basis=build_conjugate_A(H.grid))


@pytest.mark.parametrize("potential", ["free", "scenario12"])
def test_conjugate_A_scan_rows_match_the_dense_route(potential):
    V = None if potential == "free" else _scenario12_potential()
    factory = schrodinger_line_factory(0.2)
    res = lap_scan(factory, V, _CONJUGATE_A_SPEC)
    assert len(res.rows) == 2 * 5 * len({r[1] for r in res.rows})
    assert 0 < res.norm_iterations["max"] < res.norm_iterations["total"]
    for L in _CONJUGATE_A_SPEC.box_list:
        H = factory(V, L)
        W = _conjugate_A_weight(H)
        assert (H.storage, W.storage) == ("tridiagonal", "dense")
        for re_z, eta, _, norm in (r for r in res.rows if r[2] == L):
            z = complex(re_z, eta)
            dense = _spectral_norm_route(H, W, z)
            assert norm == pytest.approx(dense, rel=1e-9)
            if eta == res.im_floor:
                auto = weighted_resolvent_norm(H, W, z)
                assert auto == pytest.approx(dense, rel=1e-9)


def test_conjugate_A_scan_does_the_weight_work_once_per_box(monkeypatch):
    calls = {"eigh": 0, "potrf": 0, "spectral": 0}
    eigh, spectral = oscilab.lap.eigh, oscilab.lap._spectral_norm_route
    get_lapack_funcs = oscilab.lap.get_lapack_funcs

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counting_get(names, *args, **kwargs):
        funcs = get_lapack_funcs(names, *args, **kwargs)
        return tuple(
            counted(nm, f) if nm == "potrf" else f for nm, f in zip(names, funcs)
        )

    monkeypatch.setattr(oscilab.lap, "eigh", counted("eigh", eigh))
    monkeypatch.setattr(oscilab.lap, "get_lapack_funcs", counting_get)
    monkeypatch.setattr(
        oscilab.lap, "_spectral_norm_route", counted("spectral", spectral)
    )
    res = lap_scan(schrodinger_line_factory(0.2), None, _CONJUGATE_A_SPEC)
    assert len(res.rows) > 2
    # the PSD check of W (a Cholesky factorisation), once per box; no dense
    # eigendecomposition and no dense resolvent route
    assert calls == {"eigh": 0, "potrf": 2, "spectral": 0}

    # the iteration cap still raises on the dense-weight path
    H = schrodinger_line_factory(0.2)(None, 10.0)
    W = _conjugate_A_weight(H)
    z = 1.0 + 0.05j
    _, iters, converged, _, _ = _banded_norm(
        H.data["d"], H.data["e"], W.data["mat"], z, max_iters=2
    )
    assert (iters, converged) == (2, False)
    with pytest.raises(InvariantViolation) as err:
        weighted_resolvent_norm(H, W, z, max_iters=2)
    assert err.value.invariant == "norm-convergence"
    capped = functools.partial(oscilab.lap._banded_norm, max_iters=2)
    monkeypatch.setattr(oscilab.lap, "_banded_norm", capped)
    with pytest.raises(InvariantViolation) as err:
        lap_scan(schrodinger_line_factory(0.2), None, _CONJUGATE_A_SPEC)
    assert err.value.invariant == "norm-convergence"


@pytest.mark.parametrize("wmin", [-1e-9, -1e-12, 0.0])
def test_weight_psd_check_agrees_with_the_dense_spectrum(wmin, rng):
    # W with smallest eigenvalue wmin; 0 makes W a projector
    n = 40
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    vals = np.ones(n)
    vals[: n // 2] = 0.0
    vals[0] = wmin
    mat = (q * vals) @ q.conj().T
    W = OperatorMatrix(Grid1D("line", 1.0, n), "weight", "dense",
                       {"mat": 0.5 * (mat + mat.conj().T)})
    psd = np.linalg.eigvalsh(W.entries)[0] >= -1e-10
    assert psd == (wmin > -1e-10)
    if psd:
        oscilab.lap._check_weight(W)
    else:
        with pytest.raises(InvariantViolation) as err:
            oscilab.lap._check_weight(W)
        assert err.value.invariant == "weight-positivity"


def test_weight_psd_check_runs_at_every_size(monkeypatch, rng):
    # a dense W larger than the materialization limit is still checked
    monkeypatch.setattr(oscilab.lap, "MATERIALIZE_MAX", 8)
    g = line_grid(4.25, 0.5)
    assert g.n == 16
    q, _ = np.linalg.qr(rng.normal(size=(g.n, g.n)))
    vals = np.linspace(-0.5, 1.0, g.n)
    mat = (q * vals) @ q.T
    W = OperatorMatrix(g, "weight", "dense", {"mat": 0.5 * (mat + mat.T)})
    with pytest.raises(InvariantViolation) as err:
        weighted_resolvent_norm(build_h0(g), W, 1.0 + 0.1j)
    assert err.value.invariant == "weight-positivity"


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
    factory = schrodinger_line_factory(0.2)
    spec = LapScanSpec(interval=(0.5, 1.5), s=0.0, box_list=(400.0, 800.0))
    return lap_scan(factory, None, spec)


def test_scan_unweighted_free_diverges_like_a_pole(free_unweighted_scan):
    res = free_unweighted_scan
    assert res.verdict == "lap_fails"
    assert res.divergence_exponent == pytest.approx(1.0, abs=0.02)
    assert res.im_floor == pytest.approx(10.0 * res.level_spacing, rel=1e-12)
    for _, p_box, _, verdict in res.box_reports:
        assert p_box == pytest.approx(1.0, abs=0.02)
        assert verdict == "lap_fails"


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
    factory = schrodinger_line_factory(0.4)
    spec = LapScanSpec(interval=(0.5, 1.5), s=0.51, box_list=(200.0, 400.0))
    res = lap_scan(factory, None, spec)
    assert res.verdict != "lap_fails"
    assert res.divergence_exponent <= 0.5
    assert res.box_stability <= 0.05
    assert np.isfinite(res.sup_norm)


def test_scan_user_ladder_is_clipped_at_the_floor(free_unweighted_scan):
    floor = free_unweighted_scan.im_floor
    factory = schrodinger_line_factory(0.2)
    spec = LapScanSpec(
        interval=(0.5, 1.5),
        s=0.0,
        im_ladder=(0.8, 0.4, 0.2, 0.1, 0.05, 0.025),
        box_list=(400.0, 800.0),
    )
    res = lap_scan(factory, None, spec)
    etas = sorted({row[1] for row in res.rows}, reverse=True)
    assert max(etas) == 0.8
    assert min(etas) == pytest.approx(floor)
    assert all(eta > floor * (1.0 - 1e-9) for eta in etas)
    assert 0.05 not in etas and 0.025 not in etas


def test_scan_empty_interval_rejected():
    factory = schrodinger_line_factory(0.2)
    spec = LapScanSpec(interval=(-3.0, -2.0), s=0.0, box_list=(400.0, 800.0))
    with pytest.raises(InvariantViolation) as err:
        lap_scan(factory, None, spec)
    assert err.value.invariant == "interval-spectrum"


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
# scans in forked workers

_S12_OSCILLATION = OscillatingSpec(w=3.0, k=2.0, alpha=1.0, beta=1.0)


def test_pooled_scan_equals_a_serial_walk_of_the_same_ladder(two_cpus):
    h, spec = 0.05, LapScanSpec(interval=(0.5, 1.5), s=1.0, re_points=3,
                                box_list=(60.0, 120.0))
    factory = schrodinger_line_factory(h)
    assert factory(None, 60.0).shape[0] >= oscilab._pool.MIN_ROWS
    res = lap_scan(factory, _S12_OSCILLATION, spec)
    assert res.workers == 2
    ladder = oscilab.lap._standard_ladder(res.im_floor)
    rows, iterations = [], []
    with oscilab._pool.one_blas_thread():
        for L in spec.box_list:
            H = factory(_S12_OSCILLATION, L)
            w = build_weight(H.grid, spec.s).data["d"]
            for re_z in np.linspace(0.5, 1.5, spec.re_points):
                X = None
                for eta in ladder:
                    val, iters, _, X, _ = _banded_norm(
                        H.data["d"], H.data["e"], w, complex(re_z, eta), X=X
                    )
                    rows.append((float(re_z), float(eta), L, val))
                    iterations.append(iters)
    # bit for bit: same kernels, same seeds, same order within each chain
    assert res.rows == tuple(rows)
    assert res.norm_iterations == {"total": sum(iterations), "max": max(iterations)}


def test_scans_below_the_pool_threshold_run_in_process(two_cpus):
    res = lap_scan(
        schrodinger_line_factory(0.4), None,
        LapScanSpec(interval=(0.5, 1.5), s=1.0, re_points=3, box_list=(20.0, 40.0)),
    )
    assert res.workers == 1


def test_pooled_phase_sweep_builds_in_the_parent_and_screens_in_workers(
    two_cpus, monkeypatch, tmp_path
):
    log = tmp_path / "calls.jsonl"
    build = oscilab.lap.build_schrodinger
    eig_window_ = oscilab.spectral.eig_window

    def record(*entry):
        with open(log, "a") as fh:
            fh.write(json.dumps([os.getpid(), *entry]) + "\n")

    def counted_build(grid, V):
        record("build", grid.L)
        return build(grid, V)

    def counted_eig_window(T, lo, hi):
        record("eig_window", T.grid.L, lo, hi)
        return eig_window_(T, lo, hi)

    monkeypatch.setattr(oscilab.lap, "build_schrodinger", counted_build)
    monkeypatch.setattr(oscilab.spectral, "eig_window", counted_eig_window)
    windows = {"below": (0.2, 0.6), "above": (1.2, 1.7)}
    args = ((1.0,), (0.75,), 2.0, 3.0, windows)
    kwargs = dict(h=0.05, box_list=(60.0, 120.0))
    with oscilab._pool.one_blas_thread():
        cells = phase_sweep(*args, **kwargs)
    assert cells.workers == 2
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    builds = [c for c in calls if c[1] == "build"]
    screens = [c for c in calls if c[1] == "eig_window"]
    # H once per box, in the parent
    assert [c[2] for c in builds] == [60.0, 120.0]
    assert {c[0] for c in builds} == {os.getpid()}
    # eigenvectors once per window, on the largest box, in the workers
    assert sorted(c[2:] for c in screens) == [[120.0, 0.2, 0.6], [120.0, 1.2, 1.7]]
    assert os.getpid() not in {c[0] for c in screens}
    # the same cells as an in-process sweep
    monkeypatch.setattr(oscilab._pool, "MIN_ROWS", 10**9)
    with oscilab._pool.one_blas_thread():
        serial = phase_sweep(*args, **kwargs)
    assert serial.workers == 1
    assert serial == cells


# ---------------------------------------------------------------------------
# Mourre checks


def test_mourre_strict_free_equals_twice_window_minimum():
    g = line_grid(60.0, 0.05)
    H = build_h0(g)
    A = build_conjugate_A(g)
    w, _ = eig_window(H, 0.5, 1.5)
    res = mourre_check(H, A, (0.5, 1.5))
    assert res.kind == "strict"
    assert res.remainder_rank == 0
    assert res.best_c == pytest.approx(2.0 * w.min(), rel=1e-10)
    assert res.commutator_form_min_eig == res.best_c
    assert res.best_c >= 0.99


def test_mourre_constant_tracks_the_window_floor():
    g = line_grid(120.0, 0.05)
    H = build_h0(g)
    A = build_conjugate_A(g)
    energies = np.array([0.5, 1.0, 1.5])
    cs = []
    for E in energies:
        res = mourre_check(H, A, (E - 0.1, E + 0.1))
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
    A = build_conjugate_A(g)
    wvn = mourre_check(build_schrodinger(g, WignerVonNeumann1D()), A, (0.9, 1.1))
    free = mourre_check(build_h0(g), A, (0.9, 1.1))
    assert free.best_c == pytest.approx(1.8, abs=0.1)
    assert wvn.best_c < -1.0


def test_mourre_rank_budget_deflates_a_localized_defect():
    g = line_grid(60.0, 0.05)
    H = build_h0(g)
    A = build_conjugate_A(g)
    w, _ = eig_window(H, 0.5, 1.5)
    C = OperatorMatrix(
        g, "hamiltonian", "tridiagonal",
        {"d": 2.0 * H.data["d"] - 10.0 * np.exp(-g.x**2), "e": 2.0 * H.data["e"]},
    )
    best = []
    for k in range(5):
        res = mourre_check(
            H, A, (0.5, 1.5), mode="plain", remainder_rank_budget=k, commutator=C
        )
        assert res.kind == "plain"
        assert res.remainder_rank == k
        best.append(res.best_c)
    assert best[0] < 0.0
    assert all(a <= b + 1e-12 for a, b in zip(best, best[1:]))
    assert best[1] >= 0.5
    everything = mourre_check(
        H, A, (0.5, 1.5), mode="plain", remainder_rank_budget=len(w), commutator=C
    )
    assert everything.best_c == np.inf
    assert everything.remainder_rank == len(w)


def test_mourre_empty_window_reports_infinite_constant():
    g = line_grid(20.0, 0.1)
    H = build_h0(g)
    A = build_conjugate_A(g)
    res = mourre_check(H, A, (-2.0, -1.0))
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
    A = build_conjugate_A(g)
    with pytest.raises(InvariantViolation) as err:
        mourre_check(H, A, **kwargs)
    assert err.value.invariant == slug


def test_weighted_mourre_constant_grows_with_R():
    g = line_grid(30.0, 0.1)
    H = build_h0(g)
    S = build_conjugate_A(g)
    J = (0.5, 1.0)
    best = []
    for R in (1.0, 4.0, 16.0):
        phi = WeightFunctionSpec(kind="psi", s=0.51, R=R, c=2.0)
        res = weighted_mourre_check(H, S, phi, J, 0.51)
        assert res.kind == "weighted"
        assert res.commutator_form_min_eig >= -1e-9
        best.append(res.best_c)
    assert best[0] <= best[1] + 1e-12
    assert best[1] <= best[2] + 1e-12


def test_weighted_mourre_zero_weight_control_fails():
    g = line_grid(30.0, 0.1)
    H = build_h0(g)
    S = build_conjugate_A(g)
    res = weighted_mourre_check(H, S, None, (0.5, 1.0), 0.51)
    assert res.best_c < 0.0
    assert res.kind == "weighted"


def test_weighted_mourre_wrong_weight_kind_rejected():
    g = line_grid(10.0, 0.25)
    H = build_h0(g)
    S = build_conjugate_A(g)
    phi = WeightFunctionSpec(kind="g_delta", delta=0.5)
    with pytest.raises(InvariantViolation) as err:
        weighted_mourre_check(H, S, phi, (0.5, 1.0), 0.51)
    assert err.value.invariant == "weight-kind"


def test_mourre_at_infinity_free_lower_bound():
    g = line_grid(120.0, 0.1)
    H = build_h0(g)
    rep = mourre_at_infinity_check(
        H, g, R=10.0, delta=0.1, s=0.51, window=(0.5, 1.0)
    )
    assert rep.R_values == (10.0, 20.0)
    assert rep.c1_predicted == pytest.approx(1.0)
    assert rep.c1_values[0] > 0.0 and rep.c1_values[1] > 0.0
    assert rep.decay_ok
    assert rep.trials_used[0] > 0 and rep.trials_used[1] > 0


def test_mourre_at_infinity_empty_window():
    g = line_grid(40.0, 0.1)
    H = build_h0(g)
    rep = mourre_at_infinity_check(
        H, g, R=8.0, delta=0.1, s=0.51, window=(-2.0, -1.0)
    )
    assert rep.c1_values == (np.inf, np.inf)
    assert rep.trials_used == (0, 0)
    assert rep.decay_ok


@pytest.mark.parametrize(
    "kwargs, slug",
    [
        (dict(R=45.0), "BR-radius"),
        (dict(R=30.0), "BR-radius"),
        (dict(R=8.0, window=(1.0, 1.0)), "window-order"),
    ],
)
def test_mourre_at_infinity_guards(kwargs, slug):
    g = line_grid(40.0, 0.1)
    H = build_h0(g)
    base = dict(delta=0.1, s=0.51, window=(0.5, 1.0))
    base.update(kwargs)
    with pytest.raises(InvariantViolation) as err:
        mourre_at_infinity_check(H, g, **base)
    assert err.value.invariant == slug


# ---------------------------------------------------------------------------
# phase-diagram sweep


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
        out_csv=csv_path,
        out_svg=svg_path,
    )
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


def test_phase_cell_does_each_piece_of_spectral_work_once(monkeypatch):
    builds, vector_windows, tridiagonal = [], [], []
    build = oscilab.lap.build_schrodinger
    eig_window_ = oscilab.spectral.eig_window
    eigh_tridiagonal_ = oscilab.discretize.eigh_tridiagonal

    def counted_build(grid, V):
        builds.append(grid.L)
        return build(grid, V)

    def counted_eig_window(T, lo, hi):
        vector_windows.append((T.grid.L, lo, hi))
        return eig_window_(T, lo, hi)

    def counted_tridiagonal(d, e, **kwargs):
        tridiagonal.append((len(d), kwargs))
        return eigh_tridiagonal_(d, e, **kwargs)

    monkeypatch.setattr(oscilab.lap, "build_schrodinger", counted_build)
    monkeypatch.setattr(oscilab.spectral, "eig_window", counted_eig_window)
    monkeypatch.setattr(oscilab.discretize, "eigh_tridiagonal", counted_tridiagonal)
    windows = {"below": (0.2, 0.6), "above": (1.2, 1.7)}
    cells = phase_sweep(
        (1.0,), (0.75,), k=2.0, w=3.0, windows=windows, h=0.25,
        box_list=(60.0, 120.0),
    )
    # both windows are LAP-scanned, so every piece of the cell runs
    assert [c.embedded_count for c in cells] == [0, 0]
    assert all(np.isfinite(c.divergence_exponent) for c in cells)
    # the factory once per box
    assert builds == [60.0, 120.0]
    # eigenvectors once per window, on the largest box only
    assert vector_windows == [(120.0, 0.2, 0.6), (120.0, 1.2, 1.7)]
    n_small, n_big = (line_grid(L, 0.25).n for L in (60.0, 120.0))
    vectors = [n for n, kw in tridiagonal if not kw["eigvals_only"]]
    assert vectors == [n_big, n_big]
    # eigenvalues alone: the smaller box's drift partners over the widened
    # windows, at full precision, and one Sturm count per window and box;
    # no count runs a full-precision bisection
    values = [(n, kw) for n, kw in tridiagonal if kw["eigvals_only"]]
    partners = [(n, kw["select_range"]) for n, kw in values if "tol" not in kw]
    reach = 10.0 * oscilab.spectral.DRIFT_TOL
    assert partners == [
        (n_small, (lo - reach, hi + reach)) for lo, hi in windows.values()
    ]
    counts = [(n, kw["select_range"]) for n, kw in values if "tol" in kw]
    assert sorted(counts) == sorted(
        (n, win) for win in windows.values() for n in (n_small, n_big)
    )
    assert all(
        kw["tol"] == kw["select_range"][1] - kw["select_range"][0]
        for _, kw in values if "tol" in kw
    )


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
        out_svg=svg_path,
    )
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
