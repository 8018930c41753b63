import csv

import numpy as np
import pytest

import oscilab._blocknorm
import oscilab.spectral
from oscilab._smooth import smoothstep_quintic
from oscilab.discretize import (
    Grid1D,
    OperatorMatrix,
    WindowSpec,
    build_schrodinger,
    eig_full,
    eigvals_window,
    halfline_grid,
    line_grid,
    periodic_grid,
)
from oscilab.errors import ComputeFailure, InvariantViolation
from oscilab.potentials import WignerVonNeumann1D
from oscilab.spectral import (
    _fourier_corner_norm,
    _gram_corner_norm,
    _make_report,
    append_sweep_csv,
    candidate_to_json,
    find_embedded,
    interference_symbol_check,
    oscillation_compactness_probe,
    small_plus_decay_probe,
    tail_report_to_json,
)


def wvn_builder(L):
    return build_schrodinger(line_grid(L, 0.05), WignerVonNeumann1D())


def free_builder(L):
    return build_schrodinger(line_grid(L, 0.05), None)


# ---------------------------------------------------------------------------
# operator input


def test_eig_rejects_non_hermitian():
    n = 16
    mat = np.triu(np.ones((n, n)))
    with pytest.raises(InvariantViolation) as err:
        OperatorMatrix(Grid1D("line", 1.0, n), "hamiltonian", "dense",
                       {"mat": mat})
    assert err.value.invariant == "operator-hermiticity"


def test_eig_sorted_orthonormal_residuals(rng):
    n = 60
    d, e = rng.normal(size=n), rng.normal(size=n - 1)
    T = OperatorMatrix(Grid1D("line", 1.0, n), "hamiltonian", "tridiagonal",
                       {"d": d, "e": e})
    mat = T.entries
    w, v = eig_full(T)
    assert np.all(np.diff(w) >= 0.0)
    assert np.allclose(v.T @ v, np.eye(n), atol=1e-10)
    scale = np.max(np.abs(w))
    assert np.max(np.linalg.norm(T.matvec(v) - v * w, axis=0)) <= 1e-8 * scale
    defect = mat @ v - v * w
    assert np.max(np.abs(defect)) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# embedded eigenvalue search


def test_find_embedded_locates_the_bound_state():
    cands = find_embedded(wvn_builder, (0.9, 1.1), (60.0, 120.0))
    genuine = [c for c in cands if c.verdict == "genuine"]
    assert len(genuine) == 1
    c = genuine[0]
    assert abs(c.energy - 1.0) <= 1e-2
    assert c.localization >= 0.99
    assert c.box_drift <= 5e-3


def test_find_embedded_free_case_has_no_genuine_candidates():
    cands = find_embedded(free_builder, (0.9, 1.1), (60.0, 120.0))
    assert all(c.verdict != "genuine" for c in cands)
    assert len(cands) > 0  # box artifacts do fill the window
    assert all(c.localization < 0.99 for c in cands)


def test_find_embedded_stable_under_grid_refinement():
    def fine_builder(L):
        return build_schrodinger(line_grid(L, 0.025), WignerVonNeumann1D())

    coarse = find_embedded(wvn_builder, (0.9, 1.1), (60.0, 120.0))
    fine = find_embedded(fine_builder, (0.9, 1.1), (60.0, 120.0))
    gc = [c for c in coarse if c.verdict == "genuine"]
    gf = [c for c in fine if c.verdict == "genuine"]
    assert len(gc) == len(gf) == 1
    # the discretization error is second order, so halving h cuts the
    # defect against the continuum energy by about four
    assert abs(gf[0].energy - 1.0) <= 0.35 * abs(gc[0].energy - 1.0)
    assert abs(gf[0].energy - 1.0) <= 1e-2


def test_find_embedded_keeps_a_genuine_eigenvalue_at_the_window_edge():
    (bound,) = [
        c for c in find_embedded(wvn_builder, (0.9, 1.1), (60.0, 120.0))
        if c.verdict == "genuine"
    ]
    small = eigvals_window(wvn_builder(60.0), 0.9, 1.1)
    partner = small[np.argmin(np.abs(small - bound.energy))]
    # the window edge halfway between the bound state and its L = 60 partner:
    # the partner falls outside the window, but the drift must still see it
    edge = 0.5 * (partner + bound.energy)
    assert partner < edge < bound.energy
    cands = find_embedded(wvn_builder, (edge, 1.1), (60.0, 120.0))
    assert cands[0].energy == pytest.approx(bound.energy, abs=1e-12)
    assert cands[0].verdict == "genuine"
    assert cands[0].box_drift == pytest.approx(bound.box_drift, abs=1e-12)


def test_find_embedded_validation():
    with pytest.raises(InvariantViolation) as err:
        find_embedded(wvn_builder, (-0.5, 1.1), (60.0, 120.0))
    assert err.value.invariant == "window-essential"
    with pytest.raises(InvariantViolation) as err:
        find_embedded(wvn_builder, (0.9, 1.1), (60.0,))
    assert err.value.invariant == "box-count"


# ---------------------------------------------------------------------------
# corner-norm tail reports


# the windowed channel probe reads each corner norm off the low-rank factors
# M = U F U^T with a sharp cutoff, through _gram_corner_norm


def _dense_corner_norms(mat, rad, radii):
    out = []
    for R in radii:
        mask = rad >= R
        out.append(np.max(np.abs(np.linalg.eigvalsh(mat[np.ix_(mask, mask)]))))
    return out


def test_tail_decay_compact_diagonal(rng):
    grid = line_grid(100.0, 0.5)
    rad = np.abs(grid.x)
    U = rng.normal(size=(grid.n, 4)) * (rad <= 10.0)[:, None]
    F = np.diag([1.0, 0.5, -0.25, 0.125])
    radii = (5.0, 20.0, 40.0)
    tails = [_gram_corner_norm(U[rad >= R, :], F) for R in radii]
    assert tails[1] == 0.0 and tails[2] == 0.0
    rep = _make_report(radii, tails)
    assert rep.verdict == "decays_to_zero"
    assert rep.tail_norms[-1] == 0.0


def test_tail_decay_routes_agree_with_dense(rng):
    grid = line_grid(10.0, 0.25)
    n = grid.n
    radii = (2.0, 4.0, 6.0)
    rad = np.abs(grid.x)
    U = rng.normal(size=(n, 3)) * np.exp(-0.2 * rad)[:, None]
    raw = rng.normal(size=(3, 3))
    F = 0.5 * (raw + raw.T)
    want = _dense_corner_norms(U @ F @ U.T, rad, radii)
    got = [_gram_corner_norm(U[rad >= R, :], F) for R in radii]
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_tail_decay_plateau_verdict():
    # flat corner norms are the plateau case; a tenfold fall decays, a
    # tenfold rise grows
    rep = _make_report((1.0, 10.0, 50.0, 90.0), (1.0, 1.0, 1.0, 1.0))
    assert rep.verdict == "plateaus"
    assert rep.plateau_estimate == 1.0
    assert _make_report((1.0, 2.0), (1.0, 0.1)).verdict == "decays_to_zero"
    assert _make_report((1.0, 2.0), (1.0, 10.0)).verdict == "grows"


def test_tail_decay_radii_validation():
    with pytest.raises(InvariantViolation) as err:
        small_plus_decay_probe(halfline_grid(20.0, 0.1), WindowSpec(0.3, 0.8), 2.0,
                               (5.0, 5.0))
    assert err.value.invariant == "radii-increasing"
    with pytest.raises(InvariantViolation) as err:
        oscillation_compactness_probe(periodic_grid(20.0, 256), 1.0, 2.0, 1.0,
                                      radii=(5.0,))
    assert err.value.invariant == "radii-increasing"


def _fourier_corner_setup(n=512):
    grid = periodic_grid(20.0, n)
    ax = np.abs(grid.x)
    wl = 1.0 / (1.0 + grid.xi**2)
    chi = smoothstep_quintic((ax - 5.0) / 5.0)
    return grid, np.sin(grid.x**2), wl, chi


def test_fourier_corner_norm_matches_dense():
    grid, mult, wl, chi = _fourier_corner_setup()
    f = np.fft.fft(np.eye(grid.n), axis=0, norm="ortho")
    W = (f.conj().T * wl) @ f
    corner = chi[:, None] * (W @ (mult[:, None] * W)) * chi[None, :]
    want = np.linalg.norm(corner, 2)
    assert want == pytest.approx(0.001406, abs=5e-7)
    assert _fourier_corner_norm(mult, wl, wl, chi)[0] == pytest.approx(want, rel=1e-5)


@pytest.mark.parametrize("n", [512, 515])
def test_fourier_corner_norm_is_real_and_matches_dense(n):
    # an odd n has no Nyquist bin in its half spectrum
    grid, mult, wl, chi = _fourier_corner_setup(n)
    f = np.fft.fft(np.eye(n), axis=0, norm="ortho")
    W = (f.conj().T * wl) @ f
    want = np.linalg.norm(chi[:, None] * (W @ (mult[:, None] * W)) * chi[None, :], 2)
    start = np.linalg.qr(np.random.default_rng(3).standard_normal((n, 4)))[0]
    for X in (None, start):
        norm, _, _, X = _fourier_corner_norm(mult, wl, wl, chi, X=X)
        assert X.dtype == np.float64
        assert norm == pytest.approx(want, rel=1e-5)


@pytest.mark.parametrize("n", [512, 515])
def test_real_gram_apply_equals_the_complex_fft_apply(monkeypatch, n):
    grid, mult, _, chi = _fourier_corner_setup(n)
    wl1 = (1.0 + grid.xi**2) ** -1.0
    wl2 = (1.0 + grid.xi**2) ** -0.5
    V = np.random.default_rng(5).standard_normal((n, 4))
    applied = []

    def one_apply(apply_mhm, n, X, **kwargs):
        applied.append(apply_mhm(V.copy(order="F")))
        return 0.0, 1, True, X, 0.0

    monkeypatch.setattr(oscilab._blocknorm, "_subspace_norm_sq", one_apply)
    _fourier_corner_norm(mult, wl1, wl2, chi)
    Z, R = applied[0]

    # the same stages by full complex FFTs: chi, then (Fourier weight,
    # position factor) pairs
    def stages(U, steps):
        U = chi[:, None] * U
        for wl, factor in steps:
            U = factor[:, None] * np.fft.ifft(wl[:, None] * np.fft.fft(U, axis=0), axis=0)
        return U

    half = stages(V, ((wl2, mult), (wl1, chi)))
    want_Z = stages(half, ((wl1, mult), (wl2, chi)))
    want_R = half.conj().T @ half
    assert Z.dtype == R.dtype == np.float64
    assert np.linalg.norm(Z - want_Z) <= 1e-12 * np.linalg.norm(want_Z)
    assert np.linalg.norm(np.triu(R - want_R)) <= 1e-12 * np.linalg.norm(want_R)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_probe_warm_start_keeps_the_cold_norms(monkeypatch, alpha):
    # at alpha = 2 this grid aliases sin(x^2) beyond |x| ~ 64, and from
    # R = 20 on the corner's top lives there, away from the block the
    # previous radius converged to. A warm start that keeps only that block
    # settles on the local top there, 2.5% low; the stop at a relative
    # residual of 1e-3 resolves this clustered top to about 3e-5, so the
    # check there is 1e-4
    grid = periodic_grid(100.0, 8192)
    radii = (5.0, 10.0, 20.0, 40.0, 80.0)
    warm = oscillation_compactness_probe(grid, 1.0, alpha, 1.0, radii=radii)
    corner = oscilab.spectral._fourier_corner_norm
    # every radius from a fresh random block
    monkeypatch.setattr(oscilab.spectral, "_fourier_corner_norm",
                        lambda *args, X=None, **kwargs: corner(*args, **kwargs))
    cold = oscillation_compactness_probe(grid, 1.0, alpha, 1.0, radii=radii)
    assert len(warm.norm_iterations) == len(cold.norm_iterations) == len(radii)
    rel = 1e-5 if alpha == 1.0 else 1e-4
    assert warm.tail_norms == pytest.approx(cold.tail_norms, rel=rel)
    assert warm.norm_residual_max <= 1e-3 and cold.norm_residual_max <= 1e-3
    if alpha == 1.0:
        # the plateau's corners share their top: later radii start converged
        assert 2 * sum(warm.norm_iterations) <= sum(cold.norm_iterations)


def test_fourier_corner_norm_iteration_cap_raises():
    _, mult, wl, chi = _fourier_corner_setup()
    with pytest.raises(ComputeFailure) as err:
        _fourier_corner_norm(mult, wl, wl, chi, iters=3)
    assert err.value.invariant == "norm-convergence"


# ---------------------------------------------------------------------------
# interference threshold


def test_interference_symbol_below_and_above():
    below = WindowSpec(0.3, 0.8)
    above = WindowSpec(1.2, 1.7)
    assert interference_symbol_check(below, 2.0) == 0.0
    assert interference_symbol_check(above, 2.0) > 0.0


def test_interference_symbol_large_k_always_zero():
    w = WindowSpec(0.3, 0.8)
    assert interference_symbol_check(w, 50.0) == 0.0


def test_windowed_channel_probe_split():
    grid = halfline_grid(100.0, 0.05)
    radii = (10.0, 20.0, 40.0, 60.0)
    below = small_plus_decay_probe(grid, WindowSpec(0.3, 0.8), 2.0, radii)
    above = small_plus_decay_probe(grid, WindowSpec(1.2, 1.7), 2.0, radii)
    assert above.plateau_estimate >= 5.0 * below.plateau_estimate
    assert above.plateau_estimate >= 0.05 * above.operator_norm
    assert above.operator_norm > 0.0
    assert below.tail_norms[-1] < below.tail_norms[0]


def test_windowed_channel_probe_grid_guard():
    with pytest.raises(InvariantViolation) as err:
        small_plus_decay_probe(line_grid(50.0, 0.1), WindowSpec(0.3, 0.8), 2.0,
                               (5.0, 10.0))
    assert err.value.invariant == "channel-grid"


def test_oscillation_probe_fast_vs_slow_phase():
    grid = periodic_grid(100.0, 16384)
    radii = (6.0, 12.0, 25.0, 50.0)
    fast = oscillation_compactness_probe(grid, p=1.0, alpha=2.0, k=1.0,
                                         radii=radii)
    slow = oscillation_compactness_probe(grid, p=1.0, alpha=1.0, k=1.0,
                                         radii=radii)
    # the growing local frequency kills the corner norms; the constant
    # phase keeps them pinned at the full weighted norm
    assert np.all(np.diff(fast.tail_norms) < 0.0)
    assert fast.tail_norms[-1] <= 0.2 * fast.tail_norms[0]
    assert slow.verdict == "plateaus"
    assert slow.plateau_estimate > 100.0 * fast.plateau_estimate


def test_oscillation_probe_deterministic():
    grid = periodic_grid(50.0, 4096)
    kw = dict(p=0.0, alpha=1.5, k=1.0, radii=(5.0, 10.0, 20.0), seed=3)
    a = oscillation_compactness_probe(grid, **kw)
    b = oscillation_compactness_probe(grid, **kw)
    assert a.tail_norms == b.tail_norms


def test_oscillation_probe_guards():
    with pytest.raises(InvariantViolation) as err:
        oscillation_compactness_probe(line_grid(50.0, 0.1), 1.0, 2.0, 1.0)
    assert err.value.invariant == "probe-grid"
    grid = periodic_grid(50.0, 1024)
    with pytest.raises(InvariantViolation) as err:
        oscillation_compactness_probe(grid, 1.0, 0.5, 1.0)
    assert err.value.invariant == "alpha-range"
    with pytest.raises(InvariantViolation) as err:
        oscillation_compactness_probe(grid, -1.0, 2.0, 1.0)
    assert err.value.invariant == "p-range"


# ---------------------------------------------------------------------------
# serialization


def test_candidate_and_report_json():
    cands = find_embedded(wvn_builder, (0.9, 1.1), (60.0, 120.0))
    doc = candidate_to_json(cands[0])
    assert set(doc) == {"energy", "localization", "box_drift", "verdict"}

    rep = _make_report((2.0, 5.0, 9.0), (0.5, 0.1, 0.01))
    doc = tail_report_to_json(rep)
    assert isinstance(doc["radii"], list)
    assert doc["verdict"] == rep.verdict


def test_append_sweep_csv_writes_header_once(tmp_path):
    rep = _make_report((2.0, 5.0, 9.0), (0.5, 0.1, 0.01))
    path = tmp_path / "sweep.csv"
    append_sweep_csv(path, 0.3, 0.8, 2.0, rep)
    append_sweep_csv(path, 1.2, 1.7, 2.0, rep)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["window_lo", "window_hi", "k", "verdict", "plateau"]
    assert len(rows) == 3
    assert rows[1][0] == "0.29999999999999999"[:len(rows[1][0])] or float(rows[1][0]) == 0.3
    assert float(rows[2][2]) == 2.0
