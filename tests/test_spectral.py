import csv
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oscilab._blocknorm
import oscilab.discretize
import oscilab.lap
import oscilab.spectral
from oscilab._smooth import smoothstep_quintic
from oscilab.discretize import (
    Grid1D,
    OperatorMatrix,
    WindowSpec,
    build_schrodinger,
    count_window,
    eig_window,
    eigvals_window,
    halfline_grid,
    line_grid,
    may_be_localized,
    periodic_grid,
)
from oscilab.errors import ComputeFailure, InvariantViolation
from oscilab.potentials import OscillatingSpec, WignerVonNeumann1D
from oscilab.spectral import (
    _fourier_corner_norm,
    _gram_corner_norm,
    _make_report,
    append_sweep_csv,
    candidate_to_json,
    find_embedded,
    genuine_embedded,
    interference_symbol_check,
    oscillation_compactness_probe,
    small_plus_decay_probe,
    tail_report_to_json,
)

from conftest import dense


def wvn_builder(L):
    return build_schrodinger(line_grid(L, 0.05), WignerVonNeumann1D())


def free_builder(L):
    return build_schrodinger(line_grid(L, 0.05), None)


# ---------------------------------------------------------------------------
# operator input


def test_eig_sorted_orthonormal_residuals(rng):
    n = 60
    d, e = rng.normal(size=n), rng.normal(size=n - 1)
    T = OperatorMatrix(Grid1D("line", 1.0, n), d, e)
    mat = dense(T)
    # eig_window over the whole spectrum
    bound = np.linalg.norm(mat, 1) + 1.0
    w, v = eig_window(T, -bound, bound)
    assert len(w) == n
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
    # one box twice would read every candidate's box_drift as 0
    for boxes in ((60.0, 60.0), (120.0, 60.0, 60.0)):
        with pytest.raises(InvariantViolation) as err:
            find_embedded(wvn_builder, (0.9, 1.1), boxes)
        assert err.value.invariant == "box-count"
        with pytest.raises(InvariantViolation) as err:
            genuine_embedded(wvn_builder, (0.9, 1.1), boxes)
        assert err.value.invariant == "box-count"


# ---------------------------------------------------------------------------
# the settled screen


def counted_solves(monkeypatch):
    """Count the windowed kernel's tridiagonal factorizations and solves."""
    calls = {"gttrf": 0, "gttrs": 0}
    lookup = oscilab.discretize.get_lapack_funcs

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    def counted_lookup(names, arrays):
        return tuple(counted(n, f) for n, f in zip(names, lookup(names, arrays)))

    monkeypatch.setattr(oscilab.discretize, "get_lapack_funcs", counted_lookup)
    return calls


def phase_builder(alpha, beta):
    V = OscillatingSpec(w=3.0, k=2.0, alpha=alpha, beta=beta)
    return lambda L: build_schrodinger(line_grid(L, 0.25), V)


@pytest.mark.parametrize("alpha, beta", [(1.0, 0.6), (1.0, 1.0), (2.0, 0.75)])
@pytest.mark.parametrize("window", [(0.2, 0.6), (1.2, 1.7)])
def test_settled_screen_returns_the_full_screens_genuine_candidates(
    monkeypatch, alpha, beta, window
):
    # alpha = 1, beta = 0.6 holds its eigenvalues in near-degenerate pairs,
    # each one group of the screen
    build = phase_builder(alpha, beta)
    full = find_embedded(build, window, (60.0, 120.0))
    calls = counted_solves(monkeypatch)
    kernel = []
    window_pairs = oscilab.discretize._window_pairs

    def counted_kernel(*args, **kwargs):
        kernel.append(args)
        return window_pairs(*args, **kwargs)

    monkeypatch.setattr(oscilab.discretize, "_window_pairs", counted_kernel)
    genuine = genuine_embedded(build, window, (60.0, 120.0))
    assert genuine == [c for c in full if c.verdict == "genuine"]
    # the coarse pass drops every group, so the windowed kernel never runs;
    # each vector has its own factorization and takes at most
    # _SCREEN_SWEEPS solves
    assert kernel == []
    sweeps = oscilab.discretize._SCREEN_SWEEPS
    assert 0 < calls["gttrf"] <= calls["gttrs"] <= sweeps * calls["gttrf"]


def test_settled_screen_stops_at_its_first_kept_group(monkeypatch):
    # the Wigner-von Neumann bound state sits inside the window: the screen
    # says yes at its group and factors none of the groups above it
    T = wvn_builder(120.0)
    inner = np.abs(T.grid.x) <= 60.0
    w, V = eig_window(T, 0.8, 1.2)
    assert np.max((V[inner] ** 2).sum(axis=0)) >= 0.99
    calls = counted_solves(monkeypatch)
    assert may_be_localized(T, 0.8, 1.2, inner, 0.99)
    assert 0 < calls["gttrf"] < count_window(T, 0.8, 1.2) == len(w)


def test_a_screen_that_says_yes_leaves_the_verdicts_to_find_embedded(monkeypatch):
    # no eigenvector of this window is localized; a screen forced to say
    # yes hands the window to find_embedded, which reads none genuine
    build = phase_builder(1.0, 0.75)
    full = find_embedded(build, (0.2, 0.6), (60.0, 120.0))
    assert full and all(c.verdict != "genuine" for c in full)
    screens = []

    def yes(*args, **kwargs):
        screens.append(args[1:3])
        return True

    monkeypatch.setattr(oscilab.spectral, "may_be_localized", yes)
    assert genuine_embedded(build, (0.2, 0.6), (60.0, 120.0)) == []
    assert screens == [(0.2, 0.6)]


def test_settled_screen_solves_a_localized_group_in_full(monkeypatch):
    # the Wigner-von Neumann bound state: its group cannot be dropped, so
    # find_embedded runs whole and reads its certified pair genuine
    full = find_embedded(wvn_builder, (0.8, 1.2), (60.0, 120.0))
    calls = counted_solves(monkeypatch)
    genuine = genuine_embedded(wvn_builder, (0.8, 1.2), (60.0, 120.0))
    assert len(genuine) == 1 and genuine[0].localization >= 0.99
    assert genuine == [c for c in full if c.verdict == "genuine"]
    assert calls["gttrs"] > calls["gttrf"]


def test_settled_screen_keeps_the_genuine_eigenvalue_of_a_strong_cell(monkeypatch):
    # at w = 10 each catalog window holds one genuine eigenvalue, so the
    # coarse pass keeps its group and find_embedded runs whole
    V = OscillatingSpec(w=10.0, k=2.0, alpha=1.0, beta=0.6)
    hams = {L: build_schrodinger(line_grid(L, 0.25), V) for L in (60.0, 120.0)}
    kernel = []
    window_pairs = oscilab.discretize._window_pairs

    def counted_kernel(T, lo, hi, vectors=True):
        kernel.append((T.shape[0], lo, hi, vectors))
        return window_pairs(T, lo, hi, vectors)

    for window in ((0.2, 0.6), (1.2, 1.7)):
        full = find_embedded(hams.__getitem__, window, (60.0, 120.0))
        monkeypatch.setattr(oscilab.discretize, "_window_pairs", counted_kernel)
        genuine = genuine_embedded(hams.__getitem__, window, (60.0, 120.0))
        monkeypatch.undo()
        assert len(genuine) == 1
        assert genuine == [c for c in full if c.verdict == "genuine"]
        # the largest box's pairs, then the smaller box's drift partners
        assert kernel[0] == (hams[120.0].shape[0], *window, True)
        assert [call[0] for call in kernel[1:]] == [hams[60.0].shape[0]]
        kernel.clear()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(16, 400),
    seed=st.integers(0, 2**32 - 1),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    block=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    level=st.floats(0.01, 0.99),
)
def test_settled_screen_drops_no_localized_pair_of_random_tridiagonals(
    n, seed, ends, block, level
):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
    e = rng.normal(size=n - 1) * (rng.random(n - 1) > 0.1)  # some split blocks
    T = OperatorMatrix(Grid1D("line", 1.0, n), d, e)
    rows = np.abs(d)
    rows[:-1] += np.abs(e)
    rows[1:] += np.abs(e)
    lo, hi = sorted(rows.max() * (2.0 * np.asarray(ends) - 1.0))
    assume(hi > lo)
    first, last = sorted(int(round(r * n)) for r in block)
    inner = np.zeros(n, dtype=bool)
    inner[first:last] = True
    w, V = eig_window(T, lo, hi)
    # the screen says no only when no pair of eig_window reaches the level
    localization = (V[inner] ** 2).sum(axis=0) / (V**2).sum(axis=0)
    reached = bool(np.any(localization >= level))
    assert may_be_localized(T, lo, hi, inner, level) or not reached


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
    for X in (None, start[:, 0]):
        norm, _, _, X = _fourier_corner_norm(mult, wl, wl, chi, X=X)
        assert X.dtype == np.float64
        assert norm == pytest.approx(want, rel=1e-5)


@pytest.mark.parametrize("n", [512, 515])
def test_real_gram_apply_equals_the_complex_fft_apply(monkeypatch, n):
    grid, mult, _, chi = _fourier_corner_setup(n)
    wl1 = (1.0 + grid.xi**2) ** -1.0
    wl2 = (1.0 + grid.xi**2) ** -0.5
    V = np.random.default_rng(5).standard_normal((n, 4))
    applies = []

    def no_steps(apply_m, apply_mh, x0, **kwargs):
        applies.append((apply_m, apply_mh))
        return 0.0, 1, True, x0, 0.0

    monkeypatch.setattr(oscilab._blocknorm, "_gkl_norm", no_steps)
    _fourier_corner_norm(mult, wl1, wl2, chi)
    apply_m, apply_mh = applies[0]
    given = V.copy()
    U = np.column_stack([apply_m(v) for v in V.T])
    Z = np.column_stack([apply_mh(u) for u in U.T])
    # the applies leave their argument as it is
    assert np.array_equal(V, given)

    # the same stages by full complex FFTs: chi, then (Fourier weight,
    # position factor) pairs
    def stages(U, steps):
        U = chi[:, None] * U
        for wl, factor in steps:
            U = factor[:, None] * np.fft.ifft(wl[:, None] * np.fft.fft(U, axis=0), axis=0)
        return U

    want_U = stages(V, ((wl2, mult), (wl1, chi)))
    want_Z = stages(want_U, ((wl1, mult), (wl2, chi)))
    assert U.dtype == Z.dtype == np.float64
    assert np.linalg.norm(U - want_U) <= 1e-12 * np.linalg.norm(want_U)
    assert np.linalg.norm(Z - want_Z) <= 1e-12 * np.linalg.norm(want_Z)


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


def test_probe_corner_past_the_box_is_zero():
    # the last radius leaves chi = 0 on the whole grid: the first image of
    # the start vector is exactly 0, and the kernel returns 0 at step 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = oscillation_compactness_probe(
            periodic_grid(20.0, 1024), 1.0, 2.0, 1.0, radii=(5.0, 10.0, 30.0)
        )
    assert rep.tail_norms[:2] == pytest.approx((0.0210, 0.0120), rel=1e-2)
    assert rep.tail_norms[2] == 0.0
    assert rep.norm_iterations[2] == 1
    assert rep.verdict == "decays_to_zero"


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
