import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from oscilab._smooth import smoothstep_quintic
from oscilab.discretize import (
    Grid1D,
    OperatorMatrix,
    WindowSpec,
    build_conjugate_A,
    build_h0,
    build_radial_channel,
    build_schrodinger,
    build_weight,
    count_window,
    eig_window,
    eigvals_window,
    halfline_grid,
    line_grid,
    periodic_grid,
    phase,
)
import oscilab.discretize
import oscilab.lap
from oscilab.errors import ComputeFailure, InvariantViolation
from oscilab.lap import _br_profile
from oscilab.potentials import CustomSample, OscillatingSpec, WignerVonNeumann1D

from conftest import apply_dilation, conjugate_A_weight, dense, dilation


# ---------------------------------------------------------------------------
# grids


def test_grid_geometry():
    g = line_grid(10.0, 0.1)
    assert g.n == 199
    assert g.h == pytest.approx(20.0 / 200.0)
    assert g.x[0] == pytest.approx(-10.0 + g.h)
    assert g.x[-1] == pytest.approx(10.0 - g.h)

    g = halfline_grid(5.0, 0.05)
    assert g.x[0] == pytest.approx(g.h)
    assert g.x[-1] == pytest.approx(5.0 - g.h)

    g = periodic_grid(8.0, 64)
    assert g.n == 64
    assert g.h == pytest.approx(0.25)
    assert g.x[0] == -8.0
    assert g.x[-1] == pytest.approx(8.0 - g.h)


def test_grid_validation_slugs():
    with pytest.raises(InvariantViolation) as err:
        Grid1D("circle", 1.0, 32)
    assert err.value.invariant == "grid-kind"
    with pytest.raises(InvariantViolation) as err:
        Grid1D("line", 1.0, 8)
    assert err.value.invariant == "grid-size"
    with pytest.raises(InvariantViolation) as err:
        Grid1D("line", -1.0, 32)
    assert err.value.invariant == "grid-extent"
    with pytest.raises(InvariantViolation) as err:
        line_grid(1.0, 0.01).xi
    assert err.value.invariant == "grid-fourier"


# ---------------------------------------------------------------------------
# free Hamiltonian


def test_h0_line_spectrum_closed_form():
    g = line_grid(4.0, 0.25)
    T = build_h0(g)
    w = eigvalsh_tridiagonal(T.d, T.e)
    j = np.arange(1, g.n + 1)
    want = (2.0 - 2.0 * np.cos(j * np.pi / (g.n + 1))) / g.h**2
    assert np.allclose(np.sort(w), np.sort(want), rtol=1e-12)
    assert w.min() >= -1e-12


def test_h0_halfline_box_lowest_eigenvalue():
    g = halfline_grid(np.pi, np.pi / 1000.0)
    T = build_h0(g)
    w, _ = eig_window(T, 0.5, 1.5)
    assert len(w) >= 1
    assert abs(w[0] - 1.0) < 1e-3


# ---------------------------------------------------------------------------
# channel and Schrodinger builders


def test_radial_channel_alpha_zero_is_free():
    g = halfline_grid(10.0, 0.1)
    free = build_h0(g)
    chan = build_radial_channel(g, 0.0)
    assert np.array_equal(chan.d, free.d)
    assert np.array_equal(chan.e, free.e)


def test_radial_channel_adds_inverse_square():
    g = halfline_grid(10.0, 0.1)
    chan = build_radial_channel(g, 2.0)
    free = build_h0(g)
    assert np.allclose(chan.d - free.d, 2.0 / g.x**2, rtol=1e-14)
    with pytest.raises(InvariantViolation) as err:
        build_radial_channel(line_grid(10.0, 0.1), 2.0)
    assert err.value.invariant == "channel-grid"


def test_schrodinger_diagonal_perturbation():
    g = line_grid(20.0, 0.1)
    H = build_schrodinger(g, WignerVonNeumann1D())
    free = build_h0(g)
    from oscilab.potentials import eval_wvn_potential

    assert np.allclose(H.d - free.d, eval_wvn_potential(g.x), rtol=1e-14)
    H0 = build_schrodinger(g, None)
    assert np.array_equal(H0.d, free.d)


def test_hamiltonians_reject_a_periodic_grid():
    g = periodic_grid(10.0, 64)
    V = CustomSample(x=(-5.0, 0.0, 5.0), values=(0.0, 1.0, 0.0))
    for build in (lambda: build_h0(g), lambda: build_schrodinger(g, V),
                  lambda: build_schrodinger(g, None)):
        with pytest.raises(InvariantViolation) as err:
            build()
        assert err.value.invariant == "hamiltonian-grid"


def test_schrodinger_constant_shift_moves_spectrum():
    g = line_grid(5.0, 0.125)
    V = CustomSample(x=(-10.0, 10.0), values=(0.7, 0.7))
    w0 = np.linalg.eigvalsh(dense(build_schrodinger(g, None)))
    w1 = np.linalg.eigvalsh(dense(build_schrodinger(g, V)))
    assert np.allclose(w1, w0 + 0.7, rtol=0.0, atol=1e-10)


def test_discretization_error_is_second_order():
    errs = []
    for n in (127, 255, 511):
        g = Grid1D("halfline", float(np.pi), n)
        w, _ = eig_window(build_h0(g), 0.5, 1.5)
        errs.append(abs(w[0] - 1.0))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(1.8 <= o <= 2.2 for o in orders)


# ---------------------------------------------------------------------------
# conjugate operators


def test_conjugate_A_structure():
    g = line_grid(10.0, 0.1)
    A = build_conjugate_A(g)
    mat = dilation(g)
    assert np.all(np.diag(mat) == 0.0)
    assert np.linalg.norm(mat - mat.conj().T) == 0.0
    # A = D^H J D with J = tridiag(s, 0, s) and D = diag(i^j) is exactly i S
    s = -(g.x[:-1] + g.x[1:]) / (4.0 * g.h)
    assert np.array_equal(A.d, np.zeros(g.n))
    assert np.array_equal(A.e, s)
    assert np.array_equal(mat, 1j * (np.diag(s, 1) - np.diag(s, -1)))
    with pytest.raises(InvariantViolation) as err:
        build_conjugate_A(periodic_grid(10.0, 32))
    assert err.value.invariant == "conjugate-grid"


def test_conjugate_A_preserves_parity():
    # x d/dx flips parity twice (x is odd, d/dx maps even to odd), so the
    # dilation generator commutes with reflection: even stays even, odd odd
    g = line_grid(10.0, 0.1)
    even = np.exp(-g.x**2 / 4.0)
    out = apply_dilation(g, even)
    assert np.max(np.abs(out - out[::-1])) <= 1e-13 * np.max(np.abs(out))
    odd = g.x * np.exp(-g.x**2 / 4.0)
    out = apply_dilation(g, odd)
    assert np.max(np.abs(out + out[::-1])) <= 1e-13 * np.max(np.abs(out))


def test_conjugate_A_commutator_calibration():
    # <f, [H0, iA] f> should track <f, 2 H0 f> on interior wave packets
    g = line_grid(40.0, 0.01)
    H = build_h0(g)
    f = np.exp(-(g.x**2) / 50.0) * np.cos(2.0 * g.x)
    f = f / np.linalg.norm(f)
    comm = 1j * (
        H.matvec(apply_dilation(g, f))
        - apply_dilation(g, H.matvec(f).astype(complex))
    )
    num = np.vdot(f, comm).real
    den = 2.0 * np.vdot(f, H.matvec(f)).real
    assert num / den == pytest.approx(1.0, abs=0.05)


# the localized conjugate operator B_R = f P + P f enters the Mourre check at
# infinity only through its profile f = chi_R^2 g_delta x and f'


def test_B_R_vanishes_inside_radius():
    x = line_grid(20.0, 0.1).x
    f, fp = _br_profile(x, 5.0, 0.3)
    inside = np.abs(x) <= 5.0
    assert np.all(f[inside] == 0.0)
    assert np.all(fp[inside] == 0.0)
    assert np.all(f[~inside] * x[~inside] > 0.0)


def test_B_R_delta_zero_weight():
    x = line_grid(20.0, 0.01).x
    f, fp = _br_profile(x, 2.0, 0.0)
    want = smoothstep_quintic(np.abs(x) / 2.0 - 1.0) ** 2 * x / np.sqrt(1.0 + x * x)
    assert np.allclose(f, want, rtol=1e-13, atol=1e-13)
    # the closed-form derivative against centred differences of f
    assert np.max(np.abs(np.gradient(f, x) - fp)[1:-1]) <= 1e-3


# ---------------------------------------------------------------------------
# weights and windows


def test_weight_position_basics():
    g = line_grid(10.0, 0.1)
    W0 = build_weight(g, 0.0)
    assert np.all(W0 == 1.0)
    W = build_weight(g, 0.51)
    assert W.shape == (g.n,)
    center = np.argmin(np.abs(g.x))
    assert W[center] == pytest.approx(1.0)
    assert np.max(np.abs(W)) <= 1.0 + 1e-15
    with pytest.raises(InvariantViolation) as err:
        build_weight(g, -0.5)
    assert err.value.invariant == "weight-exponent"


def test_weight_operator_basis_commutes():
    g = line_grid(6.4, 0.1)
    A = dilation(g)
    W = conjugate_A_weight(g, 0.6)
    assert W.shape == (g.n, g.n)
    assert np.array_equal(W, W.conj().T)
    wa = W @ A
    aw = A @ W
    assert np.linalg.norm(wa - aw, 2) <= 1e-10 * np.linalg.norm(A, 2)
    assert np.linalg.norm(W, 2) <= 1.0 + 1e-12


@pytest.mark.parametrize("s", [0.0, 0.51, 1.3])
def test_operator_basis_weight_matches_the_complex_eigenbasis_construction(s):
    # D^H F D with F = <J>^(-s) real, against <A>^(-s) on A's complex
    # eigenvectors
    g = line_grid(6.4, 0.1)
    A = build_conjugate_A(g)
    W = conjugate_A_weight(g, s)
    assert np.array_equal(W, W.conj().T)
    w, u = eigh_tridiagonal(A.d, A.e)
    v = np.conj(phase(g.n))[:, None] * u
    mat = (v * (1.0 + w**2) ** (-s / 2.0)) @ v.conj().T
    old = 0.5 * (mat + mat.conj().T)
    assert np.linalg.norm(W - old) <= 1e-14 * np.linalg.norm(old)


@pytest.mark.parametrize("s", [0.0, 0.51, 2.0, 5.0])
@pytest.mark.parametrize("L, h", [(4.25, 0.5), (10.0, 0.2), (30.0, 0.2), (60.0, 0.2)])
def test_the_scan_weights_hold_their_invariants_where_they_are_built(L, h, s):
    # the LAP scan runs both weights unchecked: <Q>^-s is positive on H's
    # grid, and F = <J>^-s is exactly symmetric with eigenvalues in (0, 1]
    g = line_grid(L, h)
    assert 16 <= g.n <= 600
    w = build_weight(g, s)
    assert w.shape == (g.n,) and np.min(w) > 0.0
    F = oscilab.discretize._weight_factor(build_conjugate_A(g), s)
    assert F.shape == (g.n, g.n) and np.array_equal(F, F.T)
    ev = np.linalg.eigvalsh(F)
    assert -1e-12 <= ev[0] and ev[-1] <= 1.0 + 1e-12


def test_window_spec_validation():
    with pytest.raises(InvariantViolation) as err:
        WindowSpec(1.0, 0.5)
    assert err.value.invariant == "window-order"


# the window calculus theta(T) = V theta(w) V^H on the window's support, the
# form in which the windowed channel probe applies a WindowSpec


def _window_factors(T, spec):
    w, v = eig_window(T, *spec.support)
    return v, spec.weights(w)


def _window_apply(factors, u):
    v, th = factors
    return v @ (th * (v.conj().T @ u))


def test_window_disjoint_is_zero():
    g = line_grid(5.0, 0.125)
    H = build_h0(g)
    dead = WindowSpec(-6.0, -5.0)
    v = np.ones(g.n)
    assert np.max(np.abs(_window_apply(_window_factors(H, dead), v))) <= 1e-12


def test_window_functional_calculus_commutes_with_polynomials(rng):
    n = 40
    d, e = rng.normal(size=n), rng.normal(size=n - 1)
    T = OperatorMatrix(Grid1D("line", 1.0, n), d, e)
    w, v = np.linalg.eigh(dense(T))
    spec = WindowSpec(float(np.percentile(w, 30)), float(np.percentile(w, 70)))
    vw, th = _window_factors(T, spec)
    theta = (vw * th) @ vw.T

    def poly(t):
        return t**3 - 2.0 * t + 0.5

    pT = (v * poly(w)) @ v.T
    lhs = theta @ pT
    rhs = (v * (spec.weights(w) * poly(w))) @ v.T
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-10 * np.linalg.norm(rhs, 2)


def test_window_commutator_with_A_is_small():
    # smooth spectral cutoffs nearly commute with the dilation generator
    g = line_grid(100.0, 0.01)
    H = build_schrodinger(g, WignerVonNeumann1D())
    A = build_conjugate_A(g)
    theta = _window_factors(H, WindowSpec(0.9, 1.1))
    rng = np.random.default_rng(7)
    v = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    v /= np.linalg.norm(v)

    def comm(u):
        return _window_apply(theta, apply_dilation(g, u)) - apply_dilation(
            g, _window_apply(theta, u)
        )

    lam = 0.0
    for _ in range(40):
        u = -comm(comm(v))
        lam = np.linalg.norm(u)
        if lam == 0.0:
            break
        v = u / lam
    comm_norm = np.sqrt(lam)
    # A = i S with S real antisymmetric tridiagonal, so ||A|| is the top
    # eigenvalue of the symmetric tridiagonal with off-diagonal |s|
    s = np.abs(A.e)
    a_norm = eigvalsh_tridiagonal(
        np.zeros(g.n), s, select="i", select_range=(g.n - 1, g.n - 1)
    )[0]
    assert comm_norm <= 0.05 * a_norm


# ---------------------------------------------------------------------------
# eigendecomposition dispatch


def test_eig_window_subset_of_full():
    g = line_grid(8.0, 0.125)
    H = build_h0(g)
    w_all = np.linalg.eigvalsh(dense(H))
    lo, hi = 0.5, 2.5
    w_win, v_win = eig_window(H, lo, hi)
    want = w_all[(w_all >= lo) & (w_all <= hi)]
    assert np.allclose(np.sort(w_win), np.sort(want), rtol=1e-10)
    assert v_win.shape == (g.n, len(w_win))


@pytest.mark.parametrize("storage", ["tridiagonal"])
def test_storage_table_routes_agree_with_dense(storage, rng):
    # every solver runs on the real tridiagonal (d, e); the dense matrix is
    # the reference
    T = build_schrodinger(line_grid(4.0, 0.25), WignerVonNeumann1D())
    mat = dense(T)
    scale = np.linalg.norm(mat, 2)
    n = T.shape[0]
    v = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    assert np.allclose(T.matvec(v), mat @ v, atol=1e-12 * scale)
    assert np.allclose(T.matvec(v[:, 0]), mat @ v[:, 0], atol=1e-12 * scale)
    w = np.linalg.eigvalsh(mat)
    # window edges halfway between eigenvalues, so no solver sits on an edge
    mids = 0.5 * (np.unique(w)[:-1] + np.unique(w)[1:])
    lo, hi = mids[len(mids) // 3], mids[2 * len(mids) // 3]
    wv, Vv = eig_window(T, lo, hi)
    assert np.allclose(wv, w[(w >= lo) & (w <= hi)], atol=1e-10 * scale)
    assert np.max(np.abs(mat @ Vv - Vv * wv)) <= 1e-10 * scale
    assert np.allclose(eigvals_window(T, lo, hi), wv, atol=1e-10 * scale)
    assert count_window(T, lo, hi) == len(wv)


def test_tridiagonal_eigvals_match_eig_window_bit_for_bit():
    H = build_schrodinger(line_grid(60.0, 0.1), WignerVonNeumann1D())
    w, _ = eig_window(H, 0.2, 1.7)
    assert len(w) > 10
    assert np.array_equal(eigvals_window(H, 0.2, 1.7), w)


# ---------------------------------------------------------------------------
# the windowed eigensolver


def _norm1(T):
    rows = np.abs(T.d)
    rows[:-1] += np.abs(T.e)
    rows[1:] += np.abs(T.e)
    return rows.max()


def _check_window_pairs(T, lo, hi, dense):
    """eig_window on [lo, hi] against the dense spectrum of T."""
    norm = _norm1(T)
    w, V = eig_window(T, lo, hi)
    want = dense[(dense >= lo) & (dense <= hi)]
    assert len(w) == len(want) == count_window(T, lo, hi)
    assert V.shape == (T.shape[0], len(w))
    assert np.max(np.abs(w - want), initial=0.0) <= 1e-12 * norm
    residuals = np.linalg.norm(T.matvec(V) - V * w, axis=0)
    assert np.max(residuals, initial=0.0) <= 16.0 * np.finfo(float).eps * norm
    gram = V.conj().T @ V - np.eye(len(w))
    assert np.max(np.abs(gram), initial=0.0) <= 1e-8
    return w, V


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(16, 600),
    seed=st.integers(0, 2**32 - 1),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_window_pairs_match_the_dense_spectrum_of_random_tridiagonals(n, seed, ends):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
    e = rng.normal(size=n - 1) * (rng.random(n - 1) > 0.1)  # some split blocks
    T = OperatorMatrix(Grid1D("line", 1.0, n), d, e)
    spectrum = np.linalg.eigvalsh(dense(T))
    lo, hi = sorted(spectrum[0] + (spectrum[-1] - spectrum[0]) * np.asarray(ends))
    # a proper window whose ends are not ambiguous to a dense count
    assume(hi > lo)
    gaps = np.abs(np.concatenate((spectrum - lo, spectrum - hi)))
    assume(np.min(gaps) >= 1e-10 * _norm1(T))
    _check_window_pairs(T, lo, hi, spectrum)


@pytest.mark.parametrize("alpha, beta", [(1.0, 0.6), (1.5, 1.0), (2.0, 0.75)])
@pytest.mark.parametrize("window", [(0.2, 0.6), (1.2, 1.7), (-1.0, 3.0)])
def test_window_pairs_match_the_dense_spectrum_of_oscillating_potentials(
    alpha, beta, window
):
    V = OscillatingSpec(w=3.0, k=2.0, alpha=alpha, beta=beta)
    H = build_schrodinger(line_grid(30.0, 0.1), V)
    assert H.shape[0] <= 600
    _check_window_pairs(H, *window, np.linalg.eigvalsh(dense(H)))


def test_window_pairs_keep_a_close_pair_apart():
    # scenario 02's box holds two eigenvalues 3.2e-11 apart in (0.9, 1.1)
    H = build_schrodinger(line_grid(400.0, 0.05), WignerVonNeumann1D())
    w, V = eig_window(H, 0.9, 1.1)
    i = int(np.argmin(np.diff(w)))
    assert w[i + 1] - w[i] < 1e-10
    assert np.max(np.abs(V.T @ V - np.eye(len(w)))) <= 1e-10
    bound = 16.0 * np.finfo(float).eps * _norm1(H)
    assert np.max(np.linalg.norm(H.matvec(V) - V * w, axis=0)) <= bound
    # a window end between the two takes one each, both still certified
    mid = 0.5 * (w[i] + w[i + 1])
    below, v_below = eig_window(H, 0.9, mid)
    above, v_above = eig_window(H, mid, 1.1)
    assert len(below) == i + 1 and len(above) == len(w) - i - 1
    assert np.allclose(np.concatenate((below, above)), w, rtol=0.0, atol=bound)
    for wj, vj in ((below[-1], v_below[:, -1]), (above[0], v_above[:, 0])):
        assert np.linalg.norm(H.matvec(vj) - wj * vj) <= bound


def test_window_pairs_of_a_multiple_eigenvalue():
    # 20 uncoupled copies of one 3 x 3 block: every eigenvalue is 20-fold,
    # one group whose residuals may round 20-fold
    block_d, block_e = np.array([1.0, -2.0, 0.5]), np.array([1.0, 1.0, 0.0])
    d, e = np.tile(block_d, 20), np.tile(block_e, 20)[:-1]
    T = OperatorMatrix(Grid1D("line", 1.0, 60), d, e)
    want = np.linalg.eigvalsh(dense(T))
    assert np.unique(np.round(want, 12)).size == 3
    lo, hi = want[20] - 0.5, want[20] + 0.5
    w, V = eig_window(T, lo, hi)
    assert len(w) == count_window(T, lo, hi) == 20
    assert np.max(np.abs(w - want[20:40])) <= 1e-12 * _norm1(T)
    assert np.max(np.abs(V.T @ V - np.eye(20))) <= 1e-8
    bound = 20 * 16.0 * np.finfo(float).eps * _norm1(T)
    assert np.max(np.linalg.norm(T.matvec(V) - V * w, axis=0)) <= bound


def test_window_pairs_of_an_empty_window():
    H = build_h0(line_grid(10.0, 0.1))
    w, V = eig_window(H, -2.0, -1.0)
    assert w.shape == (0,) and V.shape == (H.shape[0], 0)
    assert eigvals_window(H, -2.0, -1.0).shape == (0,)


def test_window_pairs_rerun_to_the_same_bytes():
    H = build_schrodinger(line_grid(60.0, 0.1), WignerVonNeumann1D())
    w, V = eig_window(H, 0.2, 1.7)
    again_w, again_V = eig_window(H, 0.2, 1.7)
    assert np.array_equal(w, again_w) and np.array_equal(V, again_V)


def test_window_pairs_raise_when_the_sweep_cap_is_reached(monkeypatch):
    # a group stops only at its second certified sweep, so one sweep never
    # suffices
    monkeypatch.setattr(oscilab.discretize, "_MAX_SWEEPS", 1)
    H = build_h0(line_grid(10.0, 0.1))
    with pytest.raises(ComputeFailure) as err:
        eig_window(H, 0.5, 1.5)
    assert err.value.invariant == "eig-window-convergence"
    with pytest.raises(ComputeFailure):
        eigvals_window(H, 0.5, 1.5)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(16, 120),
    seed=st.integers(0, 2**32 - 1),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_sturm_count_column_matches_dense_count(n, seed, ends):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
    e = rng.normal(size=n - 1) * (rng.random(n - 1) > 0.1)  # some split blocks
    T = OperatorMatrix(Grid1D("line", 1.0, n), d, e)
    ev = np.linalg.eigvalsh(dense(T))
    span = ev[-1] - ev[0] + 2.0
    lo, hi = sorted(ev[0] - 1.0 + span * np.asarray(ends))
    # a proper window whose ends sit at least 1e-8 from every eigenvalue
    assume(hi > lo)
    assume(np.min(np.abs(np.concatenate((ev - lo, ev - hi)))) >= 1e-8)
    want = int(np.count_nonzero((ev >= lo) & (ev <= hi)))
    assert count_window(T, lo, hi) == want
    full = eigh_tridiagonal(d, e, eigvals_only=True, select="v", select_range=(lo, hi))
    assert len(full) == want


def test_imag_tridiagonal_eig_consistency():
    # eig_window over the whole spectrum of the dilation generator's real J;
    # D^H turns J's eigenvectors into those of A = D^H J D
    g = line_grid(4.0, 0.25)
    A = build_conjugate_A(g)
    bound = np.max(np.abs(A.e)) * 2.0 + 1.0
    w, u = eig_window(A, -bound, bound)
    assert len(w) == g.n
    v = np.conj(phase(g.n))[:, None] * u
    res = dilation(g) @ v - v * w
    assert np.max(np.abs(res)) <= 1e-10 * max(np.max(np.abs(w)), 1.0)
