import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

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
    eig_full,
    eig_window,
    halfline_grid,
    line_grid,
    periodic_grid,
)
from oscilab.errors import InvariantViolation
from oscilab.lap import _br_profile
from oscilab.potentials import CustomSample, WignerVonNeumann1D


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
    w, _ = eig_full(T)
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


def test_h0_periodic_exact_multiplier():
    g = periodic_grid(6.0, 48)
    T = build_h0(g)
    assert T.storage == "fourier"
    want = (2.0 * np.pi * np.fft.fftfreq(48, d=g.h)) ** 2
    assert np.array_equal(T.data["multiplier"], want)


# ---------------------------------------------------------------------------
# channel and Schrodinger builders


def test_radial_channel_alpha_zero_is_free():
    g = halfline_grid(10.0, 0.1)
    free = build_h0(g)
    chan = build_radial_channel(g, 0.0)
    assert np.array_equal(chan.data["d"], free.data["d"])
    assert np.array_equal(chan.data["e"], free.data["e"])


def test_radial_channel_adds_inverse_square():
    g = halfline_grid(10.0, 0.1)
    chan = build_radial_channel(g, 2.0)
    free = build_h0(g)
    assert np.allclose(chan.data["d"] - free.data["d"], 2.0 / g.x**2, rtol=1e-14)
    with pytest.raises(InvariantViolation) as err:
        build_radial_channel(line_grid(10.0, 0.1), 2.0)
    assert err.value.invariant == "channel-grid"


def test_schrodinger_diagonal_perturbation():
    g = line_grid(20.0, 0.1)
    H = build_schrodinger(g, WignerVonNeumann1D())
    free = build_h0(g)
    from oscilab.potentials import eval_wvn_potential

    assert np.allclose(
        H.data["d"] - free.data["d"], eval_wvn_potential(g.x), rtol=1e-14
    )
    H0 = build_schrodinger(g, None)
    assert np.array_equal(H0.data["d"], free.data["d"])


def test_schrodinger_periodic_with_potential_is_dense_hermitian():
    g = periodic_grid(10.0, 64)
    V = CustomSample(x=(-5.0, 0.0, 5.0), values=(0.0, 1.0, 0.0))
    H = build_schrodinger(g, V)
    assert H.storage == "dense"
    mat = H.entries
    assert np.linalg.norm(mat - mat.conj().T) <= 1e-14 * np.linalg.norm(mat)
    H0 = build_schrodinger(g, None)
    assert H0.storage == "fourier"


def test_schrodinger_constant_shift_moves_spectrum():
    g = line_grid(5.0, 0.125)
    V = CustomSample(x=(-10.0, 10.0), values=(0.7, 0.7))
    w0, _ = eig_full(build_schrodinger(g, None))
    w1, _ = eig_full(build_schrodinger(g, V))
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
    assert A.storage == "imag_tridiagonal"
    mat = A.entries
    assert np.all(np.diag(mat) == 0.0)
    assert np.linalg.norm(mat - mat.conj().T) == 0.0
    with pytest.raises(InvariantViolation) as err:
        build_conjugate_A(periodic_grid(10.0, 32))
    assert err.value.invariant == "conjugate-grid"


def test_conjugate_A_preserves_parity():
    # x d/dx flips parity twice (x is odd, d/dx maps even to odd), so the
    # dilation generator commutes with reflection: even stays even, odd odd
    g = line_grid(10.0, 0.1)
    A = build_conjugate_A(g)
    even = np.exp(-g.x**2 / 4.0)
    out = A.matvec(even)
    assert np.max(np.abs(out - out[::-1])) <= 1e-13 * np.max(np.abs(out))
    odd = g.x * np.exp(-g.x**2 / 4.0)
    out = A.matvec(odd)
    assert np.max(np.abs(out + out[::-1])) <= 1e-13 * np.max(np.abs(out))


def test_conjugate_A_commutator_calibration():
    # <f, [H0, iA] f> should track <f, 2 H0 f> on interior wave packets
    g = line_grid(40.0, 0.01)
    H = build_h0(g)
    A = build_conjugate_A(g)
    f = np.exp(-(g.x**2) / 50.0) * np.cos(2.0 * g.x)
    f = f / np.linalg.norm(f)
    comm = 1j * (H.matvec(A.matvec(f)) - A.matvec(H.matvec(f).astype(complex)))
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
    assert np.all(W0.data["d"] == 1.0)
    W = build_weight(g, 0.51)
    center = np.argmin(np.abs(g.x))
    assert W.data["d"][center] == pytest.approx(1.0)
    assert np.linalg.norm(W.entries, 2) <= 1.0 + 1e-15
    with pytest.raises(InvariantViolation) as err:
        build_weight(g, -0.5)
    assert err.value.invariant == "weight-exponent"


def test_weight_operator_basis_commutes():
    g = line_grid(6.4, 0.1)
    A = build_conjugate_A(g)
    W = build_weight(g, 0.6, operator_basis=A)
    assert W.storage == "dense"
    wa = W.entries @ A.entries
    aw = A.entries @ W.entries
    assert np.linalg.norm(wa - aw, 2) <= 1e-10 * np.linalg.norm(A.entries, 2)
    assert np.linalg.norm(W.entries, 2) <= 1.0 + 1e-12


def test_window_spec_validation():
    with pytest.raises(InvariantViolation) as err:
        WindowSpec(1.0, 0.5)
    assert err.value.invariant == "window-order"
    with pytest.raises(InvariantViolation) as err:
        WindowSpec(0.0, 1.0, kind="boxcar")
    assert err.value.invariant == "window-kind"


# the window calculus theta(T) = V theta(w) V^H on the window's support, the
# form in which the windowed channel probe applies a WindowSpec


def _window_factors(T, spec):
    w, v = eig_window(T, *spec.support)
    return v, spec.weights(w)


def _window_apply(factors, u):
    v, th = factors
    return v @ (th * (v.conj().T @ u))


def test_window_identity_and_projector_laws():
    g = line_grid(5.0, 0.125)
    H = build_h0(g)
    w, _ = eig_full(H)
    full = WindowSpec(-1.0, w.max() + 1.0, kind="sharp_projector")
    v = np.sin(g.x) + 0.2 * np.cos(3.0 * g.x)
    assert np.allclose(_window_apply(_window_factors(H, full), v), v, atol=1e-10)

    part = WindowSpec(0.3 * w.max(), 0.7 * w.max(), kind="sharp_projector")
    E = _window_factors(H, part)
    Ev = _window_apply(E, v)
    assert np.max(np.abs(_window_apply(E, Ev) - Ev)) <= 1e-12 * np.max(
        np.abs(v)
    )


def test_window_disjoint_is_zero():
    g = line_grid(5.0, 0.125)
    H = build_h0(g)
    dead = WindowSpec(-6.0, -5.0)
    v = np.ones(g.n)
    assert np.max(np.abs(_window_apply(_window_factors(H, dead), v))) <= 1e-12


def test_window_functional_calculus_commutes_with_polynomials(rng):
    n = 40
    raw = rng.normal(size=(n, n))
    mat = 0.5 * (raw + raw.T)
    g = Grid1D("line", 1.0, n)
    T = OperatorMatrix(g, "hamiltonian", "t", "dense", {"mat": mat})
    w, v = eig_full(T)
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
        return _window_apply(theta, A.matvec(u)) - A.matvec(_window_apply(theta, u))

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
    s = np.abs(A.data["s"])
    a_norm = eigvalsh_tridiagonal(
        np.zeros(g.n), s, select="i", select_range=(g.n - 1, g.n - 1)
    )[0]
    assert comm_norm <= 0.05 * a_norm


# ---------------------------------------------------------------------------
# eigendecomposition dispatch


def test_eig_full_orthonormal_and_accurate(rng):
    g = line_grid(8.0, 0.125)
    H = build_schrodinger(g, WignerVonNeumann1D())
    w, v = eig_full(H)
    assert np.allclose(v.T @ v, np.eye(g.n), atol=1e-10)
    res = H.matvec(v) - v * w
    assert np.max(np.abs(res)) <= 1e-10 * np.linalg.norm(H.entries, 2)


def test_eig_window_subset_of_full():
    g = line_grid(8.0, 0.125)
    H = build_h0(g)
    w_all, _ = eig_full(H)
    lo, hi = 0.5, 2.5
    w_win, v_win = eig_window(H, lo, hi)
    want = w_all[(w_all >= lo) & (w_all <= hi)]
    assert np.allclose(np.sort(w_win), np.sort(want), rtol=1e-10)
    assert v_win.shape == (g.n, len(w_win))


def _one_operator_per_storage():
    line = line_grid(4.0, 0.25)
    bump = CustomSample(x=(-5.0, 0.0, 5.0), values=(0.0, 1.0, 0.0))
    return {
        "tridiagonal": build_schrodinger(line, WignerVonNeumann1D()),
        "diagonal": build_weight(line, 0.6),
        "imag_tridiagonal": build_conjugate_A(line),
        "fourier": build_h0(periodic_grid(6.0, 48)),
        "dense": build_schrodinger(periodic_grid(10.0, 48), bump),
    }


@pytest.mark.parametrize("storage", sorted(_one_operator_per_storage()))
def test_storage_table_routes_agree_with_dense(storage, rng):
    T = _one_operator_per_storage()[storage]
    assert T.storage == storage
    mat = T.entries
    scale = np.linalg.norm(mat, 2)
    n = T.shape[0]
    v = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    assert np.allclose(T.matvec(v), mat @ v, atol=1e-12 * scale)
    assert np.allclose(T.matvec(v[:, 0]), mat @ v[:, 0], atol=1e-12 * scale)
    w, V = eig_full(T)
    assert np.all(np.diff(w) >= 0.0)
    assert np.allclose(V.conj().T @ V, np.eye(n), atol=1e-10)
    assert np.max(np.abs(mat @ V - V * w)) <= 1e-10 * scale
    # window edges halfway between eigenvalues, so no solver sits on an edge
    mids = 0.5 * (np.unique(w)[:-1] + np.unique(w)[1:])
    lo, hi = mids[len(mids) // 3], mids[2 * len(mids) // 3]
    wv, Vv = eig_window(T, lo, hi)
    assert np.allclose(wv, w[(w >= lo) & (w <= hi)], atol=1e-10 * scale)
    assert np.max(np.abs(mat @ Vv - Vv * wv)) <= 1e-10 * scale


def test_dense_input_must_be_hermitian():
    g = Grid1D("line", 1.0, 16)
    bad = np.triu(np.ones((16, 16)))
    with pytest.raises(InvariantViolation) as err:
        OperatorMatrix(g, "hamiltonian", "bad", "dense", {"mat": bad})
    assert err.value.invariant == "operator-hermiticity"


def test_imag_tridiagonal_eig_consistency():
    g = line_grid(4.0, 0.25)
    A = build_conjugate_A(g)
    w, v = eig_full(A)
    res = A.matvec(v) - v * w
    assert np.max(np.abs(res)) <= 1e-10 * max(np.max(np.abs(w)), 1.0)
