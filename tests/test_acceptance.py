"""Full-scale acceptance checks, one per numbered scenario, in file order.

Each test prints exactly one PASS/FAIL line with its measured numbers
(visible under ``pytest -s``, or in the captured-output block when a test
fails) and enforces the numeric tolerances together with a wall-clock
budget for the scenario. The scenarios re-run the headline computations at
full scale, so the whole file takes a quarter hour or so on one core.
"""

import hashlib
import time

import numpy as np
from conftest import demo_simon, line_build

from oscilab.construct import (
    dirac_check_limits,
    dirac_solve_potential,
    kg_construct,
    verify_wvn_1d,
    verify_wvn_3d,
    DiracChannelSpec,
)
from oscilab.discretize import (
    WindowSpec,
    build_h0,
    halfline_grid,
    line_grid,
    periodic_grid,
)
from oscilab.lap import (
    LapScanSpec,
    lap_scan,
    mourre_check,
    phase_cells_to_csv,
    phase_cells_to_svg,
    phase_sweep,
    weighted_mourre_check,
)
from oscilab.potentials import (
    OscillatingSpec,
    ShortRangeSample,
    SumPotential,
    WeightFunctionSpec,
    WignerVonNeumann1D,
    check_simon_envelope,
)
from oscilab.spectral import (
    find_embedded,
    interference_symbol_check,
    oscillation_compactness_probe,
    small_plus_decay_probe,
)


def _check(num, name, seconds, budget, ok, detail):
    in_budget = seconds < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    line = (
        f"[{num:02d}] {name}: {status} {detail} "
        f"({seconds:.1f}s, budget {budget:.0f}s)"
    )
    print(line)
    assert ok and in_budget, line


def _short_range_sample():
    x = np.linspace(-8.0, 8.0, 161)
    return ShortRangeSample(
        x=tuple(x), values=tuple(0.5 / np.cosh(x) ** 2), rho_sr=2.0
    )


def test_01_bound_state_identity_1d():
    t0 = time.perf_counter()
    residual = verify_wvn_1d(50.0, 1e-3)
    dt = time.perf_counter() - t0
    _check(
        1, "bound state identity, 1d", dt, 1.0,
        residual < 1e-9, f"max residual {residual:.2e} (tol 1e-9)",
    )


def test_02_embedded_eigenvalue_box_stability():
    t0 = time.perf_counter()
    found = find_embedded(
        line_build(0.05, WignerVonNeumann1D()), (0.9, 1.1), (200.0, 400.0)
    )
    genuine = [c for c in found if c.verdict == "genuine"]
    dt = time.perf_counter() - t0
    ok = (
        len(genuine) == 1
        and abs(genuine[0].energy - 1.0) <= 1e-2
        and genuine[0].localization >= 0.99
        and genuine[0].box_drift <= 5e-3
    )
    detail = (
        f"genuine={len(genuine)}"
        + (
            f" E={genuine[0].energy:.6f} loc={genuine[0].localization:.4f}"
            f" drift={genuine[0].box_drift:.1e}"
            if genuine
            else ""
        )
    )
    _check(2, "embedded eigenvalue, box stability", dt, 120.0, ok, detail)


def test_03_bound_state_identity_3d_radial():
    t0 = time.perf_counter()
    residual = verify_wvn_3d(50.0, 1e-3)
    dt = time.perf_counter() - t0
    _check(
        3, "bound state identity, 3d radial", dt, 1.0,
        residual < 1e-9, f"max residual {residual:.2e} (tol 1e-9)",
    )


def test_04_dirac_channel_construction():
    t0 = time.perf_counter()
    ok = True
    parts = []
    for lam in (1.5, -1.5):
        spec = DiracChannelSpec(m=1.0, lam=lam, kappa_rho=1.0, u_decay=1.0)
        cons = dirac_solve_potential(spec)
        limits = dirac_check_limits(cons)
        r = cons.grid.x
        near = (r >= 50.0) & (r <= 100.0)
        far = (r >= 100.0) & (r <= 200.0)
        decay_sc = np.max(np.abs(cons.phi_sc[far])) < np.max(np.abs(cons.phi_sc[near]))
        decay_am = np.max(np.abs(cons.phi_am[far])) < np.max(np.abs(cons.phi_am[near]))
        finite = np.isfinite(limits.phi_sc_at_first) and np.isfinite(
            limits.phi_am_at_first
        )
        ok = ok and cons.residual_max < 1e-8 and finite and decay_sc and decay_am
        parts.append(f"lam={lam:+.1f} residual={cons.residual_max:.1e}")
    dt = time.perf_counter() - t0
    _check(4, "inverse Dirac channel", dt, 30.0, ok, " ".join(parts))


def test_05_relativistic_construction():
    t0 = time.perf_counter()
    cons = kg_construct(1.0, periodic_grid(200.0, 65536))
    x = cons.grid.x
    interior = np.abs(x) <= 0.8 * cons.grid.L
    bracket_max = float((np.abs(cons.V) * np.sqrt(1.0 + x * x))[interior].max())
    lam_err = abs(cons.lam - (np.sqrt(2.0) - 1.0))
    dt = time.perf_counter() - t0
    ok = (
        lam_err <= 1e-12
        and cons.residual_max < 1e-6
        and bracket_max <= cons.v_bracket_bound
    )
    _check(
        5, "square-root relativistic construction", dt, 60.0, ok,
        f"lam_err={lam_err:.1e} residual={cons.residual_max:.2e} "
        f"|V|<x> max {bracket_max:.3f} <= reported {cons.v_bracket_bound:.3f}",
    )


def test_06_interference_threshold_tails():
    t0 = time.perf_counter()
    L = np.pi / 4.0 + 254.0 * np.pi / 2.0
    grid = halfline_grid(L, 0.025)
    radii = (2.0, 40.0, 80.0, 120.0, 160.0, 240.0)
    below = small_plus_decay_probe(grid, WindowSpec(0.3, 0.8), 2.0, radii)
    above = small_plus_decay_probe(grid, WindowSpec(1.2, 1.7), 2.0, radii)
    symbol_below = interference_symbol_check(WindowSpec(0.3, 0.8), 2.0)
    symbol_above = interference_symbol_check(WindowSpec(1.2, 1.7), 2.0)
    dt = time.perf_counter() - t0
    ratio = below.tail_norms[-1] / below.tail_norms[0]
    ok = (
        below.verdict == "decays_to_zero"
        and ratio <= 0.1
        and above.verdict == "plateaus"
        and above.plateau_estimate >= 0.05 * above.operator_norm
        and symbol_below == 0.0
        and symbol_above > 0.0
    )
    _check(
        6, "interference threshold tails", dt, 120.0, ok,
        f"below ratio={ratio:.3f} above plateau={above.plateau_estimate:.3f} "
        f"of |M|={above.operator_norm:.3f}; symbols {symbol_below:.1f}/"
        f"{symbol_above:.2f}",
    )


def test_07_smoothed_oscillation_probe():
    t0 = time.perf_counter()
    grid = periodic_grid(200.0, 65536)
    fast = oscillation_compactness_probe(grid, 1.0, 2.0, 1.0)
    slow = oscillation_compactness_probe(grid, 1.0, 1.0, 1.0)
    dt = time.perf_counter() - t0
    ok = fast.verdict == "decays_to_zero" and slow.verdict == "plateaus"
    _check(
        7, "smoothed oscillation probe", dt, 120.0, ok,
        f"alpha=2 {fast.verdict}, alpha=1 {slow.verdict} "
        f"(plateau {slow.plateau_estimate:.1f})",
    )


def test_08_no_embedded_eigenvalues_for_fast_oscillation():
    t0 = time.perf_counter()
    V = SumPotential(
        (OscillatingSpec(w=3.0, k=2.0, alpha=2.0, beta=1.0), _short_range_sample())
    )
    found = find_embedded(line_build(0.05, V), (0.2, 2.0), (200.0, 400.0))
    genuine = [c for c in found if c.verdict == "genuine"]
    dt = time.perf_counter() - t0
    _check(
        8, "no embedded eigenvalues, fast oscillation", dt, 120.0,
        len(genuine) == 0,
        f"candidates={len(found)} genuine={len(genuine)}",
    )


def test_09_commutator_constant_tracks_energy():
    t0 = time.perf_counter()
    grid = line_grid(400.0, 0.01)
    H = build_h0(grid)
    energies = np.array([0.5, 1.0, 1.5])
    cs = [mourre_check(H, (E - 0.1, E + 0.1)).best_c for E in energies]
    slope = float(np.polyfit(energies, cs, 1)[0])
    dt = time.perf_counter() - t0
    _check(
        9, "commutator constant vs energy", dt, 60.0,
        abs(slope - 2.0) <= 0.2,
        f"best_c={['%.3f' % c for c in cs]} slope={slope:.4f} (want 2 +- 10%)",
    )


def test_10_weighted_commutator_R_ladder():
    t0 = time.perf_counter()
    grid = line_grid(60.0, 0.05)
    H = build_h0(grid)
    J = (0.5, 1.5)
    values = []
    for R in (1.0, 4.0, 16.0, 64.0):
        phi = WeightFunctionSpec(s=0.51, R=R, c=1.0 / J[0])
        values.append(weighted_mourre_check(H, phi, J, 0.51).best_c)
    dt = time.perf_counter() - t0
    nondecreasing = all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    ok = nondecreasing and values[-1] >= -1e-6
    _check(
        10, "weighted commutator R ladder", dt, 120.0, ok,
        "best_c " + " -> ".join(f"{v:.3e}" for v in values),
    )


def test_11_resolvent_scan_free_controls():
    t0 = time.perf_counter()
    build = line_build(0.4)
    boxes = (25600.0, 51200.0)
    holds = lap_scan(build, LapScanSpec(interval=(0.5, 1.5), s=0.51, box_list=boxes))
    fails = lap_scan(build, LapScanSpec(interval=(0.5, 1.5), s=0.0, box_list=boxes))
    dt = time.perf_counter() - t0
    ok = (
        holds.verdict == "lap_holds"
        and holds.divergence_exponent <= 0.15
        and holds.box_stability <= 0.2
        and fails.verdict == "lap_fails"
        and abs(fails.divergence_exponent - 1.0) <= 0.05
    )
    _check(
        11, "weighted resolvent free controls", dt, 120.0, ok,
        f"s=0.51: {holds.verdict} p={holds.divergence_exponent:.4f} "
        f"stab={holds.box_stability:.3f}; s=0: {fails.verdict} "
        f"p={fails.divergence_exponent:.4f}",
    )


def test_12_resolvent_scan_oscillating_with_short_range():
    t0 = time.perf_counter()
    V = SumPotential(
        (OscillatingSpec(w=3.0, k=2.0, alpha=1.0, beta=1.0), _short_range_sample())
    )
    build = line_build(0.1, V)
    results = {}
    for window in ((0.3, 0.8), (1.2, 2.0)):
        results[window] = lap_scan(
            build, LapScanSpec(interval=window, s=2.0, box_list=(200.0, 400.0))
        )
    dt = time.perf_counter() - t0
    parts = []
    ok = True
    for window, res in results.items():
        stable = all(v == "lap_holds" for (_, _, _, v) in res.box_reports)
        ok = ok and res.verdict == "lap_holds" and stable
        parts.append(
            f"{list(window)}: {res.verdict} p={res.divergence_exponent:.4f} "
            f"floor={res.im_floor:.4f} stab={res.box_stability:.3f}"
        )
    # Above the interference threshold the norm curve is still rising when
    # the ladder hits the level-spacing floor of these box sizes, so the
    # fitted exponent stays in the inconclusive band for every weight
    # strength; the same scan settles to lap_holds at half-lengths 800 and
    # 1600 (p = 0.08). The check states the required verdict at the stated
    # box sizes and reports what was measured.
    _check(
        12, "weighted resolvent, oscillating + short range", dt, 300.0, ok,
        "; ".join(parts),
    )


def test_13_phase_diagram_sweep(tmp_path):
    t0 = time.perf_counter()
    windows = {"below": (0.2, 0.6), "above": (1.2, 1.7)}
    args = ((1.0, 1.5, 2.0), (0.6, 0.75, 1.0), 2.0, 3.0, windows)
    first_csv = tmp_path / "phase_a.csv"
    second_csv = tmp_path / "phase_b.csv"
    cells = phase_sweep(*args)
    phase_cells_to_csv(cells, first_csv)
    phase_cells_to_svg(cells, tmp_path / "phase_a.svg")
    again = phase_sweep(*args)
    phase_cells_to_csv(again, second_csv)
    phase_cells_to_svg(again, tmp_path / "phase_b.svg")
    dt = time.perf_counter() - t0
    below = [c for c in cells if c.window_name == "below"]
    pairs = {(c.alpha, c.beta) for c in cells}
    digest_a = hashlib.sha256(first_csv.read_bytes()).hexdigest()
    digest_b = hashlib.sha256(second_csv.read_bytes()).hexdigest()
    svg_ok = (tmp_path / "phase_a.svg").read_text().startswith("<svg")
    ok = (
        {(1.0, 1.0), (2.0, 0.75), (1.5, 0.6)} <= pairs
        and len(below) == 9
        and all(c.verdict == "lap_holds" for c in below)
        and digest_a == digest_b
        and again == cells
        and svg_ok
    )
    worst = max(c.divergence_exponent for c in below)
    _check(
        13, "phase diagram sweep", dt, 1200.0, ok,
        f"below cells all lap_holds (worst p={worst:.4f}), "
        f"deterministic={digest_a == digest_b}",
    )


def test_14_series_envelope_bound():
    t0 = time.perf_counter()
    spec, envelope_x, envelope_values = demo_simon()
    x = np.linspace(0.0, 1000.0, 10**4)
    report = check_simon_envelope(spec, envelope_x, envelope_values, x)
    dt = time.perf_counter() - t0
    _check(
        14, "series envelope bound", dt, 1.0, report.holds,
        f"max ratio {report.max_ratio:.3f} at x={report.worst_x:.2f}",
    )
