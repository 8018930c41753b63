"""Workload catalogs and the seeded draw of one run's operation list.

Every operation is one CLI config (the documented ``command``/``params``
schema). A workload is a list of cost classes; each class holds variants
of similar cost that differ in their inputs (box sizes, potential, Re z
window, start-vector seed, (alpha, beta) cell), so no two operations of a
run share a config. A round is ``per_round`` variants from every class. A
run is a fixed number of rounds, set from ``--seconds`` and the per-class
cost measured at the seed commit, so the list does not depend on how fast
the program under test happens to be; the seed picks which variants and
their order. Where a run uses every variant of a class, the seed sets only
the order: variants differ by up to 15% in cost, and drawing a subset
would put that spread into every metric.

This module is numpy-free and deterministic: the same (workload, seed,
seconds) always gives the same list.
"""

import math
import random
from dataclasses import dataclass, replace

# share of --seconds the nominal op list fills; the rest absorbs run-to-run
# noise so a run stays near its time budget
FILL = 0.9

# scenario 12 of the acceptance suite: w sin(k|x|^alpha)/|x|^beta plus a
# sampled 0.5 sech^2 bump (161 samples on [-8, 8])
_SECH_X = [-8.0 + 0.1 * i for i in range(161)]
SCENARIO12_POTENTIAL = {
    "kind": "sum",
    "parts": [
        {"kind": "oscillating", "w": 3.0, "k": 2.0, "alpha": 1.0, "beta": 1.0},
        {
            "kind": "short_range_sample",
            "x": _SECH_X,
            "values": [0.5 / math.cosh(x) ** 2 for x in _SECH_X],
            "rho_sr": 2.0,
        },
    ],
}
# scenario 12's Re z windows below and above the interference threshold
# k^2/4 = 1, plus one across it
S12_WINDOWS = {"below": [0.3, 0.8], "across": [0.8, 1.2], "above": [1.2, 2.0]}
# scenario 13's phase-diagram grid and windows (k = 2, w = 3)
PHASE_ALPHAS = (1.0, 1.5, 2.0)
PHASE_BETAS = (0.6, 0.75, 1.0)
PHASE_WINDOWS = {"below": [0.2, 0.6], "above": [1.2, 1.7]}


@dataclass(frozen=True)
class Entry:
    """One catalog operation: a stable id, its CLI command, params, and checks."""

    id: str
    command: str
    params: dict
    seed: int = 0
    expect: tuple = ()  # analytic expectations, see checks.analytic_problems


@dataclass(frozen=True)
class CostClass:
    name: str
    nominal_s: float  # single-thread seconds per op at the seed commit
    entries: tuple
    per_round: int = 1  # ops per round; the middle class gets the most so
    # that op_s_p50 is a median over several of its ops, not one op


def _boxes(base, scale):
    return [round(base[0] * scale, 6), round(base[1] * scale, 6)]


def _lap_banded():
    # scenario 12 (the above-threshold window is the known p = 0.5548
    # inconclusive) and the weighted free control at n = 8k/16k, where the
    # LU factors plus the n x 5 block outgrow a 2 MiB L2
    s12 = tuple(
        Entry(
            f"lap-banded/s12-L{L:g}/{win_name}",
            "lap-scan",
            {"potential": SCENARIO12_POTENTIAL, "interval": win, "s": 2.0, "h": 0.1,
             "boxes": [L, 2.0 * L]},
        )
        for L in (200.0, 210.0)
        for win_name, win in S12_WINDOWS.items()
    )
    free = tuple(
        Entry(
            f"lap-banded/free-L1600/s{s:g}",
            "lap-scan",
            {"interval": [0.5, 1.5], "s": s, "h": 0.4, "boxes": [1600.0, 3200.0]},
        )
        for s in (0.51, 1.0)
    )
    return (CostClass("s12", 1.7, s12, per_round=3), CostClass("free-L1600", 5.15, free))


def _phase_cells():
    # one class per alpha: cell cost falls with alpha, so a run draws one
    # beta per alpha and every run holds the same cost mix
    classes = []
    for alpha, nominal in zip(PHASE_ALPHAS, (5.3, 5.0, 4.6)):
        cells = []
        for beta in PHASE_BETAS:
            params = {
                "alphas": [alpha],
                "betas": [beta],
                "k": 2.0,
                "w": 3.0,
                "windows": PHASE_WINDOWS,
                "s": 2.0,
                "h": 0.1,
                "boxes": [200.0, 400.0],
            }
            cells.append(
                Entry(
                    f"phase-cells/a{alpha:g}/b{beta:g}",
                    "phase-diagram",
                    params,
                    expect=("below_holds",),
                )
            )
        classes.append(CostClass(f"a{alpha:g}", nominal, tuple(cells)))
    return tuple(classes)


def _periodic_probe():
    # L = 100 keeps the alpha = 2 oscillation sin(x^2) resolved on the
    # grid (Nyquist pi n / 2L above its top frequency 2L) from n = 16384 up,
    # so scenario 07's analytic verdicts apply to every entry; the config
    # seed sets the start block of the power iteration
    classes = []
    for label, n, alpha, nominal, per_round in (
        ("a2-n16384", 16384, 2.0, 1.4, 1),
        ("a1-n8192", 8192, 1.0, 1.65, 3),
        ("a2-n32768", 32768, 2.0, 2.85, 1),
    ):
        expect = ("decays_to_zero",) if alpha == 2.0 else ("plateaus",)
        entries = tuple(
            Entry(
                f"periodic-probe/{label}/seed{seed}",
                "compactness-probe",
                {
                    "mode": "smoothed_multiplier",
                    "L": 100.0,
                    "n": n,
                    "p": 1.0,
                    "alpha": alpha,
                    "k": 1.0,
                    "radii": [5.0, 10.0, 20.0, 40.0, 80.0],
                },
                seed=seed,
                expect=expect,
            )
            for seed in range(2 * per_round)
        )
        classes.append(CostClass(label, nominal, entries, per_round))
    return tuple(classes)


def _operator_weight():
    classes = []
    # the middle class runs two ops a round, so it holds twice the variants
    for base, nominal, per_round, scales in (
        ((10.0, 20.0), 0.85, 1, (0.99, 1.0, 1.01)),
        ((12.0, 24.0), 1.33, 2, (0.97, 0.98, 0.99, 1.0, 1.01, 1.02)),
        ((15.0, 30.0), 2.25, 1, (0.99, 1.0, 1.01)),
    ):
        entries = []
        for scale in scales:
            for pot_name, pot in (("free", None), ("s12", SCENARIO12_POTENTIAL)):
                params = {
                    "interval": [0.5, 1.5],
                    "s": 0.51,
                    "h": 0.2,
                    "weight_kind": "conjugate_A",
                    "boxes": _boxes(base, scale),
                }
                if pot is not None:
                    params["potential"] = pot
                entries.append(
                    Entry(
                        f"operator-weight/{pot_name}-L{base[0]:g}/x{scale:g}",
                        "lap-scan",
                        params,
                    )
                )
        classes.append(CostClass(f"L{base[0]:g}", nominal, tuple(entries), per_round))
    return tuple(classes)


def _whole_round(classes):
    """The classes with every variant in one round."""
    return tuple(replace(c, per_round=len(c.entries)) for c in classes)


# the four workloads, one per dominant layer; ``run.py --workload all`` runs these
BASE_WORKLOADS = ("lap-banded", "phase-cells", "periodic-probe", "operator-weight")
WORKLOADS = {
    "lap-banded": _lap_banded(),
    "phase-cells": _phase_cells(),
    "periodic-probe": _periodic_probe(),
    "operator-weight": _operator_weight(),
}
# lap-banded and periodic-probe in one run: both are the block power
# iteration (LU applies and FFT applies), the kernel of ROADMAP item 2.
# BENCHMARK.json runs this union instead of the two, so that three workloads
# fit runs long enough to average out the shared host's speed swings. One
# round is every variant of both (38.9 s nominal).
WORKLOADS["block-norm"] = _whole_round(
    WORKLOADS["lap-banded"] + WORKLOADS["periodic-probe"]
)


def all_entries():
    """Every catalog entry, once, in catalog order."""
    return [e for name in BASE_WORKLOADS for c in WORKLOADS[name] for e in c.entries]


def draw(workload, seed, seconds, traced=False):
    """The run's operation list, in a seeded order.

    Whole rounds (per_round variants of every class, drawn without
    replacement) fill
    FILL * seconds at the nominal costs; a traced run runs every op twice,
    untraced and traced, so it gets half the budget. When not even one
    round fits, the run takes a seeded part of one round, at least one op.
    """
    classes = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    budget = FILL * seconds / (2 if traced else 1)
    round_s = sum(c.nominal_s * c.per_round for c in classes)
    per_round = sum(c.per_round for c in classes)
    rounds = min(min(len(c.entries) // c.per_round for c in classes), int(budget // round_s))
    ops = []
    for c in classes:
        ops.extend(rng.sample(c.entries, max(rounds, 1) * c.per_round))
    rng.shuffle(ops)
    if rounds == 0:
        ops = ops[: max(1, int(budget * per_round // round_s))]
    return ops


def config_doc(entry, output_dir):
    """The CLI config document for one operation."""
    return {
        "command": entry.command,
        "params": entry.params,
        "output_dir": output_dir,
        "seed": entry.seed,
    }
