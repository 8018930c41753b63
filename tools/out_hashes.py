"""Exit codes and output hashes of a fixed set of CLI runs.

    python3 tools/out_hashes.py > hashes.json

Runs every catalog config of perfbench (catalog.config_doc), then one
config for each route that no catalog config reaches, through
oscilab.cli.run, each into its own temporary directory. Prints JSON
{config: [exit_code, {file: sha256}]}, with every file the run wrote except
manifest.json, which holds the wall time. Two checkouts that should give
the same bytes then compare with diff:

    python3 tools/out_hashes.py > /tmp/a.json   # in one checkout
    python3 tools/out_hashes.py > /tmp/b.json   # in the other
    diff /tmp/a.json /tmp/b.json

Standard library only; the run takes about ten seconds on two CPUs.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# routes no catalog config reaches, each at a small scale
_WVN = {"kind": "wvn_1d"}
EXTRA = {
    "mourre-strict": (
        "mourre-check", {"kind": "strict", "window": [0.5, 1.5], "L": 40.0, "h": 0.1}
    ),
    "mourre-plain": (
        "mourre-check",
        {"kind": "plain", "window": [0.9, 1.1], "L": 60.0, "h": 0.05,
         "potential": _WVN, "rank_budget": 2},
    ),
    "mourre-weighted": (
        "mourre-check",
        {"kind": "weighted", "window": [0.5, 1.5], "L": 60.0, "h": 0.05,
         "phi": {"s": 0.6, "R": 4.0}},
    ),
    "mourre-at-infinity": (
        "mourre-check",
        {"kind": "at_infinity", "window": [0.5, 1.0], "L": 100.0, "h": 0.1,
         "R": 10.0, "trials": 16},
    ),
    "probe-windowed-channel": (
        "compactness-probe",
        {"window": [0.3, 0.8], "k": 2.0, "radii": [5.0, 10.0], "L": 40.0, "h": 0.1},
    ),
    "find-embedded": (
        "find-embedded",
        {"potential": _WVN, "window": [0.8, 1.2], "boxes": [60.0, 120.0], "h": 0.05},
    ),
    # several cells in one sweep, one of them over budget: the only route
    # whose task list holds more than one cell's screens and chains
    "phase-multi-cell": (
        "phase-diagram",
        {"alphas": [1.0, 2.0], "betas": [0.6, 1.0], "h": 0.25,
         "boxes": [60.0, 120.0], "budget": 3,
         "windows": {"below": [0.2, 0.6], "above": [1.2, 1.7]}},
    ),
    # a cell strong enough (w = 10) to hold a genuine eigenvalue in each
    # window: the only run whose screen keeps a group and so reaches the
    # fine windowed kernel
    "phase-genuine-cell": (
        "phase-diagram",
        {"alphas": [1.0], "betas": [0.6], "k": 2.0, "w": 10.0, "h": 0.25,
         "boxes": [60.0, 120.0],
         "windows": {"below": [0.2, 0.6], "above": [1.2, 1.7]}},
    ),
    "lap-scan-im-ladder": (
        "lap-scan",
        {"interval": [0.5, 1.5], "boxes": [100.0, 200.0], "h": 0.2,
         "im_ladder": [2.0, 1.0, 0.6, 0.4, 0.01]},
    ),
    # two scans refused before any output (exit 2): one box twice, and a
    # ladder with fewer than three rungs above the floor (0.303 here)
    "lap-scan-repeated-box": (
        "lap-scan", {"interval": [0.5, 1.5], "boxes": [100.0, 100.0], "h": 0.2}
    ),
    "lap-scan-short-ladder": (
        "lap-scan",
        {"interval": [0.5, 1.5], "boxes": [100.0, 200.0], "h": 0.2,
         "im_ladder": [0.05, 0.01]},
    ),
    # keys the variant does not read, and a reversed window in a sweep whose
    # budget builds no cell: each refused before any output (exit 2)
    "mourre-strict-ignored-key": (
        "mourre-check",
        {"kind": "strict", "window": [0.5, 1.5], "L": 40.0, "h": 0.1,
         "phi": {"s": 0.6}},
    ),
    "probe-windowed-ignored-key": (
        "compactness-probe",
        {"window": [0.3, 0.8], "k": 2.0, "radii": [5.0, 10.0], "L": 40.0, "h": 0.1,
         "alpha": 2.0},
    ),
    "phase-over-budget-bad-window": (
        "phase-diagram",
        {"alphas": [1.0], "betas": [0.75], "boxes": [60.0], "budget": 0,
         "windows": {"below": [0.6, 0.2]}},
    ),
    # the three commands on no catalog workload
    "verify-wvn-1d": ("verify-wvn", {"variant": "1d"}),
    "verify-wvn-3d": ("verify-wvn", {"variant": "3d"}),
    "construct-kg": ("construct-kg", {"n": 4096, "length": 200.0}),
    "construct-dirac": ("construct-dirac", {"lam": 1.5, "L": 20.0, "step": 0.01}),
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def configs():
    """(name, command, params, seed) of every run, catalog entries first."""
    from perfbench import catalog

    for entry in catalog.all_entries():
        yield entry.id, entry.command, entry.params, entry.seed
    for name, (command, params) in EXTRA.items():
        yield name, command, params, 0


def run_one(command, params, seed, tmp):
    """Exit code of one CLI run in tmp and the sha256 of each file it wrote."""
    import oscilab.cli

    out_dir = os.path.join(tmp, "out")
    path = os.path.join(tmp, "config.json")
    with open(path, "w") as fh:
        doc = {"command": command, "params": params, "output_dir": out_dir,
               "seed": seed}
        json.dump(doc, fh)
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        code = oscilab.cli.run(path)
    hashes = {}
    for top, _, files in os.walk(out_dir):
        for name in files:
            full = os.path.join(top, name)
            rel = os.path.relpath(full, out_dir)
            if rel != "manifest.json":
                hashes[rel] = _sha256(full)
    return [code, dict(sorted(hashes.items()))]


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    result = {}
    for name, command, params, seed in configs():
        with tempfile.TemporaryDirectory() as tmp:
            result[name] = run_one(command, params, seed, tmp)
    json.dump(result, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
