"""Batch command-line front end.

Runs are described by a JSON config file::

    {
      "command": "lap-scan",
      "params": { ... command-specific ... },
      "output_dir": "out",
      "seed": 0
    }

and dispatched to the compute modules; any other top-level key exits 2
(config-unknown). ``_COMMANDS`` holds, per command, its handler, its
description and its params table (key -> converter, default); a command
with variants has one table per variant, which its selector key
(``kind``, ``mode`` or ``variant``) picks before any other key is read.
``RunConfig`` decodes the params against that table before the output
directory exists: an unknown variant, a key the variant does not read, a
missing required key or a value of the wrong type exits 2, naming the key
by its dotted path (``phi.R``, ``potential.parts[0].beta``). Handlers read
the decoded values only.

Every run writes its CSV/JSON/SVG artifacts plus a manifest with config
echo, version, wall time, and a sha256 per output. Identical config + seed
gives byte-identical outputs at any BLAS thread count the environment asks
for, since a run holds every bundled OpenBLAS at one thread (the manifest's
wall_time and blas_threads fields describe the run, not its outputs).

Exit codes: 0 success, 1 compute failure (error JSON on stderr), 2
validation failure (error JSON on stdout). The error JSON names the violated
invariant wherever one applies.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import MISSING, asdict, dataclass

from . import __version__, _pool
from .construct import (
    DiracChannelSpec,
    dirac_check_limits,
    dirac_solve_potential,
    dirac_summary,
    dirac_to_csv,
    kg_construct,
    kg_summary,
    kg_to_csv,
    verify_wvn_1d,
    verify_wvn_3d,
)
from .discretize import (
    WindowSpec,
    build_schrodinger,
    halfline_grid,
    line_grid,
    periodic_grid,
)
from .errors import ComputeFailure, InvariantViolation
from .lap import (
    LapScanSpec,
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
from .potentials import (
    WeightFunctionSpec,
    _convert,
    _decode_potential,
    _floats,
    _variants,
)
from .spectral import (
    DEFAULT_CHANNEL_ALPHAS,
    append_sweep_csv,
    candidate_to_json,
    find_embedded,
    interference_symbol_check,
    oscillation_compactness_probe,
    small_plus_decay_probe,
    tail_report_to_json,
)

__all__ = ["RunConfig", "run", "list_commands", "main"]


@dataclass(frozen=True)
class RunConfig:
    """One run; params is the command's params decoded against its table."""

    command: str
    params: dict
    output_dir: str
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.command, str) or self.command not in _COMMANDS:
            raise InvariantViolation(
                "command-unknown", f"unknown command {self.command!r}"
            )
        object.__setattr__(
            self, "params", _convert(_COMMANDS[self.command][2], self.params, "")
        )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise InvariantViolation("seed-type", "seed must be an integer")
        if not isinstance(self.output_dir, str):
            raise InvariantViolation("output-dir-type", "output_dir must be a string")


def list_commands():
    """Stable text table of the available commands."""
    width = max(map(len, _COMMANDS))
    return "\n".join(
        f"{name.ljust(width)}  {description}"
        for name, (_, description, _) in _COMMANDS.items()
    )


# ---------------------------------------------------------------------------
# serialization helpers


def _write_json(doc, path):
    text = json.dumps(doc, sort_keys=True, indent=2, default=lambda o: o.tolist())
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _output(out_dir, name):
    """Path of the output file name in out_dir, making out_dir first.

    Every output and the manifest take their path from here, so a run that
    fails before its first write leaves no directory behind.
    """
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# command handlers; each takes the params decoded against its table and
# returns (output paths, disclosures)


def _cmd_verify_wvn(p, out_dir, seed):
    verify = verify_wvn_1d if p["variant"] == "1d" else verify_wvn_3d
    residual = verify(p["x_max"], p["step"], v_shift=p["v_shift"])
    path = _output(out_dir, "verify_wvn.json")
    _write_json({**p, "residual_max": residual}, path)
    return [path], {}


def _cmd_construct_dirac(p, out_dir, seed):
    spec = DiracChannelSpec(
        m=p["m"], lam=p["lam"], kappa_rho=p["kappa_rho"], u_decay=p["u_decay"],
        match_radius=p["match_radius"], phi_el=p["phi_el"],
    )
    cons = dirac_solve_potential(spec, halfline_grid(p["L"], p["step"]))
    csv_path = _output(out_dir, "dirac_profiles.csv")
    dirac_to_csv(cons, csv_path)
    summary = dirac_summary(cons)
    summary["limits"] = asdict(dirac_check_limits(cons))
    json_path = _output(out_dir, "dirac_summary.json")
    _write_json(summary, json_path)
    return [csv_path, json_path], {}


def _cmd_construct_kg(p, out_dir, seed):
    cons = kg_construct(p["m"], periodic_grid(p["length"] / 2.0, p["n"]))
    csv_path = _output(out_dir, "kg_profiles.csv")
    kg_to_csv(cons, csv_path)
    json_path = _output(out_dir, "kg_summary.json")
    _write_json(kg_summary(cons), json_path)
    return [csv_path, json_path], {}


def _cmd_find_embedded(p, out_dir, seed):
    found = find_embedded(
        lambda L: build_schrodinger(line_grid(L, p["h"]), p["potential"]),
        p["window"], p["boxes"], drift_tol=p["drift_tol"],
    )
    path = _output(out_dir, "embedded.json")
    _write_json(
        {
            "window": p["window"],
            "boxes": p["boxes"],
            "h": p["h"],
            "drift_tol": p["drift_tol"],
            "candidates": [candidate_to_json(c) for c in found],
            "genuine_count": sum(1 for c in found if c.verdict == "genuine"),
        },
        path,
    )
    return [path], {}


def _cmd_lap_scan(p, out_dir, seed):
    spec = LapScanSpec(
        interval=p["interval"], s=p["s"], weight_kind=p["weight_kind"],
        re_points=p["re_points"], im_ladder=p["im_ladder"], box_list=p["boxes"],
    )
    result = lap_scan(
        lambda L: build_schrodinger(line_grid(L, p["h"]), p["potential"]), spec
    )
    csv_path = _output(out_dir, "lap_scan.csv")
    scan_to_csv(result, csv_path)
    json_path = _output(out_dir, "lap_scan.json")
    _write_json(scan_summary(result), json_path)
    disclosures = {
        "im_floor": result.im_floor,
        "level_spacing": result.level_spacing,
        "norm_iterations": result.norm_iterations,
        "norm_residual_max": result.norm_residual_max,
        "workers": result.workers,
    }
    return [csv_path, json_path], disclosures


def _cmd_mourre_check(p, out_dir, seed):
    kind, window = p["kind"], p["window"]
    H = build_schrodinger(line_grid(p["L"], p["h"]), p["potential"])
    if kind == "weighted":
        phi = p["phi"]
        if phi is not None:
            if phi["c"] is None and not window[0] > 0:
                raise InvariantViolation(
                    "default-c",
                    f"psi's default c = 1 / inf J needs inf J > 0, got {window[0]}",
                )
            c = 1.0 / window[0] if phi["c"] is None else phi["c"]
            phi = WeightFunctionSpec(s=phi["s"], R=phi["R"], c=c)
        result = weighted_mourre_check(H, phi, window, p["s"])
    elif kind == "at_infinity":
        result = mourre_at_infinity_check(
            H, p["R"], p["delta"], p["s"], window, trials=p["trials"], seed=seed
        )
    else:
        result = mourre_check(
            H, window, mode=kind, remainder_rank_budget=p.get("rank_budget", 0)
        )
    path = _output(out_dir, "mourre.json")
    _write_json({**asdict(result), "kind_requested": kind}, path)
    return [path], {}


def _cmd_compactness_probe(p, out_dir, seed):
    outputs, disclosures = [], {}
    if p["mode"] == "windowed_channel":
        window, k = p["window"], p["k"]
        theta = WindowSpec(*window)
        report = small_plus_decay_probe(
            halfline_grid(p["L"], p["h"]), theta, k, p["radii"],
            channel_alphas=p["channel_alphas"],
        )
        symbol_max = interference_symbol_check(theta, k)
        doc = tail_report_to_json(report)
        doc["symbol_max"] = symbol_max
        doc["symbol_predicts"] = "decays_to_zero" if symbol_max == 0.0 else "plateaus"
        csv_path = _output(out_dir, "sweep.csv")
        append_sweep_csv(csv_path, window[0], window[1], k, report)
        outputs.append(csv_path)
    else:
        report = oscillation_compactness_probe(
            periodic_grid(p["L"], p["n"]), p["p"], p["alpha"], p["k"],
            smoothing_orders=p["smoothing_orders"], radii=p["radii"], seed=seed,
        )
        doc = tail_report_to_json(report)
        disclosures = {
            "norm_iterations": list(report.norm_iterations),
            "norm_residual_max": report.norm_residual_max,
        }
    path = _output(out_dir, "probe.json")
    _write_json(doc, path)
    outputs.append(path)
    return outputs, disclosures


def _cmd_phase_diagram(p, out_dir, seed):
    windows = {nm: win for nm, win in p["windows"].items() if win is not None}
    cells = phase_sweep(
        p["alphas"], p["betas"], p["k"], p["w"], windows, s=p["s"], h=p["h"],
        box_list=p["boxes"], budget=p["budget"],
    )
    csv_path = _output(out_dir, "phase.csv")
    phase_cells_to_csv(cells, csv_path)
    svg_path = _output(out_dir, "phase.svg")
    phase_cells_to_svg(cells, svg_path)
    json_path = _output(out_dir, "phase.json")
    _write_json({"cells": [asdict(c) for c in cells]}, json_path)
    return [csv_path, svg_path, json_path], {"workers": cells.workers}


def _pair(value, path):
    return _floats(value, path, pair=True)


# Each command: its handler, its --list-commands line, and its params table,
# key -> (converter, default) as potentials._decode reads it, or one table per
# variant under potentials._variants. phi.c defaults to None since 1 / inf J
# depends on the window, and the handler resolves it; a None window is one
# the sweep leaves out; the other None defaults select the free H, the
# standard ladder and the psi = 0 control.
_BOXES = (tuple, (200.0, 400.0))
_POTENTIAL = (_decode_potential, None)
_WVN = {"x_max": (float, 50.0), "step": (float, 1e-3), "v_shift": (float, 0.0)}
_MOURRE = {"window": (_pair, MISSING), "L": (float, 100.0), "h": (float, 0.05),
           "potential": _POTENTIAL}
_PHI = {"s": (float, 0.51), "R": (float, 1.0), "c": (float, None)}
_WINDOWS = {"below": (_pair, None), "above": (_pair, None)}
_COMMANDS = {
    "verify-wvn": (
        _cmd_verify_wvn,
        "residual of the explicit bound state in -f'' + V f = E f "
        "(1d and 3d-radial variants)",
        _variants("variant", {"1d": _WVN, "3d": _WVN}, "wvn-variant", "1d"),
    ),
    "construct-dirac": (
        _cmd_construct_dirac,
        "inverse construction of a radial Dirac channel whose "
        "eigenvalue lambda > m sits inside the continuous spectrum",
        {"m": (float, 1.0), "lam": (float, MISSING), "kappa_rho": (float, 1.0),
         "u_decay": (float, 1.0), "match_radius": (float, 1.0),
         "phi_el": (str, "bracket"), "L": (float, 200.0), "step": (float, 1e-3)},
    ),
    "construct-kg": (
        _cmd_construct_kg,
        "square-root Klein-Gordon potential with the eigenvalue "
        "sqrt(1+m^2) - m embedded in [0, inf)",
        {"m": (float, 1.0), "length": (float, 400.0), "n": (int, 65536)},
    ),
    "find-embedded": (
        _cmd_find_embedded,
        "box-stability scan for embedded eigenvalues of H0 + V "
        "inside an energy window",
        {"potential": _POTENTIAL, "window": (_pair, MISSING), "boxes": _BOXES,
         "h": (float, 0.05), "drift_tol": (float, 5e-3)},
    ),
    "lap-scan": (
        _cmd_lap_scan,
        "weighted resolvent norms ||W (H - z)^{-1} W|| down an Im z "
        "ladder with a divergence-exponent verdict",
        {"potential": _POTENTIAL, "interval": (_pair, MISSING),
         "s": (float, 0.51), "weight_kind": (str, "position"), "re_points": (int, 5),
         "im_ladder": (tuple, None), "boxes": _BOXES, "h": (float, 0.1)},
    ),
    "mourre-check": (
        _cmd_mourre_check,
        "commutator positivity on spectral windows: strict, "
        "rank-deflated, psi-weighted, and localized-at-infinity forms",
        _variants("kind", {
            "strict": _MOURRE,
            "plain": {**_MOURRE, "rank_budget": (int, 0)},
            "weighted": {**_MOURRE, "s": (float, 0.51), "phi": (_PHI, None)},
            "at_infinity": {**_MOURRE, "s": (float, 0.6), "R": (float, 20.0),
                            "delta": (float, 0.1), "trials": (int, 64)},
        }, "mourre-kind", "strict"),
    ),
    "compactness-probe": (
        _cmd_compactness_probe,
        "corner-norm decay ||chi_R M chi_R|| of windowed or "
        "weight-smoothed oscillation operators",
        _variants("mode", {
            "windowed_channel": {
                "k": (float, MISSING), "window": (_pair, MISSING),
                "radii": (tuple, MISSING), "L": (float, 400.0), "h": (float, 0.025),
                "channel_alphas": (tuple, DEFAULT_CHANNEL_ALPHAS),
            },
            "smoothed_multiplier": {
                "k": (float, MISSING), "alpha": (float, MISSING),
                "radii": (tuple, (10.0, 20.0, 40.0, 80.0, 160.0)), "L": (float, 200.0),
                "n": (int, 65536), "p": (float, 1.0),
                "smoothing_orders": (_pair, (2.0, 2.0)),
            },
        }, "probe-mode", "windowed_channel"),
    ),
    "phase-diagram": (
        _cmd_phase_diagram,
        "(alpha, beta) sweep of LAP verdicts below and above "
        "the interference threshold k^2/4, with CSV + SVG",
        {"windows": (_WINDOWS, MISSING), "alphas": (tuple, MISSING),
         "betas": (tuple, MISSING), "k": (float, 2.0), "w": (float, 3.0),
         "s": (float, 2.0), "h": (float, 0.1), "boxes": _BOXES, "budget": (int, 40)},
    ),
}


# ---------------------------------------------------------------------------
# config loading and the run loop


def _parse_override(text):
    if "=" not in text:
        raise InvariantViolation("override-syntax", f"override needs key=value: {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _apply_override(doc, key, value):
    parts = key.split(".")
    node = doc
    for part in parts[:-1]:
        if not isinstance(node, dict):
            raise InvariantViolation("override-path", f"cannot descend into {part!r}")
        node = node.setdefault(part, {})
    if not isinstance(node, dict):
        raise InvariantViolation("override-path", f"cannot set {parts[-1]!r}")
    node[parts[-1]] = value


_CONFIG_KEYS = ("command", "params", "output_dir", "seed")


def _load_config(config_path, overrides):
    with open(config_path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise InvariantViolation("config-shape", "config must be a JSON object")
    for text in overrides:
        key, value = _parse_override(text)
        _apply_override(doc, key, value)
    unknown = sorted(set(doc) - set(_CONFIG_KEYS))
    if unknown:
        raise InvariantViolation(
            "config-unknown",
            f"unknown config key {unknown[0]!r}; known: {', '.join(_CONFIG_KEYS)}",
        )
    return RunConfig(
        command=doc.get("command", ""),
        params=doc.get("params", {}),
        output_dir=doc.get("output_dir", "."),
        seed=doc.get("seed", 0),
    ), doc


@_pool.one_blas_thread()
def run(config_path, overrides=()):
    """Execute one configured run; returns the process exit code."""
    try:
        config, doc = _load_config(config_path, overrides)
    except InvariantViolation as exc:
        print(json.dumps({"error": {"invariant": exc.invariant, "message": str(exc)}}))
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(json.dumps({"error": {"invariant": "config-parse", "message": str(exc)}}))
        return 2
    t0 = time.monotonic()
    _pool.worker_peak_rss_mb()  # drop what earlier runs in the process left
    try:
        outputs, disclosures = _COMMANDS[config.command][0](
            config.params, config.output_dir, config.seed
        )
    except ComputeFailure as exc:
        print(
            json.dumps({"error": {"invariant": exc.invariant, "message": str(exc)}}),
            file=sys.stderr,
        )
        return 1
    except InvariantViolation as exc:
        print(json.dumps({"error": {"invariant": exc.invariant, "message": str(exc)}}))
        return 2
    except Exception as exc:  # compute failure: report and signal exit 1
        print(
            json.dumps(
                {"error": {"type": type(exc).__name__, "message": str(exc)}}
            ),
            file=sys.stderr,
        )
        return 1
    wall = time.monotonic() - t0
    worker_peak = _pool.worker_peak_rss_mb()
    if worker_peak is not None:
        disclosures["worker_peak_rss_mb"] = worker_peak
    manifest = {
        "config": doc,
        "version": __version__,
        "wall_time_s": wall,
        "blas_threads": _pool.blas_threads(),
        "outputs": [
            {"path": os.path.relpath(p, config.output_dir), "sha256": _sha256(p)}
            for p in outputs
        ],
        "disclosures": disclosures,
    }
    manifest_path = _output(config.output_dir, "manifest.json")
    tmp_path = manifest_path + ".tmp"
    _write_json(manifest, tmp_path)
    os.replace(tmp_path, manifest_path)
    for p in outputs:
        print(f"wrote {p}")
    print(f"wrote {manifest_path}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="oscilab",
        description="numerical laboratory for oscillating potentials, embedded "
        "eigenvalues, and limiting-absorption diagnostics",
    )
    parser.add_argument("config", nargs="?", help="path to a JSON run config")
    parser.add_argument("--config", dest="config_flag", help="path to a JSON run config")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="dot-path config override, value parsed as JSON when possible",
    )
    parser.add_argument("--out", help="override output_dir")
    parser.add_argument("--seed", type=int, help="override seed")
    parser.add_argument(
        "--list-commands", action="store_true", help="print the command table"
    )
    args = parser.parse_args(argv)
    if args.list_commands:
        print(list_commands())
        return 0
    config_path = args.config_flag or args.config
    if config_path is None:
        parser.print_usage()
        return 2
    overrides = list(args.set)
    if args.out is not None:
        overrides.append(f"output_dir={args.out}")
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    return run(config_path, overrides)


if __name__ == "__main__":
    sys.exit(main())
