"""Batch command-line front end.

Runs are described by a JSON config file::

    {
      "command": "lap-scan",
      "params": { ... command-specific ... },
      "output_dir": "out",
      "seed": 0
    }

and dispatched to the compute modules. Every run writes its CSV/JSON/SVG
artifacts plus a manifest with config echo, version, wall time, and a
sha256 per output. Identical config + seed gives byte-identical outputs
(the manifest's wall_time field is the one exemption).

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
from dataclasses import asdict, dataclass

from . import __version__
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
    build_conjugate_A,
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
    phase_sweep,
    scan_summary,
    scan_to_csv,
    schrodinger_line_factory,
    weighted_mourre_check,
)
from .potentials import WeightFunctionSpec, potential_from_json
from .spectral import (
    append_sweep_csv,
    candidate_to_json,
    find_embedded,
    interference_symbol_check,
    oscillation_compactness_probe,
    small_plus_decay_probe,
    tail_report_to_json,
)

__all__ = ["RunConfig", "run", "list_commands", "main"]

COMMANDS = (
    "verify-wvn",
    "construct-dirac",
    "construct-kg",
    "find-embedded",
    "lap-scan",
    "mourre-check",
    "compactness-probe",
    "phase-diagram",
)

_DESCRIPTIONS = {
    "verify-wvn": "residual of the explicit bound state in -f'' + V f = E f "
    "(1d and 3d-radial variants)",
    "construct-dirac": "inverse construction of a radial Dirac channel whose "
    "eigenvalue lambda > m sits inside the continuous spectrum",
    "construct-kg": "square-root Klein-Gordon potential with the eigenvalue "
    "sqrt(1+m^2) - m embedded in [0, inf)",
    "find-embedded": "box-stability scan for embedded eigenvalues of H0 + V "
    "inside an energy window",
    "lap-scan": "weighted resolvent norms ||W (H - z)^{-1} W|| down an Im z "
    "ladder with a divergence-exponent verdict",
    "mourre-check": "commutator positivity on spectral windows: strict, "
    "rank-deflated, psi-weighted, and localized-at-infinity forms",
    "compactness-probe": "corner-norm decay ||chi_R M chi_R|| of windowed or "
    "weight-smoothed oscillation operators",
    "phase-diagram": "(alpha, beta) sweep of LAP verdicts below and above "
    "the interference threshold k^2/4, with CSV + SVG",
}


# the top-level params keys each command reads; any other key is rejected
_PARAMS = {
    "verify-wvn": ("variant", "x_max", "step", "v_shift"),
    "construct-dirac": (
        "m", "lam", "kappa_rho", "u_decay", "match_radius", "phi_el", "L", "step",
    ),
    "construct-kg": ("m", "length", "n"),
    "find-embedded": ("potential", "window", "boxes", "h", "drift_tol"),
    "lap-scan": (
        "potential", "interval", "s", "weight_kind", "re_points", "im_ladder",
        "boxes", "h",
    ),
    "mourre-check": (
        "kind", "window", "L", "h", "potential", "rank_budget", "phi", "s", "R",
        "delta", "gamma", "trials",
    ),
    "compactness-probe": (
        "mode", "L", "h", "window", "k", "radii", "channel_alphas", "sweep_csv",
        "n", "smoothing_orders", "p", "alpha", "tol",
    ),
    "phase-diagram": (
        "windows", "alphas", "betas", "k", "w", "s", "h", "boxes", "budget",
    ),
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict
    output_dir: str
    seed: int = 0

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise InvariantViolation(
                "command-unknown", f"unknown command {self.command!r}"
            )
        if not isinstance(self.params, dict):
            raise InvariantViolation("params-type", "params must be an object")
        unknown = sorted(set(self.params) - set(_PARAMS[self.command]))
        if unknown:
            raise InvariantViolation(
                "param-unknown",
                f"unknown {self.command} param {unknown[0]!r}; "
                f"known: {', '.join(_PARAMS[self.command])}",
            )
        if not isinstance(self.seed, int):
            raise InvariantViolation("seed-type", "seed must be an integer")


def list_commands():
    """Stable text table of the available commands."""
    width = max(len(c) for c in COMMANDS)
    lines = [f"{c.ljust(width)}  {_DESCRIPTIONS[c]}" for c in COMMANDS]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# serialization helpers


def _to_plain(obj):
    """Recursively convert numpy scalars/arrays for JSON emission."""
    if isinstance(obj, dict):
        return {k: _to_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_plain(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        try:
            return obj.item()
        except (AttributeError, ValueError):
            pass
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return obj


def _write_json(doc, path):
    text = json.dumps(_to_plain(doc), sort_keys=True, indent=2)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _require(params, key):
    if key not in params:
        raise InvariantViolation("param-missing", f"missing required param {key!r}")
    return params[key]


def _potential(params, key="potential"):
    doc = params.get(key)
    return None if doc is None else potential_from_json(doc)


# ---------------------------------------------------------------------------
# command handlers; each returns (output paths, disclosures)


def _cmd_verify_wvn(params, out_dir, seed):
    variant = params.get("variant", "1d")
    x_max = float(params.get("x_max", 50.0))
    step = float(params.get("step", 1e-3))
    shift = float(params.get("v_shift", 0.0))
    if variant == "1d":
        residual = verify_wvn_1d(x_max, step, v_shift=shift)
    elif variant == "3d":
        residual = verify_wvn_3d(x_max, step, v_shift=shift)
    else:
        raise InvariantViolation("wvn-variant", f"unknown variant {variant!r}")
    path = os.path.join(out_dir, "verify_wvn.json")
    _write_json(
        {"variant": variant, "x_max": x_max, "step": step, "v_shift": shift,
         "residual_max": residual},
        path,
    )
    return [path], {}


def _cmd_construct_dirac(params, out_dir, seed):
    spec = DiracChannelSpec(
        m=float(params.get("m", 1.0)),
        lam=float(_require(params, "lam")),
        kappa_rho=float(params.get("kappa_rho", 1.0)),
        u_decay=float(params.get("u_decay", 1.0)),
        match_radius=float(params.get("match_radius", 1.0)),
        phi_el=params.get("phi_el", "bracket"),
    )
    grid = None
    if "L" in params or "step" in params:
        grid = halfline_grid(
            float(params.get("L", 200.0)), float(params.get("step", 1e-3))
        )
    cons = dirac_solve_potential(spec, grid)
    csv_path = os.path.join(out_dir, "dirac_profiles.csv")
    dirac_to_csv(cons, csv_path)
    summary = dirac_summary(cons)
    summary["limits"] = asdict(dirac_check_limits(cons))
    json_path = os.path.join(out_dir, "dirac_summary.json")
    _write_json(summary, json_path)
    return [csv_path, json_path], {}


def _cmd_construct_kg(params, out_dir, seed):
    m = float(params.get("m", 1.0))
    length = float(params.get("length", 400.0))
    n = int(params.get("n", 65536))
    grid = periodic_grid(length / 2.0, n)
    cons = kg_construct(m, grid)
    csv_path = os.path.join(out_dir, "kg_profiles.csv")
    kg_to_csv(cons, csv_path)
    json_path = os.path.join(out_dir, "kg_summary.json")
    _write_json(kg_summary(cons), json_path)
    return [csv_path, json_path], {}


def _cmd_find_embedded(params, out_dir, seed):
    V = _potential(params)
    window = tuple(float(v) for v in _require(params, "window"))
    boxes = [float(L) for L in params.get("boxes", (200.0, 400.0))]
    h = float(params.get("h", 0.05))
    drift_tol = float(params.get("drift_tol", 5e-3))
    factory = schrodinger_line_factory(h)
    found = find_embedded(
        lambda L: factory(V, L), window, boxes, drift_tol=drift_tol
    )
    path = os.path.join(out_dir, "embedded.json")
    _write_json(
        {
            "window": list(window),
            "boxes": boxes,
            "h": h,
            "drift_tol": drift_tol,
            "candidates": [candidate_to_json(c) for c in found],
            "genuine_count": sum(1 for c in found if c.verdict == "genuine"),
        },
        path,
    )
    return [path], {}


def _cmd_lap_scan(params, out_dir, seed):
    V = _potential(params)
    ladder = params.get("im_ladder")
    spec = LapScanSpec(
        interval=tuple(float(v) for v in _require(params, "interval")),
        s=float(params.get("s", 0.51)),
        weight_kind=params.get("weight_kind", "position"),
        re_points=int(params.get("re_points", 5)),
        im_ladder=None if ladder is None else tuple(float(v) for v in ladder),
        box_list=tuple(float(L) for L in params.get("boxes", (200.0, 400.0))),
    )
    h = float(params.get("h", 0.1))
    result = lap_scan(schrodinger_line_factory(h), V, spec)
    csv_path = os.path.join(out_dir, "lap_scan.csv")
    scan_to_csv(result, csv_path)
    json_path = os.path.join(out_dir, "lap_scan.json")
    _write_json(scan_summary(result), json_path)
    disclosures = {
        "im_floor": result.im_floor,
        "level_spacing": result.level_spacing,
    }
    return [csv_path, json_path], disclosures


def _cmd_mourre_check(params, out_dir, seed):
    kind = params.get("kind", "strict")
    window = tuple(float(v) for v in _require(params, "window"))
    L = float(params.get("L", 100.0))
    h = float(params.get("h", 0.05))
    grid = line_grid(L, h)
    H = build_schrodinger(grid, _potential(params))
    if kind in ("strict", "plain"):
        A = build_conjugate_A(grid)
        result = mourre_check(
            H, A, window, mode=kind,
            remainder_rank_budget=int(params.get("rank_budget", 0)),
        )
        doc = asdict(result)
    elif kind == "weighted":
        A = build_conjugate_A(grid)
        phi_params = params.get("phi")
        if phi_params is None:
            phi = None
        else:
            phi = WeightFunctionSpec(
                kind="psi",
                s=float(phi_params.get("s", 0.51)),
                R=float(phi_params.get("R", 1.0)),
                c=float(phi_params.get("c", 1.0 / window[0])),
            )
        result = weighted_mourre_check(
            H, A, phi, window, float(params.get("s", 0.51))
        )
        doc = asdict(result)
    elif kind == "at_infinity":
        result = mourre_at_infinity_check(
            H,
            grid,
            float(params.get("R", 20.0)),
            float(params.get("delta", 0.1)),
            float(params.get("s", 0.6)),
            float(_require(params, "gamma")),
            window,
            trials=int(params.get("trials", 64)),
            seed=seed,
        )
        doc = asdict(result)
    else:
        raise InvariantViolation("mourre-kind", f"unknown check kind {kind!r}")
    doc["kind_requested"] = kind
    path = os.path.join(out_dir, "mourre.json")
    _write_json(doc, path)
    return [path], {}


def _cmd_compactness_probe(params, out_dir, seed):
    mode = params.get("mode", "windowed_channel")
    outputs = []
    if mode == "windowed_channel":
        L = float(params.get("L", 400.0))
        h = float(params.get("h", 0.025))
        grid = halfline_grid(L, h)
        window = tuple(float(v) for v in _require(params, "window"))
        k = float(_require(params, "k"))
        radii = [float(R) for R in _require(params, "radii")]
        theta = WindowSpec(window[0], window[1])
        alphas = params.get("channel_alphas")
        if alphas is None:
            report = small_plus_decay_probe(grid, theta, k, radii)
        else:
            report = small_plus_decay_probe(
                grid, theta, k, radii,
                channel_alphas=tuple(float(a) for a in alphas),
            )
        symbol_max = interference_symbol_check(theta, k)
        doc = tail_report_to_json(report)
        doc["symbol_max"] = symbol_max
        doc["symbol_predicts"] = (
            "decays_to_zero" if symbol_max == 0.0 else "plateaus"
        )
        csv_path = os.path.join(out_dir, params.get("sweep_csv", "sweep.csv"))
        append_sweep_csv(csv_path, window[0], window[1], k, report)
        outputs.append(csv_path)
    elif mode == "smoothed_multiplier":
        L = float(params.get("L", 200.0))
        n = int(params.get("n", 65536))
        grid = periodic_grid(L, n)
        orders = params.get("smoothing_orders", (2, 2))
        report = oscillation_compactness_probe(
            grid,
            float(params.get("p", 1.0)),
            float(_require(params, "alpha")),
            float(_require(params, "k")),
            smoothing_orders=tuple(float(o) for o in orders),
            radii=tuple(float(R) for R in params.get("radii", (10, 20, 40, 80, 160))),
            tol=float(params.get("tol", 1e-6)),
            seed=seed,
        )
        doc = tail_report_to_json(report)
    else:
        raise InvariantViolation("probe-mode", f"unknown probe mode {mode!r}")
    path = os.path.join(out_dir, "probe.json")
    _write_json(doc, path)
    outputs.append(path)
    return outputs, {}


def _cmd_phase_diagram(params, out_dir, seed):
    windows = {
        name: tuple(float(v) for v in win)
        for name, win in _require(params, "windows").items()
    }
    csv_path = os.path.join(out_dir, "phase.csv")
    svg_path = os.path.join(out_dir, "phase.svg")
    cells = phase_sweep(
        [float(a) for a in _require(params, "alphas")],
        [float(b) for b in _require(params, "betas")],
        float(params.get("k", 2.0)),
        float(params.get("w", 3.0)),
        windows,
        s=float(params.get("s", 2.0)),
        h=float(params.get("h", 0.1)),
        box_list=tuple(float(L) for L in params.get("boxes", (200.0, 400.0))),
        budget=int(params.get("budget", 40)),
        out_csv=csv_path,
        out_svg=svg_path,
    )
    json_path = os.path.join(out_dir, "phase.json")
    _write_json({"cells": [asdict(c) for c in cells]}, json_path)
    return [csv_path, svg_path, json_path], {}


_HANDLERS = {
    "verify-wvn": _cmd_verify_wvn,
    "construct-dirac": _cmd_construct_dirac,
    "construct-kg": _cmd_construct_kg,
    "find-embedded": _cmd_find_embedded,
    "lap-scan": _cmd_lap_scan,
    "mourre-check": _cmd_mourre_check,
    "compactness-probe": _cmd_compactness_probe,
    "phase-diagram": _cmd_phase_diagram,
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


def _load_config(config_path, overrides):
    with open(config_path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise InvariantViolation("config-shape", "config must be a JSON object")
    for text in overrides:
        key, value = _parse_override(text)
        _apply_override(doc, key, value)
    return RunConfig(
        command=doc.get("command", ""),
        params=doc.get("params", {}),
        output_dir=doc.get("output_dir", "."),
        seed=doc.get("seed", 0),
    ), doc


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
    try:
        os.makedirs(config.output_dir, exist_ok=True)
        outputs, disclosures = _HANDLERS[config.command](
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
    manifest = {
        "config": doc,
        "version": __version__,
        "wall_time_s": wall,
        "outputs": [
            {"path": os.path.relpath(p, config.output_dir), "sha256": _sha256(p)}
            for p in outputs
        ],
        "disclosures": disclosures,
    }
    manifest_path = os.path.join(config.output_dir, "manifest.json")
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
    if config_path == "list-commands":
        print(list_commands())
        return 0
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
