"""Per-operation output checks against references recorded at the seed commit.

An operation fails when its outputs are missing, a verdict or a pinned hash
differs from the record, an analytic expectation fails, or a number drifts
beyond its tolerance. Known-wrong outputs (scenario 12's above-threshold
``inconclusive``, the conjugate-A ``lap_fails`` at small n) are recorded as
they are and checked like every other output.
"""

import csv
import hashlib
import json
import math
import os

# Norms may move by 5%: wide enough for the planned Gram-operator correction
# of the probe corner norms (about 3%), far tighter than a broken kernel.
NORM_RTOL = 0.05
# Divergence exponents and box stability sit on verdict thresholds 0.15/0.85
# and 0.2, so an absolute tolerance well inside those bands.
EXPONENT_ATOL = 0.05
# Floors and level spacings come from exact eigenvalue counts.
COUNT_RTOL = 1e-9


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def extract(command, out_dir):
    """The checked fields of one operation's outputs, as a JSON-ready dict."""
    manifest = _load(os.path.join(out_dir, "manifest.json"))
    for item in manifest["outputs"]:
        if _sha256(os.path.join(out_dir, item["path"])) != item["sha256"]:
            raise ValueError(f"manifest hash mismatch for {item['path']}")
    if command == "lap-scan":
        doc = _load(os.path.join(out_dir, "lap_scan.json"))
        with open(os.path.join(out_dir, "lap_scan.csv"), newline="") as fh:
            rows = sum(1 for _ in csv.reader(fh)) - 1
        return {
            "verdict": doc["verdict"],
            "box_verdicts": [b["verdict"] for b in doc["boxes"]],
            "rows": rows,
            "sup_norm": doc["sup_norm"],
            "box_sup_norms": [b["sup_norm"] for b in doc["boxes"]],
            "divergence_exponent": doc["divergence_exponent"],
            "box_exponents": [b["p"] for b in doc["boxes"]],
            "box_stability": doc["box_stability"],
            "im_floor": doc["im_floor"],
            "level_spacing": doc["level_spacing"],
        }
    if command == "phase-diagram":
        cells = _load(os.path.join(out_dir, "phase.json"))["cells"]
        with open(os.path.join(out_dir, "phase.svg")) as fh:
            svg_ok = fh.read().startswith("<svg")
        return {
            "cell_verdicts": [[c["window_name"], c["verdict"]] for c in cells],
            "embedded_counts": [c["embedded_count"] for c in cells],
            "cell_exponents": [c["divergence_exponent"] for c in cells],
            "phase_csv_sha256": _sha256(os.path.join(out_dir, "phase.csv")),
            "svg_ok": svg_ok,
        }
    if command == "compactness-probe":
        doc = _load(os.path.join(out_dir, "probe.json"))
        return {
            "verdict": doc["verdict"],
            "tail_norms": doc["tail_norms"],
            "plateau_estimate": doc["plateau_estimate"],
        }
    raise ValueError(f"no checks for command {command!r}")


_EXACT = (
    "verdict", "box_verdicts", "rows", "cell_verdicts", "embedded_counts",
    "phase_csv_sha256", "svg_ok",
)
_NORMS = ("sup_norm", "box_sup_norms", "tail_norms", "plateau_estimate")
_EXPONENTS = ("divergence_exponent", "box_exponents", "cell_exponents", "box_stability")
_COUNTS = ("im_floor", "level_spacing")


def _as_list(v):
    return v if isinstance(v, list) else [v]


def _close(a, b, rtol=0.0, atol=0.0):
    if a is None or b is None:
        return a is None and b is None
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + rtol * abs(b)


def compare(observed, reference):
    """Problems (strings) between an operation's fields and its record."""
    problems = []
    for key, ref in reference.items():
        if key not in observed:
            problems.append(f"{key}: missing")
            continue
        obs = observed[key]
        if key in _EXACT:
            if obs != ref:
                problems.append(f"{key}: {obs!r} != recorded {ref!r}")
            continue
        if key in _NORMS:
            tol = {"rtol": NORM_RTOL}
        elif key in _EXPONENTS:
            tol = {"atol": EXPONENT_ATOL}
        elif key in _COUNTS:
            tol = {"rtol": COUNT_RTOL}
        else:
            problems.append(f"{key}: no tolerance defined")
            continue
        obs_l, ref_l = _as_list(obs), _as_list(ref)
        if len(obs_l) != len(ref_l) or not all(
            _close(a, b, **tol) for a, b in zip(obs_l, ref_l)
        ):
            problems.append(f"{key}: {obs!r} vs recorded {ref!r} ({tol})")
    return problems


def analytic_problems(entry, observed):
    """Expectations that hold independently of any record.

    decays_to_zero / plateaus: scenario 07's corner-norm verdicts for
    alpha = 2 and alpha = 1. below_holds: scenario 13, every cell below the
    interference threshold k^2/4 satisfies the LAP.
    """
    problems = []
    for expect in entry.expect:
        if expect in ("decays_to_zero", "plateaus"):
            if observed["verdict"] != expect:
                problems.append(f"analytic: verdict {observed['verdict']} != {expect}")
        elif expect == "below_holds":
            bad = [v for name, v in observed["cell_verdicts"] if name == "below" and v != "lap_holds"]
            if bad:
                problems.append(f"analytic: below-threshold cells {bad} != lap_holds")
        else:
            problems.append(f"analytic: unknown expectation {expect!r}")
    return problems


def check(entry, out_dir, reference):
    """All problems with one operation's outputs; empty means correct."""
    try:
        observed = extract(entry.command, out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"outputs unreadable: {exc}"]
    if reference is None:
        return ["no recorded reference for this entry"]
    return compare(observed, reference) + analytic_problems(entry, observed)
