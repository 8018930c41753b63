"""End-to-end tests of the batch front end: configs, manifests, exit codes."""

import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys

import pytest

import oscilab
import oscilab._pool
import oscilab.discretize
import oscilab.lap
from oscilab._csv import write_csv
from oscilab.cli import RunConfig, list_commands, main, run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def sha256_of(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_list_commands_table():
    table = list_commands()
    lines = table.splitlines()
    assert len(lines) == 8
    for name in (
        "verify-wvn",
        "construct-dirac",
        "construct-kg",
        "find-embedded",
        "lap-scan",
        "mourre-check",
        "compactness-probe",
        "phase-diagram",
    ):
        assert any(line.startswith(name) for line in lines)


def test_verify_wvn_run_writes_manifest(tmp_path, capsys):
    out_dir = tmp_path / "out"
    doc = {
        "command": "verify-wvn",
        "params": {"x_max": 10.0, "step": 0.01},
        "output_dir": str(out_dir),
    }
    code = run(write_config(tmp_path, doc))
    printed = capsys.readouterr().out
    assert code == 0
    assert "wrote" in printed and "manifest.json" in printed

    report = read_json(out_dir / "verify_wvn.json")
    assert report["variant"] == "1d"
    assert report["residual_max"] < 1e-9

    manifest = read_json(out_dir / "manifest.json")
    assert manifest["config"] == doc
    assert manifest["version"] == oscilab.__version__
    assert manifest["wall_time_s"] >= 0.0
    assert manifest["disclosures"] == {}
    for entry in manifest["outputs"]:
        full = out_dir / entry["path"]
        assert sha256_of(full) == entry["sha256"]


def test_run_is_deterministic_across_directories(tmp_path):
    outs = []
    for name in ("a", "b"):
        doc = {
            "command": "verify-wvn",
            "params": {"x_max": 5.0, "step": 0.01},
            "output_dir": str(tmp_path / name),
        }
        assert run(write_config(tmp_path, doc, f"{name}.json")) == 0
        outs.append(read_json(tmp_path / name / "manifest.json")["outputs"])
    assert [e["sha256"] for e in outs[0]] == [e["sha256"] for e in outs[1]]


def test_overrides_are_applied_and_echoed(tmp_path):
    out_dir = tmp_path / "out"
    doc = {
        "command": "verify-wvn",
        "params": {"x_max": 5.0},
        "output_dir": str(out_dir),
    }
    code = run(
        write_config(tmp_path, doc), overrides=("params.step=0.005", "seed=3")
    )
    assert code == 0
    manifest = read_json(out_dir / "manifest.json")
    assert manifest["config"]["params"]["step"] == 0.005
    assert manifest["config"]["seed"] == 3


def test_validation_failure_exits_2_with_error_json(tmp_path, capsys):
    doc = {
        "command": "verify-wvn",
        "params": {"variant": "2d"},
        "output_dir": str(tmp_path / "out"),
    }
    code = run(write_config(tmp_path, doc))
    err = json.loads(capsys.readouterr().out)
    assert code == 2
    assert err["error"]["invariant"] == "wvn-variant"


def test_unknown_command_exits_2(tmp_path, capsys):
    doc = {"command": "banana", "params": {}, "output_dir": str(tmp_path / "out")}
    code = run(write_config(tmp_path, doc))
    err = json.loads(capsys.readouterr().out)
    assert code == 2
    assert err["error"]["invariant"] == "command-unknown"


def test_missing_config_exits_2(tmp_path, capsys):
    code = run(str(tmp_path / "nope.json"))
    err = json.loads(capsys.readouterr().out)
    assert code == 2
    assert err["error"]["invariant"] == "config-parse"


def test_compute_failure_exits_1(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    doc = {
        "command": "verify-wvn",
        "params": {"x_max": 5.0},
        "output_dir": str(blocker),
    }
    code = run(write_config(tmp_path, doc))
    captured = capsys.readouterr()
    assert code == 1
    err = json.loads(captured.err)
    assert "error" in err and "type" in err["error"]


def test_norm_convergence_failure_exits_1(tmp_path, capsys, monkeypatch):
    def unconverged(d, e, wdiag, z, **kwargs):
        return 1.0, 600, False, None, 1.0

    monkeypatch.setattr(oscilab.lap, "_banded_norm", unconverged)
    doc = {
        "command": "lap-scan",
        "params": {"interval": [0.5, 1.5], "boxes": [20.0, 40.0], "h": 0.2},
        "output_dir": str(tmp_path / "out"),
    }
    code = run(write_config(tmp_path, doc))
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"]["invariant"] == "norm-convergence"
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_eig_window_convergence_failure_exits_1(tmp_path, capsys, monkeypatch):
    # a group of the windowed eigensolver stops at its second certified
    # sweep, so a cap of one sweep is never met
    monkeypatch.setattr(oscilab.discretize, "_MAX_SWEEPS", 1)
    doc = {
        "command": "find-embedded",
        "params": {
            "potential": {"kind": "wvn_1d"},
            "window": [0.8, 1.2],
            "boxes": [60.0, 120.0],
            "h": 0.05,
        },
        "output_dir": str(tmp_path / "out"),
    }
    code = run(write_config(tmp_path, doc))
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"]["invariant"] == "eig-window-convergence"
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_norm_convergence_failure_in_a_worker_exits_1(
    tmp_path, capsys, monkeypatch, two_cpus
):
    def unconverged(d, e, wdiag, z, **kwargs):
        return 1.0, 600, False, None, 1.0

    # the workers, forked after the patch, raise in the pooled chains
    monkeypatch.setattr(oscilab.lap, "_banded_norm", unconverged)
    doc = {
        "command": "lap-scan",
        "params": {"interval": [0.5, 1.5], "boxes": [60.0, 120.0], "h": 0.05},
        "output_dir": str(tmp_path / "out"),
    }
    code = run(write_config(tmp_path, doc))
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"]["invariant"] == "norm-convergence"
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_chain_failure_of_a_scanned_phase_window_exits_1(
    tmp_path, capsys, monkeypatch, two_cpus
):
    def unconverged(d, e, wdiag, z, **kwargs):
        return 1.0, 600, False, None, 1.0

    # the workers, forked after the patch, raise in the pooled chains of a
    # window whose screen finds no genuine eigenvalue
    monkeypatch.setattr(oscilab.lap, "_banded_norm", unconverged)
    doc = {
        "command": "phase-diagram",
        "params": {"alphas": [1.5], "betas": [0.75], "h": 0.05,
                   "boxes": [60.0, 120.0], "windows": {"below": [0.2, 0.6]}},
        "output_dir": str(tmp_path / "out"),
    }
    code = run(write_config(tmp_path, doc))
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"]["invariant"] == "norm-convergence"
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_unknown_param_key_exits_2(tmp_path, capsys):
    doc = {
        "command": "lap-scan",
        "params": {"interval": [0.5, 1.5], "boxs": [400.0, 800.0]},
        "output_dir": str(tmp_path / "out"),
    }
    code = run(write_config(tmp_path, doc))
    err = json.loads(capsys.readouterr().out)
    assert code == 2
    assert err["error"]["invariant"] == "param-unknown"
    assert "'boxs'" in err["error"]["message"]
    assert not (tmp_path / "out").exists()


def _weighted_mourre_doc(tmp_path, phi):
    return {
        "command": "mourre-check",
        "params": {
            "kind": "weighted", "window": [0.5, 1.5], "L": 20.0, "h": 0.1, "phi": phi,
        },
        "output_dir": str(tmp_path / "out"),
    }


def test_unknown_phi_key_exits_2(tmp_path, capsys):
    code = run(write_config(tmp_path, _weighted_mourre_doc(tmp_path, {"RR": 4})))
    err = json.loads(capsys.readouterr().out)
    assert code == 2
    assert err["error"]["invariant"] == "param-unknown"
    assert "'phi.RR'" in err["error"]["message"]
    assert not (tmp_path / "out").exists()
    doc = _weighted_mourre_doc(tmp_path, {"s": 0.6, "R": 4.0, "c": 2.0})
    RunConfig(doc["command"], doc["params"], doc["output_dir"])


def test_non_object_phi_exits_2(tmp_path, capsys):
    code = run(write_config(tmp_path, _weighted_mourre_doc(tmp_path, 4)))
    err = json.loads(capsys.readouterr().out)
    assert code == 2
    assert err["error"]["invariant"] == "params-type"
    assert "phi" in err["error"]["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, params, key",
    [
        ("find-embedded", {"window": "12"}, "window"),
        ("find-embedded", {"window": [0.5, 1.0, 1.5]}, "window"),
        ("lap-scan", {"interval": [0.5, 1.5], "boxes": "400"}, "boxes"),
        ("lap-scan", {"interval": [0.5, 1.5], "im_ladder": 0.1}, "im_ladder"),
        ("phase-diagram", {"windows": {"below": [0.2]}, "alphas": [1.0],
                           "betas": [1.0]}, "windows.below"),
        ("phase-diagram", {"windows": {"below": [0.2, 0.6]}, "alphas": 1.0,
                           "betas": [1.0]}, "alphas"),
        ("compactness-probe", {"mode": "smoothed_multiplier", "alpha": 2.0, "k": 1.0,
                               "smoothing_orders": [2, 2, 2]}, "smoothing_orders"),
        ("lap-scan", {"interval": [0.5, 1.5], "s": "x"}, "s"),
        ("lap-scan", {"interval": [0.5, 1.5], "re_points": "five"}, "re_points"),
        ("construct-kg", {"n": [1]}, "n"),
    ],
    ids=["window-string", "window-triple", "boxes-string", "im_ladder-number",
         "windows-entry-single", "alphas-number", "smoothing_orders-triple",
         "s-string", "re_points-string", "n-list"],
)
def test_list_params_of_the_wrong_shape_exit_2(tmp_path, capsys, command, params, key):
    doc = {"command": command, "params": params, "output_dir": str(tmp_path / "out")}
    code = run(write_config(tmp_path, doc))
    err = json.loads(capsys.readouterr().out)
    assert code == 2
    assert err["error"]["invariant"] == "params-type"
    assert repr(key) in err["error"]["message"]
    assert not (tmp_path / "out").exists()


_OSCILLATING = {"kind": "oscillating", "w": 3.0, "k": 2.0, "alpha": 1.0, "beta": 1.0}


@pytest.mark.parametrize(
    "potential, invariant, key",
    [
        ({k: v for k, v in _OSCILLATING.items() if k != "beta"}, "param-missing",
         "potential.beta"),
        ({**_OSCILLATING, "betta": 5}, "param-unknown", "potential.betta"),
        ({"kind": "sum", "parts": [_OSCILLATING, {"kind": "wvn_1d", "extra": 1}]},
         "param-unknown", "potential.parts[1].extra"),
    ],
    ids=["beta-missing", "betta-unknown", "sum-part-extra"],
)
def test_potential_docs_are_checked_before_the_run(
    tmp_path, capsys, potential, invariant, key
):
    doc = {
        "command": "find-embedded",
        "params": {"potential": potential, "window": [0.5, 1.5], "boxes": [20, 40]},
        "output_dir": str(tmp_path / "out"),
    }
    code = run(write_config(tmp_path, doc))
    err = json.loads(capsys.readouterr().out)
    assert code == 2
    assert err["error"]["invariant"] == invariant
    assert repr(key) in err["error"]["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "field, value, invariant",
    [("seed", True, "seed-type"), ("output_dir", 5, "output-dir-type")],
)
def test_run_config_checks_its_own_fields(tmp_path, capsys, field, value, invariant):
    doc = {
        "command": "verify-wvn",
        "params": {"x_max": 5.0, "step": 0.01},
        "output_dir": str(tmp_path / "out"),
        field: value,
    }
    code = run(write_config(tmp_path, doc))
    err = json.loads(capsys.readouterr().out)
    assert code == 2
    assert err["error"]["invariant"] == invariant
    assert field in err["error"]["message"]
    assert not (tmp_path / "out").exists()


def test_sweep_csv_key_is_unknown(tmp_path, capsys):
    doc = {
        "command": "compactness-probe",
        "params": {"window": [0.3, 0.8], "k": 2.0, "radii": [5.0, 10.0], "L": 40.0,
                   "h": 0.1, "sweep_csv": "../escaped.csv"},
        "output_dir": str(tmp_path / "out"),
    }
    code = run(write_config(tmp_path, doc))
    err = json.loads(capsys.readouterr().out)
    assert code == 2
    assert err["error"]["invariant"] == "param-unknown"
    assert "'sweep_csv'" in err["error"]["message"]
    assert not (tmp_path / "escaped.csv").exists()


@pytest.mark.parametrize(
    "command, params, invariant",
    [
        ("verify-wvn", {"variant": "2d"}, "wvn-variant"),
        ("mourre-check", {"kind": "sideways", "window": [0.5, 1.0]}, "mourre-kind"),
        ("compactness-probe", {"mode": "x", "k": 2.0}, "probe-mode"),
        ("lap-scan", {"interval": [0.5, 1.5], "weight_kind": "banana"}, "weight-kind"),
        ("construct-dirac", {"lam": 1.5, "phi_el": "x"}, "phi-el-kind"),
        ("compactness-probe", {"window": [0.3, 0.6], "k": 2.0}, "param-missing"),
        ("phase-diagram", {"windows": {}, "alphas": [1.0], "betas": [0.75]},
         "windows-empty"),
        ("mourre-check", {"kind": "at_infinity", "window": [0.5, 1.0], "gamma": 0.6},
         "param-unknown"),
        ("compactness-probe",
         {"mode": "smoothed_multiplier", "alpha": 2.0, "k": 1.0, "tol": 1e-6},
         "param-unknown"),
        ("mourre-check",
         {"kind": "at_infinity", "window": [0.5, 1.0], "h": 0.1, "trials": 0},
         "trials-range"),
        # n = 15999: the guard refuses S's dense eigenvectors before any solve
        ("mourre-check",
         {"kind": "weighted", "window": [0.5, 1.5], "L": 400.0, "h": 0.05},
         "materialization-size"),
        # psi's default c is 1 / inf J
        ("mourre-check",
         {"kind": "weighted", "window": [0.0, 1.0], "L": 20.0, "h": 0.2,
          "phi": {"s": 0.6}},
         "default-c"),
        ("compactness-probe",
         {"window": [0.3, 0.8], "k": 2.0, "radii": [5.0, 10.0], "L": 40.0,
          "h": 0.1, "channel_alphas": []},
         "channel-count"),
    ],
    ids=["variant", "mourre-kind", "probe-mode", "weight-kind", "phi-el",
         "radii-missing", "windows-empty", "gamma", "probe-tol", "trials-zero",
         "weighted-size", "weighted-default-c", "no-channels"],
)
def test_exit_2_runs_leave_no_output_dir(tmp_path, capsys, command, params, invariant):
    # checks that depend on the mode run inside the handlers; the output
    # directory is made at the first write, after all of them
    doc = {"command": command, "params": params, "output_dir": str(tmp_path / "out")}
    code = run(write_config(tmp_path, doc))
    err = json.loads(capsys.readouterr().out)
    assert code == 2
    assert err["error"]["invariant"] == invariant
    assert not (tmp_path / "out").exists()


def _benchmark_catalog():
    path = os.path.join(ROOT, "perfbench", "catalog.py")
    spec = importlib.util.spec_from_file_location("perfbench_catalog", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_known_configs_pass_the_params_check():
    catalog = _benchmark_catalog()
    docs = [catalog.config_doc(e, "out") for e in catalog.all_entries()]
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    docs.append(json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0]))
    assert len(docs) > 1
    for doc in docs:
        RunConfig(doc["command"], doc["params"], doc["output_dir"], doc["seed"])


@pytest.mark.parametrize("entry_id", ["phase-cells/a1/b1", "phase-cells/a2/b0.6"])
def test_phase_cells_reproduce_the_benchmark_references(tmp_path, entry_id):
    # a1/b1 holds the one inconclusive "above" window of the phase cells;
    # the references are the benchmark's record, read and never written here
    catalog = _benchmark_catalog()
    entry = next(e for e in catalog.all_entries() if e.id == entry_id)
    with open(os.path.join(ROOT, "perfbench", "references.json")) as fh:
        reference = json.load(fh)[entry_id]
    out_dir = tmp_path / "out"
    doc = catalog.config_doc(entry, str(out_dir))
    assert run(write_config(tmp_path, doc)) == 0
    assert sha256_of(out_dir / "phase.csv") == reference["phase_csv_sha256"]
    cells = read_json(out_dir / "phase.json")["cells"]
    assert [[c["window_name"], c["verdict"]] for c in cells] == reference[
        "cell_verdicts"
    ]
    assert [c["divergence_exponent"] for c in cells] == pytest.approx(
        reference["cell_exponents"], abs=0.05, nan_ok=True
    )


def test_find_embedded_run_finds_the_bound_state(tmp_path):
    out_dir = tmp_path / "out"
    doc = {
        "command": "find-embedded",
        "params": {
            "potential": {"kind": "wvn_1d"},
            "window": [0.8, 1.2],
            "boxes": [60.0, 120.0],
            "h": 0.05,
        },
        "output_dir": str(out_dir),
    }
    assert run(write_config(tmp_path, doc)) == 0
    report = read_json(out_dir / "embedded.json")
    assert report["genuine_count"] == 1
    genuine = [c for c in report["candidates"] if c["verdict"] == "genuine"]
    assert abs(genuine[0]["energy"] - 1.0) <= 1e-2


def test_lap_scan_run_flags_the_unweighted_control(tmp_path):
    out_dir = tmp_path / "out"
    doc = {
        "command": "lap-scan",
        "params": {
            "interval": [0.5, 1.5],
            "s": 0.0,
            "boxes": [400.0, 800.0],
            "h": 0.2,
        },
        "output_dir": str(out_dir),
    }
    assert run(write_config(tmp_path, doc)) == 0
    summary = read_json(out_dir / "lap_scan.json")
    assert summary["verdict"] == "lap_fails"
    assert "norm_iterations" not in summary
    manifest = read_json(out_dir / "manifest.json")
    assert manifest["disclosures"]["im_floor"] > 0.0
    assert manifest["disclosures"]["level_spacing"] > 0.0
    # the free control's norms are closed-form, no block iterations
    assert manifest["disclosures"]["norm_iterations"] == {"total": 0, "max": 0}
    with open(out_dir / "lap_scan.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["re_z", "im_z", "box_L", "norm"]


def test_mourre_check_run_reports_the_constant(tmp_path):
    out_dir = tmp_path / "out"
    doc = {
        "command": "mourre-check",
        "params": {"window": [0.5, 1.5], "L": 40.0, "h": 0.1},
        "output_dir": str(out_dir),
    }
    assert run(write_config(tmp_path, doc)) == 0
    report = read_json(out_dir / "mourre.json")
    assert report["kind"] == "strict"
    assert report["kind_requested"] == "strict"
    assert report["best_c"] >= 0.9


@pytest.mark.parametrize("phi", [{"s": 0.6, "R": 4.0}, None], ids=["psi", "no-phi"])
def test_mourre_check_weighted_run(tmp_path, phi):
    # without phi, psi = 0 and the form is -<S>^{-2s} alone: the failing control
    out_dir = tmp_path / "out"
    doc = _weighted_mourre_doc(tmp_path, phi)
    assert run(write_config(tmp_path, doc)) == 0
    report = read_json(out_dir / "mourre.json")
    assert report["kind"] == "weighted"
    assert report["kind_requested"] == "weighted"
    assert report["window"] == [0.5, 1.5]
    if phi is None:
        assert report["commutator_form_min_eig"] == 0.0
        assert report["best_c"] < 0.0
    else:
        assert report["commutator_form_min_eig"] > 0.0
        assert report["best_c"] > 0.0


def test_mourre_check_at_infinity_run(tmp_path):
    out_dir = tmp_path / "out"
    doc = {
        "command": "mourre-check",
        "params": {"kind": "at_infinity", "window": [0.5, 1.0], "L": 100.0, "h": 0.1,
                   "R": 10.0, "trials": 16},
        "output_dir": str(out_dir),
    }
    assert run(write_config(tmp_path, doc)) == 0
    report = read_json(out_dir / "mourre.json")
    assert report["kind_requested"] == "at_infinity"
    assert report["R_values"] == [10.0, 20.0]
    assert report["c1_predicted"] == 1.0
    assert report["trials_used"] == [16, 16]
    assert all(c > 0.0 for c in report["c1_values"])
    assert report["decay_ok"] is True


def test_compactness_probe_windowed_channel_appends_to_the_sweep(tmp_path):
    out_dir = tmp_path / "out"
    doc = {
        "command": "compactness-probe",
        "params": {"window": [0.3, 0.8], "k": 2.0, "radii": [5.0, 10.0], "L": 40.0,
                   "h": 0.1},
        "output_dir": str(out_dir),
    }
    config = write_config(tmp_path, doc)
    header = ["window_lo", "window_hi", "k", "verdict", "plateau"]
    for runs in (1, 2):
        assert run(config) == 0
        with open(out_dir / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header
        assert len(rows) == 1 + runs
    assert rows[1] == rows[2]
    assert rows[1][:3] == ["0.29999999999999999", "0.80000000000000004", "2"]
    assert rows[1][3] == read_json(out_dir / "probe.json")["verdict"]


def test_csv_writer_quotes_strings_keeps_floats_and_writes_the_header_once(tmp_path):
    path = str(tmp_path / "table.csv")
    values = [0.1, 1.0 / 3.0, -0.0, 5e-324, 1.7976931348623157e308, 2.0**0.5]
    for name in ("below, low", "above"):
        write_csv(
            path, ("window", "value"), ((name, v) for v in values), append=True
        )
    with open(path, newline="") as fh:
        text = fh.read()
    assert text.count("window,value") == 1
    assert '"below, low",' in text
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["window", "value"]
    assert [r[0] for r in rows[1:]] == ["below, low"] * 6 + ["above"] * 6
    for (_, text_value), value in zip(rows[1:], values * 2):
        assert float(text_value) == value
        assert repr(float(text_value)) == repr(value)


def test_csv_writer_gives_number_rows_the_bytes_of_csv_writer(tmp_path):
    # a row of numbers as wide as the header takes one format string; rows
    # of another width take csv.writer, and both give its bytes
    values = [0.1, -0.0, 5e-324, 1.7976931348623157e308, float("inf"),
              float("-inf"), float("nan"), 3, 2.0**0.5, True, -7]
    rows = [tuple(values[i : i + 3]) for i in range(len(values) - 2)]
    rows += [[1.0, 2.0], (1.0, 2.0, 3.0, 4.0), [0.5, -1, 1e300]]
    path = tmp_path / "numbers.csv"
    write_csv(str(path), ("a", "b", "c"), iter(rows))
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(("a", "b", "c"))
    writer.writerows([f"{v:.17g}" for v in row] for row in rows)
    assert path.read_bytes() == want.getvalue().encode()


def test_lap_scan_run_walks_the_given_ladder_down_to_the_floor(tmp_path):
    out_dir = tmp_path / "out"
    ladder = [2.0, 1.0, 0.6, 0.4, 0.01]
    doc = {
        "command": "lap-scan",
        "params": {"interval": [0.5, 1.5], "boxes": [100.0, 200.0], "h": 0.2,
                   "im_ladder": ladder},
        "output_dir": str(out_dir),
    }
    assert run(write_config(tmp_path, doc)) == 0
    floor = read_json(out_dir / "lap_scan.json")["im_floor"]
    expected = [eta for eta in ladder if eta > floor] + [floor]
    assert len(expected) >= 4
    with open(out_dir / "lap_scan.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 5 * len(expected)
    for i in range(0, len(rows), len(expected)):
        chain = rows[i : i + len(expected)]
        assert [float(r["im_z"]) for r in chain] == expected


def test_compactness_probe_run_smoothed_multiplier(tmp_path):
    out_dir = tmp_path / "out"
    doc = {
        "command": "compactness-probe",
        "params": {
            "mode": "smoothed_multiplier",
            "alpha": 2.0,
            "k": 1.0,
            "L": 100.0,
            "n": 16384,
            "radii": [6.0, 12.0, 25.0, 50.0],
        },
        "output_dir": str(out_dir),
    }
    assert run(write_config(tmp_path, doc)) == 0
    report = read_json(out_dir / "probe.json")
    norms = report["tail_norms"]
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert "verdict" in report


def test_probe_at_alpha_one_and_a_half_converges_within_the_cap(tmp_path):
    # default L = 200 and radii 10-160: the first radius needs about 50
    # Golub-Kahan-Lanczos steps, under the cap of 200
    out_dir = tmp_path / "out"
    doc = {
        "command": "compactness-probe",
        "params": {"mode": "smoothed_multiplier", "alpha": 1.5, "k": 1.0, "n": 4096},
        "output_dir": str(out_dir),
    }
    assert run(write_config(tmp_path, doc)) == 0
    report = read_json(out_dir / "probe.json")
    assert report["verdict"] == "plateaus"
    assert report["tail_norms"] == pytest.approx(
        [0.3129, 0.3129, 0.3129, 0.31285, 0.28736], rel=1e-3
    )
    steps = read_json(out_dir / "manifest.json")["disclosures"]["norm_iterations"]
    assert max(steps) <= 200


_DISCLOSING_RUNS = {
    "lap-scan": (
        {"interval": [0.5, 1.5], "s": 0.51, "boxes": [20.0, 40.0], "h": 0.2},
        "lap_scan.json",
    ),
    "compactness-probe": (
        {"mode": "smoothed_multiplier", "alpha": 1.5, "k": 1.0, "L": 50.0,
         "n": 2048, "radii": [5.0, 10.0, 20.0]},
        "probe.json",
    ),
}


@pytest.mark.parametrize("command", sorted(_DISCLOSING_RUNS))
def test_norm_kernel_runs_disclose_their_certificate(tmp_path, command, one_cpu):
    params, name = _DISCLOSING_RUNS[command]
    manifests = []
    for run_dir in ("a", "b"):
        doc = {"command": command, "params": params,
               "output_dir": str(tmp_path / run_dir)}
        assert run(write_config(tmp_path, doc, f"{run_dir}.json")) == 0
        manifests.append(read_json(tmp_path / run_dir / "manifest.json"))
        # disclosures sit in the manifest, not in the hashed outputs
        output = read_json(tmp_path / run_dir / name)
        assert "norm_residual_max" not in output
        assert "norm_iterations" not in output
    assert manifests[0]["outputs"] == manifests[1]["outputs"]
    disclosed = manifests[0]["disclosures"]
    assert disclosed == manifests[1]["disclosures"]
    if command == "lap-scan":
        # one CPU: the chains ran in-process
        assert disclosed["workers"] == 1
        # relative Ritz residual <= sqrt(tol) with the scan's tol = 1e-12
        assert 0.0 < disclosed["norm_residual_max"] <= 1e-6
        assert disclosed["norm_iterations"]["max"] >= 1
    else:
        # one step count per radius; the probe stops at a residual of 1e-4
        assert len(disclosed["norm_iterations"]) == len(params["radii"])
        assert min(disclosed["norm_iterations"]) >= 1
        assert 0.0 < disclosed["norm_residual_max"] <= 1e-4


def test_construct_kg_run_reports_the_eigenvalue(tmp_path):
    out_dir = tmp_path / "out"
    doc = {
        "command": "construct-kg",
        "params": {"length": 200.0, "n": 4096},
        "output_dir": str(out_dir),
    }
    assert run(write_config(tmp_path, doc)) == 0
    summary = read_json(out_dir / "kg_summary.json")
    assert abs(summary["lambda"] - (2.0**0.5 - 1.0)) < 1e-12
    manifest = read_json(out_dir / "manifest.json")
    assert len(manifest["outputs"]) == 2
    assert (out_dir / "kg_profiles.csv").exists()


def test_construct_dirac_run_writes_profiles(tmp_path):
    out_dir = tmp_path / "out"
    doc = {
        "command": "construct-dirac",
        "params": {"lam": 1.5, "L": 20.0, "step": 0.01},
        "output_dir": str(out_dir),
    }
    assert run(write_config(tmp_path, doc)) == 0
    summary = read_json(out_dir / "dirac_summary.json")
    assert summary["residual_max"] < 1e-6
    assert "limits" in summary
    assert (out_dir / "dirac_profiles.csv").exists()


def test_phase_diagram_run_with_zero_budget(tmp_path):
    out_dir = tmp_path / "out"
    doc = {
        "command": "phase-diagram",
        "params": {
            "alphas": [1.0],
            "betas": [0.75],
            "windows": {"below": [0.2, 0.6]},
            "budget": 0,
        },
        "output_dir": str(out_dir),
    }
    assert run(write_config(tmp_path, doc)) == 0
    cells = read_json(out_dir / "phase.json")["cells"]
    assert len(cells) == 1
    assert cells[0]["verdict"] == "skipped"
    for name in ("phase.csv", "phase.svg", "manifest.json"):
        assert (out_dir / name).exists()


def test_phase_diagram_discloses_its_workers_outside_the_outputs(
    tmp_path, monkeypatch, two_cpus
):
    params = {"alphas": [1.5], "betas": [0.75], "h": 0.05, "boxes": [60.0, 120.0],
              "windows": {"below": [0.2, 0.6], "above": [1.2, 1.7]}}
    manifests = []
    for run_dir, cpus in (("pooled", {0, 1}), ("serial", {0})):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        doc = {"command": "phase-diagram", "params": params,
               "output_dir": str(tmp_path / run_dir)}
        assert run(write_config(tmp_path, doc, f"{run_dir}.json")) == 0
        manifests.append(read_json(tmp_path / run_dir / "manifest.json"))
    pooled, serial = manifests
    assert pooled["disclosures"]["workers"] == 2
    # the workers' peak RSS, only where workers ran
    assert set(pooled["disclosures"]) == {"workers", "worker_peak_rss_mb"}
    assert pooled["disclosures"]["worker_peak_rss_mb"] > 1.0
    assert serial["disclosures"] == {"workers": 1}
    assert pooled["outputs"] == serial["outputs"]


def test_main_list_commands(capsys):
    assert main(["--list-commands"]) == 0
    out = capsys.readouterr().out
    assert "lap-scan" in out and "phase-diagram" in out


def test_main_without_config_prints_usage(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_main_flag_overrides(tmp_path, capsys):
    out_dir = tmp_path / "flagged"
    doc = {
        "command": "verify-wvn",
        "params": {"x_max": 5.0},
        "output_dir": str(tmp_path / "ignored"),
    }
    config = write_config(tmp_path, doc)
    code = main(
        ["--config", config, "--out", str(out_dir), "--seed", "7",
         "--set", "params.step=0.005"]
    )
    capsys.readouterr()
    assert code == 0
    manifest = read_json(out_dir / "manifest.json")
    assert manifest["config"]["output_dir"] == str(out_dir)
    assert manifest["config"]["seed"] == 7
    assert manifest["config"]["params"]["step"] == 0.005
    assert not (tmp_path / "ignored").exists()


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "oscilab.cli", "--list-commands"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "verify-wvn" in proc.stdout


def _run_cli(config, blas_threads):
    """Run the CLI on config in a fresh process whose environment asks
    OpenBLAS for blas_threads threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "oscilab.cli", config],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_manifest_reports_the_blas_threads_in_effect(tmp_path):
    out_dir = tmp_path / "out"
    config = write_config(tmp_path, {
        "command": "verify-wvn",
        "params": {"x_max": 10.0, "step": 0.01},
        "output_dir": str(out_dir),
    })
    _run_cli(config, blas_threads=2)
    manifest = read_json(out_dir / "manifest.json")
    # a run imports no scipy, so only numpy's OpenBLAS is mapped; it holds
    # that one at 1
    assert manifest["blas_threads"] == {"numpy": 1, "scipy": None}
    assert "blas_threads" not in manifest["disclosures"]


def test_outputs_do_not_depend_on_the_blas_threads_of_the_environment(tmp_path):
    # a conjugate-A weighted scan: dense <A>^-s weight, W^2 and GEMMs at
    # n ~ 100-200, whose bytes differed at two OpenBLAS threads
    params = {"interval": [0.5, 1.5], "s": 0.51, "h": 0.2,
              "weight_kind": "conjugate_A", "boxes": [9.9, 19.8]}
    hashes = []
    for threads in (2, 1):
        out_dir = tmp_path / f"threads{threads}"
        doc = {"command": "lap-scan", "params": params, "output_dir": str(out_dir)}
        _run_cli(write_config(tmp_path, doc, f"threads{threads}.json"), threads)
        hashes.append(read_json(out_dir / "manifest.json")["outputs"])
    assert hashes[0] == hashes[1]
    assert [o["path"] for o in hashes[0]] == ["lap_scan.csv", "lap_scan.json"]
