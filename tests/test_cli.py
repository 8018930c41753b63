"""End-to-end tests of the batch front end: configs, manifests, exit codes."""

import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import oscilab
import oscilab.lap
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
        return 1.0, 600, False, None

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
    manifest = read_json(out_dir / "manifest.json")
    assert manifest["disclosures"]["im_floor"] > 0.0
    assert manifest["disclosures"]["level_spacing"] > 0.0
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
