"""Self-checks of the benchmark harness: span arithmetic, the seeded draw,
tracer restoration, metric names and the reference tolerances.

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import os
import sys

import numpy as np
import pytest

import catalog
import checks
import run
import spans
import worker

BENCHMARK = os.path.join(worker.ROOT, "BENCHMARK.json")


def test_self_time_on_synthetic_nested_trace():
    # root [0, 10] > a [1, 6] > k [2, 3], k [4, 5.5]; root > b [7, 9]
    trace = [
        ["cli.run", 0.0, 10.0, -1, 0],
        ["lap.a", 1.0, 6.0, 0, 0],
        ["lap.k", 2.0, 3.0, 1, 0],
        ["lap.k", 4.0, 5.5, 1, 0],
        ["spectral.b", 7.0, 9.0, 0, 0],
    ]
    assert spans.self_times(trace) == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0])
    agg = spans.aggregate(trace)
    assert agg["lap.k"] == pytest.approx((2.5, 2))
    assert spans.covered_time(trace) == pytest.approx(7.0)
    # self times partition the root span exactly
    assert sum(spans.self_times(trace)) == pytest.approx(10.0)


def test_same_seed_same_list_and_other_seed_other_draw():
    for name in catalog.WORKLOADS:
        first = catalog.draw(name, 7, 20)
        assert [e.id for e in first] == [e.id for e in catalog.draw(name, 7, 20)]
        assert [e.id for e in first] != [e.id for e in catalog.draw(name, 8, 20)]
        assert len({e.id for e in first}) == len(first)  # no config repeats


def test_every_catalog_entry_has_a_reference_and_a_unique_id():
    with open(os.path.join(worker.HERE, "references.json")) as fh:
        refs = json.load(fh)
    ids = [e.id for e in catalog.all_entries()]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(refs)


def test_declared_workloads_exist_and_block_norm_is_the_union():
    with open(BENCHMARK) as fh:
        declared = json.load(fh)
    assert {w["name"] for w in declared["workloads"]} <= set(catalog.WORKLOADS)

    def ids(name):
        return sorted(e.id for c in catalog.WORKLOADS[name] for e in c.entries)

    assert ids("block-norm") == sorted(ids("lap-banded") + ids("periodic-probe"))
    # one round is the whole union, so the seed sets only the order
    ops = catalog.draw("block-norm", 3, declared["run_seconds"])
    assert sorted(e.id for e in ops) == ids("block-norm")


def test_norm_tolerance_admits_three_percent_and_catches_ten():
    ref = {"verdict": "plateaus", "tail_norms": [1.0, 0.5]}
    assert checks.compare({"verdict": "plateaus", "tail_norms": [1.03, 0.485]}, ref) == []
    assert checks.compare({"verdict": "plateaus", "tail_norms": [1.1, 0.5]}, ref)
    assert checks.compare({"verdict": "decays_to_zero", "tail_norms": [1.0, 0.5]}, ref)


def _snapshot():
    import oscilab.cli  # noqa: F401  (loads every module)

    mods = [m for name, m in sys.modules.items()
            if name.startswith("oscilab.")] + [np.linalg, np.fft]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_traced_run_restores_every_wrapped_name(tmp_path):
    cli = worker._import_program()
    import oscilab.discretize
    import oscilab.lap

    before = _snapshot()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "command": "lap-scan",
        "params": {"interval": [0.5, 1.5], "s": 1.0, "h": 0.4, "re_points": 3,
                   "boxes": [20.0, 40.0]},
        "output_dir": str(tmp_path / "out"),
    }))
    tracer = spans.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        assert oscilab.lap.eig_window is not oscilab.discretize.eig_window
        t0 = tracer.clock()
        code = cli.run(str(config))
        wall = tracer.clock() - t0
    finally:
        tracer.uninstall()
    assert code == 0
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert oscilab.lap.eig_window is oscilab.discretize.eig_window
    names = {s[0] for s in tracer.spans}
    assert {"cli.run", "lap.lap_scan", "lap.gttrs", "lap.qr", "lap.norm2"} <= names
    assert tracer.counters["lap.norm_evals"] > 0

    # the emitted metric names are exactly the ones BENCHMARK.json declares
    with open(BENCHMARK) as fh:
        declared = json.load(fh)
    metrics = worker.per_layer(tracer, [wall], [wall], wall, 0.0)
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in declared["per_layer"]}
    assert set(run.END_TO_END) == {m["name"] for m in declared["end_to_end"]}
