"""Workload process: runs one workload's operation list through oscilab.cli.run.

Started by run.py with the BLAS thread count already pinned in its
environment. Prints one JSON object as its last stdout line.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import catalog
import checks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")


def _import_program():
    sys.path.insert(0, SRC)
    import oscilab.cli

    if not os.path.abspath(oscilab.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"oscilab imported from {oscilab.cli.__file__}, not {SRC}")
    return oscilab.cli


def _setup(args):
    """Everything before the first timed op: imports, configs, references."""
    cli = _import_program()
    ops = catalog.draw(args.workload, args.seed, args.seconds, traced=bool(args.trace))
    with open(os.path.join(HERE, "references.json")) as fh:
        references = json.load(fh)
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    configs = []
    for i, entry in enumerate(ops):
        paths = []
        for tag in ("u", "t") if args.trace else ("u",):
            out_dir = os.path.join(run_dir, f"op{i:03d}{tag}")
            os.makedirs(out_dir)
            path = out_dir + ".json"
            with open(path, "w") as fh:
                json.dump(catalog.config_doc(entry, out_dir), fh)
            paths.append((path, out_dir))
        configs.append(paths)
    return cli, ops, configs, references, run_dir


def _run_op(cli, config_path):
    """One closed-loop operation; returns (seconds, cpu seconds, exit code, log)."""
    log = io.StringIO()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.run(config_path)
    except Exception as exc:  # the op failed; count it and keep the loop going
        code = f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return dt, time.process_time() - cpu0, code, log.getvalue()


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _execute(cli, entry, config_path, out_dir, reference):
    """Run and check one op; returns (seconds, cpu seconds, problems, bytes written)."""
    dt, cpu, code, log = _run_op(cli, config_path)
    if code != 0:
        problems = [f"exit {code}: {log.strip()[-300:]}"]
    else:
        problems = checks.check(entry, out_dir, reference)
    written = _dir_bytes(out_dir) if os.path.isdir(out_dir) else 0
    shutil.rmtree(out_dir, ignore_errors=True)
    return dt, cpu, problems, written


def _report(i, n, entry, dt, problems, tag=""):
    status = "ok" if not problems else "FAILED " + "; ".join(problems)
    print(f"  op {i + 1}/{n}{tag} {entry.id}: {dt:.3f} s {status}", file=sys.stderr, flush=True)


def run_untraced(cli, ops, configs, references):
    times, failed = [], 0
    for i, entry in enumerate(ops):
        (path, out_dir), = configs[i]
        dt, _, problems, _ = _execute(cli, entry, path, out_dir, references.get(entry.id))
        _report(i, len(ops), entry, dt, problems)
        times.append(dt)
        failed += bool(problems)
    attempted = len(ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "op_s_p50": (statistics.median(times), "s"),
        "ops_per_min": (60.0 * (attempted - failed) / sum(times), "1/min"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return attempted, failed, metrics


def run_traced(cli, ops, configs, references, args):
    tracer = spans.Tracer()
    untraced, traced, failed = [], [], 0
    cpu_total = written_total = 0.0
    for i, entry in enumerate(ops):
        (u_path, u_dir), (t_path, t_dir) = configs[i]
        ref = references.get(entry.id)
        # alternate which pass goes first so neither gets a systematic edge
        for mode in ("u", "t") if i % 2 == 0 else ("t", "u"):
            if mode == "u":
                dt, cpu, problems, _ = _execute(cli, entry, u_path, u_dir, ref)
                untraced.append(dt)
                cpu_total += cpu
            else:
                tracer.op = i
                tracer.install()
                try:
                    dt, _, problems, written = _execute(cli, entry, t_path, t_dir, ref)
                finally:
                    tracer.uninstall()
                traced.append(dt)
                written_total += written
            _report(i, len(ops), entry, dt, problems, tag=mode)
            failed += bool(problems)
    metrics = per_layer(tracer, untraced, traced, cpu_total, written_total)
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    with open(trace_path, "w") as fh:
        json.dump(
            {
                "fields": ["name", "start", "end", "parent", "op"],
                "spans": tracer.spans,
                "counters": tracer.counters,
                "op_ids": [e.id for e in ops],
            },
            fh,
        )
    print(f"  spans written to {os.path.relpath(trace_path, ROOT)}", file=sys.stderr)
    return 2 * len(ops), failed, metrics


def per_layer(tracer, untraced, traced, cpu_total, written_total):
    """The per-layer metrics, each a per-op mean over the traced ops."""
    ops = len(traced)
    agg = spans.aggregate(tracer.spans)
    counters = tracer.counters

    def self_s(name):
        return agg.get(name, (0.0, 0))[0] / ops

    def calls(name):
        return agg.get(name, (0.0, 0))[1] / ops

    def counter(name):
        return counters.get(name, 0) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    op_s_mean = sum(traced) / ops
    m = {}
    for name in ("lap.gttrs", "lap.gttrf", "lap.qr", "lap.norm2", "spectral.fft",
                 "spectral.qr", "spectral.norm2", "spectral.oscillation_compactness_probe",
                 "discretize.eigh_tridiagonal", "lap.eigh_tridiagonal",
                 "discretize.eig_window", "spectral.find_embedded",
                 "discretize.build_schrodinger", "potentials.eval_potential",
                 "lap.eigh_dense", "lap.weighted_resolvent_norm",
                 "discretize.build_weight", "lap.lap_scan", "lap.phase_sweep", "cli.run"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("lap.gttrs", "lap.norm2", "spectral.fft", "spectral.norm2",
                 "discretize.eigh_tridiagonal", "lap.eigh_dense",
                 "lap.weighted_resolvent_norm", "lap.lap_scan"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("lap.gttrs.bytes_computed", "spectral.fft.bytes_computed"):
        m[name] = (counter(name), "B")
    m["discretize.eigh_tridiagonal.vec_bytes"] = (
        counter("discretize.eigh_tridiagonal.vec_bytes"), "B")
    m["lap.norm_evals"] = (counter("lap.norm_evals"), "count")
    m["lap.iters_per_norm"] = (
        ratio(calls("lap.norm2"), counter("lap.norm_evals")), "ratio")
    m["spectral.corner_evals"] = (counter("spectral.corner_evals"), "count")
    m["spectral.iters_per_corner"] = (
        ratio(calls("spectral.norm2"), counter("spectral.corner_evals")), "ratio")
    m["discretize.builds_per_op"] = (calls("discretize.build_schrodinger"), "count")
    m["cli.bytes_written"] = (written_total / ops, "B")
    # shares of op time held by the layer each workload was chosen for
    m["share.lap_block_norm"] = (ratio(
        self_s("lap.gttrs") + self_s("lap.qr") + self_s("lap.norm2"), op_s_mean), "ratio")
    m["share.spectral_fft"] = (ratio(self_s("spectral.fft"), op_s_mean), "ratio")
    m["share.eigh_tridiagonal"] = (ratio(
        self_s("discretize.eigh_tridiagonal") + self_s("lap.eigh_tridiagonal"),
        op_s_mean), "ratio")
    m["share.dense_route"] = (ratio(
        self_s("lap.eigh_dense") + self_s("lap.norm2")
        + self_s("lap.weighted_resolvent_norm"), op_s_mean), "ratio")
    m["proc.cpu_util"] = (cpu_total / sum(untraced), "ratio")
    m["proc.blas_threads"] = (float(os.environ.get("OPENBLAS_NUM_THREADS", "0")), "count")
    m["trace.ops"] = (float(ops), "count")
    m["trace.op_s_mean"] = (op_s_mean, "s")
    m["trace.coverage"] = (spans.covered_time(tracer.spans) / sum(traced), "ratio")
    m["trace.op_s_p50_traced"] = (statistics.median(traced), "s")
    m["trace.op_s_p50_untraced"] = (statistics.median(untraced), "s")
    m["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli, ops, configs, references, run_dir = _setup(args)
    ready = time.monotonic()
    try:
        if args.setup_only:
            result = {"ready": ready}
        else:
            if args.trace:
                attempted, failed, metrics = run_traced(cli, ops, configs, references, args)
            else:
                attempted, failed, metrics = run_untraced(cli, ops, configs, references)
            result = {
                "ready": ready,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
