"""oscilab benchmark launcher.

    python3 perfbench/run.py --workload lap-banded --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Pins the BLAS thread count in the environment before any numpy loads, then
starts the workload process (worker.py) and, untraced, two set-up probes.
Prints a table of the metrics with units and sample counts, then, as the
last stdout line, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. ``--workload all`` runs every workload in turn and, with
``--out FILE``, writes the combined record (the environment plus every
workload's metrics; with --trace 1 both untraced and traced).

numpy-free on purpose: importing numpy here would load BLAS before the
thread count is pinned for the children.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import catalog  # noqa: E402  (numpy-free)

# One BLAS thread: the load model is one closed-loop client, and on a shared
# two-core machine a second BLAS thread mostly adds run-to-run noise.
BLAS_THREADS = 1
SETUP_PROBES = 2
RUN_TIMEOUT_S = 170.0

END_TO_END = ("setup_s", "op_s_p50", "ops_per_min", "peak_rss_mb")


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "OSCILAB_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def _worker(args, extra, deadline):
    """Run worker.py; returns (result dict, start time) or raises RuntimeError."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)] + extra
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload process timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), start


def run_workload(args):
    """One workload; returns the result dict printed as the last line."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        result, _ = _worker(args, ["--trace", "1"], deadline)
        samples = {k: result["attempted"] // 2 for k in result["metrics"]}
    else:
        setup = []
        for _ in range(SETUP_PROBES):
            probe, start = _worker(args, ["--setup-only"], deadline)
            setup.append(probe["ready"] - start)
        result, start = _worker(args, [], deadline)
        setup.append(result["ready"] - start)
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        samples = {k: result["attempted"] for k in result["metrics"]}
        samples.update(setup_s=len(setup), peak_rss_mb=1)
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops, {failed} failed, failed_ratio {failed / attempted:.4f}")
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']:<6s} n={samples[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def environment():
    """Machine and library record for the combined output (read-only probes)."""
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level")).strip()
        kind = _read(os.path.join(base, index, "type")).strip()
        if level in ("2", "3"):
            caches[f"L{level}_{kind.lower()}_per_instance"] = _read(
                os.path.join(base, index, "size")).strip()
    probe = (
        "import json, sys, numpy, scipy; "
        "b = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
        "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__, "
        "'scipy': scipy.__version__, 'blas': b.get('name'), 'blas_version': b.get('version')}))"
    )
    libs = json.loads(subprocess.run([sys.executable, "-c", probe], env=child_env(),
                                     capture_output=True, text=True, check=True).stdout)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        **libs,
        "blas_threads_env": {k: v for k, v in child_env().items()
                             if k.endswith("_THREADS")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="oscilab benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(catalog.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the combined record here")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "oscilab", "cli.py")):
        print(f"error: no oscilab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            print(json.dumps(run_workload(args)))
            return 0
        record = {"seed": args.seed, "seconds": args.seconds, "environment": environment(),
                  "workloads": {}}
        for name in catalog.BASE_WORKLOADS:
            entry = {}
            for trace in (0, 1) if args.trace else (0,):
                sub = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
                entry["per_layer" if trace else "end_to_end"] = run_workload(sub)
            record["workloads"][name] = entry
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    runs = [r for w in record["workloads"].values() for r in w.values()]
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {f"{w}.{k}": m for w, e in record["workloads"].items()
                    for k, m in e["end_to_end"]["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
