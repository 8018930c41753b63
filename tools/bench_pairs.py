"""Alternating parent/change benchmark pairs, summarised for a gain claim.

    python3 tools/bench_pairs.py PARENT CHANGE --workload operator-weight \
        --seed 1 --pairs 7 --out BENCH_20.json

PARENT and CHANGE are two checkouts of the repository. Each pair runs the
command of CHANGE's BENCHMARK.json (``perfbench/run.py``) once in each
checkout, ``--workload W --seed S --seconds <run_seconds> --trace 0``,
alternating which side runs first from one pair to the next. After every
pair the file named by --out is rewritten with every run so far, under its
workload, and a summary per workload over all its pairs and per seed:

* each side's median and quartiles of every end-to-end metric;
* the pairs the change won, ties counting for neither;
* ``gain``: the change won at least nine tenths of the pairs and its median
  is better than the parent's by more than the parent's interquartile range;
* ``within_bound``: the change's median is no worse than the parent's by
  more than the bound BENCHMARK.json fixes for the metric.

An existing --out file is extended, so several calls (another seed, another
workload) build one record. Standard library only: the benchmark pins the
BLAS thread count before numpy loads, in processes this script starts.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def _spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(checkout, spec, workload, seed):
    """One benchmark run in a checkout; returns its last stdout line, parsed."""
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(
            f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: m["value"] for k, m in out["metrics"].items()},
    }


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarise(pairs, metrics):
    """Per end-to-end metric: both sides' medians and quartiles, wins, rules."""
    out = {}
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "higher" else -1.0)
        side = {}
        for key in ("parent", "change"):
            values = [p[key]["metrics"][name] for p in pairs]
            q1, q3 = _quartiles(values)
            side[key] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        wins = sum(
            sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) > 0
            for p in pairs
        )
        parent, change = side["parent"]["median"], side["change"]["median"]
        gain = sign * (change - parent)
        out[name] = {
            "better": m["better"],
            **side,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_ratio": change / parent if parent else None,
            "gain": wins >= 0.9 * len(pairs)
            and gain > side["parent"]["q3"] - side["parent"]["q1"],
            "within_bound": gain >= -m["bound"] * abs(parent),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = _spec(args.change)
    if _spec(args.parent)["run_seconds"] != spec["run_seconds"]:
        parser.error("the two checkouts' BENCHMARK.json differ in run_seconds")
    record = {"workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record["command"] = " ".join(spec["command"]) + (
        f" --workload W --seed S --seconds {spec['run_seconds']} --trace 0"
    )
    record["environment"] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    entry = record["workloads"].setdefault(args.workload, {"pairs": []})
    for _ in range(args.pairs):
        # alternate over the workload's whole record, across calls too
        order = ("parent", "change") if len(entry["pairs"]) % 2 == 0 else ("change", "parent")
        pair = {"seed": args.seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), spec, args.workload, args.seed)
        entry["pairs"].append(pair)
        entry["summary"] = summarise(entry["pairs"], spec["end_to_end"])
        entry["by_seed"] = {
            str(s): summarise([p for p in entry["pairs"] if p["seed"] == s], spec["end_to_end"])
            for s in sorted({p["seed"] for p in entry["pairs"]})
        }
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        metrics = {m["name"]: (pair["parent"]["metrics"][m["name"]],
                               pair["change"]["metrics"][m["name"]])
                   for m in spec["end_to_end"]}
        print(f"{args.workload} seed {args.seed} pair {len(entry['pairs'])}: {metrics}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
