"""Import cost of the CLI: wall time, peak RSS and the OpenBLAS copies mapped.

    python3 tools/import_probe.py [--runs N] [--checkout DIR]

Runs ``import oscilab.cli`` in N fresh interpreters (default 10), one after
another, each with OPENBLAS_NUM_THREADS=1 as the benchmark sets it. Each
interpreter reports the wall time of the import alone, its peak RSS after
it, and the OpenBLAS libraries mapped into it, named by the package that
bundles them (numpy.libs/ -> numpy). Prints one JSON object: the median and
the range of the import time, every run's time in run order (so a bimodal
spread shows), the largest peak RSS, and the OpenBLAS copies of the last
run. --checkout points at another checkout of the repository, for a
before/after comparison; by default this one. Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# what one fresh interpreter runs; its last stdout line is JSON
_CHILD = """\
import json, os, resource, time
t0 = time.perf_counter()
import oscilab.cli
seconds = time.perf_counter() - t0
with open("/proc/self/maps") as fh:
    paths = {line.split(None, 5)[5].strip() for line in fh
             if len(line.split(None, 5)) == 6 and "openblas" in line}
owners = sorted(os.path.basename(os.path.dirname(p)).removesuffix(".libs") for p in paths)
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"import_s": seconds, "rss_mb": rss_mb, "openblas": owners}))
"""


def probe(checkout):
    """One fresh interpreter's report, importing the checkout's src/."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.path.join(checkout, "src")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], capture_output=True, text=True, env=env,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--checkout", default=ROOT)
    args = parser.parse_args(argv)
    runs = [probe(os.path.abspath(args.checkout)) for _ in range(args.runs)]
    times = [r["import_s"] for r in runs]
    print(json.dumps({
        "checkout": os.path.abspath(args.checkout),
        "runs": len(runs),
        "import_s_median": statistics.median(times),
        "import_s_min": min(times),
        "import_s_max": max(times),
        "import_s": [round(t, 4) for t in times],
        "rss_mb_max": max(r["rss_mb"] for r in runs),
        "openblas": runs[-1]["openblas"],
    }, indent=1))


if __name__ == "__main__":
    main()
