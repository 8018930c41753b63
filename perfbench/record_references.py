"""Record the checked outputs of every catalog entry into references.json.

    python3 perfbench/record_references.py

Run once at the commit that defines the references, or when a change is
meant to alter outputs; the benchmark compares every later run against
them. Also prints each entry's wall time, the source of the per-class
nominal costs in catalog.py.
"""

import json
import os
import shutil
import sys
import tempfile

import run

# the same pinned BLAS environment as a benchmark run, set before numpy loads
os.environ.update(run.child_env())

import catalog  # noqa: E402
import checks  # noqa: E402
import worker  # noqa: E402


def main():
    cli = worker._import_program()
    refs = {}
    os.makedirs(worker.WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=worker.WORK)
    try:
        for entry in catalog.all_entries():
            out_dir = os.path.join(tmp, "out")
            config = os.path.join(tmp, "config.json")
            with open(config, "w") as fh:
                json.dump(catalog.config_doc(entry, out_dir), fh)
            dt, _, code, log = worker._run_op(cli, config)
            if code != 0:
                print(f"{entry.id}: exit {code}\n{log}", file=sys.stderr)
                return 1
            observed = checks.extract(entry.command, out_dir)
            refs[entry.id] = observed
            shutil.rmtree(out_dir)
            problems = checks.analytic_problems(entry, observed)
            print(f"{entry.id}: {dt:.3f} s {'; '.join(problems)}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(os.path.join(worker.HERE, "references.json"), "w") as fh:
        json.dump(dict(sorted(refs.items())), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
