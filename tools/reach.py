"""Functions of src/oscilab that no CLI path runs; exit 1 if one is not
expected.

    python3 tools/reach.py

Traces the lines that run inside src/oscilab while the process, pinned to
one CPU so that pool tasks run in-process, runs tests/test_acceptance.py
and tests/test_cli.py (through pytest) and then every catalog config of
perfbench (catalog.config_doc) through oscilab.cli.run, each into a
temporary directory. Then prints each function, nested ones included, of
which no body statement ran. A def line runs when its module or enclosing
function does, so only the body counts; a docstring is not a statement that
runs. Tests that force a fork (the two_cpus fixture) run their pool tasks
in children, whose lines are not seen. The tracer is sys.settrace, in the
standard library; the run takes about a minute.

A function on EXPECTED is printed with the reason it runs no statement
here. Any other is marked NOT EXPECTED, a last line counts them, and the
exit code is 1: code that only the tests reach is either retired or put on
the list with its reason.
"""

import ast
import contextlib
import glob
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "oscilab")

_WORKER = "runs only in a pool worker, whose lines are not traced"
_KIND = "a config potential kind that no catalog config uses"
_FALLBACK = "scipy fallback: runs only where numpy's OpenBLAS lacks LAPACKE"
# {module.function: why it runs no body statement on a CLI path here}
EXPECTED = {
    "_pool._worker": _WORKER,
    "errors.InvariantViolation.__reduce__": _WORKER,
    "potentials.LongRangeSample.__post_init__": _KIND,
    "_lapack._Steps.right": _FALLBACK,
    "_lapack._Steps.left": _FALLBACK,
    "_lapack._Steps.top": _FALLBACK,
    "_lapack._scipy": _FALLBACK,
}


def _body_lines(fn):
    """Lines of fn's own body: its statements, less a leading docstring and
    the bodies of the functions and classes defined inside it."""
    body = fn.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    lines = set()
    for stmt in body:
        lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    for node in ast.walk(ast.Module(body=body, type_ignores=[])):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for inner in node.body:
                lines.difference_update(range(inner.lineno, inner.end_lineno + 1))
    return lines


def functions(path):
    """(qualified name, def line, body lines) of every function in a file."""
    tree = ast.parse(open(path).read(), path)
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                out.append((name, child.lineno, _body_lines(child)))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def traced(run):
    """The (file, line) pairs under PACKAGE that ran during run()."""
    seen = set()
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local
        return None

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return seen


def run_suite_and_catalog():
    import pytest

    # the test report goes to stderr; stdout holds the functions alone
    with contextlib.redirect_stdout(sys.stderr):
        code = pytest.main(
            ["-q", "-p", "no:cacheprovider",
             os.path.join(ROOT, "tests", "test_acceptance.py"),
             os.path.join(ROOT, "tests", "test_cli.py")]
        )
    print(f"pytest exit code {int(code)}", file=sys.stderr)
    import oscilab.cli
    from perfbench import catalog

    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, entry in enumerate(catalog.all_entries()):
            out_dir = os.path.join(tmp, f"op{i:03d}")
            path = out_dir + ".json"
            with open(path, "w") as fh:
                json.dump(catalog.config_doc(entry, out_dir), fh)
            log = io.StringIO()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                if oscilab.cli.run(path) != 0:
                    failed.append(entry.id)
    print(f"catalog configs run: {i + 1}, failed: {failed}", file=sys.stderr)


def main():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    # for the CLI tests that start the program in a subprocess
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    )
    seen = traced(run_suite_and_catalog)
    unexpected = 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        for name, line, body in functions(path):
            if body and not any((path, n) in seen for n in body):
                qualified = f"{module}.{name}"
                why = EXPECTED.get(qualified)
                unexpected += why is None
                print(f"{qualified}  {os.path.relpath(path, ROOT)}:{line}"
                      f"  ({why or 'NOT EXPECTED'})")
    if unexpected:
        print(f"{unexpected} function(s) not in EXPECTED run on no CLI path")
        sys.exit(1)


if __name__ == "__main__":
    main()
