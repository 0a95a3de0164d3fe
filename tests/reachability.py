"""Which functions of ``src/twinbuild`` the suites, workloads and CLI never
enter.

Run by hand from the repository root (pytest does not collect it):

    PYTHONPATH=src python tests/reachability.py

Under a call profiler it runs:

- ``twinbuild verify all --seed 0``;
- three instances of every in-process stratum of ``perfbench/workloads.py``
  (imported unchanged): build, call, oracle and digest;
- the leaf commands of ``tests/test_cli.py::_LEAF_PARAMETERS`` and three
  instances of every ``cli`` workload stratum, each in text and in json.

It prints, module by module, each function that none of these enters,
with its line count (decorators and docstring included), then the totals.
Dunder methods are left out, and so is a function nested in one that is
itself unreached (its lines are the outer function's).  The count is a
map for deletions, not a gate: library users are callers too.
"""

import ast
import contextlib
import io
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "twinbuild"


def _functions(path):
    """(qualified name, first line, last line, parent index) of every
    function in a module, outermost first; the first line is the first
    decorator's, as the code object's is."""
    out = []

    def visit(node, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out.append((prefix + child.name, first, child.end_lineno, parent))
                visit(child, prefix + child.name + ".", len(out) - 1)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", parent)
            else:
                visit(child, prefix, parent)

    visit(ast.parse(path.read_text()), "", None)
    return out


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return fn(*args)
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code


def _load():
    """The CLI's entry, the workloads module and the leaf commands,
    imported before the trace starts so that their import-time calls do
    not count as callers."""
    from twinbuild.cli import main

    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
    try:
        import workloads
        from test_cli import _LEAF_PARAMETERS
    finally:
        del sys.path[:2]
    return main, workloads, _LEAF_PARAMETERS


def _exercise(cli, workloads, leaf_commands):
    """Everything the trace counts as a caller."""
    _quiet(cli, ["verify", "all", "--seed", "0"])
    for name, spec in workloads.WORKLOADS.items():
        workload = spec()
        for stratum in workload.strata:
            for k in range(3):
                inst = stratum.make(workloads.rng_for(k, name, stratum.name))
                if workload.in_process:
                    result = stratum.call(inst)
                    stratum.check(inst, result)
                    stratum.digest(result)
                else:
                    argv, _ = inst
                    for fmt in ([], ["--format", "json"]):
                        _quiet(cli, list(argv) + fmt)
    for argv, _ in leaf_commands:
        for fmt in ([], ["--format", "json"]):
            _quiet(cli, list(argv) + fmt)


def main():
    callers = _load()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        _exercise(*callers)
    finally:
        sys.setprofile(None)
    entered = {(os.path.realpath(f), line) for f, line in entered}

    total = 0
    for path in sorted(SRC.glob("*.py")):
        unreached = []
        funcs = _functions(path)
        skipped = set()
        for i, (name, first, last, parent) in enumerate(funcs):
            if parent in skipped:
                skipped.add(i)
                continue
            leaf = name.rsplit(".", 1)[-1]
            if leaf.startswith("__") and leaf.endswith("__"):
                continue
            if (os.path.realpath(path), first) not in entered:
                skipped.add(i)
                unreached.append((name, last - first + 1))
        lines = sum(n for _, n in unreached)
        total += lines
        if unreached:
            print(f"{path.name}: {lines} lines in {len(unreached)} functions")
            for name, n in unreached:
                print(f"    {name} ({n})")
    print(f"total: {total} unreached lines of src/twinbuild, dunder methods not counted")


if __name__ == "__main__":
    main()
