"""List the functions of ``src/fatcomp`` that no shipped path calls.

    python3 tools/traffic.py [--root DIR]

DIR is a checkout (with ``src/`` and ``bench/``) to audit; by default the
one this script sits in. Under one ``cProfile`` profile, in this process,
the script runs:

* every row of the four ``bench/workloads.py`` workloads at seeds 1 and 2,
  once each (a row that raises, such as a named fault, still counts);
* ``checks.run_all`` at seeds 1, 2 and 3, as ``fatcomp verify-all --seed S``;
* every call in ``CALLS`` of ``tools/compare_cli.py``.

Every CLI call goes through ``cli.main`` with ``--jobs 1``, so that no call
works in a child process (the rows do not depend on ``--jobs``), and writes
into a temporary directory.

It then reads every ``def`` of ``src/fatcomp`` (methods and nested
functions included, lambdas not) and prints, module by module, each one
the profile saw 0 calls to, with its line and qualified name, then how
many of how many functions that is. A function on this list is on no
shipped path: no workload, check or CLI call reaches it.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import cProfile
import io
import os
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent


def definitions(src: Path) -> list[tuple[str, int, str]]:
    """(file, first line, qualified name) of every def under src; the first line is that of
    the first decorator, as in a code object's ``co_firstlineno``."""
    found = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [dec.lineno for dec in child.decorator_list])
                found.append((path, first, prefix + child.name))
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text()), str(path.resolve()), "")
    return found


def run_shipped_paths() -> None:
    """The workloads, ``run_all`` and the CLI calls, in this process."""
    from fatcomp import cli
    import workloads
    from compare_cli import CALLS

    for w in workloads.ROW_WORKLOADS.values():
        for seed in (1, 2):
            for row in w.make_rows(seed):
                try:
                    w.run_row(row)
                except Exception:  # a failed row has still run its code
                    pass
    verify_all = [["verify-all", "--seed", str(seed)] for seed in (1, 2, 3)]
    with tempfile.TemporaryDirectory() as tmp:
        os.environ[cli.OUT_DIR_ENV] = tmp
        for call in verify_all + CALLS:
            call = [("1" if i and call[i - 1] == "--jobs" else arg) for i, arg in enumerate(call)]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main(call)
                except SystemExit:  # argparse's usage errors
                    pass


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=str(TOOLS.parent), help="checkout to audit (default: this one)")
    args = p.parse_args()
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench"), str(TOOLS)]

    prof = cProfile.Profile()
    prof.runcall(run_shipped_paths)
    prof.create_stats()
    calls = {(os.path.realpath(f), line): n for (f, line, _), (_, n, *_) in prof.stats.items()}

    defs = definitions(root / "src" / "fatcomp")
    dead = [(f, line, name) for f, line, name in defs if not calls.get((f, line))]
    for f, line, name in dead:
        print(f"{Path(f).name}:{line} {name}")
    print(f"{len(dead)} of {len(defs)} functions in src/fatcomp get 0 calls")


if __name__ == "__main__":
    main()
