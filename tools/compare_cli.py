"""Compare the output files and exit codes of 52 CLI calls in two checkouts.

    python3 tools/compare_cli.py --parent DIR --change DIR

DIR is a checkout (with ``src/``) of each commit. Every call in ``CALLS``
runs as ``python -m fatcomp.cli ARGS`` once in each checkout, in a
temporary directory of its own that receives the default output file and
is removed afterwards. The script prints every call whose exit code or
output files differ between the two sides, and says for each file whether
its rows differ or only its metadata does: rows are the CSV lines not
starting with ``#`` or the JSON ``"rows"``, metadata the ``#`` lines or the
JSON ``"meta"``. Where rows differ, it names each column that moved, in how
many rows, and its largest relative change |new - old| / |old|. Then it
prints how many calls differ; it exits 1 if any call differs, else 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile

CALLS = [
    ["blowup", "--kc", "0.01", "--verify"],
    ["blowup", "--kc", "1", "--verify"],
    ["blowup", "--kc", "100", "--verify"],
    ["blowup", "--kc", "1", "--ka", "-1", "--kb", "2", "--verify"],
    ["blowup", "--kc", "4", "--ka", "-1", "--kb", "2", "--verify"],
    ["blowup", "--sweep=-5:5:41", "--kb", "3", "--verify"],
    ["blowup", "--sweep=-5:5:41", "--kb", "4", "--tol", "1e-6", "--verify"],
    ["blowup", "--sweep=-3:3:25", "--kb", "0.5", "--format", "json"],
    # near resonance: det N has a cluster of zeros within a step; the call exits 0
    ["blowup", "--ka=-8.999999872840394", "--kb", "9.999999957613465", "--verify"],
    # (-3 s^4, 4 s^2) at s = 1e3: the blow-up time scales as 1/s
    ["blowup", "--ka=-3e12", "--kb", "4e6", "--verify"],
    # kappa_b < 0 < kappa_a << kappa_b^2: the upper_bound column, where x + y cancelled
    ["blowup", "--ka", "1e-14", "--kb", "-2"],
    # a zero divisor in the interpolation step of the Brent port
    ["blowup", "--ka", "1.5684445943827328e-254", "--kb", "0", "--verify"],
    # the kc row follows the sweep rows
    ["blowup", "--sweep=-1:1:3", "--kb", "2", "--kc", "4", "--verify"],
    # tbar = 3.1e-150: first_blowup refines to a relative tolerance
    ["blowup", "--kc", "1e300", "--verify"],
    # exp(h H) of the balanced system is not finite: the row reads unverifiable, exit 3
    ["blowup", "--ka", "1.4325205914417532e118", "--kb=-2.82884475485708e278", "--verify"],
    # S_u of the balancing overflows before its eigenvalues: unverifiable, exit 3
    ["blowup", "--ka", "3.7615057244563964e-230", "--kb", "4.687033938596471e280", "--verify"],
    # infinite rows whose 2x2 pass stops certified on L+, but for (-1, -2) on a double eigenvalue of H,
    # and (-1, -1e5), whose slow mode (Re lambda = 3e-3) does not converge by t = 1000: both take every step
    ["blowup", "--sweep=-5:-0.5:19", "--kb=-2", "--verify"],
    ["blowup", "--ka=-3.9", "--kb", "1.71", "--tmax", "1e5", "--verify"],
    ["blowup", "--ka=-1", "--kb=-1e5", "--verify"],
    # a step count that overflows: unverifiable, exit 3
    ["blowup", "--ka=-3.9", "--kb=1.71", "--tmax", "7e307", "--verify"],
    ["conjugate", "--d", "1", "--sweep", "0:3:30", "--verify"],
    ["conjugate", "--d", "2", "--sweep", "0:3:30", "--verify"],
    ["conjugate", "--d", "16", "--sweep", "0:3:30", "--verify"],
    ["conjugate", "--d", "2", "--vnorm", "0.5"],
    ["conjugate", "--d", "2", "--vnorm", "0.5", "--format", "json"],
    # large |v|: t* = pi/sqrt(1 + |v|^2) to 1e-12 relative
    ["conjugate", "--d", "1", "--vnorm", "10000", "--verify"],
    ["conjugate", "--d", "2", "--vnorm", "1e6", "--verify"],
    ["laplacian", "--d", "1", "--verify"],
    ["laplacian", "--d", "2", "--verify"],
    ["laplacian", "--d", "3", "--vnorm", "3", "--verify"],
    ["laplacian", "--d", "2", "--vnorm", "100", "--verify"],
    ["laplacian", "--d", "2", "--format", "json"],
    # v off the axis: the a/b corner of the d = 1 system
    ["laplacian", "--d", "2", "--v", "0.6,-0.3,0.2", "--verify"],
    # 200 rows in chunks of 25 over a pool of two
    ["conjugate", "--d", "2", "--sweep", "0:3:200", "--jobs", "2", "--verify"],
    # d = 3, row by row: t* in closed form, the bits of d = 2
    ["conjugate", "--d", "3", "--sweep", "0:3:30", "--verify"],
    # ||h H2||_2 is 2.8 and 7.0: the refinement halves its step once and twice
    ["blowup", "--ka", "1e-3", "--kb=-5", "--verify"],
    ["blowup", "--ka", "1e-5", "--kb=-20", "--verify"],
    # a grid of its own, checked against t_star by sublaplacian_along
    ["laplacian", "--d", "2", "--rgrid", "0.1:2.5:12", "--verify"],
    # grids of one stacked propagation: 200 radii, 40 near the origin, a descending grid, a single radius
    ["laplacian", "--d", "3", "--v", "0.6,-0.3,0.2", "--rgrid", "0.05:2.0:200", "--verify"],
    ["laplacian", "--d", "1", "--vnorm", "2.5", "--rgrid", "0.01:1.0:40", "--verify"],
    ["laplacian", "--d", "2", "--rgrid", "1.5:0.1:15", "--format", "json"],
    ["laplacian", "--d", "2", "--rgrid", "0.5:0.5:1", "--verify"],
    # |v|^4 overflows: a domain error, exit 2
    ["conjugate", "--d", "1", "--vnorm", "1e200"],
    # domain errors of laplacian, exit 2: a bad d, a NaN radius, a grid beyond t*
    ["laplacian", "--d", "0", "--rgrid", "0.1:1:3"],
    ["laplacian", "--rgrid=0.1:nan:3"],
    ["laplacian", "--rgrid", "0.5:5:4"],
    # kappa_b^2 overflows: upper_bound was nan with exit 0, and the bracket (nan, nan] exited 1
    ["blowup", "--ka=-1.301921080189521e-09", "--kb=-9.869978309892461e+276"],
    ["blowup", "--ka=-1.0229834445816485e+166", "--kb=2.3912383905424197e+250"],
    # alpha^2 = kappa_a/(y - x) underflowed to 0: "computation failed", exit 1; alpha is now taken scale-free
    ["blowup", "--ka=5.761650394919591e-150", "--kb=-5.232955793209928e+277"],
    # the real pair's zero in closed form, 200 rows at d = 1, where the c block is empty
    ["conjugate", "--d", "1", "--sweep", "0:3:200", "--verify"],
    # kappa_c < 0: the frame pass of first_blowup runs to its horizon and returns the infinite marker
    ["blowup", "--kc", "-4", "--verify"],
    # N's a rows underflow at r = 1e-150: trace(B V) read nan, with exit 0; a domain error, exit 2
    ["laplacian", "--d", "2", "--rgrid", "1e-150:0.5:3", "--verify"],
]


def run(checkout: str, call: list[str]) -> tuple[int, dict[str, bytes]]:
    """(exit code, file name -> bytes of every file the call wrote)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    env.pop("FATCOMP_OUT_DIR", None)  # the output file goes to the working directory
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-m", "fatcomp.cli", *call], cwd=tmp, env=env, capture_output=True)
        files = {}
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as f:
                files[name] = f.read()
    return proc.returncode, files


def split(name: str, data: bytes | None) -> tuple:
    """(metadata, rows) of an output file; a file that is absent is (None, None)."""
    if data is None:
        return None, None
    if name.endswith(".json"):
        payload = json.loads(data)
        return payload.get("meta"), payload.get("rows")
    lines = data.splitlines(keepends=True)
    return [x for x in lines if x.startswith(b"#")], [x for x in lines if not x.startswith(b"#")]


def records(name: str, rows: list) -> list[dict]:
    """The rows of an output file as column -> value, the CSV header read off its first row."""
    return rows if name.endswith(".json") else list(csv.DictReader(x.decode() for x in rows))


def relative_change(old, new) -> float:
    """|new - old| / |old| of two numbers or numeric texts; NaN where either is not a number."""
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return math.nan
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a else math.inf


def moved_columns(name: str, rows0: list | None, rows1: list | None) -> str:
    """'column in n rows (max rel x)' for each column whose values differ between the sides."""
    if rows0 is None or rows1 is None:
        return "absent on one side"
    t0, t1 = records(name, rows0), records(name, rows1)
    if len(t0) != len(t1) or any(r0.keys() != r1.keys() for r0, r1 in zip(t0, t1)):
        return f"{len(t0)} -> {len(t1)} rows, or their columns differ"
    moved: dict[str, tuple[int, float]] = {}
    for r0, r1 in zip(t0, t1):
        for col in r0:
            if r0[col] != r1[col]:
                n, rel = moved.get(col, (0, 0.0))
                moved[col] = n + 1, max(rel, relative_change(r0[col], r1[col]))
    return ", ".join(f"{col} in {n} rows (max rel {rel:.1e})" for col, (n, rel) in moved.items())


def what_differs(name: str, old: bytes | None, new: bytes | None) -> str:
    (meta0, rows0), (meta1, rows1) = split(name, old), split(name, new)
    if rows0 != rows1:
        return f"{name}: rows differ: {moved_columns(name, rows0, rows1)}"
    return f"{name}: metadata differs only" if meta0 != meta1 else f"{name}: bytes differ only"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    args = p.parse_args()
    differ = 0
    for call in CALLS:
        (code0, files0), (code1, files1) = run(args.parent, call), run(args.change, call)
        if code0 != code1 or files0 != files1:
            differ += 1
            moved = sorted(n for n in files0.keys() | files1.keys() if files0.get(n) != files1.get(n))
            report = "; ".join(what_differs(n, files0.get(n), files1.get(n)) for n in moved) or "files equal"
            print(f"{' '.join(call)}: exit {code0} -> {code1}, {report}")
    print(f"{differ} of {len(CALLS)} calls differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
