"""Time one CLI call in two checkouts, in alternating rounds.

    python3 tools/cli_times.py --parent DIR --change DIR --rounds 5 -- \
        conjugate --d 2 --sweep 0:3:2000 --verify

DIR is a checkout (with ``src/``) of each commit. Each round runs
``python -m fatcomp.cli ARGS`` once per checkout, the side that goes first
alternating from round to round, in a temporary directory of its own that
receives the output file. The time is the wall time of the whole
subprocess, interpreter start-up included. The script prints each side's
median and quartiles over the rounds and the median of the per-round
ratios change / parent. It exits 1 if an exit code differs between the
sides or from round to round, else 0.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time


def run(checkout: str, call: list[str]) -> tuple[int, float]:
    """(exit code, wall seconds) of one call in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    env.pop("FATCOMP_OUT_DIR", None)  # the output file goes to the working directory
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "fatcomp.cli", *call], cwd=tmp, env=env, capture_output=True)
        return proc.returncode, time.perf_counter() - start


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--rounds", required=True, type=int)
    p.add_argument("call", nargs=argparse.REMAINDER, help="the CLI arguments, after --")
    args = p.parse_args()
    call = args.call[1:] if args.call[:1] == ["--"] else args.call
    codes, times = {"parent": set(), "change": set()}, {"parent": [], "change": []}
    for i in range(args.rounds):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            code, seconds = run(getattr(args, side), call)
            codes[side].add(code)
            times[side].append(seconds)
    print(f"fatcomp {' '.join(call)}: {args.rounds} rounds")
    for side in ("parent", "change"):
        q1, med, q3 = statistics.quantiles(times[side], n=4, method="inclusive")
        print(f"{side:7s} median {med:.3f} s [{q1:.3f}, {q3:.3f}], exit {sorted(codes[side])}")
    ratio = statistics.median(c / p for p, c in zip(times["parent"], times["change"]))
    print(f"ratio change / parent: {ratio:.3f}")
    return 0 if len(codes["parent"]) == 1 and codes["parent"] == codes["change"] else 1


if __name__ == "__main__":
    sys.exit(main())
