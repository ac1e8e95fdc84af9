"""Time named ``verify-all`` checks in two checkouts, in alternating rounds.

    python3 tools/check_times.py --parent DIR --change DIR \
        --checks scaling-covariance vertical-identities --seed 1 --rounds 20

DIR is a checkout (with ``src/``) of each commit. Each round runs one
subprocess per checkout, the side that goes first alternating from round
to round. The subprocess runs every named check once to warm up, then
``REPEATS`` more times, and reports the median ``CheckResult.elapsed`` of
those runs for each check, with the minor page faults (``ru_minflt`` of
``getrusage``) the process took across those runs, per run. The script
prints, per check, the median over rounds of each side's figures and the
median of the per-round time ratios change / parent. Elapsed is raw wall
time, not normalized for machine speed, so both sides should run on a
quiet machine. A minor fault maps a fresh page: it is time the check
spends in the kernel, which its arithmetic does not show.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

REPEATS = 5

_PROGRAM = """
import json, resource, statistics, sys
from fatcomp.checks import check_names, run_check
names, seed, repeats = sys.argv[1].split(","), int(sys.argv[2]), int(sys.argv[3])
indices = [check_names().index(name) for name in names]
times, faults = {name: [] for name in names}, dict.fromkeys(names, 0)
for rep in range(repeats + 1):
    for name, index in zip(names, indices):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        r = run_check(index, seed)
        if rep:
            faults[name] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            times[name].append(r.elapsed)
print(json.dumps({name: [statistics.median(ts), faults[name] / repeats] for name, ts in times.items()}))
"""


def run(checkout: str, checks: list[str], seed: int) -> dict[str, list[float]]:
    """[median elapsed seconds, minor page faults a run] of each named check in one fresh process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    cmd = [sys.executable, "-c", _PROGRAM, ",".join(checks), str(seed), str(REPEATS)]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--checks", required=True, nargs="+")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--rounds", required=True, type=int)
    args = p.parse_args()
    times = {"parent": [], "change": []}
    for i in range(args.rounds):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            times[side].append(run(getattr(args, side), args.checks, args.seed))
    print(f"{'check':24s} {'parent ms':>10s} {'change ms':>10s} {'ratio':>7s} {'parent flt':>10s} {'change flt':>10s}"
          f"  (medians over {args.rounds} rounds; flt: minor page faults a run)")
    for name in args.checks:
        (old, old_flt), (new, new_flt) = (zip(*(t[name] for t in times[side])) for side in ("parent", "change"))
        ratio = statistics.median(b / a for a, b in zip(old, new))
        print(f"{name:24s} {statistics.median(old) * 1e3:10.3f} {statistics.median(new) * 1e3:10.3f} {ratio:7.3f}"
              f" {statistics.median(old_flt):10.1f} {statistics.median(new_flt):10.1f}")


if __name__ == "__main__":
    main()
