"""Compare the ``verify-all`` rows of two checkouts, seed by seed.

    python3 tools/compare_verify_all.py --parent DIR --change DIR --seeds 1-20

DIR is a checkout (with ``src/``) of each commit. For every seed,
``fatcomp verify-all --seed S`` runs at ``--jobs 1`` and ``--jobs 2`` in
each checkout, with its CSV written to a temporary directory that is
removed afterwards. The script prints every (seed, check, field) whose
value differs between the parent's and the change's ``--jobs 1`` rows, then
how many rows passed and whether the two ``--jobs`` values gave the same
bytes on each side. It exits 1 if a side's ``--jobs 1`` and ``--jobs 2``
files differ, else 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import subprocess
import sys
import tempfile


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def verify_all(checkout: str, side: str, seed: int, jobs: int, tmp: str) -> str:
    """The CSV bytes of one ``verify-all`` run, as text."""
    # one file per run: a run that dies before writing must not leave the
    # reader another run's rows
    out = os.path.join(tmp, f"{side}-verify-all-seed{seed}-jobs{jobs}.csv")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    cmd = [sys.executable, "-m", "fatcomp.cli", "verify-all", "--seed", str(seed), "--jobs", str(jobs), "--out", out]
    # exit 1 with the file written is a failed check, a row like any other
    proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1) or not os.path.exists(out):
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: {proc.stderr.strip()}")
    with open(out) as f:
        return f.read()


def rows(text: str) -> dict[str, dict[str, str]]:
    """Check name -> {field: value} of a verify-all CSV."""
    body = "".join(line for line in io.StringIO(text) if not line.startswith("#"))
    return {row["name"]: row for row in csv.DictReader(io.StringIO(body))}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--seeds", required=True, type=seed_range, help="LO-HI, inclusive")
    args = p.parse_args()
    moved = 0
    passed = {"parent": 0, "change": 0}
    jobs_differ = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            text = {}
            for side in ("parent", "change"):
                one, two = (verify_all(getattr(args, side), side, seed, jobs, tmp) for jobs in (1, 2))
                if one != two:
                    jobs_differ[side].append(seed)
                text[side] = one
            old, new = rows(text["parent"]), rows(text["change"])
            for side, side_rows in (("parent", old), ("change", new)):
                passed[side] += sum(row["passed"] == "true" for row in side_rows.values())
            for name in sorted(old.keys() | new.keys()):
                a, b = old.get(name, {}), new.get(name, {})
                for field in [f for f in (a or b) if f != "name"]:
                    if a.get(field) != b.get(field):
                        moved += 1
                        print(f"seed {seed}  {name}  {field}: {a.get(field)!r} -> {b.get(field)!r}")
    print(f"{moved} fields differ over {len(args.seeds)} seeds")
    for side, seeds in jobs_differ.items():
        verdict = f"differ on seeds {seeds}" if seeds else "agree on every seed"
        print(f"{side}: {passed[side]} rows passed; --jobs 1 and --jobs 2 {verdict}")
    return 1 if any(jobs_differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
