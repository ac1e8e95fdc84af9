"""Record a before/after benchmark comparison as a ``BENCH_*.json`` file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W [W ...] \
        --seeds 1 2 3 --seconds 12 --out BENCH_N.json

DIR is a checkout (with ``bench/`` and ``src/``) of each commit. For every
workload and seed, ``bench/run.py --trace 0`` runs once in each checkout,
the side that goes first alternating from seed to seed, and the last line
of each run's stdout (its JSON result) is kept. The file holds those lines
and the median and quartiles of every end-to-end metric on each side, both
keyed by workload, and the machine with its package versions (null for a
package that is not installed).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys


def run(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def machine() -> dict:
    with open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), platform.processor())
    return {"cpu": cpu, "cores": os.cpu_count(), "os": platform.platform(), "python": platform.python_version(),
            **{package: version(package) for package in ("numpy", "scipy", "mpmath")}}


def summarize(rs: list) -> dict:
    """Median and quartiles of every end-to-end metric over one side's runs."""
    names = rs[0]["result"]["metrics"]
    summary = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in rs]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        summary[name] = {"median": statistics.median(values), "q1": q1, "q3": q3, "unit": names[name]["unit"]}
    return summary


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True, nargs="+")
    p.add_argument("--seeds", required=True, type=int, nargs="+")
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    runs = {}
    for workload in args.workload:
        runs[workload] = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                result = run(getattr(args, side), workload, seed, args.seconds)
                runs[workload][side].append({"seed": seed, "result": result})
    summary = {workload: {side: summarize(rs) for side, rs in sides.items()} for workload, sides in runs.items()}
    record = {"command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds} --trace 0",
              "workloads": args.workload, "seeds": args.seeds, "machine": machine(), "summary": summary, "runs": runs}
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
