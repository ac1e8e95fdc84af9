"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 bench/steady.py [--workloads W ...]

Run from the repository root. Runs the command of BENCHMARK.json in two sets
of ten runs per workload, each run with its own seed (set k, run i uses seed
1 + 10 k + i). For each end-to-end metric it prints, one row per workload,
the spread of both sets (distance between the first and third quartile over
the median) and the shift of the second set's median against the first, in
the metric's worse direction, next to the metric's bound. A row is OK when
every spread and every shift is within the bound, every run is correct, and
the share of failed operations is the same in every run. Raw results go to
bench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10


def run_once(bench: dict, workload: str, seed: int) -> dict:
    t0 = time.perf_counter()
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_wall_s"] = time.perf_counter() - t0
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="*")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]

    results: dict[str, list[list[dict]]] = {}
    for workload in names:
        results[workload] = []
        for k in range(SETS):
            runs = []
            for i in range(RUNS):
                runs.append(run_once(bench, workload, 1 + k * RUNS + i))
                print(f"{workload} set {k + 1} run {i + 1}: {json.dumps(runs[-1]['metrics'])}", file=sys.stderr, flush=True)
            results[workload].append(runs)
    out = ROOT / "bench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1))

    print("cells: spread of each set, then the shift of the second set's median; all in % of the median")
    print(f"{'workload':<16} " + " ".join(f"{m['name'] + ' (bound ' + format(100 * m['bound'], 'g') + ')':>34}" for m in metrics) + "  verdict")
    all_ok = True
    for workload, sets in results.items():
        ok = all(r["correct"] for runs in sets for r in runs)
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs}
        ok = ok and len(shares) == 1
        cells = []
        for m in metrics:
            values = [[r["metrics"][m["name"]]["value"] for r in runs] for runs in sets]
            spreads = [spread(v) for v in values]
            medians = [statistics.median(v) for v in values]
            worse = (medians[1] - medians[0]) / medians[0] * (1 if m["better"] == "lower" else -1)
            ok = ok and all(s <= m["bound"] for s in spreads) and worse <= m["bound"]
            cells.append(" ".join(f"{100 * s:.1f}" for s in spreads) + f" {100 * worse:+.1f}")
        all_ok = all_ok and ok
        share = ",".join(str(s) for s in sorted(shares))
        print(f"{workload:<16} " + " ".join(f"{c:>34}" for c in cells) + f"  {'OK' if ok else 'NOT STEADY'} (failed share {share})")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
