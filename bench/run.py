"""Wall-clock benchmark of fatcomp, end to end and layer by layer.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the repository root. The program is imported from ``src/`` as the
tier-1 tests import it; nothing is installed and no BLAS thread count is
pinned. Every workload (see bench/README.md) runs its rows in this process
one after another. Row wall times are divided by a speed factor sampled
around them (bench/speed.py).

A run repeats whole rounds until ``--seconds`` have passed, checks every
output, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Run output and trace spans go to ``bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
WORKLOADS = ("registry", "conjugate-sweep", "blowup-verify", "diameter-map")
SETUP_PROBES = 7
# reference calls timed before, between and after the set-up probes
SETUP_REF_CALLS = 100


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _quantiles(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile (interpolated, never beyond the data)."""
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[-1]


# ----------------------------------------------------------------------
# set-up time
# ----------------------------------------------------------------------

def probe(args) -> None:
    """What a run does before its first timed operation, then 'ready'."""
    import workloads

    workloads.ROW_WORKLOADS[args.workload].make_rows(args.seed)
    print("ready", flush=True)


def setup_seconds(args) -> float:
    """Median over fresh interpreters of start -> imports -> inputs built, at nominal speed.

    The median is divided by the mean speed factor of reference calls timed
    in this process before, between and after the probes. A probe lasts
    several of the machine's speed phases, so a reference timed beside one
    probe says little about it; the mean over all of them follows how much
    of the time the machine spent in its fast phase.
    """
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--probe", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    times, refs = [], []
    for _ in range(SETUP_PROBES):
        refs += speed.reference_times(SETUP_REF_CALLS)
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    refs += speed.reference_times(SETUP_REF_CALLS)
    factor = statistics.mean(refs) / speed.REF_NOMINAL_S
    print(f"set-up: raw median {statistics.median(times):.6g} s over {SETUP_PROBES} probes, speed factor {factor:.3f}")
    return statistics.median(times) / factor


# ----------------------------------------------------------------------
# in-process row workloads
# ----------------------------------------------------------------------

class Tally:
    """Outcomes of whole rounds, each held against the first round's."""

    def __init__(self, wl, rows) -> None:
        self.wl, self.rows = wl, rows
        self.first: list | None = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def add(self, outcomes: list[tuple[bool, object]], label: str) -> None:
        keyed = [(ok, out if ok else f"{type(out).__name__}: {out}") for ok, out in outcomes]
        self.attempted += len(outcomes)
        self.failed += sum(not ok for ok, _ in outcomes)
        if self.first is None:
            self.first = keyed
            for row, (ok, out) in zip(self.rows, outcomes):
                if not ok and not self.wl.named_fault(row, out):
                    self.problems.append(f"row {row}: {type(out).__name__}: {out}")
        elif keyed != self.first:
            self.problems.append(f"{label} outputs differ from the first round's")

    def check(self) -> None:
        self.problems += self.wl.check(self.rows, [out if ok else None for ok, out in self.first])


def serial_pass(
    run_row, rows, times: list[float], clock: speed.Clock | None = None, raw: list[float] | None = None
) -> list[tuple[bool, object]]:
    """Run rows one after another; append each row's time to times.

    With a clock, each row's wall time is speed-normalized by the reference
    samples taken before and after it, and its raw wall time goes to raw.
    """
    outcomes = []
    before = speed.sample() if clock else None
    for row in rows:
        t0 = time.perf_counter()
        try:
            outcomes.append((True, run_row(row)))
        except Exception as exc:  # counted as a failed operation
            outcomes.append((False, exc))
        wall = time.perf_counter() - t0
        if clock:
            after = speed.sample()
            times.append(clock.scale(wall, before, after))
            raw.append(wall)
            before = after
        else:
            times.append(wall)
    return outcomes


def run_rows(args, wl, clock: speed.Clock) -> tuple[dict, Tally]:
    rows = wl.make_rows(args.seed)
    tally = Tally(wl, rows)
    wl.run_row(rows[0])  # lazy imports and first-call set-up finish before timing
    if args.trace:
        return trace_rows(args, wl, rows, tally, clock), tally

    pass_times, raw_walls, row_times = [], [], []
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start < args.seconds:
        times: list[float] = []
        raw: list[float] = []
        tally.add(serial_pass(wl.run_row, rows, times, clock, raw), "serial")
        pass_times.append(sum(times))
        raw_walls.append(sum(raw))
        row_times.append(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.check()
    # each row at its median over the passes
    p50, p90 = _quantiles([statistics.median(t) for t in zip(*row_times)])
    print(f"raw wall median of a pass: {statistics.median(raw_walls):.6g} s over {len(raw_walls)} passes")
    return {
        "peak_rss_mb": (rss_mb, "MB"),
        "jobs1_s": (statistics.median(pass_times), "s"),
        "rows_per_s": (len(rows) / statistics.median(pass_times), "rows/s"),
        "row_ms_p50": (p50 * 1e3, "ms"),
        "row_ms_p90": (p90 * 1e3, "ms"),
    }, tally


def trace_rows(args, wl, rows, tally, clock: speed.Clock) -> dict:
    """Alternate untraced and traced passes; per-layer metrics of the traced ones."""
    import layertrace

    tracer = layertrace.Tracer()
    row_fn = tracer.wrap("bench.row", wl.run_row)
    plain, traced, traced_raw = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        times: list[float] = []
        tally.add(serial_pass(wl.run_row, rows, times, clock, []), "untraced")
        plain.append(sum(times))
        outcomes, times, raw = [], [], []
        tracer.install()
        try:
            for i, row in enumerate(rows):
                tracer.row = i
                outcomes += serial_pass(row_fn, [row], times, clock, raw)
        finally:
            tracer.uninstall()
        traced.append(sum(times))
        traced_raw.append(sum(raw))
        tally.add(outcomes, "traced")
    tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.jsonl")
    tally.check()
    overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    import workloads

    return layertrace.layer_metrics(
        tracer.spans, len(traced), statistics.median(traced_raw), overhead, workloads.REGISTRY_CHECKS
    )


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fatcomp" / "__init__.py").is_file():
        print(f"error: the fatcomp sources are not at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        probe(args)
        return 0
    clock = speed.Clock()
    setup_s = None if args.trace else setup_seconds(args)
    OUT.mkdir(exist_ok=True)
    import workloads

    metrics, tally = run_rows(args, workloads.ROW_WORKLOADS[args.workload], clock)
    attempted, failed, problems = tally.attempted, tally.failed, tally.problems
    if not args.trace:
        metrics = {"setup_s": (setup_s, "s"), **metrics}
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:14.6g} {unit}")
    f = clock.factors
    print(f"speed factor over {len(f)} rows: {min(f):.3f} .. {statistics.median(f):.3f} .. {max(f):.3f} (1.0 = nominal)")
    print(f"{args.workload}: attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
