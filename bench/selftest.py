"""Self-test of the benchmark's output checks: each must catch a known-bad result.

    python3 bench/selftest.py

Run from the repository root; takes about a minute and a half, most of it
the ``fatcomp verify-all`` command line at --jobs 1 and 2 (its checks pass
and its output files are byte-identical) and once more under the injected
fault (it exits 1). Prints one line per case and exits 1 if any check lets a
bad result through, or rejects a good one.
"""

from __future__ import annotations

import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from fatcomp import checks  # noqa: E402

import run  # noqa: E402
import workloads as w  # noqa: E402

SEED = 1
FAULT = {"FATCOMP_FAULT": "curvature-sign"}
_CHECK_LINE = re.compile(r"^(\S+)\s+(PASS|FAIL)\s")


def run_verify_all(jobs: int, out: Path, env: dict | None = None) -> subprocess.CompletedProcess:
    """`fatcomp verify-all --seed SEED --jobs JOBS --out OUT` as a subprocess."""
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = str(SRC) + (os.pathsep + full_env["PYTHONPATH"] if full_env.get("PYTHONPATH") else "")
    full_env.update(env or {})
    command = [sys.executable, "-m", "fatcomp.cli", "verify-all", "--seed", str(SEED), "--jobs", str(jobs), "--out", str(out)]
    return subprocess.run(command, capture_output=True, text=True, env=full_env, cwd=ROOT, timeout=170)


def verify_all_check(runs: list[tuple[subprocess.CompletedProcess, Path]]) -> list[str]:
    """Every run exits 0 with every check PASS; all output files are identical."""
    problems = []
    names = checks.check_names()
    contents = []
    for proc, out in runs:
        if proc.returncode != 0:
            problems.append(f"{out.name}: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        lines = [m.groups() for m in map(_CHECK_LINE.match, proc.stdout.splitlines()) if m]
        if [n for n, _ in lines] != names or any(v != "PASS" for _, v in lines):
            problems.append(f"{out.name}: expected {len(names)}/{len(names)} PASS, got {lines}")
        if f"{len(names)}/{len(names)} checks passed" not in proc.stdout:
            problems.append(f"{out.name}: no '{len(names)}/{len(names)} checks passed' line")
        contents.append(out.read_bytes() if out.is_file() else None)
    if any(c is None for c in contents):
        problems.append("a verify-all run wrote no output file")
    elif any(c != contents[0] for c in contents[1:]):
        problems.append("verify-all output files differ between runs (--jobs 1 vs --jobs 2)")
    else:
        lines = [line for line in contents[0].decode().splitlines() if not line.startswith("#")]
        rows = list(csv.DictReader(lines))
        if [r["name"] for r in rows] != names or any(r["passed"] != "true" for r in rows):
            problems.append(f"verify-all output file does not hold {len(names)} passed rows")
    return problems


def _problems(wl, rows, outcomes) -> list[str]:
    tally = run.Tally(wl, rows)
    tally.add(outcomes, "self-test")
    tally.check()
    return tally.problems


def _perturb(outcomes, index: int, field: int, factor: float):
    out = list(outcomes)
    ok, values = out[index]
    values = list(values)
    values[field] *= factor
    out[index] = (ok, tuple(values))
    return out


def cases():
    """Yield (name, problems found, whether problems are expected)."""
    conj = w.ROW_WORKLOADS["conjugate-sweep"]
    rows = conj.make_rows(SEED)[:: w.CONJ_PER_D]  # one row for each d = 1, 2, 3
    good = run.serial_pass(conj.run_row, rows, [])
    yield "conjugate-sweep: good rows", _problems(conj, rows, good), False
    yield "conjugate-sweep: t* off by 1e-7 relative", _problems(conj, rows, _perturb(good, 1, 0, 1 + 1e-7)), True
    os.environ.update(FAULT)
    try:
        faulted = run.serial_pass(conj.run_row, rows, [])
    finally:
        del os.environ["FATCOMP_FAULT"]
    d1_failed = not faulted[0][0]
    yield (
        f"conjugate-sweep under {FAULT['FATCOMP_FAULT']} (d = 1 row failed: {d1_failed})",
        _problems(conj, rows, faulted) if d1_failed else [],
        True,
    )

    blow = w.ROW_WORKLOADS["blowup-verify"]
    rows = blow.make_rows(SEED)
    rows = rows[:6] + rows[-w.BLOWUP_KA0:]
    good = run.serial_pass(blow.run_row, rows, [])
    finite = next(i for i, (_, out) in enumerate(good) if out[1] and rows[i][0] != 0.0)
    infinite = next(i for i, (_, out) in enumerate(good) if not out[1])
    yield "blowup-verify: good rows", _problems(blow, rows, good), False
    yield "blowup-verify: tbar off by 1e-8 relative", _problems(blow, rows, _perturb(good, finite, 0, 1 + 1e-8)), True
    yield "blowup-verify: wedge time off by 1e-7 relative", _problems(blow, rows, _perturb(good, finite, 2, 1 + 1e-7)), True
    ka0 = len(rows) - 1
    yield "blowup-verify: kappa_a = 0 tbar off by 1e-11", _problems(blow, rows, _perturb(good, ka0, 0, 1 + 1e-11)), True
    bad = list(good)
    bad[infinite] = (True, good[infinite][1][:3] + (False,) + good[infinite][1][4:])
    yield "blowup-verify: infinite row with a sign change", _problems(blow, rows, bad), True

    diam = w.ROW_WORKLOADS["diameter-map"]
    rows = diam.make_rows(SEED)
    rows = rows[:6] + rows[-len(w.DIAM_FAULT_ROWS):]
    good = run.serial_pass(diam.run_row, rows, [])
    yield "diameter-map: good rows, kappa_a > 0 rows failing as named", _problems(diam, rows, good), False
    yield "diameter-map: tbar off by 1e-8 relative", _problems(diam, rows, _perturb(good, 2, 2, 1 + 1e-8)), True
    above_pi = list(good)
    above_pi[3] = (True, good[3][1][:2] + (math.pi * 1.001, True))
    yield "diameter-map: tbar above pi", _problems(diam, rows, above_pi), True
    other = list(good)
    other[0] = (False, FloatingPointError("chi_at_pi: unexpected imaginary part 1e-3"))
    yield "diameter-map: the named error on a kappa_a <= 0 row", _problems(diam, rows, other), True

    reg = w.ROW_WORKLOADS["registry"]
    rows = reg.make_rows(SEED)[:2]  # model-blowup-times, blowup-upper-bound
    good = run.serial_pass(reg.run_row, rows, [])
    yield "registry: good rows", _problems(reg, rows, good), False
    failed_check = list(good)
    failed_check[1] = (True, good[1][1][:1] + (False,) + good[1][1][2:])
    yield "registry: a check that did not pass", _problems(reg, rows, failed_check), True

    runs = []
    for jobs in (1, 2):
        out = run.OUT / f"selftest-verify-all-seed{SEED}-jobs{jobs}.csv"
        runs.append((run_verify_all(jobs, out), out))
    yield "verify-all: --jobs 1 and --jobs 2, 11/11 PASS and identical files", verify_all_check(runs), False
    out = run.OUT / f"selftest-verify-all-seed{SEED}-fault.csv"
    faulted = run_verify_all(1, out, env=FAULT)
    yield (
        f"verify-all under {FAULT['FATCOMP_FAULT']} (exit code {faulted.returncode})",
        verify_all_check([(faulted, out)]) if faulted.returncode == 1 else [],
        True,
    )


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    missed = 0
    for name, problems, expected in cases():
        ok = bool(problems) == expected
        missed += not ok
        print(f"{'ok    ' if ok else 'MISSED'} {name}: {len(problems)} problem(s)" + (f"; first: {problems[0]}" if problems else ""))
    print(f"{missed} case(s) missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
