"""Acceptance gate: one test per shipped guarantee, in contract order.

Each test is a single pass/fail line under ``pytest -v``. Tolerances and
time limits are part of the contract and are asserted, not just the
numeric results. Criteria that match a registry check one-to-one reuse
``fatcomp.checks.run_check`` so the gate exercises the exact code path
``fatcomp verify-all`` ships.
"""

import math
import os
import subprocess
import sys
import time

from fatcomp.checks import check_names, run_check
from fatcomp.cli import main
from fatcomp.models import blowup_time_kab, blowup_time_kc

SEED = 42


def by_name(name: str):
    return check_names().index(name)


def test_exact_anchor_blowup_times():
    t0 = time.perf_counter()
    assert abs(blowup_time_kab(0.0, 4.0).time - math.pi) < 1e-9
    assert abs(blowup_time_kab(0.0, 1.0).time - 2.0 * math.pi) < 1e-9
    for kappa in (1.0, 4.0, 9.0):
        got = blowup_time_kc(kappa).time
        assert abs(got - math.pi / math.sqrt(kappa)) < 1e-12, f"kc={kappa}: {got}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"anchor evaluation took {elapsed:.3f}s"


def test_scalar_blowup_agrees_with_jacobi_system():
    r = run_check(by_name("scalar-vs-jacobi"), SEED)
    assert r.passed, r.detail
    assert r.n_cases >= 50
    assert r.elapsed < 10.0, f"cross-oracle took {r.elapsed:.1f}s"


def test_blowup_upper_bound_holds_with_equality_only_when_degenerate():
    r = run_check(by_name("blowup-upper-bound"), SEED)
    assert r.passed, r.detail


def test_isotropic_system_blows_up_at_the_riemannian_time():
    r = run_check(by_name("isotropic-conjugate"), SEED)
    assert r.passed, r.detail
    assert r.tol <= 1e-8


def test_fibration_conjugate_times_d2_respect_both_bounds():
    r = run_check(by_name("qhf-conjugate-d2"), SEED)
    assert r.passed, r.detail
    assert r.elapsed < 60.0, f"d=2 sweep took {r.elapsed:.1f}s"


def test_fibration_conjugate_times_cost_the_same_at_every_d(tmp_path):
    # the blocks are built from v alone: 30 verified rows at d = 512
    t0 = time.perf_counter()
    code = main(["conjugate", "--d", "512", "--sweep", "0:3:30", "--verify", "--out", str(tmp_path / "c.csv")])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 1.0, f"30 rows at d = 512 took {elapsed:.2f}s"


def test_fibration_conjugate_times_d1_stay_below_half_circle():
    r = run_check(by_name("qhf-conjugate-d1"), SEED)
    assert r.passed, r.detail


def test_extremal_flow_conserves_energy_and_vertical_momenta():
    r = run_check(by_name("extremal-conservation"), SEED)
    assert r.passed, r.detail
    assert r.elapsed < 0.25, f"extremal-conservation took {r.elapsed:.3f}s"


def test_vertical_algebra_and_trace_inequality():
    r = run_check(by_name("vertical-identities"), SEED)
    assert r.passed, r.detail
    assert r.elapsed < 0.25, f"vertical-identities took {r.elapsed:.3f}s"


def test_curvature_block_traces_match_ricci_scalars():
    r = run_check(by_name("ricci-traces"), SEED)
    assert r.passed, r.detail


def test_radial_sublaplacian_stays_below_model_sum():
    r = run_check(by_name("sublaplacian-margin"), SEED)
    assert r.passed, r.detail


def test_model_functions_obey_scaling_covariance():
    r = run_check(by_name("scaling-covariance"), SEED)
    assert r.passed, r.detail


def test_verify_all_is_fast_deterministic_and_fault_sensitive(tmp_path):
    def cli(extra, env=None):
        cmd = [
            sys.executable, "-c",
            "import sys; from fatcomp.cli import main; sys.exit(main(sys.argv[1:]))",
        ] + extra
        return subprocess.run(
            cmd, capture_output=True, text=True, timeout=600,
            env={**os.environ, **(env or {})},
        )

    out1, out2, out3 = (str(tmp_path / f"run{i}.csv") for i in (1, 2, 3))
    t0 = time.perf_counter()
    p1 = cli(["verify-all", "--seed", "7", "--jobs", "2", "--out", out1])
    elapsed = time.perf_counter() - t0
    assert p1.returncode == 0, p1.stdout + p1.stderr
    assert elapsed < 120.0, f"verify-all took {elapsed:.1f}s"

    # same seed, different worker count: identical bytes
    p2 = cli(["verify-all", "--seed", "7", "--jobs", "1", "--out", out2])
    assert p2.returncode == 0, p2.stdout + p2.stderr
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read(), "verify-all output is not deterministic"

    # an injected sign error in the curvature assembly must be caught
    p3 = cli(
        ["verify-all", "--seed", "7", "--jobs", "2", "--out", out3],
        env={"FATCOMP_FAULT": "curvature-sign"},
    )
    assert p3.returncode == 1, f"fault injection not detected: {p3.stdout}"
