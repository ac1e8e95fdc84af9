"""Verification suite shared by the CLI and the acceptance tests.

Each check draws its randomness from a child seed derived from (seed,
check index), so results are identical whether checks run serially or in
a process pool, and identical across runs with the same seed. Elapsed
times are measured for reporting but are never part of the pass/fail
decision or of the serialized output.

Each check's stream order is fixed, and is part of its output. Each check
draws it in as few generator calls as the stream allows, with the bits of
one call per number: see ``_uniforms``; one ``standard_normal(k1 + k2)``
gives those of ``normal(size=k1)`` then ``normal(size=k2)``.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .curvature import curvature_blocks, qhf_curvature_inputs, ricci_scalars, vee
from .hopf import _qhf_system, conjugate_time, initial_state, integrate_extremal, sublaplacian_along
from .models import (
    DomainError,
    _s_kab,
    blowup_time_kab,
    blowup_time_kc,
    eval_s_kc,
    finiteness_predicate,
    upper_bound_kab,
)
from .riccati import (
    finite_blowup_constant,
    first_blowup,
    integrate_jacobi,
    wedge_det_sign_changes,
    wedge_first_zero,
)
from .structure import trace_inequality_check, typeI_pair

__all__ = ["CheckResult", "CHECKS", "check_names", "run_check", "run_all", "map_tasks"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check.

    ``worst`` is the most adverse quantity observed: a maximal error for
    agreement checks, a minimal margin for one-sided bounds; ``detail``
    says which. ``elapsed`` is wall time in seconds, excluded from
    serialization because it is not deterministic.
    """

    name: str
    passed: bool
    worst: float
    tol: float
    n_cases: int
    detail: str
    elapsed: float = 0.0


def _unit(x: np.ndarray) -> np.ndarray:
    # one 1-D row at a time, as each draw of its own was: a vectorised norm
    # need not give the same bits
    return x / np.linalg.norm(x)


def _uniforms(rng: np.random.Generator, batch: int) -> Callable[[float, float], float]:
    """uniform(low, high), one draw per call, with the bits of the scalar
    ``rng.uniform(low, high)`` calls it stands for; the doubles come from
    ``rng.random(batch)``, one generator call per ``batch`` draws. The
    generator may then stand up to batch - 1 doubles past the last draw
    read, so a check that leaves a batch unfilled must draw nothing after it.
    """

    def doubles():
        while True:
            yield from rng.random(batch).tolist()

    it = doubles()
    return lambda low, high: low + (high - low) * next(it)


def _sym(X: np.ndarray) -> np.ndarray:
    # halved in place: one temporary fewer on a stack of matrices
    S = X + np.swapaxes(X, -1, -2)
    S *= 0.5
    return S


# ----------------------------------------------------------------------
# scalar model checks
# ----------------------------------------------------------------------

def check_model_blowup_times(rng: np.random.Generator) -> CheckResult:
    """Closed-form blow-up times of both scalar models."""
    errs = [
        abs(blowup_time_kab(0.0, 4.0).time - math.pi),
        abs(blowup_time_kab(0.0, 1.0).time - 2.0 * math.pi),
    ]
    ok = max(errs) < 1e-9
    kc_errs = [
        abs(blowup_time_kc(k).time - math.pi / math.sqrt(k)) for k in (1.0, 4.0, 9.0)
    ]
    ok = ok and max(kc_errs) < 1e-12
    worst = max(errs + kc_errs)
    return CheckResult(
        name="model-blowup-times",
        passed=bool(ok),
        worst=worst,
        tol=1e-9,
        n_cases=5,
        detail="worst abs error; degenerate pairs at 1e-9, single-frequency at 1e-12",
    )


def check_scalar_vs_jacobi(rng: np.random.Generator) -> CheckResult:
    """Two-frequency blow-up against the 2x2 Jacobi system, both regimes.

    Samples with a finite model blow-up must agree to 1e-9 with the first
    det N zero of the 2x2 Jacobi system, located by the eigenphases of its
    compound-matrix sweep, and to 1e-10 with ``first_blowup`` on the same
    system, the direct route.
    Samples without a model blow-up must show no zero of det N up to
    t = 1000, and the largest eigenphase must stay more than 1e-4 from pi
    over t > 1. Each sample is also conjugated by a random orthogonal
    matrix and fed to the Jordan-form classifier, which must reproduce
    the sign predicate away from the degenerate boundaries.
    """
    a_I, b_I = typeI_pair()
    S = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    uniform = _uniforms(rng, 256)
    star: list[tuple[float, float]] = []
    nonstar: list[tuple[float, float]] = []
    while len(star) < 50 or len(nonstar) < 20:
        ka, kb = uniform(-5.0, 5.0), uniform(-5.0, 5.0)
        if finiteness_predicate(ka, kb):
            if len(star) < 50:
                star.append((ka, kb))
        elif len(nonstar) < 20:
            nonstar.append((ka, kb))

    worst_err = 0.0
    worst_direct = 0.0
    for ka, kb in star:
        tbar = blowup_time_kab(ka, kb).time
        Q = np.diag([ka, kb])
        t_max = 1.05 * tbar + 0.1
        hit = wedge_first_zero(a_I, b_I, Q, t_max)
        worst_err = max(worst_err, abs(hit.time - tbar))
        direct = first_blowup(integrate_jacobi(a_I, b_I, Q, t_max))
        worst_direct = max(worst_direct, abs(direct.time - tbar))

    near = math.inf
    zeros = 0
    for ka, kb in nonstar:
        count, closest = wedge_det_sign_changes(a_I, b_I, np.diag([ka, kb]), 1000.0)
        zeros += count
        near = min(near, closest)

    jordan_bad = jordan_n = 0
    for ka, kb in star + nonstar:
        disc = kb * kb + 4.0 * ka
        if abs(disc) < 1e-3 or abs(ka) < 1e-3:
            continue  # numerically undecidable boundary of the classifier
        Q = np.diag([ka, kb])
        got = finite_blowup_constant(S @ a_I @ S.T, S @ b_I @ S.T, S @ Q @ S.T)
        jordan_n += 1
        if got != finiteness_predicate(ka, kb):
            jordan_bad += 1

    ok = (
        worst_err <= 1e-9
        and worst_direct <= 1e-10
        and zeros == 0
        and near > 1e-4
        and jordan_bad == 0
    )
    return CheckResult(
        name="scalar-vs-jacobi",
        passed=bool(ok),
        worst=worst_err,
        tol=1e-9,
        n_cases=len(star) + len(nonstar),
        detail=(
            f"worst |tbar - detected| over {len(star)} finite samples; direct "
            f"route {worst_direct:.3e} (tol 1e-10); {len(nonstar)} infinite "
            f"samples: {zeros} zeros, closest phase to pi {near:.3e}; "
            f"jordan route {jordan_n - jordan_bad}/{jordan_n}"
        ),
    )


def check_blowup_upper_bound(rng: np.random.Generator) -> CheckResult:
    """Upper bound on the two-frequency blow-up, with the equality case.

    Random finite samples must sit strictly below the bound (by more than
    1e-9, since their kappa_a is never zero), and kappa_a = 0 rows must
    attain it to 1e-9.
    """
    uniform = _uniforms(rng, 256)
    samples: list[tuple[float, float]] = []
    while len(samples) < 50:
        ka, kb = uniform(-5.0, 5.0), uniform(-5.0, 5.0)
        if finiteness_predicate(ka, kb):
            samples.append((ka, kb))
    worst_gap = math.inf
    violations = 0
    for ka, kb in samples:
        tbar = blowup_time_kab(ka, kb).time
        bound = upper_bound_kab(ka, kb)
        gap = bound - tbar
        worst_gap = min(worst_gap, gap)
        if gap < 1e-9:
            violations += 1
    eq_err = 0.0
    for kb in (0.5, 1.0, 4.0, 9.0):
        eq_err = max(
            eq_err, abs(blowup_time_kab(0.0, kb).time - upper_bound_kab(0.0, kb))
        )
    ok = violations == 0 and eq_err < 1e-9
    return CheckResult(
        name="blowup-upper-bound",
        passed=bool(ok),
        worst=worst_gap,
        tol=1e-9,
        n_cases=len(samples) + 4,
        detail=(
            f"min (bound - tbar) over {len(samples)} finite samples, expected "
            f"> 1e-9; equality rows err {eq_err:.3e}"
        ),
    )


def check_isotropic_conjugate(rng: np.random.Generator) -> CheckResult:
    """Constant isotropic potential: conjugate time pi/sqrt(kappa)."""
    worst = 0.0
    for kappa in (0.25, 1.0, 4.0):
        expected = math.pi / math.sqrt(kappa)
        sol = integrate_jacobi(np.zeros((3, 3)), np.eye(3), kappa * np.eye(3), 1.1 * expected)
        hit = first_blowup(sol)
        worst = max(worst, abs(hit.time - expected))
    return CheckResult(
        name="isotropic-conjugate",
        passed=bool(worst < 1e-8),
        worst=worst,
        tol=1e-8,
        n_cases=3,
        detail="worst |detected - pi/sqrt(kappa)| for kappa in {0.25, 1, 4}",
    )


# ----------------------------------------------------------------------
# quaternionic Hopf fibration checks
# ----------------------------------------------------------------------

def check_qhf_conjugate(d: int, rng: np.random.Generator) -> CheckResult:
    """Conjugate times at |v| = 0 and 29 seeded norms, one in each 29th of
    (0, 3], against the model bounds and the full-system scan. For d >= 2 the
    c block proves t* = bound_kc: |margin_kc| <= 1e-10 and margin_kab >=
    -1e-6. For d = 1, with an empty c block: margin_kab and pi - t* >= -1e-6."""
    results, gap = [], 0.0
    norms = np.concatenate(([0.0], 3.0 * (np.arange(29) + rng.uniform(size=29)) / 29))
    for nv, x in zip(norms, rng.standard_normal((30, 3))):
        v = nv * _unit(x)
        res = conjugate_time(d, v)
        t_max = 1.1 * min(res.bound_kab.time, res.bound_kc or math.inf)
        gap = max(gap, abs(res.t_star - first_blowup(integrate_jacobi(*_qhf_system(d, v), t_max)).time))
        results.append(res)
    pi_err, margin_kab = abs(results[0].t_star - math.pi), min(r.margin_kab for r in results)
    if d >= 2:
        worst, tol = max(abs(r.margin_kc) for r in results), 1e-10
        ok = worst <= tol and margin_kab >= -1e-6
        margin = (f"max |kappa_c bound margin| over |v| on [0, 3]; "
                  f"min kappa_ab bound margin {margin_kab:.3e} (tol 1e-6)")
    else:
        worst, tol = min(min(r.margins) for r in results), 1e-6
        ok, margin = worst >= -tol, "min margin over |v| on [0, 3] (pi bound and two-frequency bound)"
    return CheckResult(
        name=f"qhf-conjugate-d{d}",
        passed=bool(ok and pi_err < 1e-6 and gap <= 1e-10),
        worst=worst,
        tol=tol,
        n_cases=30,
        detail=f"{margin}; v=0 conjugate time off pi by {pi_err:.3e}; split blocks vs full-system scan {gap:.3e}",
    )


def check_extremal_conservation(rng: np.random.Generator) -> CheckResult:
    """First integrals of the extremal flow over a full period."""
    worst = 0.0
    for d in (1, 2):
        n = 4 * (d + 1)
        for _ in range(5):
            nv = rng.uniform(0.0, 2.0)
            z = rng.standard_normal(3 + 2 * n)
            v = nv * _unit(z[:3])
            st = initial_state(d, v, q=_unit(z[3:3 + n]), seed_direction=z[3 + n:])
            g = integrate_extremal(st, 2.0 * math.pi)
            worst = max(worst, g.h_drift, g.v_drift, g.norm_drift, g.gauge_drift)
    return CheckResult(
        name="extremal-conservation",
        passed=bool(worst < 1e-8),
        worst=worst,
        tol=1e-8,
        n_cases=10,
        detail="max drift of H, vertical momenta, |q|, <p,q> over [0, 2pi]",
    )


def check_vertical_identities(rng: np.random.Generator) -> CheckResult:
    """Algebra of the vertical skew matrix, and the trace inequality.

    Both run on stacks drawn in the order of one draw per case; every dot
    product is a stacked matmul, so each residual equals its 2-D value bit
    for bit."""
    v = rng.uniform(-2.0, 2.0, size=(1000, 3))
    V = vee(v)
    s = (v[:, None, :] @ v[:, :, None])[:, 0, 0]
    worst = max(
        float(np.abs(V @ V @ V + s[:, None, None] * V).max()),
        float(np.abs(v[:, :, None] * v[:, None, :] - (V @ V + s[:, None, None] * np.eye(3))).max()),
        float(np.abs(V @ v[:, :, None]).max()),
    )
    alg_ok = worst < 1e-12

    stacks = (_sym(rng.standard_normal((3334, 2, m, m))).transpose(1, 0, 2, 3) for m in (2, 3, 5))
    slack, ok = (np.concatenate(z) for z in zip(*(trace_inequality_check(X, Y) for X, Y in stacks)))
    return CheckResult(
        name="vertical-identities",
        passed=bool(alg_ok and ok.all()),
        worst=worst,
        tol=1e-12,
        n_cases=1000 + ok.size,
        detail=(
            f"max identity residual over 1000 draws; trace inequality "
            f"{np.count_nonzero(ok)}/{ok.size}, min slack {slack.min():.3e}"
        ),
    )


def check_ricci_traces(rng: np.random.Generator) -> CheckResult:
    """The curvature R0 that every Hopf route computes with, on 9 seeded v, d in {1, 2, 3}.

    Its block traces must match the closed-form scalars of ``ricci_scalars`` to
    1e-10 relative (``worst``), and R0 must commute with the rotation generator
    W = ``rotation_generator``: |[W, R0]| <= 1e-14 max(1, max|W|) max(1, max|R0|),
    reported in ``detail`` (the rounding of W R0 grows with max|W| max|R0|). That
    commutator is what makes R(t) = exp(tW) R0 exp(tW)^T equal R0 at every t, so
    the check reads R0 and turns it by no ``assemble``: a rotation moves no trace.
    """
    # three draws a case: v
    uniform = _uniforms(rng, 27)
    worst = comm = 0.0
    cases = 0
    for d in (1, 2, 3):
        for _ in range(3):
            v = np.array([uniform(-1.5, 1.5) for _ in range(3)])
            inputs = qhf_curvature_inputs(d, v)
            blocks = curvature_blocks(v, inputs)
            R0, dims = blocks.R0, blocks.dims
            for expected, sl in zip(ricci_scalars(v, inputs.rho_a, d), (dims.sl_a, dims.sl_b, dims.sl_c)):
                worst = max(worst, abs(float(R0[sl, sl].trace()) - expected) / max(1.0, abs(expected)))
            W = blocks.rotation_generator
            scale = max(1.0, float(np.abs(W).max())) * max(1.0, float(np.abs(R0).max()))
            comm = max(comm, float(np.abs(W @ R0 - R0 @ W).max()) / scale)
            cases += 1
    return CheckResult(
        name="ricci-traces",
        passed=bool(worst < 1e-10 and comm <= 1e-14),
        worst=worst,
        tol=1e-10,
        n_cases=cases,
        detail=(
            f"max relative trace error of R0, d in {{1, 2, 3}}; max |[W, R0]| / "
            f"(max(1, max|W|) max(1, max|R0|)) {comm:.3e} (tol 1e-14)"
        ),
    )


def check_sublaplacian_margin(rng: np.random.Generator) -> CheckResult:
    """Radial sub-Laplacian against the model sum at v = 0, d = 2.

    The trace formula and the model right-hand side coincide there: at
    zero vertical momentum the a/b block is three copies of the type-I pair
    with Q = diag(kappa_a, kappa_b) and the c block has Q = kappa_c I, the
    very systems whose quotients the models are, so the margin
    must be nonnegative up to 1e-6 and small in absolute value; the
    r -> 0 limit of r times the sub-Laplacian is the effective dimension
    4d + 8.
    """
    res = conjugate_time(2, np.zeros(3))
    grid = np.linspace(0.1, 0.95 * res.t_star, 16)
    # the grid and the limit radius in one call: each radius's values come from exp(r H) alone
    rep = sublaplacian_along(res, [*grid, 1e-3])
    min_margin = float(rep.margin[:16].min())
    max_abs = float(np.abs(rep.margin[:16]).max())
    limit_err = abs(float(rep.r_times_lhs[16]) - 16.0)
    ok = min_margin >= -1e-6 and max_abs < 1e-4 and limit_err < 1e-3
    return CheckResult(
        name="sublaplacian-margin",
        passed=bool(ok),
        worst=min_margin,
        tol=1e-6,
        n_cases=len(grid) + 1,
        detail=(
            f"min margin on 16 radii below the conjugate time; max |margin| "
            f"{max_abs:.3e}; r*laplacian at r=1e-3 off 4d+8 by {limit_err:.3e}"
        ),
    )


def check_scaling_covariance(rng: np.random.Generator) -> CheckResult:
    """Parabolic rescaling covariance of both scalar models. Every fourth pair is
    near-degenerate, |kappa_a| = kappa_b^2/4 times 10^[-16, 0], at small t."""
    # five draws a pair, and two more on each of the 25 near-degenerate ones
    uniform = _uniforms(rng, 550)
    worst = 0.0
    tbar_worst = 0.0
    for i in range(100):
        alpha = uniform(0.5, 2.0)
        u = uniform(0.05, 0.9)

        kc = uniform(-5.0, 5.0)
        tb = blowup_time_kc(alpha * alpha * kc)
        t = u * (tb.time if tb.is_finite else 3.0 / alpha)
        lhs = eval_s_kc(alpha * alpha * kc, t)
        rhs = alpha * eval_s_kc(kc, alpha * t)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))

        ka, kb = uniform(-5.0, 5.0), uniform(-5.0, 5.0)
        near = i % 4 == 0
        if near:
            ka = math.copysign(kb * kb / 4.0 * 10.0 ** uniform(-16.0, 0.0), ka)
            u *= 10.0 ** uniform(-6.0, 0.0)
        # one tbar solve for each pair, handed to the model's core, which would otherwise solve again
        ka4, kb2 = alpha**4 * ka, alpha**2 * kb
        tbs, tb0 = blowup_time_kab(ka4, kb2), blowup_time_kab(ka, kb).time
        t2 = u * (min(tbs.time, 3.0 / alpha) if near else tbs.time if tbs.is_finite else 3.0 / alpha)
        lhs2 = _s_kab(ka4, kb2, t2, tbs.time)
        rhs2 = alpha * _s_kab(ka, kb, alpha * t2, tb0)
        worst = max(worst, abs(lhs2 - rhs2) / max(1.0, abs(lhs2)))
        if tbs.is_finite:
            tbar_worst = max(tbar_worst, abs(alpha * tbs.time - tb0) / tb0)
    ok = worst < 1e-10 and tbar_worst < 1e-9
    return CheckResult(
        name="scaling-covariance",
        passed=bool(ok),
        worst=worst,
        tol=1e-10,
        n_cases=100,
        detail=(
            f"max relative covariance error over 100 (alpha, kappa, t) "
            f"triples; blow-up covariance err {tbar_worst:.3e}"
        ),
    )


# ----------------------------------------------------------------------
# registry and runners
# ----------------------------------------------------------------------

CHECKS: list[tuple[str, Callable[[np.random.Generator], CheckResult]]] = [
    ("model-blowup-times", check_model_blowup_times),
    ("scalar-vs-jacobi", check_scalar_vs_jacobi),
    ("blowup-upper-bound", check_blowup_upper_bound),
    ("isotropic-conjugate", check_isotropic_conjugate),
    ("qhf-conjugate-d2", functools.partial(check_qhf_conjugate, 2)),
    ("qhf-conjugate-d1", functools.partial(check_qhf_conjugate, 1)),
    ("extremal-conservation", check_extremal_conservation),
    ("vertical-identities", check_vertical_identities),
    ("ricci-traces", check_ricci_traces),
    ("sublaplacian-margin", check_sublaplacian_margin),
    ("scaling-covariance", check_scaling_covariance),
]


def check_names() -> list[str]:
    return [name for name, _ in CHECKS]


def _child_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def run_check(index: int, seed: int) -> CheckResult:
    """Run one check by registry index with its derived child seed.

    A check that raises is reported as failed, with the exception's type
    and message as its detail, so that the rest of the suite still runs.
    """
    name, fn = CHECKS[index]
    t0 = time.perf_counter()
    try:
        result = fn(_child_rng(seed, index))
    except Exception as exc:  # one check must not end the suite
        result = CheckResult(
            name=name, passed=False, worst=math.nan, tol=math.nan, n_cases=0,
            detail=f"raised {type(exc).__name__}: {exc}",
        )
    result = replace(result, elapsed=time.perf_counter() - t0)
    if result.name != name:
        raise RuntimeError(f"check {name!r} returned result named {result.name!r}")
    return result


def map_tasks(fn: Callable, tasks: list[tuple], jobs: int) -> list:
    """[fn(*task) for task in tasks], in a pool of ``jobs`` processes when
    jobs > 1 and there is more than one task, sent in chunks of
    max(1, len(tasks) // (4 jobs)) so that short tasks do not each pay a
    round trip; results keep the task order. ``DomainError`` when jobs < 1.
    """
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(fn, *zip(*tasks), chunksize=max(1, len(tasks) // (4 * jobs))))
    return [fn(*task) for task in tasks]


def run_all(seed: int, jobs: int = 1) -> list[CheckResult]:
    """Run the whole suite, optionally in parallel.

    Child seeds depend only on (seed, registry index), so the output is
    independent of the job count and ordered by registry position.
    """
    return map_tasks(run_check, [(i, seed) for i in range(len(CHECKS))], jobs)
