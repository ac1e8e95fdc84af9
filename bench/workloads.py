"""Benchmark workloads: seeded inputs, the program call per row, output checks.

Every row function looks the program up through its module at call time
(``hopf.conjugate_time``, not a name bound at import), so that the tracer's
wrappers are seen. Inputs are stratified, so that two seeds give rows of
the same make-up and the per-run figures do not swing with the draw.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from fatcomp import checks, cli, hopf, models

import oracle


@dataclass(frozen=True)
class RowWorkload:
    """A workload of independent in-process rows.

    ``run_row`` raises on a failed operation; ``named_fault`` says whether a
    failure is the known fault the workload keeps on purpose; ``check``
    returns a list of problems found in one round of outputs (None where
    the row failed).
    """

    name: str
    make_rows: Callable[[int], list]
    run_row: Callable[[Any], Any]
    check: Callable[[list, list], list[str]]
    named_fault: Callable[[Any, BaseException], bool]


def _never(row, exc) -> bool:
    return False


def _unit(rng: np.random.Generator) -> np.ndarray:
    x = rng.normal(size=3)
    return x / np.linalg.norm(x)


# ----------------------------------------------------------------------
# conjugate-sweep: hopf.conjugate_time over seeded covectors
# ----------------------------------------------------------------------

CONJ_PER_D = 3


def conjugate_rows(seed: int) -> list:
    rng = np.random.default_rng(seed)
    rows = []
    for d in (1, 2, 3):
        for i in range(CONJ_PER_D):
            nv = 3.0 * (i + rng.uniform()) / CONJ_PER_D
            rows.append((d, tuple(float(c) for c in nv * _unit(rng))))
    return rows


def conjugate_row(row) -> tuple:
    d, v = row
    res = hopf.conjugate_time(d, np.array(v))
    return res.t_star, res.margin_kab, res.margin_kc


def conjugate_check(rows: list, outputs: list) -> list[str]:
    problems = []
    for (d, v), out in zip(rows, outputs):
        if out is None:
            continue
        t_star, margin_kab, margin_kc = out
        nv = math.sqrt(sum(c * c for c in v))
        closed = math.pi / math.sqrt(1.0 + nv * nv)
        where = f"d={d} |v|={nv:.6f}"
        if not abs(t_star - closed) <= 1e-8:
            problems.append(f"{where}: t*={t_star!r} off pi/sqrt(1+|v|^2) by {t_star - closed:.3e}")
        # at |v| = 0 the detected t* sits ~5e-11 above pi, inside the closed-form tolerance
        if not t_star <= math.pi + 1e-8:
            problems.append(f"{where}: t*={t_star!r} above pi")
        for label, margin in (("kab", margin_kab), ("kc", margin_kc)):
            if margin is not None and not margin >= -1e-6:
                problems.append(f"{where}: margin_{label}={margin!r} below -1e-6")
    return problems


# ----------------------------------------------------------------------
# blowup-verify: rows of `fatcomp blowup --verify`
# ----------------------------------------------------------------------

# the CLI defaults of `blowup --verify`
BLOWUP_ARGS = argparse.Namespace(verify=True, tol=1e-9, tmax=1000.0)
BLOWUP_GRID = (5, 6)  # strata in kappa_a x kappa_b over [-5, 5]^2
BLOWUP_KA0 = 2  # extra rows on the kappa_a = 0 equality line


def blowup_rows(seed: int) -> list:
    rng = np.random.default_rng(seed)
    na, nb = BLOWUP_GRID
    rows = []
    for i in range(na):
        for j in range(nb):
            ka = -5.0 + 10.0 * (i + rng.uniform()) / na
            kb = -5.0 + 10.0 * (j + rng.uniform()) / nb
            rows.append((float(ka), float(kb)))
    for _ in range(BLOWUP_KA0):
        rows.append((0.0, float(rng.uniform(0.5, 5.0))))
    return rows


def blowup_row(row) -> tuple:
    ka, kb = row
    r = cli._blowup_row_kab(0, ka, kb, BLOWUP_ARGS)
    # check_ok is read on infinite rows only: on finite rows the CLI
    # compares with an absolute --tol
    return r["tbar"], r["finite"], r["check_tbar"], r["check_ok"], r["upper_bound"]


def blowup_check(rows: list, outputs: list) -> list[str]:
    problems = []
    for (ka, kb), out in zip(rows, outputs):
        if out is None:
            continue
        tbar, finite, check_tbar, check_ok, upper = out
        where = f"(ka, kb)=({ka!r}, {kb!r})"
        ref = oracle.reference_tbar(ka, kb, 1.5 * tbar if finite else 200.0)
        if finite:
            if not abs(check_tbar - tbar) <= 1e-8 * tbar:
                problems.append(f"{where}: wedge {check_tbar!r} vs model {tbar!r}")
            if ref is None or not abs(tbar - ref) <= 1e-9 * ref:
                problems.append(f"{where}: tbar {tbar!r} vs mpmath reference {ref!r}")
            if not tbar <= upper * (1.0 + 1e-12):
                problems.append(f"{where}: tbar {tbar!r} above upper bound {upper!r}")
        else:
            if not check_ok:
                problems.append(f"{where}: infinite row shows det N sign changes")
            if ref is not None:
                problems.append(f"{where}: infinite row, but the factored function vanishes at {ref!r}")
        if ka == 0.0 and not abs(tbar - 2.0 * math.pi / math.sqrt(kb)) <= 1e-12 * tbar:
            problems.append(f"{where}: kappa_a = 0 row tbar {tbar!r} != 2 pi / sqrt(kb)")
    return problems


# ----------------------------------------------------------------------
# diameter-map: models.diameter_certificate over (|v|, K)
# ----------------------------------------------------------------------

DIAM_SEEDED = 62
# kappa_a > 0 rows, fixed apart from the seed: diameter_certificate raises
# FloatingPointError ("chi_at_pi: unexpected imaginary part") on them,
# because theta_pm are a conjugate pair and chi(pi) is purely imaginary.
# They are ~3% of a uniform draw over [0, 3] x [-1, 3], as here (2 of 64).
DIAM_FAULT_ROWS = ((0.25, 2.9), (0.5, 2.8))


def _kappas(nv: float, K: float) -> tuple[float, float]:
    s = nv * nv
    return s * (1.5 * K - 3.5 - 1.875 * s), 4.0 + 5.0 * s


def diameter_rows(seed: int) -> list:
    """|v| stratified over [0, 3]; K uniform over [-1, 3] with kappa_a <= 0."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(DIAM_SEEDED):
        nv = 3.0 * (i + rng.uniform()) / DIAM_SEEDED
        k_hi = min(3.0, 7.0 / 3.0 + 1.25 * nv * nv)
        rows.append((float(nv), float(rng.uniform(-1.0, k_hi))))
    return rows + list(DIAM_FAULT_ROWS)


def diameter_row(row) -> tuple:
    c = models.diameter_certificate(*row)
    return c.kappa_a, c.kappa_b, c.tbar.time, c.passes


def diameter_fault(row, exc: BaseException) -> bool:
    return (
        _kappas(*row)[0] > 0.0
        and isinstance(exc, FloatingPointError)
        and "chi_at_pi: unexpected imaginary part" in str(exc)
    )


def diameter_check(rows: list, outputs: list) -> list[str]:
    problems = []
    for (nv, K), out in zip(rows, outputs):
        if out is None:
            continue
        ka, kb, tbar, passes = out
        where = f"(|v|, K)=({nv!r}, {K!r})"
        ka_ref, kb_ref = _kappas(nv, K)
        if not (abs(ka - ka_ref) <= 1e-12 * max(1.0, abs(ka_ref)) and abs(kb - kb_ref) <= 1e-12 * kb_ref):
            problems.append(f"{where}: kappas ({ka!r}, {kb!r}) vs ({ka_ref!r}, {kb_ref!r})")
        if not (passes and tbar <= math.pi * (1.0 + 1e-12)):
            problems.append(f"{where}: tbar {tbar!r} above pi (passes={passes})")
        upper = models.upper_bound_kab(ka, kb)
        if not tbar <= upper * (1.0 + 1e-12):
            problems.append(f"{where}: tbar {tbar!r} above upper_bound_kab {upper!r}")
        ref = oracle.reference_tbar(ka, kb, 1.5 * tbar)
        if ref is None or not abs(tbar - ref) <= 1e-9 * ref:
            problems.append(f"{where}: tbar {tbar!r} vs mpmath reference {ref!r}")
    return problems


# ----------------------------------------------------------------------
# registry: the verify-all checks that the other workloads do not cover
# ----------------------------------------------------------------------

# scalar-vs-jacobi and qhf-conjugate-d1/d2 (20 of the 26 s of verify-all)
# are left out: their layers are measured on blowup-verify and
# conjugate-sweep, and a pass must fit a run several times over.
REGISTRY_CHECKS = (
    "model-blowup-times", "blowup-upper-bound", "isotropic-conjugate", "extremal-conservation",
    "vertical-identities", "ricci-traces", "sublaplacian-margin", "scaling-covariance",
)


def registry_rows(seed: int) -> list:
    names = checks.check_names()
    return [(names.index(name), seed) for name in REGISTRY_CHECKS]


def registry_row(row) -> tuple:
    r = checks.run_check(*row)
    # elapsed is left out: it differs from run to run
    return r.name, r.passed, r.worst, r.tol, r.n_cases, r.detail


def registry_check(rows: list, outputs: list) -> list[str]:
    problems = []
    for (index, seed), out in zip(rows, outputs):
        if out is None:
            continue
        name, passed, worst, tol, n_cases, detail = out
        if name != checks.check_names()[index] or not passed:
            problems.append(f"check {index} at seed {seed}: {name} passed={passed} worst={worst!r} tol={tol!r} ({detail})")
    return problems


ROW_WORKLOADS = {
    w.name: w
    for w in (
        RowWorkload("registry", registry_rows, registry_row, registry_check, _never),
        RowWorkload("conjugate-sweep", conjugate_rows, conjugate_row, conjugate_check, _never),
        RowWorkload("blowup-verify", blowup_rows, blowup_row, blowup_check, _never),
        RowWorkload("diameter-map", diameter_rows, diameter_row, diameter_check, diameter_fault),
    )
}

