"""The verification registry: every printed number of every check, the
generator calls each check makes, and the task runner of the registry and
the CLI sweeps.

The digest covers each ``CheckResult`` field that ``verify-all`` writes
(``elapsed`` is wall time and is left out), so any change to a check's
stream order, its draws or its arithmetic shows here.
"""

import concurrent.futures
import hashlib
import operator

import numpy as np
import pytest

from fatcomp import checks, curvature
from fatcomp.checks import CHECKS, _child_rng, check_names, map_tasks, run_check


def _registry_digest() -> str:
    lines = []
    for seed in (1, 7):
        for index in range(len(CHECKS)):
            r = run_check(index, seed)
            lines.append(f"{seed} {r.name} {r.passed} {float.hex(r.worst)} {r.tol!r} {r.n_cases} {r.detail}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# _registry_digest(), frozen from checks that drew every number by its own
# scalar generator call, and taken again when conjugate_time took the real
# pair's zero from its closed form: only the qhf-conjugate-d1 detail moved
# ("split blocks vs full-system scan" 3.118e-13 -> 3.149e-13 at seed 1,
# 3.169e-13 -> 3.171e-13 at seed 7), and again when ricci-traces read the traces of R0
# and its commutator with W instead of two rotations R(t1), R(t2): only its worst
# (4.427e-16 -> 2.460e-16 at seed 1, 4.789e-16 -> 3.136e-16 at seed 7) and detail moved;
# and again when conjugate_time dropped the complex pair's pass, t* being the closed form
# pi/sqrt(1 + |v|^2): qhf-conjugate-d1/d2 moved toward exact (worst 0x1.ff0p-43 -> 0 at d = 2
# seed 1; v=0 off pi 1.776e-15 -> 0) and gained the pass as an oracle in their detail, and
# sublaplacian-margin's max |margin| moved 1.847e-13 -> 1.066e-13 on its t*-scaled grid
REGISTRY_DIGEST = "bf8f606a7dc9232869531cec7dee8d7d6ed8cd113e8ec822123f2fc3ea88a323"


class _CountingGenerator:
    """A ``Generator`` that counts the calls made to its methods."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


# most generator calls a check may make at seeds 1 and 7: each draws its
# stream in as few calls as the stream allows
MAX_CALLS = {
    "model-blowup-times": 0,
    "scalar-vs-jacobi": 2,
    "blowup-upper-bound": 1,
    "isotropic-conjugate": 0,
    "qhf-conjugate-d2": 2,
    "qhf-conjugate-d1": 2,
    # a uniform norm between the normals of each of 10 cases
    "extremal-conservation": 20,
    # one call per stack size: a single draw would hold all three stacks at once
    "vertical-identities": 4,
    "ricci-traces": 1,
    "sublaplacian-margin": 0,
    "scaling-covariance": 1,
}


class TestRegistryBits:

    def test_frozen_digest(self):
        assert _registry_digest() == REGISTRY_DIGEST

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("index", range(len(CHECKS)), ids=check_names())
    def test_generator_calls(self, index, seed):
        name, fn = CHECKS[index]
        rng = _CountingGenerator(_child_rng(seed, index))
        got = fn(rng)
        assert rng.calls <= MAX_CALLS[name]
        want = run_check(index, seed)
        assert (got.passed, float.hex(got.worst), got.detail) == (want.passed, float.hex(want.worst), want.detail)

    def test_sublaplacian_margin_calls_the_public_entry_point(self, monkeypatch):
        # the check went round sublaplacian_along through a private name, which
        # a tracer wrapping the public one did not see
        calls, evaluate = [], checks.sublaplacian_along

        def counted(conj, r_grid):
            calls.append(conj)
            return evaluate(conj, r_grid)

        monkeypatch.setattr(checks, "sublaplacian_along", counted)
        index = check_names().index("sublaplacian-margin")
        assert run_check(index, 1).passed
        assert len(calls) == 1 and calls[0].d == 2


class _SerialPool:
    """A stand-in for ``ProcessPoolExecutor`` that runs ``map`` in process and records its chunksize."""

    chunksizes: list[int] = []

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        self.chunksizes.append(chunksize)
        return map(fn, *iterables)


class TestMapTasks:

    def test_pool_keeps_the_task_order(self):
        tasks = [(i, 3) for i in range(40)]
        assert map_tasks(operator.mul, tasks, 2) == [3 * i for i in range(40)]

    @pytest.mark.parametrize("n_tasks, jobs, chunksize", [(2000, 2, 250), (200, 2, 25), (11, 2, 1), (7, 2, 1), (30, 3, 2)])
    def test_tasks_go_in_chunks_of_a_quarter_share(self, monkeypatch, n_tasks, jobs, chunksize):
        # chunksize 1 paid one round trip a 1 ms conjugate row, so --jobs 2
        # never paid off; verify-all's 11 uneven checks stay one a chunk
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(_SerialPool, "chunksizes", [])
        tasks = [(i, 1) for i in range(n_tasks)]
        assert map_tasks(operator.add, tasks, jobs) == list(range(1, n_tasks + 1))
        assert _SerialPool.chunksizes == [chunksize]


def _ricci_traces_by_rotation(seed: int) -> float:
    """The largest relative error of the traces of R(t1) and R(t2) = ``assemble`` at two
    seeded times, against ``ricci_scalars`` and each other, on the 9 cases of ricci-traces:
    a check of the rotated curvature that reads traces alone."""
    rng, worst = np.random.default_rng(seed), 0.0
    for d in (1, 2, 3):
        for _ in range(3):
            v = rng.uniform(-1.5, 1.5, 3)
            inputs = checks.qhf_curvature_inputs(d, v)
            blocks = checks.curvature_blocks(v, inputs)
            dims = blocks.dims
            R1, R2 = blocks.assemble(rng.uniform(0.05, 4.0)), blocks.assemble(rng.uniform(0.05, 4.0))
            for expected, sl in zip(checks.ricci_scalars(v, inputs.rho_a, d), (dims.sl_a, dims.sl_b, dims.sl_c)):
                tr1, tr2 = float(R1[sl, sl].trace()), float(R2[sl, sl].trace())
                worst = max(worst, abs(tr1 - expected) / max(1.0, abs(expected)), abs(tr1 - tr2) / max(1.0, abs(expected)))
    return worst


class TestRicciTraces:

    @pytest.mark.parametrize("seed", [1, 7])
    def test_commutator_sees_a_traceless_fault(self, seed, monkeypatch):
        # eps (E01 + E10) in the a block is symmetric and traceless, so no trace moves,
        # rotated or not; it does not commute with vee(v), and [W, R0] sees it
        corner = curvature._ab_corner

        def faulty(*args):
            R = corner(*args)
            # max|corner| is max|R0| for the QHF inputs: ABU = 0 and R_cc <= 1 + |v|^2
            eps = 1e-12 * float(np.abs(R).max())
            R[0, 1] += eps
            R[1, 0] += eps
            return R

        index = check_names().index("ricci-traces")
        assert run_check(index, seed).passed
        monkeypatch.setattr(curvature, "_ab_corner", faulty)
        r = run_check(index, seed)
        assert not r.passed and r.worst < 1e-10, r.detail
        assert _ricci_traces_by_rotation(seed) < 1e-10

    def test_sign_fault_fails_through_the_b_trace(self, monkeypatch):
        # -R_bb still commutes with vee(v): the fault shows in the traces alone
        monkeypatch.setenv("FATCOMP_FAULT", "curvature-sign")
        r = run_check(check_names().index("ricci-traces"), 7)
        assert not r.passed and r.worst > 1.0
        assert float(r.detail.split("|R0|)) ")[1].split()[0]) <= 1e-14, r.detail
