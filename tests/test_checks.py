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

from fatcomp import checks
from fatcomp.checks import CHECKS, _child_rng, check_names, map_tasks, run_check


def _registry_digest() -> str:
    lines = []
    for seed in (1, 7):
        for index in range(len(CHECKS)):
            r = run_check(index, seed)
            lines.append(f"{seed} {r.name} {r.passed} {float.hex(r.worst)} {r.tol!r} {r.n_cases} {r.detail}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# _registry_digest(), frozen from checks that drew every number by its own
# scalar generator call
REGISTRY_DIGEST = "36e5e35514b2b0c42ec67e5238511a96dbac5685829bef4680b5f11db055ba14"


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
