"""The verification registry: every printed number of every check, and the
generator calls each check makes.

The digest covers each ``CheckResult`` field that ``verify-all`` writes
(``elapsed`` is wall time and is left out), so any change to a check's
stream order, its draws or its arithmetic shows here.
"""

import hashlib

import numpy as np
import pytest

from fatcomp.checks import CHECKS, _child_rng, check_names, run_check


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
