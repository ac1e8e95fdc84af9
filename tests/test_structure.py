"""Block layout, structural pair, trace inequality.

Test categories:
  1. Dimension bookkeeping and its guards
  2. Structural pair algebra (nilpotency, idempotency, controllability)
  3. Symmetric-pair trace inequality, including its equality cases
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatcomp.models import DomainError
from fatcomp.structure import FatDims, build_structural, trace_inequality_check, typeI_pair

# Seeds feed a local generator; matrices built this way shrink poorly but
# the properties under test are symmetric in the entries anyway.
matrix_seed = st.integers(min_value=0, max_value=10**6)
block_size = st.sampled_from([2, 3, 5])

DIMS_D1 = FatDims(k=4, n=7)
DIMS_D2 = FatDims(k=8, n=11)


def random_symmetric(rng, n, scale=1.0):
    X = rng.standard_normal((n, n)) * scale
    return 0.5 * (X + X.T)


def controllable_in_one_step(A, B):
    """rank B < n and rank [B, AB] = n: one Kalman step, not zero."""
    n = A.shape[0]
    if np.linalg.matrix_rank(B) == n:
        return False
    return np.linalg.matrix_rank(np.hstack([B, A @ B])) == n


# ----------------------------------------------------------------------
# Test Class: dimension bookkeeping
# ----------------------------------------------------------------------

class TestFatDims:

    def test_minimal_corank_one(self):
        d = DIMS_D1
        assert (d.na, d.nb, d.nc) == (3, 3, 1)
        assert d.sl_c == slice(6, 7)

    def test_quaternionic_d2(self):
        d = DIMS_D2
        assert (d.na, d.nb, d.nc) == (3, 3, 5)
        assert d.sl_a == slice(0, 3)
        assert d.sl_b == slice(3, 6)
        assert d.sl_c == slice(6, 11)

    @pytest.mark.parametrize("k,n", [(2, 4), (4, 4), (5, 4), (4, 8), (3, 6)])
    def test_rejects_inadmissible_dimensions(self, k, n):
        with pytest.raises(ValueError):
            FatDims(k=k, n=n)


# ----------------------------------------------------------------------
# Test Class: structural pair
# ----------------------------------------------------------------------

class TestStructuralPair:

    def test_shapes_and_sparsity(self):
        A, B = build_structural(DIMS_D2)
        assert A.shape == B.shape == (11, 11)
        # A maps the b group into the a group and nothing else
        assert np.array_equal(A[DIMS_D2.sl_a, DIMS_D2.sl_b], np.eye(3))
        assert np.count_nonzero(A) == 3

    def test_a_is_nilpotent_b_is_projection(self):
        A, B = build_structural(DIMS_D1)
        assert np.array_equal(A @ A, np.zeros((7, 7)))
        assert np.array_equal(B @ B, B)
        assert np.array_equal(B, B.T)
        assert np.trace(B) == DIMS_D1.nb + DIMS_D1.nc

    @pytest.mark.parametrize("dims", [DIMS_D1, DIMS_D2])
    def test_controllable_in_one_bracket(self, dims):
        assert controllable_in_one_step(*build_structural(dims))

    def test_scalar_pair_mirrors_structure(self):
        a, b = typeI_pair()
        assert np.array_equal(a @ a, np.zeros((2, 2)))
        assert np.array_equal(b @ b, b)
        assert controllable_in_one_step(a, b)
        # zero steps (B full rank) and no controllability are both told apart
        assert not controllable_in_one_step(np.zeros((2, 2)), np.eye(2))
        assert not controllable_in_one_step(np.zeros((2, 2)), b)


# ----------------------------------------------------------------------
# Test Class: trace inequality
# ----------------------------------------------------------------------

class TestTraceInequality:

    def test_equality_when_second_is_identity(self):
        X = random_symmetric(np.random.default_rng(2), 3)
        slack, ok = trace_inequality_check(X, np.eye(3))
        assert ok
        assert abs(slack) < 1e-12 * max(1.0, np.abs(X).max() ** 4)

    def test_equality_when_arguments_coincide(self):
        X = random_symmetric(np.random.default_rng(3), 4)
        slack, ok = trace_inequality_check(X, X.copy())
        assert ok
        assert abs(slack) < 1e-10 * max(1.0, np.abs(X).max() ** 4)

    @given(matrix_seed, block_size)
    @settings(max_examples=200)
    def test_holds_for_random_symmetric_pairs(self, seed, m):
        rng = np.random.default_rng(seed)
        X = random_symmetric(rng, m, scale=3.0)
        Y = random_symmetric(rng, m, scale=0.5)
        slack, ok = trace_inequality_check(X, Y)
        assert ok, f"trace inequality violated: slack = {slack} (m = {m})"

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError, match="symmetric"):
            trace_inequality_check(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            trace_inequality_check(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_stack_equals_the_pair_loop_bit_for_bit(self, m):
        rng = np.random.default_rng(m)
        X = np.array([random_symmetric(rng, m, scale=3.0) for _ in range(200)])
        Y = np.array([random_symmetric(rng, m) for _ in range(200)])
        slack, ok = trace_inequality_check(X.reshape(10, 20, m, m), Y.reshape(10, 20, m, m))
        assert slack.shape == ok.shape == (10, 20)
        pairs = [trace_inequality_check(x, y) for x, y in zip(X, Y)]
        assert slack.ravel().tolist() == [p[0] for p in pairs]
        assert ok.ravel().tolist() == [p[1] for p in pairs]

    # np.sum over each pair's entries and np.trace: the 2-D formula in numpy's own order
    @staticmethod
    def _pair_slack(X, Y):
        m = len(X)
        nx2, ny2, ip = ((P * Q).ravel().sum() for P, Q in ((X, X), (Y, Y), (X, Y)))
        tx, ty = np.trace(X), np.trace(Y)
        return (nx2 * ny2 - ip * ip + (2.0 / m) * tx * ty * ip) - (ty * ty * nx2 + tx * tx * ny2) / m

    # m = 12: 144 entries, two halves of the pairwise sum, and a trace of 12 terms
    @pytest.mark.parametrize("m", [2, 3, 5, 12])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed-view", "pairs"])
    def test_coordinate_major_sums_keep_the_bits_of_numpy_sums(self, m, layout):
        rng = np.random.default_rng(m)
        Z = rng.standard_normal((300, 2, m, m)) * np.exp(rng.uniform(-5.0, 5.0, (300, 2, 1, 1)))
        Z = Z + np.swapaxes(Z, -1, -2)
        Z[7], Z[9, 0], Z[9, 1] = 0.0, -0.0, 0.0  # np.sum turns a sum of -0.0 into 0.0
        if layout == "pairs":
            slack, ok = np.array([trace_inequality_check(x, y) for x, y in Z]).T
        else:
            X, Y = Z.transpose(1, 0, 2, 3) if layout == "transposed-view" else (Z[:, 0].copy(), Z[:, 1].copy())
            slack, ok = trace_inequality_check(X, Y)
        expected = np.array([self._pair_slack(x, y) for x, y in Z])
        assert slack.tobytes() == expected.tobytes()
        assert ok.all()

    def test_rejects_one_asymmetric_member_of_a_stack(self):
        X = np.array([random_symmetric(np.random.default_rng(k), 3) for k in range(5)])
        X[3, 0, 1] += 0.1
        with pytest.raises(ValueError, match="symmetric"):
            trace_inequality_check(X, np.broadcast_to(np.eye(3), X.shape))

    def test_rejects_an_asymmetry_above_the_documented_tolerance(self):
        # 1e-6 is far above 1e-12 max(1, max|X|), but within the 1e-5
        # relative tolerance np.isclose would add
        X = np.array([random_symmetric(np.random.default_rng(k), 3) for k in range(5)])
        X[3, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            trace_inequality_check(X, np.broadcast_to(np.eye(3), X.shape))

    # a diagonal entry, both entries of an off-diagonal pair (inf - inf is
    # NaN, not a nonzero difference of finite numbers) and one entry alone
    @pytest.mark.parametrize("entries", [[(0, 0)], [(0, 1), (1, 0)], [(2, 1)]], ids=["diagonal", "pair", "single"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["X", "Y", "stack"])
    def test_non_finite_entry_is_a_domain_error(self, where, value, entries):
        rng = np.random.default_rng(5)
        X = np.array([random_symmetric(rng, 3) for _ in range(5)])
        Y = np.array([random_symmetric(rng, 3) for _ in range(5)])
        if where != "stack":
            X, Y = X[0], Y[0]
        member = X[3] if where == "stack" else {"X": X, "Y": Y}[where]
        for i, j in entries:
            member[i, j] = value
        with pytest.raises(DomainError, match="finite"):
            trace_inequality_check(X, Y)

    # both returned (nan, False) with a RuntimeWarning: the inequality read as failing
    @pytest.mark.parametrize("X,Y", [(np.eye(2) * 1e200, np.eye(2)), (np.eye(2) * 1e100, np.eye(2) * 1e100),
                                     (np.array([np.eye(2), np.eye(2) * 1e160]), np.array([np.eye(2), np.eye(2)]))],
                             ids=["squares", "products", "stack"])
    def test_overflowing_terms_are_a_domain_error(self, X, Y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                trace_inequality_check(X, Y)
