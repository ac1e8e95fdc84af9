"""Jacobi propagator, blow-up detection, Riccati quotient, 2x2 phase route.

The flat system (Q = 0) over the rank-one step pair has a polynomial
solution that every quantity here is checked against:

    M(t) = [[1, 0], [-t, 1]],   N(t) = [[-t^3/6, t^2/2], [-t^2/2, t]],

so det N = t^4/12 and V = M N^{-1} = [[12/t^3, -6/t^2], [-6/t^2, 4/t]].
"""

import importlib
import math
import re
import time
import tracemalloc
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import brentq

from fatcomp import checks, riccati
from fatcomp.hopf import _qhf_complex_pair, _qhf_system
from fatcomp.models import DomainError, blowup_time_kab, finiteness_predicate
from fatcomp.riccati import (
    JacobiSolution,
    UnverifiableError,
    _additive_compound,
    _balanced,
    _expm,
    finite_blowup_constant,
    first_blowup,
    integrate_jacobi,
    wedge_det_sign_changes,
    wedge_first_zero,
)
from fatcomp.structure import typeI_pair

A_STEP, B_STEP = typeI_pair()


def flat_solution(t):
    M = np.array([[1.0, 0.0], [-t, 1.0]])
    N = np.array([[-t**3 / 6.0, t**2 / 2.0], [-t**2 / 2.0, t]])
    return M, N


def _system(name):
    """The type-I pair (-3, 4) to t = 9, or the QHF system at d = 2 to t = 2.5."""
    if name == "typeI":
        return integrate_jacobi(A_STEP, B_STEP, np.diag([-3.0, 4.0]), t_max=9.0)
    return integrate_jacobi(*_qhf_system(2, np.array([0.5, -0.3, 0.8])), 2.5)


# ----------------------------------------------------------------------
# Test Class: Jacobi integration
# ----------------------------------------------------------------------

class TestIntegrateJacobi:

    def test_flat_closed_form(self):
        sol = integrate_jacobi(A_STEP, B_STEP, np.zeros((2, 2)), t_max=3.0)
        for t in (0.5, 1.0, 2.5):
            Mref, Nref = flat_solution(t)
            assert np.abs(sol.M(t) - Mref).max() < 1e-9, f"M({t}) off"
            assert np.abs(sol.N(t) - Nref).max() < 1e-9, f"N({t}) off"
            assert abs(sol.det_N(t) - t**4 / 12.0) < 1e-9

    def test_symplectic_residual_stays_small(self):
        Q = np.diag([1.0, -0.5])
        sol = integrate_jacobi(A_STEP, B_STEP, Q, t_max=4.0)
        worst = max(sol.symplectic_residual(t) for t in np.linspace(0.1, 4.0, 17))
        assert worst < 1e-9, f"M^T N - N^T M residual {worst}"

    def test_rejects_asymmetric_coefficient(self):
        Q = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            integrate_jacobi(A_STEP, B_STEP, Q, t_max=1.0)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda Q: integrate_jacobi(A_STEP, B_STEP, Q, 2.0), "Q must be real"),
            (lambda Q: finite_blowup_constant(A_STEP, B_STEP, Q), "Q must be real"),
        ],
        ids=["integrate_jacobi", "finite_blowup_constant"],
    )
    def test_rejects_complex_coefficient(self, call, message):
        # a Hermitian Q was cast to its real part with only a ComplexWarning
        with pytest.raises(ValueError, match=message):
            call(np.array([[1.0, 2j], [-2j, 3.0]]))

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            integrate_jacobi(A_STEP, B_STEP, np.zeros((2, 2)), t_max=0.0)
        with pytest.raises(ValueError):
            integrate_jacobi(A_STEP, B_STEP, np.zeros((2, 2)), t_max=math.inf)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coefficient_is_a_domain_error(self, bad):
        with pytest.raises(DomainError):
            integrate_jacobi(A_STEP, B_STEP, np.diag([bad, 1.0]), t_max=1.0)


# ----------------------------------------------------------------------
# Test Class: blow-up detection
# ----------------------------------------------------------------------

class TestFirstBlowup:

    @pytest.mark.parametrize("n", [2, 4, 5, 16])
    def test_isotropic_zero_of_order_n(self, n):
        # N(t) = sin(sqrt(k) t)/sqrt(k) I: all n phases reach pi together,
        # a touch for even n and a crossing for odd n
        k = 2.0
        sol = integrate_jacobi(np.zeros((n, n)), np.eye(n), k * np.eye(n), t_max=3.0)
        hit = first_blowup(sol)
        assert abs(hit.time - math.pi / math.sqrt(k)) < 1e-12, f"order-{n} zero at {hit.time}"

    @pytest.mark.parametrize("kappa", [1e50, 1e100, 1e300])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_refinement_is_relative_on_a_short_horizon(self, n, kappa):
        # t_max = 1.1 pi/sqrt(kappa) is far below the 1e-12 floor of an
        # absolute tolerance, which returned the end of the step
        expected = math.pi / math.sqrt(kappa)
        sol = integrate_jacobi(np.zeros((n, n)), np.eye(n), kappa * np.eye(n), 1.1 * expected)
        assert abs(first_blowup(sol).time - expected) <= 1e-12 * expected

    def test_isotropic_triple_zero(self):
        # A = 0, B = I, Q = k I: N(t) = sin(sqrt(k) t)/sqrt(k) I, so all
        # three singular values collapse together at pi/sqrt(k)
        k = 2.0
        sol = integrate_jacobi(np.zeros((3, 3)), np.eye(3), k * np.eye(3), t_max=3.0)
        hit = first_blowup(sol)
        expected = math.pi / math.sqrt(k)
        assert hit.is_finite
        assert abs(hit.time - expected) < 1e-8, f"triple zero at {hit.time}"

    @pytest.mark.parametrize("delta", np.geomspace(1e-7, 1e-2, 41))
    def test_split_pair_of_zeros(self, delta):
        # Q = diag(1, 1 + delta): the zeros pi/sqrt(1 + delta) and pi are
        # close enough to share a cell of a 2048-point grid, where det N
        # changes sign twice
        sol = integrate_jacobi(np.zeros((2, 2)), np.eye(2), np.diag([1.0, 1.0 + delta]), 1.1 * math.pi)
        assert abs(first_blowup(sol).time - math.pi / math.sqrt(1.0 + delta)) < 1e-12

    @pytest.mark.parametrize("seed", range(40))
    def test_perturbed_cluster(self, seed):
        # kappa I + eps P, n = 5: the zero of order 5 splits into a cluster,
        # the first at pi/sqrt(lambda_max(Q))
        rng = np.random.default_rng(seed)
        P = rng.normal(size=(5, 5))
        Q = rng.uniform(0.5, 4.0) * np.eye(5) + (1e-3, 1e-4)[seed % 2] * (P + P.T) / 2.0
        expected = math.pi / math.sqrt(np.linalg.eigvalsh(Q)[-1])
        sol = integrate_jacobi(np.zeros((5, 5)), np.eye(5), Q, 1.2 * expected)
        assert abs(first_blowup(sol).time - expected) < 1e-12

    @given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-3.0, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_is_scale_free(self, ka, kb, p):
        # s t(s^4 kappa_a, s^2 kappa_b) = t(kappa_a, kappa_b): the balanced H
        # of the scaled system is s times that of the first
        tbar = blowup_time_kab(ka, kb)
        assume(tbar.is_finite and tbar.time < 100.0)
        s, t_max = 10.0**p, 1.05 * tbar.time + 0.1
        want = first_blowup(integrate_jacobi(A_STEP, B_STEP, np.diag([ka, kb]), t_max)).time
        got = first_blowup(integrate_jacobi(A_STEP, B_STEP, np.diag([ka * s**4, kb * s**2]), t_max / s)).time
        assert abs(s * got - want) <= 1e-12 * want, f"s = {s!r}: {s * got!r} vs {want!r}"

    def test_simple_zero_matches_scalar_model(self):
        ka, kb = -3.0, 4.0
        sol = integrate_jacobi(A_STEP, B_STEP, np.diag([ka, kb]), t_max=9.0)
        hit = first_blowup(sol)
        assert hit.is_finite
        assert abs(hit.time - blowup_time_kab(ka, kb).time) < 1e-7

    def test_flat_system_never_blows_up(self):
        sol = integrate_jacobi(A_STEP, B_STEP, np.zeros((2, 2)), t_max=40.0)
        assert not first_blowup(sol).is_finite

    def test_negative_coefficient_never_blows_up(self):
        sol = integrate_jacobi(
            np.zeros((2, 2)), np.eye(2), -np.eye(2), t_max=30.0
        )
        assert not first_blowup(sol).is_finite

    def test_minimum_with_a_crossing_is_refined_on_det(self):
        # |N| ~ 5e9 at the zero: a sigma_min minimum and a det crossing
        # shared their onset here, and the slope polish of the minimum put
        # the zero far off the model time
        ka, kb = 0.3668975109466004, -4.076784912195905
        tbar = blowup_time_kab(ka, kb).time
        t_max = 1.05 * tbar + 0.1
        sol = integrate_jacobi(A_STEP, B_STEP, np.diag([ka, kb]), t_max)
        hit = first_blowup(sol)
        assert abs(hit.time - tbar) < 1e-5, f"{hit.time} vs {tbar}"

    def test_zero_on_a_step_end_is_refined(self):
        # at t_max = 2 t* the zero sits on a step's end: the pass reads the
        # start phase, pi - 4e-16, as not past the cut, and past it on both
        # ends of the refinement; first_blowup raised Brent's bare
        # "f(a) and f(b) must have different signs" where the wedge route
        # took the end nearer the zero
        A = [[0.03824695529682801, 0.03597943410408034], [0.08605031644208315, -0.040508906764290795]]
        B = [[1.08676461043891, 0.8212899064666306], [0.8212899064666306, 0.6980979412493531]]
        Q = [[2.791620474364912, -0.7449672102012805], [-0.7449672102012805, 4.511870072781947]]
        t_max = 2.885360772989057
        assert first_blowup(integrate_jacobi(A, B, Q, t_max)).time == 1.4426803864945286
        assert wedge_first_zero(A, B, Q, t_max).time == 1.4426803864945286

    @pytest.mark.parametrize("past, end", [(lambda s: s + 1e-16, 0.0), (lambda s: s - 2.0, 0.5), (lambda s: -1e-16 - s, 0.0)])
    def test_refinement_with_both_ends_on_one_side_takes_the_nearer(self, past, end):
        assert riccati._refine(past, 0.5, 3.0) == end

    def test_step_cap_raises_before_the_first_step(self):
        # 1.3e7 steps of pi/4 turn: about 18 minutes without the cap
        sol = integrate_jacobi(np.zeros((1, 1)), np.eye(1), -1e8 * np.eye(1), t_max=1000.0)
        start = time.perf_counter()
        with pytest.raises(UnverifiableError, match="steps"):
            first_blowup(sol)
        assert time.perf_counter() - start < 0.1

    def test_indefinite_b_is_rejected(self):
        # the phases may move back: B = Q = -I was reported to blow up at pi
        sol = integrate_jacobi(np.zeros((2, 2)), -np.eye(2), -np.eye(2), t_max=5.0)
        with pytest.raises(ValueError, match="positive semidefinite"):
            first_blowup(sol)

    def test_identically_singular_n_is_unverifiable(self):
        # N = diag(sin t, 0): det N vanishes on all of (0, t_max]
        sol = integrate_jacobi(np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), t_max=5.0)
        with pytest.raises(UnverifiableError, match="stays at 0"):
            first_blowup(sol)

    def test_phases_without_a_gap_are_unverifiable(self, monkeypatch):
        # the stub spreads 64 phases over [0, pi) at every frame: no gap is
        # wider than pi/64, and no halving of the step can make 2 h rate
        # smaller than that before it passes pi/n, the widest gap n phases
        # must leave
        spread = np.arange(64) * math.pi / 64
        monkeypatch.setattr(riccati, "_phases", lambda F: (np.linalg.qr(F)[0], np.repeat(spread[:, None], len(F), axis=1)))
        sol = integrate_jacobi(np.zeros((2, 2)), np.eye(2), np.eye(2), t_max=4.0)
        with pytest.raises(UnverifiableError, match="leave no gap"):
            first_blowup(sol)

    @pytest.mark.parametrize("n", [8, 16])
    def test_repeated_halving(self, n):
        # Q = diag(j^2), j = 1..n: the phases at t are j t mod pi, which
        # near t = pi/n spread over [0, pi) with no gap much wider than pi/n,
        # below 2 h rate; the pass halves its step there, more than once,
        # and the first zero is the top frequency's, at pi/n
        Q = np.diag(np.arange(1.0, n + 1.0) ** 2)
        sweeps, sweep = [], riccati._sweep
        with pytest.MonkeyPatch.context() as mp:  # one sweep per step size
            mp.setattr(riccati, "_sweep", lambda X, h, *a: sweeps.append(h) or sweep(X, h, *a))
            hit = first_blowup(integrate_jacobi(np.zeros((n, n)), np.eye(n), Q, t_max=1.0))
        assert abs(hit.time - math.pi / n) <= 1e-12 * math.pi / n
        assert len(sweeps) - 1 >= math.log2(n) - 1, f"{len(sweeps) - 1} halvings"

    @pytest.mark.parametrize("system", ["typeI", "qhf-d2"])
    def test_phase_motion_stays_below_the_turn(self, system):
        # measured from the cut, which no phase passes, the sorted phases move
        # no more than the phases themselves: forward by at most
        # h lambda_max(S_u) <= h ||H_u||_2 a step
        sol = _system(system)
        Hc, rate = _balanced(sol.H)
        assert rate <= np.linalg.norm(Hc, 2) * (1.0 + 1e-12)
        blocks, turns = [], riccati._turns
        with pytest.MonkeyPatch.context() as mp:  # each block of steps the pass reads
            mp.setattr(riccati, "_turns", lambda phi, phi1, cut, t, h, first: blocks.append((phi, phi1, cut, t, h)) or turns(phi, phi1, cut, t, h, first))
            first_blowup(sol)
        for phi, phi1, cut, t, h in blocks:
            step = np.sort((phi1 - cut) % math.pi, axis=0) - np.sort((phi - cut) % math.pi, axis=0)
            assert (step >= -1e-14).all() and (step <= h * rate + 1e-14).all(), f"step at t = {t}"


class TestSteppedScan:
    """Frames of the phase pass, stepped by exp(h H_u), against exp(tH) pointwise."""

    @pytest.mark.parametrize("system", ["typeI", "qhf-d2"])
    def test_matches_pointwise_propagator(self, system):
        # H_u = D H D^-1 for the diagonal D of _balanced, read off the ratios
        # H_u[i, j] / H[i, j] = d_i / d_j (to a factor on each coupled set of
        # coordinates, which keeps the plane), so the frames span the plane of
        # D exp(tH)[:, :n]
        sol = _system(system)
        Hc, rate = _balanced(sol.H)
        i, j = np.nonzero(sol.H)
        e = np.eye(len(sol.H))
        D = np.diag(np.exp(np.linalg.lstsq(e[i] - e[j], np.log(Hc[i, j] / sol.H[i, j]), rcond=None)[0]))
        steps = riccati._step_count(sol.t_max, rate)
        h = sol.t_max / steps
        for k0, F in riccati._sweep(Hc, h, steps, np.eye(2 * sol.n, sol.n), riccati._FRAME_LOG_GROWTH, riccati._WEDGE_BLOCK):
            for t, Y in zip((k0 + np.arange(len(F))) * h, riccati._phases(F)[0]):
                X = np.linalg.qr(D @ np.vstack([sol.M(t), sol.N(t)]))[0]
                assert np.abs(Y @ Y.T - X @ X.T).max() <= 1e-12, f"frame at t = {t}"


# ----------------------------------------------------------------------
# Test Class: Riccati quotient
# ----------------------------------------------------------------------

class TestRiccatiSolution:

    def test_flat_quotient_closed_form(self):
        sol = integrate_jacobi(A_STEP, B_STEP, np.zeros((2, 2)), t_max=3.0)
        for t in (0.5, 1.5, 2.5):
            Vref = np.array(
                [[12.0 / t**3, -6.0 / t**2], [-6.0 / t**2, 4.0 / t]]
            )
            assert np.abs(sol.V(t) - Vref).max() < 1e-7, f"V({t}) off"
        # trace against the b-block is the scalar comparison quantity
        t = 2.0
        assert abs(np.trace(B_STEP @ sol.V(t)) - 4.0 / t) < 1e-9

    def test_quotient_is_symmetric(self):
        # start past the 1/t^3 spike at the origin, where the absolute
        # residual measures interpolation error against huge entries
        sol = integrate_jacobi(A_STEP, B_STEP, np.diag([1.0, 2.0]), t_max=2.0)
        worst = max(float(np.linalg.norm(sol.V(t) - sol.V(t).T)) for t in np.linspace(0.8, 2.0, 10))
        assert worst < 1e-8, f"symmetry residual {worst}"

    def test_differential_equation_residual(self):
        sol = integrate_jacobi(A_STEP, B_STEP, np.diag([-1.0, 3.0]), t_max=2.0)
        h, worst = 1e-5, 0.0
        for t in (0.5, 1.0, 1.5):
            # V' + A^T V + V A + Q + V B V, V' by centered difference
            V, dV = sol.V(t), (sol.V(t + h) - sol.V(t - h)) / (2.0 * h)
            R = dV + sol.A.T @ V + V @ sol.A + sol.Q + V @ sol.B @ V
            worst = max(worst, float(np.linalg.norm(R)))
        assert worst < 1e-5, f"Riccati residual {worst}"

    def test_inverse_norm_vanishes_at_origin(self):
        sol = integrate_jacobi(A_STEP, B_STEP, np.diag([1.0, 1.0]), t_max=1.0)
        # |V^{-1}| = |N M^{-1}|, from (M, N) directly: V itself diverges at 0
        norms = [float(np.linalg.norm(np.linalg.solve(sol.M(t).T, sol.N(t).T).T)) for t in (0.5, 0.1, 0.02)]
        assert norms[0] > norms[1] > norms[2], f"inverse norms {norms}"
        assert norms[2] < 0.1


# ----------------------------------------------------------------------
# Test Class: stacked propagation
# ----------------------------------------------------------------------

def _scaling_exponent(X):
    return max(0, math.frexp(float(np.abs(X).sum(axis=0).max()))[1] + 1)


class TestStackedPropagation:

    @pytest.mark.parametrize("n,dtype", [(2, float), (6, float), (12, float), (6, complex)])
    def test_stack_equals_the_matrix_loop_bit_for_bit(self, n, dtype):
        # 1-norms over 2^-3..2^9: scaling exponents 0..11 in no order, and a zero matrix
        rng = np.random.default_rng(n)
        X = rng.standard_normal((40, n, n)).astype(dtype)
        if dtype is complex:
            X += 1j * rng.standard_normal((40, n, n))
        X *= 2.0 ** rng.uniform(-3.0, 9.0, (40, 1, 1)) / np.abs(X).sum(axis=1).max(axis=1)[:, None, None]
        X[5] = 0.0
        s = [_scaling_exponent(x) for x in X]
        assert len(set(s)) >= 8 and s != sorted(s) and s[5] == 1
        E = _expm(X.reshape(4, 10, n, n))
        assert E.shape == (4, 10, n, n) and E.dtype == X.dtype
        for k, x in enumerate(X):
            assert E.reshape(X.shape)[k].tobytes() == _expm(x).tobytes(), f"member {k}, s = {s[k]}"
        assert np.array_equal(E.reshape(X.shape)[5], np.eye(n))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_member_turns_only_its_own_slot_to_nan(self, bad):
        X = 0.7 * np.random.default_rng(1).standard_normal((7, 6, 6))
        X[3, 2, 4] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E = _expm(X)
        assert np.isnan(E[3]).all()
        for k in (0, 1, 2, 4, 5, 6):
            assert E[k].tobytes() == _expm(X[k]).tobytes()

    @pytest.mark.parametrize("name", ["typeI", "qhf"])
    def test_quotient_at_an_array_of_times_equals_the_time_loop(self, name):
        sol = _system(name)
        t = np.array([0.9, 1e-3, 0.35, 1.4, 0.05])
        M, N = sol._blocks(t)
        V = sol.V(t)
        assert M.shape == N.shape == V.shape == (5, sol.n, sol.n)
        for k, tk in enumerate(t):
            Mk, Nk = sol._blocks(tk)
            assert M[k].tobytes() == Mk.tobytes() and N[k].tobytes() == Nk.tobytes()
            assert V[k].tobytes() == sol.V(tk).tobytes()


# ----------------------------------------------------------------------
# Test Class: constant-coefficient finiteness
# ----------------------------------------------------------------------

class TestFiniteBlowupConstant:

    @pytest.mark.parametrize(
        "ka,kb",
        [(-3.0, 4.0), (1.0, 0.0), (0.5, -3.0), (2.0, 2.0),
         (-1.0, -1.0), (-0.5, 1.0), (0.0, -4.0), (0.0, 4.0),
         (0.0, 0.0), (-1.0, 2.0), (-4.0, 4.0)],
    )
    def test_matches_predicate_on_diagonal_pairs(self, ka, kb):
        got = finite_blowup_constant(A_STEP, B_STEP, np.diag([ka, kb]))
        assert got == finiteness_predicate(ka, kb), (
            f"classification at ({ka}, {kb}): {got}"
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_rotated_flat_pair_never_blows_up(self, seed):
        # Q = 0: det N = t^4/12, and H is nilpotent with one 4x4 block; the
        # fourth power of H is rounding noise of order 1e-19 (seed 7)
        S, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(2, 2)))
        assert not finite_blowup_constant(S @ A_STEP @ S.T, S @ B_STEP @ S.T, np.zeros((2, 2)))

    def test_isotropic_cases(self):
        assert finite_blowup_constant(np.zeros((3, 3)), np.eye(3), np.eye(3))
        assert not finite_blowup_constant(np.zeros((3, 3)), np.eye(3), -np.eye(3))
        assert not finite_blowup_constant(np.zeros((3, 3)), np.eye(3), np.zeros((3, 3)))

    def test_invariant_under_orthogonal_conjugation(self):
        # the classification must not depend on the basis
        rng = np.random.default_rng(3)
        for ka, kb in ((-3.0, 4.0), (1.0, 0.0), (-1.0, -1.0)):
            Qd = np.diag([ka, kb])
            S, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            got = finite_blowup_constant(
                S @ A_STEP @ S.T, S @ B_STEP @ S.T, S @ Qd @ S.T
            )
            assert got == finiteness_predicate(ka, kb), f"conjugated ({ka}, {kb})"


# ----------------------------------------------------------------------
# Test Class: 2x2 systems, eigenphases off the compound sweep
# ----------------------------------------------------------------------

# The first zero of the type-I pair with tm = 1 and tp = k + delta, k - delta,
# for k = 2, 3, 4 and delta in geomspace(1e-9, 1e-2, 25), in that order:
# tools/tbar_reference.py at 50 digits, rounded to float.
NEAR_RESONANT_REF = (
    "0x1.921fb542930a9p+1 0x1.91efb764f9ecdp+1 0x1.921fb540f5aedp+1 "
    "0x1.91e3ace4afca0p+1 0x1.921fb53dcc996p+1 0x1.91d49d019139cp+1 "
    "0x1.921fb5379cf24p+1 0x1.91c1c5b3934f1p+1 0x1.921fb52b81322p+1 "
    "0x1.91aa34463812dp+1 0x1.921fb513cdecdp+1 0x1.918cb924fa34fp+1 "
    "0x1.921fb4e56a33dp+1 0x1.9167d899933c3p+1 0x1.921fb48a9d5b0p+1 "
    "0x1.9139b7bafb8dap+1 0x1.921fb3d8e33fdp+1 0x1.9100049c2770bp+1 "
    "0x1.921fb27d03eb2p+1 0x1.90b7d89192bc3p+1 0x1.921fafd41c409p+1 "
    "0x1.905d932198fcap+1 0x1.921faa9f58f2bp+1 0x1.8fecabe7441e7p+1 "
    "0x1.921fa06ead902p+1 0x1.8f5f795dbbb74p+1 0x1.921f8c7ca1c46p+1 "
    "0x1.8eaeea3f88e39p+1 0x1.921f65726639bp+1 0x1.8dd22efba4feep+1 "
    "0x1.921f19087113fp+1 0x1.8cbe50f2c545ep+1 0x1.921e8377a953cp+1 "
    "0x1.8b65b62b3e33dp+1 0x1.921d5eb9f2a66p+1 0x1.89b792ce7bd4bp+1 "
    "0x1.921b21c509f88p+1 0x1.879f4fb626483p+1 0x1.9216c0711ee32p+1 "
    "0x1.8503f9a120455p+1 0x1.920e2e2c31f16p+1 0x1.81c7e4e8f36e1p+1 "
    "0x1.91fd695aa849bp+1 0x1.7dc8df8a13fa1p+1 0x1.91dc9ef21e092p+1 "
    "0x1.78e19fb777a82p+1 0x1.919c8f3e73262p+1 0x1.72edb3b439d3fp+1 "
    "0x1.911fa216bbedep+1 0x1.6bd23e90a091ap+1 0x1.921fb54322f79p+1 "
    "0x1.920179a6b7cc5p+1 0x1.921fb5420f651p+1 0x1.91f9e3cbddbc7p+1 "
    "0x1.921fb53ff4017p+1 0x1.91f066bceab82p+1 0x1.921fb53bd43cbp+1 "
    "0x1.91e4883e3fe2ap+1 0x1.921fb533c1bcap+1 0x1.91d5af6a73981p+1 "
    "0x1.921fb523f4e3bp+1 0x1.91c31d0264d53p+1 0x1.921fb50507bdbp+1 "
    "0x1.91abe1d08105ap+1 0x1.921fb4c87f2d1p+1 0x1.918ed2a51d25ap+1 "
    "0x1.921fb452031a8p+1 0x1.916a795433051p+1 0x1.921fb36a18e06p+1 "
    "0x1.913d01f861aa0p+1 0x1.921fb1a429133p+1 0x1.9104239524d0dp+1 "
    "0x1.921fae2ba6c79p+1 0x1.90bd03003b3efp+1 0x1.921fa76089807p+1 "
    "0x1.90640ec57c24fp+1 0x1.921f9a1480479p+1 0x1.8ff4d284f97f3p+1 "
    "0x1.921f800da8b6fp+1 0x1.8f69c02a7142ep+1 0x1.921f4d1c46ae2p+1 "
    "0x1.8ebbed6f14eecp+1 0x1.921ee9661fcd9p+1 0x1.8de2c49f8316bp+1 "
    "0x1.921e263bd6c0ap+1 0x1.8cd3a92638246p+1 0x1.921ca83edabf4p+1 "
    "0x1.8b8193e4e2925p+1 0x1.9219bca0cde57p+1 0x1.89dcb2eb44d53p+1 "
    "0x1.92140587f5558p+1 0x1.87d2274bfaf2dp+1 0x1.9208d6b10c9bep+1 "
    "0x1.854c198eebb14p+1 0x1.91f2f6bebe71ap+1 0x1.82329628b279ep+1 "
    "0x1.91c8339339833p+1 0x1.7e6e0e595d0c0p+1 0x1.9174b55752a09p+1 "
    "0x1.79ed210b55513p+1 0x1.921fb5436aee0p+1 0x1.92096eab47f73p+1 "
    "0x1.921fb5429c403p+1 0x1.9203d7e60941ap+1 0x1.921fb54107b58p+1 "
    "0x1.91fcda27084dfp+1 0x1.921fb53defe1ep+1 0x1.91f41b5e887eap+1 "
    "0x1.921fb537e201dp+1 0x1.91e92ae4fa342p+1 0x1.921fb52c085f2p+1 "
    "0x1.91db7bd0ae2b9p+1 0x1.921fb514d6829p+1 0x1.91ca5de115c92p+1 "
    "0x1.921fb4e770163p+1 0x1.91b4f4a470b12p+1 0x1.921fb48e93080p+1 "
    "0x1.919a2c682a877p+1 0x1.921fb3e0a35bep+1 0x1.9178ac6a6a069p+1 "
    "0x1.921fb28c2f7fap+1 0x1.914ec5a115fc4p+1 0x1.921faff1cdbe0p+1 "
    "0x1.911a5d495db69p+1 0x1.921faad977a6ap+1 0x1.90d8d248b42a3p+1 "
    "0x1.921fa0e07039ap+1 0x1.9086dc42cc7b8p+1 0x1.921f8d5b4c999p+1 "
    "0x1.9020632eb4002p+1 0x1.921f67263b992p+1 0x1.8fa04e3f80f8ap+1 "
    "0x1.921f1c5d81cc5p+1 0x1.8f004956e16a3p+1 0x1.921e89fd5d485p+1 "
    "0x1.8e388151def64p+1 0x1.921d6b7dfbeb7p+1 0x1.8d3f5a1684d26p+1 "
    "0x1.921b3ac128090p+1 0x1.8c0926d3bf72fp+1 0x1.9216f1566e278p+1 "
    "0x1.8a87f834c0ff6p+1 0x1.920e8dd8ffa1bp+1 0x1.88abaab243cffp+1 "
    "0x1.91fe24823707ep+1 0x1.86628aabe0d0ap+1 0x1.91de0cdbbe826p+1 "
    "0x1.839b3731b8ea9p+1 0x1.919f5a1035e3cp+1 0x1.80490a83a290ep+1 "
).split()


def _near_resonant_pairs():
    for k in (2, 3, 4):
        for delta in np.geomspace(1e-9, 1e-2, 25):
            for tp in (k + delta, k - delta):
                yield -((tp * tp - 1.0) ** 2), 2.0 * (tp * tp + 1.0)


def _pluecker(Y):
    """The six 2x2 minors of a 4x2 frame, rows (0,1), (0,2), (0,3), (1,2), (1,3), (2,3)."""
    return np.array([Y[i, 0] * Y[j, 1] - Y[i, 1] * Y[j, 0] for i, j in combinations(range(4), 2)])


class TestWedgePropagation:
    """det N zeros of 2x2 systems by the phase rule, on the compound sweep."""

    @pytest.mark.parametrize("ka,kb", [(-3.0, 4.0), (1.0, 0.0), (1.5, -3.2)])
    def test_first_zero_matches_scalar_model(self, ka, kb):
        tbar = blowup_time_kab(ka, kb).time
        hit = wedge_first_zero(A_STEP, B_STEP, np.diag([ka, kb]), t_max=1.2 * tbar)
        assert hit.is_finite
        assert abs(hit.time - tbar) < 1e-12 * tbar, f"wedge zero {hit.time} vs scalar {tbar} at ({ka}, {kb})"

    def test_hyperbolic_growth_does_not_drown_the_zero(self):
        # by t = 13 the direct (M, N) representation has condition number
        # ~1e11 and det N is meaningless; the compound vector is not
        ka, kb = 0.2785401442077484, -4.338939814521494
        tbar = blowup_time_kab(ka, kb).time
        assert tbar > 12.0
        hit = wedge_first_zero(A_STEP, B_STEP, np.diag([ka, kb]), t_max=1.1 * tbar)
        assert abs(hit.time - tbar) < 1e-12 * tbar

    def test_zero_is_as_accurate_as_its_start_vector(self):
        # the zero is refined from the sweep's vector at the start of its step:
        # 7.9e-13 relative here against the 50-digit tools/tbar_reference.py
        # value, where the det N sign scan was 7.9e-10 off
        ka, kb = -2.275768649837373, 3.0690415149607126
        ref = 26.765601149130595169238496444094401156136934163393
        hit = wedge_first_zero(A_STEP, B_STEP, np.diag([ka, kb]), 1.05 * blowup_time_kab(ka, kb).time + 0.1)
        assert abs(hit.time - ref) <= 1e-12 * ref

    def test_no_sign_change_without_blowup(self):
        zeros, near = wedge_det_sign_changes(A_STEP, B_STEP, np.diag([-1.0, -1.0]), t_max=50.0)
        assert zeros == 0
        assert near > 1e-4, f"the largest phase grazes pi: {near}"

    def test_infinite_marker_when_no_zero_in_window(self):
        hit = wedge_first_zero(A_STEP, B_STEP, np.zeros((2, 2)), t_max=10.0)
        assert not hit.is_finite

    def test_long_horizon_finds_the_first_zero(self):
        # t_max = 300 holds about 260 zeros; a step of the det N sign scan
        # that spanned several of them saw an even number of sign changes
        hit = wedge_first_zero(A_STEP, B_STEP, np.diag([2.0, 30.0]), t_max=300.0)
        assert abs(hit.time - 1.14336639324) < 1e-9
        assert abs(hit.time - blowup_time_kab(2.0, 30.0).time) < 1e-12

    def test_double_zero_is_seen(self):
        # A = 0, B = Q = I: det N = sin(t)^2, a double zero at pi, where det N
        # never changes sign and the sign scan reported no zero
        zero, eye = np.zeros((2, 2)), np.eye(2)
        assert abs(wedge_first_zero(zero, eye, eye, t_max=4.0).time - math.pi) <= 1e-12
        assert wedge_det_sign_changes(zero, eye, eye, t_max=4.0)[0] == 2

    def test_near_resonant_pairs_match_the_reference(self):
        # tp/tm = k +- delta: up to four zeros of det N within a step; the sign
        # scan was off by more than 1e-9 on 91 of these pairs and found no
        # zero on 3
        for (ka, kb), ref in zip(_near_resonant_pairs(), map(float.fromhex, NEAR_RESONANT_REF), strict=True):
            hit = wedge_first_zero(A_STEP, B_STEP, np.diag([ka, kb]), 1.1 * math.pi)
            assert hit.is_finite and abs(hit.time - ref) <= 2e-9 * ref, f"({ka!r}, {kb!r}): {hit.time!r} vs {ref!r}"

    @pytest.mark.parametrize("s", [1.0, 1e2, 1e3, 1e4, 1e6])
    def test_scaled_pair_is_relative(self, s):
        # (-3 s^4, 4 s^2) blows up at tbar(-3, 4) / s; one scale c for H made
        # the sign scan early by 4.2e-8 from s = 1e3 on, and first_blowup
        # raised UnverifiableError there
        tbar = blowup_time_kab(-3.0, 4.0).time / s
        Q, t_max = np.diag([-3.0 * s**4, 4.0 * s**2]), 1.05 * tbar + 0.1 / s
        for hit in (wedge_first_zero(A_STEP, B_STEP, Q, t_max), first_blowup(integrate_jacobi(A_STEP, B_STEP, Q, t_max))):
            assert abs(hit.time - tbar) <= 1e-12 * tbar

    @pytest.mark.parametrize("hermitian", [False, True])
    def test_closed_form_phases_match_the_frame_eigenphases(self, hermitian):
        # the eigenphases of (M + iN)(M - iN)^-1 by numpy, on 100 planes
        # exp(H) [I; 0] of random (complex) Hamiltonian systems
        rng = np.random.default_rng(5)
        for _ in range(100):
            A, B = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
            Q = rng.normal(size=(2, 2)) + (1j * rng.normal(size=(2, 2)) if hermitian else 0.0)
            B, Q = B + B.T, Q + Q.conj().T
            Y = expm(np.block([[-A.T, -Q], [B, A]]))[:, :2]
            U = (Y[:2] + 1j * Y[2:]) @ np.linalg.inv(Y[:2] - 1j * Y[2:])
            want = np.sort(np.angle(np.linalg.eigvals(U)) / 2.0 % math.pi)
            got = np.sort(riccati._wedge_phases(_pluecker(Y)))
            gap = np.minimum(np.abs(got - want), math.pi - np.abs(got - want))
            assert gap.max() < 1e-9, f"{got} vs {want}"

    @pytest.mark.parametrize("qa,qb,beta", [(-14.38, 13.85, 6.27), (-2.0, 5.0, 1.5), (3.0, 3.0, 0.0)])
    def test_hermitian_q_matches_its_real_4x4_equivalent(self, qa, qb, beta):
        # the complex pair on (a2 + i a3, b2 + i b3) of the QHF system: as a
        # real 4x4 system its det N is |det N_c|^2, a double zero
        Q_c = np.array([[qa, 1j * beta], [-1j * beta, qb]])
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        Q_r = np.kron(Q_c.real, np.eye(2)) + np.kron(Q_c.imag, J)
        A_r, B_r = np.kron(A_STEP, np.eye(2)), np.kron(B_STEP, np.eye(2))
        hit = wedge_first_zero(A_STEP, B_STEP, Q_c, t_max=4.0)
        oracle = first_blowup(integrate_jacobi(A_r, B_r, Q_r, 4.0))
        assert hit.is_finite and abs(hit.time - oracle.time) < 1e-8, f"{hit.time} vs {oracle.time}"

    def test_asymmetric_real_q_is_rejected(self):
        # it was propagated as given and reported no zero
        with pytest.raises(ValueError, match="Q is not symmetric"):
            wedge_first_zero(A_STEP, B_STEP, np.array([[1.0, 0.5], [0.0, 1.0]]), t_max=4.0)

    @pytest.mark.parametrize("route", [wedge_first_zero, wedge_det_sign_changes])
    def test_indefinite_b_is_rejected(self, route):
        # as in first_blowup: the phases may move back, which the 2x2 route
        # reported as "stays at 0 or moves back"
        with pytest.raises(ValueError, match="positive semidefinite"):
            route(np.zeros((2, 2)), np.diag([1.0, -1.0]), np.eye(2), t_max=5.0)

    def test_non_hermitian_complex_q_is_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            wedge_first_zero(A_STEP, B_STEP, np.array([[1.0, 1j], [1j, 1.0]]), t_max=4.0)

    def test_oscillation_beyond_the_step_cap_is_unverifiable(self):
        # 1e9 steps would be needed to resolve this oscillation
        with pytest.raises(UnverifiableError, match="steps"):
            wedge_det_sign_changes(A_STEP, B_STEP, np.diag([1.0, 1e4]), t_max=1e7)


# ----------------------------------------------------------------------
# Test Class: blocked additive-compound pass
# ----------------------------------------------------------------------

def _minors(E):
    """Second compound of a 4x4 matrix: its 2x2 minors, pairs in lexicographic order."""
    pairs = list(combinations(range(4), 2))
    return np.array(
        [[E[i, k] * E[j, l] - E[i, l] * E[j, k] for k, l in pairs] for i, j in pairs]
    )


def _pointwise_wedge(Q, t_max, steps=4000):
    """The det N sign scan stepped one step at a time: (first zero, sign changes).

    E2 is the minors of expm(h H), the vector is rescaled after every step,
    and the first sign change is refined by Brent's method from the vector
    of the step before.
    """
    H = np.block([[-A_STEP.T, -Q], [B_STEP, A_STEP]])
    h = t_max / steps
    E2 = _minors(expm(h * H))
    w = np.eye(6)[0]
    first, changes, prev = math.inf, 0, 0.0
    for k in range(1, steps + 1):
        w_next = E2 @ w
        w_next /= np.abs(w_next).max()
        s = np.sign(w_next[5])
        if prev and s and s != prev:
            changes += 1
            if changes == 1:
                w0 = w
                first = (k - 1) * h + brentq(
                    lambda dt: (_minors(expm(dt * H)) @ w0)[5], 0.0, h, xtol=1e-12
                )
        if s:
            prev = s
        w = w_next
    return first, changes


def _stepwise_sweep(E2, K, steps):
    """``riccati._sweep`` of a Pluecker vector one step at a time: each vector is E2
    times the one before, rescaled by its largest entry, in runs of 256 steps; no
    blocks."""
    w = np.eye(6, dtype=E2.dtype)[0]
    for k0 in range(0, steps, 256):
        n = min(256, steps - k0)
        W = np.empty((6, n + 1), E2.dtype)
        W[:, 0] = w
        for i in range(n):
            v = E2 @ W[:, i]
            W[:, i + 1] = v / np.abs(v).max()
        yield k0, W.T
        w = W[:, -1]


def _chunked_wedge_sweep(E2, K, steps):
    """The blocked sweep in runs of one block: powers by doubling, a new array per
    block, each start moved onto the Pluecker quadric by its Newton step; the
    arithmetic of ``riccati._sweep`` on a Pluecker vector."""
    powers = [E2]
    while len(powers) < K:
        n = len(powers)
        powers += list(np.matmul(np.array(powers[: min(n, K - n)]), powers[n - 1]))
    stacked_t, w = np.reshape(powers, (6 * K, 6)).T.copy(), np.eye(6, dtype=E2.dtype)[0]
    for k0 in range(0, steps, K):
        W = np.concatenate((w[None], (w @ stacked_t).reshape(K, 6)))
        v = W[K].tolist()
        top = max(abs(x) for x in v)
        v = [x / top for x in v]
        g = [v[5], -v[4], v[3], v[2], -v[1], v[0]]
        c = (v[0] * v[5] - v[1] * v[4] + v[2] * v[3]) / sum([x * x.conjugate() for x in v]).real
        W[K] = w = np.array([x - c * y.conjugate() for x, y in zip(v, g)])
        yield k0, W[: steps - k0 + 1].copy()


def _pass_with(sweep, Q, t_max):
    """(``_wedge_pass`` result or its exception class, (K, steps) of the sweep) with
    ``riccati._sweep``, or with ``sweep(E2, K, steps)`` in its place: E2 = exp(h H2)
    and K the block length that ``riccati._sweep`` takes."""
    shape, real = [], riccati._sweep

    def spy(X, h, steps, y, log_growth, block):
        with np.errstate(all="ignore"):
            E2 = _expm(h * X)
        K = max(1, min(block, steps, int(log_growth / math.log(max(math.e, np.abs(E2).sum(axis=1).max())))))
        shape.append((K, steps))
        # the real sweep raises on a non-finite E2
        return real(X, h, steps, y, log_growth, block) if sweep is real or not np.isfinite(E2).all() else sweep(E2, K, steps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(riccati, "_sweep", spy)
        try:
            result = riccati._wedge_pass(A_STEP, B_STEP, Q, t_max, first=False)
        except FloatingPointError as exc:
            result = type(exc)
    return result, (shape or [(None, None)])[0]


def _wedge_cases(family, n, rng):
    """n seeded (Q, t_max) of one family of sweep cases."""
    for _ in range(n):
        ka, kb = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-2.0, 3.0, 2)
        if family == "horizon-1000":
            ka, kb = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-2.0, 1.5, 2)
            yield np.diag([ka, kb]), 1000.0
        elif family == "growth-limited":
            # log ||E2|| per step is above 300/128, so blocks are shorter
            ka, kb = rng.uniform(-5.0, 5.0), -(10.0 ** rng.uniform(3.5, 4.5))
            yield np.diag([ka, kb]), 10.0
        elif family == "hermitian":
            c = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-2.0, 1.0)
            yield np.array([[ka, c], [c.conjugate(), kb]]) / 10.0 ** rng.uniform(0.0, 2.0), float(rng.uniform(0.5, 60.0))
        elif family == "odd-steps":
            yield np.diag([ka, kb]), float(rng.uniform(5.0, 200.0))
        else:
            tbar = blowup_time_kab(ka, kb)
            yield np.diag([ka, kb]), 1.05 * tbar.time + 0.1 if tbar.is_finite else 1000.0


class TestBlockedWedgePass:
    """The blocked additive-compound pass against stepwise routes."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("t", [0.05, 0.1, 0.25])
    def test_additive_compound_generates_the_minors(self, seed, t):
        H = np.random.default_rng(seed).normal(size=(4, 4))
        C = _minors(expm(t * H))
        E2 = expm(t * _additive_compound(H))
        assert np.abs(E2 - C).max() < 1e-14 * np.abs(C).max()

    def test_agrees_with_pointwise_stepping_on_a_grid(self):
        # the det N sign scan of 4000 steps sees every zero here: all are simple
        grid = np.linspace(-4.75, 4.75, 6)
        n_finite = 0
        for ka in grid:
            for kb in grid:
                Q = np.diag([ka, kb])
                tbar = blowup_time_kab(ka, kb)
                t_max = 1.05 * tbar.time + 0.1 if tbar.is_finite else 1000.0
                first, changes = _pointwise_wedge(Q, t_max)
                hit = wedge_first_zero(A_STEP, B_STEP, Q, t_max)
                got, _ = wedge_det_sign_changes(A_STEP, B_STEP, Q, t_max)
                assert got == changes, f"zeros at ({ka}, {kb})"
                if tbar.is_finite:
                    n_finite += 1
                    assert abs(hit.time - first) < 1e-9 * first, f"zero at ({ka}, {kb})"
                else:
                    assert not hit.is_finite and changes == 0
        assert 0 < n_finite < grid.size**2

    @pytest.mark.parametrize("family,n,seed", [("random", 600, 0), ("horizon-1000", 400, 1), ("growth-limited", 300, 2),
                                               ("odd-steps", 300, 3), ("hermitian", 400, 4)])
    def test_sweep_is_bit_identical_to_the_chunked_loop(self, family, n, seed):
        # 2000 passes in all: runs of 4096 steps against runs of one block, the
        # same zeros, closest approach and first zero to the bit
        runs, short, ragged = 0, 0, 0
        for Q, t_max in _wedge_cases(family, n, np.random.default_rng(seed)):
            (got, (K, steps)), (want, _) = _pass_with(riccati._sweep, Q, t_max), _pass_with(_chunked_wedge_sweep, Q, t_max)
            where = f"Q={Q.tolist()} t_max={t_max!r}"
            if isinstance(want, type):
                assert got is want, where
                continue
            assert got[:2] == want[:2] and got[2].time.hex() == want[2].time.hex(), where
            runs += steps > riccati._CHUNK // 6
            short += K < riccati._WEDGE_BLOCK
            ragged += steps > K and steps % K != 0
        if family == "horizon-1000":
            assert runs >= 0.1 * n
        if family == "growth-limited":
            assert short == n
        if family == "odd-steps":
            assert ragged >= 0.5 * n

    @pytest.mark.parametrize("family,n,seed", [("random", 150, 0), ("horizon-1000", 40, 1), ("hermitian", 100, 4)])
    def test_sweep_matches_the_stepwise_loop(self, family, n, seed):
        # the powers E2^1..E2^K and the projected block starts against one
        # product and one rescale a step: the same zeros, and the same first
        # zero and closest approach up to the rounding of the stepwise vectors
        for Q, t_max in _wedge_cases(family, n, np.random.default_rng(seed)):
            (got, _), (want, _) = _pass_with(riccati._sweep, Q, t_max), _pass_with(_stepwise_sweep, Q, t_max)
            where = f"Q={Q.tolist()} t_max={t_max!r}"
            if isinstance(want, type):
                assert got is want, where
                continue
            assert got[0] == want[0] and got[2].is_finite == want[2].is_finite, where
            assert got[2].time == want[2].time or abs(got[2].time - want[2].time) <= 1e-12 * want[2].time, where
            assert abs(got[1] - want[1]) <= 1e-10 or got[1] == want[1], where

    def test_sweep_memory_is_bounded(self):
        # 2^19 steps: the sweep and the cut rule run per 4096 steps, so the
        # peak does not grow with the pass; the det N sign scan held 26 bytes
        # a step (13.6 MB here)
        Q = np.diag([-3.0, 4.0])
        rate = riccati._balanced(np.block([[-A_STEP.T, -Q], [B_STEP, A_STEP]]))[1]
        t_max = (2**19 - 0.5) * riccati._TURN / rate
        wedge_det_sign_changes(A_STEP, B_STEP, Q, t_max=10.0)
        tracemalloc.start()
        try:
            zeros, _ = wedge_det_sign_changes(A_STEP, B_STEP, Q, t_max=t_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert zeros > 0
        assert peak <= 2**21, f"{peak / 2**20:.2f} MB"

    @pytest.mark.parametrize("scale", [1e-3, 0.1, 1.0, 10.0])
    def test_product_exponential_matches_scipy(self, scale):
        for seed in range(20):
            X = scale * np.random.default_rng(seed).normal(size=(6, 6))
            ref = expm(X)
            # both carry rounding of order eps * ||X|| * cond; they agree far inside it
            tol = 1e-13 * max(1.0, np.abs(X).sum(axis=0).max())
            assert np.abs(_expm(X) - ref).max() < tol * np.abs(ref).max(), f"seed {seed}"

    def test_product_exponential_of_non_finite_is_nan(self):
        assert np.isnan(_expm(np.full((6, 6), math.inf))).all()

    @pytest.mark.parametrize("ka,kb", [(1e-3, -5.0), (1e-5, -20.0)])
    def test_refinement_on_halved_steps(self, ka, kb):
        # ||h H2||_2 is 2.8 and 7.0: the Taylor polynomial is taken on a half
        # and a quarter of the step holding the zero; the zero is frozen as
        # float.hex, which the refinement may reach more cheaply, never differently
        tbar = blowup_time_kab(ka, kb).time
        hit = wedge_first_zero(A_STEP, B_STEP, np.diag([ka, kb]), 1.05 * tbar + 0.1)
        assert abs(hit.time - tbar) < 1e-12 * tbar
        assert hit.time.hex() == {-5.0: "0x1.be160262a188fp+7", -20.0: "0x1.15b548876df00p+12"}[kb]

    def test_growth_guard_lowers_the_block(self):
        # log ||E2||_inf ~ 4.2 per step: 128 steps would reach exp(540)
        Q = np.diag([-1.0, -1e4])
        Hc, rate = riccati._balanced(np.block([[-A_STEP.T, -Q], [B_STEP, A_STEP]]))
        h = 1000.0 / math.ceil(1000.0 * rate / riccati._TURN)
        growth = math.log(np.abs(expm(h * _additive_compound(Hc))).sum(axis=1).max())
        assert 50 <= int(300.0 / growth) < riccati._WEDGE_BLOCK
        zeros, near = wedge_det_sign_changes(A_STEP, B_STEP, Q, t_max=1000.0)
        assert zeros == 0
        assert 0.0 < near < math.inf

    def test_large_kappa_minors_cancellation_is_gone(self):
        # the minors of expm(h H) reported sign changes here
        zeros, _ = wedge_det_sign_changes(A_STEP, B_STEP, np.diag([-1.0, -1e5]), t_max=1000.0)
        assert zeros == 0

    def test_step_overflow_is_unverifiable(self):
        # tbar = 3.1e150: the pass stops at the step cap (7.5e56 steps, far
        # above 2^20), before any step is built; the guard on a step that is
        # not finite is reached by TestNonFiniteSteps
        with pytest.raises(UnverifiableError):
            wedge_first_zero(A_STEP, B_STEP, np.diag([1e-300, -1.0]), t_max=3.3e150)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_q_is_a_domain_error(self, bad):
        for fn in (wedge_first_zero, wedge_det_sign_changes):
            with pytest.raises(DomainError):
                fn(A_STEP, B_STEP, np.diag([bad, 1.0]), t_max=10.0)


class TestNonFiniteSteps:
    """Systems whose balancing or step exp(h H) is not finite are unverifiable on every route."""

    ROUTES = {
        "wedge_first_zero": lambda Q, t_max: wedge_first_zero(A_STEP, B_STEP, Q, t_max),
        "wedge_det_sign_changes": lambda Q, t_max: wedge_det_sign_changes(A_STEP, B_STEP, Q, t_max),
        "first_blowup": lambda Q, t_max: first_blowup(integrate_jacobi(A_STEP, B_STEP, Q, t_max)),
    }

    @pytest.mark.parametrize("route", ROUTES)
    def test_overflowing_step_is_unverifiable(self, route):
        # the balanced rate reads 0 here, so one step spans the horizon of
        # 1000 and exp(h H) is not finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnverifiableError, match=re.escape("exp(h H) is not finite")):
                self.ROUTES[route](np.diag([-6.740859759928954e-113, -1.0467181425533764e46]), 1000.0)

    @pytest.mark.parametrize("route", ROUTES)
    def test_nan_step_is_unverifiable(self, route):
        # the balanced rate read 0 here, so one step spanned the horizon and
        # exp(h H) was NaN; a guard on log(max(e, norm)) let it through, and
        # the 2x2 pass found no zero before tbar = 4.4e80. The refit of the
        # balancing overflows first now.
        ka, kb = 1.4325205914417532e118, -2.82884475485708e278
        t_max = 1.05 * blowup_time_kab(ka, kb).time + 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnverifiableError, match="not finite"):
                self.ROUTES[route](np.diag([ka, kb]), t_max)

    def test_overflowing_step_is_unverifiable_for_first_blowup(self):
        # the 2x2 route raised here already; first_blowup ended in LinAlgError
        with np.errstate(all="ignore"), pytest.raises(UnverifiableError, match="not finite"):
            self.ROUTES["first_blowup"](np.diag([-2.3694569153331225e102, -2.059239899919286e88]), 3.0475045779697216e-38)

    @pytest.mark.parametrize("route", ROUTES)
    def test_overflowing_balancing_is_unverifiable(self, route):
        # S_u = S * outer(g, g) of the refit overflowed to NaN, and eigvalsh
        # did not converge; the log-scale bound of the fit raises before the
        # product, with no warning
        ka, kb = 3.7615057244563964e-230, 4.687033938596471e280
        t_max = 1.05 * blowup_time_kab(ka, kb).time + 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnverifiableError, match="balancing"):
                self.ROUTES[route](np.diag([ka, kb]), t_max)


# ----------------------------------------------------------------------
# Test Class: the 2x2 phase pass, bit for bit
# ----------------------------------------------------------------------

# wedge_first_zero as `blowup --verify` calls it (t_max = 1.05 tbar + 0.1) on
# the finite blowup-verify rows of seed 1 and a near-resonant pair, frozen
# as float.hex; the set-up of the pass may get cheaper, never different.
WEDGE_BITS = [
    (-3.492973782650387, 4.230238855365464, '0x1.1dbafc058553bp+3'),
    (-2.0296180511367297, 4.967895333002064, '0x1.ce233bc748a6fp+1'),
    (0.923314387327574, -3.792016765377444, '0x1.e2459a3c6fc97p+2'),
    (0.08245371109486843, -2.8718479932577154, '0x1.3cd837636dbd7p+4'),
    (0.032137171095757644, 0.19310935411795072, '0x1.34654e747f8a4p+3'),
    (0.2469795110750006, 2.9611385239038297, '0x1.c2046bae7b945p+1'),
    (0.22600660210608048, 4.862162841318172, '0x1.67be249d76d81p+1'),
    (1.0791857533284057, -4.119017894566631, '0x1.d08f3e2290fbap+2'),
    (-8.999999872840394, 9.999999957613465, '0x1.91cc0b01f4ad2p+1'),
]
# (count, closest approach) of wedge_det_sign_changes to t = 1000 on the
# first three infinite blowup-verify rows of seed 1, and the closest approach
# of the pass to t = 1000 without the certificate of riccati._Tail, which the
# certified pass may undercut by at most 1e-12.
WEDGE_COUNT_BITS = [
    (-3.9763567505994866, -3.415893839456775, 0, '0x1.1ff348f4d5076p+1', '0x1.1ff348f4d51e9p+1'),
    (-4.711680774560732, -1.752250921437927, 0, '0x1.1846eefe6aa35p+1', '0x1.1846eefe6aaaap+1'),
    (-4.376337095979029, -0.9611225850457066, 0, '0x1.15f350cfe9b4ep+1', '0x1.15f350cfe9bc3p+1'),
]


def _sorted_cut(phi):
    """The widest-gap rule of ``_cut`` by sorting the phases, for any number of them."""
    p = np.sort(phi, axis=0)
    gaps = np.concatenate((p[1:], p[:1] + math.pi)) - p
    gap = gaps.max(axis=0)
    cut = np.where(gaps == gap, p, math.inf).min(axis=0) + 0.5 * gap
    return cut - math.pi * (cut >= math.pi), gap


class TestFrozenWedgeBits:

    @pytest.mark.parametrize("ka,kb,bits", WEDGE_BITS)
    def test_first_zero(self, ka, kb, bits):
        t_max = 1.05 * blowup_time_kab(ka, kb).time + 0.1
        assert wedge_first_zero(A_STEP, B_STEP, np.diag([ka, kb]), t_max).time.hex() == bits

    def test_first_zero_of_a_hermitian_hopf_pair(self):
        v = np.array([1.2, 0.3, -0.5])
        t_max = 1.1 * math.pi / math.sqrt(1.0 + v @ v)
        assert wedge_first_zero(*_qhf_complex_pair(v), t_max).time.hex() == "0x1.e25b10fb5dcc0p+0"

    def test_first_zero_of_a_real_hopf_pair(self):
        # the real pair of the Hopf a/b corner in the frame v = |v| e1: Q = diag(0, 4 + 4|v|^2)
        v = np.array([1.2, 0.3, -0.5])
        t_max = 1.1 * math.pi / math.sqrt(1.0 + v @ v)
        Q = np.diag([0.0, 4.0 + 4.0 * float(v @ v)])
        assert wedge_first_zero(A_STEP, B_STEP, Q, t_max).time.hex() == "0x1.e25b10fb5dfbfp+0"

    @pytest.mark.parametrize("ka,kb,zeros,bits,full", WEDGE_COUNT_BITS)
    def test_sign_changes(self, ka, kb, zeros, bits, full):
        count, closest = wedge_det_sign_changes(A_STEP, B_STEP, np.diag([ka, kb]), 1000.0)
        assert (count, closest.hex()) == (zeros, bits)
        assert 0.0 <= float.fromhex(full) - closest <= 1e-12


# ----------------------------------------------------------------------
# Test Class: the certificate that stops a 2x2 pass on L+
# ----------------------------------------------------------------------

def _benchmark_rows(seed):
    """The (kappa_a, kappa_b) rows of the blowup-verify benchmark workload of a seed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        return importlib.import_module("workloads").blowup_rows(seed)


def _full_pass(A, B, Q, t_max, first=False):
    """``riccati._wedge_pass`` with the certificate off: every step to t_max."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(riccati._Tail, "stop", lambda self, W, K, last: None)
        return riccati._wedge_pass(A, B, Q, t_max, first)


def _traced_pass(A, B, Q, t_max, first=False):
    """(``riccati._wedge_pass`` result, runs of the sweep it read, calls of np.linalg.eig,
    whether it stopped on the certificate)."""
    runs, eigs, stops = [], [], []
    sweep, stop, eig = riccati._sweep, riccati._Tail.stop, np.linalg.eig

    def counted_sweep(*args):
        for run in sweep(*args):
            runs.append(run[0])
            yield run

    def traced_stop(self, *args):
        stops.append(stop(self, *args))
        return stops[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(riccati, "_sweep", counted_sweep)
        mp.setattr(riccati._Tail, "stop", traced_stop)
        mp.setattr(np.linalg, "eig", lambda X: eigs.append(X) or eig(X))
        result = riccati._wedge_pass(A, B, Q, t_max, first)
    return result, len(runs), len(eigs), any(x is not None for x in stops)


def _same_as_the_full_pass(A, B, Q, t_max):
    """Whether the certified pass stopped; asserts that it counts the zeros of the full pass
    and undercuts its closest approach by at most 1e-12, and only where it stopped."""
    (zeros, near, _), _, _, stopped = _traced_pass(A, B, Q, t_max)
    full_zeros, full_near, _ = _full_pass(A, B, Q, t_max)
    where = f"Q={Q.tolist()} t_max={t_max!r}"
    assert zeros == full_zeros, where
    assert 0.0 <= full_near - near <= 1e-12 if stopped else near == full_near, where
    return stopped


def _turned_modes(theta, d=(1.0, 2.0)):
    """(A, B, Q, Pluecker vector of L+) of two decoupled modes [[-d_j, 0], [0, d_j]] turned by
    the symplectic rotation of angle theta_j in (-pi/2, 0): A_j = d_j cos 2theta_j, B_j = -Q_j
    = -d_j sin 2theta_j >= 0, and L+ the vertical turned to the phases pi/2 + theta_j. The
    balancing leaves them as they are, since |B_j| = |Q_j|."""
    theta, d = np.asarray(theta), np.asarray(d)
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    turned = np.zeros((4, 2))  # columns (-sin theta_j, cos theta_j) in the (m_j, n_j) plane
    turned[[0, 1, 2, 3], [0, 1, 0, 1]] = np.concatenate((-np.sin(theta), np.cos(theta)))
    return np.diag(d * c), np.diag(-d * s), np.diag(d * s), _pluecker(turned)


class TestTailCertificate:
    """The pass stops at the first block end where its plane is certified on L+, and counts
    the zeros of the full pass."""

    def test_benchmark_rows_keep_their_zeros_and_stop_in_their_first_block(self):
        rows = first_block = 0
        for seed in range(1, 11):
            for ka, kb in _benchmark_rows(seed):
                if blowup_time_kab(ka, kb).is_finite:
                    continue
                Q = np.diag([ka, kb])
                _same_as_the_full_pass(A_STEP, B_STEP, Q, 1000.0)
                (zeros, _, _), runs, eigs, stopped = _traced_pass(A_STEP, B_STEP, Q, 1000.0)
                rows += 1
                first_block += runs == 1 and stopped
                assert zeros == 0 and eigs == 1
        # of the other 7, one with a spectral gap of 3% stops at a later block
        # end; 6 with cond_1(V) of 89-758 have a rounding term rho, with the
        # error of v+, at or above 2^-41, which alone keeps their margin above
        # 2^-40, and take every step
        assert rows == 125 and first_block >= 118

    def test_scalar_vs_jacobi_pairs_keep_their_zeros(self):
        # the non-star pairs of seeds 1-20, read off the check as it runs
        index, seen = checks.check_names().index("scalar-vs-jacobi"), []

        def recorded(A, B, Q, t_max):
            seen.append((A, B, Q, t_max))
            return wedge_det_sign_changes(A, B, Q, t_max)

        stopped = 0
        for seed in range(1, 21):
            seen.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(checks, "wedge_det_sign_changes", recorded)
                assert checks.run_check(index, seed).passed
            assert len(seen) == 20
            for A, B, Q, t_max in seen:
                stopped += _same_as_the_full_pass(A, B, Q, t_max)
            # the check prints min(closest) as .3e: the same with and without the certificate
            nears = [[fn(A, B, Q, t_max, False)[1] for A, B, Q, t_max in seen] for fn in (riccati._wedge_pass, _full_pass)]
            assert f"{min(nears[0]):.3e}" == f"{min(nears[1]):.3e}"
        assert stopped >= 350

    def test_hermitian_hyperbolic_pairs_keep_their_zeros(self):
        rng, stopped = np.random.default_rng(5), 0
        for _ in range(60):
            ka, kb = -rng.uniform(0.5, 5.0, 2)
            c = complex(*rng.normal(size=2))
            Q = np.array([[ka, c], [c.conjugate(), kb]])
            stopped += _same_as_the_full_pass(A_STEP, B_STEP, Q, float(rng.uniform(50.0, 1000.0)))
        assert stopped >= 30

    def test_l_plus_near_the_cut_fails_the_certificate(self):
        # |v+_23| = cos(theta_1) cos(theta_2): with a phase of L+ 1e-15 above the cut
        # no end is certified, not even L+ itself; with phases pi/4 and pi/6 it is
        w0 = np.eye(6)[0]
        for theta, certified in (((-0.5 * math.pi + 1e-15, -math.pi / 3.0), False), ((-0.25 * math.pi, -math.pi / 3.0), True)):
            A, B, Q, v = _turned_modes(theta)
            H2 = riccati._COMPOUND.dot(riccati._jacobi_system(A, B, Q)[3].reshape(16)).reshape(6, 6)
            tail = riccati._Tail(H2)
            assert tail.basis is not None
            got = tail.stop(np.array([w0, v / np.abs(v).max()]), 1, 2)
            assert (got is not None) == certified
            if certified:
                assert 0.0 < math.pi - np.sort(np.pi / 2.0 + np.array(theta))[-1] - got <= 1e-12

    def test_l_plus_near_the_cut_keeps_the_bits_of_the_full_pass(self):
        # its small phase is below 1e-12 after the first step, which both passes reject
        A, B, Q, _ = _turned_modes((-0.5 * math.pi + 1e-15, -math.pi / 3.0))
        for fn in (riccati._wedge_pass, _full_pass):
            with pytest.raises(UnverifiableError, match="stays at 0"):
                fn(A, B, Q, 1000.0, False)
        # a phase of L+ 1e-9 above the cut: certified, with the zeros of the full pass
        A, B, Q, _ = _turned_modes((-0.5 * math.pi + 1e-9, -math.pi / 3.0))
        assert _same_as_the_full_pass(A, B, Q, 1000.0)

    def test_no_eig_on_a_pass_that_returns_in_its_first_block(self):
        # a first zero in the first block of a longer horizon, and a horizon of one block
        Q = np.diag([-3.492973782650387, 4.230238855365464])
        (_, _, hit), runs, eigs, _ = _traced_pass(A_STEP, B_STEP, Q, 1000.0, first=True)
        assert hit.is_finite and runs == 1 and eigs == 0
        (zeros, _, _), runs, eigs, _ = _traced_pass(A_STEP, B_STEP, Q, 5.0)
        assert zeros == 0 and runs == 1 and eigs == 0
        # H2's basis is built once a pass, here read at three block ends
        (zeros, _, _), runs, eigs, stopped = _traced_pass(A_STEP, B_STEP, np.diag([-0.004264802429251091, -4.177300276739809]), 1000.0)
        assert zeros == 0 and runs == 2 and eigs == 1 and stopped

    def test_a_pass_beyond_the_step_cap_may_begin(self):
        # 2.8e6 steps: certified at its first block end
        (zeros, _, _), runs, eigs, stopped = _traced_pass(A_STEP, B_STEP, np.diag([-3.9, 1.71]), 1e6)
        assert zeros == 0 and runs == 1 and eigs == 1 and stopped
        # 1.27e6 steps: the slow mode (Re lambda ~ 1e-4) is not certified by 2^20 steps
        with pytest.raises(UnverifiableError, match=r"needs 1\.273e\+06 steps, above 1048576"):
            wedge_det_sign_changes(A_STEP, B_STEP, np.diag([-1.0, -1e8]), 1000.0)
        # t_max rate is finite, but not t_max rate / (pi/4): the cap raises before the first step
        with pytest.raises(UnverifiableError, match="needs inf steps, above 1048576"):
            _traced_pass(A_STEP, B_STEP, np.diag([-3.9, 1.71]), 7e307)

    def test_a_pass_beyond_the_step_cap_without_a_dominant_eigenvalue_takes_no_step(self):
        # H has imaginary eigenvalues: the cap raises before the sweep begins
        for Q, t_max in ((np.diag([1.0, 1e4]), 1e7), (np.diag([1e-300, -1.0]), 3.3e150)):
            with pytest.raises(UnverifiableError, match="steps, above"):
                _traced_pass(A_STEP, B_STEP, Q, t_max)
            runs = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(riccati, "_sweep", lambda *args: runs.append(args) or iter(()))
                with pytest.raises(UnverifiableError):
                    riccati._wedge_pass(A_STEP, B_STEP, Q, t_max, False)
            assert runs == []


class TestTwoPhaseCut:
    """The closed-form cut of two phases against the sorted rule, bit for bit."""

    @staticmethod
    def _same_bits(phi):
        for got, want in zip(riccati._cut(phi), _sorted_cut(phi)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_random_phases(self):
        self._same_bits(np.random.default_rng(0).uniform(0.0, math.pi, (2, 1000)))

    def test_exact_ties(self):
        # hi = lo + pi/2 leaves two gaps of pi/2; where they round alike, the
        # sorted rule takes the gap above lo
        lo = np.random.default_rng(1).uniform(0.0, 0.5 * math.pi, 4000)
        hi = lo + 0.5 * math.pi
        tie = (hi - lo == (lo + math.pi) - hi) & (hi < math.pi)
        assert tie.sum() >= 100
        for phi in (np.stack((lo, hi))[:, tie], np.stack((hi, lo))[:, tie]):
            self._same_bits(phi)

    def test_ends_of_the_range(self):
        ends = [0.0, 5e-324, 1e-300, 0.5 * math.pi, np.nextafter(math.pi, 0.0), np.nextafter(np.nextafter(math.pi, 0.0), 0.0)]
        self._same_bits(np.array([(a, b) for a in ends for b in ends]).T)

    def test_a_full_run(self):
        # a run of the sweep is 4096 steps; every eighth column a double phase
        phi = np.random.default_rng(2).uniform(0.0, math.pi, (2, 4096))
        phi[1, ::8] = phi[0, ::8]
        self._same_bits(phi)


class TestCachedBCheck:
    """The B >= 0 check runs once per B, and a B that fails it fails on every call."""

    ROUTES = {
        "wedge_first_zero": lambda B: wedge_first_zero(A_STEP, B, np.diag([-3.0, 4.0]), 9.0),
        "wedge_det_sign_changes": lambda B: wedge_det_sign_changes(A_STEP, B, np.diag([-3.0, 4.0]), 9.0),
        "first_blowup": lambda B: first_blowup(integrate_jacobi(A_STEP, B, np.diag([-3.0, 4.0]), 9.0)),
    }

    @pytest.mark.parametrize("route", list(ROUTES))
    @pytest.mark.parametrize("B", [np.diag([1.0, -1.0]), np.array([[1.0, 0.5], [0.0, 1.0]])], ids=["indefinite", "asymmetric"])
    def test_a_bad_b_is_rejected_on_every_call(self, route, B):
        for _ in range(2):
            with pytest.raises(ValueError, match="positive semidefinite"):
                self.ROUTES[route](B)

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_one_ulp_from_a_passing_b_is_checked_afresh(self, route):
        # an eigenvalue of -1e-12 |B| is the floor: B passes, one ulp lower fails
        edge = np.diag([-1e-12, 1.0])
        below = np.diag([np.nextafter(-1e-12, -1.0), 1.0])
        for _ in range(2):
            self.ROUTES[route](edge)
            with pytest.raises(ValueError, match="positive semidefinite"):
                self.ROUTES[route](below)
