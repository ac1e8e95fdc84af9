"""Scalar comparison models: frozen values, invariants, domain guards.

Test categories:
  1. Single-frequency model (blow-up time, cotangent branches, gluing)
  2. Frequency-pair algebra (examples, round trips, coincidence flag)
  3. Two-frequency model values
  4. Two-frequency blow-up time against closed-form oracles
  5. Upper bound and its equality case
  6. Scaling covariance
  7. Diameter-type certificate
  8. The Brent root finder against scipy.optimize.brentq, bit for bit

Frozen reference values were computed from formulas independent of this
package: pi/sqrt(k) for the single-frequency zero, and the first zero of
the closed-form determinant (sin^2(tp*t)/tp^2 - sin^2(tm*t)/tm^2) /
(4*(tm^2 - tp^2)) located by bisection at xtol 1e-13 for the
two-frequency case; TBAR_REF and the near-resonance reproducer come from
tools/tbar_reference.py (mpmath, 50 digits, every knot of the bracket).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from fatcomp import models, riccati
from fatcomp.models import (
    BlowUpTime,
    DomainError,
    blowup_time_kab,
    blowup_time_kc,
    diameter_certificate,
    eval_s_kab,
    eval_s_kc,
    finiteness_predicate,
    theta_from_kappas,
    upper_bound_kab,
)
from fatcomp.riccati import first_blowup, integrate_jacobi, wedge_first_zero
from fatcomp.structure import typeI_pair

A_STEP, B_STEP = typeI_pair()

# Strategies shared across classes. Magnitudes are capped so that
# intermediate squares stay far from overflow; subnormals are excluded
# because sqrt(kappa_a / kappa_b_scale) underflows to zero there and the
# frequency pair is no longer representable at all.
kappa_any = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False,
    allow_subnormal=False,
)
kappa_pos = st.floats(min_value=1e-3, max_value=100.0, allow_nan=False, allow_infinity=False)
scale_factor = st.floats(min_value=0.5, max_value=2.0, allow_nan=False, allow_infinity=False)

# Frozen two-frequency blow-up times (closed-form determinant oracle).
TBAR_NEG3_4 = 7.865647008775999  # kappa_a = -3, kappa_b = 4, both frequencies real
TBAR_1_0 = 4.7300407448627055  # kappa_a = 1, kappa_b = 0, conjugate frequency pair
UB_NEG3_4 = 8.582990746292447  # 2*pi / (sqrt(3) - 1)
S_KAB_NEG3_4_AT_1 = 3.4688650317091563  # direct sinc-quotient evaluation

# float.hex of tbar: the resonances tp/tm = 2..7 at tm = 1 and tp/tm = 2 at
# tm = 1.5, then a near-resonance pair (-8.99999, 10) and generic pairs with
# |kappa| up to 500
TBAR_BITS = [
    (-9.0, 10.0, '0x1.921fb54442d18p+1'),
    (-64.0, 20.0, '0x1.921fb54442d18p+1'),
    (-225.0, 34.0, '0x1.921fb54442d18p+1'),
    (-576.0, 52.0, '0x1.921fb54442d18p+1'),
    (-1225.0, 74.0, '0x1.921fb54442d18p+1'),
    (-2304.0, 100.0, '0x1.921fb54442d18p+1'),
    (-45.5625, 22.5, '0x1.0c152382d7365p+1'),
    (-3.0, 4.0, '0x1.f766c2b624ae4p+2'),
    (-0.24, 1.0, '0x1.56bbfca067beap+5'),
    (-0.75, 2.0, '0x1.63f56382926bcp+3'),
    (-0.001, 0.1, '0x1.ff07d272c851bp+4'),
    (-4.9, 4.5, '0x1.73570c59f1d13p+4'),
    (-100.0, 30.0, '0x1.e20e3e10a4c76p+0'),
    (-500.0, 50.0, '0x1.546765e615bcbp+1'),
    (-250.0, 500.0, '0x1.202b949fb5cb4p-2'),
    (-2.0, 3.0, '0x1.cac65fb8781dap+3'),
    (-1e-09, 1.0, '0x1.921fb54e617b5p+2'),
    (-8.99999, 10.0, '0x1.90393c3445b49p+1'),
    (-0.2, 0.9, '0x1.4b87a8801acbfp+6'),
    (-37.0, 12.5, '0x1.50c816d205993p+3'),
]

# The TBAR_BITS rows from tools/tbar_reference.py (50 digits, rounded to
# float), and the relative distance each must keep from it: 2e-14, but
# 1e-12 at (-8.99999, 10), where the rounding of the float frequency pair
# alone moves the root by 7.5e-13 (the zero of g with those tp, tm,
# found at 50 digits).
TBAR_REF = {
    (-9.0, 10.0): 3.141592653589793,
    (-64.0, 20.0): 3.141592653589793,
    (-225.0, 34.0): 3.141592653589793,
    (-576.0, 52.0): 3.141592653589793,
    (-1225.0, 74.0): 3.141592653589793,
    (-2304.0, 100.0): 3.141592653589793,
    (-45.5625, 22.5): 2.0943951023931957,
    (-3.0, 4.0): 7.865647008775997,
    (-0.24, 1.0): 42.84179044071771,
    (-0.75, 2.0): 11.123704676650382,
    (-0.001, 0.1): 31.939409683579566,
    (-4.9, 4.5): 23.20875201353653,
    (-100.0, 30.0): 1.8830298224100073,
    (-500.0, 50.0): 2.6594054578267547,
    (-250.0, 500.0): 0.2814162466506318,
    (-2.0, 3.0): 14.336715565005699,
    (-1e-09, 1.0): 6.2831853166043645,
    (-8.99999, 10.0): 3.1267466788538565,
    (-0.2, 0.9): 82.88247871554915,
    (-37.0, 12.5): 10.524424944113695,
}
TBAR_REF_TOL = {(-8.99999, 10.0): 1e-12}


# ----------------------------------------------------------------------
# Test Class: single-frequency model
# ----------------------------------------------------------------------

class TestSingleFrequencyModel:
    """Blow-up time and values of the single-frequency comparison model."""

    def test_blowup_time_positive_curvature(self):
        for k in (1.0, 4.0, 9.0):
            tbar = blowup_time_kc(k)
            expected = math.pi / math.sqrt(k)
            assert tbar.is_finite
            assert abs(tbar.time - expected) < 1e-12, (
                f"blowup_time_kc({k}) = {tbar.time}, expected {expected}"
            )

    def test_blowup_infinite_for_nonpositive_curvature(self):
        for k in (0.0, -1.0, -25.0):
            tbar = blowup_time_kc(k)
            assert not tbar.is_finite, f"blowup_time_kc({k}) should be infinite"
            assert tbar.time == math.inf

    @pytest.mark.parametrize("kc", [math.nan, math.inf, -math.inf])
    def test_non_finite_kappa_c_is_a_domain_error(self, kc):
        with pytest.raises(DomainError):
            blowup_time_kc(kc)

    def test_cotangent_branch(self):
        got = eval_s_kc(1.0, 1.0)
        expected = 1.0 / math.tan(1.0)
        assert abs(got - expected) < 1e-14, f"s_1(1) = {got} != cot(1) = {expected}"

    def test_hyperbolic_branch(self):
        got = eval_s_kc(-1.0, 1.0)
        expected = 1.0 / math.tanh(1.0)
        assert abs(got - expected) < 1e-14, f"s_-1(1) = {got} != coth(1) = {expected}"

    def test_flat_branch_is_reciprocal(self):
        for t in (0.25, 1.0, 17.0):
            assert eval_s_kc(0.0, t) == pytest.approx(1.0 / t, rel=1e-15)

    def test_branches_glue_at_series_cutoff(self):
        # the series path activates for |sqrt(kc)*t| < 1e-6; values on the
        # two sides of the cutoff must agree to near machine precision
        t = 1.0
        below = eval_s_kc((0.999e-6) ** 2, t)
        above = eval_s_kc((1.001e-6) ** 2, t)
        assert abs(below - above) < 1e-12, f"series/closed-form gap {below - above}"

    @given(kappa_any)
    def test_short_time_limit(self, kc):
        # t * s_kc(t) -> 1 as t -> 0 regardless of the curvature bound
        t = 1e-8
        val = t * eval_s_kc(kc, t)
        assert abs(val - 1.0) < 1e-12, f"t*s_kc -> {val} for kappa_c = {kc}"

    @given(kappa_pos, scale_factor)
    @settings(max_examples=50)
    def test_scaling_covariance_single(self, kc, a):
        # s_{a^2 kc}(t) = a * s_kc(a t) on the common domain
        t = 0.4 * blowup_time_kc(kc * a * a).time
        assume(t > 1e-6)
        lhs = eval_s_kc(a * a * kc, t)
        rhs = a * eval_s_kc(kc, a * t)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs)), (
            f"covariance broken at kc={kc}, a={a}: {lhs} vs {rhs}"
        )


# ----------------------------------------------------------------------
# Test Class: frequency-pair algebra
# ----------------------------------------------------------------------

def coincident(tp: complex, tm: complex) -> bool:
    """The frequencies agree to the relative tolerance of the limit route."""
    return abs(tp - tm) < models._THETA_COINCIDE * max(abs(tp), 1.0)


class TestThetaPair:
    """The two-frequency map and its inverse."""

    def test_degenerate_pair_is_coincident(self):
        tp, tm = theta_from_kappas(0.0, 4.0)
        assert abs(tp - 1.0) < 1e-15
        assert abs(tm - 1.0) < 1e-15
        assert coincident(tp, tm)

    def test_conjugate_pair(self):
        tp, tm = theta_from_kappas(1.0, 0.0)
        assert abs(tp - (0.5 + 0.5j)) < 1e-15
        assert abs(tm - (0.5 - 0.5j)) < 1e-15
        assert not coincident(tp, tm)

    def test_real_pair(self):
        tp, tm = theta_from_kappas(-3.0, 4.0)
        assert abs(tp - (math.sqrt(3) + 1) / 2) < 1e-15
        assert abs(tm - (math.sqrt(3) - 1) / 2) < 1e-15

    @given(kappa_any, kappa_any)
    @settings(max_examples=300)
    def test_kappa_round_trip(self, ka, kb):
        # the inverse map: kappa_a = -(tp^2 - tm^2)^2, kappa_b = 2 (tp^2 + tm^2)
        tp, tm = theta_from_kappas(ka, kb)
        ka_back, kb_back = -((tp**2 - tm**2) ** 2), 2 * (tp**2 + tm**2)
        assert abs(ka_back - ka) < 1e-9 * max(1.0, abs(ka)), (
            f"kappa_a round trip: {ka_back} != {ka}"
        )
        assert abs(kb_back - kb) < 1e-9 * max(1.0, abs(kb)), (
            f"kappa_b round trip: {kb_back} != {kb}"
        )


# ----------------------------------------------------------------------
# Test Class: two-frequency model values
# ----------------------------------------------------------------------

class TestTwoFrequencyModel:
    """Pointwise values of the two-frequency comparison model."""

    def test_generic_value(self):
        got = eval_s_kab(-3.0, 4.0, 1.0)
        assert abs(got - S_KAB_NEG3_4_AT_1) < 1e-12, f"s_(-3,4)(1) = {got}"

    def test_coincident_value(self):
        # at kappa_a = 0, kappa_b = 4 the frequencies coincide at 1 and
        # the analytic limit at t = pi/2 is exactly pi/2
        got = eval_s_kab(0.0, 4.0, math.pi / 2)
        assert abs(got - math.pi / 2) < 1e-12, f"limit value {got} != pi/2"

    def test_limit_is_continuous_in_kappa_a(self):
        t = 1.3
        at_zero = eval_s_kab(0.0, 4.0, t)
        near_zero = eval_s_kab(1e-9, 4.0, t)
        assert abs(at_zero - near_zero) < 1e-6, (
            f"coincidence limit jump: {at_zero} vs {near_zero}"
        )

    @given(kappa_any, kappa_any)
    @settings(max_examples=100)
    def test_short_time_limit_two_frequency(self, ka, kb):
        # t * s_(ka,kb)(t) -> 4 as t -> 0
        t = 1e-3
        assume(blowup_time_kab(ka, kb).time > t)
        val = t * eval_s_kab(ka, kb, t)
        assert abs(val - 4.0) < 1e-3, f"t*s -> {val} for ({ka}, {kb})"


# ----------------------------------------------------------------------
# Test Class: two-frequency blow-up time
# ----------------------------------------------------------------------

class TestBlowupTimeTwoFrequency:
    """First blow-up of the two-frequency model against frozen oracles."""

    def test_real_frequency_case(self):
        tbar = blowup_time_kab(-3.0, 4.0)
        assert tbar.is_finite
        assert abs(tbar.time - TBAR_NEG3_4) < 1e-9, f"tbar = {tbar.time}"

    def test_conjugate_frequency_case(self):
        tbar = blowup_time_kab(1.0, 0.0)
        assert tbar.is_finite
        assert abs(tbar.time - TBAR_1_0) < 1e-9, f"tbar = {tbar.time}"

    def test_degenerate_case_closed_form(self):
        assert abs(blowup_time_kab(0.0, 4.0).time - math.pi) < 1e-14
        assert abs(blowup_time_kab(0.0, 1.0).time - 2.0 * math.pi) < 1e-14

    def test_infinite_cases(self):
        for ka, kb in ((-1.0, -1.0), (-0.5, 1.0), (0.0, -4.0), (0.0, 0.0), (-1.0, 0.0)):
            tbar = blowup_time_kab(ka, kb)
            assert not tbar.is_finite, f"({ka}, {kb}) should not blow up"

    def test_tiny_positive_kappa_a_negative_kappa_b(self):
        # the predicate admits this corner; it must route to the
        # oscillatory branch rather than the degenerate closed form
        tbar = blowup_time_kab(5e-15, -1.0)
        assert tbar.is_finite and tbar.time > 1e3

    @given(kappa_any, kappa_any)
    @settings(max_examples=300)
    def test_predicate_matches_finiteness(self, ka, kb):
        assert finiteness_predicate(ka, kb) == blowup_time_kab(ka, kb).is_finite, (
            f"predicate and blow-up disagree at ({ka}, {kb})"
        )

    @given(kappa_any, kappa_any, scale_factor)
    @settings(max_examples=100)
    def test_blowup_scaling_covariance(self, ka, kb, a):
        tbar = blowup_time_kab(ka, kb)
        assume(tbar.is_finite)
        scaled = blowup_time_kab(a**4 * ka, a**2 * kb)
        assert scaled.is_finite
        assert abs(scaled.time - tbar.time / a) < 1e-9 * tbar.time, (
            f"tbar({a}^4 ka, {a}^2 kb) = {scaled.time} != {tbar.time / a}"
        )

    @pytest.mark.parametrize("ka,kb", [(1.0, 0.0), (1.0, 2.0), (2.0, -1.0)])
    def test_conjugate_pair_scales_down_to_tiny_times(self, ka, kb):
        # s tbar(s^4 ka, s^2 kb) = tbar(ka, kb): an absolute tolerance of
        # 1e-12 returned the bracket end pi/alpha from s = 1e50
        tbar = blowup_time_kab(ka, kb).time
        for s in np.geomspace(1e-3, 1e75, 79):
            scaled = s * blowup_time_kab(s**4 * ka, s**2 * kb).time
            assert abs(scaled - tbar) <= 1e-12 * tbar, f"s = {s:.3e}: {scaled!r} vs {tbar!r}"

    @pytest.mark.parametrize("ka,kb,bits", TBAR_BITS)
    def test_frozen_bits(self, ka, kb, bits):
        assert blowup_time_kab(ka, kb).time.hex() == bits

    @pytest.mark.parametrize("ka,kb", list(TBAR_REF))
    def test_within_the_reference(self, ka, kb):
        ref = TBAR_REF[ka, kb]
        assert abs(blowup_time_kab(ka, kb).time - ref) <= TBAR_REF_TOL.get((ka, kb), 2e-14) * ref

    def test_near_resonance_reproducer(self):
        # tp/tm = 2 - 5.3e-9: the grid scan of the whole bracket was early
        # here by 7.8e-9 relative
        ref = 3.1390393980338005  # tools/tbar_reference.py
        assert abs(blowup_time_kab(-8.999999872840394, 9.999999957613465).time - ref) <= 1e-10 * ref

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_resonance_sweep_matches_the_phase_rule(self, k):
        # tp/tm = k +- delta at tm = 1: the first zero of det N of the
        # type-I pair, from the eigenphases of first_blowup
        for delta in np.geomspace(1e-9, 1e-2, 30):
            for tp in (k + delta, k - delta):
                ka, kb = -((tp * tp - 1.0) ** 2), 2.0 * (tp * tp + 1.0)
                tbar = blowup_time_kab(ka, kb).time
                sol = integrate_jacobi(A_STEP, B_STEP, np.diag([ka, kb]), 1.1 * math.pi)
                phase = first_blowup(sol).time
                assert abs(tbar - phase) <= 1e-9 * phase, f"tp = {tp!r}: {tbar!r} vs {phase!r}"

    def test_coincident_frequencies_touch_at_the_kappa_a_zero_limit(self):
        # kappa_a below the rounding of kappa_b**2: tp = tm, and g- vanishes
        # identically; the touch at the window start is 2 pi/sqrt(kappa_b)
        assert blowup_time_kab(-1e-300, 1.0).time == 2.0 * math.pi

    def test_frequencies_past_overflow_raise(self):
        with pytest.raises(FloatingPointError, match="no root"):
            blowup_time_kab(-1e300, 1e160)

    def test_frequency_underflow_raises(self):
        # kappa_a > 0: alpha^2 = kappa_a / sm2 underflows to 0, and pi/alpha
        # divided by zero
        with pytest.raises(FloatingPointError, match="underflows"):
            blowup_time_kab(1.7934847258413677e-236, -2.1545907295567397e115)

    @pytest.mark.parametrize(
        "ka,kb", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (-math.inf, 4.0), (-3.0, math.inf)]
    )
    def test_non_finite_input_is_a_domain_error(self, ka, kb):
        with pytest.raises(DomainError):
            blowup_time_kab(ka, kb)

    def test_marker_type(self):
        assert float(BlowUpTime.finite(2.0)) == 2.0
        assert not BlowUpTime.infinite().is_finite
        with pytest.raises(ValueError):
            BlowUpTime.finite(math.inf)
        with pytest.raises(ValueError):
            BlowUpTime(-1.0)


# ----------------------------------------------------------------------
# Test Class: upper bound
# ----------------------------------------------------------------------

class TestUpperBound:
    """2*pi over twice the real part of the slow frequency."""

    def test_equality_iff_degenerate(self):
        # kappa_a = 0: bound equals the blow-up time exactly
        assert abs(upper_bound_kab(0.0, 4.0) - math.pi) < 1e-14
        assert abs(upper_bound_kab(0.0, 4.0) - blowup_time_kab(0.0, 4.0).time) < 1e-14

    def test_strict_for_real_frequencies(self):
        ub = upper_bound_kab(-3.0, 4.0)
        assert abs(ub - UB_NEG3_4) < 1e-12, f"upper bound = {ub}"
        assert blowup_time_kab(-3.0, 4.0).time < ub

    def test_strict_for_conjugate_frequencies(self):
        ub = upper_bound_kab(1.0, 0.0)
        assert abs(ub - 2.0 * math.pi) < 1e-12
        assert blowup_time_kab(1.0, 0.0).time < ub

    def test_infinite_when_slow_frequency_imaginary(self):
        assert upper_bound_kab(-3.0, -4.0) == math.inf

    @given(kappa_any, kappa_any)
    @settings(max_examples=200)
    def test_bound_dominates_blowup(self, ka, kb):
        tbar = blowup_time_kab(ka, kb)
        assume(tbar.is_finite)
        ub = upper_bound_kab(ka, kb)
        assert tbar.time <= ub * (1.0 + 1e-9), (
            f"blow-up {tbar.time} exceeds bound {ub} at ({ka}, {kb})"
        )


# ----------------------------------------------------------------------
# Test Class: domain guards
# ----------------------------------------------------------------------

class TestDomainGuards:

    def test_s_kc_rejects_nonpositive_time(self):
        with pytest.raises(DomainError):
            eval_s_kc(1.0, 0.0)
        with pytest.raises(DomainError):
            eval_s_kc(1.0, -0.5)

    def test_s_kc_rejects_time_at_blowup(self):
        with pytest.raises(DomainError):
            eval_s_kc(4.0, math.pi / 2)

    def test_s_kab_rejects_time_past_blowup(self):
        with pytest.raises(DomainError):
            eval_s_kab(-3.0, 4.0, 7.9)

    def test_s_kab_rejects_zero_time(self):
        with pytest.raises(DomainError):
            eval_s_kab(1.0, 0.0, 0.0)


# ----------------------------------------------------------------------
# Test Class: diameter-type certificate
# ----------------------------------------------------------------------

class TestDiameterCertificate:
    """Blow-up at most pi for the induced effective constants."""

    def test_zero_momentum(self):
        cert = diameter_certificate(0.0, 1.0)
        assert cert.kappa_a == 0.0
        assert cert.kappa_b == 4.0
        assert abs(cert.tbar.time - math.pi) < 1e-12
        assert cert.passes

    def test_momentum_above_threshold(self):
        # above |v| = sqrt(8/7), Re(theta_minus) > 1 and so upper_bound_kab < pi
        cert = diameter_certificate(1.2, 1.0)
        assert theta_from_kappas(cert.kappa_a, cert.kappa_b)[1].real > 1.0
        assert cert.tbar.time < math.pi
        assert cert.passes

    def test_weakest_curvature_bound(self):
        # K = -1 is the boundary of the admissible range
        cert = diameter_certificate(0.5, -1.0)
        assert cert.passes, f"tbar = {cert.tbar.time} exceeds pi at K = -1"

    @given(
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        st.floats(min_value=-1.0, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_certificate_holds_on_admissible_range(self, v_norm, K):
        cert = diameter_certificate(v_norm, K)
        assert cert.passes, (
            f"certificate fails at v_norm = {v_norm}, K = {K}: "
            f"tbar = {cert.tbar.time}"
        )

    @pytest.mark.parametrize("v_norm, K", [(0.25, 2.9), (0.5, 2.8)])
    def test_conjugate_frequency_branch(self, v_norm, K):
        # kappa_a > 0: chi(pi) is purely imaginary and chi_at_pi is its
        # imaginary part, negative because tbar < pi
        cert = diameter_certificate(v_norm, K)
        assert cert.kappa_a > 0.0
        assert cert.passes
        assert cert.tbar.time < math.pi
        assert cert.chi_at_pi < 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            diameter_certificate(-0.1, 1.0)
        with pytest.raises(DomainError):
            diameter_certificate(1.0, -1.5)


# ----------------------------------------------------------------------
# Test Class: the Brent port against scipy
# ----------------------------------------------------------------------

def _scipy_brentq(f, a, b, xtol):
    return brentq(f, a, b, xtol=xtol)


def _outcome(solve, *args):
    """float.hex of the root, or the class name of the exception raised."""
    try:
        return float(solve(*args)).hex()
    except (ValueError, RuntimeError, FloatingPointError) as err:
        return type(err).__name__


def _brackets(family: str, n: int):
    """n seeded (f, a, b, xtol) of one family, endpoints in either order.

    The abscissae are scaled by 1, 1e-150 or 1e+-300, and the "scaled"
    family scales its values by 1e+-200 or 1e+-300 too.
    """
    rng = np.random.default_rng(["smooth", "flat", "staircase", "scaled"].index(family))
    out = []
    for _ in range(n):
        r = float(rng.uniform(-1.0, 1.0))
        a, b = float(rng.uniform(-2.0, r)), float(rng.uniform(r, 2.0))
        xtol = float(rng.choice([2e-12, 1e-300, 5e-324, 1e-3]))
        w, p = float(rng.uniform(0.1, 20.0)), int(rng.integers(1, 8))
        xs = float(rng.choice([1.0, 1.0, 1e-150, 1e-300, 1e300]))
        if family == "smooth":
            g = [
                lambda x, p=p: x**p,
                lambda x, w=w: math.sin(w * x),
                lambda x, r=r: math.exp(x + r) - math.exp(r),
                lambda x, w=w: np.tanh(w**3 * x),
            ][int(rng.integers(4))]
        elif family == "flat":
            g = lambda x, w=w: 0.0 if abs(x) < 0.05 * w else x**3
        elif family == "staircase":
            g = lambda x, p=p: math.floor(x * 10**p) + 0.5
        else:
            fs = float(rng.choice([1e-300, 1e-200, 1e200, 1e300]))
            g = lambda x, p=p, fs=fs: fs * x**p
        f = lambda x, g=g, r=r, xs=xs: g(x / xs - r)
        a, b = a * xs, b * xs
        out.append((f, *((a, b) if rng.random() < 0.5 else (b, a)), xtol))
    return out


class TestBrentPort:
    """models._brentq returns scipy brentq's bits, or raises its exception class."""

    @pytest.mark.parametrize("family", ["smooth", "flat", "staircase", "scaled"])
    def test_bits_match_scipy(self, family):
        # 4 x 2500 brackets; 126 to 422 per family divide by zero in the
        # interpolation step, where C's inf or NaN makes the step bisect
        cases = _brackets(family, 2500)
        bad = [(a, b, xtol) for f, a, b, xtol in cases
               if _outcome(models._brentq, f, a, b, xtol) != _outcome(_scipy_brentq, f, a, b, xtol)]
        assert not bad, f"{len(bad)} of {len(cases)} differ, first {bad[0]}"

    def test_maxiter_exhaustion_raises_as_scipy(self, monkeypatch):
        monkeypatch.setattr(models, "_MAXITER", 5)
        cases = _brackets("smooth", 500)
        mine = [_outcome(models._brentq, *c) for c in cases]
        assert mine == [_outcome(lambda f, a, b, xtol: brentq(f, a, b, xtol=xtol, maxiter=5), *c) for c in cases]
        assert "RuntimeError" in mine

    def test_runs_out_on_a_step_function(self):
        # every step bisects, and 100 halvings of 2e300 stay far from zero
        step = lambda x: math.copysign(1.0, x)
        for solve in (models._brentq, _scipy_brentq):
            with pytest.raises(RuntimeError):
                solve(step, -1e300, 1e300, 5e-324)

    @pytest.mark.parametrize("f", [lambda x: x * x + 1.0, lambda x: math.nan if x > 0.5 else x - 0.75])
    def test_same_sign_or_nan_is_a_value_error(self, f):
        for solve in (models._brentq, _scipy_brentq):
            with pytest.raises(ValueError):
                solve(f, 0.0, 1.0, 2e-12)

    def test_hypothesis_falsifier_of_a_python_divide(self, monkeypatch):
        # kappa_a > 0 tiny: the extrapolation denominator underflows to 0,
        # where Python's divide raises ZeroDivisionError; C's gives inf or
        # NaN, and the step bisects
        ka, kb = 1.5684445943827328e-254, 0.0
        mine = blowup_time_kab(ka, kb)
        assert mine.is_finite == finiteness_predicate(ka, kb)
        monkeypatch.setattr(models, "_brentq", _scipy_brentq)
        assert mine.time.hex() == blowup_time_kab(ka, kb).time.hex()

    def test_blowup_time_keeps_the_scipy_bits(self, monkeypatch):
        # 2000 pairs on [-5, 5]^2, 1000 on [-500, 500]^2, 400 on [-0.01,
        # 0.01]^2, and 96 resonant or near-resonant pairs tp/tm = 2..7
        rng = np.random.default_rng(13)
        pairs = [*rng.uniform(-5.0, 5.0, (2000, 2)), *rng.uniform(-500.0, 500.0, (1000, 2)),
                 *rng.uniform(-0.01, 0.01, (400, 2))]
        for k in range(2, 8):
            for tm in (1.0, 0.37):
                for e in (0.0, 1e-4, -1e-4, 1e-8, -1e-8, 1e-12, -1e-12, 2.0**-52):
                    tp = k * tm * (1.0 + e)
                    pairs.append((-((tp * tp - tm * tm) ** 2), 2.0 * (tp * tp + tm * tm)))
        pairs = [(float(ka), float(kb)) for ka, kb in pairs]
        tbar = lambda ka, kb: blowup_time_kab(ka, kb).time
        mine = [_outcome(tbar, ka, kb) for ka, kb in pairs]
        monkeypatch.setattr(models, "_brentq", _scipy_brentq)
        bad = [pair for pair, bits in zip(pairs, mine) if _outcome(tbar, *pair) != bits]
        assert len(pairs) == 3496 and not bad, f"{len(bad)} differ, first {bad[:1]}"

    @pytest.mark.parametrize("ka,kb", [(-3.0, 4.0), (-8.99999, 10.0), (-0.75, 2.0), (-37.0, 12.5), (1.0, 0.0)])
    def test_riccati_refinements_keep_the_scipy_bits(self, ka, kb, monkeypatch):
        t_max = 1.1 * blowup_time_kab(ka, kb).time
        Q = np.diag([ka, kb])
        run = lambda: (first_blowup(integrate_jacobi(A_STEP, B_STEP, Q, t_max)).time.hex(),
                       wedge_first_zero(A_STEP, B_STEP, Q, t_max).time.hex())
        mine = run()
        monkeypatch.setattr(riccati, "_brentq", _scipy_brentq)
        assert mine == run()
