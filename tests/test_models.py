"""Scalar comparison models: frozen values, invariants, domain guards.

Test categories:
  1. Single-frequency model (blow-up time, cotangent branches, gluing)
  2. Frequency-pair algebra (examples, round trips)
  3. Two-frequency model values, against frozen 50-digit rows
  4. Two-frequency blow-up time against closed-form oracles
  5. Upper bound and its equality case
  6. Scaling covariance
  7. Diameter-type certificate
  8. The Brent root finder against scipy.optimize.brentq, bit for bit
  9. Frozen bits of tbar and s_kab over every branch, and the floor of tbar
     below which s_kab solves no root

Frozen reference values were computed from formulas independent of this
package: pi/sqrt(k) for the single-frequency zero, and the first zero of
the closed-form determinant (sin^2(tp*t)/tp^2 - sin^2(tm*t)/tm^2) /
(4*(tm^2 - tp^2)) located by bisection at xtol 1e-13 for the
two-frequency case; TBAR_REF and the near-resonance reproducer come from
tools/tbar_reference.py (mpmath, 50 digits, every knot of the bracket), and
S_KAB_WIDE and S_KAB_NEAR_TBAR from tools/skab_reference.py (mpmath, the
complex sinc quotient at a precision that grows with its cancellation).
"""

import cmath
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from fatcomp import checks, models, riccati
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
    (-0.24, 1.0, '0x1.56bbfca067be4p+5'),
    (-0.75, 2.0, '0x1.63f56382926bcp+3'),
    (-0.001, 0.1, '0x1.ff07d272c851bp+4'),
    (-4.9, 4.5, '0x1.73570c59f1d13p+4'),
    (-100.0, 30.0, '0x1.e20e3e10a4c76p+0'),
    (-500.0, 50.0, '0x1.546765e615bcbp+1'),
    (-250.0, 500.0, '0x1.202b949fb5cb5p-2'),
    (-2.0, 3.0, '0x1.cac65fb8781dap+3'),
    (-1e-09, 1.0, '0x1.921fb54e617b6p+2'),
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

# chi(pi) = sinc(tm pi)^2 - sinc(tp pi)^2 at the certificate's kappas, at 60
# digits with mpmath; its imaginary part where kappa_a > 0 (the first two rows)
CHI_REF = [
    (0.25, 2.9, -0.007728455005082081),
    (0.5, 2.8, -0.017916692003549117),
    (1.2, 1.0, 0.02823312724828603),
    (0.5, -1.0, -0.018280459091605864),
    (0.3, 0.3, -0.012376463684706272),
]


def frozen_rows(text: str) -> list[tuple[float, float, float, float, float]]:
    """(kappa_a, kappa_b, t, s, cond) rows of S_KAB_WIDE or S_KAB_NEAR_TBAR."""
    rows = []
    for line in text.split("\n"):
        if line:
            ka, kb, t, ref, cond = line.split()
            rows.append((*(float.fromhex(x) for x in (ka, kb, t, ref)), float(cond)))
    return rows


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

    @pytest.mark.parametrize("kc", [-1.0, -1e6, -5.970785528861544e+191, -3.7e-200])
    def test_hyperbolic_branch_past_overflow(self, kc):
        # cosh |z| overflows: eval_s_kc(-5.970785528861544e+191, 5.957505190774787e-05) raised
        # a bare OverflowError, and 704 < |z| < 710.5 gave NaN. For |z| >= 20, coth |z| =
        # 1 + 2 e^(-2|z|) + ... rounds to 1, so s is sqrt(-kc), correctly rounded
        ref = math.sqrt(-kc)
        ts = [float(z) / ref for z in np.linspace(690.0, 720.0, 61)] + [1e5 / ref, 5.957505190774787e-05]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in ts:
                got = eval_s_kc(kc, t)
                if ref * t >= 20.0:
                    assert abs(got - ref) <= 4.0 * 2.0**-52 * ref, f"|z| = {ref * t}: {got!r} vs {ref!r}"

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

class TestThetaPair:
    """The two-frequency map and its inverse."""

    def test_degenerate_pair_is_coincident(self):
        tp, tm = theta_from_kappas(0.0, 4.0)
        assert abs(tp - 1.0) < 1e-15
        assert abs(tm - 1.0) < 1e-15

    def test_conjugate_pair(self):
        tp, tm = theta_from_kappas(1.0, 0.0)
        assert abs(tp - (0.5 + 0.5j)) < 1e-15
        assert abs(tm - (0.5 - 0.5j)) < 1e-15

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
    @example(-6.116306313532345e-14, 2.0)  # |kappa_a| << kappa_b^2: tp and tm nearly coincide
    @settings(max_examples=100)
    def test_short_time_limit_two_frequency(self, ka, kb):
        # t * s_(ka,kb)(t) -> 4 as t -> 0
        t = 1e-3
        assume(blowup_time_kab(ka, kb).time > t)
        val = t * eval_s_kab(ka, kb, t)
        assert abs(val - 4.0) < 1e-3, f"t*s -> {val} for ({ka}, {kb})"

    def test_within_the_reference(self):
        # every tenth of the 2000 wide inputs of tools/skab_reference.py, half
        # of them near-degenerate (|kappa_a| << kappa_b^2), t down to 1e-6
        bad = [
            (ka, kb, t, got, ref)
            for ka, kb, t, ref, _ in frozen_rows(S_KAB_WIDE)
            if not abs((got := eval_s_kab(ka, kb, t)) - ref) <= 1e-12 * abs(ref)
        ]
        assert not bad, f"{len(bad)} rows off by more than 1e-12: {bad[:3]}"

    def test_near_the_blowup_within_the_condition(self):
        # t = tbar (1 - 10^-u), u in [1, 6]: s is only as good as t, so the
        # bound is 16 eps (1 + cond), cond = |t s'(t) / s(t)| up to 7e5. Where
        # kappa_b < 0 < kappa_a << 1, tbar is large and the factors grow like
        # e^x, x = t sqrt(|kappa_b| + 2 sqrt|kappa_a|): past e^700 they may
        # overflow, and the answer is FloatingPointError (8 of these rows).
        eps = 2.0**-52
        bad, overflowed = [], 0
        for ka, kb, t, ref, cond in frozen_rows(S_KAB_NEAR_TBAR):
            try:
                got = eval_s_kab(ka, kb, t)
            except FloatingPointError:
                assert t * math.sqrt(abs(kb) + 2.0 * math.sqrt(abs(ka))) > 700.0, (ka, kb, t)
                overflowed += 1
                continue
            if not abs(got - ref) <= 16.0 * eps * (1.0 + cond) * abs(ref):
                bad.append((ka, kb, t, got, ref, cond))
        assert not bad, f"{len(bad)} rows off by more than 16 eps (1 + cond): {bad[:3]}"
        assert overflowed == 8

    def test_hyperbolic_overflow_raises(self):
        # sinh(sqrt(1e6)) overflows; a quotient of infinities is no value
        with pytest.raises(FloatingPointError, match="not finite"):
            eval_s_kab(-1.0, -1e6, 1.0)


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

    # (kappa_a, kappa_b, tbar) with kappa_b^2 past overflow; tbar to 50 digits from
    # tools/tbar_reference.py, which works at 60 digits plus the up to 340 that x - y cancels
    OVERFLOW_TBAR = [
        (-1.0229834445816485e+166, 2.3912383905424197e+250, "4.0632021637008433289807789843480261454204185833327e-125"),
        (-1e300, 1e160, "6.2831853071795864565099367346216513886903161459125e-80"),
        (-1e300, 1e300, "6.283185307179586311976717670315448011757052370895e-150"),
        (-1e300, 1.7e308, "4.8189831490469534223760910379127315409545915490922e-154"),
        (-1e308, 1e155, "2.0183566430198537673792067995444049620400716408324e-77"),  # 4 kappa_a overflows too
    ]

    @pytest.mark.parametrize("ka,kb,ref", OVERFLOW_TBAR)
    def test_frequencies_past_overflow_are_scale_free(self, ka, kb, ref):
        # kappa_b^2 overflowed to inf, and the bracket read (nan, nan]: a bare
        # FloatingPointError. (|kappa_b| - r)(|kappa_b| + r), r = 2 sqrt(-kappa_a), does not
        ref = float(ref)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tbar, ub = blowup_time_kab(ka, kb).time, upper_bound_kab(ka, kb)
        assert finiteness_predicate(ka, kb)
        assert abs(tbar - ref) <= 4.0 * 2.0**-52 * ref, f"tbar {tbar!r} vs {ref!r}"
        assert tbar <= ub * (1.0 + 1e-12)

    @pytest.mark.parametrize("ka,kb", [(-1.301921080189521e-09, -9.869978309892461e+276), (-1e308, -1e155),
                                       (-1e308, 1e153), (-1e308, 0.0)])
    def test_overflowing_discriminant_keeps_an_infinite_row_infinite(self, ka, kb):
        # the frequencies and the upper bound were NaN; both slow frequencies are imaginary here
        tp, tm = theta_from_kappas(ka, kb)
        assert cmath.isfinite(tp) and cmath.isfinite(tm) and tm.real == 0.0
        assert not finiteness_predicate(ka, kb)
        assert blowup_time_kab(ka, kb).time == upper_bound_kab(ka, kb) == math.inf

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

    @pytest.mark.parametrize("ka,kb,ref", [
        (1e-14, -2.0, 88857658.763167436065),
        (3e-13, -0.5, 8111557.3519520909464),
        (1e-10, -1.0, 628318.53074937456278),
    ])
    def test_small_kappa_a_against_negative_kappa_b(self, ka, kb, ref):
        # 2 pi / Re(sqrt(x + y) - sqrt(x - y)) at 50 digits with mpmath: x + y
        # is the difference of y and |x| = -kappa_b/2, which cancelled, 1.2e-2
        # off at (1e-14, -2); kappa_a / (y - x) does not
        assert abs(upper_bound_kab(ka, kb) - ref) <= 1e-12 * ref

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

    @pytest.mark.parametrize("v_norm, K, chi", CHI_REF)
    def test_chi_at_pi_within_the_reference(self, v_norm, K, chi):
        got = diameter_certificate(v_norm, K).chi_at_pi
        assert abs(got - chi) <= 1e-13 * abs(chi), f"chi_at_pi {got!r} vs {chi!r}"

    @pytest.mark.parametrize("K", [-1.0, 1.0, 3.0])
    def test_chi_at_pi_is_positive_zero_without_momentum(self, K):
        # kappa_a = 0: tp = tm and chi(pi) = 0, with the sign bit clear
        chi = diameter_certificate(0.0, K).chi_at_pi
        assert chi == 0.0 and math.copysign(1.0, chi) == 1.0

    @pytest.mark.parametrize("v_norm, K", [(0.5, 1e12), (3.0, 1e300), (1e-3, 1e200)])
    def test_overflowing_chi_is_a_domain_error(self, v_norm, K):
        # chi(pi) grows like exp(2 pi Im tp): (0.5, 1e12) returned chi_at_pi = nan with passes=True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"chi\(pi\) overflows"):
                diameter_certificate(v_norm, K)

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


# ----------------------------------------------------------------------
# Test Class: frozen bits of the scalar layer, and the floor of tbar
# ----------------------------------------------------------------------

def _scalar_pairs(n: int, seed: int = 22) -> list[tuple[float, float]]:
    """9 n seeded (kappa_a, kappa_b) over every branch of ``blowup_time_kab``.

    Per draw: a generic pair on [-5, 5]^2 (half of them infinite); kappa_a < 0,
    = 0 and > 0 against the same kappa_b; near-degenerate pairs |kappa_a| =
    kappa_b^2/4 10^[-16, 0] of both signs, and one just past kappa_b^2/4, which
    is infinite; the real pair of frequencies tp, tm on [0.01, 5]; and a pair of
    magnitudes 10^[-300, 300] and any signs.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        ka, kb = (float(x) for x in rng.uniform(-5.0, 5.0, 2))
        near = kb * kb / 4.0 * 10.0 ** float(rng.uniform(-16.0, 0.0))
        e = rng.uniform(-300.0, 300.0, 2)
        s = rng.choice([-1.0, 1.0], 2)
        tp, tm = (float(x) for x in rng.uniform(0.01, 5.0, 2))
        pairs += [(ka, kb), (-abs(ka), abs(kb)), (0.0, kb), (abs(ka), kb), (-near, abs(kb)), (near, kb),
                  (-(1.0 + 2.0**-30) * kb * kb / 4.0, abs(kb)), (-((tp * tp - tm * tm) ** 2), 2.0 * (tp * tp + tm * tm)),
                  (float(s[0] * 10.0 ** e[0]), float(s[1] * 10.0 ** e[1]))]
    return pairs


def _scalar_times(ka: float, kb: float) -> list[float]:
    """t = 0, NaN, and below, at, next to and beyond tbar; where the frequencies are finite,
    also at, next to and 2^-40 and 2^-39 below pi/(2 Re tp), pi/tp and, for a real pair,
    the start of the knot scan of ``blowup_time_kab``, max(pi/tp, (pi - asin(tm/tp))/tm)."""
    ts = [0.0, math.nan]
    try:
        tbar = blowup_time_kab(ka, kb).time
    except (ValueError, FloatingPointError):
        tbar = math.nan
    if math.isfinite(tbar):
        ts += [0.5 * tbar, math.nextafter(tbar, 0.0), tbar, math.nextafter(tbar, math.inf), 1.5 * tbar]
    else:
        ts += [1e-160, 1.0, 1e10]
    tp, tm = theta_from_kappas(ka, kb)
    marks = []
    if math.isfinite(abs(tp)) and math.isfinite(abs(tm)) and tm.real > 0.0:
        tp, tm = tp.real, tm.real
        marks = [math.pi / (2.0 * tp), math.pi / tp]
        if tm <= tp and ka < 0.0:
            marks.append(max(math.pi / tp, (math.pi - math.asin(tm / tp)) / tm))
    for mark in marks:
        below = (1.0 - 2.0**-40) * mark
        ts += [mark, math.nextafter(mark, 0.0), math.nextafter(mark, math.inf),
               below, math.nextafter(below, 0.0), (1.0 - 2.0**-39) * mark]
    return ts


def _scalar_outcome(fn, *args) -> str:
    """float.hex of the value, or the exception's class and message."""
    try:
        return float(fn(*args)).hex()
    except Exception as err:  # every class counts: the bits include what is raised
        return f"{type(err).__name__}: {err}"


def _scalar_digest(pairs) -> tuple[int, str]:
    """(rows, SHA-256) of tbar for every pair and s_kab on every row (kappa_a, kappa_b, t)."""
    lines = []
    for ka, kb in pairs:
        lines.append(f"{ka.hex()} {kb.hex()} tbar {_scalar_outcome(lambda: blowup_time_kab(ka, kb).time)}")
        for t in _scalar_times(ka, kb):
            lines.append(f"{ka.hex()} {kb.hex()} {t.hex()} {_scalar_outcome(eval_s_kab, ka, kb, t)}")
    return len(lines) - len(pairs), hashlib.sha256("\n".join(lines).encode()).hexdigest()


# _scalar_digest over _scalar_pairs(SCALAR_DRAWS) but the SCALAR_MENDED pairs, frozen
# from an eval_s_kab that solved tbar on every call (3544 rows of 222 pairs). The
# three pairs kappa_a < 0 < kappa_b whose kappa_b^2 overflows were frozen on their own
# when the overflow was mended: each of their rows had read "no root in the proven
# bracket (nan, nan]"; now tbar is within 4 eps of tools/tbar_reference.py, and s_kab
# within 2.6e-16 of tools/skab_reference.py where its condition is 2.5. Explicit rows:
# two exceptions, alpha underflows and t at tbar (-3, 4) itself, and the value at a
# pair whose kappa_b^2 overflows.
SCALAR_DRAWS, SCALAR_ROWS = 25, 3544
SCALAR_DIGEST = "2952739b99561f628404b307fa93d97977f0c86603f52e3bb2cde9b491925ab8"
SCALAR_MENDED = [(-493671309315386.44, 2.8879177153462065e+178), (-3.2557440019878095e+162, 1.073196510383514e+200),
                 (-8022.213922333807, 1.7715764618180433e+213)]
SCALAR_MENDED_ROWS, SCALAR_MENDED_DIGEST = 75, "3278aa03ec3aba3999d0fb01bcc9a01219c0ae656b3f2cc6639a577280c137ca"
SCALAR_EXPLICIT = [
    (1e-300, -1e300, 1.0,
     "FloatingPointError: alpha^2 = kappa_a / (16 beta^2) underflows to 0 for (1e-300, -1e+300)"),
    (-1e300, 1e300, 1e-160, "0x1.6c2d4256ffcc3p+533"),
    (-3.0, 4.0, 7.865647008775998,
     "DomainError: t=7.865647008775998 for (kappa_a, kappa_b)=(-3.0, 4.0) outside (0, 7.865647008775998)"),
]


class TestScalarLayerBits:
    """tbar and s_kab on a seeded set over every branch, against the digest of an earlier,
    tbar-for-every-call ``eval_s_kab`` and, for the pairs whose kappa_b^2 overflows, one of
    their own; and explicit rows of each exception."""

    def test_frozen_digest(self):
        pairs = _scalar_pairs(SCALAR_DRAWS)
        rows, digest = _scalar_digest([p for p in pairs if p not in SCALAR_MENDED])
        assert (rows, digest) == (SCALAR_ROWS, SCALAR_DIGEST)

    def test_mended_digest(self):
        assert set(SCALAR_MENDED) <= set(_scalar_pairs(SCALAR_DRAWS))
        assert _scalar_digest(SCALAR_MENDED) == (SCALAR_MENDED_ROWS, SCALAR_MENDED_DIGEST)

    @pytest.mark.parametrize("ka,kb,t,outcome", SCALAR_EXPLICIT)
    def test_explicit_rows(self, ka, kb, t, outcome):
        assert _scalar_outcome(eval_s_kab, ka, kb, t) == outcome


class TestTbarFloor:
    """``eval_s_kab`` solves tbar only where t is not below ``models._tbar_floor``."""

    def test_floor_is_below_tbar(self):
        finite = 0
        for ka, kb in _scalar_pairs(SCALAR_DRAWS):
            try:
                tbar = blowup_time_kab(ka, kb).time
            except (ValueError, FloatingPointError):
                continue
            floor = models._tbar_floor(ka, kb)
            assert floor <= tbar, (ka, kb, floor, tbar)
            finite += math.isfinite(tbar) and floor > 0.0
        assert finite > 100

    def test_no_solve_below_the_floor(self, monkeypatch):
        rows = [(ka, kb, t) for ka, kb in _scalar_pairs(40) if (floor := models._tbar_floor(ka, kb)) > 0.0
                for t in (0.5 * floor, math.nextafter(floor, 0.0))]
        want = [_scalar_outcome(eval_s_kab, *row) for row in rows]

        def solve(*args, **kwargs):
            raise AssertionError("_brentq called below the floor")

        monkeypatch.setattr(models, "_brentq", solve)
        assert len(rows) > 100 and [_scalar_outcome(eval_s_kab, *row) for row in rows] == want

    @pytest.mark.parametrize("seed,calls_before", [(1, 284), (7, 268)])
    def test_scaling_covariance_solves_two_thirds(self, seed, calls_before, monkeypatch):
        # calls_before: the _brentq calls of one run when every s_kab solved tbar
        calls, solve = [], models._brentq
        monkeypatch.setattr(models, "_brentq", lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
        assert checks.run_check(checks.check_names().index("scaling-covariance"), seed).passed
        assert len(calls) <= calls_before * 2 // 3, len(calls)


# ----------------------------------------------------------------------
# Frozen s_kab reference rows
# ----------------------------------------------------------------------

# From `PYTHONPATH=src python3 tools/skab_reference.py --sets 1`: every tenth
# row of its 2000 `wide` inputs and every fourth of its 400 `near-tbar`
# inputs, as ``kappa_a kappa_b t s cond``, the first four in float.hex, s the
# float nearest the 50-digit value and cond = |t s'(t) / s(t)|.
S_KAB_WIDE = """
0x1.e436b82bb5cc0p-4 0x1.204bf8d5634eap+2 0x1.041b521797f64p-10 0x1.f7ea898fd42cap+11 1.0
0x1.40777ef5195f4p+1 -0x1.1913a87eb09d3p+1 0x1.d20f42e3cf41ep-4 0x1.198023c5b0732p+5 0.998112
0x1.69ccd434925c4p+0 0x1.c35eba7fd9b10p+1 0x1.7f4317323c1d6p-18 0x1.55fd937b4e58bp+19 1.0
-0x1.2137d2f2e9b44p+1 -0x1.3b761326338f8p+2 0x1.eba26c52a6eaep-12 0x1.0a9ac65d8374ap+13 1.0
0x1.9a82808ebb9b0p+0 -0x1.45b16edda8d51p+1 0x1.7dcc67e7cc2f3p-11 0x1.574d32d4f6d08p+12 1.0
0x1.89e5a1070c1a8p+0 -0x1.601e79d0d00a0p-1 0x1.d6fde901f7d22p-6 0x1.164b6a9f8ca28p+7 0.999962
0x1.baf94d2467eb8p-1 0x1.b2cbd9d546914p+1 0x1.a4f21fe7b3dccp-6 0x1.375a0afe224b3p+7 1.00015
-0x1.0eaa96bc98ff8p+2 -0x1.d91ea1f1caa80p-4 0x1.12377d24ce7b0p-15 0x1.ddfca1b1b8dc8p+16 1.0
-0x1.1968bddc2a168p+0 0x1.2fcdaba3706f6p+2 0x1.0830acbb98262p-4 0x1.efcd06b5e2e38p+5 1.00132
0x1.3db80f9291cfep+1 -0x1.24ebbefa4d3c0p-1 0x1.7d35ef79f4e1dp-9 0x1.57d4b74166d51p+10 1.0
0x1.3db4429adc698p-1 -0x1.1f4fa1e2969eep+0 0x1.741df29943714p-15 0x1.603bbacc7a3fdp+16 1.0
-0x1.b50cafbc0df3ep+1 0x1.214c79b308ce4p+2 0x1.8d9ca796da690p-12 0x1.49a5e672c67edp+13 1.0
-0x1.e8d3477780869p+1 -0x1.65b975e589d30p+0 0x1.f865f7ed12b16p-3 0x1.0499a5098691fp+4 0.994245
-0x1.786c0a0de9fc0p-2 0x1.ec3003f689c28p+1 0x1.933f247c528d0p-15 0x1.450ab09df161bp+16 1.0
-0x1.5cd7f6db354a0p-2 -0x1.051024d41b611p+2 0x1.87cae6879cba1p+1 0x1.44c8ef2580079p+1 0.237909
-0x1.1d44f2e67788fp+1 0x1.01a1238cee800p-1 0x1.3b3791720fc08p-3 0x1.9fa6aaf4fe3dap+4 1.00078
-0x1.7168f4e4ae3bep+1 -0x1.cf963b996e505p+1 0x1.603267cf0695ap-6 0x1.742d1d371ec31p+7 0.999888
-0x1.9c620c17f7f1ap+1 0x1.44fca3ed9e230p+0 0x1.315e6ac808972p+0 0x1.99c16e6aca10cp+1 1.06267
0x1.aa5c7e6c81b4cp+1 -0x1.1eedbde791166p+2 0x1.fac02083a7bb1p+1 0x1.2c4085088d731p+0 6.21502
-0x1.6ce6867ad7f7cp+0 0x1.1cbbbef4c03eep+2 0x1.17daa7a9244b6p-5 0x1.d446f90364050p+6 1.00035
0x1.1e2e01278d7c8p+2 0x1.2782f2e5c5484p+2 0x1.3f333e69a8035p-5 0x1.9a87c68180e66p+6 1.00047
0x1.d07b811bccfd8p+0 -0x1.3386752a197d8p-1 0x1.01bcc83fd64a6p-14 0x1.fc8c6ea43ab8dp+15 1.0
-0x1.d0659869b57ffp+1 0x1.1e9f775cc97b0p-1 0x1.65068272599fcp-13 0x1.6f1f4fb970286p+14 1.0
0x1.19defee1b13e4p+1 -0x1.0e2a6a4f8d3b8p+0 0x1.e894e9b6cb996p+0 0x1.1bb8b8702f891p+1 1.02083
0x1.f55b7921cad24p+1 -0x1.9d6be560ad568p-1 0x1.47bb8937dd40fp-10 0x1.8fef94c63aa1ep+11 1.0
-0x1.9163c906e9450p-1 -0x1.2fa3162541ae2p+2 0x1.574968181777ep-7 0x1.7dd250ba84090p+8 0.999965
-0x1.2502837f217b0p-2 0x1.dbc7710def2d0p+1 0x1.068357fab10c1p-19 0x1.f34c0c34b9e5cp+20 1.0
0x1.16939695734a0p+2 0x1.013e93ba1da2ap+2 0x1.31032102f3b04p-20 0x1.adba1f654b6ebp+21 1.0
-0x1.105bfca6cf089p+2 -0x1.13c8428713145p+2 0x1.0c598b650c90ap-14 0x1.e86fe8448785ap+15 1.0
0x1.b1c0913f7f320p-2 -0x1.51301fbc67518p+0 0x1.98abc129583cep-13 0x1.40ba3d45c3d92p+14 1.0
-0x1.511f0cb6fc6e1p+1 -0x1.298f34a591b15p+2 0x1.166651d09e0dbp-9 0x1.d6ce327fe7ae3p+10 0.999999
0x1.c7b0cd1f0bf58p+1 -0x1.58e93a8479c78p-1 0x1.a46f3ac79b568p-16 0x1.37c0f139be465p+17 1.0
0x1.747d746659118p+1 0x1.3f13e37e32a14p+2 0x1.a779a78413f9cp-14 0x1.3583e1c8ee9f5p+15 1.0
0x1.5148b04e02670p+0 0x1.9934bc056cc38p+1 0x1.911e097fd77bfp-10 0x1.46c463e71a778p+11 1.0
0x1.adaa5789c2eb0p+1 0x1.155956ed50802p+2 0x1.01731e4c36c7fp-11 0x1.fd1df030a2999p+12 1.0
0x1.23dc4da9364aep+2 -0x1.0a670caf1baa0p+2 0x1.22757b8a0215bp-20 0x1.c34220ac292f4p+21 1.0
-0x1.91307fbc19330p-2 0x1.e23e3e484e590p+0 0x1.286a079f4122ep-8 0x1.ba31066dc472ep+9 1.0
0x1.a389e5029d2f0p-1 -0x1.12251a4260c00p+2 0x1.588a3ee6cde40p-12 0x1.7c6d120b613b3p+13 1.0
0x1.81fa22c5b7220p+1 -0x1.fae7dc04271b0p-1 0x1.1c77a17cce633p-9 0x1.ccc35651ba459p+10 1.0
-0x1.eca44765fab06p+0 -0x1.869c87f18a770p+0 0x1.3b97441e46be1p-14 0x1.9f52907ef0278p+15 1.0
-0x1.39bcd86a96651p+2 -0x1.1391d002d3120p-2 0x1.de0e6b94efb29p-10 0x1.122d4988ff1a4p+11 1.0
-0x1.d4f52b15ae441p+1 0x1.87ae2d69cbd78p+1 0x1.102b27ab5c363p-7 0x1.e1949b9303dcdp+8 1.00001
-0x1.2540dcabab4d2p+2 -0x1.f58e4804e3bfap+1 0x1.5876898fc6c51p-17 0x1.7c82d5bfe75d2p+18 1.0
-0x1.46c55886a3ff0p+1 -0x1.698bc58900e1bp+1 0x1.6fe242b3e9809p-3 0x1.655ea85f64827p+4 0.993932
-0x1.706d628fd4714p+1 0x1.e80c1ef265360p-1 0x1.4d82aa9de9d3dp-10 0x1.8901d792261dep+11 1.0
-0x1.38f8e5ba08766p+2 0x1.64531ee3c010cp+0 0x1.0086445be4a47p+2 0x1.bf83758d89b18p+0 0.0183013
-0x1.5ed5c2240c55cp+1 0x1.a01bebb061598p+1 0x1.2d44d157c69b7p-12 0x1.b3110c3ec8566p+13 1.0
-0x1.7f868a2100040p-2 0x1.b4317ca7e8c44p+1 0x1.ed582d8ebf1f0p-18 0x1.09ae356634727p+19 1.0
0x1.42a0c944ecc3ap+1 -0x1.6ab145290f682p+0 0x1.4b6003ebdbbbcp-17 0x1.8b8a2b68f8336p+18 1.0
-0x1.17e5f8fcecba1p+2 -0x1.48a63341101a4p+0 0x1.fe72bca293b7cp-19 0x1.00c73c4529307p+20 1.0
0x1.b16c625123ee0p-2 0x1.2b72069ceebcep+2 0x1.f008048ff4846p-20 0x1.083dcb063e38ep+21 1.0
-0x1.09f7ab2d9c376p+0 0x1.00bdd83629a50p+2 0x1.fceab7c45ff95p-12 0x1.018d07a2ced3dp+13 1.0
0x1.305feaecaeaf0p-1 -0x1.d0fa2c25e5884p+0 0x1.b92ab91a9345cp-6 0x1.291db4103d64bp+7 0.999912
-0x1.819d123512934p+1 0x1.34f8b05fad250p-1 0x1.4a04a1a372903p-12 0x1.8d2a85d10bc3bp+13 1.0
0x1.c62fa253e4bb0p+1 0x1.ecad6b589d104p+1 0x1.2f332c493eaecp-6 0x1.b046d3d0e38f7p+7 1.00009
0x1.0e07015e70ccep+1 0x1.3fddc7ed83a70p+2 0x1.a5728cc9638c0p-16 0x1.37011e13b8b8ap+17 1.0
-0x1.fbb0dcaddad76p+0 -0x1.2df9311e9d6c4p+1 0x1.22fe6560f6959p-6 0x1.c270ab6fda0afp+7 0.99995
0x1.a6fc464359de0p+0 -0x1.be8871910c41ap+1 0x1.7a1930e543b90p-18 0x1.5aa93c73c4a97p+19 1.0
0x1.313b2c5159390p+0 -0x1.329d2d9dcd45cp+2 0x1.a2107181d1e1dp-19 0x1.39856d69846f5p+20 1.0
-0x1.421c588b7e2a0p-2 0x1.3bec3a048b088p+2 0x1.4cc55c2f6017ap-3 0x1.882aaec40ef29p+4 1.00875
-0x1.4886a34af93c0p-1 -0x1.9a7f824fae0a2p+1 0x1.369c660756c7ap-4 0x1.a63d9b724986ep+5 0.998772
-0x1.c7eb1b68870e4p+0 -0x1.5c37d5093b652p+1 0x1.a8abf9b791e93p-19 0x1.34a49ffafdab5p+20 1.0
0x1.641fb4a785cacp+0 0x1.a2b331e653044p+1 0x1.f0f04255eba80p-17 0x1.07c24d28b10fap+18 1.0
-0x1.34aee46f0c250p-2 -0x1.07af054ccad0cp+2 0x1.72147753b9b60p-14 0x1.622c104386ffap+15 1.0
-0x1.7b0d5afa0efa0p+0 0x1.3fb9dbff4a5a4p+1 0x1.fc21764e5eb52p-1 0x1.da11947e7f438p+1 1.17412
-0x1.3ab079027b57cp+0 0x1.e008a7557e884p+1 0x1.bfb659fb7b193p-12 0x1.24c26972059a3p+13 1.0
-0x1.6bc5be5194188p+0 -0x1.9b8d3c05b5680p-5 0x1.0ad283ec4b455p-9 0x1.eb3bb6f4fbae8p+10 1.0
0x1.cb14ede29d180p+1 0x1.df9841971cf4cp+1 0x1.01f2ad1186403p-8 0x1.fc21ed8de5cbbp+9 1.0
0x1.1173b850df59cp+2 0x1.19f71fe4a9e54p+1 0x1.2c3edaf59a02bp-11 0x1.b48ca39f84e3ap+12 1.0
-0x1.0c7333a3223cdp+2 -0x1.49d9808b1afc8p+0 0x1.0330190119156p+2 0x1.290c62ff619abp+1 0.00121447
-0x1.256c3c1b4d5c0p-2 0x1.32271e46240bcp+1 0x1.82b0d70a34053p-2 0x1.4f17845b812eep+3 1.02315
0x1.2d2493972f1e2p+2 -0x1.f848609a91a2ep+1 0x1.0560c42c17974p-12 0x1.f5771fb6120fap+13 1.0
-0x1.c3d784fe610a1p+1 0x1.82b345886ec20p+1 0x1.f0337dc70d6c3p-14 0x1.0826a45f6d29dp+15 1.0
0x1.eb5b5efef2c00p-3 0x1.d86a6e123a4b8p-1 0x1.d7fb1b8fbcdccp-19 0x1.15b4c6d9f9452p+20 1.0
-0x1.fb7edf105f5c4p+1 0x1.2b8e6bb7d4c3ap+2 0x1.de7ea3dab3380p-2 0x1.0898072a6e263p+3 1.07053
0x1.129a6d9918df0p+0 0x1.e58c6c4fc4338p+1 0x1.1aa054d912637p-3 0x1.cea5663aaaff1p+4 1.00484
-0x1.11b71342f28fdp+2 0x1.970906fdc0094p+0 0x1.2bc9f1d3ca8ccp-8 0x1.b536c30625f85p+9 1.0
-0x1.8b6d1395ccc7ap+0 0x1.b855ef8a6ec64p+0 0x1.5c7d9b00f7325p-5 0x1.78130a123bffap+6 1.00021
0x1.bdd5d4557e4b8p+0 -0x1.b24394f792484p+1 0x1.3e3b4c7c7584fp-15 0x1.9be0470d0a898p+16 1.0
0x1.dbf6daa077480p-3 0x1.8bdd635fcf6a0p-2 0x1.8c952c3c727d4p-9 0x1.4a80e75f88d3cp+10 1.0
-0x1.1e6fc02e72b4ep+2 -0x1.c04aef0158710p-1 0x1.2a2ed88ea0b5ep-6 0x1.b792c0990f321p+7 0.999981
-0x1.1db4738811458p+2 -0x1.837ba9ccc9614p+1 0x1.0b82939a5979ap-8 0x1.e9f89ed52a731p+9 0.999997
-0x1.5361fd5bdb97ap+1 0x1.e9059fd4eb6a8p+1 0x1.bfa733e57d9e2p-3 0x1.23043ef701c0ep+4 1.01224
-0x1.2c5e71e10d8b8p-1 0x1.0fef2acde3cd8p+1 0x1.a1e5d14979fe6p-20 0x1.39a568223f711p+21 1.0
-0x1.032b52c3be727p+1 0x1.a02bad90c2310p+1 0x1.e64a56f897235p-1 0x1.e68ac9baf48d5p+1 1.21482
-0x1.02354ae8e0b49p+1 -0x1.2847d5df9986fp+1 0x1.3de037732c424p-10 0x1.9c564e50b9219p+11 1.0
0x1.237baf3314f10p-2 -0x1.3a024df9c3c2fp+2 0x1.ffd74507ff81ap-19 0x1.00145f1ae1612p+20 1.0
0x1.18377439bbc7cp+0 0x1.0a79a4d209a2ap+2 0x1.267ef51d24590p-12 0x1.bd12866a967f5p+13 1.0
0x1.c4af6e2e44f8cp+0 -0x1.dba7ae0055a74p+1 0x1.f97c6f260bb28p-9 0x1.034ca65412702p+10 0.999996
0x1.cd729c776f868p+1 -0x1.e2c33b4d1cc2ap+1 0x1.21173125ccfc8p-12 0x1.c564eaed24ee0p+13 1.0
0x1.39f12d84ec40ep+2 -0x1.2a3e3d621c0c0p-2 0x1.7172b538a4c53p-17 0x1.62c7221e32076p+18 1.0
0x1.b84f635cd6e80p+1 -0x1.b013e88fedf74p+0 0x1.3e6bd383ae409p-19 0x1.9ba181ed5c3acp+20 1.0
-0x1.8843c9fddb3f8p+1 -0x1.fae8bcc9a65bep+1 0x1.761cd6120a02cp-1 0x1.771289a250657p+2 0.868163
0x1.8072cab9a81b8p+1 -0x1.83bb4408c1ecbp+1 0x1.a9182f70a1f7cp-16 0x1.34560eef8decbp+17 1.0
0x1.e6e3725d15d00p-4 0x1.5b92e8f32caa0p+1 0x1.4a6e8109c705dp-16 0x1.8cab44a064c29p+17 1.0
-0x1.b07cf64371b07p+1 0x1.a75f67ebb6254p+1 0x1.fa0ffa9b9f3afp-12 0x1.0300ed0bb8770p+13 1.0
-0x1.1eb16e62d4c40p-4 -0x1.5a65496a425a0p+1 0x1.01d6be2c93b1ap-7 0x1.fc59f49df098ep+8 0.999989
-0x1.85061f4830225p+1 -0x1.d34e24cc75c40p+1 0x1.1637a98ad625ap-20 0x1.d71d1143c76dcp+21 1.0
0x1.8b10320cea404p+1 0x1.b9f90ed71e49cp+0 0x1.583d75fcb8ebbp-18 0x1.7cc1ece0c4676p+19 1.0
0x1.b404da56a6f80p-5 0x1.fda32de9c5658p+1 0x1.63bf95a184fb5p-10 0x1.7070aa7727073p+11 1.0
-0x1.e9b157c5672dap-48 -0x1.14425420b2d24p+1 0x1.a5acb8e538bbap-19 0x1.36d63677dd90fp+20 1.0
0x1.a5160db15ec31p-9 -0x1.6548ffb4fe100p-1 0x1.b70033cb07f7cp-20 0x1.2a91a5f59d9dcp+21 1.0
-0x1.d43767ccebfdap-33 0x1.1d8b65e16f530p+2 0x1.27e1dbe9f24adp-17 0x1.bafcad0513d50p+18 1.0
-0x1.04b8d3a7b8f60p-45 0x1.2ecc97194268cp+0 0x1.34e1da9bd08cbp-5 0x1.a851b457eaa1bp+6 1.00011
-0x1.bd2de578797e2p-41 -0x1.1ac0ce5138440p+1 0x1.0637c6469933bp-16 0x1.f3dbf0f3b7422p+17 1.0
0x1.6913a01f6cf28p-4 0x1.41bdbbdc85daap+1 0x1.f7b81d3da24edp-10 0x1.043558d6c9730p+11 1.0
-0x1.2beb61f0cb655p-45 -0x1.faca829626e87p+1 0x1.f7373cebaed5cp-19 0x1.04780227824efp+20 1.0
0x1.3758b66cc8208p-20 0x1.b498d575e5290p-1 0x1.3116bd22cf37cp-1 0x1.a944108fbf61bp+2 1.02056
0x1.1880f815830e7p-31 0x1.5841420e43a00p-4 0x1.76d7789346404p-8 0x1.5dac44d383dabp+9 1.0
-0x1.3aeb651b49ce2p-34 -0x1.64aa684df2f50p+0 0x1.ca915b2eb6d6fp-17 0x1.1dd43cea2f3acp+18 1.0
-0x1.32972dd199ea3p-35 0x1.fa15f60b8005cp+1 0x1.19a599563865cp-18 0x1.d16088af540a4p+19 1.0
-0x1.7d810056959a9p-24 -0x1.00f75d283ac0ap+2 0x1.39dd9d47abaa7p-1 0x1.b634e21548123p+2 0.907754
-0x1.197db3c10fcbbp-10 0x1.2ac6f2f7f60e0p+1 0x1.2a4bca4b89b6dp+0 0x1.86eb619f15fc8p+1 1.25938
0x1.40b1c5e960c2ep-30 -0x1.5c6f2b65e66b4p+0 0x1.33390202b92b0p-4 0x1.aabe798ca9c7bp+5 0.99949
0x1.fc2851c3fc6c1p-29 0x1.be2fc9341e300p-5 0x1.a0f8c4337c9fbp-4 0x1.3a5633d9b574cp+5 1.00004
-0x1.16e5b5ffaf0f2p-60 0x1.dc242b730c040p-4 0x1.e865e0bdeeb7bp-9 0x1.0c5f0d29a54ebp+10 1.0
0x1.6c73bf89304dap-43 0x1.9f483cfaaacc0p+1 0x1.6b67611513e57p-11 0x1.68adba96fb949p+12 1.0
-0x1.901e0c9479c5ap-20 -0x1.6bdb965e40492p+0 0x1.c8c29e36bf707p-1 0x1.299faa5379981p+2 0.92937
-0x1.6893251dbc2ebp-38 -0x1.2f69574195e30p+0 0x1.42044c23a8fb1p+0 0x1.afe096940c21dp+1 0.887633
-0x1.148600fe71c7dp-46 -0x1.ed9143c90d370p-1 0x1.b73bca126515bp-18 0x1.2a6924dda84fdp+19 1.0
-0x1.459f4dfcf611ep-43 -0x1.220b08902976ep+2 0x1.2ad1f775be755p-1 0x1.ccc2a590dcbbbp+2 0.905805
0x1.e6d43459d9c6cp-28 -0x1.f081b7833bd44p+0 0x1.6531cbf5a626ep-4 0x1.6f20ff3e15156p+5 0.999018
0x1.8d954b469c416p-28 0x1.3370e3a3f8644p+0 0x1.26ba1a1e99643p+2 -0x1.dd74bab5bd081p-2 11.4
-0x1.c59fda9f04f80p-28 0x1.2822c465f6194p+1 0x1.0f4f79c6b22d7p-3 0x1.e273f0376fa2bp+4 1.00271
-0x1.9d1e91455d5ebp-21 -0x1.ad1416f82ad00p-4 0x1.9cf5d0eb0e0b0p-20 0x1.3d656caeb255dp+21 1.0
-0x1.b4b16de781484p-32 -0x1.28fb8910565fcp+2 0x1.7463855f3ab0dp-10 0x1.5ff9f33a103c4p+11 0.999999
0x1.3e5a9e18b763ep-48 -0x1.b9161b7b55ad6p+1 0x1.b97addbac524dp-17 0x1.28e46e4a31157p+18 1.0
0x1.522a50ef4a590p-13 0x1.70ab156a8b740p-3 0x1.fa0c745ab9b04p-8 0x1.0302b53233cb4p+9 1.0
0x1.b8489719df781p-17 -0x1.0abd3830bb608p+2 0x1.18aa1445ee8fep-9 0x1.d301a967dc874p+10 0.999999
-0x1.fae5d86961ccfp-14 -0x1.07a1f54c0417cp+2 0x1.08edb0372a0b8p-5 0x1.eed0df6bf2fe1p+6 0.999713
0x1.f1f0666babee0p-52 0x1.e28095b6e72a0p+1 0x1.217bd8348642dp-8 0x1.c4c6fd1b96fd0p+9 1.0
0x1.040c719de2138p-52 -0x1.541ba39088401p+1 0x1.63c9ea67bbad2p-4 0x1.70a4ff864c55fp+5 0.998665
-0x1.61763209c7c43p-47 0x1.1cccd2bff6e50p-2 0x1.1f2d51208562bp-11 0x1.c86a545c75308p+12 1.0
0x1.175ea09cf815cp-51 0x1.bb760884de814p+0 0x1.540d7360e97acp+0 0x1.587e66abb32f6p+1 1.24821
0x1.6e24c3b5abf4bp-32 0x1.d545e17ae2c94p+1 0x1.35c1082cbb2c9p-7 0x1.a724df158a04ep+8 1.00002
0x1.50c437f9406c9p-3 -0x1.3774a36d4945dp+2 0x1.94c4db87068ebp-16 0x1.43d1bcaa8be3dp+17 1.0
-0x1.5ac9db1a19544p-16 0x1.8b30ed4dc89f4p+1 0x1.460a94a16a5cdp-8 0x1.92026553fdbc4p+9 1.00001
0x1.b58b955260fc1p-21 -0x1.6df5244f326a9p+1 0x1.b877c73dc6ae5p-6 0x1.2998502168d5bp+7 0.999862
0x1.661484441754ep-9 -0x1.4ea50cd3b7956p+1 0x1.33e937c8e41b8p-6 0x1.a9b1cd4ac217bp+7 0.999938
-0x1.95e5e9dcab6e6p-46 -0x1.9ff637fdb4132p+0 0x1.176e77ede491bp-3 0x1.d58a15c3ef097p+4 0.997987
0x1.90de1514027dfp-36 -0x1.ec754ebdd8b4dp+1 0x1.a931610c7dae8p-8 0x1.344436f16ff5fp+9 0.999989
-0x1.f65fb951436c8p-19 0x1.99bd7270f7bccp+1 0x1.0d88a51a139fbp-2 0x1.e2afa22ac7a9ap+3 1.01498
-0x1.ad1ec4ee3b719p-16 0x1.0cf01ecef22e8p+1 0x1.366f04d5d2cc9p-12 0x1.a638e4df5e1dfp+13 1.0
0x1.71b9582d8402ep-16 -0x1.98e6869c91c9ep+1 0x1.282cd2d799199p-15 0x1.ba8c8d49632eep+16 1.0
-0x1.781f5724e29f6p-58 0x1.93b48f78fa860p-3 0x1.1cb5c2ec930a6p+1 0x1.bd35812adb309p+0 1.069
0x1.22e5b1333a601p-41 0x1.c7cd3c921919cp+1 0x1.7817e7592a81bp-19 0x1.5c825ac8bb1b3p+20 1.0
-0x1.66a973f2ae4f6p-30 0x1.084f6d2f009e2p+2 0x1.473751133267fp-1 0x1.79874d6c662dap+2 1.12489
-0x1.2a540ae37cf7ep-22 0x1.9d66fb69f2dbcp+0 0x1.176a6e1218d38p+0 0x1.b638cd996b620p+1 1.14465
-0x1.3d4416e87578cp-46 -0x1.3df3c9acc2dcep+2 0x1.aecf708056401p-5 0x1.3062744d58636p+6 0.999085
0x1.a42b20cc924b8p-41 -0x1.f149a992eefc5p+1 0x1.16c57dfcb9988p+1 0x1.622e1c1e5a079p+1 0.432588
0x1.057e042e90b80p-38 -0x1.c89f13fc1f1c0p-2 0x1.ff7d18822f1f3p-12 0x1.0041848e60b80p+13 1.0
-0x1.bb58e8fc4a5aep-44 0x1.cdde3a4333ffcp+0 0x1.98a6647e9fb0cp-8 0x1.40be416b268a9p+9 1.0
-0x1.c13c6e4c71da7p-31 0x1.9dd1f3c362a94p+1 0x1.77529ca323f80p-6 0x1.5d347ee7d236ep+7 1.00011
0x1.4e90da5cef89ap-39 0x1.fd369b4ec6c80p-4 0x1.fe7e217bd3bb3p-3 0x1.00b09428eef77p+4 1.00052
-0x1.31a3a7bc56befp-31 -0x1.76fa540259cc2p+1 0x1.5d9e92187cac7p-8 0x1.76e66ed246590p+9 0.999994
0x1.29ff3e90df6bap-9 -0x1.3d28f6df838f2p+1 0x1.ca104abd82769p+0 0x1.630d5b8ff7b38p+1 0.644589
0x1.20c206c0edec1p-27 0x1.ea334e7bbd478p-1 0x1.02f33fddde2d7p+0 0x1.e96c069a10887p+1 1.06933
0x1.07d6ec7b9df08p-12 -0x1.229c7c8e8e501p+2 0x1.9fc106d54ae0dp-16 0x1.3b436a9252d54p+17 1.0
-0x1.2c87aa575333dp-39 -0x1.9591a092ec9b0p-1 0x1.3cd62ce9dcbd4p-19 0x1.9db0865d822d7p+20 1.0
0x1.5bea94a913061p-40 0x1.12377a0a93d20p-3 0x1.7c0bf868e08fdp-12 0x1.58e245cb18e0ep+13 1.0
0x1.03b7815b964d2p-18 0x1.1231088416c58p+1 0x1.222c2922c7d9ep-5 0x1.c3a9cb0da77e2p+6 1.00018
-0x1.aae891c6a7e49p-32 0x1.3d823a4f6386cp+2 0x1.34e67cb42ed6cp-4 0x1.a7eb39e2f5cafp+5 1.00188
-0x1.cebf64521757cp-23 0x1.32b700fd1b4bcp+0 0x1.d8cb95cc0f503p-7 0x1.1539bbac7bfa5p+8 1.00002
-0x1.892572be8dcadp-46 0x1.390571aa34372p+2 0x1.2aeae5556459cp-7 0x1.b67b9b79200cap+8 1.00003
-0x1.03fb9429ef081p-13 0x1.a7918ca7a5bc8p+1 0x1.cd0143bb18c48p-14 0x1.1c516812e858bp+15 1.0
-0x1.849f09674adefp-42 0x1.95f25a786c9d4p+1 0x1.61e88b5aeb336p+0 0x1.20b287526d3f5p+1 1.62025
-0x1.a616d0832c28ep-56 0x1.69d86ca965470p-1 0x1.ccef2d7415c73p-20 0x1.1c5c90311101dp+21 1.0
-0x1.04da0f83d9883p-35 -0x1.84751fb589745p+1 0x1.4987700f32494p-9 0x1.8dc17a68ccdb4p+10 0.999999
0x1.95800b306a4a8p-38 -0x1.3b15da51dd588p+2 0x1.1270b4878f498p-17 0x1.dd98faa647296p+18 1.0
-0x1.176907a3df690p-24 -0x1.38edebbf81370p-1 0x1.219d2816aef2bp+2 0x1.3465e5a932e7ep+0 0.531244
-0x1.d738fb8532ce3p-47 0x1.9422c0d2b3c6cp+1 0x1.391a842410162p-7 0x1.a29e2a1174514p+8 1.00002
-0x1.7d9d1e41b1a2ep-18 0x1.575b424682cfap+1 0x1.030f2075b3ec7p-8 0x1.f9f40f7bd4ec0p+9 1.0
0x1.b96e987c8b35ap-21 0x1.209ec171e0736p+2 0x1.3288af41b219cp-4 0x1.ab3bd1cd0bf62p+5 1.00169
0x1.98ab0fbe46d1ep-3 0x1.04304f3a0f54ep+2 0x1.d649da76a77f2p-6 0x1.16aca5bc12280p+7 1.00022
-0x1.51893178a11e2p-42 0x1.122b53105eb56p+2 0x1.7a1e665f8bb82p-13 0x1.5aa475ced7b87p+14 1.0
-0x1.01f349bfab9eap-20 0x1.40f901dc398e4p+1 0x1.4611acc665f79p-9 0x1.91f9dbaf82630p+10 1.0
0x1.a92fae0fd7da7p-47 0x1.b524b8abdb090p+1 0x1.1c1f0513e21bep-9 0x1.cd52f50d8e53bp+10 1.0
0x1.338fbfc9f2cbfp-5 -0x1.171336359d183p+2 0x1.b83ddbcb1d870p-13 0x1.29ba37672747bp+14 1.0
-0x1.35076981c1edap-21 0x1.e0e1f498f0e4cp+1 0x1.2270137990a10p-12 0x1.c34a86d5515e1p+13 1.0
0x1.1ef711ef8b4a1p-18 -0x1.ef772e53df038p-1 0x1.8bd30f120ccefp-12 0x1.4b22fe95dfd18p+13 1.0
0x1.1d01ca878f8cbp-14 0x1.e3ad4a39faaa4p+0 0x1.17c51e787a0aep-18 0x1.d47fc706c51bcp+19 1.0
0x1.2270436cbb634p-28 -0x1.c3670ec7a3e3dp+1 0x1.70e4e24b8f603p+2 0x1.0b9c82e7314bcp+1 0.12475
-0x1.de1c6b2ea95f0p-38 -0x1.b41d0c2f9caa0p-3 0x1.64f21852c0a28p-14 0x1.6f344edc40fd9p+15 1.0
0x1.8d8e99b79bd5dp-19 0x1.8122cafe4a7a0p-1 0x1.88839fe568c04p-6 0x1.4decaf4cf900bp+7 1.00003
0x1.adfe003c9d57ap-12 -0x1.d7b1857e7c676p+0 0x1.5df407d2aa6c2p+0 0x1.9fb85c5af5f64p+1 0.810009
-0x1.05505a9b4a391p-50 0x1.dd6735826df10p+1 0x1.1c9ecd823cb00p-11 0x1.cc83e677ffca3p+12 1.0
0x1.43d91a60a93d9p-29 0x1.5588cfa63f962p+1 0x1.5b7e4f153d7fap+1 0x1.f4375cfaf11d6p-5 74.4193
0x1.ee92b75c7786cp-5 -0x1.f92d06862e644p+1 0x1.0825fc4d1497ap-13 0x1.f034b99ce4545p+14 1.0
0x1.1c19673e97a8fp-54 0x1.6db5b5f1c8380p-4 0x1.e47339237e039p-12 0x1.0e8eedb0e3eebp+13 1.0
0x1.c6c6515ffa26dp-47 0x1.f4c1aa4c2a7b0p-1 0x1.bd4550f8eb4b7p-5 0x1.26561b712ab74p+6 1.00019
0x1.073e3424a2451p-30 0x1.d762b199d8480p+1 0x1.9ec9f1f31cf7dp-19 0x1.3bff3664c05f0p+20 1.0
0x1.5b0bbea7a027bp-39 0x1.8efca46a4da60p-3 0x1.6f0953da09e74p-17 0x1.651be4d493ebdp+18 1.0
0x1.397fefdce9686p-42 -0x1.6e6f5ad56a8a0p-2 0x1.a40245d2fbc82p-7 0x1.3811f8fd74177p+8 0.999996
0x1.1f2627391126bp-24 -0x1.00ea391108594p+2 0x1.dc4b535b51a54p+0 0x1.809fe5827ad4ep+1 0.504394
0x1.ad483bf0cd4d0p-12 0x1.4029fd62fd308p+0 0x1.be5598bbaf771p-10 0x1.25a9c888b9eddp+11 1.0
0x1.39845a79528bap-7 -0x1.9ad9a0f6e1630p-1 0x1.22e989850759ap-19 0x1.c28e1b09e66d8p+20 1.0
0x1.99471b3d1af02p-41 -0x1.1fd5bbf3ca300p-4 0x1.6ad17c114f8e5p-9 0x1.6942bef5c187bp+10 1.0
0x1.a0a0ddeff06f7p-48 -0x1.b6be5c7fa09b3p+1 0x1.28d8e2e9c7b78p-1 0x1.ca416af84c6b8p+2 0.928142
0x1.dd1a72da3670cp-33 0x1.221bc9c1a9238p+2 0x1.4b4119a7212cep-5 0x1.8b960e4e3742ep+6 1.00049
0x1.492a55e36fb16p-34 -0x1.771ebe135035ap+1 0x1.6d9285be4c9ecp+2 0x1.ee931594a667ep+0 0.142882
"""
S_KAB_NEAR_TBAR = """
0x1.6a941f6c8f1d6p+1 0x1.21fca586b905ap+2 0x1.4929f3d1bf79ap+1 -0x1.2408411cbfda8p+17 384509.0
-0x1.eb9877e448abcp+0 0x1.2e78ac38e9c12p+2 0x1.ede9b7b7f47eep+1 -0x1.418e31977c7f7p+13 39687.0
0x1.ec186266c69f8p+1 -0x1.5736f9ee65b72p+0 0x1.d9733d72b5c29p+1 -0x1.30171c6c1142ep+7 574.687
0x1.53ff9c01da792p+1 0x1.16dc131184c1cp+2 0x1.4efa5e46ecc25p+1 -0x1.14e47ee8f8b48p+9 1452.16
0x1.9bb783bab1803p-36 -0x1.bfa0abf0dd5ecp+0 0x1.a34af1c28e8abp+19 0x1.1be155a4f2455p+0 35270.9
0x1.a5c92f913b108p+1 0x1.aaf70d43e3008p-1 0x1.a5c8eb5ab6d7dp+1 -0x1.7b3f00ff9e5b5p+17 639849.0
0x1.0591f724252a0p-1 0x1.b37048eb301d0p+1 0x1.9c355e20989ddp+1 -0x1.4f1d929cf8b8cp+13 34535.7
-0x1.dc059efbe30f1p-7 0x1.a7bd4ccb88e80p+0 0x1.3a0b5bc18b5efp+2 -0x1.def4b3fba578fp+5 293.694
0x1.57f9ae4d33deep-7 0x1.1b74d2b884220p+2 0x1.7b22904529dacp+1 -0x1.795c49a86afc7p+5 140.014
0x1.fbb3a239cb4e0p+1 0x1.f052ed9487394p+1 0x1.4a93814932a0cp+1 -0x1.8a1df3f4ffa28p+12 16289.6
0x1.1d115ecc2d461p-24 0x1.1dd69af3c3b48p+1 0x1.05953294f9f71p+2 -0x1.0de7564fa5516p+3 35.5256
-0x1.2b7563a7ae74cp-22 0x1.03c54c00dd4e0p-1 0x1.1a45f92bb4addp+3 -0x1.3d237ea62f862p+16 716158.0
0x1.2366c79777d8ep+1 0x1.13991264da778p+0 0x1.beb23a4f6ffacp+1 -0x1.2875f3576b2ccp+11 8283.56
0x1.194f1663dd147p-50 -0x1.8fb95e845e960p-1 0x1.52465fa8f110dp+26 0x1.c463abb0bbbeap-1 0.00322216
-0x1.08f7fed336f6bp-4 0x1.5a9a6e15d75dcp+0 0x1.6e21b8c715608p+2 -0x1.ddd37940f1c34p+4 169.215
-0x1.d254dde179dc0p-48 0x1.de729937091dcp+0 0x1.262005091e06ep+2 -0x1.828b0447f466ap+11 14211.5
0x1.845c2542eb84cp-36 -0x1.b83729a841ad8p+1 0x1.2e6d5c4358227p+20 0x1.da8c88341ae50p+0 0.42417
0x1.3eacc89f44d10p+2 -0x1.cce1c9eda2730p+0 0x1.c36afedaa37c9p+1 -0x1.2d66fce22b896p+8 1075.8
-0x1.553d746d0ba38p+0 0x1.94bc07ae2c3b0p+1 0x1.8855e677ef038p+2 -0x1.0766ac4d37290p+16 413360.0
-0x1.526c883c1e92ap-30 0x1.4b71451eaa6f0p+0 0x1.5f6ab40298ebcp+2 -0x1.011754d8b8061p+5 176.677
-0x1.46b6e650c97d9p-48 0x1.1be575bae602cp+2 0x1.61849f858aecbp+1 -0x1.0d06d21c57161p+2 14.3041
0x1.1df073f4f37d1p-4 -0x1.2903c9f5391f0p+0 0x1.dce921c7b4d0ep+3 -0x1.515369cef3a4fp+9 10087.6
0x1.c91e275722a50p+1 0x1.bf1e7acb41840p-3 0x1.b1792b57bc375p+1 -0x1.b893907e2fc93p+16 381965.0
0x1.7e9e7d075d478p+1 0x1.a360c84af42f8p+0 0x1.88e7b7c4deaf6p+1 -0x1.47dcc9af683e3p+3 38.4648
0x1.152dcc55f6e24p-46 0x1.984683aac43f8p+0 0x1.324bc660674e9p+2 -0x1.4b7fa56fc3c30p+2 26.2064
0x1.6315e43c90850p-7 0x1.0d0a8a1e9c588p+0 0x1.8298ffdbe3e74p+2 -0x1.9594827ecd033p+8 2450.32
-0x1.d53ef55de3c36p-14 0x1.82275faf18640p+1 0x1.ce90718040524p+1 -0x1.0a8c535d95385p+8 963.288
0x1.721a97ae2127cp-21 -0x1.16de93bd36810p-1 0x1.5d1bac0f6d4dbp+11 0x1.3a01d1963e656p-2 1694.77
0x1.d8af547702419p-45 0x1.0ea2b592522fcp+2 0x1.8714d75267162p+1 -0x1.b7b61acd82c1fp+12 21495.4
0x1.0aa94fbec71bdp-25 -0x1.89a5d4133b278p-1 0x1.e89cc561e94ccp+13 0x1.8d19b79735c93p-6 468948.0
0x1.7c5503f0ff6a2p-53 0x1.1e44826a65ba0p-3 0x1.0ce3c628e6043p+4 -0x1.68588104c56f9p+12 96893.3
0x1.68211496c2078p-1 0x1.d791fce29d530p-1 0x1.1bd63e669a475p+2 -0x1.e77a098e1f82ap+6 546.273
0x1.d6193eaa7c4aap-4 0x1.0429d19a1c438p+2 0x1.8adff444549c3p+1 -0x1.104cf9067af54p+15 107525.0
0x1.aeb81a0b8b324p+1 -0x1.247fcbc48a144p+0 0x1.e6664d7375c83p+1 -0x1.6b4d6e560593ap+16 353432.0
0x1.f9d03c562f7a4p+1 -0x1.9c942270ceb4dp+1 0x1.091105807cabep+2 -0x1.47602366e1badp+14 86793.2
-0x1.358bdd215d702p-19 0x1.62249f8451dcap+1 0x1.e38224ac037bcp+1 -0x1.0f9ae216c2710p+16 262647.0
0x1.6a14fd1f1b4aep-20 -0x1.26d29f69bce63p+2 0x1.6a6d77602fd1ep+12 0x1.025c14f8be67dp+1 46.9721
0x1.a204c76d85afcp+1 0x1.f803369e96e00p-6 0x1.c11893640112ep+1 -0x1.152ba0862f053p+9 1954.19
0x1.39837d367e108p+1 -0x1.4c6a23ba4b518p+1 0x1.2bf2e88df389bp+2 -0x1.c6698a644c9bdp+8 2146.84
0x1.d6ec6e40e64c0p+0 -0x1.349b0feab3d97p+1 0x1.45b6ac1e46ba9p+2 -0x1.adcb5653833e7p+5 291.445
0x1.02f764644ee2bp-7 -0x1.305e01bd38d36p+2 0x1.3767f8597054bp+6 -0x1.2ee12ccd7b36dp+2 786.332
0x1.5e93bd1dc2304p+0 0x1.005ead564e45ep+2 0x1.6cd88efe87df8p+1 -0x1.927b9385287cap+11 9179.9
0x1.f37ead1a00ea8p+1 0x1.25b9750f8f300p+0 0x1.8cd15d35758acp+1 -0x1.3d03896027833p+7 498.685
0x1.b266fb890da3fp-14 0x1.272d1803942cep+1 0x1.08c1349468fe5p+2 -0x1.82f8f8dba67bap+10 6403.31
0x1.06140b6e42ac0p-3 0x1.0624375efbb66p+2 0x1.890153ac73499p+1 -0x1.d3bfa082ecdd6p+15 183828.0
-0x1.b4c44d7e5e5dbp-23 0x1.0c387a57794aap+1 0x1.15c691f459277p+2 -0x1.fcc57b9d74c09p+11 17665.5
0x1.7ee53baeb67f2p+1 -0x1.159f13a8531c0p-3 0x1.d1555801114bcp+1 -0x1.b8cadaf14b989p+12 25649.0
-0x1.e471a49966200p+1 0x1.0329441a359e8p+2 0x1.f63af68675fc5p+3 -0x1.000ec7d43da7bp+13 128597.0
-0x1.6ffc43c63f434p-31 0x1.b09194b673910p+1 0x1.b53a6b8ca051ep+1 -0x1.ea83b904f585bp+8 1675.55
-0x1.498b94859d900p-2 0x1.2e4495b9e8a34p+2 0x1.7abb00f0b2321p+1 -0x1.fcb80974ecafbp+14 96333.0
0x1.ab2206949adccp+1 0x1.1b1b827d0dc4ep+2 0x1.45d5bbc2a2973p+1 -0x1.022ac5d034a8cp+10 2631.95
-0x1.1c1a2bb7126fep+2 0x1.13f22f35fa58ap+2 0x1.3bc7616a04a8cp+4 -0x1.af143807d2426p+10 34015.7
0x1.24a46ce002fccp+0 0x1.df427c3c906e8p+0 0x1.a0a81b74d227bp+1 -0x1.f18e7488e3a2dp+0 14.2911
0x1.68a730c341787p-58 0x1.6cc9413a308c0p-3 0x1.dc5c161f1ff5bp+3 -0x1.67088c2aba33fp+9 10689.3
0x1.c03a7ab2f4498p+1 -0x1.22cf114bf6a80p-1 0x1.cbabc7715fc6bp+1 -0x1.2c547925d64a2p+6 280.305
-0x1.0c9a2b2f3546ap+0 0x1.0aa71d274b65ep+2 0x1.c17084b636fa0p+1 -0x1.5c738bfba3099p+8 1218.85
-0x1.8c09b2542f47cp+1 0x1.3353d3c782c90p+2 0x1.3f39761462cd6p+2 -0x1.a3c0961d81aa3p+12 33492.7
0x1.571a728d49de5p-12 -0x1.402943d2cbcc0p-4 0x1.c5298e18cce7dp+5 -0x1.35e8a4f59524dp+10 70252.0
0x1.4f67443a2455ap-55 -0x1.21069fa068240p+0 0x1.07f1c82f3ef4cp+29 0x1.1000149f3cce1p+0 1.11829
0x1.0f9073547ccf6p+2 0x1.0bf4ff6466958p-1 0x1.9753bdc903579p+1 -0x1.352934e7b2d4ep+16 251868.0
0x1.d2924c70f55bdp+0 -0x1.3e782e3e107f1p+2 0x1.8da4307967fddp+2 -0x1.52abb0435150ep+8 2132.97
0x1.3348b00c439b8p-46 0x1.f12d62ac99534p+1 0x1.981213ec5c4c0p+1 -0x1.13cf58a203115p+15 112550.0
-0x1.5f614b0d7d2a7p-18 0x1.30c9ce4b30124p+0 0x1.6f44711bc6fb2p+2 -0x1.92a9dd12f6b8bp+5 288.973
0x1.127ea65abbcc8p+1 -0x1.b52779d4a58e8p+0 0x1.240c92f8ff215p+2 -0x1.d6b23c74a50fap+12 34381.2
-0x1.2ee3847dbd2d9p-11 0x1.3eca46ecb8014p+0 0x1.688cb6706612ap+2 -0x1.bfa2a6fe80b88p+13 80697.4
0x1.50f59b1412b96p+1 -0x1.0bc9e1b76d0e2p+2 0x1.4276a43c91f93p+2 -0x1.bdcd1fb913bc7p+3 94.0451
0x1.ab0d275f46e08p-35 0x1.16314db27e5ecp+1 0x1.0dea3c892116dp+2 -0x1.6683b77cd01e1p+4 94.9052
0x1.1647b04dac160p+0 -0x1.aa0b2815fd2c0p-1 0x1.4a228a7b8bdf7p+2 -0x1.88198f9e3d819p+16 517796.0
0x1.3723444e3c49ep+2 0x1.75867f6a5d348p-1 0x1.858cf000abfe0p+1 -0x1.53646f1361cacp+14 66113.3
0x1.4ad9f46bfe5e0p+1 -0x1.1c78f1b804f9dp+2 0x1.4e3a1b351b055p+2 -0x1.548d074bcabdap+16 455308.0
-0x1.c5d8f0b19162ap-12 0x1.3557160f7a328p+0 0x1.6de533c982febp+2 -0x1.82e942cf3af17p+9 4424.03
0x1.333d8a4616584p+1 0x1.7015f41a82b00p-4 0x1.e2897ac6ecc93p+1 -0x1.36be4ee2c1669p+13 37495.4
0x1.9b77b2476b6f7p-52 0x1.6a0988188cde2p+1 0x1.d74c5a6e3f14ap+1 -0x1.2785b6eee7253p+4 68.5631
0x1.2674f7e650e08p+1 0x1.51f9ea5bea9a0p-2 0x1.dd1357ea8b29ep+1 -0x1.125566e11e3bep+13 32727.9
0x1.fa6adb7b3f714p-17 0x1.f5bba0c4fd580p-2 0x1.1b7bf43a15133p+3 -0x1.1215b4d252643p+3 76.3803
0x1.329bb9d9768d7p-19 0x1.1a5d00861b9c4p+0 0x1.7ee17a6a84991p+2 -0x1.9f3f2db9f9a57p+12 39747.5
0x1.a3964dc222b41p-3 -0x1.37db27730d234p+0 0x1.3420b4cfabc50p+3 -0x1.7cff2ce5b8802p+2 82.3004
-0x1.2f2ce33aa6298p+1 0x1.a1ea417aa0640p+1 0x1.b75553b6560fep+3 -0x1.8ce351b2e9db4p+7 2690.28
0x1.b18791958bad0p-1 0x1.7c434c2f6de9cp+1 0x1.9e3f5a298cd27p+1 -0x1.65f3e18ae445bp+4 75.1347
-0x1.e7ea7e60abd19p-21 0x1.28de73d92a3dcp+2 0x1.74a0f99bc007ap+1 -0x1.439571bda4e8bp+7 471.086
0x1.28c102fb62d9cp+1 -0x1.3042df8c9d276p+1 0x1.2181a41ae265dp+2 -0x1.f4b49dcf538ebp+1 38.127
-0x1.af1fe2cdefd16p+1 0x1.e46b25e6d45f4p+1 0x1.1571e96a4f652p+4 -0x1.1732cb036f429p+1 9.37375
0x1.66352cb4ab4ecp+0 -0x1.011b0ee2319e4p+1 0x1.5abd4eea91be8p+2 -0x1.e45a6293151cfp+11 21010.4
-0x1.73d4799fc7b1cp-48 0x1.83acdd13ca74cp+0 0x1.397fb5e608e24p+2 -0x1.2e0da5a7f250ep+2 24.6261
-0x1.842c5a4d70600p-5 0x1.a419d56836c50p+1 0x1.becf968a4b850p+1 -0x1.0b0550228171bp+10 3728.2
0x1.23121b6b43bccp+2 -0x1.8a633bc906ed6p+1 0x1.d9ae7f4e1d0d5p+1 -0x1.476b8bb9e0134p+1 32.1656
0x1.13b24ba91441cp+0 0x1.0f65744ef59c0p+1 0x1.c47d569ce06c1p+1 -0x1.7f9c386a31d37p+10 5428.13
0x1.f6a6e86973e90p-60 -0x1.390a9f9659c80p-3 0x1.c0c8a31f3deebp+29 0x1.90406b3ccf7f4p-2 20.6251
-0x1.a738161c7dfa2p-8 0x1.feefdc2cc3148p+0 0x1.1d564bb3b878ep+2 -0x1.e114ff2246f00p+15 274541.0
0x1.8c2226ef3f1d0p-1 -0x1.d42733a7995acp+1 0x1.006317a36ae92p+3 -0x1.ccab059da5ddbp+7 1877.07
-0x1.1f915e9503159p-48 0x1.52eb839cf4920p-2 0x1.45dec6e9a4336p+3 -0x1.46dbaad4d43aep+0 15.461
0x1.371f1f0f31bf0p+2 -0x1.2b9e25937b361p+2 0x1.0aa586c47d89fp+2 -0x1.9dc8c3b5efde1p+12 27603.2
0x1.ff5ab2e6d1e68p+0 0x1.3d33f9807213ep+2 0x1.4935e29ac5048p+1 -0x1.ac79924e9776ep+17 564236.0
-0x1.cb7d7af424b81p-37 0x1.1a0f2b43d1c2ep+2 0x1.79c351881dc08p+1 -0x1.7eec2582595d4p+4 71.1677
0x1.6b1b5ee9492f5p-28 0x1.7390ea090988cp+1 0x1.d807e080e91d0p+1 -0x1.1b9bbf28d3bf2p+14 66935.9
0x1.56464efa35f9cp+0 -0x1.88108fe4507c2p+1 0x1.62577be6ebd72p+2 0x1.bb056eba047d8p-4 176.468
0x1.5c94b60968e00p-3 -0x1.0cfb07f3694b1p+1 0x1.92869ead903fcp+3 -0x1.054884484884bp+9 6610.52
0x1.2563d14c4d0b8p+2 0x1.6bef3484bed80p+1 0x1.593515cd2902bp+1 -0x1.e998c97b3caf6p+15 169018.0
-0x1.cb7300d395e70p-1 0x1.c389702b18a34p+1 0x1.008c9fca8b1c1p+2 -0x1.f77fd539243dcp+13 64578.8
0x1.024092aa1060cp+2 0x1.94e9c235b55b4p+1 0x1.58fa9c8dfc100p+1 -0x1.327d6d562008ep+10 3308.78
"""
