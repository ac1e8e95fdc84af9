"""Scalar comparison models for fat sub-Riemannian structures.

Two one-dimensional model functions govern the comparison machinery:

* ``eval_s_kc``: the single-frequency model ``sqrt(kc)*cot(sqrt(kc)*t)``,
  continued through ``kc <= 0`` (it becomes ``1/t`` and ``coth``).
* ``eval_s_kab``: the two-frequency model built from the pair of
  frequencies ``theta_plus, theta_minus`` derived from ``(kappa_a,
  kappa_b)``. Its first blow-up time is the quantity every bound in this
  package compares against.

Both models solve scalar Riccati equations with a ``+infinity`` initial
datum at ``t = 0``; blow-up times, the finiteness predicate, the upper
bound for the two-frequency blow-up, and a diameter-type certificate are
provided alongside.

All frequency arithmetic is done in complex numbers with principal square
roots; real outputs are checked for a negligible imaginary part before
truncation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "DomainError",
    "BlowUpTime",
    "eval_s_kc",
    "blowup_time_kc",
    "theta_from_kappas",
    "eval_s_kab",
    "blowup_time_kab",
    "finiteness_predicate",
    "upper_bound_kab",
    "DiameterCertificate",
    "diameter_certificate",
]

# Imaginary parts above this are a bug, not roundoff.
_IM_TOL = 1e-10
# Relative frequency coincidence threshold routing to the analytic limit.
_THETA_COINCIDE = 1e-7
# |g+-| <= _TOUCH pi/tm at a knot is a touch: rounding tp*t and tm*t costs a few eps t.
_TOUCH = 8.0 * 2.0**-52
# scipy brentq's defaults: its floor for the relative tolerance, and its iteration cap.
_RTOL = 4.0 * 2.0**-52
_MAXITER = 100


class DomainError(ValueError):
    """Argument outside the domain of definition of a model function."""


def _real(z: complex, what: str) -> float:
    if abs(z.imag) > _IM_TOL * max(1.0, abs(z.real)):
        raise FloatingPointError(f"{what}: unexpected imaginary part {z.imag:.3e}")
    return z.real


@dataclass(frozen=True)
class BlowUpTime:
    """A finite positive blow-up time, or the infinite marker.

    ``time`` is ``math.inf`` for the infinite variant, so ordering
    comparisons against floats work directly.
    """

    time: float

    def __post_init__(self) -> None:
        if not (self.time > 0.0):
            raise ValueError(f"blow-up time must be positive, got {self.time}")

    @classmethod
    def finite(cls, t: float) -> "BlowUpTime":
        if not math.isfinite(t):
            raise ValueError("finite variant requires a finite time")
        return cls(float(t))

    @classmethod
    def infinite(cls) -> "BlowUpTime":
        return cls(math.inf)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.time)

    def __float__(self) -> float:
        return self.time


# ----------------------------------------------------------------------
# single-frequency model
# ----------------------------------------------------------------------

def blowup_time_kc(kappa_c: float) -> BlowUpTime:
    """First blow-up time of the single-frequency model.

    pi/sqrt(kappa_c) for positive curvature bound, infinite otherwise;
    ``DomainError`` when kappa_c is NaN or infinite.
    """
    if not math.isfinite(kappa_c):
        raise DomainError(f"kappa_c must be finite, got {kappa_c}")
    if kappa_c > 0.0:
        return BlowUpTime.finite(math.pi / math.sqrt(kappa_c))
    return BlowUpTime.infinite()


def eval_s_kc(kappa_c: float, t: float) -> float:
    """Evaluate the single-frequency model at time t.

    Equals sqrt(kc)*cot(sqrt(kc)*t) for kc > 0, 1/t at kc = 0 and the
    hyperbolic cotangent branch for kc < 0; the three branches glue
    analytically (the function is continuous in kc at 0).
    """
    if not 0.0 < t < blowup_time_kc(kappa_c).time:
        raise DomainError(f"t={t} outside (0, blow-up) for kappa_c={kappa_c}")
    z = cmath.sqrt(complex(kappa_c)) * t
    if abs(z) < 1e-6:
        # z*cot(z) = 1 - z^2/3 - z^4/45 + O(z^6)
        zz = z * z
        return _real((1.0 - zz / 3.0 - zz * zz / 45.0) / t, "s_kc")
    return _real(z * cmath.cos(z) / cmath.sin(z) / t, "s_kc")


# ----------------------------------------------------------------------
# two-frequency model
# ----------------------------------------------------------------------

def theta_from_kappas(kappa_a: float, kappa_b: float) -> tuple[complex, complex]:
    """(theta_plus, theta_minus) of the two-frequency model, principal branches.

    With x = kappa_b/2 and y = sqrt(kappa_b**2 + 4*kappa_a)/2, theta_pm =
    (sqrt(x+y) +- sqrt(x-y))/2. The map is inverted by kappa_b = 2*(tp**2 +
    tm**2) and kappa_a = -(tp**2 - tm**2)**2.
    """
    x = complex(kappa_b) / 2.0
    y = cmath.sqrt(complex(kappa_b * kappa_b + 4.0 * kappa_a)) / 2.0
    sp = cmath.sqrt(x + y)
    sm = cmath.sqrt(x - y)
    return (sp + sm) / 2.0, (sp - sm) / 2.0


def _csinc(z: complex) -> complex:
    if abs(z) < 1e-8:
        return 1.0 - z * z / 6.0
    return cmath.sin(z) / z


def _s_kab_limit(alpha: complex, t: float) -> complex:
    """Coincident-frequency limit of the two-frequency model.

    For theta_plus = theta_minus = alpha the generic quotient is 0/0; the
    analytic limit is alpha*(alpha*t/(1 - alpha*t*cot(alpha*t)) + cot(alpha*t)).
    """
    z = alpha * t
    if abs(z) < 1e-4:
        # expansion of the limit formula; first correction at O(z^2)
        return 4.0 / t - (8.0 / 15.0) * alpha * alpha * t
    cot = cmath.cos(z) / cmath.sin(z)
    return alpha * (alpha * t / (1.0 - z * cot) + cot)


def _check_kappas(kappa_a: float, kappa_b: float) -> None:
    if not (math.isfinite(kappa_a) and math.isfinite(kappa_b)):
        raise DomainError(f"kappa_a, kappa_b must be finite, got ({kappa_a}, {kappa_b})")


def finiteness_predicate(kappa_a: float, kappa_b: float) -> bool:
    """Sign conditions equivalent to a finite two-frequency blow-up time;
    ``DomainError`` when kappa_a or kappa_b is NaN or infinite."""
    _check_kappas(kappa_a, kappa_b)
    disc = kappa_b * kappa_b + 4.0 * kappa_a
    return (kappa_b >= 0.0 and disc > 0.0) or (kappa_b < 0.0 and kappa_a > 0.0)


def eval_s_kab(kappa_a: float, kappa_b: float, t: float) -> float:
    """Evaluate the two-frequency model at time t.

    Generic form: (2/t) * (sinc(2*tm*t) - sinc(2*tp*t)) /
    (sinc(tm*t)**2 - sinc(tp*t)**2). Near frequency coincidence the
    expression is routed to the analytic limit.
    """
    tbar = blowup_time_kab(kappa_a, kappa_b)
    if not 0.0 < t < tbar.time:
        raise DomainError(
            f"t={t} outside (0, {tbar.time}) for (kappa_a, kappa_b)="
            f"({kappa_a}, {kappa_b})"
        )
    tp, tm = theta_from_kappas(kappa_a, kappa_b)
    tp2, tm2 = tp * tp, tm * tm
    # The quotient depends on the frequencies only through their squares,
    # and degenerates to 0/0 in three situations: coincident frequencies,
    # coincident squares (kappa_a = 0 with kappa_b < 0, where tp = -tm),
    # and sinc arguments too small to resolve the difference. All three
    # are served by the analytic limit at the root-mean-square frequency.
    if (
        abs(tp - tm) < _THETA_COINCIDE * max(abs(tp), 1.0)
        or abs(tp2 - tm2) < _THETA_COINCIDE * max(abs(tp2), 1.0)
        or max(abs(tp), abs(tm)) * t < 1e-4
    ):
        return _real(_s_kab_limit(cmath.sqrt((tp2 + tm2) / 2.0), t), "s_kab")
    num = _csinc(2.0 * tm * t) - _csinc(2.0 * tp * t)
    den = _csinc(tm * t) ** 2 - _csinc(tp * t) ** 2
    return _real((2.0 / t) * num / den, "s_kab")


def _brentq(f, a: float, b: float, xtol: float) -> float:
    """Zero of f on [a, b] by Brent's method: scipy's ``Zeros/brentq.c``, line for line.

    At scipy's defaults, rtol = 4 eps and 100 iterations, it returns the bits of
    ``scipy.optimize.brentq(f, a, b, xtol=xtol)`` and raises its ``ValueError``
    (f(a) and f(b) of one sign, or f NaN) and ``RuntimeError`` (out of iterations).
    """
    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gives inf or NaN, so stry is inf or NaN: bisect
                stry = math.nan
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):  # a good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"failed to converge after {_MAXITER} iterations, value is {xcur}")


def _first_zero(g, knots: list[float], tol: float) -> float | None:
    """First zero of g on [knots[0], knots[-1]], g monotone between neighbouring knots.

    In order: a knot where |g| <= tol is a touch, and it is the zero; else the
    first neighbour pair across which g changes sign holds it, refined by
    ``_brentq`` to 4 eps relative, the floor of its relative tolerance.
    """
    vals = [g(t) for t in knots]
    for i, (t, v) in enumerate(zip(knots, vals)):
        if abs(v) <= tol:
            return t
        if i + 1 < len(knots) and abs(vals[i + 1]) > tol and (v < 0.0) != (vals[i + 1] < 0.0):
            return _brentq(g, t, knots[i + 1], xtol=_RTOL * t)
    return None


def blowup_time_kab(kappa_a: float, kappa_b: float) -> BlowUpTime:
    """First blow-up time of the two-frequency model.

    Infinite exactly when the finiteness predicate fails. kappa_a = 0
    gives exactly 2*pi/sqrt(kappa_b). For kappa_a < 0, tp > tm > 0 are
    real and the first root of sinc(tp*t)**2 = sinc(tm*t)**2 lies in
    (pi/tp, pi/tm]: the first zero of g+- = sin(tp*t)/tp +- sin(tm*t)/tm
    (the squared form has a double zero at resonances, tp/tm integer).
    Such a zero needs sin(tm*t)/tm <= 1/tp, which on the bracket holds
    only on the window [max(pi/tp, (pi - asin(tm/tp))/tm), pi/tm], since
    asin(x) <= pi*x/2 < pi*x. There both factors are monotone between the
    multiples of pi/(tp +- tm), where g-' = -2 sin((tp+tm)t/2)
    sin((tp-tm)t/2) and g+' = 2 cos((tp+tm)t/2) cos((tp-tm)t/2) vanish: a
    few knots, with ``_first_zero`` at touch tolerance 8 eps pi/tm. For
    kappa_a > 0 the frequencies are a conjugate pair alpha +- i*beta and
    the blow-up is the unique root of alpha*tan(alpha*t) +
    beta*tanh(beta*t) on (pi/(2*alpha), pi/alpha), evaluated in the
    pole-free form alpha*sin(alpha*t) + beta*cos(alpha*t)*tanh(beta*t)
    and found by ``_brentq`` to 1e-12 min(1, pi/(2*alpha)) in t, so that
    the tolerance is relative on short time scales.
    Raises ``DomainError`` when kappa_a or kappa_b is NaN or infinite, and
    ``FloatingPointError`` when a frequency overflows or alpha^2 underflows.
    """
    if not finiteness_predicate(kappa_a, kappa_b):
        return BlowUpTime.infinite()
    if kappa_a == 0.0:
        # predicate enforced kappa_b > 0 here (disc = kappa_b**2 > 0)
        return BlowUpTime.finite(2.0 * math.pi / math.sqrt(kappa_b))
    if kappa_a < 0.0:
        tp, tm = (th.real for th in theta_from_kappas(kappa_a, kappa_b))  # both real, tp > tm > 0
        lo, hi = math.pi / tp, math.pi / tm
        start = max(lo, (math.pi - math.asin(tm / tp)) / tm)
        knots = sorted({start, hi}.union(
            k * math.pi / w
            for w in (tp + tm, tp - tm)
            for k in range(math.ceil(start * w / math.pi), math.ceil(hi * w / math.pi))
        )) if math.isfinite(hi) else []  # NaN where kappa_b**2 overflows
        roots = []
        for sign in (-1.0, 1.0):
            g = lambda t, sign=sign: math.sin(tp * t) / tp + sign * math.sin(tm * t) / tm
            r = _first_zero(g, knots, _TOUCH * hi)
            if r is not None:
                roots.append(r)
        if not roots:
            raise FloatingPointError(
                f"no root in the proven bracket ({lo}, {hi}] for "
                f"({kappa_a}, {kappa_b})"
            )
        return BlowUpTime.finite(min(roots))
    # kappa_a > 0: conjugate pair alpha +- i*beta with alpha, beta > 0
    # and (2*alpha)^2 * (2*beta)^2 = 4*kappa_a. One of the two squares
    # suffers cancellation when kappa_a << kappa_b**2; compute the safe
    # one directly and recover the other from the product.
    x = kappa_b / 2.0
    y = math.hypot(kappa_b, 2.0 * math.sqrt(kappa_a)) / 2.0
    if x >= 0.0:
        sp2 = x + y
        sm2 = kappa_a / sp2
    else:
        sm2 = y - x
        sp2 = kappa_a / sm2
    alpha, beta = math.sqrt(sp2) / 2.0, math.sqrt(sm2) / 2.0
    if alpha == 0.0:
        raise FloatingPointError(f"alpha^2 = kappa_a / sm2 underflows to 0 for ({kappa_a}, {kappa_b})")

    def g(t: float) -> float:
        return alpha * math.sin(alpha * t) + beta * math.cos(alpha * t) * math.tanh(
            beta * t
        )

    lo, hi = math.pi / (2.0 * alpha), math.pi / alpha
    # g decreases from g(lo) = alpha > 0 to g(hi) = -beta*tanh(beta*hi).
    # With alpha and beta many orders of magnitude apart, the smaller
    # endpoint value sinks below the trigonometric rounding noise of the
    # larger term and the root is numerically the bracket end itself
    # (the true offset is below one ulp of the endpoint).
    if g(lo) <= 0.0:
        return BlowUpTime.finite(lo)
    if g(hi) >= 0.0:
        return BlowUpTime.finite(hi)
    return BlowUpTime.finite(_brentq(g, lo, hi, xtol=1e-12 * min(1.0, lo)))


def upper_bound_kab(kappa_a: float, kappa_b: float) -> float:
    """Upper bound 2*pi / Re(sqrt(x+y) - sqrt(x-y)) for the blow-up time.

    Returns +inf when the denominator vanishes. The bound is attained
    exactly when kappa_a = 0. ``DomainError`` on NaN or infinite input.
    """
    _check_kappas(kappa_a, kappa_b)
    denom = 2.0 * theta_from_kappas(kappa_a, kappa_b)[1].real  # sqrt(x+y) - sqrt(x-y) = 2*theta_minus
    if denom <= 0.0:
        return math.inf
    return 2.0 * math.pi / denom


# ----------------------------------------------------------------------
# diameter-type certificate
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DiameterCertificate:
    kappa_a: float
    kappa_b: float
    tbar: BlowUpTime
    chi_at_pi: float
    passes: bool


def diameter_certificate(v_norm: float, K: float) -> DiameterCertificate:
    """Certificate that the two-frequency blow-up is at most pi.

    For a unit covector with vertical momentum of norm ``v_norm`` over a
    base with sectional curvature at least ``K >= -1``, the effective
    constants are kappa_a = v^2*(3/2*K - 7/2 - 15/8*v^2) and
    kappa_b = 4 + 5*v^2. ``chi_at_pi`` is the factored blow-up function
    chi(pi) = sinc(tm*pi)**2 - sinc(tp*pi)**2 whose sign at pi certifies
    the small ``v_norm`` regime; ``passes`` records tbar <= pi. Where
    kappa_a > 0 (K > 7/3 + 1.25*v^2) tp and tm are a conjugate pair, chi
    is purely imaginary, and ``chi_at_pi`` is Im chi(pi) instead. Like chi
    on the real branch it is positive before tbar and changes sign at
    tbar: (0.25, 2.9) gives -7.73e-3 with tbar = 3.0146.
    """
    if v_norm < 0.0:
        raise DomainError("v_norm must be nonnegative")
    if K < -1.0:
        raise DomainError("sectional curvature bound K must be >= -1")
    s = v_norm * v_norm
    kappa_a = s * (1.5 * K - 3.5 - 1.875 * s)
    kappa_b = 4.0 + 5.0 * s
    tbar = blowup_time_kab(kappa_a, kappa_b)
    tp, tm = theta_from_kappas(kappa_a, kappa_b)
    chi = _csinc(tm * math.pi) ** 2 - _csinc(tp * math.pi) ** 2
    if kappa_a > 0.0:
        chi = -1j * chi  # Re(-i chi) = Im chi; _real checks that Re chi vanishes
    return DiameterCertificate(
        kappa_a=kappa_a,
        kappa_b=kappa_b,
        tbar=tbar,
        chi_at_pi=_real(chi, "chi_at_pi"),
        passes=bool(tbar.time <= math.pi * (1.0 + 1e-12)),
    )
