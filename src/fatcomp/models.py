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

``eval_s_kab`` and the certificate are real: they read divided differences
of F(z) = sin(sqrt z)/sqrt z off a 2x2 matrix with eigenvalues (tp t)^2,
(tm t)^2 (``_f_and_c``). ``eval_s_kc`` and ``theta_from_kappas`` take complex
principal square roots; ``eval_s_kc`` checks that its imaginary part is negligible.
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
# Taylor coefficients of F(z) = sin(sqrt z)/sqrt z and C(z) = cos(sqrt z), degree 16 down
# to 0: on |z| <= 16 the first omitted terms are 3e-20 and 1e-18.
_HORNER = tuple(((-1) ** k / math.factorial(2 * k + 1), (-1) ** k / math.factorial(2 * k))
                for k in range(16, -1, -1))
# |g+-| <= _TOUCH pi/tm at a knot is a touch: rounding tp*t and tm*t costs a few eps t.
_TOUCH = 8.0 * 2.0**-52
# scipy brentq's defaults: its floor for the relative tolerance, and its iteration cap.
_RTOL = 4.0 * 2.0**-52
_MAXITER = 100
_NAN = "the function value at x={} is NaN; solver cannot continue"


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
    analytically (the function is continuous in kc at 0). Where cosh(sqrt(-kc) t)
    overflows, the real form sqrt(-kc)/tanh(sqrt(-kc) t) is taken.
    """
    if not 0.0 < t < blowup_time_kc(kappa_c).time:
        raise DomainError(f"t={t} outside (0, blow-up) for kappa_c={kappa_c}")
    z = cmath.sqrt(complex(kappa_c)) * t
    if abs(z) < 1e-6:
        # z*cot(z) = 1 - z^2/3 - z^4/45 + O(z^6)
        zz = z * z
        return _real((1.0 - zz / 3.0 - zz * zz / 45.0) / t, "s_kc")
    try:
        zcot = z * cmath.cos(z) / cmath.sin(z)
    except OverflowError:
        zcot = math.nan
    if zcot != zcot:  # kappa_c < 0 and cosh |z| overflows (|z| > 704): coth |z| is 1.0, exactly
        return math.sqrt(-kappa_c) / math.tanh(math.sqrt(-kappa_c) * t)
    return _real(zcot / t, "s_kc")


# ----------------------------------------------------------------------
# two-frequency model
# ----------------------------------------------------------------------

def _wide_disc_root(kappa_a: float, kappa_b: float) -> complex:
    """sqrt(kappa_b**2 + 4*kappa_a) for kappa_a < 0 where the radicand overflows: the root of
    (|kappa_b| - r)(|kappa_b| + r), r = 2 sqrt(-kappa_a), taken factor by factor. Its real part
    is positive exactly where the radicand is; it is imaginary where that is negative."""
    r = 2.0 * math.sqrt(-kappa_a)
    return cmath.sqrt(abs(kappa_b) - r) * math.sqrt(abs(kappa_b) + r)


def theta_from_kappas(kappa_a: float, kappa_b: float) -> tuple[complex, complex]:
    """(theta_plus, theta_minus) of the two-frequency model, principal branches.

    With x = kappa_b/2 and y = sqrt(kappa_b**2 + 4*kappa_a)/2 (by hypot where
    kappa_a >= 0), theta_pm = (sqrt(x+y) +- sqrt(x-y))/2. Where y is real,
    (x + y)(x - y) = -kappa_a: the factor whose terms share a sign is taken
    directly and the other from the product, free of cancellation. Where
    kappa_b**2 + 4*kappa_a overflows, y is ``_wide_disc_root``/2. The map is
    inverted by kappa_b = 2*(tp**2 + tm**2) and kappa_a = -(tp**2 - tm**2)**2.
    """
    x = kappa_b / 2.0
    if kappa_a >= 0.0:
        y = math.hypot(kappa_b, 2.0 * math.sqrt(kappa_a))
    else:
        disc = kappa_b * kappa_b + 4.0 * kappa_a
        y = cmath.sqrt(disc) if abs(disc) < math.inf else _wide_disc_root(kappa_a, kappa_b)
    y /= 2.0
    if kappa_a and not y.imag:
        y = y.real
        xp, xm = (x + y, -kappa_a / (x + y)) if x >= 0.0 else (-kappa_a / (x - y), x - y)
    else:
        xp, xm = x + y, x - y
    sp, sm = cmath.sqrt(xp), cmath.sqrt(xm)
    return (sp + sm) / 2.0, (sp - sm) / 2.0


def _f_and_c(kappa_a: float, kappa_b: float, t: float) -> tuple[float, float, float, float]:
    """(uf, wf, uc, wc): F(X) = uf + wf N and C(X) = uc + wc N, in real arithmetic.

    F(z) = sin(sqrt z)/sqrt z, C(z) = cos(sqrt z), and X = m + N is real 2x2
    with eigenvalues a, b = (tp t)^2, (tm t)^2: m = kappa_b t^2/4 and N^2 =
    ((a - b)/2)^2 = -kappa_a t^4/4, so a - b is no difference of rounded
    numbers. By the Opitz formula f(X) = u + w N has u = (f(a) + f(b))/2 and
    w = f[a, b], the divided difference. Both series run to degree 16 by Horner
    on Y = X/4^s, s the fewest quarterings of the spectral radius to <= 16,
    then s doublings F(4Y) = F(Y) C(Y), C(4Y) = 2 C(Y)^2 - 1.
    """
    h = t * t / 2.0
    m, n = kappa_b * h / 2.0, math.sqrt(abs(kappa_a)) * h  # (a + b)/2 and |a - b|/2
    r = abs(m) + n if kappa_a <= 0.0 else math.hypot(m, n)
    s = 0
    while 16.0 < r < math.inf:
        r, s = r / 4.0, s + 1
    m, nn = math.ldexp(m, -2 * s), math.ldexp(-kappa_a * h * h, -4 * s)  # nn = N^2 of Y
    (uf, uc), wf, wc = _HORNER[0], 0.0, 0.0
    for cf, cc in _HORNER[1:]:  # p(Y) Y + c
        uf, wf = cf + m * uf + nn * wf, uf + m * wf
        uc, wc = cc + m * uc + nn * wc, uc + m * wc
    for _ in range(s):  # products in the basis N of Y, then w -> w/4 for the N of 4Y
        uf, wf = uf * uc + nn * wf * wc, (uf * wc + uc * wf) / 4.0
        uc, wc = 2.0 * (uc * uc + nn * wc * wc) - 1.0, uc * wc
        nn *= 16.0
    return uf, wf, uc, wc


def _check_kappas(kappa_a: float, kappa_b: float) -> None:
    if not (math.isfinite(kappa_a) and math.isfinite(kappa_b)):
        raise DomainError(f"kappa_a, kappa_b must be finite, got ({kappa_a}, {kappa_b})")


def finiteness_predicate(kappa_a: float, kappa_b: float) -> bool:
    """Sign conditions equivalent to a finite two-frequency blow-up time;
    ``DomainError`` when kappa_a or kappa_b is NaN or infinite. Where the
    discriminant kappa_b**2 + 4*kappa_a is positive, the time is finite for
    kappa_b >= 0 or kappa_a > 0; where it is zero or negative, never. A NaN
    discriminant (both terms overflow, so kappa_a < 0) takes its sign from
    ``_wide_disc_root``."""
    _check_kappas(kappa_a, kappa_b)
    disc = kappa_b * kappa_b + 4.0 * kappa_a
    if disc > 0.0:
        return kappa_b >= 0.0 or kappa_a > 0.0
    return disc != disc and kappa_b >= 0.0 and _wide_disc_root(kappa_a, kappa_b).real > 0.0


def _tbar_floor(kappa_a: float, kappa_b: float) -> float:
    """A floor of tbar where ``blowup_time_kab`` neither raises nor returns the infinite
    marker or the closed form, else 0: (1 - 2^-40) max(pi/tp, (pi - asin(tm/tp))/tm),
    the first knot up to the rounding of k pi/w, for kappa_a < 0; pi/(2 alpha) for kappa_a > 0."""
    if not (math.isfinite(kappa_a) and math.isfinite(kappa_b)) or kappa_a == 0.0 or not finiteness_predicate(kappa_a, kappa_b):
        return 0.0
    tp, tm = theta_from_kappas(kappa_a, kappa_b)
    if not (cmath.isfinite(tp) and cmath.isfinite(tm) and tm.real > 0.0):
        return 0.0
    tp, tm = tp.real, tm.real  # both alpha for kappa_a > 0
    return math.pi / (2.0 * tp) if kappa_a > 0.0 else (1.0 - 2.0**-40) * max(math.pi / tp, (math.pi - math.asin(tm / tp)) / tm)


def eval_s_kab(kappa_a: float, kappa_b: float, t: float) -> float:
    """Evaluate the two-frequency model at time t.

    The model (2/t) (sinc(2 tm t) - sinc(2 tp t)) / (sinc(tm t)^2 - sinc(tp t)^2)
    is (8/t) F[4a, 4b] / (F[a, b] (F(a) + F(b))), a, b = (tp t)^2, (tm t)^2,
    since (F^2)[a, b] = F[a, b] (F(a) + F(b)); F(4X) = F(X) C(X) of
    ``_f_and_c`` carries 4 F[4a, 4b]. One real route for every pair and t. tbar is
    solved only where t is not below ``_tbar_floor``, which lies below every root,
    since the root search of ``blowup_time_kab`` starts there. ``DomainError``
    outside (0, tbar); ``FloatingPointError`` where the quotient is not finite, as
    when the hyperbolic factors overflow.
    """
    if not 0.0 < t < _tbar_floor(kappa_a, kappa_b):
        tbar = blowup_time_kab(kappa_a, kappa_b).time
        if not 0.0 < t < tbar:
            raise DomainError(f"t={t} for (kappa_a, kappa_b)=({kappa_a}, {kappa_b}) outside (0, {tbar})")
    uf, wf, uc, wc = _f_and_c(kappa_a, kappa_b, t)
    num, den = uf * wc + uc * wf, t * uf * wf
    if not (math.isfinite(num) and math.isfinite(den) and den != 0.0):
        raise FloatingPointError(f"s_kab is not finite at t={t} for (kappa_a, kappa_b)=({kappa_a}, {kappa_b})")
    return num / den


def _brentq(f, a: float, b: float, xtol: float) -> float:
    """Zero of f on [a, b] by Brent's method: scipy's ``Zeros/brentq.c``, line for line.

    At scipy's defaults, rtol = 4 eps and 100 iterations, it returns the bits of
    ``scipy.optimize.brentq(f, a, b, xtol=xtol)`` and raises its ``ValueError``
    (f(a) and f(b) of one sign, or f NaN) and ``RuntimeError`` (out of iterations).
    """
    xpre, xcur = float(a), float(b)
    fpre = float(f(xpre))
    if fpre != fpre:
        raise ValueError(_NAN.format(xpre))
    fcur = float(f(xcur))
    if fcur != fcur:
        raise ValueError(_NAN.format(xcur))
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
        fcur = float(f(xcur))
        if fcur != fcur:
            raise ValueError(_NAN.format(xcur))
    raise RuntimeError(f"failed to converge after {_MAXITER} iterations, value is {xcur}")


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
    few knots, scanned inline for each sign: the first knot with |g| <= 8 eps
    pi/tm is a touch, else the first sign change is refined by ``_brentq`` to
    4 eps relative. For kappa_a > 0 the frequencies
    are a conjugate pair alpha +- i*beta and the blow-up is the unique root of
    alpha*tan(alpha*t) + beta*tanh(beta*t) on (pi/(2*alpha), pi/alpha),
    evaluated in the pole-free form alpha*sin(alpha*t) + beta*cos(alpha*t)*tanh(beta*t)
    and found by ``_brentq`` to 1e-12 min(1, pi/(2*alpha)) in t, relative on
    short time scales. ``DomainError`` when kappa_a or kappa_b is NaN or
    infinite; ``FloatingPointError`` when a frequency overflows or alpha^2 underflows.
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
        ))
        tol, roots = _TOUCH * hi, []
        for sign in (-1.0, 1.0):  # the first knot with |g| <= tol, else the first sign change
            vals = [math.sin(tp * t) / tp + sign * math.sin(tm * t) / tm for t in knots]
            for i, (t, v) in enumerate(zip(knots, vals)):
                if abs(v) <= tol:
                    roots.append(t)
                    break
                if i + 1 < len(knots) and abs(vals[i + 1]) > tol and (v < 0.0) != (vals[i + 1] < 0.0):
                    g = lambda t, sign=sign: math.sin(tp * t) / tp + sign * math.sin(tm * t) / tm
                    roots.append(_brentq(g, t, knots[i + 1], xtol=_RTOL * t))
                    break
        if not roots:
            raise FloatingPointError(f"no root in the proven bracket ({lo}, {hi}] for ({kappa_a}, {kappa_b})")
        return BlowUpTime.finite(min(roots))
    tp = theta_from_kappas(kappa_a, kappa_b)[0]  # kappa_a > 0: alpha + i*beta, alpha, beta > 0
    alpha, beta = tp.real, tp.imag
    if alpha == 0.0:
        raise FloatingPointError(f"alpha^2 = kappa_a / (16 beta^2) underflows to 0 for ({kappa_a}, {kappa_b})")
    g = lambda t: alpha * math.sin(alpha * t) + beta * math.cos(alpha * t) * math.tanh(beta * t)
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
    return math.inf if denom <= 0.0 else 2.0 * math.pi / denom


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
    chi(pi) = sinc(tm*pi)**2 - sinc(tp*pi)**2 = (b - a) F[a, b] (F(a) + F(b)),
    a, b = (tp pi)^2, (tm pi)^2, whose sign certifies the small ``v_norm``
    regime; ``passes`` records tbar <= pi. One real expression from
    ``_f_and_c``, -sqrt|kappa_a| pi^2 F[a, b] (F(a) + F(b)), is chi(pi) for
    kappa_a <= 0 and Im chi(pi) for kappa_a > 0 (K > 7/3 + 1.25*v^2), where
    chi is purely imaginary. It is positive before tbar and changes sign at
    tbar: (0.25, 2.9) gives -7.73e-3 with tbar = 3.0146. ``DomainError`` where
    chi(pi), which grows like exp(2 pi Im tp), overflows, as at (0.5, 1e12).
    """
    if v_norm < 0.0:
        raise DomainError("v_norm must be nonnegative")
    if K < -1.0:
        raise DomainError("sectional curvature bound K must be >= -1")
    s = v_norm * v_norm
    kappa_a = s * (1.5 * K - 3.5 - 1.875 * s)
    kappa_b = 4.0 + 5.0 * s
    tbar = blowup_time_kab(kappa_a, kappa_b)
    uf, wf, _, _ = _f_and_c(kappa_a, kappa_b, math.pi)
    chi = 0.0 - 2.0 * math.sqrt(abs(kappa_a)) * math.pi**2 * uf * wf  # 0.0 - x: +0.0 at kappa_a = 0
    if not math.isfinite(chi):
        raise DomainError(f"chi(pi) overflows for (v_norm, K) = ({v_norm}, {K}): kappa_a = {kappa_a}")
    return DiameterCertificate(kappa_a, kappa_b, tbar, chi, passes=bool(tbar.time <= math.pi * (1.0 + 1e-12)))
