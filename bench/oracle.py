"""Reference blow-up times of the two-frequency model, computed apart from fatcomp.

With u_pm = kappa_b/4 +- sqrt(-kappa_a)/2 (the squared frequencies, so that
kappa_b = 2 (u_+ + u_-) and kappa_a = -(u_+ - u_-)^2), the blow-up function
factors as

    t^2 (sinc(theta_- t)^2 - sinc(theta_+ t)^2) = f_-(t) f_+(t),
    f_pm(t) = S(u_-, t) pm S(u_+, t),   S(u, t) = sin(sqrt(u) t) / sqrt(u),

and S is even in sqrt(u), so no branch of the square root enters. The
reference time is the first positive zero of f_- f_+: a sign-change scan in
double precision over (0, t_hi], refined by bisection in mpmath at 40
digits (bisection, because hyperbolic growth makes |f| huge near the root
and a residual test meaningless). For kappa_a > 0 the squared frequencies are a complex
conjugate pair, f_- is purely imaginary and f_+ real, so the scan follows
Im f_- and Re f_+.
"""

from __future__ import annotations

import mpmath
import numpy as np

_DPS = 40
_SCAN = 8192


def _factors_float(ka: float, kb: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    root = np.sqrt(complex(-ka)) / 2.0
    out = []
    for u in (kb / 4.0 - root, kb / 4.0 + root):
        w = np.sqrt(complex(u))
        out.append(t.astype(complex) if w == 0 else np.sin(w * t) / w)
    minus, plus = out[0] - out[1], out[0] + out[1]
    return (minus.imag if ka > 0 else minus.real), plus.real


def _factor_mp(ka: float, kb: float, which: int):
    ka_m, kb_m = mpmath.mpf(ka), mpmath.mpf(kb)
    root = mpmath.sqrt(mpmath.mpc(-ka_m)) / 2
    ws = [mpmath.sqrt(mpmath.mpc(kb_m / 4 - root)), mpmath.sqrt(mpmath.mpc(kb_m / 4 + root))]

    def s(w, t):
        return t if w == 0 else mpmath.sin(w * t) / w

    def f(t):
        a, b = s(ws[0], t), s(ws[1], t)
        if which == 0:
            return mpmath.im(a - b) if ka > 0 else mpmath.re(a - b)
        return mpmath.re(a + b)

    return f


def reference_tbar(ka: float, kb: float, t_hi: float) -> float | None:
    """First positive zero of the factored blow-up function on (0, t_hi], or None."""
    ts = np.linspace(t_hi / _SCAN, t_hi, _SCAN)
    first = None
    for which, vals in enumerate(_factors_float(ka, kb, ts)):
        flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        if flips.size and (first is None or flips[0] < first[1]):
            first = (which, int(flips[0]))
    if first is None:
        return None
    which, i = first
    with mpmath.workdps(_DPS):
        f = _factor_mp(ka, kb, which)
        a, b = mpmath.mpf(ts[i]), mpmath.mpf(ts[i + 1])
        fa = f(a)
        if fa * f(b) > 0:
            return None
        while b - a > mpmath.mpf(10) ** (-_DPS + 5) * b:
            m = (a + b) / 2
            fm = f(m)
            if fm == 0:
                return float(m)
            if (fm > 0) == (fa > 0):
                a, fa = m, fm
            else:
                b = m
        return float((a + b) / 2)
