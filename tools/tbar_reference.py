"""50-digit reference for the two-frequency blow-up time tbar(kappa_a, kappa_b).

    python3 tools/tbar_reference.py KAPPA_A KAPPA_B [KAPPA_A KAPPA_B ...]

Each argument is read as the exact binary value of the float it names, and
everything after that is done with mpmath at 60 digits; one line per pair,
``kappa_a kappa_b tbar`` with tbar to 50 digits (``inf`` where the model
does not blow up). It is independent of ``fatcomp.models``:

* kappa_a = 0: 2 pi / sqrt(kappa_b);
* kappa_a < 0: the smallest zero of g+- = sin(tp t)/tp +- sin(tm t)/tm on
  the whole proven bracket (pi/tp, pi/tm], not on the window the package
  uses. Every zero of g+-' there is a knot, (2k + 1) pi / (tp +- tm) for g+
  and 2k pi / (tp +- tm) for g-; between knots g+- is monotone, so a zero
  is a knot with |g| below 1e-45 / tm or a sign change, refined by
  bisection. The bracket can hold about tp / tm knots, so rows with
  tp / tm near 1e6 take a minute;
* kappa_a > 0: the zero of alpha sin(alpha t) + beta cos(alpha t)
  tanh(beta t) on (pi / (2 alpha), pi / alpha), by bisection.
"""

from __future__ import annotations

import sys

import mpmath as mp

mp.mp.dps = 60


def _bisect(g, a, b):
    ga = g(a)
    for _ in range(400):
        m = (a + b) / 2
        gm = g(m)
        if gm == 0:
            return m
        if (gm < 0) == (ga < 0):
            a, ga = m, gm
        else:
            b = m
        if b - a < mp.mpf(10) ** -55 * b:
            break
    return (a + b) / 2


def _first_zero(g, knots, tol):
    vals = [g(t) for t in knots]
    for i, (t, v) in enumerate(zip(knots, vals)):
        if abs(v) <= tol:
            return t
        if i + 1 < len(knots) and abs(vals[i + 1]) > tol and (v < 0) != (vals[i + 1] < 0):
            return _bisect(g, t, knots[i + 1])
    return None


def tbar(kappa_a: float, kappa_b: float):
    ka, kb = mp.mpf(kappa_a), mp.mpf(kappa_b)
    disc = kb * kb + 4 * ka
    if not ((kb >= 0 and disc > 0) or (kb < 0 and ka > 0)):
        return mp.inf
    if ka == 0:
        return 2 * mp.pi / mp.sqrt(kb)
    if ka > 0:
        y = mp.sqrt(kb * kb + 4 * ka) / 2
        alpha, beta = mp.sqrt(kb / 2 + y) / 2, mp.sqrt(y - kb / 2) / 2
        return _bisect(lambda t: alpha * mp.sin(alpha * t) + beta * mp.cos(alpha * t) * mp.tanh(beta * t),
                       mp.pi / (2 * alpha), mp.pi / alpha)
    x, y = kb / 2, mp.sqrt(disc) / 2
    sp, sm = mp.sqrt(x + y), mp.sqrt(x - y)
    tp, tm = (sp + sm) / 2, (sp - sm) / 2
    lo, hi = mp.pi / tp, mp.pi / tm
    roots = []
    for sign, odd in ((-1, 0), (1, 1)):
        knots = {lo, hi}
        for w in (tp + tm, tp - tm):
            k = int(mp.ceil((lo * w / mp.pi - odd) / 2))
            while (t := (2 * k + odd) * mp.pi / w) < hi:
                if t > lo:
                    knots.add(t)
                k += 1
        g = lambda t, sign=sign: mp.sin(tp * t) / tp + sign * mp.sin(tm * t) / tm
        r = _first_zero(g, sorted(knots), mp.mpf(10) ** -45 / tm)
        if r is not None:
            roots.append(r)
    return min(roots)


def main(argv: list[str]) -> int:
    if not argv or len(argv) % 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for ka, kb in zip(argv[::2], argv[1::2]):
        print(ka, kb, mp.nstr(tbar(float(ka), float(kb)), 50))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
