"""50-digit reference for the two-frequency model s_kab(t) and its condition number.

    python3 tools/skab_reference.py KAPPA_A KAPPA_B T [KAPPA_A KAPPA_B T ...]
    python3 tools/skab_reference.py --sets SEED

Each argument is read as the exact binary value of the float it names, and
everything after that is done with mpmath; one line per triple,
``kappa_a kappa_b t s cond`` with s to 50 digits and cond = |t s'(t) / s(t)|
to 6, the factor by which a relative error in t moves s. It is independent
of ``fatcomp.models``: with tp, tm the complex frequencies,

    s(t) = (2/t) (sinc(2 tm t) - sinc(2 tp t)) / (sinc(tm t)^2 - sinc(tp t)^2),

and at kappa_a = 0, where tp^2 = tm^2 = kappa_b/4 and the quotient is 0/0,
its limit (8/t) F'(4a) / (2 F(a) F'(a)), F(z) = sin(sqrt z)/sqrt z and
a = kappa_b t^2/4. The quotient cancels by about sqrt|kappa_a| t^2, and
kappa_b/2 -+ y by about kappa_b^2/|kappa_a|, so the working precision grows
with those factors; every value is computed twice,
20 digits apart, and the script stops if the two disagree in 50 digits.

``--sets SEED`` writes the two input sets the tests freeze, one row per line
as ``set kappa_a kappa_b t s cond`` with the first four fields in
``float.hex`` and s as the float nearest the reference:

* ``wide``: 2000 inputs, half with (kappa_a, kappa_b) uniform on
  [-5, 5]^2 and half with |kappa_a| = kappa_b^2/4 times a log-uniform factor
  in [1e-16, 1] (kappa_b uniform on [-5, 5], the sign of kappa_a drawn), t
  log-uniform in [1e-6, 0.9 min(tbar, 10)];
* ``near-tbar``: 400 inputs t = tbar (1 - 10^-u), u uniform in [1, 6], on
  pairs drawn the same way with a finite blow-up time.

tbar is taken from ``fatcomp.models.blowup_time_kab`` (PYTHONPATH=src); it
only places the inputs, which are frozen as floats. The ``--sets`` run takes
a few minutes.
"""

from __future__ import annotations

import sys

import mpmath as mp

_DIGITS = 50


def _s(ka, kb, t):
    """s_kab(t) at the current mpmath precision; ka, kb, t are mpf."""
    if ka == 0:
        a = kb * t * t / 4
        F = lambda z: mp.sin(mp.sqrt(z)) / mp.sqrt(z)
        dF = lambda z: (mp.sqrt(z) * mp.cos(mp.sqrt(z)) - mp.sin(mp.sqrt(z))) / (2 * z * mp.sqrt(z))
        return mp.re(8 / t * dF(4 * a) / (2 * F(a) * dF(a)))
    y = mp.sqrt(mp.mpc(kb * kb + 4 * ka)) / 2
    sp, sm = mp.sqrt(kb / 2 + y), mp.sqrt(kb / 2 - y)
    tp, tm = (sp + sm) / 2, (sp - sm) / 2
    sinc = lambda z: mp.sin(z) / z
    q = 2 / t * (sinc(2 * tm * t) - sinc(2 * tp * t)) / (sinc(tm * t) ** 2 - sinc(tp * t) ** 2)
    return mp.re(q)


def _lost_digits(ka, kb, t) -> int:
    """Digits the quotient can cancel: 1/(sqrt|ka| t^2), and 1/(kb t^2)^2 at ka = 0; and
    those of kb/2 -+ y, about kb^2/|ka|, hundreds where kb^2 overflows a float."""
    z = mp.mpf(abs(kb)) * t * t + mp.mpf(10) ** -300
    lost = 2 * max(0, -mp.log10(z)) + 10
    if ka != 0:
        lost += max(0, -mp.log10(mp.sqrt(abs(ka)) * t * t)) + max(0, mp.log10(1 + z))
        lost += max(0, mp.log10(mp.mpf(kb) ** 2 / abs(mp.mpf(ka))))
    return int(lost)


def reference(kappa_a: float, kappa_b: float, t: float):
    """(s, cond) at 50 digits, each checked against a run 20 digits wider."""
    values = []
    for extra in (0, 20):
        with mp.workdps(_DIGITS + 10 + _lost_digits(kappa_a, kappa_b, mp.mpf(t)) + extra):
            ka, kb, tt = mp.mpf(kappa_a), mp.mpf(kappa_b), mp.mpf(t)
            s = _s(ka, kb, tt)
            h = mp.mpf(10) ** -20
            ds = (_s(ka, kb, tt * (1 + h)) - _s(ka, kb, tt * (1 - h))) / (2 * h)
            values.append((s, abs(ds / s)))
    (s0, c0), (s1, c1) = values
    if abs(s0 - s1) > mp.mpf(10) ** -_DIGITS * abs(s1) or abs(c0 - c1) > 1e-6 * c1:
        raise ArithmeticError(f"no {_DIGITS} digits at ({kappa_a!r}, {kappa_b!r}, {t!r}): {s0} vs {s1}")
    return s1, c1


def _pairs(rng, n: int):
    """n pairs: the first half uniform on [-5, 5]^2, the second near kappa_a = 0 relative to kappa_b^2/4."""
    pairs = [tuple(float(x) for x in rng.uniform(-5.0, 5.0, size=2)) for _ in range(n // 2)]
    for _ in range(n - n // 2):
        kb = float(rng.uniform(-5.0, 5.0))
        ka = float(rng.choice((-1.0, 1.0)) * kb * kb / 4.0 * 10.0 ** rng.uniform(-16.0, 0.0))
        pairs.append((ka, kb))
    return pairs


def sets(seed: int):
    """Rows (set, kappa_a, kappa_b, t) of the two input sets."""
    import numpy as np

    from fatcomp.models import blowup_time_kab

    rng = np.random.default_rng(seed)
    rows = []
    for ka, kb in _pairs(rng, 2000):
        tmax = 0.9 * min(blowup_time_kab(ka, kb).time, 10.0)
        rows.append(("wide", ka, kb, float(np.exp(rng.uniform(np.log(1e-6), np.log(tmax))))))
    near = 0
    while near < 400:
        for ka, kb in _pairs(rng, 2):
            tbar = blowup_time_kab(ka, kb).time
            if near < 400 and tbar < float("inf"):
                rows.append(("near-tbar", ka, kb, tbar * (1.0 - 10.0 ** -rng.uniform(1.0, 6.0))))
                near += 1
    return rows


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--sets":
        for name, ka, kb, t in sets(int(argv[1])):
            s, cond = reference(ka, kb, t)
            print(name, ka.hex(), kb.hex(), t.hex(), float(s).hex(), mp.nstr(cond, 6))
        return 0
    if not argv or len(argv) % 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for ka, kb, t in zip(argv[::3], argv[1::3], argv[2::3]):
        s, cond = reference(float(ka), float(kb), float(t))
        print(ka, kb, t, mp.nstr(s, _DIGITS), mp.nstr(cond, 6))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
