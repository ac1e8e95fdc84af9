"""The input contract of the scalar, curvature and hopf layers and of the CLI, fuzzed.

Each public scalar or curvature function either returns a value with no NaN in it, finite
wherever the function does not document inf, or raises ``DomainError``,
``UnverifiableError`` or ``ValueError``; and it warns of nothing, which is
checked with warnings turned into errors. A bare ``FloatingPointError``,
``OverflowError`` or ``ZeroDivisionError`` breaks the contract, and so does a
NaN returned as an answer.

The inputs are seeded hypothesis draws (``derandomize=True``, so every run
draws the same): magnitudes log-uniform over 10^[-300, 300], both signs,
signed zeros and subnormals, each as a Python float or a numpy float64. An
example is a batch of ``BATCH`` triples, and every function takes the
arguments it needs from each triple: hypothesis costs about a millisecond an
example, so 1,000 single draws a function would take seconds. A failing batch
is reported as drawn, with its first breaches, and not shrunk. An explicit
batch holds the reproducers of breaches that were mended.

The curvature layer (``vee``, ``ricci_scalars``, ``qhf_curvature_inputs``,
``curvature_blocks``, ``rodrigues`` and ``CurvatureBlocks.assemble``) draws rows
of four such numbers, a momentum v and one scalar x (rho_a, the scale of the
contractions, or a time), with d in {1, 2, 3, 16}. Its mended reproducers are
rows of their own. The hopf layer (``qhf_kappas``, ``initial_state`` followed by
``integrate_extremal`` to t_max = x, ``conjugate_time``, and ``conjugate_time``
followed by ``sublaplacian_along`` on the grid t* (u, 1/2, 1 - 2^-20), u =
|x| / (1 + |x|)) draws the same rows. Below a smallest radius of about 1e-102
the a rows of N, which grow like r^3, underflow: ``sublaplacian_along`` raises
``DomainError`` there, where it returned NaN or let ``np.linalg.solve`` raise
``LinAlgError``, which is a ``ValueError`` but breaks the contract all the same.

``eval_s_kab`` is left out, the open item: its F and C factors overflow for
pairs far apart in scale, where it raises a bare ``FloatingPointError`` or
warns (662 of 3,000 such draws of (kappa_a, kappa_b, t) in one seeded run).
ROADMAP item 4 lists it. Where t is so small that s, about 1/t, overflows, it
raises ``DomainError`` (it returned inf).
"""

import cmath
import contextlib
import io
import math
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from fatcomp import cli
from fatcomp.curvature import CurvatureInputs, curvature_blocks, qhf_curvature_inputs, ricci_scalars, rodrigues, vee
from fatcomp.hopf import ConjugateResult, conjugate_time, initial_state, integrate_extremal, qhf_kappas, sublaplacian_along
from fatcomp.models import (
    BlowUpTime,
    DiameterCertificate,
    DomainError,
    blowup_time_kab,
    blowup_time_kc,
    diameter_certificate,
    eval_s_kc,
    finiteness_predicate,
    theta_from_kappas,
    upper_bound_kab,
)
from fatcomp.riccati import UnverifiableError

BATCH, EXAMPLES = 40, 25  # 1,000 draws for each function
CLI_BATCH = 24  # 600 blowup and 300 conjugate rows

_sign = st.sampled_from([-1.0, 1.0])
_wide = st.builds(lambda s, e: s * 10.0**e, _sign, st.floats(-300.0, 300.0))
_subnormal = st.builds(lambda s, x: s * x, _sign, st.floats(5e-324, 2.2250738585072014e-308, exclude_max=True))
_special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
_real = st.one_of(_wide, _wide, _wide, _subnormal, _special)
number = st.one_of(_real, _real.map(np.float64))


def _no_nan(*xs, inf_ok=False):
    return all(not math.isnan(x) and (inf_ok or math.isfinite(x)) for x in xs)


def _tbar_ok(tbar):
    return isinstance(tbar, BlowUpTime) and _no_nan(tbar.time, inf_ok=True)  # the infinite marker is documented


# function, its arguments from a triple (a, b, c), and whether a value it returns keeps the contract
CONTRACT = [
    (blowup_time_kab, lambda a, b, c: (a, b), _tbar_ok),
    (upper_bound_kab, lambda a, b, c: (a, b), lambda x: _no_nan(x, inf_ok=True) and x > 0.0),  # +inf documented
    (theta_from_kappas, lambda a, b, c: (a, b), lambda ths: all(map(cmath.isfinite, ths))),
    (finiteness_predicate, lambda a, b, c: (a, b), lambda x: isinstance(x, bool)),
    (blowup_time_kc, lambda a, b, c: (a,), _tbar_ok),
    (eval_s_kc, lambda a, b, c: (a, c), _no_nan),
    (diameter_certificate, lambda a, b, c: (c, b),
     lambda x: isinstance(x, DiameterCertificate) and _no_nan(x.kappa_a, x.kappa_b, x.chi_at_pi) and _tbar_ok(x.tbar)),
]


def _breach(fn, args, keeps):
    """None where fn(*args) keeps the contract, else what it did; any warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = fn(*args)
        except np.linalg.LinAlgError as err:  # a ValueError from inside, not an input check
            return f"raised LinAlgError: {err}"
        except (DomainError, UnverifiableError, ValueError):
            return None
        except Exception as err:  # every other class, and a warning, breaks the contract
            return f"raised {type(err).__name__}: {err}"
    return None if keeps(value) else f"returned {value!r}"


# (a, b, c) rows whose calls once broke the contract
MENDED = [
    (5.761650394919591e-150, -5.232955793209928e+277, 1.0),  # alpha^2 underflowed: a bare FloatingPointError
    (1.7934847258413677e-236, -2.1545907295567397e115, 1.0),
    (-1.0229834445816485e+166, 2.3912383905424197e+250, 1.0),  # kappa_b^2 overflowed: the bracket (nan, nan]
    (-1.301921080189521e-09, -9.869978309892461e+276, 1.0),  # and upper_bound NaN
    (-5.970785528861544e+191, np.float64(0.5), 5.957505190774787e-05),  # cosh overflowed in s_kc; certificate overflow
    (-1.0, np.float64(0.5), 2.698802100110493e+77),  # the certificate's kappa_a: a numpy overflow warning
    (-1.0, math.nan, 2.225073858507203e-309),  # a NaN K passed the certificate; s_kc = 1/t returned inf
    (math.nan, 1e12, 0.5),  # chi(pi) overflowed to NaN with passes=True
]


@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
          phases=[Phase.explicit, Phase.generate],
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.lists(st.tuples(number, number, number), min_size=BATCH, max_size=BATCH))
@example(MENDED)
def test_scalar_layer_keeps_its_contract(triples):
    breaches = [(fn.__name__, [float(x) for x in args], what)
                for a, b, c in triples
                for fn, pick, keeps in CONTRACT
                if (what := _breach(fn, args := pick(a, b, c), keeps)) is not None]
    assert not breaches, breaches[:5]


# ----------------------------------------------------------------------
# the curvature layer
# ----------------------------------------------------------------------

def _finite(*arrays):
    return all(np.isfinite(np.asarray(x, dtype=float)).all() for x in arrays)


def _blocks(v, x, d):
    """``curvature_blocks`` at v on contractions of the QHF form with ABA, ABdotA and ABU
    scaled by x: R0 has entries of about |x| |v|^2, so a large x or v reaches its overflow
    bound. Building the ``CurvatureInputs`` is part of the call."""
    nc = 4 * d - 3
    w, UBU = np.zeros(nc), np.eye(nc)
    w[0], UBU[0, 0] = 1.0, 0.0
    inputs = CurvatureInputs(d=d, ABA=x * np.eye(3), ABdotA=x * vee([1.0, -0.5, 0.25]), ABU=np.full((3, nc), x),
                             UBU=UBU, w=w, rho_a=0.0)
    return curvature_blocks(v, inputs)


def _turned(v, t, d):
    """R(t) of the QHF blocks at v, its largest |v_i| brought to at most 1e76, where R0 is
    finite, so that most draws reach ``assemble`` itself."""
    top = max(map(abs, v))
    v = [vi * (1e76 / top) for vi in v] if top > 1e76 else v
    return curvature_blocks(v, qhf_curvature_inputs(d, v)).assemble(t)


# function, its arguments from a row (v, x, d), and whether a value it returns keeps the contract
CURVATURE_CONTRACT = [
    (vee, lambda v, x, d: (v,), _finite),
    (ricci_scalars, lambda v, x, d: (v, x, d), lambda r: len(r) == 3 and _finite(r)),
    (qhf_curvature_inputs, lambda v, x, d: (d, v), lambda i: _finite(i.rho_a, i.ABA, i.UBU)),
    (_blocks, lambda v, x, d: (v, x, d), lambda b: _finite(b.R0)),  # curvature_blocks
    (rodrigues, lambda v, x, d: (vee(v), x), _finite),
    (_turned, lambda v, x, d: (v, x, d), _finite),  # CurvatureBlocks.assemble
]


@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate], suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.lists(number, min_size=4 * BATCH, max_size=4 * BATCH))  # a flat list draws faster than 4-tuples
def test_curvature_layer_keeps_its_contract(numbers):
    # rows of four numbers: v is a row's first three and x its fourth; d runs through 1, 2, 3 and 16 by row
    breaches = [(fn.__name__, [float(y) for y in v], float(x), d, what)
                for i, (*v, x) in enumerate(zip(*[iter(numbers)] * 4))
                for d in [(1, 2, 3, 16)[i % 4]]
                for fn, pick, keeps in CURVATURE_CONTRACT
                if (what := _breach(fn, pick(v, x, d), keeps)) is not None]
    assert not breaches, breaches[:5]


# (v, x, d) rows whose calls once broke the contract
CURVATURE_MENDED = [
    # rodrigues: W * W overflowed, with a warning
    ([-1.4169195198104736e-280, 1.7976931348623157e308, -6.716365504858978e-121], -3.715060577591268e-226, 1),
    # a numpy t: 1.5 t and omega t overflowed, with a warning
    ([1.940509030594193e-293, -4.236567592936239e+87, -5.482714803154605e-309], np.float64(1.6365796583465295e+295), 2),
    # omega^2 underflowed to 0, and the Taylor polynomial read 0 * inf
    ([1.992368459927211e-308, -0.0, 0.0], -1.9987480639990585e+184, 2),
    # 1.5 t overflowed at an omega^2 that underflowed: a bare ZeroDivisionError
    ([-8.52913968717337e-309, -6.376818042785354e-293, -9.69949892133655e-309], 1.7976931348623157e308, 3),
    # ricci_scalars: a numpy rho_a, and the a trace overflowed with a warning
    ([-4.049243230678101e-12, 306.31029359916374, 2.0211911328026003e-308], np.float64(1.7976931348623157e308), 1),
]


@pytest.mark.parametrize("v,x,d", CURVATURE_MENDED)
def test_curvature_reproducers_keep_the_contract(v, x, d):
    breaches = [(fn.__name__, what) for fn, pick, keeps in CURVATURE_CONTRACT
                if (what := _breach(fn, pick(v, x, d), keeps)) is not None]
    assert not breaches


# ----------------------------------------------------------------------
# the hopf layer
# ----------------------------------------------------------------------

def _flow(v, t_max, d):
    """The extremal flow from ``initial_state(d, v)`` (q and the seed direction at their
    defaults) over [0, t_max]: building the state is part of the call."""
    return integrate_extremal(initial_state(d, v), t_max)


def _laplacian(v, x, d):
    """``sublaplacian_along`` after ``conjugate_time(d, v)``, on the grid t* (u, 1/2, 1 - 2^-20),
    u = |x| / (1 + |x|): x from 1e-300 to 1e300 puts the smallest radius anywhere in (0, t*]."""
    conj = conjugate_time(d, v)
    u = abs(float(x)) / (1.0 + abs(float(x)))
    return sublaplacian_along(conj, conj.t_star * np.array([u, 0.5, 1.0 - 2.0**-20]))


def _conjugate_ok(c):
    return (isinstance(c, ConjugateResult) and _no_nan(c.t_star, *c.margins) and c.t_star > 0.0
            and _tbar_ok(c.bound_kab))


# function, its arguments from a row (v, x, d), and whether a value it returns keeps the contract
HOPF_CONTRACT = [
    (qhf_kappas, lambda v, x, d: (v,), lambda k: len(k) == 3 and _no_nan(*k)),
    (_flow, lambda v, x, d: (v, x, d),  # initial_state, then integrate_extremal
     lambda g: _finite(g.ts, g.q, g.p, g.h_drift, g.v_drift, g.norm_drift, g.gauge_drift)),
    (conjugate_time, lambda v, x, d: (d, v), _conjugate_ok),
    (_laplacian, lambda v, x, d: (v, x, d), lambda rep: _finite(rep.lhs, rep.rhs, rep.margin, rep.r_times_lhs)),
]


@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate], suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.lists(number, min_size=4 * BATCH, max_size=4 * BATCH))
def test_hopf_layer_keeps_its_contract(numbers):
    # rows of four numbers as for the curvature layer: x is t_max of the flow
    breaches = [(fn.__name__, [float(y) for y in v], float(x), d, what)
                for i, (*v, x) in enumerate(zip(*[iter(numbers)] * 4))
                for d in [(1, 2, 3, 16)[i % 4]]
                for fn, pick, keeps in HOPF_CONTRACT
                if (what := _breach(fn, pick(v, x, d), keeps)) is not None]
    assert not breaches, breaches[:5]


# (v, x, d) rows whose calls once broke the contract
HOPF_MENDED = [
    # |v|^2 overflowed: p0 @ p0 warned, then "H = nan"
    ([1e160, 0.0, 0.0], 1.0, 1),
    # the phase |p| t_max overflowed: cos(inf), with a warning
    ([-1.0, -1.0793531744239997e-308, 0.0], 1.7976931348623157e308, 1),
    # |v|^2 underflowed to 0, so sin(wt)/w read t: q grew to 1e90 and <p, q>^2 overflowed, with a warning
    ([5e-324, -1.9814950549116493e-169, -5.86165392270972e-309], np.float64(4.142878956041829e+258), 1),
]


@pytest.mark.parametrize("v,x,d", HOPF_MENDED)
def test_hopf_reproducers_keep_the_contract(v, x, d):
    breaches = [(fn.__name__, what) for fn, pick, keeps in HOPF_CONTRACT
                if (what := _breach(fn, pick(v, x, d), keeps)) is not None]
    assert not breaches


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------

def _exit_code(argv, out):
    """(exit code, text of the output file or ""): ``cli.main`` in process, its prints
    swallowed and any warning an error."""
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        code = cli.main([*argv, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    out.unlink(missing_ok=True)
    return code, text


@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate], suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.lists(number, min_size=3 * CLI_BATCH, max_size=3 * CLI_BATCH))
def test_cli_exits_0_2_or_3(numbers):
    # rows of three numbers: (--ka, --kb, --kc) of blowup, and --v of conjugate --verify with d
    # running through 1, 2, 3 and 16 by row; an exit of 1 would be a failed computation or check
    wrong = []
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "rows.csv"
        for i, (a, b, c) in enumerate(zip(*[iter(map(float, numbers))] * 3)):
            calls = [(["blowup", f"--ka={a!r}", f"--kb={b!r}", f"--kc={c!r}"], (0, 2))]
            if i < CLI_BATCH // 2:  # a conjugate row takes a 2x2 pass, so half as many
                calls.append((["conjugate", "--d", str((1, 2, 3, 16)[i % 4]), f"--v={a!r},{b!r},{c!r}", "--verify"], (0, 2, 3)))
            for argv, codes in calls:
                code, text = _exit_code(argv, out)
                if code not in codes or "nan" in text:
                    wrong.append((argv, code, "nan" in text))
    assert not wrong, wrong[:5]
