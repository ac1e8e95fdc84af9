"""The public surface: what importing fatcomp loads, what it exports, and
how each entry point rejects non-finite or out-of-domain input.

Test categories:
  1. Import footprint and exports
  2. DomainError at the API boundary
"""

import importlib
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fatcomp
from fatcomp.curvature import CurvatureInputs, curvature_blocks, qhf_curvature_inputs, ricci_scalars
from fatcomp.hopf import (
    ExtremalState,
    conjugate_time,
    initial_state,
    integrate_extremal,
    qhf_kappas,
    reeb_generators,
    sublaplacian_along,
)
from fatcomp.models import DomainError, diameter_certificate, finiteness_predicate, upper_bound_kab
from fatcomp.riccati import finite_blowup_constant, integrate_jacobi, wedge_det_sign_changes, wedge_first_zero
from fatcomp.structure import typeI_pair

MODULES = sorted(m.name for m in pkgutil.iter_modules(fatcomp.__path__))


# ----------------------------------------------------------------------
# Test Class: import footprint and exports
# ----------------------------------------------------------------------

class TestSurface:

    def test_import_loads_no_scipy(self):
        # the runtime needs numpy alone: flows are closed forms or
        # exponentials, and roots come from models._brentq
        src = os.path.dirname(os.path.dirname(os.path.abspath(fatcomp.__file__)))
        code = ("import sys, fatcomp, fatcomp.cli, fatcomp.checks; "
                "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("name", MODULES)
    def test_every_export_resolves(self, name):
        module = importlib.import_module(f"fatcomp.{name}")
        missing = [sym for sym in getattr(module, "__all__", ()) if not hasattr(module, sym)]
        assert not missing, f"fatcomp.{name}.__all__ names missing symbols: {missing}"


# ----------------------------------------------------------------------
# Test Class: DomainError at the boundary
# ----------------------------------------------------------------------

def _state(scale_q=1.0, gauge=0.0):
    """The default d = 1 unit covector, with |q| scaled or p tilted along q."""
    st = initial_state(1, [0.3, -0.2, 0.1])
    return ExtremalState(d=1, q=scale_q * st.q, p=st.p + gauge * st.q)


A_I, B_I = typeI_pair()


def _inputs(**bad):
    """The d = 2 contractions of ``qhf_curvature_inputs``, with the named fields replaced."""
    good = qhf_curvature_inputs(2, [0.3, -0.2, 0.1])
    fields = dict(d=2, ABA=good.ABA, ABdotA=good.ABdotA, ABU=good.ABU, UBU=good.UBU, w=good.w, rho_a=good.rho_a)
    return CurvatureInputs(**{**fields, **bad})


def _on_grid(grid):
    """``sublaplacian_along`` at d = 2 and v = (0.5, 0, 0), where t_star = 2.81, on grid."""
    return sublaplacian_along(conjugate_time(2, [0.5, 0.0, 0.0]), grid)


def _overflowing_inputs():
    with np.errstate(over="ignore"):  # |v|^2 overflows in its product, which warns
        return qhf_curvature_inputs(1, [1e200, 0.0, 0.0])


BAD_INPUT = {
    "extremal-t_max-nan": (lambda: integrate_extremal(_state(), math.nan), "t_max"),
    "extremal-t_max-inf": (lambda: integrate_extremal(_state(), math.inf), "t_max"),
    "extremal-t_max-zero": (lambda: integrate_extremal(_state(), 0.0), "t_max"),
    "extremal-q-not-unit": (lambda: integrate_extremal(_state(scale_q=1.1), 1.0), "unit vector"),
    "extremal-p-not-normal-to-q": (lambda: integrate_extremal(_state(gauge=0.1), 1.0), "<p, q> = 0"),
    "extremal-q-nan": (lambda: integrate_extremal(_state(scale_q=math.nan), 1.0), "unit vector"),
    "extremal-no-samples": (lambda: integrate_extremal(_state(), 1.0, n_samples=0), "n_samples"),
    "upper_bound_kab-kappa_a-nan": (lambda: upper_bound_kab(math.nan, 1.0), "finite"),
    "upper_bound_kab-kappa_b-inf": (lambda: upper_bound_kab(1.0, math.inf), "finite"),
    "finiteness_predicate-kappa_a-nan": (lambda: finiteness_predicate(math.nan, 1.0), "finite"),
    "qhf_kappas-v-nan": (lambda: qhf_kappas([math.nan, 0.0, 0.0]), "v must be finite"),
    # these returned -inf for kappa_a and the a trace, or warned in the product |v|^2
    "qhf_kappas-v-quartic-overflows": (lambda: qhf_kappas([1e80, 0.0, 0.0]), "|v|^4 overflows"),
    "qhf_kappas-v-square-overflows": (lambda: qhf_kappas([0.0, 1e200, 0.0]), "|v|^4 overflows"),
    "ricci_scalars-v-quartic-overflows": (lambda: ricci_scalars([1e80, 0.0, 0.0], 0.0, 1), "the a trace overflows"),
    "ricci_scalars-v-square-overflows": (lambda: ricci_scalars([0.0, 0.0, -1e200], 0.0, 2), "the a trace overflows"),
    "conjugate_time-v-overflows": (lambda: conjugate_time(1, [1e200, 0.0, 0.0]), "|v|^4 overflows"),
    # this gave a NaN or inf R0, with only numpy's overflow warnings
    "curvature_blocks-v-quartic-overflows": (lambda: curvature_blocks([1e80, 0.0, 0.0], qhf_curvature_inputs(1, [1.0, 0.0, 0.0])), "|v|^4 overflows"),
    "curvature_blocks-v-square-overflows": (lambda: curvature_blocks([0.0, -1e200, 0.0], qhf_curvature_inputs(2, [1.0, 0.0, 0.0])), "|v|^4 overflows"),
    # the contractions, not v, overflowed R0: a non-finite R0 with numpy's matmul warnings
    "curvature_blocks-ABA-overflows": (lambda: curvature_blocks([100.0, 0.0, 0.0], CurvatureInputs(
        d=1, ABA=4e307 * np.eye(3), ABdotA=np.zeros((3, 3)), ABU=np.zeros((3, 1)), UBU=np.zeros((1, 1)), w=np.ones(1), rho_a=2e4)),
        "R0 overflows"),
    # chi_at_pi was NaN, with passes=True
    "diameter_certificate-chi-overflows": (lambda: diameter_certificate(0.5, 1e12), "chi(pi) overflows"),
    "sublaplacian_along-r_grid-empty": (lambda: _on_grid([]), "r_grid must be nonempty"),
    "sublaplacian_along-r_grid-nan": (lambda: _on_grid([0.1, math.nan]), "r_grid must be finite"),
    "sublaplacian_along-r_grid-inf": (lambda: _on_grid([math.inf]), "r_grid must be finite"),
    "sublaplacian_along-r_grid-zero": (lambda: _on_grid([0.0, 0.5]), "strictly inside (0, t_star"),
    "sublaplacian_along-r_grid-beyond-t_star": (lambda: _on_grid([0.5, 5.0]), "strictly inside (0, t_star"),
    "ricci_scalars-v-nan": (lambda: ricci_scalars([0.0, math.nan, 0.0], 0.0, 2), "finite"),
    "ricci_scalars-rho_a-inf": (lambda: ricci_scalars([0.0, 0.0, 0.0], math.inf, 2), "finite"),
    "initial_state-v-nan": (lambda: initial_state(2, [0.0, 0.0, math.nan]), "v must be finite"),
    "initial_state-seed-nan": (lambda: initial_state(1, [0.0, 0.0, 0.0], seed_direction=np.full(8, math.nan)), "horizontal"),
    "finite_blowup_constant-typeI-Q-nan": (lambda: finite_blowup_constant(A_I, B_I, np.diag([math.nan, 1.0])), "finite"),
    "finite_blowup_constant-generic-Q-nan": (lambda: finite_blowup_constant(np.zeros((3, 3)), np.eye(3), np.full((3, 3), math.nan)), "finite"),
    "integrate_jacobi-t_max-nan": (lambda: integrate_jacobi(A_I, B_I, np.eye(2), math.nan), "t_max"),
    "wedge_first_zero-t_max-inf": (lambda: wedge_first_zero(A_I, B_I, np.eye(2), math.inf), "t_max"),
    "wedge_det_sign_changes-t_max-nan": (lambda: wedge_det_sign_changes(A_I, B_I, np.eye(2), math.nan), "t_max"),
    "curvature_blocks-v-nan": (lambda: curvature_blocks([math.nan, 0.0, 0.0], qhf_curvature_inputs(1, [0.0, 0.0, 0.0])), "v must be finite"),
    "qhf_curvature_inputs-v-inf": (lambda: qhf_curvature_inputs(2, [0.0, math.inf, 0.0]), "v must be finite"),
    "qhf_curvature_inputs-v-overflows": (_overflowing_inputs, "rho_a must be finite"),
    # these gave a NaN or inf R0 from curvature_blocks
    "CurvatureInputs-ABA-nan": (lambda: _inputs(ABA=np.diag([4.0, math.nan, 4.0])), "ABA must be finite"),
    "CurvatureInputs-ABdotA-inf": (lambda: _inputs(ABdotA=np.full((3, 3), math.inf)), "ABdotA must be finite"),
    "CurvatureInputs-ABU-nan": (lambda: _inputs(ABU=np.full((3, 5), math.nan)), "ABU must be finite"),
    "CurvatureInputs-UBU-inf": (lambda: _inputs(UBU=np.diag([0.0, 1.0, 1.0, 1.0, -math.inf])), "UBU must be finite"),
    "CurvatureInputs-w-nan": (lambda: _inputs(w=[math.nan, 0.0, 0.0, 0.0, 0.0]), "w must be finite"),
    "CurvatureInputs-rho_a-nan": (lambda: _inputs(rho_a=math.nan), "rho_a must be finite"),
    "CurvatureInputs-rho_a-inf": (lambda: _inputs(rho_a=math.inf), "rho_a must be finite"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_is_a_domain_error(case):
    call, message = BAD_INPUT[case]
    with pytest.raises(DomainError, match=re.escape(message)):
        call()


def test_overflowing_momentum_raises_no_warning_first():
    # "overflow encountered in matmul" came before the DomainError, and -W error
    # turned the call into a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape("rho_a must be finite, got inf")):
            qhf_curvature_inputs(1, [1e200, 0.0, 0.0])


@pytest.mark.parametrize("call", [lambda: qhf_kappas([1e200, 0.0, 0.0]), lambda: ricci_scalars([1e200, 0.0, 0.0], 0.0, 1),
                                  lambda: conjugate_time(1, [1e200, 0.0, 0.0]), lambda: qhf_kappas([1e80, 0.0, 0.0]),
                                  lambda: ricci_scalars([1e80, 0.0, 0.0], 0.0, 1),
                                  lambda: curvature_blocks([1e80, 0.0, 0.0], qhf_curvature_inputs(1, [1.0, 0.0, 0.0]))],
                         ids=["qhf_kappas", "ricci_scalars", "conjugate_time", "qhf_kappas-quartic", "ricci_scalars-quartic",
                              "curvature_blocks-quartic"])
def test_overflowing_square_raises_no_warning_first(call):
    # "overflow encountered in matmul" came first, and -W error turned the
    # call into a RuntimeWarning; |v|^4 alone returned -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows"):
            call()


# every entry point that takes the quaternionic dimension d
D_TAKERS = {
    "conjugate_time": lambda d: conjugate_time(d, [0.5, 0.0, 0.0]),
    # the d of sublaplacian_along is that of its conjugate_time result
    "sublaplacian_along": lambda d: sublaplacian_along(conjugate_time(d, [0.5, 0.0, 0.0]), [0.5, 1.0]),
    "initial_state": lambda d: initial_state(d, [0.5, 0.0, 0.0]),
    "reeb_generators": reeb_generators,
    "qhf_curvature_inputs": lambda d: qhf_curvature_inputs(d, [0.5, 0.0, 0.0]),
    "ricci_scalars": lambda d: ricci_scalars([0.5, 0.0, 0.0], 0.5, d),
}


@pytest.mark.parametrize("d", [2.5, 2.0, True, np.True_, 0, -1, np.int64(0), "2"], ids=repr)
@pytest.mark.parametrize("name", sorted(D_TAKERS))
def test_bad_dimension_is_a_domain_error(name, d):
    # 2.5 ran on with 4d - 4 = 6 or raised TypeError, and 0 raised a plain ValueError
    reeb_generators(1), reeb_generators(2)  # a cached d == True or d == 2.0 must not answer
    with pytest.raises(DomainError, match=re.escape(f"d must be an integer >= 1, got {d!r}")):
        D_TAKERS[name](d)


@pytest.mark.parametrize("name", sorted(D_TAKERS))
def test_numpy_integer_dimension_is_accepted(name):
    D_TAKERS[name](np.int64(2))


# every entry point that takes the vertical momentum v
V_TAKERS = {
    "ricci_scalars": lambda v: ricci_scalars(v, 0.0, 1),
    "qhf_curvature_inputs": lambda v: qhf_curvature_inputs(1, v),
    "curvature_blocks": lambda v: curvature_blocks(v, qhf_curvature_inputs(1, [0.0, 0.0, 0.0])),
    "qhf_kappas": qhf_kappas,
    "initial_state": lambda v: initial_state(1, v),
    "conjugate_time": lambda v: conjugate_time(1, v),
    "sublaplacian_along": lambda v: sublaplacian_along(conjugate_time(1, v), [0.5]),
}


@pytest.mark.parametrize("v", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], 1.0], ids=["2", "4", "scalar"])
@pytest.mark.parametrize("name", sorted(V_TAKERS))
def test_momentum_without_three_components_is_a_value_error(name, v):
    # ricci_scalars([1.0, 2.0], 0.0, 1) returned (-193.125, 87.0, 0.0), and
    # qhf_curvature_inputs(1, [1.0, 2.0]) inputs with rho_a = 10.0
    with pytest.raises(ValueError, match=re.escape("v must have three components")) as info:
        V_TAKERS[name](v)
    assert type(info.value) is ValueError
