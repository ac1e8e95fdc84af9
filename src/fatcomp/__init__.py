"""Comparison machinery for fat sub-Riemannian structures.

Scalar model functions and their blow-up times, matrix Jacobi/Riccati
propagation with conjugate-point detection, the structural pair of fat
distributions, canonical curvature of 3-Sasakian spheres, and the
quaternionic Hopf fibration as the worked example tying them together.
"""

from .models import (
    BlowUpTime,
    DiameterCertificate,
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
from .riccati import (
    JacobiSolution,
    UnverifiableError,
    finite_blowup_constant,
    first_blowup,
    integrate_jacobi,
    wedge_det_sign_changes,
    wedge_first_zero,
)
from .structure import (
    FatDims,
    build_structural,
    trace_inequality_check,
    typeI_pair,
)
from .curvature import (
    CurvatureBlocks,
    CurvatureInputs,
    curvature_blocks,
    qhf_curvature_inputs,
    ricci_scalars,
    rodrigues,
    vee,
)
from .hopf import (
    ConjugateResult,
    ExtremalState,
    GeodesicResult,
    SublaplacianReport,
    conjugate_time,
    initial_state,
    integrate_extremal,
    qhf_kappas,
    sublaplacian_along,
)

__version__ = "0.1.0"
