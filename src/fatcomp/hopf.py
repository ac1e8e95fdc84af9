"""Quaternionic Hopf fibration: frames, extremal flow, conjugate times.

The sphere S^{4d+3} sits in R^{4(d+1)}, viewed as d+1 quaternionic slots
with coordinates (x, y, z, w) each. Right multiplication by the imaginary
units gives three skew matrices J_I, J_J, J_K; the Reeb fields are
xi_alpha(q) = K_alpha q with K_alpha = -J_alpha, and the horizontal
distribution is the orthogonal complement of the xi's inside the tangent
space. The sub-Riemannian Hamiltonian of a covector p at q is

    H = 1/2 (|p|^2 - <p, q>^2 - sum_alpha (p . K_alpha q)^2).

With the gauge <p, q> = 0, the vertical momenta v_alpha = p . K_alpha q
and c = |p| are first integrals of its flow, so the flow is linear with
constant coefficients: ``integrate_extremal`` evaluates it in closed
form in ambient coordinates, and the drift of the first integrals it
reports is rounding error only.

Conjugate times are not obtained by differentiating the exponential map:
the first zero of det N of the canonical Jacobi system for the fat pair
(k, n) = (4d, 4d + 3) is refined instead. Its curvature R(t) = P R0 P^T,
P = exp(tW), comes from ``fatcomp.curvature``, and P commutes with the
structural pair (A, B). So (P^T M, P^T N) solve the constant system with
A - W and R0, whose N has the singular values and det of the lab-frame
N; ``fatcomp.riccati`` propagates it with exp(tH). The same solution
evaluates the radial sub-Laplacian through the trace formula, since
trace(B V) is the same in both frames, and compares it against the
scalar models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import block_diag

from .curvature import CurvatureBlocks, curvature_blocks, qhf_curvature_inputs
from .models import (
    BlowUpTime,
    DomainError,
    blowup_time_kab,
    blowup_time_kc,
    eval_s_kab,
    eval_s_kc,
)
from .riccati import first_blowup, integrate_jacobi, riccati_solution
from .structure import FatDims, build_structural

__all__ = [
    "FrameBundle",
    "ExtremalState",
    "GeodesicResult",
    "ConjugateResult",
    "SublaplacianReport",
    "reeb_generators",
    "build_frames",
    "initial_state",
    "integrate_extremal",
    "qhf_kappas",
    "conjugate_time",
    "sublaplacian_along",
]

# Right quaternion multiplication by i, j, k on one (x, y, z, w) slot.
_J4_I = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)
_J4_J = np.array(
    [
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)
_J4_K = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ]
)

@lru_cache(maxsize=8)
def _complex_structures(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return tuple(
        block_diag(*([J4] * (d + 1))) for J4 in (_J4_I, _J4_J, _J4_K)
    )


def reeb_generators(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The skew matrices K_I, K_J, K_K with xi_alpha(q) = K_alpha q."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return tuple(-J for J in _complex_structures(d))


def _check_unit(q: np.ndarray, what: str = "q") -> np.ndarray:
    q = np.asarray(q, dtype=float).ravel()
    if not abs(np.linalg.norm(q) - 1.0) <= 1e-10:
        raise DomainError(f"{what} must be a unit vector, |{what}| = {np.linalg.norm(q)}")
    return q


def _momentum(v) -> np.ndarray:
    """v as a finite 3-vector; ``DomainError`` when it is not finite."""
    v = np.asarray(v, dtype=float).ravel()
    if v.shape != (3,):
        raise ValueError(f"v must have three components, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise DomainError(f"v must be finite, got {v}")
    return v


@dataclass(frozen=True)
class FrameBundle:
    """Reeb frame and structure tensors at a point of the sphere."""

    d: int
    q: np.ndarray
    xi_I: np.ndarray
    xi_J: np.ndarray
    xi_K: np.ndarray

    @property
    def xis(self) -> np.ndarray:
        return np.vstack([self.xi_I, self.xi_J, self.xi_K])

    def eta(self, X) -> np.ndarray:
        """The three vertical components <xi_alpha, X>."""
        return self.xis @ np.asarray(X, dtype=float)

    def pr(self, X) -> np.ndarray:
        """Projection onto the horizontal space at q."""
        X = np.asarray(X, dtype=float)
        X = X - self.q * (self.q @ X)
        return X - self.xis.T @ (self.xis @ X)


def build_frames(q, d: int) -> FrameBundle:
    """Reeb fields and the eta/pr evaluators at a unit point q."""
    q = _check_unit(q)
    if q.shape != (4 * (d + 1),):
        raise ValueError(f"q must have length {4 * (d + 1)} for d = {d}")
    KI, KJ, KK = reeb_generators(d)
    return FrameBundle(d=d, q=q, xi_I=KI @ q, xi_J=KJ @ q, xi_K=KK @ q)


# ----------------------------------------------------------------------
# extremal flow
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalState:
    """Point (q, p) of the ambient cotangent space over the sphere.

    The gauge <p, q> = 0 is assumed; H and the vertical momenta v are
    derived quantities, conserved along the flow.
    """

    d: int
    q: np.ndarray
    p: np.ndarray

    @property
    def v(self) -> np.ndarray:
        Ks = reeb_generators(self.d)
        return np.array([float(self.p @ (K @ self.q)) for K in Ks])

    @property
    def H(self) -> float:
        pq = float(self.p @ self.q)
        return 0.5 * (float(self.p @ self.p) - pq * pq - float(self.v @ self.v))

    @property
    def gdot(self) -> np.ndarray:
        """Horizontal velocity: the momentum minus its vertical part."""
        Ks = reeb_generators(self.d)
        out = self.p - self.q * float(self.p @ self.q)
        for v_a, K in zip(self.v, Ks):
            out = out - v_a * (K @ self.q)
        return out


def initial_state(d: int, v, q=None, seed_direction=None) -> ExtremalState:
    """Complete vertical momenta and a horizontal seed to a unit covector.

    The seed is projected horizontally at q and normalized, so the
    resulting state has H = 1/2 exactly up to roundoff; the vertical
    momenta come out as requested because the Reeb frame is orthonormal.
    Raises ``DomainError`` on a non-finite v or a seed without horizontal
    component.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    v = _momentum(v)
    dim = 4 * (d + 1)
    if q is None:
        q = np.zeros(dim)
        q[0] = 1.0
    q = _check_unit(q)
    if seed_direction is None:
        seed_direction = np.zeros(dim)
        seed_direction[4] = 1.0
    frames = build_frames(q, d)
    X = frames.pr(seed_direction)
    nrm = np.linalg.norm(X)
    if not nrm >= 1e-12:
        raise DomainError("seed direction has no horizontal component")
    X = X / nrm
    p = X + frames.xis.T @ v
    return ExtremalState(d=d, q=q, p=p)


@dataclass(frozen=True)
class GeodesicResult:
    """Sampled extremal flow with conservation drift metrics."""

    ts: np.ndarray
    states: list[ExtremalState]
    h_drift: float
    v_drift: float
    norm_drift: float
    gauge_drift: float


def integrate_extremal(state0: ExtremalState, t_max: float, n_samples: int = 257) -> GeodesicResult:
    """Sample the Hamiltonian flow of a unit covector on [0, t_max].

    With K_v = sum v_alpha K_alpha, the flow in the gauge <p, q> = 0 is

        dq/dt = p - K_v q,   dp/dt = -K_v p - |p|^2 q.

    v and c = |p| are constant along it, and K_v^2 = -w^2 I with w = |v|,
    so the flow is exact in closed form: with R(t) = exp(-t K_v) =
    cos(wt) I - sin(wt)/w K_v (R = I at w = 0),

        q(t) = R(t) (cos(ct) q0 + sin(ct)/c p0),
        p(t) = R(t) (-c sin(ct) q0 + cos(ct) p0).

    The drift of H, v, |q| and <p, q> over the samples is reported; it
    is rounding error only. Raises ``DomainError`` unless t_max is finite
    positive and state0 has H = 1/2, |q| = 1 and <p, q> = 0.
    """
    if not 0.0 < t_max < math.inf:
        raise DomainError(f"t_max must be finite positive, got {t_max}")
    d, q0, p0 = state0.d, _check_unit(state0.q), state0.p
    if not abs(float(p0 @ q0)) <= 1e-10:
        raise DomainError(f"state0 must satisfy <p, q> = 0, got {float(p0 @ q0)}")
    if not abs(state0.H - 0.5) <= 1e-10:
        raise DomainError(f"state0 must be a unit covector, H = {state0.H}")
    v0 = state0.v
    K_v = sum(v_a * K for v_a, K in zip(v0, reeb_generators(d)))
    c, w = float(np.linalg.norm(p0)), float(np.linalg.norm(v0))
    ts = np.linspace(0.0, t_max, n_samples)
    cos_c, sin_c = np.cos(c * ts)[:, None], np.sin(c * ts)[:, None]
    # sin(wt)/w = t sinc(wt/pi), which is t at w = 0
    cos_w, sinc_w = np.cos(w * ts)[:, None], (ts * np.sinc(w * ts / np.pi))[:, None]
    qs, ps = cos_c * q0 + sin_c / c * p0, -c * sin_c * q0 + cos_c * p0
    qs, ps = cos_w * qs - sinc_w * (qs @ K_v.T), cos_w * ps - sinc_w * (ps @ K_v.T)

    states: list[ExtremalState] = []
    h_drift = v_drift = norm_drift = gauge_drift = 0.0
    for q, p in zip(qs, ps):
        st = ExtremalState(d=d, q=q, p=p)
        h_drift = max(h_drift, abs(st.H - 0.5))
        v_drift = max(v_drift, float(np.abs(st.v - v0).max()))
        norm_drift = max(norm_drift, abs(float(np.linalg.norm(q)) - 1.0))
        gauge_drift = max(gauge_drift, abs(float(p @ q)))
        states.append(st)
    return GeodesicResult(
        ts=ts,
        states=states,
        h_drift=h_drift,
        v_drift=v_drift,
        norm_drift=norm_drift,
        gauge_drift=gauge_drift,
    )


# ----------------------------------------------------------------------
# conjugate times
# ----------------------------------------------------------------------

def qhf_kappas(v) -> tuple[float, float, float]:
    """Comparison constants (kappa_a, kappa_b, kappa_c) of the fibration.

    With s = |v|^2 and unit ambient sectional curvature:
    kappa_a = s (-2 - 1.875 s), kappa_b = 4 + 5 s, kappa_c = 1 + s.
    Raises ``DomainError`` on a non-finite v.
    """
    v = _momentum(v)
    s = float(v @ v)
    return s * (-2.0 - 1.875 * s), 4.0 + 5.0 * s, 1.0 + s


@dataclass(frozen=True)
class ConjugateResult:
    """First conjugate time along a QHF extremal with both model bounds.

    bound_kc = pi/sqrt(1 + |v|^2) is the single-frequency bound, absent
    for d = 1 where the reduced c block is empty; bound_kab is the
    two-frequency blow-up time for the exact constants. Margins are
    bound minus t_star, expected nonnegative up to refinement error.
    """

    d: int
    v: np.ndarray
    t_star: float
    bound_kc: float | None
    bound_kab: BlowUpTime
    margin_kc: float | None
    margin_kab: float

    @property
    def kappas(self) -> tuple[float, float, float]:
        return qhf_kappas(self.v)


def _qhf_jacobi(d: int, v, t_max: float):
    """The QHF Jacobi system in the frame rotating with its curvature."""
    blocks: CurvatureBlocks = curvature_blocks(v, qhf_curvature_inputs(d, v))
    pair = build_structural(blocks.dims)
    return integrate_jacobi(pair.A - blocks.rotation_generator, pair.B, blocks.assemble(0.0), t_max)


def conjugate_time(d: int, v, tol: float = 1e-9) -> ConjugateResult:
    """First conjugate time from the canonical Jacobi system.

    Scans the (4d + 3)-dimensional system to 10% beyond the smaller of the
    two model bounds; a missing det N zero within that horizon would
    contradict the bounds and raises RuntimeError. Raises ``DomainError``
    on a non-finite v.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    v = _momentum(v)
    kappa_a, kappa_b, kappa_c = qhf_kappas(v)
    bound_kab = blowup_time_kab(kappa_a, kappa_b)
    bound_kc = blowup_time_kc(kappa_c).time if d >= 2 else None
    finite_bounds = [b for b in (bound_kc, bound_kab.time) if b is not None]
    t_max = 1.1 * min(finite_bounds)
    sol = _qhf_jacobi(d, v, t_max)
    # det N grows like t**17 near 0, and N carries a rounding error of
    # eps |exp(tH)|; starting the scan at 1% of the horizon keeps the sign
    # of det N clear of it while staying far below any conjugate time the
    # bounds allow.
    hit = first_blowup(sol, t_min=0.01 * t_max, tol=min(tol, 1e-12))
    if not hit.is_finite:
        raise RuntimeError(
            f"no conjugate point found below {t_max} for d={d}, v={v}; "
            "inconsistent with the model bounds"
        )
    t_star = hit.time
    return ConjugateResult(
        d=d,
        v=v,
        t_star=t_star,
        bound_kc=bound_kc,
        bound_kab=bound_kab,
        margin_kc=None if bound_kc is None else bound_kc - t_star,
        margin_kab=bound_kab.time - t_star,
    )


# ----------------------------------------------------------------------
# sub-Laplacian comparison
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SublaplacianReport:
    """Radial sub-Laplacian against the model right-hand side.

    lhs[i] = trace(B V(r_i)) - 1/r_i is the trace-formula value of the
    sub-Laplacian of the distance at radius r_i; rhs[i] is the model
    comparison value 3 s_{kappa_a,kappa_b}(r_i) + (4d-4) s_{kappa_c}(r_i);
    margin = rhs - lhs. r_times_lhs tracks the small-radius limit 4d + 8.
    """

    d: int
    v: np.ndarray
    t_star: float
    r: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    r_times_lhs: np.ndarray


def sublaplacian_along(d: int, v, r_grid) -> SublaplacianReport:
    """Evaluate the radial sub-Laplacian trace formula on a grid.

    The grid must sit strictly inside (0, t_star): at and beyond the
    conjugate time the distance is no longer smooth and the trace
    formula is meaningless. The volume-derivative term vanishes for
    these structures, so no extra scalar enters the comparison. Raises
    ``DomainError`` on an empty or non-finite grid and a non-finite v.
    """
    v = np.asarray(v, dtype=float).ravel()
    r = np.asarray(list(r_grid), dtype=float)
    if r.size == 0:
        raise DomainError("r_grid must be nonempty")
    if not np.isfinite(r).all():
        raise DomainError(f"r_grid must be finite, got {r}")
    conj = conjugate_time(d, v)
    if r.min() <= 0.0 or r.max() >= conj.t_star:
        raise DomainError(
            f"r_grid must lie strictly inside (0, t_star = {conj.t_star}); "
            f"got [{r.min()}, {r.max()}]"
        )
    kappa_a, kappa_b, kappa_c = qhf_kappas(v)
    sol = _qhf_jacobi(d, v, float(r.max()) * (1.0 + 1e-9))
    ric = riccati_solution(sol)
    B = build_structural(FatDims(k=4 * d, n=4 * d + 3)).B
    lhs = np.empty_like(r)
    rhs = np.empty_like(r)
    for i, ri in enumerate(r):
        lhs[i] = float(np.trace(B @ ric.V(ri))) - 1.0 / ri
        rhs[i] = 3.0 * eval_s_kab(kappa_a, kappa_b, ri)
        if d >= 2:
            rhs[i] += (4.0 * d - 4.0) * eval_s_kc(kappa_c, ri)
    return SublaplacianReport(
        d=d,
        v=v,
        t_star=conj.t_star,
        r=r,
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
        r_times_lhs=r * lhs,
    )
