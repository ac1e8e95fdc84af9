"""Quaternionic Hopf fibration: Reeb fields, extremal flow, conjugate times.

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
form in ambient coordinates, and reports the drift of the first integrals,
which grows like |v| t eps (``norm_drift`` 3.7e-9 at t = 1e8 and v = (1, 0, 0)).

Conjugate times are not obtained by differentiating the exponential map:
they are the first zero of det N of the canonical Jacobi system for the
fat pair (k, n) = (4d, 4d + 3). Its curvature R(t) = P R0 P^T, P =
exp(tW), comes from ``fatcomp.curvature``, and P commutes with the
structural pair (A, B). So (P^T M, P^T N) solve the constant system
(A - W, B, R0) of ``_qhf_system``, whose N has the singular values and
det of the lab-frame N. It is block diagonal, and each block follows from
v alone: the a/b 6x6 corner, the same for every d, which the frame
v = |v| e1 splits into a real and a complex type-I pair; the c block,
Q = kappa_c I; and the motion row. ``conjugate_time`` takes the first det N
zero over the blocks in closed form: the c block's pi/sqrt(kappa_c) and the
real pair's 2 pi/sqrt(4 + 4|v|^2). The complex pair never sets it (Riccati
comparison): its det N is sin(sqrt(1 + |v|^2) t) times a factor without zero
up to there, and under the sign fault its Q is negative semidefinite, so det N
has no zero. ``sublaplacian_along``, given that result, sums their trace(B V)
on a grid inside (0, t_star), the same in both frames, so neither cost depends
on d. The (4d + 3)-square system and the complex pair's 2x2 pass
(``checks._qhf_complex_pair``) are the oracles of the qhf-conjugate checks.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curvature import (
    _I3,
    _ab_corner,
    _b_sign,
    _check_d,
    _momentum,
    _norm2,
    curvature_blocks,
    qhf_curvature_inputs,
    vee,
)
from .models import (
    BlowUpTime,
    DomainError,
    _s_kab,
    blowup_time_kab,
    blowup_time_kc,
    eval_s_kc,
)
from .riccati import integrate_jacobi
from .structure import FatDims, build_structural

__all__ = [
    "ExtremalState",
    "GeodesicResult",
    "ConjugateResult",
    "SublaplacianReport",
    "reeb_generators",
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
_RADII = 4096  # most radii ``sublaplacian_along`` propagates in one stack, a peak of about 55 MB
# the 6x6 a/b corner of the structural pair (A, B), the same for every d, read-only
_AB_PAIR = tuple(np.frombuffer(X[:6, :6].tobytes()).reshape(6, 6) for X in build_structural(FatDims(k=4, n=7)))

@lru_cache(maxsize=8, typed=True)
def reeb_generators(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The skew matrices K_I, K_J, K_K with xi_alpha(q) = K_alpha q, built
    once per d and returned as the same read-only arrays on every call."""
    _check_d(d)
    # + 0.0 clears the -0.0 that kron writes for 0 * -1
    Ks = tuple(-(np.kron(np.eye(d + 1), J4) + 0.0) for J4 in (_J4_I, _J4_J, _J4_K))
    for K in Ks:
        K.flags.writeable = False
    return Ks


def _check_unit(q) -> np.ndarray:
    q = np.asarray(q, dtype=float).ravel()
    if not abs(np.linalg.norm(q) - 1.0) <= 1e-10:
        raise DomainError(f"q must be a unit vector, |q| = {np.linalg.norm(q)}")
    return q


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
        return np.array([float(self.p @ (K @ self.q)) for K in reeb_generators(self.d)])

    @property
    def H(self) -> float:
        pq = float(self.p @ self.q)
        return 0.5 * (float(self.p @ self.p) - pq * pq - float(self.v @ self.v))


def initial_state(d: int, v, q=None, seed_direction=None) -> ExtremalState:
    """Complete vertical momenta and a horizontal seed to a unit covector.

    The seed is projected horizontally at q and normalized, so the
    resulting state has H = 1/2 exactly up to roundoff; the vertical
    momenta come out as requested because the Reeb frame is orthonormal.
    Raises ``DomainError`` on a d that is not an integer >= 1, a non-finite
    v or one whose |v|^2 overflows, a q off the unit sphere or a seed without
    horizontal component, and ``ValueError`` on a q of the wrong length.
    """
    _check_d(d)
    v = _momentum(v)
    if _norm2(v) == math.inf:
        raise DomainError(f"|v|^2 overflows at v = {v}")
    dim = 4 * (d + 1)
    if q is None:
        q = np.zeros(dim)
        q[0] = 1.0
    q = _check_unit(q)
    if q.shape != (dim,):
        raise ValueError(f"q must have length {dim} for d = {d}")
    if seed_direction is None:
        seed_direction = np.zeros(dim)
        seed_direction[4] = 1.0
    xis = np.array([K @ q for K in reeb_generators(d)])
    X = np.asarray(seed_direction, dtype=float)
    X = X - q * (q @ X)
    X = X - xis.T @ (xis @ X)  # the horizontal part
    nrm = np.linalg.norm(X)
    if not nrm >= 1e-12:
        raise DomainError("seed direction has no horizontal component")
    X = X / nrm
    p = X + xis.T @ v
    return ExtremalState(d=d, q=q, p=p)


@dataclass(frozen=True)
class GeodesicResult:
    """Sampled extremal flow with conservation drift metrics: q[i] and p[i]
    are the state at ts[i], arrays of shape (n_samples, 4d + 4)."""

    ts: np.ndarray
    q: np.ndarray
    p: np.ndarray
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

    state0's v, H, c and w are read once, by the products ``ExtremalState``
    and ``np.linalg.norm`` use, and ts is ``np.linspace``'s grid, bit for bit.
    The drift of H, v, |q| and <p, q> over the samples is reported; it grows like |v| t eps, as
    the sine of t sinc(wt/pi) = sin(wt)/w reads pi (wt/pi), not cos(wt)'s wt (``norm_drift`` 3.7e-9
    at v = (1, 0, 0), t_max = 1e8; 0.49 at 1e16). It is taken over all samples at once and is bit
    for bit the drift of each ``ExtremalState(d, q[i], p[i])``'s own H and v.
    Raises ``DomainError`` unless t_max is finite positive, n_samples >= 1
    and state0 has H = 1/2, |q| = 1 and <p, q> = 0, and where an entry of p
    reaches 1e150 (|p|^2 may overflow) or 2 |p| t_max overflows.
    """
    if not (0.0 < t_max < math.inf and n_samples >= 1):
        raise DomainError(f"t_max must be finite positive and n_samples >= 1, got {t_max}, {n_samples}")
    d, q0, p0 = state0.d, _check_unit(state0.q), state0.p
    if not (top := float(np.abs(p0).max())) < 1e150:  # else p0 @ p0 may overflow; NaN fails too
        raise DomainError(f"|p| must be finite with |p|^2 representable, got max |p_i| = {top}")
    pq0 = float(p0 @ q0)
    if not abs(pq0) <= 1e-10:
        raise DomainError(f"state0 must satisfy <p, q> = 0, got {pq0}")
    Ks = reeb_generators(d)
    v0 = np.array([float(p0 @ (K @ q0)) for K in Ks])
    pp0, vv0 = float(p0 @ p0), float(v0 @ v0)
    H0 = 0.5 * (pp0 - pq0 * pq0 - vv0)
    if not abs(H0 - 0.5) <= 1e-10:
        raise DomainError(f"state0 must be a unit covector, H = {H0}")
    K_v = sum(v_a * K for v_a, K in zip(v0, Ks))
    # where |v|^2 underflows, w = sqrt(v @ v) would read 0 (or lose bits) and sin(wt)/w become t
    c, w = math.sqrt(pp0), math.sqrt(vv0) if vv0 >= sys.float_info.min else math.hypot(*v0.tolist())
    if not math.isfinite(2.0 * c * float(t_max)):  # c t, and the pi (w t / pi) of np.sinc, with room for rounding
        raise DomainError(f"the phase |p| t_max overflows at |p| = {c}, t_max = {t_max}")
    ts = np.arange(operator.index(n_samples), dtype=float)  # np.linspace(0.0, t_max, n_samples), bit for bit
    if n_samples > 1:
        step = t_max / (n_samples - 1)
        ts = ts * step if step else ts / (n_samples - 1) * t_max
        ts[-1] = t_max
    cos_c, sin_c = np.cos(c * ts)[:, None], np.sin(c * ts)[:, None]
    # sin(wt)/w = t sinc(wt/pi), which is t at w = 0
    cos_w, sinc_w = np.cos(w * ts)[:, None], (ts * np.sinc(w * ts / np.pi))[:, None]
    qs, ps = cos_c * q0, -c * sin_c * q0
    qs += sin_c / c * p0
    ps += cos_c * p0
    for x in (qs, ps):
        xK = x @ K_v.T
        x *= cos_w
        x -= sinc_w * xK

    # each dot product is a stacked (1 x n) @ (n x 1) matmul, rows P = ps[:, None, :] shared: the
    # BLAS dot of ExtremalState's 1-D products, where einsum or sum() round otherwise
    dot = lambda x, y: (x @ y[..., None])[..., 0, 0]
    P = ps[:, None, :]
    vs = np.empty((len(ts), 3))
    for i, K in enumerate(Ks):
        vs[:, i] = dot(P, qs @ K.T)
    pq = dot(P, qs)
    H = 0.5 * (dot(P, ps) - pq * pq - dot(vs[:, None, :], vs))
    return GeodesicResult(
        ts=ts,
        q=qs,
        p=ps,
        h_drift=float(np.abs(H - 0.5).max()),
        v_drift=float(np.abs(vs - v0).max()),
        norm_drift=float(np.abs(np.sqrt(dot(qs[:, None, :], qs)) - 1.0).max()),
        gauge_drift=float(np.abs(pq).max()),
    )


# ----------------------------------------------------------------------
# conjugate times
# ----------------------------------------------------------------------

def qhf_kappas(v) -> tuple[float, float, float]:
    """Comparison constants (kappa_a, kappa_b, kappa_c) of the fibration.

    With s = |v|^2 and unit ambient sectional curvature:
    kappa_a = s (-2 - 1.875 s), kappa_b = 4 + 5 s, kappa_c = 1 + s.
    Raises ``DomainError`` on a non-finite v, and where |v|^2 or |v|^4 overflows.
    """
    return _kappas(_momentum(v))


def _kappas(v: np.ndarray) -> tuple[float, float, float]:
    """``qhf_kappas`` of a v that ``_momentum`` has checked."""
    s = _norm2(v)
    kappa_a = s * (-2.0 - 1.875 * s)
    if not math.isfinite(kappa_a):
        raise DomainError(f"|v|^4 overflows: kappa_a is not finite at |v|^2 = {s}")
    return kappa_a, 4.0 + 5.0 * s, 1.0 + s


@dataclass(frozen=True)
class ConjugateResult:
    """First conjugate time along a QHF extremal with both model bounds.

    bound_kc = pi/sqrt(1 + |v|^2) is the single-frequency bound, absent
    for d = 1 where the reduced c block is empty; bound_kab is the
    two-frequency blow-up time for the exact constants. Margins are
    bound minus t_star: margin_kc is 0, margin_kab expected nonnegative.
    """

    d: int
    v: np.ndarray
    t_star: float
    bound_kc: float | None
    bound_kab: BlowUpTime
    margin_kc: float | None
    margin_kab: float

    @property
    def margins(self) -> tuple[float, float]:
        """The margins t_star must keep nonnegative: to bound_kab, and to
        bound_kc for d >= 2 or to pi for d = 1, where the c block is empty."""
        return self.margin_kab, math.pi - self.t_star if self.margin_kc is None else self.margin_kc


def _qhf_system(d: int, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A - W, B, R0): the QHF Jacobi system in the frame rotating with its curvature.
    Its 6x6 a/b corner is the same for every d."""
    blocks = curvature_blocks(v, qhf_curvature_inputs(d, v))
    A, B = build_structural(blocks.dims)
    return A - blocks.rotation_generator, B, blocks.R0


def _qhf_corner(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 6x6 a/b corner of ``_qhf_system``, the same for every d, built from v alone: the
    structural pair less 1.5 vee(v) on each group, and R0's a/b rows by ``curvature._ab_corner``
    from the constant QHF contractions ABA = 4 I and ABdotA = 0 of ``qhf_curvature_inputs``."""
    s, V = _norm2(v), vee(v)
    W = np.zeros((6, 6))
    W[:3, :3] = W[3:, 3:] = 1.5 * V
    A, B = _AB_PAIR
    return A - W, B, _ab_corner(s, V, 4.0 * _I3, np.zeros((3, 3)))


def conjugate_time(d: int, v) -> ConjugateResult:
    """First conjugate time: the first det N zero over the blocks of ``_qhf_system``.

    t_star is the smaller of two zeros in closed form. The real type-I pair,
    Q = diag(0, 4 kappa_c), is the two-frequency model at kappa_a = 0: its zero
    is ``blowup_time_kab(0, 4 b kappa_c)``, b = ``_b_sign()``, pi/sqrt(kappa_c)
    to the bit, and infinite where the fault hook flips b. For d >= 2 the c
    block's N = sin(sqrt(kappa_c) t) / sqrt(kappa_c) I vanishes at
    pi/sqrt(kappa_c). The complex type-I pair takes no pass: its first zero is
    the real pair's, and under the fault it has none. No matrix is built, so
    the cost does not depend on d. No zero within 10% beyond the smaller model
    bound raises RuntimeError; ``DomainError`` as ``qhf_kappas``, and on a d
    that is not an integer >= 1.
    """
    _check_d(d)
    v = _momentum(v)
    kappa_a, kappa_b, kappa_c = _kappas(v)
    bound_kab = blowup_time_kab(kappa_a, kappa_b)
    bound_kc = blowup_time_kc(kappa_c).time if d >= 2 else None
    t_max = 1.1 * min(bound_kab.time, bound_kc or math.inf)
    t_star = blowup_time_kab(0.0, _b_sign() * 4.0 * kappa_c).time
    if d >= 2:
        t_star = min(t_star, math.pi / math.sqrt(kappa_c))
    if not t_star <= t_max:
        raise RuntimeError(f"no conjugate point found below {t_max} for d={d}, v={v}; inconsistent with the model bounds")
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


def sublaplacian_along(conj: ConjugateResult, r_grid) -> SublaplacianReport:
    """Evaluate the radial sub-Laplacian trace formula on a grid, given ``conjugate_time(d, v)``.

    trace(B V) sums the blocks of ``_qhf_system``: the a/b 6x6 corner, built
    from v alone by ``_qhf_corner``, by its Riccati quotient, in stacks of up
    to ``_RADII`` radii (one ``_expm`` and one solve each), (4d - 4)
    sqrt(kappa_c) cot(sqrt(kappa_c) r) and the motion row's 1/r, which the
    formula subtracts. Its cost does not
    depend on d. d and v are those of conj, which ``conjugate_time`` has
    checked. The grid must sit strictly inside (0, t_star), where the
    distance is smooth. The volume-derivative term vanishes for these
    structures, so no extra scalar enters the comparison. Raises ``DomainError``
    on an empty or non-finite grid, on one that leaves (0, t_star), and, naming
    its smallest radius, where trace(B V) is not finite or N is singular: N's a
    rows, about r^3, underflow below r = 1e-102.
    """
    r = np.asarray(list(r_grid), dtype=float)
    if r.size == 0:
        raise DomainError("r_grid must be nonempty")
    if not np.isfinite(r).all():
        raise DomainError(f"r_grid must be finite, got {r}")
    if r.min() <= 0.0 or r.max() >= conj.t_star:
        raise DomainError(f"r_grid must lie strictly inside (0, t_star = {conj.t_star}); got [{r.min()}, {r.max()}]")
    d, (kappa_a, kappa_b, kappa_c) = conj.d, _kappas(conj.v)
    A, B, Q = _qhf_corner(conj.v)
    sol = integrate_jacobi(A, B, Q, float(r.max()) * (1.0 + 1e-9))
    with np.errstate(all="ignore"):  # a NaN, or an N singular to working precision, is decided below
        try:
            lhs = np.concatenate([np.trace(B @ sol.V(r[i : i + _RADII]), axis1=1, axis2=2) for i in range(0, r.size, _RADII)])
        except np.linalg.LinAlgError:
            lhs = None
    if lhs is None or not np.isfinite(lhs).all():
        raise DomainError(f"trace(B V) is not finite on the grid, smallest radius {float(r.min())!r}: N's a rows, about r^3, underflow")
    rhs = np.empty_like(r)
    tbar = conj.bound_kab.time  # blowup_time_kab(kappa_a, kappa_b), solved once by conjugate_time
    for i, ri in enumerate(r.tolist()):  # Python floats: the bits of np.float64, less its scalar overhead
        rhs[i] = 3.0 * _s_kab(kappa_a, kappa_b, ri, tbar)
        if d >= 2:
            lhs[i] += (4.0 * d - 4.0) * math.sqrt(kappa_c) / math.tan(math.sqrt(kappa_c) * ri)
            rhs[i] += (4.0 * d - 4.0) * eval_s_kc(kappa_c, ri)
    return SublaplacianReport(d=d, v=conj.v, t_star=conj.t_star, r=r, lhs=lhs, rhs=rhs, margin=rhs - lhs, r_times_lhs=r * lhs)
