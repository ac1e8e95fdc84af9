"""Canonical curvature blocks of 3-Sasakian comparison geometry.

Along an extremal with vertical momentum v = (v_I, v_J, v_K), the
canonical frame splits into the three-dimensional groups a and b and the
horizontal complement c (size 4d - 3, motion direction included). The
curvature operator in that frame is determined by a handful of
structure contractions, collected in ``CurvatureInputs``:

* ABA and its time derivative ABdotA (3 x 3),
* the mixed contraction ABU (3 x (4d - 3)),
* the horizontal form UBU ((4d - 3) x (4d - 3)),
* the coordinates w of the motion direction in the c frame,
* the scalar rho_a, the total squared norm of the commutator fields.

``curvature_blocks`` places the blocks into R0 = R(0) once, with the c
block re-expressed in a basis with the motion direction last (the
convention the rest of the package relies on). The curvature at time t
is R(t) = exp(tW) R0 exp(tW)^T with W = ``CurvatureBlocks.rotation_generator``,
which turns the a and b groups by E(t) = exp(1.5 t vee(v)) and fixes c:
in the frame rotating with exp(tW) the curvature is the constant R0. For
the quaternionic Hopf fibration the contractions take the constant values
produced by ``qhf_curvature_inputs``, and the three Ricci traces have the
closed forms in ``ricci_scalars``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .models import DomainError
from .structure import FatDims

__all__ = [
    "vee",
    "rodrigues",
    "ricci_scalars",
    "CurvatureInputs",
    "qhf_curvature_inputs",
    "CurvatureBlocks",
    "curvature_blocks",
]

_I3 = np.eye(3)
_I3.flags.writeable = False


def _check_d(d) -> None:
    """``DomainError`` unless the quaternionic dimension d is an integer >= 1
    (a Python or numpy integer; a bool is not one)."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise DomainError(f"d must be an integer >= 1, got {d!r}")


def _momentum(v) -> np.ndarray:
    """v as a finite float 3-vector: ``ValueError`` unless it has three components,
    ``DomainError`` unless they are finite."""
    v = np.asarray(v, dtype=float).ravel()
    if v.shape != (3,):
        raise ValueError(f"v must have three components, got shape {v.shape}")
    if not all(map(math.isfinite, v.tolist())):
        raise DomainError(f"v must be finite, got {v}")
    return v


def _norm2(v: np.ndarray) -> float:
    """|v|^2 of a v that ``_momentum`` has checked, or inf where v @ v would overflow (and warn)."""
    return float(v @ v) if max(map(abs, v.tolist())) < 1e153 else math.inf


def vee(v) -> np.ndarray:
    """Skew 3x3 matrix of a vertical momentum triple, or a stack of them.

    v has shape (..., 3) and the result (..., 3, 3). Rows and columns
    follow the (I, J, K) order; vee(v) @ v = 0 and vee(v) ** 3 = -|v|^2 vee(v).
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"v must have three components on its last axis, got shape {v.shape}")
    vI, vJ, vK = v[..., 0], v[..., 1], v[..., 2]
    W = np.zeros(v.shape + (3,))
    W[..., 0, 1], W[..., 0, 2], W[..., 1, 2] = vK, -vJ, vI
    W[..., 1, 0], W[..., 2, 0], W[..., 2, 1] = -vK, vJ, -vI
    return W


def rodrigues(W: np.ndarray, s: float) -> np.ndarray:
    """expm(s W) for skew 3x3 W, via the closed two-term form.

    Uses W^3 = -omega^2 W with omega^2 = |w|^2 half the squared Frobenius
    norm; the omega -> 0 limit is the quadratic Taylor polynomial, exact
    there since W^3 = 0.
    """
    return _rodrigues(_skew_powers(np.asarray(W, dtype=float)), s)


def _skew_powers(W: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(W, W @ W, omega^2, omega): the part of ``rodrigues`` that does not depend on s."""
    omega2 = 0.5 * float(np.sum(W * W))
    return W, W @ W, omega2, math.sqrt(omega2)


def _rodrigues(powers: tuple[np.ndarray, np.ndarray, float, float], s: float) -> np.ndarray:
    W, W2, omega2, omega = powers
    if omega * abs(s) < 1e-8:
        return _I3 + s * W + 0.5 * s * s * W2
    a = math.sin(omega * s) / omega
    b = (1.0 - math.cos(omega * s)) / omega2
    return _I3 + a * W + b * W2


def ricci_scalars(v, rho_a: float, d: int) -> tuple[float, float, float]:
    """Traces of the three diagonal curvature blocks.

    With s = |v|^2: the a trace is 3*(0.75*rho_a - 3.5*s - 1.875*s^2),
    the b trace 3*(4 + 5*s), and the c trace (4d - 4)*(1 + s) (the motion
    direction carries no curvature). All are constant along the extremal.
    d is checked by ``_check_d`` and v by ``_momentum``; a non-finite rho_a
    or a trace that overflows is a ``DomainError``.
    """
    _check_d(d)
    v = _momentum(v)
    if not math.isfinite(rho_a):
        raise DomainError(f"rho_a must be finite, got {rho_a}")
    s = _norm2(v)
    ric_a = 3.0 * (0.75 * rho_a - 3.5 * s - 1.875 * s * s)
    ric_b = 3.0 * (4.0 + 5.0 * s)
    ric_c = (4.0 * d - 4.0) * (1.0 + s)
    if not math.isfinite(ric_a):
        raise DomainError(f"the a trace overflows at |v|^2 = {s}, rho_a = {rho_a}")
    return ric_a, ric_b, ric_c


@dataclass(frozen=True)
class CurvatureInputs:
    """Structure contractions determining the curvature blocks.

    w holds the coordinates of the motion direction in the supplied
    c basis; the first basis vector for the standard construction.
    ``ValueError`` on a wrong shape or a w off the unit sphere, and
    ``DomainError`` on a NaN or inf entry or rho_a. The largest |entry| of
    each array is kept, for the overflow bound of ``curvature_blocks``.
    """

    d: int
    ABA: np.ndarray
    ABdotA: np.ndarray
    ABU: np.ndarray
    UBU: np.ndarray
    w: np.ndarray
    rho_a: float

    _tops: tuple = field(init=False, repr=False, compare=False)  # max |entry| of ABA, ABdotA, ABU, UBU, w

    def __post_init__(self) -> None:
        # every array field is stored as a float array, so no later reader converts it
        nc, tops = 4 * self.d - 3, []
        for name, shape in (("ABA", (3, 3)), ("ABdotA", (3, 3)), ("ABU", (3, nc)), ("UBU", (nc, nc)), ("w", (nc,))):
            X = np.asarray(getattr(self, name), dtype=float)
            if X.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {X.shape}")
            tops.append(float(np.abs(X).max()))  # NaN where an entry is NaN
            if not tops[-1] < math.inf:
                raise DomainError(f"{name} must be finite, got a NaN or inf entry")
            object.__setattr__(self, name, X)
        object.__setattr__(self, "_tops", tuple(tops))
        if not math.isfinite(self.rho_a):
            raise DomainError(f"rho_a must be finite, got {self.rho_a}")
        if abs(np.linalg.norm(self.w) - 1.0) > 1e-10:
            raise ValueError("w must be a unit vector")


def qhf_curvature_inputs(d: int, v) -> CurvatureInputs:
    """Contractions of the quaternionic Hopf fibration of quaternionic
    dimension d, independent of the footpoint and of time.

    ABA = 4 I, ABdotA = 0, ABU = 0, UBU = I - w w^T with w the first
    basis vector, and rho_a = 2 |v|^2. d is checked by ``_check_d`` and v
    by ``_momentum``; a |v|^2 that overflows is a ``DomainError``.
    """
    _check_d(d)
    v = _momentum(v)
    nc = 4 * d - 3
    w, UBU = np.zeros(nc), np.eye(nc)
    w[0], UBU[0, 0] = 1.0, 0.0  # I - w w^T
    with np.errstate(over="ignore"):  # an |v|^2 that overflows is the DomainError of CurvatureInputs on rho_a
        s = float(v @ v)
    return CurvatureInputs(d=d, ABA=4.0 * _I3, ABdotA=np.zeros((3, 3)), ABU=np.zeros((3, nc)), UBU=UBU, w=w, rho_a=2.0 * s)


def _reflect(X: np.ndarray, u: np.ndarray) -> np.ndarray:
    """X P^T for the reflection P = I - 2 u u^T, as a rank-one update."""
    return X - 2.0 * ((X @ u)[:, None] * u)


@dataclass(frozen=True)
class CurvatureBlocks:
    """The canonical curvature R0 = R(0) and its rotation.

    R0 is the symmetric (4d + 3) x (4d + 3) matrix in (a, b, c) order, its
    c block expressed motion-last: R_cc is constant in time with vanishing
    last row and column. ``assemble(t)`` returns R(t).
    """

    dims: FatDims
    v: np.ndarray
    R0: np.ndarray

    @property
    def R_cc(self) -> np.ndarray:
        c = self.dims.sl_c
        return self.R0[c, c]

    @property
    def rotation_generator(self) -> np.ndarray:
        """W with assemble(t) = exp(tW) R0 exp(tW)^T.

        W = diag(1.5 vee(v), 1.5 vee(v), 0) in (a, b, c) order: exp(tW)
        turns the a and b groups by E(t) and fixes the c group, so it
        commutes with the structural pair (A, B).
        """
        dims = self.dims
        W = np.zeros((dims.n, dims.n))
        W[dims.sl_a, dims.sl_a] = W[dims.sl_b, dims.sl_b] = 1.5 * vee(self.v)
        return W

    @cached_property
    def _turn(self) -> tuple[np.ndarray, np.ndarray, float, float]:
        return _skew_powers(vee(self.v))

    def assemble(self, t: float) -> np.ndarray:
        """R(t): the a and b rows and columns of R0 turned by E(t) = exp(1.5 t vee(v)).

        E(t) is ``rodrigues(vee(v), 1.5 t)``, its vee(v), W @ W and omega^2 built
        once per blocks object. The a/b blocks are turned as one stack, E X E^T,
        and the a/c and b/c blocks as another, E X, by the same 3x3 products a
        loop over blocks makes; those below the diagonal are then mirrored.
        At t = 0, E is the identity and R(t) = R0.
        """
        E = _rodrigues(self._turn, 1.5 * t)
        R = self.R0.copy()
        ab, ac = R[:6, :6].reshape(2, 3, 2, 3).swapaxes(1, 2), R[:6, 6:].reshape(2, 3, -1)
        ab[...], ac[...] = E @ ab @ E.T, E @ ac
        R[3:6, :3], R[6:, :6] = R[:3, 3:6].T, R[:6, 6:].T
        return R


def _b_sign() -> float:
    """-1.0 when the environment variable FATCOMP_FAULT=curvature-sign, else
    1.0: the sign of the b block of R0 wherever it is built. This is a
    fault-injection hook for exercising the verification pipeline and
    must stay off otherwise."""
    return -1.0 if os.environ.get("FATCOMP_FAULT") == "curvature-sign" else 1.0


def curvature_blocks(v, inputs: CurvatureInputs) -> CurvatureBlocks:
    """Place the canonical curvature blocks into R0 = R(0).

    v is checked by ``_momentum``, and a |v|^2 or |v|^4 that overflows is a
    ``DomainError``; so is an R0 that a scalar bound, from |v|^2 and the largest
    |entry| of each contraction (kept by ``CurvatureInputs``), does not keep
    finite. The a/b rows and columns are functions of |v|^2, vee(v), ABA and
    ABdotA alone, whatever d is; the b block takes the sign of the
    FATCOMP_FAULT hook ``_b_sign``. The supplied c basis is
    rotated so the motion direction sits last, and the resulting R_cc must
    then have last row and column below 1e-8 max(1, max|R_cc|), otherwise
    the inputs are inconsistent with a curvature-free motion direction and
    a ValueError is raised. The test is relative because R_cc grows like
    |v|^2. The rounding that passes it is set to exactly 0.
    """
    v = _momentum(v)
    s, V = _norm2(v), vee(v)
    quartic = (12.0 + (45.0 / 16.0) * s) * s  # the |v|^4 scale of R0's a block
    if not math.isfinite(quartic):
        raise DomainError(f"|v|^4 overflows: R0 is not finite at |v|^2 = {s}")
    # every entry of R0, and every partial sum that builds it, is below this bound: ABA enters
    # with |v|^2, ABdotA and ABU with |v|, UBU alone, and the reflections cost 9 (4d - 3)
    aba, abdota, abu, ubu, _ = inputs._tops
    linear = (1.0 + aba) * (1.0 + s) + (abdota + abu) * (1.0 + math.sqrt(s)) + ubu
    if not math.isfinite(quartic + 64.0 * inputs.w.size * linear):
        raise DomainError(f"R0 overflows: the contractions reach |entry| = {max(inputs._tops)} at |v|^2 = {s}")

    w, u = inputs.w, inputs.w.copy()
    u[-1] -= 1.0  # P = I - 2 u u^T sends w to the last axis; P = I if w is there
    norm_u = np.linalg.norm(u)
    u = u / norm_u if norm_u >= 1e-14 else 0.0 * u
    X = inputs.UBU + s * (np.eye(w.size) - w[:, None] * w)
    R_cc = _reflect(_reflect(X, u).T, u).T  # P X P^T
    abs_cc = np.abs(R_cc)
    edge = max(float(abs_cc[-1, :].max()), float(abs_cc[:, -1].max()))
    if edge > 1e-8 * max(1.0, float(abs_cc.max())):
        raise ValueError(f"motion direction carries curvature (residual {edge:.3e}); inputs are inconsistent")
    R_cc[-1, :] = R_cc[:, -1] = 0.0
    ABU_rot = _reflect(inputs.ABU, u)
    dims = FatDims(k=4 * inputs.d, n=4 * inputs.d + 3)
    a, b, c = dims.sl_a, dims.sl_b, dims.sl_c
    R0 = np.zeros((dims.n, dims.n))
    ABA, ABdotA, V2 = inputs.ABA, inputs.ABdotA, V @ V
    VA = V @ ABA
    R0[a, a] = (0.75 * (ABdotA @ V + V.T @ ABdotA) + 0.375 * (ABA @ V2 + V2 @ ABA) + 3.0 * (VA @ V.T)
                + (12.0 + (45.0 / 16.0) * s) * V2)
    R0[a, b], R0[b, b] = 0.75 * (VA + ABA @ V) + (1.5 * s - 4.0) * V, _b_sign() * (ABA + 4.0 * s * _I3 - 1.5 * V2)
    R0[a, c], R0[b, c], R0[c, c] = 1.5 * V @ ABU_rot, ABU_rot, R_cc
    R0[b, a], R0[c, a], R0[c, b] = R0[a, b].T, R0[a, c].T, R0[b, c].T
    return CurvatureBlocks(dims=dims, v=v, R0=R0)
