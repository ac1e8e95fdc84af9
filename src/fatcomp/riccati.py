"""Matrix Jacobi systems and Riccati blow-up analysis.

The linear system is

    d/dt [M; N] = H [M; N],   H = [[-A^T, -Q], [B, A]],   M(0) = I, N(0) = 0,

with constant A, B and symmetric Q, whose quotient V = M N^{-1} solves the
matrix Riccati equation V' + A^T V + V A + Q + V B V = 0 with a +infinity
initial datum. Blow-up of V is a zero of det N, and every comparison
statement in this package reduces to locating or excluding such zeros.
Every system the package builds has constant coefficients (the Hopf system
in the frame rotating with its curvature, see ``fatcomp.hopf``), so [M; N](t)
is the first n columns of exp(tH), by the products-only ``_expm``.

One zero rule serves every n and every multiplicity (the Maslov view): det N
vanishes when an eigenphase of the Lagrangian plane [M; N] reaches pi, and
with B >= 0 the first zero is the first time the largest does. It is written
once, for two frames: both passes step H scaled by ``_balanced``, the same
steps at every scale of the system; ``_step_count``, ``_cut`` and ``_turns``
cap the steps, cut the phases and count those that pass pi.

* ``integrate_jacobi`` and ``JacobiSolution``: exp(tH) at any t, V and the
  symplectic residual;
* ``first_blowup``: the rule on an orthonormal frame stepped by exp(h H) and QR;
* ``wedge_first_zero`` and ``wedge_det_sign_changes``: the rule for 2x2
  systems, Q real or Hermitian, on the Pluecker vector of the plane, stepped
  in blocks by expm(h H2), H2 the additive compound of H, which keeps the
  plane through hyperbolic growth; the two phases follow in closed form;
* ``finite_blowup_constant``: whether det N vanishes at all, from the
  Jordan structure of H on its imaginary spectrum.

Every zero is refined by ``models._brentq`` to ``_XTOL`` = 1e-12 in t,
relative below t_max = 1.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .models import BlowUpTime, DomainError, _brentq

__all__ = ["JacobiSolution", "integrate_jacobi", "first_blowup", "finite_blowup_constant",
           "wedge_det_sign_changes", "wedge_first_zero", "UnverifiableError"]


def _jacobi_system(A, B, Q, t_max: float | None = None, n: int | None = None, hermitian: bool = False):
    """Validated (A, B, Q, H) of a Jacobi system, H = [[-A^T, -Q], [B, A]]: A, B and Q
    square of one size (n where given), A and B real, Q symmetric, or Hermitian where
    ``hermitian`` allows a complex Q, to 1e-10 of max(1, max|Q|). ``DomainError`` on a
    non-finite entry or t_max, ``ValueError`` on any other breach."""
    mats = []
    for name, X in (("A", A), ("B", B), ("Q", Q)):
        X = np.asarray(X)
        if X.dtype.kind == "c" and not (hermitian and name == "Q"):
            raise ValueError(f"{name} must be real")
        X = X.astype(complex if X.dtype.kind == "c" else float, copy=False)
        if X.ndim != 2 or X.shape[0] != X.shape[1] or X.shape[0] != (n or X.shape[0]):
            raise ValueError(f"{name} must be square" + (f", {n}x{n}" if n else "") + f", got shape {X.shape}")
        n = X.shape[0]
        mats.append(X)
    A, B, Q = mats
    if t_max is not None and not (t_max > 0.0 and math.isfinite(t_max)):
        raise DomainError(f"t_max must be finite positive, got {t_max}")
    H = np.empty((2 * n, 2 * n), Q.dtype)  # np.block costs 20 us at 4x4
    H[:n, :n], H[:n, n:], H[n:, :n], H[n:, n:] = -A.T, -Q, B, A
    if not np.isfinite(H).all():
        raise DomainError("the Jacobi system needs finite A, B and Q")
    if np.abs(Q - Q.T.conj()).max() > 1e-10 * max(1.0, np.abs(Q).max()):
        raise ValueError(f"Q is not {'Hermitian' if np.iscomplexobj(Q) else 'symmetric'} to 1e-10")
    return A, B, Q, H


# ----------------------------------------------------------------------
# propagation
# ----------------------------------------------------------------------

#: 1/(4j + i)! up to degree 16: row j weighs X^0..X^3 in the X^(4j) block of _expm.
_TAYLOR = np.array([[1.0 / math.factorial(4 * j + i) * (4 * j + i <= 16) for i in range(4)] for j in range(5)])


def _expm(X: np.ndarray) -> np.ndarray:
    """exp(X) of a small matrix by products alone: degree-16 Taylor (Paterson-Stockmeyer)
    on X / 2^s with ||X / 2^s||_1 <= 1/2, then s squarings; NaN if ||X|| is not finite.
    scipy.linalg.expm solves through a LAPACK call that OpenBLAS threads even at 6x6,
    and while the other core is busy each call waits a scheduler tick for its helper
    thread (4 ms instead of 25 us on a 2-vCPU VM)."""
    norm = float(np.abs(X).sum(axis=0).max())
    if not math.isfinite(norm):
        return np.full_like(X, np.nan)
    s = max(0, math.frexp(norm)[1] + 1)
    X = X * math.ldexp(1.0, -s)
    X2 = X.dot(X)  # ndarray.dot: the BLAS call of @, less its set-up; np.array: np.stack, less its own
    B = _TAYLOR.dot(np.array((np.eye(len(X)), X, X2, X2.dot(X))).reshape(4, -1)).reshape(5, *X.shape)
    X4, E = X2.dot(X2), B[4]
    for j in (3, 2, 1, 0):
        E = B[j] + X4.dot(E)
    for _ in range(s):
        E = E.dot(E)
    return E


@dataclass
class JacobiSolution:
    """Solution [M; N](t) = exp(tH)[:, :n] of a constant Jacobi system on [0, t_max]."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    t_max: float
    H: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def t_grid(self) -> np.ndarray:
        """The propagator's grid: exp(tH) needs no inner steps, so just 0 and t_max."""
        return np.array([0.0, self.t_max])

    def _blocks(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        n = self.n
        Y = _expm(t * self.H)[:, :n]
        return Y[:n], Y[n:]

    def M(self, t: float) -> np.ndarray:
        return self._blocks(t)[0]

    def N(self, t: float) -> np.ndarray:
        return self._blocks(t)[1]

    def det_N(self, t: float) -> float:
        return float(np.linalg.det(self.N(t)))

    def sigma_min_N(self, t: float) -> float:
        return float(np.linalg.svd(self.N(t), compute_uv=False)[-1])

    def symplectic_residual(self, t: float) -> float:
        """Norm of M^T N - N^T M, conserved at 0 by the flow."""
        M, N = self._blocks(t)
        return float(np.linalg.norm(M.T @ N - N.T @ M))

    def V(self, t: float) -> np.ndarray:
        """The Riccati quotient V = M N^{-1}."""
        M, N = self._blocks(t)
        return np.linalg.solve(N.T, M.T).T


def integrate_jacobi(A, B, Q, t_max: float) -> JacobiSolution:
    """The Jacobi system with constant symmetric Q on [0, t_max]: H = [[-A^T, -Q], [B, A]]
    is built once, and M, N are blocks of exp(tH) by ``_expm``; no ODE is solved.
    Raises ``DomainError`` on non-finite A, B or Q."""
    A, B, Q, H = _jacobi_system(A, B, Q, t_max)
    return JacobiSolution(A=A, B=B, Q=Q, t_max=float(t_max), H=H)


# ----------------------------------------------------------------------
# blow-up detection
# ----------------------------------------------------------------------

#: Most an eigenphase of the plane may turn in one step of a phase pass.
_TURN = 0.25 * math.pi
#: Time tolerance of a refinement of a det N zero, scaled by min(1, t_max).
_XTOL = 1e-12
#: Most steps a phase pass may take.
_MAX_STEPS = 2**20
#: How far below the level of the fit of _balanced, in log scale, a diagonal of Q may drag it.
_FAR_BELOW = math.log(10.0)


class UnverifiableError(FloatingPointError):
    """A route cannot decide: a pass of over 2^20 steps, an overflowing step, or phases that stay at 0, move back or leave no gap."""


@functools.lru_cache(maxsize=256)
def _fit(pattern: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(fitted entries: all of A, the diagonals of B and Q; design; pseudo-inverse; diagonals of Q) of ``_balanced`` for one pattern of S != 0."""
    n = math.isqrt(len(pattern)) // 2
    keep = np.frombuffer(pattern, bool).reshape(2 * n, 2 * n) & ~np.kron(np.eye(2, dtype=bool), ~np.eye(n, dtype=bool))
    x = np.hstack((np.vstack((np.eye(n), -np.eye(n))), np.full((2 * n, 1), -0.5)))  # (u, mu) in x_i - mu/2
    r, c = np.nonzero(keep)
    return keep, x[r] + x[c], np.linalg.pinv(x[r] + x[c]), (r == c) & (r >= n)


@functools.lru_cache(maxsize=32)
def _check_b(data: bytes, shape: tuple[int, ...], dtype: str) -> None:
    """``ValueError`` unless B, by its bytes, shape and dtype, is symmetric positive semidefinite to 1e-12: once per B that passes."""
    B = np.frombuffer(data, dtype).reshape(shape)
    b = np.linalg.eigvalsh(B.real)
    if np.abs(B - B.T).max() > 1e-12 * b[-1] or b[0] < -1e-12 * b[-1]:
        raise ValueError(f"B must be symmetric positive semidefinite to 1e-12, its eigenvalues span [{b[0]:.3e}, {b[-1]:.3e}]")


def _balanced(H: np.ndarray) -> tuple[np.ndarray, float]:
    """(H_u, rate): H conjugated by the symplectic diag(e^-u, e^u), which keeps every zero of det N,
    and the top eigenvalue of S_u = J^T H_u = [[B_u, A_u], [A_u^T, Q_u]], which bounds the forward
    speed of the phases when B >= 0 (else ``ValueError``; ``_check_b`` runs once per B). u is the
    least-squares fit of the diagonals of B and Q and the nonzero entries of A to one level mu in
    log scale; small off-diagonals would drive it, and so does a diagonal of Q far below mu (1e-45
    next to 1): a refit without the diagonals of Q ``_FAR_BELOW`` below mu wins if its rate is lower."""
    n = len(H) // 2
    _check_b(H[n:, :n].tobytes(), (n, n), H.dtype.str)
    S = np.concatenate((H[n:], -H[:n]))  # S_u = S * outer(g, g), log g = (u, -u)
    keep, design, fit, q = _fit((S != 0).tobytes())
    log = np.log(np.abs(S[keep]))
    fits = [fit.dot(-log)]
    r = log + design.dot(fits[0])  # log size over mu
    below = (r < -_FAR_BELOW) & q
    if below.any():
        refit = keep.copy()
        refit[keep] = ~below
        fits.append(fits[0] - _fit(refit.tobytes())[2].dot(r[~below]))  # the least change: scale-free
    gs = [np.exp(np.concatenate((z[:n], -z[:n]))) for z in fits]
    rates = [float(np.linalg.eigvalsh(S * (g[:, None] * g))[-1]) for g in gs]
    i = rates.index(min(rates))
    return H * ((1.0 / gs[i])[:, None] * gs[i]), rates[i]


def _step_count(t_max: float, rate: float) -> int:
    """Steps of a phase pass, pi/4 of turn each; ``UnverifiableError`` above ``_MAX_STEPS``."""
    steps = t_max * rate / _TURN
    if not steps <= _MAX_STEPS:
        raise UnverifiableError(f"t_max = {t_max:.3e} needs {steps:.3e} steps, above {_MAX_STEPS}")
    return max(1, math.ceil(steps))


def _cut(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cut, gap): the middle and width of the widest cyclic gap of the phases phi in [0, pi)
    on the first axis, which no phase reaches in a step that turns it by less than gap/2."""
    if len(phi) == 2:  # the sorted rule below in closed form, bit for bit: a tie takes the gap above lo
        lo, hi = np.minimum(phi[0], phi[1]), np.maximum(phi[0], phi[1])
        gap = np.maximum(hi - lo, (lo + math.pi) - hi)
        cut = np.where(hi - lo == gap, lo, hi) + 0.5 * gap
    else:
        p = np.sort(phi, axis=0)
        gaps = np.concatenate((p[1:], p[:1] + math.pi)) - p
        gap = gaps.max(axis=0)
        cut = np.where(gaps == gap, p, math.inf).min(axis=0) + 0.5 * gap
    return cut - math.pi * (cut >= math.pi), gap


def _turns(phi: np.ndarray, phi1: np.ndarray, cut, t: float, h: float, first: bool):
    """(m, turn, drops) of steps of h from t with phases phi and phi1 (first axis) at their
    ends: m counts the phases in [cut, pi) at each start, turn its change, less the zeros
    of det N in the step, drops the steps with a zero. ``UnverifiableError`` if a phase
    stays at 0 after the first step or moves back through pi, up to the first zero where
    ``first``."""
    m = (phi >= cut).sum(axis=0)
    turn = (phi1 >= cut).sum(axis=0) - m
    drops = np.nonzero(turn < 0)[0]
    back = np.nonzero(turn[: drops[0] + 1 if first and drops.size else None] > 0)[0]
    if back.size or (t == 0.0 and np.minimum(phi1[:, 0], math.pi - phi1[:, 0]).min() <= _XTOL):
        t += h * int(back[0] if back.size else 0)
        raise UnverifiableError(f"an eigenphase stays at 0 or moves back through pi on [{t:.17g}, {t + h:.17g}]")
    return m, turn, drops


def _phases(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(orthonormal frame [M; N], eigenphases phi_j in [0, pi)) of the plane of Y: W = M + iN is
    unitary, W W^T has the eigenvalues exp(2i phi_j), and det N = 0 exactly when a phi_j is 0."""
    Y = np.linalg.qr(Y)[0]
    W = Y[: len(Y) // 2] + 1j * Y[len(Y) // 2 :]
    return Y, np.angle(np.linalg.eigvals(W @ W.T)) / 2.0 % math.pi


def _steps(Hc: np.ndarray, rate: float, t_max: float):
    """Steps of ``first_blowup``: yields (t, h, cut, Y, phi, phi1), Y the orthonormal frame
    at t, phi and phi1 the phases at t and t + h. A step of ``_step_count`` is halved until
    the gap of ``_cut`` is wider than 2 h rate; n phases leave a gap of pi/n, so a step
    that needs more halvings is ``UnverifiableError``."""
    n = len(Hc) // 2
    steps = _step_count(t_max, rate)
    h0 = t_max / steps
    expm = functools.cache(lambda du: _expm(du * h0 * Hc))
    u, Y, phi = 0.0, np.eye(2 * n, n), np.zeros(n)  # u: steps of h0 taken, exact in binary
    while u < steps:
        (cut, gap), du = _cut(phi), 1.0
        while not gap > 2.0 * du * h0 * rate:
            if 2.0 * du * h0 * rate < math.pi / n:
                raise UnverifiableError(f"the eigenphases at t = {u * h0:.17g} leave no gap wider than {2.0 * du * h0 * rate:.3e}")
            du *= 0.5
        du = min(du, steps - u)
        Y1, phi1 = _phases(expm(du) @ Y)
        yield u * h0, du * h0, cut, Y, phi, phi1
        u, Y, phi = u + du, Y1, phi1


def first_blowup(sol: JacobiSolution) -> BlowUpTime:
    """First zero of det N on (0, t_max], or the infinite marker: the first time the largest
    eigenphase of [M; N] reaches pi on the steps of ``_steps``, refined by ``_brentq`` to
    1e-12 min(1, t_max) on the m-th phase past the cut, less pi, with the pass's own values
    at both ends of the step. ``ValueError`` unless B >= 0; ``UnverifiableError`` if a phase
    stays at 0 after the first step (det N vanishes to working precision) or moves back
    through pi, if the phases leave no gap for a cut, or beyond 2^20 steps."""
    Hc, rate = _balanced(sol.H)
    for t, h, cut, Y, phi, phi1 in _steps(Hc, rate, sol.t_max):
        m, _, drops = _turns(phi[:, None], phi1[:, None], cut, t, h, first=True)
        if drops.size:
            z, m = -cut % math.pi, int(m[0])  # z: pi seen from the cut
            past = lambda s: np.sort(((phi if s == 0.0 else phi1 if s == h else _phases(_expm(s * Hc) @ Y)[1]) + z) % math.pi)[m - 1] - z
            return BlowUpTime.finite(t + _brentq(past, 0.0, h, xtol=_XTOL * min(1.0, sol.t_max)))
    return BlowUpTime.infinite()


# ----------------------------------------------------------------------
# constant-coefficient finiteness classification
# ----------------------------------------------------------------------

def finite_blowup_constant(A, B, Q) -> bool:
    """Whether det N has a positive zero for constant (A, B, Q).

    N(t) is an entire matrix function of H = [[-A^T, -Q], [B, A]], and det N
    vanishes at some t > 0 exactly when H has a purely imaginary eigenvalue
    carrying a Jordan block of odd size. Eigenvalues are clustered at relative
    tolerance 1e-6; a cluster is imaginary when its mean real part is inside a
    1e-9 band (relative to the spectral scale). There are r_{j-1} - 2 r_j +
    r_{j+1} blocks of size j, r_j the rank of (H - mu I)^j: its singular values
    above 1e-8 ||H - mu I||_2^j, not 1e-8 of its own largest one, which rounding
    makes meaningless once the power is nearly nilpotent. Raises
    ``DomainError`` on non-finite A, B or Q.
    """
    A, B, Q, H = _jacobi_system(A, B, Q)
    eigs = np.linalg.eigvals(H)
    scale = max(1.0, float(np.abs(eigs).max()))
    band, dim = max(1e-9, 1e-9 * scale), len(H)
    remaining = list(eigs)
    while remaining:
        cluster, changed = [remaining.pop()], True
        while changed:
            changed = False
            for lam in list(remaining):
                if any(abs(lam - mu) < 1e-6 * scale for mu in cluster):
                    cluster.append(lam)
                    remaining.remove(lam)
                    changed = True
        mu = complex(np.mean(cluster))
        if abs(mu.real) > band:
            continue
        P = H - 1j * mu.imag * np.eye(dim)
        norm = float(np.linalg.norm(P, 2))
        ranks, power = [dim], np.eye(dim, dtype=complex)
        for j in range(1, len(cluster) + 2):
            power = power @ P
            ranks.append(int(np.sum(np.linalg.svd(power, compute_uv=False) > 1e-8 * norm**j)))
            if ranks[-1] == ranks[-2]:
                break
        ranks += [ranks[-1]] * (len(cluster) + 2 - len(ranks))
        if any(ranks[j - 1] - 2 * ranks[j] + ranks[j + 1] > 0 for j in range(1, len(cluster) + 1, 2)):
            return True
    return False


# ----------------------------------------------------------------------
# 2x2 systems: the phase rule on the compound sweep
# ----------------------------------------------------------------------

#: Steps per block (twice that in a pass that only counts and needs no refinement-grade vector; fewer
#: where ||E2^K||_inf would pass exp(300)), and per run of the sweep; 1/j! of a degree-30 Taylor polynomial.
_WEDGE_BLOCK, _WEDGE_LOG_GROWTH, _WEDGE_CHUNK = 128, 300.0, 4096
_INV_FACTORIALS = 1.0 / np.cumprod(np.r_[1.0, 1.0:31.0])
#: Pluecker coordinates (0,1), (0,2), (0,3), (1,2), (1,3), (2,3) of 2-planes, rows (m0, m1, n0, n1).
_PAIR_I, _PAIR_J = np.triu_indices(4, 1)


def _additive_compound(H: np.ndarray) -> np.ndarray:
    """The 6x6 H2 with expm(t H2) the second compound of expm(t H), for H of shape (..., 4, 4)."""
    i, j, k, l = _PAIR_I[:, None], _PAIR_J[:, None], _PAIR_I, _PAIR_J
    d = np.eye(4)
    return H[..., i, k] * d[j, l] - H[..., i, l] * d[j, k] + d[i, k] * H[..., j, l] - d[i, l] * H[..., j, k]


_COMPOUND = _additive_compound(np.eye(16).reshape(16, 4, 4)).reshape(16, 36).T  # H -> H2 as one product


def _wedge_phases(W: np.ndarray) -> np.ndarray:
    """Eigenphases in [0, pi), on the first axis, of the planes with Pluecker vectors W:
    those of (M + iN)(M - iN)^-1 are ((p01 + p23) +- sqrt(4 p02 p13 - (p03 + p12)^2)) /
    ((p01 - p23) - i (p03 - p12)), halved; for a real Q, p13 = -p02: theta +- delta."""
    p01, p02, p03, p12, p13, p23 = W
    if np.isrealobj(W):
        theta = np.arctan2(p03 - p12, p01 - p23)
        delta = np.arctan2(np.sqrt((p03 + p12) ** 2 + 4.0 * p02 * p02), p01 + p23)
        args = np.array((theta - delta, theta + delta))
    else:
        root = np.sqrt(4.0 * p02 * p13 - (p03 + p12) ** 2)
        args = np.angle(np.array((p01 + p23 - root, p01 + p23 + root)) / ((p01 - p23) - 1j * (p03 - p12)))
    args *= 0.5  # in (-pi, pi]: a branch is cheaper than np.remainder
    args += np.where(args < 0.0, math.pi, 0.0)
    return args - np.where(args >= math.pi, math.pi, 0.0)


def _wedge_sweep(E2: np.ndarray, K: int, steps: int):
    """Yield (k0, W), W[:, i] the Pluecker vector after k0 + i steps of E2, in runs that
    share their ends and change no bit of W. A block is one product of E2^1..E2^K with
    its start; the next start, its last vector, is rescaled and moved by a Newton step
    onto the quadric p01 p23 - p02 p13 + p03 p12 = 0 of 2-planes, off which E2 amplifies
    rounding that the phases misread (2e-9 at (-2.57, 3.22), t = 55)."""
    powers = np.empty((K, 6, 6), E2.dtype)
    powers[0], n = E2, 1
    while n < K:  # by doubling: E2^(n+1..2n) = E2^(1..n) E2^n
        np.matmul(powers[: min(n, K - n)], powers[n - 1], out=powers[n : 2 * n])
        n *= 2
    # w @ stacked^T runs at half the cost of stacked @ w on the (6K, 6) stack
    stacked_t, per, w = powers.reshape(6 * K, 6).T.copy(), max(1, _WEDGE_CHUNK // K), np.eye(1, 6, dtype=E2.dtype)[0]
    for k0 in range(0, steps, per * K):
        n_blocks = min(per, -(-(steps - k0) // K))
        W = np.empty((n_blocks * K + 1, 6), E2.dtype)
        W[0] = w
        for b in range(n_blocks):
            np.matmul(w, stacked_t, out=W[b * K + 1 : b * K + K + 1].reshape(-1))
            v = W[b * K + K].tolist()
            top = max(map(abs, v))
            p01, p02, p03, p12, p13, p23 = v = [x / top for x in v]
            c = (p01 * p23 - p02 * p13 + p03 * p12) / sum([x * x.conjugate() for x in v]).real
            W[b * K + K] = w = np.array([x - c * y.conjugate() for x, y in zip(v, (p23, -p13, p12, p03, -p02, p01))])
        yield k0, np.ascontiguousarray(W[: steps - k0 + 1].T)


def _wedge_pass(A, B, Q, t_max: float, first: bool):
    """(zeros, closest approach, first zero) of det N for the two wedge functions."""
    Hc, rate = _balanced(_jacobi_system(A, B, Q, t_max, n=2, hermitian=True)[3])
    H2, steps = _COMPOUND.dot(Hc.reshape(16)).reshape(6, 6), _step_count(t_max, rate)
    h, zeros, near = t_max / steps, 0, math.inf
    with np.errstate(all="ignore"):
        E2 = _expm(h * H2)
    growth = math.log(max(math.e, float(np.abs(E2).sum(axis=1).max())))  # ||E2^K||_inf <= exp(K growth)
    if not growth < math.inf:
        raise UnverifiableError(f"expm(h H2) overflows at h = {h:.3e}, t_max = {t_max:.3e}")
    for k0, W in _wedge_sweep(E2, max(1, min(_WEDGE_BLOCK * (1 if first else 2), steps, int(_WEDGE_LOG_GROWTH / growth))), steps):
        phi = _wedge_phases(W)
        cut = _cut(phi[:, :-1])[0]
        m, turn, drops = _turns(phi[:, :-1], phi[:, 1:], cut, k0 * h, h, first)
        if not first:  # a first-zero pass reads neither the count nor the closest approach
            zeros -= int(turn.sum())
            near = min(near, math.pi - float(phi[:, max(0, int(1.0 / h) + 1 - k0) :].max(initial=-math.inf)))  # t > 1
        elif drops.size:
            j = int(drops[0])
            return 0, near, BlowUpTime.finite((k0 + j) * h + _wedge_refine(H2, W[:, j], cut[j], int(m[j]), h, t_max))
    return zeros, near, BlowUpTime.infinite()


def _wedge_refine(H2: np.ndarray, w: np.ndarray, cut: float, m: int, h: float, t_max: float) -> float:
    """Offset into a step of the zero where the m-th phase past the cut reaches pi, by ``_brentq``
    on the degree-30 Taylor polynomial of exp(s H2) w, w the step's start, on a half, quarter, ...
    of the step while ||h H2||_2 > 2: never, and with no svd, where h ||H2||_F <= 2 - 1e-9."""
    t0, norm = 0.0, 0.0 if h * math.sqrt(np.vdot(H2, H2).real) <= 2.0 - 1e-9 else float(np.linalg.svd(H2, compute_uv=False)[0])
    while h * norm > 2.0:
        h *= 0.5
        mid = _expm(h * H2) @ w
        if (_wedge_phases(mid) >= cut).sum() == m:
            t0, w = t0 + h, mid
    C, X = np.empty((6, 32), w.dtype), h * H2
    C[:, 0] = w / np.abs(w).max()
    for k in (1, 2, 4, 8, 16):  # columns X^k..X^(2k-1) w from X^0..X^(k-1) w, X = (h H2)^k
        C[:, k : 2 * k], X = X.dot(C[:, :k]), X.dot(X)
    C, z, powers = C[:, : len(_INV_FACTORIALS)] * _INV_FACTORIALS, -cut % math.pi, np.arange(len(_INV_FACTORIALS))

    def past(s: float) -> float:  # the general form of _wedge_phases for one plane, by cmath
        p01, p02, p03, p12, p13, p23 = C.dot((s / h) ** powers).tolist()
        root, u, den = cmath.sqrt(4.0 * p02 * p13 - (p03 + p12) ** 2), p01 + p23, complex(p01 - p23, p12 - p03)
        a, b = (cmath.phase((u - root) / den) / 2.0 + z) % math.pi, (cmath.phase((u + root) / den) / 2.0 + z) % math.pi
        return (min(a, b) if m == 1 else max(a, b)) - z

    try:
        return t0 + _brentq(past, 0.0, h, xtol=_XTOL * min(1.0, t_max))
    except ValueError:  # the ends may disagree with the sweep in the last bits
        return t0 + (0.0 if abs(past(0.0)) <= abs(past(h)) else h)


def wedge_det_sign_changes(A, B, Q, t_max: float) -> tuple[int, float]:
    """(zeros of det N on (0, t_max] with multiplicity, closest approach of the largest
    eigenphase to pi over t > 1) of a 2x2 constant system, Q real or Hermitian, by the
    phase rule on the compound sweep. The name, like that of ``wedge_first_zero``, is
    kept from the det N sign scan that this replaced. Raises ``DomainError`` on
    non-finite input, ``ValueError`` unless B >= 0, and ``UnverifiableError`` as
    ``first_blowup`` does, or where a step overflows."""
    return _wedge_pass(A, B, Q, t_max, first=False)[:2]


def wedge_first_zero(A, B, Q, t_max: float) -> BlowUpTime:
    """First zero of det N on (0, t_max] of a 2x2 constant system, of any multiplicity,
    or the infinite marker: the pass and errors of ``wedge_det_sign_changes``, stopped
    at its first zero, refined to 1e-12 min(1, t_max) on the compound vector, where
    direct (M, N) propagation loses it to the eps |N|^2 floor of hyperbolic growth."""
    return _wedge_pass(A, B, Q, t_max, first=True)[2]
