"""Matrix Jacobi systems and Riccati blow-up analysis.

The linear system is

    d/dt [M; N] = H [M; N],   H = [[-A^T, -Q], [B, A]],   M(0) = I, N(0) = 0,

with constant A, B and symmetric Q, whose quotient V = M N^{-1} solves the
matrix Riccati equation V' + A^T V + V A + Q + V B V = 0 with a +infinity
initial datum. Blow-up of V is a zero of det N, and every comparison
statement in this package reduces to locating or excluding such zeros.
Every system the package builds has constant coefficients (the Hopf system
in the frame rotating with its curvature, see ``fatcomp.hopf``), so [M; N](t)
is the first n columns of exp(tH), by ``_expm`` (products only), at a t or a stack.

One zero rule serves every n and every multiplicity (the Maslov view): det N
vanishes when an eigenphase of the Lagrangian plane [M; N] reaches pi, and
with B >= 0 the first zero is the first time the largest does (Beck & Malham,
"Computing the Maslov index for large systems", Proc. AMS 143, 2015). Both
passes step H, scaled by ``_balanced`` (one fit, or two), in the blocks of one
sweep, ``_sweep``, and read the phases a block at a time with ``_cut`` and
``_turns``: ``first_blowup`` on orthonormal frames, one stacked QR a block, and
``wedge_first_zero`` and ``wedge_det_sign_changes`` (2x2, Q real or Hermitian)
on the Pluecker vector under expm(h H2), its first run read off the powers, H2
the additive compound of H, with its two phases in closed form.
Where H has no imaginary eigenvalue the plane converges to the unstable subspace
L+ (Laub, "A Schur method for solving algebraic Riccati equations", IEEE TAC 24,
1979), and the 2x2 pass stops at the first block end where ``_Tail`` certifies
from H2's eigenbasis, to first order in its rounding, that det N keeps its sign
for the rest of the horizon.
``finite_blowup_constant`` tells whether det N vanishes at all, from the Jordan
structure of H on its imaginary spectrum. Every zero is refined by ``_refine``,
``models._brentq`` to ``_XTOL`` = 1e-12 in t, relative below t_max = 1.
"""

from __future__ import annotations

import cmath
import contextlib
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
    if (Q != Q.T.conj()).any() and np.abs(Q - Q.T.conj()).max() > 1e-10 * max(1.0, np.abs(Q).max()):
        raise ValueError(f"Q is not {'Hermitian' if np.iscomplexobj(Q) else 'symmetric'} to 1e-10")
    return A, B, Q, H


# ----------------------------------------------------------------------
# propagation
# ----------------------------------------------------------------------

#: 1/(4j + i)! up to degree 16: row j weighs X^0..X^3 in the X^(4j) block of _expm.
_TAYLOR = np.array([[1.0 / math.factorial(4 * j + i) * (4 * j + i <= 16) for i in range(4)] for j in range(5)])


def _expm(X: np.ndarray) -> np.ndarray:
    """exp(X) of a small matrix, or of each member of a stack (..., n, n), by products alone: degree-16
    Taylor (Paterson-Stockmeyer) on X / 2^s with ||X / 2^s||_1 <= 1/2, then s squarings; NaN where ||X||
    is not finite. I and X..X^3 fill one buffer, whose product with ``_TAYLOR`` is the Horner coefficients.
    A stack sorts its members by s and squares a shrinking suffix, by ``np.matmul``: a member's bits are
    its 2-D call's, whose ``ndarray.dot`` makes the same BLAS call at 0.4 us (6x6; @ 0.8). scipy's expm
    threads a LAPACK call even at 6x6: 4 ms a call, not 25 us, while the other of 2 vCPUs is busy."""
    if X.ndim > 2:
        shape, X = X.shape, X.reshape(-1, *X.shape[-2:])
        norm = np.abs(X).sum(axis=1).max(axis=1)
        order = np.argsort(s := np.maximum(0, np.frexp(norm)[1] + 1))  # frexp gives a non-finite norm 0
        s, X, dot = s[order], X[order], np.matmul
        X[~np.isfinite(norm[order])], scale = np.nan, np.ldexp(1.0, -s)[:, None, None]  # NaN raises no flag
    else:
        norm = float(np.abs(X).sum(axis=0).max())
        if not math.isfinite(norm):
            return np.full_like(X, np.nan)
        s, dot = max(0, math.frexp(norm)[1] + 1), np.ndarray.dot  # the BLAS call of @, less its set-up
        scale = math.ldexp(1.0, -s)
    n, P = X.shape[-1], np.zeros((4, *X.shape), X.dtype)
    P.reshape(4, -1, n * n)[0, :, :: n + 1], X = 1.0, np.multiply(X, scale, out=P[1])
    dot(dot(X, X, out=P[2]), X, out=P[3])
    B, X2 = _TAYLOR.dot(P.reshape(4, -1)).reshape(5, *X.shape), P[2]
    X4, E = dot(X2, X2), B[4]
    for j in (3, 2, 1, 0):
        E = B[j] + dot(X4, E)
    if X.ndim == 2:
        for _ in range(s):
            E = E.dot(E)
        return E
    for lo in np.searchsorted(s, np.arange(s.max(initial=0)), "right").tolist():
        E[lo:] = dot(E[lo:], E[lo:])
    E[order] = E.copy()
    return E.reshape(shape)


@dataclass
class JacobiSolution:
    """Solution [M; N](t) = exp(tH)[:, :n] of a constant Jacobi system on [0, t_max]; ``V`` takes a 1-D t too."""

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

    def _blocks(self, t) -> tuple[np.ndarray, np.ndarray]:
        Y = _expm(np.multiply.outer(t, self.H))[..., : self.n]
        return Y[..., : self.n, :], Y[..., self.n :, :]

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

    def V(self, t) -> np.ndarray:
        """The Riccati quotient V = M N^{-1}; at a 1-D array of times, by one stacked ``_expm`` and solve."""
        M, N = self._blocks(t)
        return np.linalg.solve(N.swapaxes(-1, -2), M.swapaxes(-1, -2)).swapaxes(-1, -2)


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
#: How far below the fit level of _balanced, in log scale, a diagonal of Q may drag it; the largest log its scaling may reach.
_FAR_BELOW, _LOG_HUGE = math.log(10.0), math.log(np.finfo(float).max) - 1e-9
#: Most steps in a block of ``_sweep`` (twice that where a 2x2 pass only counts), most log growth of a block of a
#: Pluecker vector and of a frame, whose QR needs columns far from parallel, most numbers in a run (4096 vectors).
_WEDGE_BLOCK, _WEDGE_LOG_GROWTH, _FRAME_LOG_GROWTH, _CHUNK = 128, 300.0, 6.0, 6 * 4096


class UnverifiableError(FloatingPointError):
    """A route cannot decide: a pass of over 2^20 steps (a 2x2 pass: 2^20 steps without a certificate), a balancing or step that is not finite, or phases that stay at 0, move back or leave no gap."""


@functools.lru_cache(maxsize=256)
def _fit(pattern: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(fitted entries: all of A, the diagonals of B and Q; design; minus its pseudo-inverse; diagonals of Q; map of a fit (u, mu) to log g = (u, -u)) of ``_balanced`` for one pattern of S != 0."""
    n = math.isqrt(len(pattern)) // 2
    keep = np.frombuffer(pattern, bool).reshape(2 * n, 2 * n) & ~np.kron(np.eye(2, dtype=bool), ~np.eye(n, dtype=bool))
    x = np.hstack((np.vstack((np.eye(n), -np.eye(n))), np.full((2 * n, 1), -0.5)))  # (u, mu) in x_i - mu/2
    r, c = np.nonzero(keep)
    return keep, x[r] + x[c], -np.linalg.pinv(x[r] + x[c]), (r == c) & (r >= n), x * (np.arange(n + 1) < n)


@functools.lru_cache(maxsize=32)
def _check_b(data: bytes, shape: tuple[int, ...], dtype: str) -> None:
    """``ValueError`` unless B, by its bytes, shape and dtype, is symmetric positive semidefinite to 1e-12: once per B that passes."""
    B = np.frombuffer(data, dtype).reshape(shape)
    b = np.linalg.eigvalsh(B.real)
    if np.abs(B - B.T).max() > 1e-12 * b[-1] or b[0] < -1e-12 * b[-1]:
        raise ValueError(f"B must be symmetric positive semidefinite to 1e-12, its eigenvalues span [{b[0]:.3e}, {b[-1]:.3e}]")


def _balanced(H: np.ndarray) -> tuple[np.ndarray, float]:
    """(H_u, rate): H conjugated by the symplectic diag(e^-u, e^u), which keeps every zero of det N, and the top
    eigenvalue of S_u = J^T H_u = [[B_u, A_u], [A_u^T, Q_u]], which bounds the forward speed of the phases when
    B >= 0 (else ``ValueError``; ``_check_b`` runs once per B). u is the least-squares fit of the diagonals of B
    and Q and the nonzero entries of A to one level mu in log scale; small off-diagonals would drive it, and so
    does a diagonal of Q far below mu (1e-45 next to 1): only there a refit without those wins if its rate is lower.
    An S_u or g g^T that would overflow (read in log scale first), or eigenvalues that do not converge, is ``UnverifiableError``."""
    n = len(H) // 2
    _check_b(H[n:, :n].tobytes(), (n, n), H.dtype.str)
    S = np.concatenate((H[n:], -H[:n]))  # S_u = S * outer(g, g), log g = (u, -u)
    A, (keep, design, fit, q, split) = np.abs(S), _fit((S != 0).tobytes())
    log = np.log(A[keep])
    z = fit.dot(log)
    r = log + design.dot(z)  # log size over mu
    below, fits, rate = (r < -_FAR_BELOW) & q, (z,), None
    if below.any():
        refit = keep.copy()
        refit[keep] = ~below
        fits = z, z + _fit(refit.tobytes())[2].dot(r[~below])  # the least change: scale-free
    for z in fits:
        log_g = split.dot(z)
        big = 2.0 * max(log_g.tolist())  # log|S_u| = log|S| + log g_i + log g_j <= big + log max|S|
        if not big + math.log(max(1.0, A.max())) < _LOG_HUGE:
            if not (big < _LOG_HUGE and (np.log(A[A > 0.0]) + (log_g[:, None] + log_g)[A > 0.0]).max() < _LOG_HUGE):
                raise UnverifiableError("the balancing of H is not finite")
        g1 = np.exp(log_g)
        try:
            rate1 = float(np.linalg.eigvalsh(S * (g1[:, None] * g1))[-1])
        except np.linalg.LinAlgError:  # eigenvalues that do not converge
            raise UnverifiableError("the balancing of H is not finite") from None
        if rate is None or rate1 < rate:  # a tie keeps the first fit
            g, rate = g1, rate1
    return H * ((1.0 / g)[:, None] * g), rate


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
    m = np.add.reduce(phi >= cut, 0)  # ndarray.sum, less its wrapper; np.nonzero likewise
    turn = np.add.reduce(phi1 >= cut, 0) - m
    drops = (turn < 0).nonzero()[0]
    back = (turn[: drops[0] + 1 if first and drops.size else None] > 0).nonzero()[0]
    if back.size or (t == 0.0 and min(min(x, math.pi - x) for x in phi1[:, 0].tolist()) <= _XTOL):  # finite phases
        t += h * int(back[0] if back.size else 0)
        raise UnverifiableError(f"an eigenphase stays at 0 or moves back through pi on [{t:.17g}, {t + h:.17g}]")
    return m, turn, drops


def _phases(F: np.ndarray) -> np.ndarray:
    """Eigenphases phi_j in [0, pi), on the first axis, of the planes of the orthonormal frames
    F = [M; N], of shape (..., 2n, n): W = M + iN is unitary, W W^T has the eigenvalues exp(2i phi_j),
    and det N = 0 exactly when a phi_j is 0. F is read as given; ``_sweep`` made it orthonormal."""
    n = F.shape[-1]
    W = F[..., :n, :] + 1j * F[..., n:, :]
    return (np.angle(np.linalg.eigvals(W @ np.swapaxes(W, -1, -2))) / 2.0 % math.pi).T


def _sweep(X: np.ndarray, h: float, steps: int, y: np.ndarray, log_growth: float, block: int):
    """Yield (k0, Y), Y[i] the state y, a Pluecker vector (6,) or a frame (2n, n), after k0 + i
    steps of E = exp(hX), in runs of at most ``_CHUNK`` numbers that share their ends. A block
    is one product of E^1..E^K (by doubling; K <= block, ||E^K||_inf <= exp(log_growth)) with
    its start, and its last state starts the next: a frame's after one stacked QR of the K new
    frames, the one QR a frame of a pass gets; a Pluecker vector's rescaled and moved by a Newton
    step onto the quadric p01 p23 - p02 p13 + p03 p12 = 0 of 2-planes, off which E amplifies
    rounding that the phases misread (2e-9 at (-2.57, 3.22), t = 55). A Pluecker vector starts at
    e0 (``_E0``), and its first run is one block: column 0 of the powers, plus 0.0 for the signed
    zeros of a product with e0, with no product or stack transpose. A frame's first run is a full
    one (a one-block first run made scalar-vs-jacobi 4-8% slower). ``UnverifiableError`` unless E
    is finite. Below n h max|X| = 512 nothing overflows: no errstate."""
    with np.errstate(all="ignore") if h * len(X) * float(np.abs(X).max()) >= 512.0 else contextlib.nullcontext():
        E = _expm(h * X)
        norm = float(np.abs(E).sum(axis=1).max())
    if not norm < math.inf:  # NaN too
        raise UnverifiableError(f"exp(h H) is not finite at h = {h:.3e}")
    K = max(1, min(block, steps, int(log_growth / math.log(max(math.e, norm)))))
    powers = np.empty((K, *E.shape), E.dtype)
    powers[0], k = E, 1
    while k < K:  # by doubling: E^(k+1..2k) = E^(1..k) E^k
        np.matmul(powers[: min(k, K - k)], powers[k - 1], out=powers[k : 2 * k])
        k *= 2
    stacked, per, k0 = powers.reshape(K * len(E), len(E)), max(1, _CHUNK // (K * y.size)), 0
    while k0 < steps:
        n_blocks = min(per if k0 or y.ndim == 2 else 1, -(-(steps - k0) // K))
        Y = np.empty((n_blocks * K + 1, *y.shape), E.dtype)
        Y[0] = y
        for b in range(n_blocks):
            if y.ndim == 2:
                Y[b * K + 1 : b * K + K + 1] = np.linalg.qr(np.matmul(stacked, y).reshape(K, *y.shape))[0]
                y = Y[b * K + K]
                continue
            if k0:
                np.matmul(y, stacked, out=Y[b * K + 1 : b * K + K + 1].reshape(-1))
            else:  # the first run
                np.add(powers[:, :, 0], 0.0, out=Y[1:])
            v = Y[b * K + K].tolist()
            top = max(map(abs, v))
            p01, p02, p03, p12, p13, p23 = v = [x / top for x in v]
            c = (p01 * p23 - p02 * p13 + p03 * p12) / sum([x * x.conjugate() for x in v]).real
            Y[b * K + K] = y = np.array([x - c * q.conjugate() for x, q in zip(v, (p23, -p13, p12, p03, -p02, p01))])
        yield k0, Y[: steps - k0 + 1]
        if not k0 and y.ndim == 1:  # w @ stacked^T runs at half the cost of stacked @ w on the (6K, 6) stack
            stacked = stacked.T.copy()
        k0 += n_blocks * K


def _refine(past, h: float, t_max: float) -> float:
    """Offset into a step of h of the zero of ``past``, the m-th phase past the cut less pi, by ``_brentq`` to
    1e-12 min(1, t_max); where both ends read on one side of the cut, as a zero on a step's end can, the nearer."""
    try:
        return _brentq(past, 0.0, h, xtol=_XTOL * min(1.0, t_max))
    except ValueError:
        return 0.0 if abs(past(0.0)) <= abs(past(h)) else h


def first_blowup(sol: JacobiSolution) -> BlowUpTime:
    """First zero of det N on (0, t_max], or the infinite marker: the first time the largest
    eigenphase of [M; N] reaches pi, on the orthonormal frames of ``_sweep``, read a block at a
    time. From the first step whose phases leave no gap wider than 2 h rate the pass goes on at
    h/2 from that step's frame as read (n phases leave a gap of pi/n, so this ends). ``_refine``
    reads the pass's phases at the step's ends, and inside it a QR of exp(s H_u) on its frame.
    ``ValueError`` unless B >= 0; ``UnverifiableError`` if a phase stays at 0 after the first step
    (det N vanishes to working precision) or moves back through pi, if the phases leave no gap,
    if H_u or a step is not finite, or beyond 2^20 steps."""
    Hc, rate = _balanced(sol.H)
    n, steps = sol.n, _step_count(sol.t_max, rate)
    u, h, Y = 0, sol.t_max / steps, np.eye(2 * n, n)  # u: steps of h taken
    while True:
        for k0, F in _sweep(Hc, h, steps - u, Y, _FRAME_LOG_GROWTH, _WEDGE_BLOCK):
            phi, t = _phases(F), (u + k0) * h
            cut, gap = _cut(phi[:, :-1])
            j = int(np.append(gap > 2.0 * h * rate, False).argmin())  # the first step without a gap, or len(gap)
            if j < len(gap) and 2.0 * h * rate < math.pi / n:  # n phases always leave a gap of pi/n
                raise UnverifiableError(f"the eigenphases at t = {(u + k0 + j) * h:.17g} leave no gap wider than {2.0 * h * rate:.3e}")
            m, _, drops = _turns(phi[:, :j], phi[:, 1 : j + 1], cut[:j], t, h, first=True)
            if drops.size:
                i = int(drops[0])
                z, m, Y, phi = -cut[i] % math.pi, int(m[i]), F[i], phi[:, i : i + 2]  # z: pi seen from the cut
                past = lambda s: np.sort(((phi[:, 0] if s == 0.0 else phi[:, 1] if s == h else _phases(np.linalg.qr(_expm(s * Hc) @ Y)[0])) + z) % math.pi)[m - 1] - z
                return BlowUpTime.finite((u + k0 + i) * h + _refine(past, h, sol.t_max))
            if j < len(gap):  # on at h/2 from the frame of step j
                u, h, steps, Y = 2 * (u + k0 + j), 0.5 * h, 2 * steps, F[j]
                break
        else:
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

#: 1/j! of a degree-30 Taylor polynomial, and its powers j, as floats: float ** float needs no cast.
_INV_FACTORIALS, _POWERS = 1.0 / np.cumprod(np.r_[1.0, 1.0:31.0]), np.arange(31.0)
#: Pluecker coordinates (0,1), (0,2), (0,3), (1,2), (1,3), (2,3) of 2-planes, rows (m0, m1, n0, n1).
_PAIR_I, _PAIR_J = np.triu_indices(4, 1)


def _additive_compound(H: np.ndarray) -> np.ndarray:
    """The 6x6 H2 with expm(t H2) the second compound of expm(t H), for H of shape (..., 4, 4)."""
    i, j, k, l = _PAIR_I[:, None], _PAIR_J[:, None], _PAIR_I, _PAIR_J
    d = np.eye(4)
    return H[..., i, k] * d[j, l] - H[..., i, l] * d[j, k] + d[i, k] * H[..., j, l] - d[i, l] * H[..., j, k]


_COMPOUND = _additive_compound(np.eye(16).reshape(16, 4, 4)).reshape(16, 36).T  # H -> H2 as one product
_E0, _PM = tuple(np.frombuffer(np.eye(1, 6, dtype=t).tobytes(), t) for t in (float, complex)), np.array([[-1.0], [1.0]])  # e0 (N = 0), read-only; -+


def _wedge_phases(W: np.ndarray) -> np.ndarray:
    """Eigenphases in [0, pi), on the first axis, of the planes with Pluecker vectors W (6, ...):
    those of (M + iN)(M - iN)^-1 are ((p01 + p23) -+ sqrt(4 p02 p13 - (p03 + p12)^2)) / ((p01 - p23)
    - i (p03 - p12)), halved; for a real Q, p13 = -p02: theta -+ delta, -+ by ``_PM`` to the bit."""
    p01, p02, p03, p12, p13, p23 = W
    if W.dtype.kind != "c":
        theta = np.arctan2(p03 - p12, p01 - p23)
        args = theta + _PM * np.arctan2(np.sqrt((p03 + p12) ** 2 + 4.0 * p02 * p02), p01 + p23)
    else:
        z = (p01 + p23 + _PM * np.sqrt(4.0 * p02 * p13 - (p03 + p12) ** 2)) / ((p01 - p23) - 1j * (p03 - p12))
        args = np.arctan2(z.imag, z.real)  # np.angle, less its wrapper
    args *= 0.5  # in (-pi, pi]: a branch is cheaper than np.remainder
    args += np.where(args < 0.0, math.pi, 0.0)
    return (args - np.where(args >= math.pi, math.pi, 0.0)).reshape(2, *W.shape[1:])


#: Rounding of the certificate of ``_Tail`` per unit of cond_1(V), and the most it may lower a closest approach.
_CERT_EPS, _NEAR_SLACK = 16.0 * np.finfo(float).eps, 2.0**-40


@dataclass
class _Tail:
    """The certificate that det N keeps its sign from a block end of a 2x2 pass to the horizon,
    to first order in the rounding of H2's eigenbasis.

    Where H2 = V diag(lam) V^-1 has a simple eigenvalue lam+ of strictly largest real part, its
    eigenvector v+ is the Pluecker vector of the unstable subspace L+, and a state w = V r flows
    to w(s) = r+ e^(lam+ s) (v+ + sum_i (r_i / r+) e^((lam_i - lam+) s) v_i), i != +, whose
    off-v+ terms never grow. So p23 = det N cannot vanish on s >= 0 where
    sum_i |r_i / r+| |v_i,23| + rho < |v+_23|. rho = eps cond_1(V) (16 + ||H2||_1 / gap) covers
    the rounding of r and, to first order, the error of the computed v+, which grows as the gap
    between Re lam+ and the next real part shrinks. The unit vectors v_i keep w(s) within
    eps_w = sum_i |r_i / r+| + rho of v+ in direction, which moves an eigenphase by at most
    sqrt(2) eps_w (1 + O(eps_w)), so by margin = 2 eps_w: the tail's closest approach to pi is at
    least pi - max phase(v+) - margin, a bound the pass takes only where margin < 2^-40 and v+'s
    phases are farther than margin from 0 and pi. What eig solves exactly is H2 plus a rounding
    term; the tests compare the zeros and closest approach of stopped passes with those of the
    full pass on seeded sets."""

    H2: np.ndarray

    @functools.cached_property
    def basis(self):
        """(index of lam+, V^-1, |V[5]|, rho, v+'s phases in order), or None where H2 has no eigenvalue
        of strictly largest real part by more than 16 eps cond_1(V) ||H2||_1, the rounding of the eigenvalues."""
        try:
            lam, V = np.linalg.eig(self.H2)
            Vi = np.linalg.inv(V)
        except np.linalg.LinAlgError:  # a basis that is not finite, or not one
            return None
        p, re = int(lam.real.argmax()), lam.real.tolist()
        gap, norm = re[p] - max(re[:p] + re[p + 1 :]), float(np.abs(self.H2).sum(axis=0).max())
        cond = float(np.abs(V).sum(axis=0).max() * np.abs(Vi).sum(axis=0).max())
        if not gap > _CERT_EPS * cond * norm:
            return None
        rho = cond * (_CERT_EPS + _CERT_EPS / 16.0 * norm / gap)  # eps norm / gap
        v = V[:, p] if np.iscomplexobj(self.H2) else V[:, p].real  # lam+ of a real H2 is real
        return p, Vi, np.abs(V[5]), rho, np.sort(_wedge_phases(v[:, None])[:, 0])

    def stop(self, W: np.ndarray, K: int, last: int):
        """The tail's closest approach from the first certified block end of the run W, at the
        indices K, 2K, ... below ``last``, or None; H2's basis is built at the first end read."""
        ends = np.arange(K, min(len(W), last), K)
        if not ends.size or self.basis is None:
            return None
        p, Vi, v5, rho, (lo, hi) = self.basis
        r = (W[ends, None, :] * Vi).sum(axis=2)  # row by row: the bits of an end do not depend on the run
        with np.errstate(divide="ignore", invalid="ignore"):
            off = np.abs(r) / np.abs(r[:, p : p + 1])
        off[:, p] = 0.0
        margin = 2.0 * (off.sum(axis=1) + rho)
        ok = np.nonzero((off.dot(v5) + rho < v5[p]) & (margin < min(_NEAR_SLACK, lo, math.pi - hi)))[0]
        return math.pi - hi - float(margin[ok[0]]) if ok.size else None


def _wedge_pass(A, B, Q, t_max: float, first: bool):
    """(zeros, closest approach, first zero) of det N for the two wedge functions. Once a run's zeros
    are read, the pass stops if ``_Tail`` certifies one of its block ends k K, the closest approach
    joined with the tail's bound; a pass over the step cap begins only where its step count is finite
    and H2's basis is one for the certificate, and raises the cap's ``UnverifiableError`` once it has
    taken 2^20 steps without a certificate."""
    Hc, rate = _balanced(_jacobi_system(A, B, Q, t_max, n=2, hermitian=True)[3])
    tail, over = _Tail(_COMPOUND.dot(Hc.reshape(16)).reshape(6, 6)), None
    try:
        steps = _step_count(t_max, rate)
    except UnverifiableError as exc:
        n = t_max * rate / _TURN
        if not (n < math.inf and tail.basis is not None):
            raise
        steps, over = math.ceil(n), exc
    h, zeros, near, K, swept = t_max / steps, 0, math.inf, 0, min(steps, _MAX_STEPS)
    for k0, W in _sweep(tail.H2, h, swept, _E0[tail.H2.dtype.kind == "c"], _WEDGE_LOG_GROWTH, _WEDGE_BLOCK * (1 if first else 2)):
        K = K or len(W) - 1  # the first run is one block
        phi = _wedge_phases(W.T)
        cut = _cut(phi[:, :-1])[0]
        m, turn, drops = _turns(phi[:, :-1], phi[:, 1:], cut, k0 * h, h, first)
        if not first:  # a first-zero pass reads neither the count nor the closest approach
            zeros -= int(turn.sum())
            near = min(near, math.pi - float(phi[:, max(0, int(1.0 / h) + 1 - k0) :].max(initial=-math.inf)))  # t > 1
        elif drops.size:
            j = int(drops[0])
            return 0, near, BlowUpTime.finite((k0 + j) * h + _wedge_refine(tail.H2, W[j], float(cut[j]), int(m[j]), h, t_max))
        bound = tail.stop(W, K, swept - k0)  # once the run's zeros are read
        if bound is not None:
            return zeros, min(near, bound) if steps > int(1.0 / h) else near, BlowUpTime.infinite()
    if over:
        raise over
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
    for k in (1, 2, 4, 8, 16):  # columns X^k..X^(2k-1) w from X^0..X^(k-1) w, X = (h H2)^k; X^32 is not needed
        C[:, k : 2 * k], X = X.dot(C[:, :k]), X.dot(X) if k < 16 else X
    C, z = C[:, : len(_INV_FACTORIALS)] * _INV_FACTORIALS, -cut % math.pi

    def past(s: float, sqrt=cmath.sqrt, phase=cmath.phase, pi=math.pi) -> float:  # _wedge_phases for one plane, by cmath
        p01, p02, p03, p12, p13, p23 = C.dot((s / h) ** _POWERS).tolist()
        root, u, den = sqrt(4.0 * p02 * p13 - (p03 + p12) ** 2), p01 + p23, complex(p01 - p23, p12 - p03)
        a, b = (phase((u - root) / den) / 2.0 + z) % pi, (phase((u + root) / den) / 2.0 + z) % pi
        return (min(a, b) if m == 1 else max(a, b)) - z

    return t0 + _refine(past, h, t_max)


def wedge_det_sign_changes(A, B, Q, t_max: float) -> tuple[int, float]:
    """(zeros of det N on (0, t_max] with multiplicity, closest approach of the largest
    eigenphase to pi over t > 1) of a 2x2 constant system, Q real or Hermitian, by the
    phase rule on the compound sweep. A pass that ``_Tail`` stops on L+ counts the
    zeros of the full pass; its closest approach joins the steps it took with a bound
    for the rest, pi less v+'s largest phase less the certificate's margin (below
    2^-40), and so lies at most about 1e-12 below that of the full pass. The name, like that of
    ``wedge_first_zero``, is kept from the det N sign scan that this replaced. Raises
    ``DomainError`` on non-finite input, ``ValueError`` unless B >= 0, and
    ``UnverifiableError`` as ``first_blowup`` does (but that a pass of over 2^20 steps
    may begin where the certificate can hold, and raises after 2^20 steps without
    it), or where a step overflows."""
    return _wedge_pass(A, B, Q, t_max, first=False)[:2]


def wedge_first_zero(A, B, Q, t_max: float) -> BlowUpTime:
    """First zero of det N on (0, t_max] of a 2x2 constant system, of any multiplicity,
    or the infinite marker: the pass and errors of ``wedge_det_sign_changes``, stopped
    at its first zero, refined to 1e-12 min(1, t_max) on the compound vector, where
    direct (M, N) propagation loses it to the eps |N|^2 floor of hyperbolic growth."""
    return _wedge_pass(A, B, Q, t_max, first=True)[2]
