"""Matrix Jacobi systems and Riccati blow-up analysis.

The linear system is

    d/dt [M; N] = H [M; N],   H = [[-A^T, -Q], [B, A]],   M(0) = I, N(0) = 0,

with constant A, B and symmetric Q, whose quotient V = M N^{-1} solves the
matrix Riccati equation V' + A^T V + V A + Q + V B V = 0 with a +infinity
initial datum. Blow-up of V backwards in regularity is a zero of det N,
and every comparison statement in this package reduces to locating or
excluding such zeros. Every system the package builds has constant
coefficients (the Hopf system in the frame rotating with its curvature,
see ``fatcomp.hopf``), so [M; N](t) is the first n columns of exp(tH),
computed by one products-only exponential, ``_expm``, and no ODE is solved.

Provided here:

* ``integrate_jacobi`` and ``JacobiSolution``: exp(tH) at any t, the
  Riccati quotient V and the symplectic residual;
* ``first_blowup``, with one zero rule for every multiplicity: det N
  vanishes when an eigenphase of the Lagrangian plane [M; N] reaches pi
  (the Maslov view), and the phases are stepped by exp(h H) and never decrease;
* ``finite_blowup_constant``, the exact finiteness classification for
  constant coefficients via the Jordan structure of the Hamiltonian on
  its imaginary spectrum;
* ``wedge_det_sign_changes`` and ``wedge_first_zero``, a long-horizon
  det N sign tracker for 2x2 systems, Q real or Hermitian: blocked powers
  of expm(h H2), H2 the additive compound of H, with a step short enough
  for its oscillation and guarded against growth; ``UnverifiableError``.

Every det N zero is refined by ``models._brentq``: in ``first_blowup`` to
``_XTOL`` = 1e-12 in t, relative below t_max = 1; on the wedge route to
1e-12 in the offset into a step, as the root of a Taylor polynomial taken
from the rescaled vector of the step before, which carries the rounding of
every step up to it. That zero is as accurate as that vector (7.9e-10 at
(kappa_a, kappa_b) = (-2.28, 3.07), tbar = 26.8).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .models import BlowUpTime, DomainError, _brentq

__all__ = [
    "JacobiSolution",
    "integrate_jacobi",
    "first_blowup",
    "finite_blowup_constant",
    "wedge_det_sign_changes",
    "wedge_first_zero",
    "UnverifiableError",
]


def _jacobi_system(A, B, Q, t_max: float | None = None, n: int | None = None, hermitian: bool = False):
    """Validated (A, B, Q, H) of a Jacobi system, H = [[-A^T, -Q], [B, A]].

    A, B and Q are square of one size (n where given, else that of A); A
    and B are real, Q real symmetric, or Hermitian where ``hermitian``
    allows a complex Q, to 1e-10 of max(1, max|Q|). Raises ``DomainError``
    on a non-finite entry or a t_max that is not finite positive, and
    ``ValueError`` on any other breach.
    """
    mats = []
    for name, X in (("A", A), ("B", B), ("Q", Q)):
        X = np.asarray(X)
        if np.iscomplexobj(X) and not (hermitian and name == "Q"):
            raise ValueError(f"{name} must be real")
        X = X.astype(complex if np.iscomplexobj(X) else float, copy=False)
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


def _svd_rank(X: np.ndarray, scale: float) -> int:
    """Number of singular values of X above 1e-8 scale."""
    return int(np.sum(np.linalg.svd(X, compute_uv=False) > 1e-8 * scale))


# ----------------------------------------------------------------------
# propagation
# ----------------------------------------------------------------------

#: 1/(4j + i)! up to degree 16: row j weighs X^0..X^3 in the X^(4j) block of _expm.
_TAYLOR = np.array([[1.0 / math.factorial(4 * j + i) * (4 * j + i <= 16) for i in range(4)] for j in range(5)])


def _expm(X: np.ndarray) -> np.ndarray:
    """exp(X) of a small matrix by products alone: degree-16 Taylor (Paterson-
    Stockmeyer) on X / 2^s with ||X / 2^s||_1 <= 1/2, then s squarings; NaN if
    ||X|| is not finite. scipy.linalg.expm solves through a LAPACK call that
    OpenBLAS threads even at 6x6: its helper thread spins after each call, and
    while the other core is busy each call waits a scheduler tick for it
    (4 ms instead of 25 us on a 2-vCPU VM).
    """
    norm = float(np.abs(X).sum(axis=0).max())
    if not math.isfinite(norm):
        return np.full_like(X, np.nan)
    s = max(0, math.frexp(norm)[1] + 1)
    X = X * math.ldexp(1.0, -s)
    X2 = X @ X
    B = (_TAYLOR @ np.stack((np.eye(len(X)), X, X2, X2 @ X)).reshape(4, -1)).reshape(5, *X.shape)
    X4, E = X2 @ X2, B[4]
    for j in (3, 2, 1, 0):
        E = B[j] + X4 @ E
    for _ in range(s):
        E = E @ E
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
    """The Jacobi system with constant symmetric Q on [0, t_max].

    No ODE is solved: H = [[-A^T, -Q], [B, A]] is built once, and the
    returned object evaluates M, N anywhere in [0, t_max] as blocks of
    exp(tH) by ``_expm``. Raises ``DomainError`` on non-finite A, B or Q.
    """
    A, B, Q, H = _jacobi_system(A, B, Q, t_max)
    return JacobiSolution(A=A, B=B, Q=Q, t_max=float(t_max), H=H)


# ----------------------------------------------------------------------
# blow-up detection
# ----------------------------------------------------------------------

#: Most an eigenphase of the plane may turn in one step of first_blowup.
_TURN = 0.25 * math.pi
#: Time tolerance of a refinement of a det N zero, scaled by min(1, t_max) in first_blowup.
_XTOL = 1e-12
#: Most steps a pass of first_blowup or of the wedge route may take (the
#: wedge keeps 8 MB of det N coordinates there).
_MAX_STEPS = 2**20


def _phases(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(orthonormal frame [M; N], eigenphases phi_j in [0, pi)) of the plane of Y: W = M + iN is
    unitary, W W^T has the eigenvalues exp(2i phi_j), and det N = 0 exactly when a phi_j is 0."""
    Y = np.linalg.qr(Y)[0]
    W = Y[: len(Y) // 2] + 1j * Y[len(Y) // 2 :]
    return Y, np.angle(np.linalg.eigvals(W @ W.T)) / 2.0 % math.pi


def _scaled(sol: JacobiSolution) -> tuple[np.ndarray, float]:
    """(H_c, rate): H conjugated by the symplectic diag(I / c, c I), c^4 = ||Q|| / ||B||,
    which keeps every zero of det N, and the top eigenvalue of S_c = J^T H_c. In an
    orthonormal frame Y the phases move at the eigenvalues of Y^T S_c Y, congruent
    to B: forward, no faster than rate. ``ValueError`` unless B is symmetric >= 0."""
    b = np.linalg.eigvalsh(sol.B)
    if np.abs(sol.B - sol.B.T).max() > 1e-12 * b[-1] or b[0] < -1e-12 * b[-1]:
        raise ValueError(f"B must be symmetric positive semidefinite to 1e-12, its eigenvalues span [{b[0]:.3e}, {b[-1]:.3e}]")
    q = np.abs(np.linalg.eigvalsh(sol.Q)).max()
    c4 = q / b[-1] if q > 0.0 and b[-1] > 0.0 else 1.0
    d = np.repeat([c4**-0.25, c4**0.25], sol.n)
    Hc = sol.H * np.outer(d, 1.0 / d)
    return Hc, float(np.linalg.eigvalsh(np.concatenate((Hc[sol.n :], -Hc[: sol.n])))[-1])


def _steps(Hc: np.ndarray, rate: float, t_max: float):
    """Steps of the phase pass: yields (t, h, z, Y, phi, phi1), Y the orthonormal frame
    at t, phi and phi1 the phases at t and t + h. A step is t_max / ceil(t_max rate /
    (pi/4)), halved until the widest cyclic gap of phi is wider than 2 h rate, so no
    phase passes its midpoint, the cut; z is pi seen from the cut. n phases leave a
    gap of pi/n, so a step that needs more halvings is ``UnverifiableError``, and so
    is a pass of more than ``_MAX_STEPS`` steps, before the first."""
    n = len(Hc) // 2
    steps = max(1, math.ceil(t_max * rate / _TURN))
    if steps > _MAX_STEPS:
        raise UnverifiableError(f"t_max = {t_max:.3e} needs {steps:.3e} steps, above {_MAX_STEPS}")
    h0 = t_max / steps
    expm = functools.cache(lambda du: _expm(du * h0 * Hc))
    u, Y, phi = 0.0, np.eye(2 * n, n), np.zeros(n)  # u: steps of h0 taken, exact in binary
    while u < steps:
        p = np.sort(phi)
        gaps = np.diff(p, append=p[0] + math.pi)
        j, du = int(gaps.argmax()), 1.0
        while not gaps[j] > 2.0 * du * h0 * rate:
            if 2.0 * du * h0 * rate < math.pi / n:
                raise UnverifiableError(f"the eigenphases at t = {u * h0:.17g} leave no gap wider than {2.0 * du * h0 * rate:.3e}")
            du *= 0.5
        du = min(du, steps - u)
        Y1, phi1 = _phases(expm(du) @ Y)
        yield u * h0, du * h0, -(p[j] + 0.5 * gaps[j]) % math.pi, Y, phi, phi1
        u, Y, phi = u + du, Y1, phi1


def first_blowup(sol: JacobiSolution) -> BlowUpTime:
    """First zero of det N on (0, t_max], or the infinite marker.

    One rule finds every zero, whatever its multiplicity: the eigenphases of the
    plane [M; N] start at 0 and never decrease, and the first zero is the first
    time the largest reaches pi; until then a phase mod pi is its lift. A step
    of ``_steps`` holds a zero when fewer phases lie between its cut and pi at
    its end than at its start, m. ``_brentq`` refines the zero to 1e-12
    min(1, t_max) on the m-th phase past the cut, less pi, as a function of
    the offset in the step, with the pass's own values at both ends.
    ``ValueError`` unless B is positive semidefinite; ``UnverifiableError``
    if a phase stays at 0 after the first step (det N vanishes to working
    precision) or moves back through pi, if the phases leave no gap for a
    cut, or if the pass needs more than 2^20 steps.
    """
    Hc, rate = _scaled(sol)
    for t, h, z, Y, phi, phi1 in _steps(Hc, rate, sol.t_max):
        psi0, psi1 = (phi + z) % math.pi, (phi1 + z) % math.pi  # from the cut
        m, m1 = int((psi0 < z).sum()), int((psi1 < z).sum())
        if m1 > m or (t == 0.0 and np.minimum(phi1, math.pi - phi1).min() <= _XTOL):
            raise UnverifiableError(f"an eigenphase stays at 0 or moves back through pi on [{t:.17g}, {t + h:.17g}]")
        if m1 < m:
            past = lambda s: np.sort(psi0 if s == 0.0 else psi1 if s == h else (_phases(_expm(s * Hc) @ Y)[1] + z) % math.pi)[m - 1] - z
            return BlowUpTime.finite(t + _brentq(past, 0.0, h, xtol=_XTOL * min(1.0, sol.t_max)))
    return BlowUpTime.infinite()


# ----------------------------------------------------------------------
# constant-coefficient finiteness classification
# ----------------------------------------------------------------------

def finite_blowup_constant(A, B, Q) -> bool:
    """Whether det N has a positive zero for constant (A, B, Q).

    For constant coefficients N(t) is an entire matrix function of the
    Hamiltonian H = [[-A^T, -Q], [B, A]], and det N vanishes at some
    t > 0 exactly when H has a purely imaginary eigenvalue carrying a
    Jordan block of odd size. Eigenvalues are clustered at relative
    tolerance 1e-6; a cluster counts as imaginary when the mean real
    part sits inside a 1e-9 band (relative to the spectral scale). Block
    sizes come from the rank sequence r_j of (H - mu I)^j: the number of
    blocks of size j is r_{j-1} - 2 r_j + r_{j+1}; a singular value of
    (H - mu I)^j counts when it is above 1e-8 ||H - mu I||_2^j, not 1e-8
    of the power's own largest one, which rounding makes meaningless once
    the power is nearly nilpotent. Raises ``DomainError`` on non-finite A,
    B or Q.
    """
    A, B, Q, H = _jacobi_system(A, B, Q)
    eigs = np.linalg.eigvals(H)
    scale = max(1.0, float(np.abs(eigs).max()))
    band = max(1e-9, 1e-9 * scale)

    remaining = list(eigs)
    clusters: list[list[complex]] = []
    while remaining:
        seed = remaining.pop()
        cluster = [seed]
        changed = True
        while changed:
            changed = False
            for lam in list(remaining):
                if any(abs(lam - mu) < 1e-6 * scale for mu in cluster):
                    cluster.append(lam)
                    remaining.remove(lam)
                    changed = True
        clusters.append(cluster)

    dim = len(H)
    ident = np.eye(dim)
    for cluster in clusters:
        mu = complex(np.mean(cluster))
        if abs(mu.real) > band:
            continue
        mu = 1j * mu.imag
        mult = len(cluster)
        P = H - mu * ident
        norm = float(np.linalg.norm(P, 2))
        ranks = [dim]
        power = ident.astype(complex)
        for j in range(1, mult + 2):
            power = power @ P
            ranks.append(_svd_rank(power, norm**j))
            if ranks[-1] == ranks[-2]:
                break
        while len(ranks) < mult + 2:
            ranks.append(ranks[-1])
        for j in range(1, mult + 1):
            b_j = ranks[j - 1] - 2 * ranks[j] + ranks[j + 1]
            if j % 2 == 1 and b_j > 0:
                return True
    return False


# ----------------------------------------------------------------------
# long-horizon sign tracking
# ----------------------------------------------------------------------

#: Steps per block: the powers E2^1..E2^K are built once per call.
_WEDGE_BLOCK = 64
#: Steps per product of the sweep, which bounds its temporaries (about 0.5 MB
#: for a real Q) whatever the length of the pass.
_WEDGE_CHUNK = 4096
#: Bound on log ||E2^K||_inf, far below the overflow at exp(709).
_WEDGE_LOG_GROWTH = 300.0
#: Pluecker coordinates (0,1), (0,2), (0,3), (1,2), (1,3), (2,3) of 2-planes
#: in R^4: M(0) = I spans (0, 1), and det N is (2, 3).
_PAIR_I, _PAIR_J = np.triu_indices(4, 1)
_DET_N = 5
class UnverifiableError(FloatingPointError):
    """A route cannot decide: a pass needs more than ``_MAX_STEPS`` steps, a wedge step
    overflows, or the eigenphases of ``first_blowup`` stay at 0, move back or leave no gap."""


def _additive_compound(H: np.ndarray) -> np.ndarray:
    """The 6x6 H2 with expm(t H2) the second compound of expm(t H)."""
    i, j, k, l = _PAIR_I[:, None], _PAIR_J[:, None], _PAIR_I, _PAIR_J
    d = np.eye(4)
    return H[i, k] * d[j, l] - H[i, l] * d[j, k] + d[i, k] * H[j, l] - d[i, l] * H[j, k]


def _wedge_sweep(E2: np.ndarray, K: int, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E2^1..E2^K as a (K, 6, 6) array, block starts, rel) of ``steps`` steps of E2.

    Block b starts from E2^(bK) applied to the Pluecker vector of M(0) = I,
    carried forward block by block with a max-norm rescale; rel[k] is the det
    N coordinate over the largest coordinate after step k + 1, from one
    product of the powers with the starts per ``_WEDGE_CHUNK`` steps.
    """
    # ndarray.dot with out makes the BLAS call of np.matmul at a third of its
    # dispatch cost, which dominates at 6x6
    powers = np.empty((K, 6, 6), E2.dtype)
    powers[0] = E2
    for m in range(1, K):
        E2.dot(powers[m - 1], powers[m])
    n_blocks = -(-steps // K)
    starts = np.zeros((n_blocks, 6), E2.dtype)
    w, EK, real = starts[0], powers[-1], E2.dtype == float
    w[0] = 1.0
    for b in range(1, n_blocks):
        w = EK.dot(w, starts[b])
        # Python's abs of a complex can differ from np.abs in the last bit
        np.divide(w, max(map(abs, w.tolist())) if real else np.abs(w).max(), out=w)
    rel = np.empty(n_blocks * K, E2.dtype)
    per = max(1, _WEDGE_CHUNK // K)  # blocks per product
    stacked = powers.reshape(6 * K, 6)
    for b in range(0, n_blocks, per):
        W = (stacked @ starts[b : b + per].T).reshape(K, 6, -1)  # (step, coordinate, block)
        rel[b * K : (b + W.shape[2]) * K] = (W[:, _DET_N] / np.abs(W).max(axis=1)).T.ravel()
    return powers, starts, rel[:steps]


def _wedge_pass(A, B, Q, t_max: float, steps: int):
    """(sign changes, min_rel, first zero) of det N for the wedge functions."""
    H2 = _additive_compound(_jacobi_system(A, B, Q, t_max, n=2, hermitian=True)[3])
    # each oscillating mode turns by h max|Im spec(H2)| in a step; at pi/2
    # two sign changes of det N cannot hide in one step (a bound of pi let
    # 38 of 300 random finite cases report a later zero, pi/2 none)
    need = t_max * float(np.abs(np.linalg.eigvals(H2).imag).max()) / (0.5 * math.pi)
    if need > _MAX_STEPS:
        raise UnverifiableError(f"t_max = {t_max:.3e} needs {need:.3e} steps, above {_MAX_STEPS}")
    steps = max(steps, math.ceil(need))
    h = t_max / steps
    with np.errstate(all="ignore"):
        E2 = _expm(h * H2)
    if not np.isfinite(E2).all():
        raise UnverifiableError(f"expm(h H2) overflows at h = {h:.3e}, t_max = {t_max:.3e}")
    # ||E2^m||_inf <= ||E2||_inf^m <= exp(_WEDGE_LOG_GROWTH) for every m <= K
    growth = math.log(max(math.e, float(np.abs(E2).sum(axis=1).max())))
    K = max(1, min(_WEDGE_BLOCK, int(_WEDGE_LOG_GROWTH / growth)))
    powers, starts, rel = _wedge_sweep(E2, K, steps)
    if np.iscomplexobj(rel) and np.abs(rel.imag).max() > 1e-10:  # Hermitian Q: det N is real
        raise UnverifiableError(f"det N is not real: imaginary part {np.abs(rel.imag).max():.3e} of the largest coordinate")
    rel = rel.real
    # min_rel first: its temporaries are freed before those of the sign scan
    min_rel = float(np.abs(rel[np.arange(1, steps + 1) * h > 1.0]).min(initial=math.inf))
    nonzero = np.flatnonzero(rel)  # a zero coordinate keeps the previous sign
    signs = rel[nonzero] > 0.0
    flips = nonzero[1:][signs[1:] != signs[:-1]]
    if not flips.size:
        return 0, min_rel, BlowUpTime.infinite()
    k = int(flips[0])  # the step before the first change
    b, m = divmod(k, K)
    w = starts[b] if m == 0 else powers[m - 1] @ starts[b]
    # halve the step, keeping the half with the change, until ||span H2||_inf
    # <= 1/2; there det N is its degree-16 Taylor polynomial in dt to 1e-19
    t0, span, norm = 0.0, h, float(np.abs(H2).sum(axis=1).max())
    while span * norm > 0.5:
        span *= 0.5
        mid = _expm(span * H2) @ w
        if (mid[_DET_N].real > 0.0) == (w[_DET_N].real > 0.0):
            t0, w = t0 + span, mid
    coef, w = [], w / np.abs(w).max()
    for j in range(1, 18):
        coef.insert(0, float(w[_DET_N].real))
        w = (H2 @ w) / j
    g = lambda dt: functools.reduce(lambda acc, c: acc * dt + c, coef, 0.0)
    g0, g1 = g(0.0), g(span)  # they may disagree with the scan in the last bits
    dt = _brentq(g, 0.0, span, xtol=_XTOL) if g0 * g1 < 0.0 else (0.0 if abs(g0) <= abs(g1) else span)
    return int(flips.size), min_rel, BlowUpTime.finite(k * h + (t0 + dt))


def wedge_det_sign_changes(A, B, Q, t_max: float, steps: int = 4000) -> tuple[int, float]:
    """Count sign changes of det N up to t_max for a 2x2 constant system.

    The Pluecker vector of the column span of [M; N] is stepped by E2 =
    expm(h H2), H2 the 6x6 additive compound of H (the 2x2 minors of expm(h H)
    cancel at large |Q|), in blocks of K = 64 steps (fewer when ||E2||^64
    would pass exp(300)): block starts by E2^K with a
    max-norm rescale, the steps inside from E2^1..E2^K, each read against its
    own largest coordinate. det N, one coordinate, escapes the cancellation
    of direct propagation; with a Hermitian Q it is real (an imaginary part
    above 1e-10 of the largest coordinate is unverifiable). ``steps`` is
    raised so that h max|Im spec(H2)| <= pi/2. Returns (sign
    changes, min over t > 1 of |det N| over the largest coordinate). Raises
    ``DomainError`` on non-finite input, ``UnverifiableError`` when E2
    overflows or more than 2^20 steps are needed.
    """
    return _wedge_pass(A, B, Q, t_max, steps)[:2]


def wedge_first_zero(A, B, Q, t_max: float, steps: int = 4000) -> BlowUpTime:
    """First sign change of det N for a 2x2 constant system, refined.

    Same pass and errors as ``wedge_det_sign_changes``; the first change is
    refined by ``_brentq`` on the Taylor polynomial of (expm(dt H2) w)[det N]
    from the rescaled vector w of the step before (on a half, quarter, ... of
    the step while ||h H2|| > 1/2), where direct (M, N) propagation has lost
    the zero to the eps * |N|^2 floor of hyperbolic growth. The root of the
    polynomial is found to 1e-12, but w carries the rounding of the pass up
    to it, and that sets the error: 7.9e-10 at (-2.275768649837373,
    3.0690415149607126) with t_max = 1.05 tbar + 0.1, and another value at
    another t_max, whose steps differ. Tangential (even-multiplicity) zeros
    produce no sign change and are not reported.
    """
    return _wedge_pass(A, B, Q, t_max, steps)[2]
