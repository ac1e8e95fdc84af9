"""Block structure of fat distributions.

A fat structure of rank k in dimension n splits a frame along an extremal
into three groups: a and b of size n - k each, and c of size 2k - n. The
constant structural pair (A, B) has A the identity shift from b into a
and B the orthogonal projector onto the (b, c) directions; A^2 = 0,
B = B^2 = B^T, and (A, B) is controllable in one Kalman step: rank B < n
and rank [B, AB] = n. ``typeI_pair`` is the 2x2 pair of the same shape
that governs the two-frequency model.

The motion direction is kept LAST inside the c block everywhere in this
package; along an extremal, V on that direction is exactly 1/t.
``trace_inequality_check`` is the symmetric-pair trace inequality behind
the paper's traced type-I reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import DomainError

__all__ = [
    "FatDims",
    "build_structural",
    "typeI_pair",
    "trace_inequality_check",
]


@dataclass(frozen=True)
class FatDims:
    """Distribution rank k and manifold dimension n, 3 <= k < n <= 2k - 1."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if not (3 <= self.k < self.n):
            raise ValueError(f"need 3 <= k < n, got (k, n) = ({self.k}, {self.n})")
        if self.n > 2 * self.k - 1:
            raise ValueError(
                f"fatness requires n <= 2k - 1, got n = {self.n}, k = {self.k}"
            )

    @property
    def na(self) -> int:
        return self.n - self.k

    @property
    def nb(self) -> int:
        return self.n - self.k

    @property
    def nc(self) -> int:
        return 2 * self.k - self.n

    @property
    def sl_a(self) -> slice:
        return slice(0, self.na)

    @property
    def sl_b(self) -> slice:
        return slice(self.na, 2 * self.na)

    @property
    def sl_c(self) -> slice:
        return slice(2 * self.na, self.n)


def build_structural(dims: FatDims) -> tuple[np.ndarray, np.ndarray]:
    """Constant structural pair (A, B) in the (a, b, c) block order."""
    n = dims.n
    A = np.zeros((n, n))
    A[dims.sl_a, dims.sl_b] = np.eye(dims.na)
    B = np.zeros((n, n))
    B[dims.sl_b, dims.sl_b] = np.eye(dims.nb)
    B[dims.sl_c, dims.sl_c] = np.eye(dims.nc)
    return A, B


def typeI_pair() -> tuple[np.ndarray, np.ndarray]:
    """The 2x2 pair governing the traced type-I reduction."""
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.diag([0.0, 1.0])
    return a, b


# ----------------------------------------------------------------------
# trace inequality
# ----------------------------------------------------------------------

def _row_sums(P: np.ndarray) -> np.ndarray:
    """Sums over axis 0 of a 2-D array, each column to the bit of ``np.sum`` along a contiguous axis: from 8 rows
    to 128, eight running sums over stride-8 chunks, combined as a tree, then the rest; above, two halves so."""
    n = len(P)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _row_sums(P[:half]) + _row_sums(P[half:])
    if n >= 8:
        r = P[: n - n % 8].reshape(-1, 8, P.shape[1]).sum(axis=0)
        P = np.vstack((((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])), P[n - n % 8 :]))
    return P.sum(axis=0)  # row after row onto 0.0, as np.sum starts, which turns -0.0 into 0.0


def trace_inequality_check(X, Y):
    """Slack of the symmetric-pair trace inequality, and whether it holds.

    For symmetric m x m matrices X, Y:

        |X|^2 |Y|^2 - <X,Y>^2 + (2/m) tr(X) tr(Y) <X,Y>
            >= (1/m) (tr(Y)^2 |X|^2 + tr(X)^2 |Y|^2)

    with <X,Y> = tr(XY) and |X|^2 = <X,X>. Equality holds when Y is a
    multiple of the identity or Y = X. This is the inequality certifying
    that the covariance correction of the paper's traced type-I reduction
    is PSD.
    X and Y are m x m matrices or equal-shape stacks (..., m, m), each
    member symmetric to 1e-12 of its own max(1, max|entry|). Returns
    (slack, slack >= -1e-9 * scale) with scale the magnitude of the
    largest term: (float, bool) for a pair, arrays of the stack shape
    for stacks. A NaN or inf entry, and finite entries whose squares or
    products overflow, are a ``DomainError``.

    Each stack is copied once to coordinate-major order (m*m, K), and each
    step runs along the K members, summed to the bit of the 2-D call by
    ``_row_sums``. A NaN or inf entry leaves |Z|^2 not finite, which is read
    before the mirror entries are compared (inf == inf); the symmetry
    tolerance is tested only where they differ. An overflow leaves the slack
    not finite, which is read last.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape or X.ndim < 2 or X.shape[-2] != X.shape[-1]:
        raise ValueError(f"X, Y must be square of equal size, got {X.shape}, {Y.shape}")
    shape, m = X.shape[:-2], X.shape[-1]
    X, Y = (Z.reshape(-1, m * m).T.copy() for Z in (X, Y))
    with np.errstate(invalid="ignore", over="ignore"):  # a NaN or inf entry, or an overflow, is decided below
        nx2, ny2, ip = (_row_sums(P * Q) for P, Q in ((X, X), (Y, Y), (X, Y)))
        for Z, z2 in ((X, nx2), (Y, ny2)):
            if not np.isfinite(z2).all() and not np.isfinite(Z).all():
                raise DomainError("X and Y must be finite, got a NaN or inf entry")
            Z, Zt = Z.reshape(m, m, -1), Z.reshape(m, m, -1).transpose(1, 0, 2)
            if (Z != Zt).any() and not (np.abs(Z - Zt) <= 1e-12 * np.maximum(1.0, np.abs(Z).max(axis=(0, 1)))).all():
                raise ValueError("X and Y must be symmetric")
        tx, ty = _row_sums(X[:: m + 1]), _row_sums(Y[:: m + 1])
        lhs = nx2 * ny2 - ip * ip + (2.0 / m) * tx * ty * ip
        rhs = (ty * ty * nx2 + tx * tx * ny2) / m
        slack = lhs - rhs
    if not np.isfinite(slack).all():  # an inf or NaN in any term reaches the slack
        raise DomainError("the squares or products of X and Y overflow")
    ok = slack >= -1e-9 * np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))
    return (float(slack[0]), bool(ok[0])) if not shape else (slack.reshape(shape), ok.reshape(shape))
