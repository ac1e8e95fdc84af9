"""Sphere frames, extremal flow, conjugate times, radial comparison.

Test categories:
  1. Quaternionic frame identities at arbitrary points
  2. Initial covector construction
  3. Conservation along the extremal flow
  4. Effective curvature constants along an extremal
  5. Conjugate time against the scalar bounds
  6. Decoupled blocks of the Riccati quotient along a geodesic
  7. Radial sub-Laplacian comparison

The extremal flow is checked against a DOP853 integration of its ODE, and
the rotating-frame Jacobi system against a DOP853 integration of the
lab-frame system: both oracles are independent of the closed forms and
the propagator the package ships.
"""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from fatcomp import hopf, models, riccati
from fatcomp.checks import _qhf_complex_pair
from fatcomp.curvature import _b_sign, curvature_blocks, qhf_curvature_inputs
from fatcomp.hopf import (
    DomainError,
    ExtremalState,
    _qhf_corner,
    _qhf_system,
    conjugate_time,
    initial_state,
    integrate_extremal,
    qhf_kappas,
    reeb_generators,
    sublaplacian_along,
)
from fatcomp.models import blowup_time_kab, eval_s_kab, eval_s_kc
from fatcomp.riccati import first_blowup, integrate_jacobi, wedge_first_zero
from fatcomp.structure import FatDims, build_structural, typeI_pair


def random_unit(rng, m):
    q = rng.standard_normal(m)
    return q / np.linalg.norm(q)


def reeb_frame(q, d):
    """(xis, pr): the Reeb fields K_alpha q at q as rows, and the projection
    onto the horizontal space, the complement of q and the xis."""
    xis = np.vstack([K @ q for K in reeb_generators(d)])

    def pr(X):
        X = X - q * (q @ X)
        return X - xis.T @ (xis @ X)

    return xis, pr


def qhf_jacobi_quotient(d, v, t_max):
    """Lab-frame Riccati quotient t -> V(t) of the structural Jacobi system.

    The package propagates in the frame rotating with the curvature; the
    lab-frame quotient, the one solving the Riccati equation with
    Q(t) = blocks.assemble(t), is P V P^T with P = exp(tW).
    """
    dims = FatDims(k=4 * d, n=4 * d + 3)
    blocks = curvature_blocks(np.asarray(v, dtype=float), qhf_curvature_inputs(d, v))
    sol = integrate_jacobi(*_qhf_system(d, v), t_max)
    W = blocks.rotation_generator

    def V(t):
        P = expm(t * W)
        return P @ sol.V(t) @ P.T

    return dims, blocks, V


#: a/b coordinates after diag(R, R): (a1, b1), and (a2, a3, b2, b3) for a2 + i a3, b2 + i b3
_REAL, _CPLX = [0, 3], [1, 2, 4, 5]
_J_PAIR = np.kron(np.eye(2), [[0.0, -1.0], [1.0, 0.0]])  # i on (a2, a3) and on (b2, b3)


def split_full_system(d, v):
    """The blocks of ``_qhf_system`` read off the (4d + 3)-square system.

    diag(R, R), R e1 = +-v/|v| from a QR of [v, I], splits the a/b 6x6 into
    the real type-I pair on (a1, b1) and the complex pair (A_I + i mu I, B_I,
    Q_c) on (a2 + i a3, b2 + i b3). Returns (residual, scale, real, complex,
    kappa_c): the largest coupling between the pairs or to the c block, J
    commutator, non-scalar shift and departure of the c block from
    kappa_c I + 0; max|R0|; the real (A, Q); the complex (A_c, Q_c), shift
    included; and kappa_c, None at d = 1.
    """
    A, B, Q = _qhf_system(d, np.asarray(v, dtype=float))
    R = np.linalg.qr(np.column_stack([v, np.eye(3)]))[0] if np.any(v) else np.eye(3)
    kappa_c = float(Q[6, 6]) if d >= 2 else None
    c_block = np.diag([kappa_c or 0.0] * (4 * d - 4) + [0.0])
    residual = max(np.abs(Q[:6, 6:]).max(), np.abs(A[:6, 6:]).max(), np.abs(Q[6:, 6:] - c_block).max())
    real, cplx = [], []
    for X in (A[:6, :6], Q[:6, :6]):
        X = np.kron(np.eye(2), R.T) @ X @ np.kron(np.eye(2), R)
        Xc = X[np.ix_(_CPLX, _CPLX)]
        coupling = max(np.abs(X[np.ix_(_REAL, _CPLX)]).max(), np.abs(X[np.ix_(_CPLX, _REAL)]).max())
        residual = max(residual, coupling, np.abs(Xc @ _J_PAIR - _J_PAIR @ Xc).max())
        real.append(X[np.ix_(_REAL, _REAL)])
        cplx.append(Xc[0::2, 0::2] + 1j * Xc[1::2, 0::2])
    residual = max(residual, np.abs(cplx[0].imag - cplx[0].imag[0, 0] * np.eye(2)).max())
    return residual, np.abs(Q).max(), tuple(real), tuple(cplx), kappa_c


def real_hopf_pair(v):
    """The real type-I pair of the a/b corner of ``_qhf_system`` in the frame v = |v| e1, as
    (A, B, Q): Q = diag(0, 4 + 4|v|^2), its b entry signed by the fault hook. ``conjugate_time``
    takes its zero in closed form, 2 pi/sqrt(4 + 4|v|^2), and builds no matrix of it."""
    A_I, B_I = typeI_pair()
    return A_I, B_I, np.diag([0.0, _b_sign() * (4.0 + 4.0 * float(v @ v))])


def dop853_extremal(state0, ts):
    """Rows (q, p)(t) of the extremal flow ODE, integrated by DOP853."""
    Ks = reeb_generators(state0.d)
    dim = state0.q.size

    def rhs(t, y):
        q, p = y[:dim], y[dim:]
        dq, dp = p.copy(), -float(p @ p) * q
        for K in Ks:
            v_a = float(p @ (K @ q))
            dq -= v_a * (K @ q)
            dp -= v_a * (K @ p)
        return np.concatenate([dq, dp])

    y0 = np.concatenate([state0.q, state0.p])
    sol = solve_ivp(rhs, (0.0, ts[-1]), y0, method="DOP853", t_eval=ts, rtol=1e-11, atol=1e-13)
    assert sol.success, sol.message
    return sol.y.T


def lab_frame_N(d, v, ts):
    """N(t) of the lab-frame system with Q(t) = blocks.assemble(t), by DOP853."""
    blocks = curvature_blocks(np.asarray(v, dtype=float), qhf_curvature_inputs(d, v))
    (A, B), n = build_structural(blocks.dims), blocks.dims.n

    def rhs(t, y):
        M, N = y[: n * n].reshape(n, n), y[n * n :].reshape(n, n)
        return np.concatenate([(-A.T @ M - blocks.assemble(t) @ N).ravel(), (B @ M + A @ N).ravel()])

    y0 = np.concatenate([np.eye(n).ravel(), np.zeros(n * n)])
    sol = solve_ivp(rhs, (0.0, ts[-1]), y0, method="DOP853", t_eval=ts, rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    return sol.y[n * n :].T.reshape(len(ts), n, n)


# ----------------------------------------------------------------------
# Test Class: frame identities
# ----------------------------------------------------------------------

class TestFrames:

    def test_generator_commutator(self):
        KI, KJ, KK = reeb_generators(2)
        assert np.abs(KI @ KJ - KJ @ KI + 2.0 * KK).max() == 0.0

    def test_reeb_frame_is_orthonormal(self):
        q = random_unit(np.random.default_rng(4), 12)
        xis, _ = reeb_frame(q, 2)
        G = np.vstack([q, xis]) @ np.vstack([q, xis]).T
        assert np.abs(G - np.eye(4)).max() < 1e-12

    def test_phi_squares_to_minus_identity_on_horizontal(self):
        # phi_alpha X, the horizontal part of J_alpha X = -K_alpha X
        rng = np.random.default_rng(9)
        _, pr = reeb_frame(random_unit(rng, 8), 1)
        X = pr(rng.standard_normal(8))
        for K in reeb_generators(1):
            assert np.abs(pr(K @ pr(K @ X)) + X).max() < 1e-12

    def test_phi_composition_is_quaternionic(self):
        rng = np.random.default_rng(10)
        _, pr = reeb_frame(random_unit(rng, 12), 2)
        X = pr(rng.standard_normal(12))
        phi_I, phi_J, phi_K = (lambda Y, K=K: pr(-K @ Y) for K in reeb_generators(2))
        assert np.abs(phi_I(phi_J(X)) - phi_K(X)).max() < 1e-12

    def test_projection_is_idempotent(self):
        rng = np.random.default_rng(11)
        xis, pr = reeb_frame(random_unit(rng, 8), 1)
        X = rng.standard_normal(8)
        assert np.abs(pr(pr(X)) - pr(X)).max() < 1e-12
        assert np.abs(pr(xis[1])).max() < 1e-12
        assert np.abs(xis @ xis[2] - np.array([0.0, 0.0, 1.0])).max() < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_generators_are_one_read_only_tuple(self, d):
        def hamilton(a, b):
            (a0, a1, a2, a3), (b0, b1, b2, b3) = a, b
            return np.array([a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3, a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                             a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1, a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0])

        # the units i, j, k acting on one (x, y, z, w) slot by the Hamilton product u q
        J4s = [np.column_stack([hamilton(u, e) for e in np.eye(4)]) for u in np.eye(4)[1:]]
        Ks = reeb_generators(d)
        assert reeb_generators(d) is Ks
        for K, J4 in zip(Ks, J4s):
            assert np.array_equal(K, -np.kron(np.eye(d + 1), J4))
            with pytest.raises(ValueError, match="read-only"):
                K[0, 1] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                K *= 2.0
        assert np.array_equal(reeb_generators(d)[0], -np.kron(np.eye(d + 1), J4s[0]))

    def test_rejects_bad_points(self):
        with pytest.raises(DomainError):
            initial_state(1, [0.0, 0.0, 0.0], q=np.ones(8))
        with pytest.raises(ValueError, match="length 12"):
            initial_state(2, [0.0, 0.0, 0.0], q=random_unit(np.random.default_rng(0), 8))


# ----------------------------------------------------------------------
# Test Class: initial covector
# ----------------------------------------------------------------------

class TestInitialState:

    def test_unit_energy_and_momentum_recovery(self):
        for d, v in ((1, [0.0, 0.0, 0.0]), (2, [0.4, -0.7, 0.25])):
            st0 = initial_state(d, v)
            assert abs(st0.H - 0.5) < 1e-12, f"H = {st0.H}"
            assert np.abs(st0.v - np.asarray(v)).max() < 1e-12
            xis, pr = reeb_frame(st0.q, d)
            gd = pr(st0.p)  # the horizontal velocity
            assert abs(gd @ gd - 1.0) < 1e-12
            assert np.abs(xis @ gd).max() < 1e-12, "velocity not horizontal"

    def test_custom_footpoint(self):
        rng = np.random.default_rng(21)
        q = random_unit(rng, 12)
        st0 = initial_state(2, [0.1, 0.2, 0.3], q=q, seed_direction=rng.standard_normal(12))
        assert np.abs(st0.q - q).max() == 0.0
        assert abs(st0.H - 0.5) < 1e-12

    def test_rejects_degenerate_seed(self):
        with pytest.raises(DomainError):
            initial_state(1, [0, 0, 0], seed_direction=np.zeros(8))
        q0 = np.zeros(8)
        q0[0] = 1.0
        with pytest.raises(DomainError):
            initial_state(1, [0, 0, 0], q=q0, seed_direction=q0)

    def test_overflowing_momentum_is_a_domain_error(self):
        # |v|^2 overflows: the state was built, and integrate_extremal warned of an overflow in
        # p0 @ p0 before its "H = nan"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"\|v\|\^2 overflows"):
                initial_state(1, [1e160, 0.0, 0.0])
            assert initial_state(1, [1e152, 0.0, 0.0]).p[1] == -1e152


# ----------------------------------------------------------------------
# Test Class: extremal flow
# ----------------------------------------------------------------------

class TestExtremalFlow:

    def test_zero_momentum_traces_a_great_circle(self):
        res = integrate_extremal(initial_state(1, [0, 0, 0]), 2.0 * math.pi)
        assert np.abs(res.q[-1] - res.q[0]).max() < 1e-7
        # halfway around, the point is antipodal
        assert np.abs(res.q[len(res.q) // 2] + res.q[0]).max() < 1e-6

    def test_conserved_quantities(self):
        st0 = initial_state(2, [0.5, -0.2, 0.3], seed_direction=np.arange(12.0) + 1.0)
        res = integrate_extremal(st0, 4.0)
        assert res.h_drift < 1e-8, f"H drift {res.h_drift}"
        assert res.v_drift < 1e-8, f"vertical momentum drift {res.v_drift}"
        assert res.norm_drift < 1e-8
        assert res.gauge_drift < 1e-8

    @pytest.mark.parametrize("t_max", [1e4, 1e8, 1e12])
    def test_norm_drift_grows_like_the_vertical_phase(self, t_max):
        # sin(wt)/w is taken as t sinc(wt/pi), whose sine reads pi (wt/pi), not the wt
        # that cos(wt) reads: |q| drifts from 1 by about |v| t eps (0.16-0.27 of it here)
        v = np.array([1.0, 0.0, 0.0])
        res = integrate_extremal(initial_state(1, v), t_max)
        assert res.norm_drift <= np.finfo(float).eps * (1.0 + np.linalg.norm(v) * t_max)

    @pytest.mark.parametrize("d", [1, 2])
    def test_drifts_match_the_sampled_states(self, d):
        rng = np.random.default_rng(d)
        dim = 4 * (d + 1)
        st0 = initial_state(d, 1.7 * random_unit(rng, 3), q=random_unit(rng, dim), seed_direction=rng.standard_normal(dim))
        res = integrate_extremal(st0, 2.0 * math.pi)
        assert res.q.shape == res.p.shape == (res.ts.size, dim) == (257, dim)
        states = [ExtremalState(d, q, p) for q, p in zip(res.q, res.p)]
        h = max(abs(st.H - 0.5) for st in states)
        v = max(float(np.abs(st.v - st0.v).max()) for st in states)
        norm = max(abs(float(np.linalg.norm(st.q)) - 1.0) for st in states)
        gauge = max(abs(float(st.p @ st.q)) for st in states)
        for got, want in zip((res.h_drift, res.v_drift, res.norm_drift, res.gauge_drift), (h, v, norm, gauge)):
            assert abs(got - want) <= 1e-15

    def test_rejects_non_unit_covector(self):
        st0 = initial_state(1, [0.3, 0.0, 0.0])
        bad = type(st0)(d=st0.d, q=st0.q, p=2.0 * st0.p)
        with pytest.raises(DomainError):
            integrate_extremal(bad, 1.0)

    def test_huge_covector_is_refused_before_any_product(self):
        # p0 @ p0 overflowed with a warning, then "H = nan"
        q, p = np.eye(8)[0], np.eye(8)[4] + 1e160 * np.eye(8)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"\|p\| must be finite with \|p\|\^2 representable"):
                integrate_extremal(ExtremalState(1, q, p), 1.0)

    def test_overflowing_phase_is_a_domain_error(self):
        # c t_max = sqrt(2) t_max overflowed, and cos(inf) warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"the phase \|p\| t_max overflows"):
                integrate_extremal(initial_state(1, [-1.0, 0.0, 0.0]), 1.7976931348623157e308)

    def test_underflowing_momentum_square_keeps_the_rotation(self):
        # |v|^2 = 1e-320 is subnormal: w = sqrt(v @ v) was 5.7e-6 relative low, and where it
        # underflowed to 0, sin(wt)/w read t. q(t) = exp(-t K_v) (cos(ct) q0 + sin(ct)/c p0)
        st0 = initial_state(1, [0.0, 1e-160, 0.0])
        t = 1.5e160  # w t = 1.5
        res = integrate_extremal(st0, t, n_samples=2)
        K_v = 1e-160 * reeb_generators(1)[1]
        c = math.sqrt(float(st0.p @ st0.p))
        want = expm(-t * K_v) @ (math.cos(c * t) * st0.q + math.sin(c * t) / c * st0.p)
        assert np.abs(res.q[-1] - want).max() <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_closed_form_matches_dop853_oracle(self, d):
        rng = np.random.default_rng(40 + d)
        dim = 4 * (d + 1)
        for nv in (0.0, 0.4, 1.3, 2.0, 3.0):
            v = nv * random_unit(rng, 3)
            st0 = initial_state(d, v, q=random_unit(rng, dim), seed_direction=rng.standard_normal(dim))
            res = integrate_extremal(st0, 5.0, n_samples=41)
            got = np.hstack([res.q, res.p])
            err = np.abs(got - dop853_extremal(st0, res.ts)).max()
            assert err < 1e-9, f"|v| = {nv}: closed form off the DOP853 flow by {err:.3e}"
            drift = max(res.h_drift, res.v_drift, res.norm_drift, res.gauge_drift)
            assert drift < 1e-13, f"|v| = {nv}: first-integral drift {drift:.3e}"


def _flow_digest() -> tuple[int, str]:
    """(rows, SHA-256) of ``initial_state``'s p and ``integrate_extremal``'s ts,
    q, p and drifts on a seeded set, or the exception class and message.

    d in {1, 2, 3}, |v| from 0 to 1e3, t_max from 1e-3 to 1e3 and n_samples in
    {1, 2, 3, 257}; each (d, |v|) gets its own seeded footpoint, seed and v
    direction."""
    rng = np.random.default_rng(23)
    lines = []
    for d in (1, 2, 3):
        dim = 4 * (d + 1)
        for nv in (0.0, 1e-8, 1e-4, 0.1, 1.0, 3.0, 1e3):
            v = nv * random_unit(rng, 3)
            st0 = initial_state(d, v, q=random_unit(rng, dim), seed_direction=rng.standard_normal(dim))
            lines.append(f"{d} {nv!r} p0 {st0.p.tobytes().hex()}")
            for t_max in (1e-3, 0.7, 2.0 * math.pi, 1e3):
                for n in (1, 2, 3, 257):
                    try:
                        g = integrate_extremal(st0, t_max, n_samples=n)
                        out = b"".join(x.tobytes() for x in (g.ts, g.q, g.p)).hex() + " " + " ".join(
                            x.hex() for x in (g.h_drift, g.v_drift, g.norm_drift, g.gauge_drift))
                    except DomainError as e:
                        out = f"DomainError: {e}"
                    lines.append(f"{d} {nv!r} {t_max!r} {n} {out}")
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


# _flow_digest(), frozen from an integrate_extremal that re-read v, H and the
# Reeb generators on every use; and the messages of its three domain errors.
FLOW_ROWS, FLOW_DIGEST = 357, "e4c4bc7c17f4ee13141e6b44bb234ba48716dcbf26dc0877d94b9fecf83e3fab"
FLOW_GAUGE = "state0 must satisfy <p, q> = 0, got 1e-06"
FLOW_SHELL = "state0 must be a unit covector, H = 1.1249999999999998"
FLOW_NAN = "t_max must be finite positive and n_samples >= 1, got nan, 257"


class TestExtremalFlowBits:

    def test_frozen_digest(self):
        assert _flow_digest() == (FLOW_ROWS, FLOW_DIGEST)

    def test_domain_messages(self):
        st0 = initial_state(2, [0.4, -0.3, 0.2], seed_direction=np.arange(12.0) + 1.0)
        off_gauge = ExtremalState(2, st0.q, st0.p + 1e-6 * st0.q)
        off_shell = ExtremalState(2, st0.q, 1.5 * st0.p)
        for state, t_max, want in ((off_gauge, 1.0, FLOW_GAUGE), (off_shell, 1.0, FLOW_SHELL), (st0, math.nan, FLOW_NAN)):
            with pytest.raises(DomainError) as err:
                integrate_extremal(state, t_max)
            assert str(err.value) == want


# ----------------------------------------------------------------------
# Test Class: effective constants
# ----------------------------------------------------------------------

class TestEffectiveConstants:

    def test_zero_momentum(self):
        assert qhf_kappas([0.0, 0.0, 0.0]) == (0.0, 4.0, 1.0)

    def test_unit_momentum(self):
        ka, kb, kc = qhf_kappas([1.0, 0.0, 0.0])
        assert ka == pytest.approx(-3.875)
        assert kb == pytest.approx(9.0)
        assert kc == pytest.approx(2.0)

    def test_direction_independence(self):
        a = qhf_kappas([0.7, 0.0, 0.0])
        b = qhf_kappas([0.0, 0.7, 0.0])
        c = qhf_kappas(np.array([0.7, 0.0, 0.0]) / math.sqrt(2.0) * math.sqrt(2.0))
        assert a == b == c


# ----------------------------------------------------------------------
# Test Class: conjugate time
# ----------------------------------------------------------------------

# conjugate_time(d, v).t_star, frozen as float.hex: the closed form 2 pi/sqrt(4 + 4|v|^2)
# of the real pair, the kappa_a = 0 model, with no pass behind it. The six rows that moved
# when the complex pair's 2x2 pass left conjugate_time moved toward pi/sqrt(1 + |v|^2): at
# (2, (1.2, 0.3, -0.5)) from 0x1.e25b10fb5dcc0p+0 (-9.1e-14 relative against 50 digits)
# to -1.0e-16, and at v = 0 from 4 ulps below pi to pi.
CONJUGATE_BITS = [
    (1, (0.0, 0.0, 0.0), '0x1.921fb54442d18p+1'),
    (1, (0.6, -0.2, 0.3), '0x1.496ec58c27dbep+1'),
    (1, (1.2, 0.3, -0.5), '0x1.e25b10fb5dfc3p+0'),
    (1, (-2.1, 1.4, 0.7), '0x1.1edd9bfabd0aap+0'),
    (2, (0.0, 0.0, 0.0), '0x1.921fb54442d18p+1'),
    (2, (0.6, -0.2, 0.3), '0x1.496ec58c27dbep+1'),
    (2, (1.2, 0.3, -0.5), '0x1.e25b10fb5dfc3p+0'),
    (2, (-2.1, 1.4, 0.7), '0x1.1edd9bfabd0aap+0'),
]


def _complex_pass_rows():
    """200 seeded (d, v): d cycling through 1-3, |v| uniform on [0, 3] and, every fourth, log-uniform on [1e-3, 1e3]."""
    rng = np.random.default_rng(31)
    rows = []
    for i in range(200):
        nv = 3.0 * rng.uniform() if i % 4 else 10.0 ** rng.uniform(-3.0, 3.0)
        rows.append((1 + i % 3, nv * random_unit(rng, 3)))
    return rows


def _horizon(d, v):
    """The scan horizon of ``conjugate_time``: 10% beyond the smaller model bound."""
    kappa_a, kappa_b, kappa_c = qhf_kappas(v)
    return 1.1 * min(blowup_time_kab(kappa_a, kappa_b).time, math.pi / math.sqrt(kappa_c) if d >= 2 else math.inf)


# (rows, SHA-256) of wedge_first_zero on _qhf_complex_pair over
# _complex_pass_rows(), each line "d v_I v_J v_K t" in float.hex
COMPLEX_PASS_ROWS, COMPLEX_PASS_DIGEST = 200, "896930d1e1ea3982d188bf302fdc0976e2bf36158b25cc8164a96b4335d32ebe"


class TestConjugateTime:

    @pytest.mark.parametrize("d,v,bits", CONJUGATE_BITS)
    def test_frozen_bits(self, d, v, bits):
        assert conjugate_time(d, v).t_star.hex() == bits

    def test_complex_pass_keeps_its_bits(self):
        lines = []
        for d, v in _complex_pass_rows():
            t = wedge_first_zero(*_qhf_complex_pair(v), _horizon(d, v)).time
            lines.append(" ".join([str(d), *(x.hex() for x in v.tolist()), t.hex()]))
        assert (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()) == (COMPLEX_PASS_ROWS, COMPLEX_PASS_DIGEST)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_real_pair_pass_agrees_with_the_model_closed_form(self, d):
        # the real pair is the type-I pair at Q = diag(0, 4 + 4|v|^2), the two-frequency
        # model at kappa_a = 0: its 2x2 pass, which conjugate_time no longer runs, stays
        # within 1e-13 of 2 pi/sqrt(4 + 4|v|^2), the zero conjugate_time takes
        rng = np.random.default_rng(60 + d)
        for nv in [0.0, 1e-3, 1e3] + [float(x) for x in 10.0 ** rng.uniform(-3.0, 3.0, 12)]:
            v = nv * random_unit(rng, 3)
            closed = blowup_time_kab(0.0, 4.0 + 4.0 * float(v @ v)).time
            t = wedge_first_zero(*real_hopf_pair(v), _horizon(d, v)).time
            assert abs(t - closed) <= 1e-13 * closed, f"|v| = {nv}: pass {t!r}, closed form {closed!r}"

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_time_is_the_least_closed_form_zero_without_a_pass(self, d, monkeypatch):
        # t* is the real pair's closed form and, for d >= 2, the c block's pi/sqrt(kappa_c),
        # bit for bit; conjugate_time runs no 2x2 pass, and no exponential at all
        calls, expm_ = [], riccati._expm
        monkeypatch.setattr(riccati, "_expm", lambda X: calls.append(X) or expm_(X))
        assert not hasattr(hopf, "wedge_first_zero")
        for _, v in _complex_pass_rows():
            s = float(v @ v)
            times = [2.0 * math.pi / math.sqrt(4.0 + 4.0 * s)]
            if d >= 2:
                times.append(math.pi / math.sqrt(1.0 + s))
            assert conjugate_time(d, v).t_star == min(times)
        assert not calls
        wedge_first_zero(*_qhf_complex_pair(v), _horizon(d, v))  # the spy sees a pass
        assert calls

    def test_complex_pair_never_sets_the_time(self, monkeypatch):
        # the Riccati comparison behind the closed form, both halves, on seeded |v| in [0, 1e4]
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(36)
        vs = [nv * random_unit(rng, 3) for nv in [0.0, 1e4, *10.0 ** rng.uniform(-3.0, 4.0, 10)]]
        for v in vs:
            # unfaulted: det N of the pair, with its entries taken exactly from s = |v|^2 at 60
            # digits, is real, vanishes at pi/r, r = sqrt(1 + s), and det N / sin(r t) keeps its
            # sign on (0, pi/r]: the complex pair turns conjugate with the real pair, not before
            A, B, Q_float = _qhf_complex_pair(v)
            with mp.workdps(60):
                s = mp.mpf(float(v @ v))
                c = (2 + mp.mpf(1.5) * s) * mp.sqrt(s)
                Q = mp.matrix([[-s * (3 + mp.mpf(2.8125) * s), -1j * c], [1j * c, 4 + mp.mpf(5.5) * s]])
                assert all(abs(complex(Q[i, j]) - Q_float[i, j]) <= 4e-16 * abs(Q_float[i, j]) for i in (0, 1) for j in (0, 1))
                H = mp.matrix(4, 4)  # [[-A^T, -Q], [B, A]]
                for i in (0, 1):
                    for j in (0, 1):
                        H[i, j], H[i, 2 + j], H[2 + i, j], H[2 + i, 2 + j] = -A[j, i], -Q[i, j], B[i, j], A[i, j]
                E, X = mp.eig(H)
                Xi = X**-1

                def det_N(t):
                    e = [mp.exp(lam * t) for lam in E]
                    N = [[mp.fsum(X[2 + i, k] * e[k] * Xi[k, j] for k in range(4)) for j in (0, 1)] for i in (0, 1)]
                    return N[0][0] * N[1][1] - N[0][1] * N[1][0]

                r = mp.sqrt(1 + s)
                ts = [mp.pi / r * k / 64 for k in range(1, 64)] + [mp.pi / r * (1 - mp.mpf(10) ** -30)]
                dets = [det_N(t) for t in ts]
                scale = max(abs(x) for x in dets)
                assert abs(det_N(mp.pi / r)) <= 1e-40 * scale, f"|v| = {np.linalg.norm(v)}"
                assert all(abs(mp.im(x)) <= 1e-40 * scale for x in dets)
                assert all(mp.re(x) / mp.sin(r * t) > 0 for x, t in zip(dets, ts)), f"|v| = {np.linalg.norm(v)}"
        monkeypatch.setenv("FATCOMP_FAULT", "curvature-sign")
        for v in vs:
            # faulted: Q_c <= 0, so det N >= t^4/12 and the 2x2 pass finds no zero
            pair = _qhf_complex_pair(v)
            assert np.linalg.eigvalsh(pair[2]).max() <= 0.0, f"|v| = {np.linalg.norm(v)}"
            assert not wedge_first_zero(*pair, _horizon(1, v)).is_finite

    def test_momentum_is_checked_once(self, monkeypatch):
        # qhf_kappas checked v a second time; the order of the checks is pinned by BAD_INPUT in test_api
        calls, check = [], hopf._momentum
        monkeypatch.setattr(hopf, "_momentum", lambda v: calls.append(v) or check(v))
        conjugate_time(2, [0.3, -0.1, 0.2])
        assert len(calls) == 1

    def test_zero_momentum_gives_half_circle(self):
        res = conjugate_time(2, [0.0, 0.0, 0.0])
        assert res.t_star == math.pi, f"t* = {res.t_star}"
        assert res.margin_kc is not None and res.margin_kc >= -1e-6
        assert res.margin_kab >= -1e-6

    def test_decoupled_pair_saturates_the_bound(self):
        # for d >= 2 the conjugate point comes from the single-frequency
        # pair, so t* equals pi/sqrt(1 + |v|^2) to 2 ulps
        v = [0.8, -0.1, 0.3]
        res = conjugate_time(2, v)
        s = float(np.dot(v, v))
        assert abs(res.t_star - math.pi / math.sqrt(1.0 + s)) <= 2.0 * math.ulp(res.t_star)
        assert res.bound_kc == pytest.approx(math.pi / math.sqrt(1.0 + s))

    def test_minimal_dimension_has_no_single_frequency_bound(self):
        res = conjugate_time(1, [0.3, 0.0, 0.0])
        assert res.bound_kc is None and res.margin_kc is None
        assert res.t_star <= math.pi + 1e-9
        assert res.margin_kab >= -1e-6
        assert res.bound_kab.is_finite

    @pytest.mark.parametrize("d", [1, 2])
    def test_margins_name_every_bound(self, d):
        # kappa_ab always; kappa_c for d >= 2, pi for d = 1
        res = conjugate_time(d, [0.5, 0.2, 0.0])
        other = math.pi - res.t_star if d == 1 else res.margin_kc
        assert res.margins == (res.margin_kab, other)

    def test_reported_kappas(self):
        # the bound is the model time of the fibration's own constants
        res = conjugate_time(1, [0.5, 0.0, 0.0])
        kappa_a, kappa_b, _ = qhf_kappas([0.5, 0.0, 0.0])
        assert res.bound_kab == blowup_time_kab(kappa_a, kappa_b)

    @pytest.mark.parametrize("d", [1, 2, 3, 16, 64])
    def test_closed_form_conjugate_time(self, d):
        # t* = pi/sqrt(1 + |v|^2) for every d, whose c' pairs and traced
        # (a, b) system both first turn conjugate there: at v = 0, on each
        # axis and at 9 seeded covectors
        rng = np.random.default_rng(100 + d)
        vs = [(0.4 + i) * e for i, e in enumerate(np.eye(3))]
        for nv in np.linspace(0.0, 3.0, 10):
            u = rng.standard_normal(3)
            vs.append(nv * u / np.linalg.norm(u))
        worst = max(abs(conjugate_time(d, v).t_star - math.pi / math.sqrt(1.0 + v @ v)) for v in vs)
        assert worst < 1e-12, f"worst |t* - pi/sqrt(1 + |v|^2)| = {worst:.3e}"

    @pytest.mark.parametrize("d", [1, 2, 16])
    @pytest.mark.parametrize("nv", [0.0, 1e-3, 1.0, 1e2, 1e4, 1e6])
    def test_conjugate_time_is_relative_at_every_norm(self, d, nv):
        # one scale for the complex pair made the det N sign scan early by
        # up to 1.7e-8 relative at |v| = 1e6
        rng = np.random.default_rng(7)
        for v in (nv * np.eye(3)[0], nv * (lambda u: u / np.linalg.norm(u))(rng.standard_normal(3))):
            ref = math.pi / math.sqrt(1.0 + v @ v)
            assert abs(conjugate_time(d, v).t_star - ref) <= 1e-12 * ref, f"v = {v}"

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_dets_multiply_to_the_full_det(self, d):
        # det N = det N_real |det N_c|^2 (sin(sqrt(kc) t)/sqrt(kc))^(4d-4) t,
        # the motion row contributing t
        v = np.array([0.6, -0.3, 0.2]) * d
        pairs, kappa_c = (real_hopf_pair(v), _qhf_complex_pair(v)), qhf_kappas(v)[2]
        full = integrate_jacobi(*_qhf_system(d, v), 3.0)
        Hs = [np.block([[-A.T, -Q], [B, A]]) for A, B, Q in pairs]
        for t in (0.4, 1.1, 1.9, 2.6):
            det_real, det_c = (np.linalg.det(expm(t * H)[2:, :2]) for H in Hs)
            c = (math.sin(math.sqrt(kappa_c) * t) / math.sqrt(kappa_c)) ** (4 * d - 4) if d >= 2 else 1.0
            expected = det_real * abs(det_c) ** 2 * c * t
            assert abs(full.det_N(t) - expected) <= 1e-10 * abs(expected), f"t = {t}"

    @pytest.mark.parametrize("d", [1, 2, 7, 64])
    def test_closed_form_pairs_match_the_full_system_split(self, d):
        # the pairs built from |v| alone against the blocks read off the
        # (4d + 3)-square system, up to the complex conjugation that the
        # sign of R e1 = +-v/|v| brings: at v = 0, on an axis and at seeded
        # covectors with |v| up to 1e3
        rng = np.random.default_rng(400 + d)
        vs = [np.zeros(3), np.array([0.0, -1.3, 0.0])]
        for nv in (1e-3, 0.7, 3.0, 40.0, 1e3):
            vs.append(nv * random_unit(rng, 3))
        for v in vs:
            residual, scale, (A_r, Q_r), (A_c, Q_c), kappa_c = split_full_system(d, v)
            assert residual <= 1e-12 * scale, f"|v| = {np.linalg.norm(v)}: split residual {residual:.3e}"
            real, cplx = real_hopf_pair(v), _qhf_complex_pair(v)
            A_I, B_I = typeI_pair()
            assert all(np.array_equal(P[0], A_I) and np.array_equal(P[1], B_I) for P in (real, cplx))
            if A_c.imag[0, 0] < 0.0:  # R e1 = -v/|v|: the frame of the conjugate pair
                A_c, Q_c = A_c.conj(), Q_c.conj()
            mu = 1.5 * np.linalg.norm(v)  # the dropped shift
            assert np.abs(A_r - A_I).max() <= 1e-13 * max(1.0, mu)
            assert np.abs(A_c - (A_I + 1j * mu * np.eye(2))).max() <= 1e-13 * max(1.0, mu)
            assert np.abs(Q_r - real[2]).max() <= 1e-13 * scale
            assert np.abs(Q_c - cplx[2]).max() <= 1e-13 * scale
            if d >= 2:
                assert abs(kappa_c - qhf_kappas(v)[2]) <= 1e-13 * scale

    def test_closed_forms_are_the_ab_system_on_the_axis(self):
        # Q = diag(0, 4 + 4s) and Q_c = [[-s (3 + 2.8125 s), -i c], [i c,
        # 4 + 5.5 s]], c = (2 + 1.5 s) |v|, are the 6x6 a/b corner of the
        # system at v = |v| e1 read off (a1, b1) and (a2 + i a3, b2 + i b3)
        rng = np.random.default_rng(17)
        for nv in (0.0, 1e-3, 0.5, 1.0, 3.0, 1e2, 1e3):
            v = nv * random_unit(rng, 3)
            Q = _qhf_system(1, [np.linalg.norm(v), 0.0, 0.0])[2][:6, :6]
            real, cplx = real_hopf_pair(v), _qhf_complex_pair(v)
            scale = max(1.0, np.abs(Q).max())
            assert np.abs(real[2] - Q[np.ix_([0, 3], [0, 3])]).max() <= 1e-15 * scale
            assert np.abs(cplx[2] - (Q[np.ix_([1, 4], [1, 4])] + 1j * Q[np.ix_([2, 5], [1, 4])])).max() <= 1e-15 * scale

    @pytest.mark.parametrize("d", [1, 2, 7])
    def test_ab_system_is_the_corner_of_the_full_system(self, d):
        # sublaplacian_along reads the 6x6 a/b corner off the d = 1 system:
        # that of the (4d + 3)-square system, entry for entry
        v = np.array([0.6, -0.3, 0.2]) * d
        for one, full in zip(_qhf_system(1, v), _qhf_system(d, v)):
            assert np.array_equal(one[:6, :6], full[:6, :6])

    def test_fault_reaches_the_closed_form_pairs(self, monkeypatch):
        # FATCOMP_FAULT=curvature-sign flips the b block of the pairs as it
        # does in curvature_blocks: the faulted pairs are the faulted split
        v = np.array([0.3, -0.7, 1.1])
        clean = real_hopf_pair(v), _qhf_complex_pair(v)
        monkeypatch.setenv("FATCOMP_FAULT", "curvature-sign")
        faulted = real_hopf_pair(v), _qhf_complex_pair(v)
        assert faulted[0][2][1, 1] == -clean[0][2][1, 1] and faulted[1][2][1, 1] == -clean[1][2][1, 1]
        residual, scale, (_, Q_r), (_, Q_c), _ = split_full_system(2, v)
        assert residual <= 1e-12 * scale
        assert np.abs(Q_r - faulted[0][2]).max() <= 1e-13 * scale
        assert min(np.abs(Q - faulted[1][2]).max() for Q in (Q_c, Q_c.conj())) <= 1e-13 * scale

    def test_time_is_invariant_under_rotations_of_v(self):
        # t* depends on |v|^2 alone: bit for bit under the proper rotations
        # that keep its bits (half turns about each axis, a quarter turn
        # about the third)
        rng = np.random.default_rng(23)
        turns = [np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0]),
                 np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])]
        for d in (1, 2):
            for nv in (0.3, 1.0, 2.5):
                v = nv * random_unit(rng, 3)
                t = conjugate_time(d, v).t_star
                for P in turns:
                    w = P @ v
                    assert np.linalg.det(P) == 1.0 and w @ w == v @ v
                    assert conjugate_time(d, w).t_star == t

    def test_time_does_not_depend_on_d_from_two_on(self):
        rng = np.random.default_rng(29)
        for nv in (0.0, 0.4, 1.7, 3.0):
            v = nv * random_unit(rng, 3)
            results = [conjugate_time(d, v) for d in (2, 3, 512)]
            assert len({(r.t_star, r.margin_kc, r.margin_kab) for r in results}) == 1

    def test_fault_keeps_the_c_block_time_and_loses_d1(self, monkeypatch):
        # the sign fault flips the b block: d = 1 loses its conjugate point,
        # d >= 2 keeps the c block's, and the blocks still split exactly
        v = np.array([0.3, -0.7, 1.1])
        clean = conjugate_time(2, v).t_star
        monkeypatch.setenv("FATCOMP_FAULT", "curvature-sign")
        assert conjugate_time(2, v).t_star == pytest.approx(clean, abs=1e-12)
        with pytest.raises(RuntimeError, match="no conjugate point found"):
            conjugate_time(1, v)

    def test_large_dimension_has_no_underflow_crossings(self):
        # det N near t* is 1e-154 to 1e-191 at d = 16: the products of
        # neighbouring values of a det scan underflowed to 0.0 and read as
        # crossings; the phases do not underflow
        v = np.array([0.3, -0.7, 1.1])
        t_max = 1.1 * math.pi / math.sqrt(1.0 + v @ v)
        hit = first_blowup(integrate_jacobi(*_qhf_system(16, v), t_max))
        assert abs(hit.time - math.pi / math.sqrt(1.0 + v @ v)) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_full_system_zero_of_order_4d_minus_1(self, d):
        # the oracle's zero at t* has order 4d - 1: 4d - 1 phases reach pi
        # together
        v = np.array([0.3, -0.7, 1.1])
        t_max = 1.1 * math.pi / math.sqrt(1.0 + v @ v)
        hit = first_blowup(integrate_jacobi(*_qhf_system(d, v), t_max))
        assert abs(hit.time - math.pi / math.sqrt(1.0 + v @ v)) < 1e-12

    def test_full_system_at_d64(self):
        # at d = 64 det N underflows to 0.0 at 1% of the horizon, where a det
        # scan had to start; the phases start at 0 exactly
        v = np.array([0.3, -0.7, 1.1])
        t_max = 1.1 * math.pi / math.sqrt(1.0 + v @ v)
        hit = first_blowup(integrate_jacobi(*_qhf_system(64, v), t_max))
        assert abs(hit.time - math.pi / math.sqrt(1.0 + v @ v)) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rotating_frame_matches_lab_frame_oracle(self, d):
        # the lab-frame system, integrated by DOP853 with Q(t) =
        # blocks.assemble(t), shares the singular values and det of N
        v = np.array([0.6, -0.3, 0.2]) * d
        ts = np.linspace(0.25, 0.95 * math.pi / math.sqrt(1.0 + v @ v), 8)
        lab = lab_frame_N(d, v, ts)
        sol = integrate_jacobi(*_qhf_system(d, v), ts[-1])
        for t, N_lab in zip(ts, lab):
            s_lab = np.linalg.svd(N_lab, compute_uv=False)
            s_rot = np.linalg.svd(sol.N(t), compute_uv=False)
            assert np.abs(s_rot - s_lab).max() < 1e-10 * s_lab[0], f"singular values at t={t}"
            assert abs(sol.det_N(t) - np.linalg.det(N_lab)) < 1e-10 * np.prod(s_lab), f"det N at t={t}"

    def test_dense_output_evaluations_are_few(self, monkeypatch):
        # the phase pass on the full-system oracle builds exp(h H_c) once
        # per step size; only the refinement evaluates exp(s H_c) point by
        # point, once per call of Brent's method
        calls = []
        expm = riccati._expm

        def counted(X):
            calls.append(X)
            return expm(X)

        monkeypatch.setattr(riccati, "_expm", counted)
        t_max = 1.1 * math.pi / math.sqrt(1.25)
        first_blowup(integrate_jacobi(*_qhf_system(2, [0.5, 0.0, 0.0]), t_max))
        assert 0 < len(calls) < 60, f"{len(calls)} exponentials"


# ----------------------------------------------------------------------
# Test Class: decoupled blocks along a geodesic
# ----------------------------------------------------------------------

class TestReductionsAlongGeodesic:
    """Blocks of the lab-frame quotient that decouple exactly."""

    def test_motion_row_is_exact(self):
        # the motion direction carries no curvature: V e_motion = e_motion / t
        dims, _, V = qhf_jacobi_quotient(2, [0.6, -0.3, 0.2], t_max=1.5)
        e = np.eye(dims.n)[-1]
        worst = max(np.linalg.norm(V(t) @ e - e / t) for t in (0.4, 0.9, 1.4))
        assert worst < 1e-10, f"motion row residual {worst}"

    def test_traced_typeII_equals_single_frequency_model(self):
        # the c' pairs decouple: their trace average IS the scalar model
        v = [0.6, -0.3, 0.2]
        dims, _, V = qhf_jacobi_quotient(2, v, t_max=1.5)
        c_prime = slice(dims.sl_c.start, dims.n - 1)
        kc = 1.0 + float(np.dot(v, v))
        for t in (0.5, 1.0):
            got = np.trace(V(t)[c_prime, c_prime]) / (dims.nc - 1)
            assert abs(got - eval_s_kc(kc, t)) < 1e-9, f"decoupling broken at t={t}"


# ----------------------------------------------------------------------
# Test Class: radial comparison
# ----------------------------------------------------------------------

def _sublaplacian_digest() -> tuple[int, str]:
    """(rows, SHA-256) of every ``SublaplacianReport`` field on 300 seeded covectors, d in
    {1, 2, 3} and |v| from 1e-3 to 3, at 17 radii across (0, t_star)."""
    rng = np.random.default_rng(33)
    lines = []
    for i in range(300):
        d, v = 1 + i % 3, rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 0.5)
        conj = conjugate_time(d, v)
        rep = sublaplacian_along(conj, np.linspace(0.02, 0.98, 17) * conj.t_star)
        lines.append(" ".join(np.asarray(getattr(rep, f.name), dtype=float).tobytes().hex() for f in dataclasses.fields(rep)))
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


# _sublaplacian_digest(), frozen from model terms that took their domain from eval_s_kab,
# each radius reading the tbar floor and, below it or at v = 0, solving tbar again; taken
# again when t* became the closed form with no complex-pair pass: 116 of 300 rows moved with
# t* (by up to 9.8e-14 relative; its error against 50 digits from [-9.8e-14, 1.5e-16] to
# [-2.1e-16, 1.5e-16]) and the grid it scales, each margin by at most 3.4e-10
SUBLAPLACIAN_ROWS, SUBLAPLACIAN_DIGEST = 300, "445feede6d8d63fe7b1a198279ab2127b13e10887b4e9cd224f41284ad484c68"


class TestSublaplacian:

    def test_margin_and_small_radius_limit(self):
        conj = conjugate_time(2, [0.0, 0.0, 0.0])
        rep = sublaplacian_along(conj, np.linspace(0.2, 2.8, 8))
        assert rep.margin.min() >= -1e-6, f"margin dips to {rep.margin.min()}"
        assert np.abs(rep.margin).max() < 1e-4, "comparison should be near-Exact at v=0"
        small = sublaplacian_along(conj, [1e-3])
        assert abs(small.r_times_lhs[0] - 16.0) < 1e-3

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_trace_matches_the_full_system(self, d):
        # trace(B V) on the (4d + 3)-dimensional system, minus the motion
        # row's 1/r, against the a/b block plus the c block in closed form
        v = np.array([0.6, -0.3, 0.2])
        r = np.linspace(0.2, 2.0, 6)
        rep = sublaplacian_along(conjugate_time(d, v), r)
        sol = integrate_jacobi(*_qhf_system(d, v), 2.0 * (1.0 + 1e-9))
        full = np.array([np.trace(sol.B @ sol.V(ri)) - 1.0 / ri for ri in r])
        assert np.abs(rep.lhs - full).max() <= 1e-10 * np.abs(full).max()

    @pytest.mark.parametrize("fault", [False, True])
    def test_corner_is_that_of_the_full_system_bit_for_bit(self, fault, monkeypatch):
        # sublaplacian_along builds the 6x6 a/b corner from v alone; curvature_blocks shares its R0 rows
        if fault:
            monkeypatch.setenv("FATCOMP_FAULT", "curvature-sign")
        rng = np.random.default_rng(30)
        for d in (1, 2, 3):
            for v in [np.zeros(3), *(rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(20))]:
                for got, full in zip(_qhf_corner(v), _qhf_system(d, v)):
                    assert got.tobytes() == np.ascontiguousarray(full[:6, :6]).tobytes()

    @staticmethod
    def _radius_loop(conj, r):
        """lhs and rhs radius by radius, each trace(B V) by its own 2-D exponential and solve."""
        d, (kappa_a, kappa_b, kappa_c) = conj.d, qhf_kappas(conj.v)
        A, B, Q = (X[:6, :6] for X in _qhf_system(1, conj.v))
        sol = integrate_jacobi(A, B, Q, float(r.max()) * (1.0 + 1e-9))
        lhs, rhs = np.empty_like(r), np.empty_like(r)
        for i, ri in enumerate(r):
            lhs[i] = float(np.trace(B @ sol.V(ri)))
            rhs[i] = 3.0 * eval_s_kab(kappa_a, kappa_b, ri)
            if d >= 2:
                lhs[i] += (4.0 * d - 4.0) * math.sqrt(kappa_c) / math.tan(math.sqrt(kappa_c) * ri)
                rhs[i] += (4.0 * d - 4.0) * eval_s_kc(kappa_c, ri)
        return lhs, rhs

    # the seed is also d; "two-stacks" spans two stacks of _RADII radii
    @pytest.mark.parametrize("grid,seed", [(g, seed) for g in ("seeded", "single", "descending") for seed in (1, 2, 3)] + [("two-stacks", 2)])
    def test_stacked_grid_equals_the_radius_loop_bit_for_bit(self, grid, seed):
        rng = np.random.default_rng(seed)
        conj = conjugate_time(seed, rng.uniform(-1.5, 1.5, 3))
        r = {
            "seeded": rng.uniform(0.01, 0.99, 40),
            "single": rng.uniform(0.01, 0.99, 1),
            "descending": np.linspace(0.95, 1.0 / 30.0, 17),
            "two-stacks": np.linspace(0.01, 0.99, hopf._RADII + 3),
        }[grid] * conj.t_star
        rep = sublaplacian_along(conj, r)
        lhs, rhs = self._radius_loop(conj, r)
        assert rep.lhs.tobytes() == lhs.tobytes()
        assert rep.rhs.tobytes() == rhs.tobytes()
        assert rep.margin.tobytes() == (rhs - lhs).tobytes()
        assert rep.r_times_lhs.tobytes() == (r * lhs).tobytes()

    def test_frozen_digest(self):
        assert _sublaplacian_digest() == (SUBLAPLACIAN_ROWS, SUBLAPLACIAN_DIGEST)

    @pytest.mark.parametrize("v", [np.zeros(3), np.array([0.6, -0.3, 0.2])])
    def test_model_terms_solve_no_root(self, v, monkeypatch):
        # the rhs reads the tbar conjugate_time solved (conj.bound_kab); through eval_s_kab
        # it solved tbar again at every radius
        conj, calls = conjugate_time(2, v), {"blowup_time_kab": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        solve = counted("blowup_time_kab", models.blowup_time_kab)
        monkeypatch.setattr(models, "blowup_time_kab", solve)
        monkeypatch.setattr(hopf, "blowup_time_kab", solve)
        sublaplacian_along(conj, np.linspace(0.02, 0.98, 17) * conj.t_star)
        assert calls == {"blowup_time_kab": 0}

    def test_nonzero_momentum_margin(self):
        rep = sublaplacian_along(conjugate_time(2, [0.5, 0.0, 0.0]), np.linspace(0.3, 2.0, 5))
        assert rep.margin.min() >= -1e-6

    @pytest.mark.filterwarnings("error")
    def test_domain_guards(self):
        # d and v are checked by conjugate_time; the grid is checked here
        conj = conjugate_time(2, [0, 0, 0])
        with pytest.raises(DomainError, match="r_grid must be nonempty"):
            sublaplacian_along(conj, [])
        for grid in ([5.0], [-0.5, 0.5], [0.0, 0.5], [0.5, conj.t_star]):
            with pytest.raises(DomainError, match=r"r_grid must lie strictly inside \(0, t_star"):
                sublaplacian_along(conj, grid)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="r_grid must be finite"):
                sublaplacian_along(conj, [0.1, bad, 0.5])
        # N's a rows grow like r^3 and underflow below about 1e-102: trace(B V)
        # read NaN with an "invalid value" warning, or solve found N singular
        for r0 in (1e-150, 1e-110, 5e-324):
            with pytest.raises(DomainError, match=f"smallest radius {r0!r}"):
                sublaplacian_along(conj, [r0, 0.25, 0.5])
