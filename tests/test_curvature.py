"""Canonical curvature blocks against an ambient contraction oracle.

The oracle below rebuilds every structure contraction from scratch: the
round sphere has constant curvature one, so the only inputs are the
ambient quaternionic structures acting on R^{4(d+1)}. A horizontal
orthonormal frame X is taken from an SVD, the bilinear form

    Bform = I - cg cg^T + 3 P^T P,   cg = X gdot,  P_alpha = X (phi_alpha gdot)

is contracted against the phi rows (A = -P) and their orthogonal
complement U, and the results are compared with the closed-form inputs
used by the package. Everything here is plain numpy on explicit
matrices; no package internals are reused for the oracle side.
"""

import dataclasses
import hashlib
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, expm

from fatcomp.curvature import (
    CurvatureInputs,
    curvature_blocks,
    qhf_curvature_inputs,
    ricci_scalars,
    rodrigues,
    vee,
)
from fatcomp.hopf import conjugate_time
from fatcomp.models import DomainError
from fatcomp.structure import build_structural

momentum_triple = st.tuples(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)

# quaternion multiplication blocks on R^4 (left action by i, j, k)
_BI = np.array([
    [0.0, -1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
])
_BJ = np.array([
    [0.0, 0.0, -1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0],
])
_BK = np.array([
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, -1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
])


def ambient_structures(d):
    return tuple(block_diag(*([Bk] * (d + 1))) for Bk in (_BI, _BJ, _BK))


def ambient_contractions(d, q, gdot):
    """Structure contractions computed from the ambient data alone."""
    Js = ambient_structures(d)
    constraints = np.vstack([q] + [J @ q for J in Js])
    X = np.linalg.svd(constraints)[2][constraints.shape[0]:]

    def pr(y):
        y = y - q * (q @ y)
        for J in Js:
            xi = J @ q
            y = y - xi * (xi @ y)
        return y

    phis = [pr(J @ gdot) for J in Js]
    cg = X @ gdot
    P = np.array([X @ ph for ph in phis])
    Bform = X @ X.T - np.outer(cg, cg) + 3.0 * P.T @ P
    A = -P
    U = np.linalg.svd(P)[2][3:]
    w = U @ cg
    return A, Bform, U, w, np.array(phis)


def random_horizontal_point(d, seed):
    rng = np.random.default_rng(seed)
    m = 4 * (d + 1)
    q = rng.standard_normal(m)
    q /= np.linalg.norm(q)
    Js = ambient_structures(d)
    y = rng.standard_normal(m)
    y -= q * (q @ y)
    for J in Js:
        xi = J @ q
        y -= xi * (xi @ y)
    return q, y / np.linalg.norm(y)


# ----------------------------------------------------------------------
# Test Class: ambient contraction oracle
# ----------------------------------------------------------------------

class TestAmbientContractions:
    """The closed-form inputs match the from-scratch ambient computation."""

    @pytest.mark.parametrize("d,seed", [(1, 0), (1, 7), (2, 1), (2, 13), (3, 2)])
    def test_contractions_match_closed_form(self, d, seed):
        q, gdot = random_horizontal_point(d, seed)
        A, Bf, U, w, phis = ambient_contractions(d, q, gdot)
        nc = 4 * d - 3

        assert np.abs(A @ A.T - np.eye(3)).max() < 1e-12, "phi rows not orthonormal"
        assert np.abs(phis @ gdot).max() < 1e-12, "phi images not orthogonal to gdot"

        ABA = A @ Bf @ A.T
        ABU = A @ Bf @ U.T
        UBU = U @ Bf @ U.T
        assert np.abs(ABA - 4.0 * np.eye(3)).max() < 1e-10, f"ABA off: {ABA}"
        assert np.abs(ABU).max() < 1e-10, f"ABU = {np.abs(ABU).max()}"
        assert abs(np.linalg.norm(w) - 1.0) < 1e-10
        assert np.abs(UBU - (np.eye(nc) - np.outer(w, w))).max() < 1e-10

    @pytest.mark.parametrize("d", [1, 2])
    def test_oracle_agrees_with_packaged_inputs(self, d):
        q, gdot = random_horizontal_point(d, seed=42)
        A, Bf, U, w, phis = ambient_contractions(d, q, gdot)
        v = np.array([0.4, -0.7, 0.25])
        inputs = qhf_curvature_inputs(d, v)
        assert np.abs(np.asarray(inputs.ABA) - A @ Bf @ A.T).max() < 1e-10
        assert np.abs(np.asarray(inputs.ABU)).max() == 0.0
        assert np.abs(np.asarray(inputs.ABdotA)).max() == 0.0
        # UBU agrees after aligning the two c bases on their w vectors:
        # both equal identity minus the rank-one motion projector
        got = np.asarray(inputs.UBU)
        win = np.asarray(inputs.w)
        assert np.abs(got - (np.eye(len(win)) - np.outer(win, win))).max() < 1e-12

    @given(momentum_triple)
    @settings(max_examples=50)
    def test_vertical_trace_scalar(self, v):
        # rho_a = sum(|Z_alpha|^2 - <Z_alpha, gdot>^2) = 2 |v|^2 for any
        # orthonormal phi images orthogonal to the velocity
        d = 2
        q, gdot = random_horizontal_point(d, seed=3)
        _, _, _, _, phis = ambient_contractions(d, q, gdot)
        v = np.asarray(v)
        # commutator fields Z_I = v_J phi_K gdot - v_K phi_J gdot and cyclic
        Z = [v[(i + 1) % 3] * phis[(i + 2) % 3] - v[(i + 2) % 3] * phis[(i + 1) % 3] for i in range(3)]
        rho = sum(Z[i] @ Z[i] - (Z[i] @ gdot) ** 2 for i in range(3))
        assert abs(rho - qhf_curvature_inputs(d, v).rho_a) < 1e-10, f"rho_a = {rho}"


# ----------------------------------------------------------------------
# Test Class: so(3) helpers
# ----------------------------------------------------------------------

class TestSkewHelpers:

    @given(momentum_triple)
    def test_vee_algebra(self, v):
        v = np.asarray(v)
        W = vee(v)
        s = float(v @ v)
        assert np.abs(W + W.T).max() == 0.0
        assert np.abs(W @ v).max() < 1e-15, "v is not in the kernel"
        assert np.abs(W @ W @ W + s * W).max() < 1e-12 * max(1.0, s**1.5)

    def test_vee_of_a_stack_is_vee_row_by_row(self):
        v = np.random.default_rng(5).uniform(-2.0, 2.0, size=(4, 6, 3))
        W = vee(v)
        assert W.shape == (4, 6, 3, 3)
        assert all(np.array_equal(W[i, j], vee(v[i, j])) for i in range(4) for j in range(6))
        with pytest.raises(ValueError, match="three components"):
            vee(np.zeros((3, 2)))

    @given(momentum_triple, st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=80)
    def test_rodrigues_matches_expm(self, v, s):
        W = vee(np.asarray(v))
        E = rodrigues(W, s)
        assert np.abs(E - expm(s * W)).max() < 1e-12
        assert np.abs(E @ E.T - np.eye(3)).max() < 1e-12

    def test_rodrigues_small_angle_branch(self):
        W = vee([1e-10, 0.0, 0.0])
        E = rodrigues(W, 1.0)
        assert np.abs(E - (np.eye(3) + W + 0.5 * W @ W)).max() < 1e-25


# ----------------------------------------------------------------------
# Test Class: curvature traces
# ----------------------------------------------------------------------

class TestRicciScalars:

    def test_zero_momentum(self):
        assert ricci_scalars([0, 0, 0], rho_a=0.0, d=2) == (0.0, 12.0, 4.0)

    def test_unit_momentum(self):
        ric_a, ric_b, ric_c = ricci_scalars([1, 0, 0], rho_a=2.0, d=2)
        assert ric_a == pytest.approx(-11.625)
        assert ric_b == pytest.approx(27.0)
        assert ric_c == pytest.approx(8.0)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            ricci_scalars([0, 0, 0], rho_a=0.0, d=0)

    @given(momentum_triple, st.floats(min_value=0.1, max_value=2.5, allow_nan=False))
    @settings(max_examples=50)
    def test_block_traces_match_scalars(self, v, t):
        # conjugation by E(t) preserves each diagonal block trace, so the
        # assembled traces must equal the closed-form scalars at every t
        v = np.asarray(v)
        inputs = qhf_curvature_inputs(2, v)
        blocks = curvature_blocks(v, inputs)
        ric_a, ric_b, ric_c = ricci_scalars(v, inputs.rho_a, 2)
        R, dims = blocks.assemble(t), blocks.dims
        assert abs(np.trace(R[dims.sl_a, dims.sl_a]) - ric_a) < 1e-10 * max(1.0, abs(ric_a))
        assert abs(np.trace(R[dims.sl_b, dims.sl_b]) - ric_b) < 1e-10 * ric_b
        assert abs(np.trace(blocks.R_cc) - ric_c) < 1e-10 * ric_c


def _curvature_digest() -> tuple[int, str]:
    """(rows, SHA-256) of R0, ``assemble(t)`` and ``ricci_scalars`` on a seeded set:
    d in {1, 2, 3, 8}, |v| from 0 to 30 with seeded directions, t in {0, +-0.7, 40}."""
    rng = np.random.default_rng(23)
    lines = []
    for d in (1, 2, 3, 8):
        for nv in (0.0, 1e-8, 0.5, 1.5, 30.0):
            u = rng.standard_normal(3)
            v = nv * u / np.linalg.norm(u)
            inputs = qhf_curvature_inputs(d, v)
            blocks = curvature_blocks(v, inputs)
            ric = " ".join(x.hex() for x in ricci_scalars(v, inputs.rho_a, d))
            lines.append(f"{d} {v.tobytes().hex()} R0 {blocks.R0.tobytes().hex()} {ric}")
            for t in (0.0, 0.7, -0.7, 40.0):
                lines.append(f"{d} {v.tobytes().hex()} {t!r} {blocks.assemble(t).tobytes().hex()}")
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


# _curvature_digest(), frozen from an assembly that rebuilt vee(v), W @ W and
# omega^2 on every call
CURVATURE_ROWS, CURVATURE_DIGEST = 100, "bd73e71e90f196be2e2809a7bb44f1340a3122318df0465832d20dc0b47cbc4d"


class TestCurvatureBits:

    def test_frozen_digest(self):
        assert _curvature_digest() == (CURVATURE_ROWS, CURVATURE_DIGEST)


# ----------------------------------------------------------------------
# Test Class: block assembly
# ----------------------------------------------------------------------

class TestCurvatureBlocks:

    def test_motion_direction_carries_no_curvature(self):
        v = np.array([0.3, -0.2, 0.9])
        blocks = curvature_blocks(v, qhf_curvature_inputs(2, v))
        R_cc = blocks.R_cc
        assert np.abs(R_cc[-1, :]).max() < 1e-8
        assert np.abs(R_cc[:, -1]).max() < 1e-8

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_motion_row_is_exactly_zero(self, d):
        # the reflection left rounding there (9.9e-32 on the diagonal at
        # d = 2), which a per-coordinate balancing of the Jacobi system reads
        # as a scale
        v = np.array([0.5, -0.3, 0.8])
        R_cc = curvature_blocks(v, qhf_curvature_inputs(d, v)).R_cc
        assert not R_cc[-1, :].any() and not R_cc[:, -1].any()

    def test_assembled_matrix_is_symmetric(self):
        v = np.array([0.5, 0.1, -0.4])
        blocks = curvature_blocks(v, qhf_curvature_inputs(2, v))
        for t in (0.0, 0.9, 2.3):
            R = blocks.assemble(t)
            assert R.shape == (11, 11)
            assert np.abs(R - R.T).max() < 1e-12, f"asymmetric at t = {t}"

    def test_zero_momentum_blocks_are_constant(self):
        blocks = curvature_blocks(np.zeros(3), qhf_curvature_inputs(1, np.zeros(3)))
        a, b = blocks.dims.sl_a, blocks.dims.sl_b
        assert np.abs(blocks.assemble(1.0)[a, a]).max() == 0.0
        assert np.abs(blocks.assemble(2.0)[b, b] - 4.0 * np.eye(3)).max() < 1e-14
        assert np.abs(blocks.assemble(1.5)[a, b]).max() == 0.0

    def test_blocks_rotate_by_conjugation(self):
        v = np.array([0.7, -0.3, 0.2])
        blocks = curvature_blocks(v, qhf_curvature_inputs(2, v))
        b, t = blocks.dims.sl_b, 1.1
        E = rodrigues(vee(v), 1.5 * t)
        assert np.abs(blocks.assemble(t)[b, b] - E @ blocks.R0[b, b] @ E.T).max() < 1e-12

    @pytest.mark.parametrize(
        "d, general", [(1, False), (2, False), (3, False), (2, True)], ids=["1", "2", "3", "general-inputs"]
    )
    def test_whole_matrix_rotates_with_the_generator(self, d, general):
        # R(t) = exp(tW) R0 exp(tW)^T, and exp(tW) commutes with the
        # structural pair: the rotating frame of the Jacobi system; the
        # general inputs (nonzero ABdotA and ABU) exercise every block
        v = np.array([0.7, -0.3, 0.2])
        inputs = qhf_curvature_inputs(d, v)
        if general:
            rng = np.random.default_rng(3)
            S = rng.standard_normal((3, 3))
            inputs = CurvatureInputs(
                d=d, ABA=S + S.T, ABdotA=rng.standard_normal((3, 3)),
                ABU=rng.standard_normal((3, 4 * d - 3)), UBU=inputs.UBU, w=inputs.w,
                rho_a=inputs.rho_a,
            )
        blocks = curvature_blocks(v, inputs)
        W = blocks.rotation_generator
        for X in build_structural(blocks.dims):
            assert np.abs(W @ X - X @ W).max() == 0.0
        assert blocks.assemble(0.0).tobytes() == blocks.R0.tobytes()
        for t in (1e-9, 0.37, 1.1, 2.9):
            P = expm(t * W)
            R = blocks.assemble(t)
            assert np.abs(R - P @ blocks.R0 @ P.T).max() < 1e-12 * np.abs(R).max()

    @pytest.mark.parametrize("d", [1, 2, 3, 16])
    def test_generator_commutes_with_R0(self, d):
        # [W, R0] = 0 makes R(t) = R0 at every t for the QHF inputs; the rounding of W R0
        # grows with max|W| max|R0|, and max|W| alone reaches 1.5e3 here
        rng = np.random.default_rng(100 + d)
        for _ in range(200):
            v = rng.standard_normal(3)
            v *= 10.0 ** rng.uniform(-3.0, 3.0) / np.linalg.norm(v)
            blocks = curvature_blocks(v, qhf_curvature_inputs(d, v))
            R0, W = blocks.R0, blocks.rotation_generator
            scale = max(1.0, np.abs(W).max()) * max(1.0, np.abs(R0).max())
            assert np.abs(W @ R0 - R0 @ W).max() <= 1e-14 * scale

    @pytest.mark.parametrize("d", range(1, 9))
    def test_rank_one_reflection_matches_the_dense_product(self, d):
        # the motion-last Householder reflection P is applied as rank-one
        # updates; the dense P X P^T and ABU P^T are the reference
        rng = np.random.default_rng(d)
        nc = 4 * d - 3
        for w in (np.eye(nc)[0], np.eye(nc)[-1], rng.standard_normal(nc)):
            w = w / np.linalg.norm(w)
            proj = np.eye(nc) - np.outer(w, w)
            S = rng.standard_normal((nc, nc))
            UBU, ABU = proj @ (S + S.T) @ proj, rng.standard_normal((3, nc))
            inputs = CurvatureInputs(d=d, ABA=4.0 * np.eye(3), ABdotA=np.zeros((3, 3)), ABU=ABU, UBU=UBU, w=w, rho_a=0.0)
            v = rng.standard_normal(3)
            blocks = curvature_blocks(v, inputs)
            u = w - np.eye(nc)[-1]
            P = np.eye(nc) - 2.0 * np.outer(u, u) / (u @ u) if u.any() else np.eye(nc)
            dense_cc = P @ (UBU + (v @ v) * proj) @ P.T
            assert np.abs(blocks.R_cc - dense_cc).max() <= 1e-15 * max(1.0, np.abs(dense_cc).max())
            R0_bc = blocks.assemble(0.0)[blocks.dims.sl_b, blocks.dims.sl_c]
            assert np.abs(R0_bc - ABU @ P.T).max() <= 1e-15 * max(1.0, np.abs(ABU).max())

    def test_rejects_curvature_on_motion_direction(self):
        v = np.array([0.2, 0.0, 0.0])
        good = qhf_curvature_inputs(2, v)
        bad = CurvatureInputs(
            d=good.d, ABA=good.ABA, ABdotA=good.ABdotA, ABU=good.ABU,
            UBU=np.eye(5), w=good.w, rho_a=good.rho_a,
        )
        with pytest.raises(ValueError, match="motion direction"):
            curvature_blocks(v, bad)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("vnorm", [1e4, 1e5, 1e6])
    def test_large_momentum_is_not_read_as_motion_curvature(self, d, vnorm):
        # R_cc grows like |v|^2, and so does the rounding on its motion
        # row: an absolute 1e-8 guard rejected |v| = 1e4
        v = vnorm * np.array([0.6, -0.48, 0.64])
        blocks = curvature_blocks(v, qhf_curvature_inputs(d, v))
        assert np.abs(blocks.R_cc[-1]).max() <= 1e-8 * np.abs(blocks.R_cc).max()
        t_star = math.pi / math.sqrt(1.0 + v @ v)
        assert abs(conjugate_time(d, v).t_star - t_star) <= 3e-9 * t_star

    @pytest.mark.parametrize("field", ["ABA", "ABdotA", "ABU", "UBU"])
    def test_overflowing_contractions_are_a_domain_error(self, field):
        # ABA = 4e307 I with the d = 1 QHF inputs at v = (100, 0, 0) gave a non-finite R0,
        # with only numpy's "overflow encountered in matmul"; each contraction scaled to
        # 4e307 is refused before any product, and one 1e6 times smaller still builds R0
        v = np.array([100.0, 0.0, 0.0])
        for d in (1, 2) if field != "UBU" else (2,):  # the d = 1 UBU is [[0]]
            good = qhf_curvature_inputs(d, v)
            base = getattr(good, field) if field == "UBU" else np.ones_like(getattr(good, field))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                bad = dataclasses.replace(good, **{field: 4e307 * base})
                with pytest.raises(DomainError, match="R0 overflows"):
                    curvature_blocks(v, bad)
                R0 = curvature_blocks(v, dataclasses.replace(good, **{field: 4e301 * base})).R0
            assert np.isfinite(R0).all()

    def test_input_shape_guards(self):
        with pytest.raises(ValueError, match="unit"):
            CurvatureInputs(
                d=1, ABA=np.eye(3), ABdotA=np.zeros((3, 3)),
                ABU=np.zeros((3, 1)), UBU=np.eye(1), w=np.array([2.0]),
                rho_a=0.0,
            )
        with pytest.raises(ValueError, match="ABU"):
            CurvatureInputs(
                d=2, ABA=np.eye(3), ABdotA=np.zeros((3, 3)),
                ABU=np.zeros((3, 1)), UBU=np.eye(5),
                w=np.array([1.0, 0, 0, 0, 0]), rho_a=0.0,
            )

    def test_fault_hook_flips_single_block(self, monkeypatch):
        v = np.array([0.4, 0.0, 0.0])
        inputs = qhf_curvature_inputs(2, v)
        clean = curvature_blocks(v, inputs)
        monkeypatch.setenv("FATCOMP_FAULT", "curvature-sign")
        faulty = curvature_blocks(v, inputs)
        a, b = clean.dims.sl_a, clean.dims.sl_b
        R_clean, R_faulty = clean.assemble(0.7), faulty.assemble(0.7)
        assert np.abs(R_faulty[b, b] + R_clean[b, b]).max() < 1e-14
        assert np.abs(R_faulty[a, a] - R_clean[a, a]).max() == 0.0

