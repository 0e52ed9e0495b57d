import sys

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from symkal import (
    RankDecision,
    StructureError,
    SubspaceBasis,
    TolerancePolicy,
    is_symplectic,
    jmat,
    largest_angle,
    numerical_rank,
    sharp_adjoint,
    skew_canonical,
)
from symkal.errors import RankAmbiguityError, ValidationError
from symkal.linalg import EPS, ZERO_LEVEL, _lapack, symplectic_gram_schmidt


def _block_matrix(form) -> np.ndarray:
    """blockdiag(mu_1 J_2, ..., mu_k J_2, 0), which U^T M U should equal."""
    k = len(form.mus)
    B = np.zeros(form.U.shape)
    B[:2 * k, :2 * k] = np.kron(np.diag(form.mus), jmat(1))
    return B


class TestJmat:
    def test_value_k1(self):
        assert np.array_equal(jmat(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_square_is_minus_identity(self, k):
        J = jmat(k)
        assert np.array_equal(J @ J, -np.eye(2 * k))
        assert np.array_equal(J.T, -J)

    def test_jmat_is_symplectic(self):
        assert is_symplectic(jmat(3)).ok

    def test_degenerate_dimension(self):
        with pytest.raises(StructureError, match="jmat requires k >= 1, got k=0"):
            jmat(0)

    def test_shared_and_read_only(self):
        assert jmat(3) is jmat(3)
        assert not jmat(3).flags.writeable


class TestSharpAdjoint:
    def test_identity(self):
        assert np.allclose(sharp_adjoint(np.eye(2)), np.eye(2))

    def test_j_maps_to_minus_j(self):
        J = jmat(2)
        assert np.allclose(sharp_adjoint(J), -J)

    def test_odd_dimension_rejected(self):
        with pytest.raises(StructureError):
            sharp_adjoint(np.ones((3, 2)))
        with pytest.raises(StructureError):
            sharp_adjoint(np.ones((2, 3)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**9))
    def test_involution(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 5))
        s = int(rng.integers(1, 5))
        X = rng.standard_normal((2 * r, 2 * s))
        assert np.allclose(sharp_adjoint(sharp_adjoint(X)), X, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**9))
    def test_product_rule(self, seed):
        rng = np.random.default_rng(seed)
        r, t, s = (int(rng.integers(1, 5)) for _ in range(3))
        A = rng.standard_normal((2 * r, 2 * t))
        B = rng.standard_normal((2 * t, 2 * s))
        left = sharp_adjoint(A @ B)
        right = sharp_adjoint(B) @ sharp_adjoint(A)
        assert np.linalg.norm(left - right) <= 1e-10 * max(1.0, np.linalg.norm(left))

    def test_product_rule_rectangular(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((2, 4))
        B = rng.standard_normal((4, 2))
        assert np.allclose(sharp_adjoint(A @ B), sharp_adjoint(B) @ sharp_adjoint(A))

    def test_symplectic_inverse(self):
        rng = np.random.default_rng(3)
        from helpers import random_symplectic
        T = random_symplectic(3, rng)
        assert np.allclose(T @ sharp_adjoint(T), np.eye(6), atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 6), (6, 2), (4, 8), (10, 4), (12, 12)])
    def test_bytes_of_the_dense_product(self, shape):
        # the dense product turns every zero into +0.0; block moves that
        # negated by -y would leave -0.0 where the input holds +0.0
        rng = np.random.default_rng(sum(shape))
        X = rng.standard_normal(shape)
        pick = rng.random(shape)
        X[pick < 0.25] = 0.0
        X[pick > 0.75] = -0.0
        assert np.signbit(X[X == 0.0]).any() and not np.signbit(X[X == 0.0]).all()
        reference = -jmat(shape[1] // 2) @ X.T @ jmat(shape[0] // 2)
        assert sharp_adjoint(X).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("shape", [(2, 4), (6, 2), (4, 4)])
    def test_complex_matches_dense_product(self, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        reference = -jmat(shape[1] // 2) @ X.conj().T @ jmat(shape[0] // 2)
        assert np.array_equal(sharp_adjoint(X), reference)


class TestIsSymplectic:
    def test_identity(self):
        check = is_symplectic(np.eye(4))
        assert check.ok and check.residual == 0.0

    def test_jmat(self):
        assert is_symplectic(jmat(2)).ok

    def test_diagonal_scaling_fails(self):
        check = is_symplectic(np.diag([2.0, 3.0]))
        assert not check.ok
        assert check.residual > 1.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(StructureError):
            is_symplectic(np.eye(3))


class TestNumericalRank:
    def test_zero_matrix(self):
        res = numerical_rank(np.zeros((3, 4)))
        assert res.rank == 0
        assert res.kernel.dim == 4
        assert res.image.dim == 0

    def test_identity(self):
        res = numerical_rank(np.eye(5))
        assert res.rank == 5 and res.kernel.dim == 0

    def test_rank_one_column(self):
        res = numerical_rank(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert res.rank == 1
        assert np.allclose(np.abs(res.kernel.basis), [[0.0], [1.0]])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_image_kernel_split(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = (int(rng.integers(1, 8)) for _ in range(2))
        rho = int(rng.integers(0, min(rows, cols) + 1))
        F = (rng.standard_normal((rows, rho)) @ rng.standard_normal((rho, cols))
             if rho else np.zeros((rows, cols)))
        res = numerical_rank(F)
        assert res.rank + res.kernel.dim == cols
        assert res.rank == rho
        if res.rank and res.kernel.dim:
            cross = res.image.basis.T @ F @ res.kernel.basis
            assert np.linalg.norm(cross) < 1e-10 * max(1.0, np.linalg.norm(F))

    def test_policy_scale(self):
        F = np.diag([1.0, 1e-9])
        assert numerical_rank(F).rank == 2
        assert numerical_rank(F, TolerancePolicy(scale=1e8)).rank == 1

    def test_parallel_columns(self):
        res = numerical_rank(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))
        assert res.rank == 1 and res.image.dim == 1 and res.kernel.dim == 1
        assert np.allclose(np.abs(res.image.basis), [[1.0], [1.0], [0.0]] / np.sqrt(2.0))

    @pytest.mark.parametrize("shape", [(4, 0), (0, 4)])
    def test_empty_input(self, shape):
        res = numerical_rank(np.zeros(shape))
        assert res.rank == 0 and res.decision.values.size == 0
        assert res.image.basis.shape == (shape[0], 0)
        assert res.kernel.basis.shape == (shape[1], shape[1])
        assert np.allclose(res.kernel.basis.T @ res.kernel.basis, np.eye(shape[1]))


class TestSkewCanonical:
    def test_zero_matrix(self):
        form = skew_canonical(np.zeros((3, 3)))
        assert form.k == 0
        assert np.allclose(form.U, np.eye(3))

    def test_already_canonical(self):
        form = skew_canonical(3.0 * jmat(1))
        assert form.k == 1
        assert np.allclose(form.mus, [3.0])
        assert np.allclose(form.U, np.eye(2))

    def test_permuted_pairs(self):
        M = np.array([
            [0.0, 0.0, 6.0, 0.0],
            [0.0, 0.0, 0.0, 2.0],
            [-6.0, 0.0, 0.0, 0.0],
            [0.0, -2.0, 0.0, 0.0],
        ])
        form = skew_canonical(M)
        assert form.k == 2
        assert np.allclose(form.mus, [6.0, 2.0])
        perm = np.zeros((4, 4))
        perm[0, 0] = perm[2, 1] = perm[1, 2] = perm[3, 3] = 1.0
        assert np.allclose(form.U, perm)
        assert np.allclose(form.U.T @ M @ form.U, _block_matrix(form), atol=1e-12)

    def test_non_skew_rejected(self):
        with pytest.raises(StructureError):
            skew_canonical(np.array([[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.filterwarnings("error")
    def test_skew_test_is_scale_free(self):
        # ||1e200 J||_F overflows float64; the test must not need it
        form = skew_canonical(1e200 * jmat(2))
        assert form.k == 2 and np.array_equal(form.mus, [1e200, 1e200])
        with pytest.raises(StructureError):
            skew_canonical(np.array([[0.0, 1e200], [1e200, 0.0]]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 41))
        A = rng.standard_normal((dim, dim))
        M = A - A.T
        form = skew_canonical(M)
        norm = max(np.linalg.norm(M), 1e-30)
        recon = form.U @ _block_matrix(form) @ form.U.T
        assert np.linalg.norm(M - recon) <= 1e-9 * norm
        assert np.linalg.norm(form.U.T @ form.U - np.eye(dim)) <= 1e-10
        assert np.all(np.diff(form.mus) <= 1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((6, 6))
        form = skew_canonical(A - A.T)
        for i in range(form.k):
            u = form.U[:, 2 * i]
            lead = u[np.argmax(np.abs(u) > 1e-8)]
            assert lead > 0


class TestLazyKernelColumns:
    """The kernel columns of skew_canonical's U must span the near-null
    eigenvectors of 1j*M that an eigh reference gives."""

    @staticmethod
    def _null_projector(M, form):
        K = 0.5 * (M - M.T)
        lam, W = np.linalg.eigh(1j * K)
        Wk = W[:, np.abs(lam) <= form.decision.cutoff]
        Uo, _, _ = np.linalg.svd(np.hstack([Wk.real, Wk.imag]), full_matrices=False)
        basis = Uo[:, :K.shape[0] - 2 * form.k]
        return basis @ basis.T

    @staticmethod
    def _cases():
        rng = np.random.default_rng(41)
        cases = [np.zeros((3, 3)), 3.0 * jmat(2), _block_skew([2.0, 1.0], 7, 4),
                 _block_skew([1.0, 1.0, 0.5], 10, 5)]
        for size in (5, 8, 11):
            A = rng.standard_normal((size, size))
            cases.append(A - A.T)
        return cases

    @pytest.mark.parametrize("case", range(7))
    def test_completed_on_first_read(self, case):
        M = self._cases()[case]
        form = skew_canonical(M)
        pairs = form.pairs
        U = form.U
        assert form.U is U and not U.flags.writeable
        assert U.shape == (M.shape[0], M.shape[0])
        assert np.array_equal(U[:, :2 * form.k], pairs)
        assert np.abs(U.T @ U - np.eye(M.shape[0])).max() <= 1e-14
        assert np.abs(U.T @ M @ U - _block_matrix(form)).max() <= 1e-14 * max(1.0, np.abs(M).max())
        kernel = U[:, 2 * form.k:]
        assert np.abs(kernel @ kernel.T - self._null_projector(M, form)).max() <= 1e-12


def _canonical_pair(K: np.ndarray, w: np.ndarray):
    """Extract an orthonormal (u, v) with K u = -mu v, K v = mu u from an
    eigenvector of 1j*K, with a deterministic in-plane orientation."""
    Ew = np.column_stack([w.real, w.imag])
    Uo, sv, _ = np.linalg.svd(Ew, full_matrices=False)
    if sv[1] >= 0.3 * sv[0]:
        # clean complex eigenvector: its real and imaginary parts already
        # carry the invariant 2-plane
        g1, g2 = Uo[:, 0], Uo[:, 1]
    else:
        # +mu and -mu eigenvectors mixed (mu at rounding scale); recover the
        # second plane direction through K itself
        g1 = Uo[:, 0]
        t = K @ g1
        t = t - g1 * (g1 @ t)
        g2 = t / np.linalg.norm(t)
    plane = np.column_stack([g1, g2])
    # orient u toward the first standard axis with a solid footprint in the plane
    rows = np.linalg.norm(plane, axis=1)
    j = int(np.argmax(rows >= 1e-2 * rows.max()))
    u = plane @ plane[j]
    u = u / np.linalg.norm(u)
    # the partner is the in-plane unit vector orthogonal to u, oriented so
    # that u^T K v > 0; staying inside the plane avoids amplifying rounding
    # by the spread of the spectrum
    v = g2 * (u @ g1) - g1 * (u @ g2)
    v = v / np.linalg.norm(v)
    t_val = float(u @ K @ v)
    if t_val < 0:
        v = -v
        t_val = -t_val
    return u, v, t_val


def _pairwise_canonical(M: np.ndarray, policy: TolerancePolicy):
    """Reference for the pairs of skew_canonical: one eigenvector at a time,
    then a stable sort by descending mu.  Returns (U_pairs, mus, mixed)
    with ``mixed`` the number of pairs that took the fallback through K."""
    K = 0.5 * (M - M.T)
    lam, W = np.linalg.eigh(1j * K)
    cut = policy.decide(lam, K.shape[0] * float(np.max(np.abs(lam))), "reference").cutoff
    pairs = []
    mixed = 0
    for i in range(K.shape[0] - 1, -1, -1):
        if lam[i] <= cut:
            break
        sv = np.linalg.svd(np.column_stack([W[:, i].real, W[:, i].imag]), compute_uv=False)
        mixed += int(sv[1] < 0.3 * sv[0])
        u, v, mu = _canonical_pair(K, W[:, i])
        pairs.append((mu, u, v))
    pairs.sort(key=lambda item: -item[0])
    U = np.zeros((K.shape[0], 2 * len(pairs)))
    for i, (_, u, v) in enumerate(pairs):
        U[:, 2 * i] = u
        U[:, 2 * i + 1] = v
    return U, np.array([mu for mu, _, _ in pairs]), mixed


def _block_skew(mus, size: int, seed: int) -> np.ndarray:
    """Q blockdiag(mu_1 J_2, ..., 0) Q^T with a Haar orthogonal Q."""
    B = np.zeros((size, size))
    for i, mu in enumerate(mus):
        B[2 * i, 2 * i + 1] = mu
        B[2 * i + 1, 2 * i] = -mu
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((size, size)))
    return Q @ B @ Q.T


def _skew_cases(size: int, seed: int):
    """Skew matrices of one size: a random one, a block-diagonal one whose
    tridiagonal form splits exactly, one with a repeated mu and one of rank
    at most 2 * (size // 4)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((size, size))
    split = np.zeros((size, size))
    for block in np.array_split(np.arange(size), 3):
        G = rng.standard_normal((block.size, block.size))
        split[np.ix_(block, block)] = G - G.T
    repeated = _block_skew([1.5] * (size // 2 - size // 4) + [0.5] * (size // 4), size, seed)
    X = rng.standard_normal((size, 2 * (size // 4)))
    deficient = X @ jmat(size // 4) @ X.T if size >= 4 else np.zeros((size, size))
    return [A - A.T, split, repeated, deficient]


class TestRealRoute:
    """The Hessenberg-bidiagonal route against the eigenvalues of 1j*K."""

    @pytest.mark.parametrize("size", range(1, 61))
    def test_spectrum_and_basis(self, size):
        for M in _skew_cases(size, 500 + size):
            form = skew_canonical(M)
            norm = max(np.linalg.norm(M), 1e-300)
            lam = np.linalg.eigvalsh(1j * M)[::-1]
            assert np.max(np.abs(form.decision.values - lam)) <= 1e-12 * norm
            assert np.array_equal(form.mus, form.decision.values[:form.k])
            U = form.U
            assert np.max(np.abs(U.T @ U - np.eye(size))) <= 1e-13
            assert np.max(np.abs(U.T @ M @ U - _block_matrix(form))) <= 1e-12 * norm

    def test_pairs_fit_the_form(self):
        # the cutoff is never negative, and only the floor(s/2) values sigma
        # can exceed it, so no form holds more pairs than fit, even at the
        # smallest scale and bound, where the cutoff underflows to 0
        for size in range(1, 8):
            for M in _skew_cases(size, 700 + size) + [np.zeros((size, size))]:
                for policy, bound in ((TolerancePolicy(5e-324), 1.0), (TolerancePolicy(), 0.0)):
                    form = skew_canonical(M, policy=policy, bound=bound)
                    assert 2 * form.k <= size
                    assert form.U.shape == (size, size) and form.mus.size == form.k


class TestBatchedPairs:
    """skew_canonical takes every pair from one bidiagonal SVD; a loop over
    the eigenvectors of 1j*K is the reference."""

    @staticmethod
    def _assert_matches(M, policy=TolerancePolicy()):
        U_ref, mus_ref, mixed = _pairwise_canonical(M, policy)
        form = skew_canonical(M, policy=policy)
        assert form.k == mus_ref.size
        assert np.max(np.abs(form.U[:, :2 * form.k] - U_ref), initial=0.0) <= 1e-12
        assert np.max(np.abs(form.mus - mus_ref), initial=0.0) <= 1e-12
        return mixed

    def test_random_skew(self):
        rng = np.random.default_rng(12)
        for size in range(2, 61):
            A = rng.standard_normal((size, size))
            assert self._assert_matches(A - A.T) == 0

    def test_repeated_mu(self):
        # inside a repeated mu any orthonormal pairs are canonical, so the
        # reference is compared per mu cluster, by the projector on its span
        policy = TolerancePolicy()
        for seed in range(10):
            M = _block_skew([2.0, 2.0, 2.0, 1.0], 10, seed)
            U_ref, mus_ref, _ = _pairwise_canonical(M, policy)
            form = skew_canonical(M, policy=policy)
            assert form.k == mus_ref.size == 4
            assert np.max(np.abs(form.mus - mus_ref)) <= 1e-12
            for cluster in (slice(0, 6), slice(6, 8)):
                P, P_ref = form.pairs[:, cluster], U_ref[:, cluster]
                assert np.max(np.abs(P @ P.T - P_ref @ P_ref.T)) <= 1e-12

    def test_rounding_scale_mu_takes_mixed_fallback(self):
        # a policy below the default scale keeps a mu at rounding scale, where
        # the +mu and -mu eigenvectors of 1j*K mix; its pair must still span
        # an orthonormal K-invariant plane carrying mu J_2
        policy = TolerancePolicy(scale=1e-2)
        for seed in range(20):
            M = _block_skew([1.0, 0.5, 1e-15], 8, seed)
            form = skew_canonical(M, policy=policy)
            assert form.k >= 3
            assert np.max(np.abs(form.mus[:3] - [1.0, 0.5, 1e-15])) <= 1e-12
            P = form.pairs[:, 4:6]
            assert np.max(np.abs(P.T @ P - np.eye(2))) <= 1e-14
            assert np.max(np.abs(M @ P - P @ (P.T @ M @ P))) <= 1e-14
            assert np.max(np.abs(P.T @ M @ P - form.mus[2] * jmat(1))) <= 1e-14


class TestPrincipalAngles:
    """Principal-angle cases, read through largest_angle."""

    def test_identical(self):
        B = SubspaceBasis(np.eye(4)[:, :2])
        assert largest_angle(B, B) == 0.0

    def test_orthogonal_lines(self):
        A = SubspaceBasis(np.eye(2)[:, :1])
        B = SubspaceBasis(np.eye(2)[:, 1:])
        assert np.isclose(largest_angle(A, B), np.pi / 2)

    def test_diagonal_line(self):
        A = SubspaceBasis(np.eye(2)[:, :1])
        B = SubspaceBasis(np.array([[1.0], [1.0]]) / np.sqrt(2))
        assert np.isclose(largest_angle(A, B), np.pi / 4)

    def test_ambient_mismatch(self):
        with pytest.raises(StructureError):
            largest_angle(SubspaceBasis(np.eye(2)), SubspaceBasis(np.eye(4)))

    def test_empty_subspace(self):
        A = SubspaceBasis(np.zeros((4, 0)))
        B = SubspaceBasis(np.eye(4)[:, :2])
        assert largest_angle(A, B) == np.pi / 2


class TestLargestAngle:
    @pytest.mark.parametrize("cols", [1, 2])
    def test_ambient_mismatch_raises(self, cols):
        # a line in R^2 against a line or a plane in R^4
        with pytest.raises(StructureError):
            largest_angle(SubspaceBasis(np.eye(2)[:, :1]), SubspaceBasis(np.eye(4)[:, :cols]))

    def test_dimension_mismatch_is_right_angle(self):
        A = SubspaceBasis(np.eye(3)[:, :1])
        B = SubspaceBasis(np.eye(3)[:, :2])
        assert largest_angle(A, B) == np.pi / 2

    def test_both_empty(self):
        assert largest_angle(SubspaceBasis(np.zeros((3, 0))), SubspaceBasis(np.zeros((3, 0)))) == 0.0

    @pytest.mark.parametrize("t", [1e-12, 1e-9, 1e-5, 0.3, np.pi / 4, 1.2, np.pi / 2])
    def test_plane_rotated_by_t(self, t):
        # span(e0, e1) against span(e0, cos t e1 + sin t e2); below 1e-8 the
        # cosine of t rounds to 1, so this fails where the angle is read off it
        A = SubspaceBasis(np.eye(3)[:, :2])
        B = SubspaceBasis(np.array([[1.0, 0.0], [0.0, np.cos(t)], [0.0, np.sin(t)]]))
        assert abs(largest_angle(A, B) - t) <= 1e-15 + 1e-14 * t


class TestRankDecision:
    def test_margin_of_hand_made_spectrum(self):
        decision = RankDecision("hand", 2, 0.1, np.array([4.0, 2.0, 0.05, 0.0]))
        assert decision.margin == pytest.approx(2.0)
        assert str(decision) == "hand: rank 2 at cutoff 1.000e-01 (margin 2)"
        # a side with no positive value does not limit the margin
        assert RankDecision("hand", 2, 0.5, np.array([3.0, 1.0, 0.0, -1.0])).margin == 2.0
        assert RankDecision("hand", 0, 0.5, np.array([0.125])).margin == 4.0

    def test_decide_sorts_and_counts(self):
        policy = TolerancePolicy(scale=0.1 / EPS)
        decision = policy.decide([0.05, 4.0, 0.0, 2.0], 1.0, "hand")
        assert decision.rank == 2 and decision.stage == "hand"
        assert np.array_equal(decision.values, [4.0, 2.0, 0.05, 0.0])
        assert decision.cutoff == pytest.approx(0.1)
        assert decision.margin == pytest.approx(2.0)

    def test_zero_spectrum(self):
        decision = TolerancePolicy().decide(np.zeros(3), 0.0, "zero")
        assert decision.rank == 0 and decision.cutoff == ZERO_LEVEL
        assert decision.margin == np.inf

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ValidationError, match="tolerance scale positive and finite"):
            TolerancePolicy(scale=scale)


class TestSubspaceBasis:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(StructureError):
            SubspaceBasis(np.array([[1.0, 1.0], [0.0, 0.0]]))


class TestInternalHelpers:
    def test_gram_schmidt_polish(self):
        rng = np.random.default_rng(5)
        from helpers import random_symplectic
        Z = random_symplectic(3, rng) + 1e-6 * rng.standard_normal((6, 6))
        polished, scales = symplectic_gram_schmidt(Z, 3)
        J = jmat(3)
        assert np.linalg.norm(polished.T @ J @ polished - J) < 1e-12
        assert np.allclose(scales, 1.0, atol=1e-4)

    @pytest.mark.parametrize("r, noise", [(1, 1e-4), (4, 1e-4), (12, 1e-4), (12, 1e-8), (30, 1e-2)])
    def test_polish_is_a_least_correction(self, r, noise):
        # symplectic to rounding, and no further from the pair-scaled input
        # Z0 than its form residual times its norm, the size of one Newton step
        from helpers import random_symplectic
        rng = np.random.default_rng(8)
        Z = random_symplectic(r, rng) + noise * rng.standard_normal((2 * r, 2 * r))
        polished, scales = symplectic_gram_schmidt(Z, r)
        J = jmat(r)
        residual = np.abs(polished.T @ J @ polished - J).max()
        assert residual <= 2 * r * EPS * np.linalg.norm(polished, 2) ** 2
        Z0 = Z * np.concatenate([scales, scales])
        step = np.linalg.norm(Z0.T @ J @ Z0 - J) * np.linalg.norm(Z0, 2)
        assert np.linalg.norm(polished - Z0) <= step

    @pytest.mark.parametrize("r", [1, 5, 12])
    def test_symplectic_input_unchanged(self, r):
        from helpers import random_symplectic
        Z = random_symplectic(r, np.random.default_rng(3))
        polished, scales = symplectic_gram_schmidt(Z, r)
        assert np.linalg.norm(polished - Z) <= 1e-14 * np.linalg.norm(Z)
        assert np.allclose(scales, 1.0, rtol=0, atol=1e-14)
        exact, scales = symplectic_gram_schmidt(np.eye(2 * r), r)
        assert np.array_equal(exact, np.eye(2 * r))
        assert np.array_equal(scales, np.ones(r))

    @pytest.mark.parametrize("columns, sources, detail", [
        # pair 1 repeats pair 0: each pairs at 1, yet no step can separate them
        ([1, 5], [0, 4], "lost its symplectic pairing during polishing (residual"),
        # the partner of pair 2 is its own first column: omega = 0
        ([6], [2], "column pair 2 lost its symplectic pairing during polishing (omega=0.000e+00)"),
    ], ids=["dependent_pairs", "zero_pairing"])
    def test_lost_pairing_raises(self, columns, sources, detail):
        from helpers import random_symplectic
        Z = random_symplectic(4, np.random.default_rng(4))
        Z[:, columns] = Z[:, sources]
        with pytest.raises(RankAmbiguityError) as info:
            symplectic_gram_schmidt(Z, 4)
        assert detail in str(info.value)

    def test_scales_are_inverse_root_pairings(self):
        from helpers import random_symplectic
        rng = np.random.default_rng(6)
        r = 5
        c = rng.uniform(0.5, 3.0, r)
        Z = random_symplectic(r, rng) * np.concatenate([c, c])
        w = np.diagonal(Z.T @ jmat(r) @ Z, offset=r)
        _, scales = symplectic_gram_schmidt(Z, r)
        assert np.allclose(scales, 1.0 / np.sqrt(w), rtol=1e-14, atol=0)
        assert np.allclose(scales, 1.0 / c, rtol=1e-12, atol=0)


class TestLapackLoader:
    def test_is_scipys_own_module_once_scipy_linalg_is_loaded(self, monkeypatch):
        flapack = sys.modules["scipy.linalg._flapack"]
        assert _lapack() is flapack
        # past the cache, which an earlier test may have filled: the
        # registered module is returned without a search of scipy's files
        monkeypatch.setattr("symkal.linalg.FileFinder", None)
        assert _lapack.__wrapped__() is flapack
        for name in ("dgehrd", "dorghr", "dggev"):
            assert getattr(_lapack(), name) is getattr(scipy.linalg.lapack, name)
