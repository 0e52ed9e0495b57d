import dataclasses

import numpy as np
import pytest

from helpers import (
    POPULATION_POLICY,
    factor_case,
    factor_population,
    random_symplectic,
    structured_system,
)
from symkal import (
    CanonicalE,
    RankAmbiguityError,
    StructureError,
    TolerancePolicy,
    jmat,
    kalman_decompose,
    largest_angle,
    numerical_rank,
    one_sided_symplectic_svd,
    random_system,
    skew_canonical,
    verify_factorization,
)
from symkal.factorization import factor_count_oracles
from symkal.model import krylov_matrices


class TestCanonicalE:
    def test_materialize_pattern(self):
        E = CanonicalE(s=5, r=3, k=1, l=1, xi=np.array([2.0]))
        mat = E.materialize()
        expected = np.zeros((5, 6))
        expected[0, 0] = 2.0
        expected[1, 1] = 1.0
        expected[2, 3] = 2.0
        assert np.array_equal(mat, expected)
        assert E.kernel_column_indices() == [2, 4, 5]
        assert E.d == 1

    def test_count_constraints(self):
        with pytest.raises(StructureError):
            CanonicalE(s=2, r=2, k=2, l=0, xi=np.ones(2))
        with pytest.raises(StructureError):
            CanonicalE(s=4, r=1, k=1, l=1, xi=np.ones(1))
        with pytest.raises(StructureError):
            CanonicalE(s=4, r=2, k=1, l=0, xi=np.array([-1.0]))
        with pytest.raises(StructureError):
            CanonicalE(s=4, r=2, k=1, l=0, xi=np.ones(2))


class TestSpecialCases:
    def test_identity(self):
        fact = one_sided_symplectic_svd(np.eye(2))
        assert (fact.E.k, fact.E.l) == (1, 0)
        assert np.allclose(fact.E.xi, [1.0])
        assert np.allclose(fact.Q, np.eye(2))
        assert np.allclose(fact.Z, np.eye(2))
        assert np.allclose(fact.E.materialize(), np.eye(2))

    def test_rank_one_isotropic(self):
        F = np.array([[1.0, 0.0], [0.0, 0.0]])
        fact = one_sided_symplectic_svd(F)
        assert (fact.E.k, fact.E.l) == (0, 1)
        assert np.allclose(fact.E.materialize(), F)
        assert np.allclose(np.abs(fact.Q), np.eye(2))
        assert np.allclose(np.abs(fact.Z), np.eye(2))

    def test_diagonal_two_three(self):
        F = np.diag([2.0, 3.0])
        fact = one_sided_symplectic_svd(F)
        assert (fact.E.k, fact.E.l) == (1, 0)
        assert np.allclose(fact.E.xi, [np.sqrt(6.0)])
        report = verify_factorization(F, fact)
        assert report.passed

    def test_zero_matrix(self):
        F = np.zeros((3, 4))
        fact = one_sided_symplectic_svd(F)
        assert (fact.E.k, fact.E.l) == (0, 0)
        assert not fact.E.materialize().any()
        assert verify_factorization(F, fact).passed

    def test_single_row(self):
        F = np.array([[1.0, 2.0, 3.0, 4.0]])
        fact = one_sided_symplectic_svd(F)
        assert (fact.E.k, fact.E.l) == (0, 1)
        assert verify_factorization(F, fact).passed

    def test_odd_columns_rejected(self):
        with pytest.raises(StructureError):
            one_sided_symplectic_svd(np.ones((2, 3)))


class TestPostconditionBattery:
    @pytest.mark.parametrize("idx", range(60))
    def test_strict_postconditions(self, idx):
        F = factor_population(60, base_seed=7000)[idx]
        fact = one_sided_symplectic_svd(F)
        report = verify_factorization(F, fact)
        assert report.passed, report.as_dict()

    def test_forced_k0(self):
        F = factor_case(11, "k0")
        fact = one_sided_symplectic_svd(F)
        assert fact.E.k == 0
        k_oracle, l_oracle = factor_count_oracles(F)
        assert k_oracle == 0 and l_oracle == fact.E.l > 0

    def test_forced_l0(self):
        F = factor_case(12, "l0")
        fact = one_sided_symplectic_svd(F)
        assert fact.E.l == 0

    def test_strict_xi_matches_skew_spectrum(self):
        rng = np.random.default_rng(17)
        F = rng.standard_normal((10, 8))
        fact = one_sided_symplectic_svd(F)
        M = F @ jmat(4) @ F.T
        mus = skew_canonical(0.5 * (M - M.T)).mus
        assert np.allclose(np.sort(fact.E.xi ** 2),
                           np.sort(mus[:fact.E.k]), rtol=1e-8)
        # Xu's form: the xi run repeats below the unit l-block
        k, l, r = fact.E.k, fact.E.l, fact.E.r
        E = fact.E.materialize()
        assert np.array_equal(E[k + l + np.arange(k), r + np.arange(k)], fact.E.xi)
        assert np.all(E[k + np.arange(l), k + np.arange(l)] == 1.0)

    def test_kernel_transport(self):
        # Ker F equals Z applied to the pattern kernel
        for seed in (3, 4, 5, 6):
            F = factor_case(seed, "deficient")
            fact = one_sided_symplectic_svd(F)
            kernel = numerical_rank(F).kernel
            z_kernel = numerical_rank(
                np.asarray(fact.Z)[:, fact.E.kernel_column_indices()]).image
            assert kernel.dim == z_kernel.dim
            if kernel.dim:
                assert largest_angle(kernel, z_kernel) <= 1e-7

    @pytest.mark.parametrize("seed", range(5))
    def test_counts_invariant_under_gauge(self, seed):
        # left-orthogonal and right-symplectic factors leave (k, l) alone
        rng = np.random.default_rng(1000 + seed)
        F = factor_case(seed, "deficient")
        s, cols = F.shape
        r = cols // 2
        Q0, _ = np.linalg.qr(rng.standard_normal((s, s)))
        Sy = random_symplectic(r, rng)
        base = one_sided_symplectic_svd(F)
        moved = one_sided_symplectic_svd(Q0 @ F @ Sy)
        assert (moved.E.k, moved.E.l) == (base.E.k, base.E.l)
        assert np.allclose(np.sort(moved.E.xi), np.sort(base.E.xi),
                           rtol=1e-7, atol=1e-10)


class TestVerifyFactorization:
    def test_detects_corrupted_z(self):
        F = np.random.default_rng(21).standard_normal((6, 6))
        fact = one_sided_symplectic_svd(F)
        Z_bad = np.array(fact.Z)
        Z_bad[0, 0] += 0.1
        corrupted = dataclasses.replace(fact, Z=Z_bad)
        report = verify_factorization(F, corrupted)
        assert not report.z_symplectic_ok
        assert not report.passed

    def test_detects_wrong_counts(self):
        F = np.eye(4)
        fact = one_sided_symplectic_svd(F)
        report = verify_factorization(F, fact)
        assert report.counts_ok and report.k_oracle == 2 and report.l_oracle == 0

    def test_shape_mismatch(self):
        fact = one_sided_symplectic_svd(np.eye(2))
        with pytest.raises(StructureError):
            verify_factorization(np.eye(4), fact)


class _InconsistentPolicy(TolerancePolicy):
    """Counts every spectral value, however tiny, as significant."""

    def cutoff(self, bound):
        return -1.0


class TestRankAmbiguity:
    def test_forced_inconsistency_raises(self):
        # an all-noise form then claims more pairs than rank(F) allows
        F = factor_case(31, "k0")
        with pytest.raises(RankAmbiguityError) as info:
            one_sided_symplectic_svd(F, policy=_InconsistentPolicy())
        assert info.value.decisions

    def test_oracle_counts(self):
        k, l = factor_count_oracles(np.diag([2.0, 1.0]))
        assert (k, l) == (1, 0)

    def test_oracle_odd_rank_raises(self):
        # a policy that counts spectral noise makes the thresholded rank of
        # F J F^T odd on an odd-row input
        with pytest.raises(RankAmbiguityError):
            factor_count_oracles(np.zeros((3, 4)), _InconsistentPolicy())


def _dense_counts(F, scale: float = 1.0) -> tuple[int, int]:
    """(k, l) from the full s x s product F J F^T, with plain numpy: the
    route the factorization compresses away, kept here as the reference."""
    s, cols = F.shape
    r = cols // 2
    eps = np.finfo(float).eps
    J = np.block([[np.zeros((r, r)), np.eye(r)], [-np.eye(r), np.zeros((r, r))]])
    sv_f = np.linalg.svd(F, compute_uv=False)
    sv_m = np.linalg.svd(F @ J @ F.T, compute_uv=False)
    cut_m = scale * max(s * eps * sv_m[0], max(s, cols) * eps * sv_f[0] ** 2)
    cut_f = scale * max(s, cols) * eps * sv_f[0]
    rank_m = int(np.sum(sv_m > cut_m))
    rank_f = int(np.sum(sv_f > cut_f))
    assert rank_m % 2 == 0
    return rank_m // 2, rank_f - rank_m


def _tall_stacks():
    """(stack, policy, known (k, l) or None): the 384 x 12 stack of a
    random n=6, m=16 system and the 80 x 10 stack of a structured
    (k, l, d) = (2, 2, 1) system."""
    wide = random_system(6, 16, seed=3)
    structured = structured_system(5, 2, 2, 1, m_core=2)
    return [
        (np.asarray(krylov_matrices(wide).observability), TolerancePolicy(), None),
        (np.asarray(krylov_matrices(structured).observability), POPULATION_POLICY, (2, 2)),
    ]


class TestCompressedRoute:
    @pytest.mark.parametrize("case", range(2))
    def test_tall_stack_counts_match_dense_reference(self, case):
        F, policy, known = _tall_stacks()[case]
        assert F.shape[0] > 4 * F.shape[1]
        dense = _dense_counts(F, policy.scale)
        if known is not None:
            assert dense == known
        assert factor_count_oracles(F, policy) == dense
        fact = one_sided_symplectic_svd(F, policy=policy)
        assert (fact.E.k, fact.E.l) == dense
        report = verify_factorization(F, fact, policy=policy)
        assert report.passed, report.as_dict()

    @pytest.mark.parametrize("shape", [(3, 8), (5, 12)])
    def test_wide_input(self, shape):
        # s < 2r: the kernel lies beyond the thin SVD factor
        F = np.random.default_rng(shape[0]).standard_normal(shape)
        fact = one_sided_symplectic_svd(F)
        assert (fact.E.k, fact.E.l) == _dense_counts(F)
        assert verify_factorization(F, fact).passed

    def test_no_stack_sized_eigh(self, monkeypatch):
        F = _tall_stacks()[0][0]
        two_r = F.shape[1]
        shapes = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        one_sided_symplectic_svd(F)
        assert shapes
        assert all(max(shape) <= two_r for shape in shapes), shapes


def _isotropic_image_stack(rho: float, seed: int) -> np.ndarray:
    """F = M W^T of shape 12 x 8 with (k, l) = (0, 2): W holds two
    position-only columns of a random orthogonal 4 x 4, and M has singular
    values (1, rho), so the image of the paired directions has condition
    1 / rho."""
    rng = np.random.default_rng(seed)
    O, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    W = np.vstack([O[:, :2], np.zeros((4, 2))])
    U, _ = np.linalg.qr(rng.standard_normal((12, 2)))
    V, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    return (U * [1.0, rho]) @ V.T @ W.T


class TestStrictWhitening:
    """The factorization whitens the l-block image through a thresholded SVD and
    the triangular factor of that image, not a Cholesky of its Gram matrix."""

    @pytest.mark.parametrize("seed", range(20))
    def test_ill_conditioned_image_verifies(self, seed):
        F = _isotropic_image_stack(1e-6, seed)
        fact = one_sided_symplectic_svd(F)
        assert (fact.k, fact.l) == (0, 2)
        report = verify_factorization(F, fact)
        assert report.passed, report.as_dict()

    @pytest.mark.parametrize("seed", range(20))
    def test_rank_deficient_image_raises(self, seed):
        F = _isotropic_image_stack(1e-9, seed)
        with pytest.raises(RankAmbiguityError):
            one_sided_symplectic_svd(F)


class TestLazyQ:
    """The s x s Q is completed on first read, never on the decompose path."""

    def test_no_stack_squared_svd(self, monkeypatch):
        system = random_system(6, 16, seed=3)
        s = 4 * system.n * system.m
        sizes = []
        svd = np.linalg.svd

        def recording_svd(*args, **kwargs):
            out = svd(*args, **kwargs)
            sizes.extend(np.size(part) for part in (out if isinstance(out, tuple) else (out,)))
            return out

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        kalman_decompose(system)
        assert sizes
        assert max(sizes) < s * s, max(sizes)

    @pytest.mark.parametrize("make, counts, svd_calls", [
        # the kernel branch: the stack, the pairs of F J F^T and of the form
        # on Ker F, the kernel columns of that form, the two subspaces of
        # _paired_directions, the pairing, the whitening and the Q_lead check
        (lambda: structured_system(13, 1, 1, 1), (1, 1, 1), 9),
        # no kernel: the stack, the pairs and the Q_lead check
        (lambda: random_system(6, 16, seed=3), (6, 0, 0), 3),
    ])
    def test_svd_count(self, monkeypatch, make, counts, svd_calls):
        # the kernel columns of the skew form of F J F^T are never read, so
        # their SVD is never paid
        system = make()
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        dec = kalman_decompose(system)
        assert (dec.k, dec.l, dec.d) == counts
        assert len(calls) == svd_calls, calls

    def test_q_completed_on_first_read(self):
        F = np.asarray(krylov_matrices(random_system(6, 16, seed=3)).observability)
        fact = one_sided_symplectic_svd(F)
        s, p = fact.Q_lead.shape
        assert s == 384 and p < s
        Q = fact.Q
        assert Q.shape == (s, s)
        assert not Q.flags.writeable
        assert fact.Q is Q
        expected = np.hstack([fact.Q_lead, numerical_rank(fact.Q_lead.T, expected_rank=p).kernel.basis])
        assert np.array_equal(Q, expected)
        assert verify_factorization(F, fact).passed

    @pytest.mark.parametrize("case", range(2))
    def test_verify_reads_only_q_lead(self, case):
        F, policy, _ = _tall_stacks()[case]
        fact = one_sided_symplectic_svd(F, policy=policy)
        report = verify_factorization(F, fact, policy=policy)
        assert report.passed, report.as_dict()
        assert "Q" not in vars(fact)
        # reference: the checks on the completed square Q
        Q = fact.Q
        s = Q.shape[0]
        assert abs(report.q_residual - np.linalg.norm(Q.T @ Q - np.eye(s))) <= 1e-12
        assert abs(report.q_condition - np.linalg.cond(Q)) <= 1e-12 * np.linalg.cond(Q)
        reconstruction = np.linalg.norm(F @ fact.Z - Q @ fact.E.materialize())
        assert abs(report.reconstruction_residual - reconstruction) <= 1e-12 * np.linalg.norm(F)
