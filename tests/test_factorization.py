import dataclasses
import gc
import weakref

import numpy as np
import pytest

import symkal.factorization
import symkal.kalman
from helpers import (
    POPULATION_POLICY,
    STRUCTURED_SHAPES,
    factor_case,
    factor_population,
    mixed_population,
    random_symplectic,
    structured_split_input,
    structured_system,
    with_uncoupled_fields,
)
from symkal import (
    CanonicalE,
    ConsistencyError,
    RankAmbiguityError,
    StructureError,
    TolerancePolicy,
    jmat,
    kalman_decompose,
    largest_angle,
    numerical_rank,
    one_sided_symplectic_svd,
    random_system,
    sharp_adjoint,
    skew_canonical,
    verify_factorization,
)
from symkal.factorization import (
    OBSERVABLE,
    UNOBSERVABLE,
    VERIFY_TOL,
    _check_leading_columns,
    factor_count_oracles,
    slot_indices,
)
from symkal.linalg import DEFAULT_POLICY
from symkal.model import observability_stack


class TestCanonicalE:
    def test_materialize_pattern(self):
        E = CanonicalE(r=3, k=1, l=1, xi=np.array([2.0]))
        mat = E.materialize()
        # only the 2k + l nonzero rows are stored
        expected = np.zeros((3, 6))
        expected[0, 0] = 2.0
        expected[1, 1] = 1.0
        expected[2, 3] = 2.0
        assert np.array_equal(mat, expected)
        assert slot_indices(E.k, E.l, E.d, UNOBSERVABLE).tolist() == [2, 4, 5]
        assert E.d == 1

    def test_count_constraints(self):
        assert CanonicalE(r=2, k=2, l=0, xi=np.ones(2)).materialize().shape == (4, 4)
        with pytest.raises(StructureError):
            CanonicalE(r=2, k=-1, l=0, xi=np.ones(0))
        with pytest.raises(StructureError):
            CanonicalE(r=1, k=1, l=1, xi=np.ones(1))
        with pytest.raises(StructureError):
            CanonicalE(r=2, k=1, l=0, xi=np.array([-1.0]))
        with pytest.raises(StructureError):
            CanonicalE(r=2, k=1, l=0, xi=np.ones(2))


class TestSpecialCases:
    def test_identity(self):
        fact = one_sided_symplectic_svd(np.eye(2))
        assert (fact.E.k, fact.E.l) == (1, 0)
        assert np.allclose(fact.E.xi, [1.0])
        assert np.allclose(np.eye(2) @ fact.Z, fact.E.materialize())
        assert np.allclose(fact.Z, np.eye(2))
        assert np.allclose(fact.E.materialize(), np.eye(2))

    def test_rank_one_isotropic(self):
        F = np.array([[1.0, 0.0], [0.0, 0.0]])
        fact = one_sided_symplectic_svd(F)
        assert (fact.E.k, fact.E.l) == (0, 1)
        # E is the one nonzero row of F
        assert np.allclose(fact.E.materialize(), F[:1])
        # F Z = Q E with Q = diag(+-1)
        assert np.allclose(np.abs(F @ fact.Z), F)
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
                fact.Z[:, slot_indices(fact.E.k, fact.E.l, fact.E.d, UNOBSERVABLE)]).image
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
        # E has 2k + l = 2 rows: F needs at least as many, and any more
        # rows of zeros leave F Z = Q_lead E intact
        with pytest.raises(StructureError, match="at least 2 rows"):
            verify_factorization(np.ones((1, 2)), fact)
        assert verify_factorization(np.vstack([np.eye(2), np.zeros((3, 2))]), fact).passed

    def test_q_rounding_of_a_large_stack_passes(self):
        # Q_lead = F z_j / e_j carries the rounding of F z_j magnified by
        # ||F||_F ||z_j|| / |e_j|, here 1.5e10; its q_residual of about 1e-6
        # failed an absolute bound of 1e-8 with every other check passing
        sys, _ = structured_split_input(21, 159)
        F = observability_stack(sys, "jr")
        report = verify_factorization(F, one_sided_symplectic_svd(F))
        assert report.q_residual > 1e-7
        assert report.passed, report.as_dict()

    def test_non_orthogonal_q_lead_fails(self):
        F, policy, _ = _tall_stacks()[1]
        fact = one_sided_symplectic_svd(F, policy=policy)
        assert verify_factorization(F, fact, policy=policy).passed
        # one observable column of Z made 1e-6 longer lengthens its column
        # of Q_lead alike
        Z = np.array(fact.Z)
        Z[:, slot_indices(fact.E.k, fact.E.l, fact.E.d, OBSERVABLE)[0]] *= 1.0 + 1e-6
        report = verify_factorization(F, dataclasses.replace(fact, Z=Z), policy=policy)
        assert report.q_residual == pytest.approx(2e-6, rel=1e-3)
        assert not report.q_ok and not report.passed

    def test_q_bound_keeps_its_meaning_past_q_scale_1e8(self):
        # structured_split seed 21 input 129: the magnification q_scale is
        # 1.3e8, where VERIFY_TOL * q_scale = 1.3 passed any Q_lead.
        # ORTHONORMAL_TOL * q_scale = 1.2e-4 passes its rounding, 6.1e-7,
        # and fails one column of Q_lead made 1e-3 longer
        sys, _ = structured_split_input(21, 129)
        F = observability_stack(sys, "jr")
        fact = one_sided_symplectic_svd(F)
        obs = slot_indices(fact.E.k, fact.E.l, fact.E.d, OBSERVABLE)
        e = fact.E.materialize()[np.arange(obs.size), obs]
        q_scale = np.linalg.norm(F) * np.max(np.linalg.norm(fact.Z[:, obs], axis=0) / np.abs(e))
        assert 1e8 <= q_scale <= 1e9
        assert verify_factorization(F, fact).passed
        Z = np.array(fact.Z)
        Z[:, obs[0]] *= 1.0 + 1e-3
        report = verify_factorization(F, dataclasses.replace(fact, Z=Z))
        assert report.q_residual == pytest.approx(2e-3, rel=1e-2)
        assert report.q_residual < VERIFY_TOL * q_scale
        assert not report.q_ok


class _InconsistentPolicy(TolerancePolicy):
    """Counts every spectral value, however tiny, as significant."""

    def cutoff(self, bound):
        return -1.0


class TestRankAmbiguity:
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
        (observability_stack(wide, "jr"), TolerancePolicy(), None),
        (observability_stack(structured, "jr"), POPULATION_POLICY, (2, 2)),
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
        # no eigendecomposition at all, and the form F J F^T is reduced on
        # the rank F leading rows of the compressed stack only
        eigh_shapes, form_shapes = [], []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            eigh_shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        def recording_skew_canonical(M, *args, **kwargs):
            form_shapes.append(np.shape(M))
            return skew_canonical(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(symkal.factorization, "skew_canonical", recording_skew_canonical)
        for F, policy, _ in _tall_stacks():
            form_shapes.clear()
            fact = one_sided_symplectic_svd(F, policy=policy)
            rho = 2 * fact.E.k + fact.E.l
            assert rho == numerical_rank(F, policy).rank
            assert form_shapes[0] == (rho, rho), form_shapes
        assert eigh_shapes == []


def _eigh_pairs(F, policy) -> int:
    """Half the rank of F J F^T from the eigenvalues of 1j * R J R^T, with R
    the triangular factor of F: the route the factorization took before it
    reduced the form in real arithmetic, kept as the reference."""
    s, cols = F.shape
    R = np.linalg.qr(F, mode="r") if s > cols else F
    sigma_f = np.linalg.svd(R, compute_uv=False)[0]
    M = R @ jmat(cols // 2) @ R.T
    lam = np.linalg.eigvalsh(0.5j * (M - M.T))
    return int(np.count_nonzero(lam > policy.cutoff(max(s, cols) * sigma_f ** 2)))


class TestPairsAgainstEigh:
    """The factorization decides the same k as the eigendecomposition route
    on every population system of the tests."""

    @staticmethod
    def _decided_k(F, policy) -> int:
        try:
            return one_sided_symplectic_svd(F, policy=policy).E.k
        except RankAmbiguityError as exc:
            return next(d.rank for d in exc.decisions if d.stage == "skew_canonical")

    def test_mixed_population(self):
        for system in mixed_population(200, base_seed=2026):
            F = observability_stack(system, "jr")
            assert self._decided_k(F, POPULATION_POLICY) == _eigh_pairs(F, POPULATION_POLICY)

    @pytest.mark.parametrize("shape", STRUCTURED_SHAPES)
    def test_structured_shapes(self, shape):
        for seed in (3, 77, *range(40, 44), *range(100, 130)):
            F = observability_stack(structured_system(seed, *shape), "jr")
            k = self._decided_k(F, POPULATION_POLICY)
            assert k == _eigh_pairs(F, POPULATION_POLICY) == shape[0]


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


class _ImageCutoffPolicy(TolerancePolicy):
    """Raises the bound of the l-block image's decision alone, by 1e20, so
    that its cutoff keeps no value while every other decision is the
    default policy's."""

    def decide(self, values, bound, stage):
        if stage == "image of the paired directions":
            bound = 1e20 * bound
        return super().decide(values, bound, stage)


class TestStrictWhitening:
    """The factorization whitens the l-block image through a thresholded SVD and
    the triangular factor of that image, not a Cholesky of its Gram matrix."""

    def test_image_rank_short_of_l_raises_with_decision(self):
        F = observability_stack(structured_system(13, 1, 1, 1), "jr")
        assert one_sided_symplectic_svd(F).E.l == 1
        with pytest.raises(RankAmbiguityError) as info:
            one_sided_symplectic_svd(F, policy=_ImageCutoffPolicy())
        (decision,) = info.value.decisions
        assert decision.stage == "image of the paired directions" and decision.rank == 0
        assert str(info.value).startswith(
            "ambiguous rank decision: image of the paired directions gives rank 0, expected 1")
        assert str(decision) in str(info.value)

    @pytest.mark.parametrize("seed", range(20))
    def test_ill_conditioned_image_verifies(self, seed):
        for rho in (1e-6, 1e-9):
            F = _isotropic_image_stack(rho, seed)
            fact = one_sided_symplectic_svd(F)
            assert (fact.E.k, fact.E.l) == (0, 2)
            report = verify_factorization(F, fact)
            assert report.passed, report.as_dict()

    @pytest.mark.parametrize("seed", range(20))
    def test_nearly_singular_image_keeps_its_counts(self, seed):
        # at rho = 1e-12 the input fixes Ker F only to about eps / rho: the
        # kernel angle reads 8e-7 to 7e-5, past MAX_KERNEL_ANGLE, while the
        # counts, the reconstruction and Q pass
        rho = 1e-12
        F = _isotropic_image_stack(rho, seed)
        fact = one_sided_symplectic_svd(F)
        assert (fact.E.k, fact.E.l) == factor_count_oracles(F) == (0, 2)
        report = verify_factorization(F, fact)
        assert report.reconstruction_ok and report.q_ok and report.z_symplectic_ok
        assert report.kernel_angle <= 10 * np.finfo(float).eps / rho

    @pytest.mark.parametrize("seed, index, truth", [
        (66, 240, (2, 24, 1)),
        (57, 270, (2, 23, 5)),
        (40099, 311, (5, 27, 2)),
    ])
    def test_ill_conditioned_image_decomposes(self, seed, index, truth):
        # structured_split inputs whose l-block image has reciprocal
        # condition below 1e-8: the policy keeps rank l, and the answer verifies
        system, shape = structured_split_input(seed, index)
        assert shape == truth
        dec = kalman_decompose(system)
        assert (dec.k, dec.l, dec.d) == truth

    @pytest.mark.parametrize("index, truth", [(42, (2, 4, 1)), (145, (9, 7, 1))])
    def test_min_rcond_keeps_wrong_sizes_out(self, index, truth):
        # structured_split seed 11, once stopped by a reciprocal-condition
        # floor on the l-block image: the stack's counts and their oracle
        # both read one l too many, the reconstruction holds, and only the
        # kernel angle and the decomposition's checks keep the sizes out
        system, (k, l, d) = structured_split_input(11, index)
        assert (k, l, d) == truth
        F = observability_stack(system, "jr")
        fact = one_sided_symplectic_svd(F)
        assert (fact.E.k, fact.E.l) == factor_count_oracles(F) == (k, l + 1)
        report = verify_factorization(F, fact)
        assert report.reconstruction_ok and report.q_ok and report.counts_ok
        assert not report.kernel_ok
        with pytest.raises(ConsistencyError) as info:
            kalman_decompose(system)
        assert (info.value.report.k, info.value.report.l) == (k, l + 1)


class TestLazyQ:
    """No s x s Q and no s x (2k + l) Q_lead is formed on the decompose path.

    A C of rank 2n decides N = {0} without the stack, so the stack route is
    pinned on narrow systems (2m < 2n): random_system(6, 2, seed=3) takes it
    to (6, 0, 0)."""

    def test_no_stack_squared_svd(self, monkeypatch):
        system = random_system(6, 2, seed=3)
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

    @staticmethod
    def _recorded_linalg(monkeypatch) -> list:
        """(name, shape of the first argument, keywords) of every call into
        np.linalg."""
        calls = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, np.shape(args[0]), kwargs))
                return fn(*args, **kwargs)
            return wrapper

        for name in np.linalg.__all__:
            fn = getattr(np.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                monkeypatch.setattr(np.linalg, name, recording(name, fn))
        return calls

    @pytest.mark.parametrize("make", [
        lambda: random_system(6, 2, seed=3),
        # the kernel branch, where the image of the paired directions is whitened
        lambda: structured_system(13, 1, 1, 1),
    ], ids=["no_kernel", "kernel"])
    def test_stack_rows_read_once(self, monkeypatch, make):
        # one Householder QR compresses the stack and computes no vectors;
        # every later step reads its triangular factor.  With no kernel,
        # V = I; with one, V = Z^{-1} of a factorization of the stack that
        # passes verify_factorization
        system = make()
        s = 4 * system.n * system.m
        calls = self._recorded_linalg(monkeypatch)
        dec = kalman_decompose(system)
        assert calls
        assert [(name, kwargs) for name, shape, kwargs in calls
                if shape[:1] == (s,)] == [("qr", {"mode": "r"})], calls
        if dec.k == system.n:
            assert np.array_equal(dec.V, np.eye(2 * system.n))
        else:
            F = observability_stack(system, "jr")
            fact = one_sided_symplectic_svd(F)
            assert np.array_equal(dec.V, sharp_adjoint(fact.Z))
            report = verify_factorization(F, fact)
            assert report.passed, report.as_dict()

    @pytest.mark.parametrize("make, counts, svd_calls", [
        # the kernel branch: the stack, the bidiagonal of F J F^T and that of
        # the form on Ker F, and the whitening; the directions paired with
        # the radical take none, and the rank check of Q's leading columns
        # is certified from ||Q_core^T Q_core - I|| without one.  The
        # verifier takes the fifth, of C on the 3-dimensional quotient, 4 x 3,
        # to bound its margin
        (lambda: structured_system(13, 1, 1, 1), (1, 1, 1), 5),
        # no kernel: the stack alone; rank F = 2n decides V = I, and no skew
        # form, polish or certificate follows.  The verifier's margin takes
        # the second, values only, for sigma_max of the 4 x 12 C, too wide
        # to certify, and then its QZ
        (lambda: random_system(6, 2, seed=3), (6, 0, 0), 2),
        # wide C of rank 2n: its one SVD, values only, decides N = {0}, and
        # the verifier certifies the margin from the same values; no stack
        (lambda: random_system(6, 16, seed=3), (6, 0, 0), 1),
    ])
    def test_svd_count(self, monkeypatch, make, counts, svd_calls):
        # each skew form costs one SVD, of its half-size bidiagonal; the
        # kernel columns of U need none.  One QR compresses the stack, and
        # when l > 0 the whitening takes one more and inverts its l x l factor.
        # When N is not {0}, the verifier takes one complete QR of the
        # columns of V# that span it
        system = make()
        # each wide C here has rank 2n, so no stack is built or compressed
        stacked = system.C.shape[0] < 2 * system.n
        calls = {"svd": [], "qr": [], "inv": [], "skew_canonical": [],
                 "symplectic_gram_schmidt": []}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name].append(np.shape(args[0]))
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            module = np.linalg if hasattr(np.linalg, name) else symkal.factorization
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        dec = kalman_decompose(system)
        assert (dec.k, dec.l, dec.d) == counts
        assert len(calls["svd"]) == svd_calls, calls
        # F J F^T and the form on Ker F, and one polish, only when F has a kernel
        factored = dec.k < system.n
        assert len(calls["qr"]) == stacked + (dec.l > 0) + factored, calls
        assert len(calls["inv"]) == (dec.l > 0), calls
        assert len(calls["skew_canonical"]) == 2 * factored, calls
        assert len(calls["symplectic_gram_schmidt"]) == factored, calls

    def test_wide_system_of_full_rank_c_reads_c_alone(self, monkeypatch):
        # 2m >= 2n and rank C = 2n: one SVD of C, values only, decides
        # N = {0}; no stack is built, compressed or factored.  The verifier
        # bounds the Hautus margin from the same values, and takes no SVD
        system = random_system(6, 16, seed=3)
        calls = self._recorded_linalg(monkeypatch)
        stacks = self._recorded_stacks(monkeypatch)
        dec = kalman_decompose(system)
        assert stacks == []
        assert [(name, shape, kwargs) for name, shape, kwargs in calls
                if name in ("svd", "qr")] == [("svd", system.C.shape,
                                               {"compute_uv": False})], calls
        assert dec.residual_report.observability_certified
        assert (dec.k, dec.l, dec.d) == (6, 0, 0)
        # the V = I that every result of n = 6 with N = {0} shares
        assert np.array_equal(dec.V, np.eye(12))
        assert dec.V is symkal.kalman._identity(6)

    @staticmethod
    def _recorded_stacks(monkeypatch) -> list:
        """The stack of every observability_stack call kalman makes."""
        stacks = []

        def recording(*args, **kwargs):
            stacks.append(observability_stack(*args, **kwargs))
            return stacks[-1]

        monkeypatch.setattr(symkal.kalman, "observability_stack", recording)
        return stacks

    def test_wide_system_of_deficient_c_takes_the_stack_route(self, monkeypatch):
        # 2m = 10 >= 2n = 8, but only two fields couple, so rank C <= 4: the
        # stack decides, bit for bit as its public factorization does
        system = with_uncoupled_fields(2, 1, 1, 3, seed=0)
        stacks = self._recorded_stacks(monkeypatch)
        dec = kalman_decompose(system)
        assert (dec.k, dec.l, dec.d) == (2, 1, 1)
        assert len(stacks) == 1
        fact = one_sided_symplectic_svd(stacks[0])
        assert (dec.k, dec.l) == (fact.E.k, fact.E.l)
        assert np.array_equal(dec.V, sharp_adjoint(fact.Z))

    def test_wide_system_at_a_coarse_cutoff_takes_the_stack_route(self, monkeypatch):
        # at scale 1e15 the cutoff leaves rank C below 2n; the stack route
        # then raises what the factorization of the stack raises
        policy = TolerancePolicy(scale=1e15)
        stacks = self._recorded_stacks(monkeypatch)
        with pytest.raises(RankAmbiguityError) as raised:
            kalman_decompose(random_system(4, 8, 2), policy)
        assert len(stacks) == 1
        with pytest.raises(RankAmbiguityError) as expected:
            one_sided_symplectic_svd(stacks[0], policy)
        assert str(raised.value) == str(expected.value)

    def test_kernel_branch_is_the_public_factorization(self):
        # kalman_decompose factors the compression it made of the stack, with
        # the same bits as one_sided_symplectic_svd on that stack
        system = structured_system(13, 1, 1, 1)
        F = observability_stack(system, "jr")
        fact = one_sided_symplectic_svd(F)
        dec = kalman_decompose(system)
        assert (dec.k, dec.l) == (fact.E.k, fact.E.l)
        assert np.array_equal(dec.V, sharp_adjoint(fact.Z))

    @staticmethod
    def _svd_rank(Q_core, s, policy):
        """The rank the certificate stands in for: numerical_rank's decision
        on the singular values of Q_core."""
        sv = np.linalg.svd(Q_core, compute_uv=False)
        return policy.decide(sv, max(s, Q_core.shape[1]) * float(sv[0]), "numerical_rank").rank

    @staticmethod
    def _counted_svd(monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        return calls

    def test_certificate_decides_orthonormal_columns(self, monkeypatch):
        Q_core = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 3)))[0]
        assert self._svd_rank(Q_core, 12, DEFAULT_POLICY) == 3
        calls = self._counted_svd(monkeypatch)
        _check_leading_columns(Q_core, 12, DEFAULT_POLICY)
        assert calls == []

    def test_dependent_columns_raise_without_an_svd(self, monkeypatch):
        # delta = ||Q_core^T Q_core - I||_F is about 1, past 1/2: the lower
        # bound sqrt(1 - delta) is 0 and the certificate raises its own error
        Q_core = np.linalg.qr(np.random.default_rng(1).standard_normal((8, 3)))[0]
        Q_core[:, 2] *= 1e-20
        assert self._svd_rank(Q_core, 12, DEFAULT_POLICY) == 2
        calls = self._counted_svd(monkeypatch)
        with pytest.raises(RankAmbiguityError) as raised:
            _check_leading_columns(Q_core, 12, DEFAULT_POLICY)
        assert calls == []
        (decision,) = raised.value.decisions
        assert decision.stage == "numerical_rank" and decision.rank == 0
        assert np.array_equal(decision.values, [0.0])
        assert "leading columns of Q not certified independent" in str(raised.value)

    def test_cutoff_past_the_certificate_raises_without_an_svd(self, monkeypatch):
        # at scale 1e15 the cutoff of 8 x 1 exceeds every singular value, so
        # it exceeds sqrt(1 - delta) too: the certificate keeps nothing
        policy = TolerancePolicy(scale=1e15)
        Q_core = np.linalg.qr(np.random.default_rng(2).standard_normal((8, 3)))[0]
        assert self._svd_rank(Q_core, 8, policy) == 0
        calls = self._counted_svd(monkeypatch)
        with pytest.raises(RankAmbiguityError) as raised:
            _check_leading_columns(Q_core, 8, policy)
        assert calls == []
        (decision,) = raised.value.decisions
        assert decision.rank == 0 and decision.values[0] > 1.0 - 1e-12
        assert decision.cutoff > 1.0
        assert "leading columns of Q not certified independent" in str(raised.value)

    def test_decomposition_does_not_pin_the_stack(self, monkeypatch):
        refs = []

        def recording(*args, **kwargs):
            out = observability_stack(*args, **kwargs)
            refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(symkal.kalman, "observability_stack", recording)
        dec = kalman_decompose(random_system(6, 2, seed=3))
        gc.collect()
        # the decomposition is alive, the stack it was factored from is not
        assert dec.V.shape == (12, 12)
        assert len(refs) == 1 and refs[0]() is None

    @pytest.mark.parametrize("case", range(2))
    def test_verify_reads_only_q_lead(self, case):
        F, policy, _ = _tall_stacks()[case]
        fact = one_sided_symplectic_svd(F, policy=policy)
        report = verify_factorization(F, fact, policy=policy)
        assert report.passed, report.as_dict()
        # reference: the checks on the thin form F Z = Q_lead E, with the
        # leading columns of Q read off F Z
        E = fact.E.materialize()
        obs = slot_indices(fact.E.k, fact.E.l, fact.E.d, OBSERVABLE)
        p = obs.size
        Q_lead = (F @ fact.Z)[:, obs] / E[np.arange(p), obs]
        assert E.shape == (p, F.shape[1]) and 0 < p < F.shape[0]
        assert abs(report.q_residual - np.linalg.norm(Q_lead.T @ Q_lead - np.eye(p))) <= 1e-12
        cond = np.linalg.cond(Q_lead)
        assert abs(report.q_condition - cond) <= 1e-12 * cond
        reconstruction = np.linalg.norm(F @ fact.Z - Q_lead @ E)
        assert abs(report.reconstruction_residual - reconstruction) <= 1e-12 * np.linalg.norm(F)
