import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    POPULATION_POLICY,
    mixed_population,
    random_orthogonal_symplectic,
    structured_system,
)
from symkal import (
    PhysicalSpec,
    StructureError,
    ValidationError,
    build_system,
    from_physical,
    is_symplectic,
    jmat,
    kalman_decompose,
    krylov_matrices,
    largest_angle,
    numerical_rank,
    random_system,
    sharp_adjoint,
    t0_matrix,
    transfer_matrix,
)
import helpers
import symkal.kalman
from symkal.factorization import factor_count_oracles
from symkal.optomech import build as build_demo

SQRT2 = np.sqrt(2.0)


class TestBuildSystem:
    def test_position_coupling(self):
        # L reads only the position quadrature; drift vanishes because the
        # damping product C# C is nilpotent here
        C = np.array([[SQRT2, 0.0], [0.0, 0.0]])
        sys = build_system(np.zeros((2, 2)), C, np.eye(2))
        expected_sharp = np.array([[0.0, 0.0], [0.0, SQRT2]])
        assert np.allclose(sharp_adjoint(C), expected_sharp)
        assert np.allclose(expected_sharp @ C, np.zeros((2, 2)))
        assert np.allclose(sys.A, np.zeros((2, 2)))
        assert np.allclose(sys.B, np.array([[0.0, 0.0], [0.0, -SQRT2]]))

    def test_no_coupling(self):
        rng = np.random.default_rng(0)
        R0 = rng.standard_normal((4, 4))
        R = 0.5 * (R0 + R0.T)
        sys = build_system(R, np.zeros((2, 4)), np.eye(2))
        assert np.allclose(sys.A, jmat(2) @ R)
        assert np.allclose(sys.B, np.zeros((4, 2)))

    def test_identity_coupling(self):
        sys = build_system(np.zeros((2, 2)), np.eye(2), np.eye(2))
        assert np.allclose(sys.A, -0.5 * np.eye(2))
        assert np.allclose(sys.B, -np.eye(2))

    def test_nonsymmetric_r_rejected(self):
        with pytest.raises(ValidationError, match="R symmetric"):
            build_system(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), np.eye(2))

    @staticmethod
    def _squeezed(squeeze: float) -> np.ndarray:
        """Sigma = W1 diag(squeeze, 1, 1/squeeze, 1) W2 on m = 2 fields, W1 and
        W2 orthogonal symplectic: symplectic, with Sigma Sigma# rounded at
        about eps squeeze^2."""
        rng = np.random.default_rng(0)
        W1, W2 = random_orthogonal_symplectic(2, rng), random_orthogonal_symplectic(2, rng)
        return W1 @ np.diag([squeeze, 1.0, 1.0 / squeeze, 1.0]) @ W2

    def test_squeezed_sigma_accepted(self):
        # ||Sigma Sigma# - I||_F reads 1.8e-11 at squeezing 1e3
        sys = build_system(np.eye(2), np.vstack([np.eye(2), np.eye(2)]), self._squeezed(1e3))
        assert sys.m == 2

    def test_strongly_squeezed_sigma_accepted(self):
        # rounding alone reads ||Sigma Sigma# - I||_F = 1.9e-9 at squeezing
        # 1e4, and the check is relative to ||Sigma||_F^2, about 1e8
        sys = build_system(np.eye(2), np.vstack([np.eye(2), np.eye(2)]), self._squeezed(1e4))
        assert sys.m == 2

    def test_nonsymplectic_sigma_rejected(self):
        with pytest.raises(ValidationError, match="Sigma symplectic"):
            build_system(np.zeros((2, 2)), np.eye(2), np.diag([2.0, 3.0]))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_input_matrix_rejected(self):
        # Sigma = diag(1e200, 1e-200) is symplectic; C# Sigma reaches 1e350
        with pytest.raises(ValidationError, match="B within float64 range"):
            build_system(np.eye(2), 1e150 * np.eye(2), np.diag([1e200, 1e-200]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            build_system(np.zeros((2, 2)), np.ones((2, 4)), np.eye(2))

    def test_default_sigma(self):
        sys = build_system(np.zeros((2, 2)), np.eye(2))
        assert np.allclose(sys.Sigma, np.eye(2))

    def test_derived_matrices_fresh(self):
        sys = build_system(np.zeros((2, 2)), np.eye(2))
        A1 = sys.A
        A2 = sys.A
        assert A1 is not A2
        assert np.array_equal(A1, A2)


class TestFromPhysical:
    def test_identity_scattering(self):
        spec = PhysicalSpec(S=np.eye(3, dtype=complex),
                            Lq=np.zeros((3, 2), dtype=complex),
                            Lp=np.zeros((3, 2), dtype=complex))
        _, Sigma = from_physical(spec)
        assert np.allclose(Sigma, np.eye(6))

    def test_position_coupling(self):
        spec = PhysicalSpec(S=np.eye(1, dtype=complex),
                            Lq=np.array([[1.0 + 0j]]), Lp=np.array([[0j]]))
        C, _ = from_physical(spec)
        assert np.allclose(C, np.array([[SQRT2, 0.0], [0.0, 0.0]]))

    def test_annihilation_coupling(self):
        spec = PhysicalSpec(S=np.eye(1, dtype=complex),
                            Lq=np.array([[1 / SQRT2 + 0j]]),
                            Lp=np.array([[1j / SQRT2]]))
        C, _ = from_physical(spec)
        assert np.allclose(C, np.eye(2))

    def test_nonunitary_rejected(self):
        with pytest.raises(ValidationError, match="S unitary"):
            PhysicalSpec(S=2.0 * np.eye(1, dtype=complex),
                         Lq=np.zeros((1, 1), dtype=complex),
                         Lp=np.zeros((1, 1), dtype=complex))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry, message", [
        # S^H S overflows
        (1e200, "S within float64 range; S^H S overflows"),
        # S^H S is finite, but the Frobenius norm of its residual is not
        (1e100, "S unitary (residual inf)"),
    ])
    def test_overflowing_s_rejected(self, entry, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            PhysicalSpec(S=entry * np.eye(1, dtype=complex),
                         Lq=np.zeros((1, 1), dtype=complex),
                         Lp=np.zeros((1, 1), dtype=complex))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_unitary_gives_orthogonal_symplectic(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        spec = PhysicalSpec(S=Q,
                            Lq=rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)),
                            Lp=rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        C, Sigma = from_physical(spec)
        assert C.dtype == float and Sigma.dtype == float
        assert np.linalg.norm(Sigma.T @ Sigma - np.eye(2 * m)) < 1e-12
        assert is_symplectic(Sigma).ok
        # the built system accepts these matrices
        R0 = rng.standard_normal((2 * n, 2 * n))
        build_system(0.5 * (R0 + R0.T), C, Sigma)


class TestKrylov:
    def test_zero_coupling(self):
        sys = build_system(np.eye(4), np.zeros((2, 4)), np.eye(2))
        kry = krylov_matrices(sys, variant="jr")
        assert not kry.controllability.any()
        assert not kry.observability.any()

    def test_demo_observability_rank(self):
        kry = krylov_matrices(build_demo(1.0, 1.0, 1.0), variant="jr")
        assert kry.observability.shape == (12, 6)
        assert numerical_rank(kry.observability).rank == 3

    def test_depth(self):
        sys = random_system(2, 1, seed=1)
        kry = krylov_matrices(sys, variant="jr")
        assert kry.depth == 4
        assert kry.controllability.shape == (4, 8)
        assert kry.observability.shape == (8, 4)

    def test_bad_variant(self):
        with pytest.raises(StructureError):
            krylov_matrices(random_system(1, 1, seed=0), variant="b")

    @pytest.mark.parametrize("seed", range(8))
    def test_variants_share_spans(self, seed):
        # the two power bases give the same controllable image and
        # unobservable kernel
        n = 1 + seed % 5
        m = 1 + seed % 3
        sys = random_system(n, m, seed=seed)
        kry_a = krylov_matrices(sys, variant="a")
        kry_jr = krylov_matrices(sys, variant="jr")
        img_a = numerical_rank(kry_a.controllability).image
        img_jr = numerical_rank(kry_jr.controllability).image
        assert img_a.dim == img_jr.dim
        if img_a.dim:
            assert largest_angle(img_a, img_jr) <= 1e-7
        ker_a = numerical_rank(kry_a.observability).kernel
        ker_jr = numerical_rank(kry_jr.observability).kernel
        assert ker_a.dim == ker_jr.dim
        if ker_a.dim:
            assert largest_angle(ker_a, ker_jr) <= 1e-7


class TestStackInPlace:
    """The observability stack is written block by block into one array."""

    @pytest.mark.parametrize("variant", ["a", "jr"])
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (4, 8), (5, 1), (6, 16)])
    def test_equals_list_and_vstack(self, variant, n, m):
        # reference: the list of powers C G^j stacked once at the end
        sys = random_system(n, m, seed=10 * n + m)
        G = sys.A if variant == "a" else jmat(sys.n) @ sys.R
        blocks = [sys.C]
        for _ in range(2 * n - 1):
            blocks.append(blocks[-1] @ G)
        kry = krylov_matrices(sys, variant=variant)
        assert kry.observability.tobytes() == np.vstack(blocks).tobytes()
        assert kry.generator.tobytes() == G.tobytes()
        assert not kry.observability.flags.writeable


class TestLazyControllability:
    """Only the observability stack is built eagerly."""

    @pytest.mark.parametrize("variant", ["a", "jr"])
    def test_equals_eager_stack(self, variant):
        # reference: the loop that built both stacks together
        sys = random_system(3, 2, seed=4)
        kry = krylov_matrices(sys, variant=variant)
        assert "controllability" not in vars(kry)
        G = sys.A if variant == "a" else jmat(sys.n) @ sys.R
        blocks = [sys.B]
        for _ in range(2 * sys.n - 1):
            blocks.append(G @ blocks[-1])
        ctl = kry.controllability
        assert ctl.tobytes() == np.hstack(blocks).tobytes()
        assert kry.controllability is ctl and not ctl.flags.writeable

    def test_decompose_never_builds_it(self, monkeypatch):
        built = []
        original = symkal.kalman.krylov_matrices

        def recording(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(symkal.kalman, "krylov_matrices", recording)
        # the kernel branch, and a narrow system (2m < 2n) of full rank F
        kalman_decompose(structured_system(13, 1, 1, 1))
        kalman_decompose(random_system(6, 2, seed=3))
        assert len(built) == 2
        assert all("controllability" not in vars(kry) for kry in built)


class TestT0:
    def test_small_value(self):
        from scipy.linalg import block_diag
        expected = block_diag(jmat(1), -jmat(1)) @ jmat(2)
        assert np.allclose(t0_matrix(1, 1, np.eye(2)), expected)

    def test_nonsymplectic_rejected(self):
        with pytest.raises(ValidationError, match="D symplectic"):
            t0_matrix(1, 1, np.diag([2.0, 3.0]))

    @pytest.mark.parametrize("seed", range(12))
    def test_relates_krylov_stacks(self, seed):
        n = 1 + seed % 5
        m = 1 + seed % 3
        sys = random_system(n, m, seed=seed)
        kry = krylov_matrices(sys, variant="jr")
        T0 = t0_matrix(n, m, sys.Sigma)
        obs = np.asarray(kry.observability)
        resid = np.linalg.norm(obs - T0 @ sharp_adjoint(kry.controllability))
        assert resid <= 1e-10 * np.linalg.norm(obs)
        # equivalently, the controllability stack comes back through the
        # sharp inverse of T0
        resid2 = np.linalg.norm(
            np.asarray(kry.controllability)
            - sharp_adjoint(obs) @ np.linalg.inv(sharp_adjoint(T0)))
        assert resid2 <= 1e-9 * np.linalg.norm(kry.controllability)

    @pytest.mark.parametrize("n", [2, 4])
    def test_symplectic_for_even_modes_orthogonal_feedthrough(self, n):
        rng = np.random.default_rng(n)
        D = random_orthogonal_symplectic(2, rng)
        assert is_symplectic(t0_matrix(n, 2, D)).ok

    @pytest.mark.parametrize("n", [1, 3])
    def test_antisymplectic_for_odd_modes(self, n):
        # for an odd mode count the construction is exactly antisymplectic
        # (T0 T0# = -I when D is orthogonal); the Krylov relation above is
        # unaffected, as it only needs T0 invertible
        rng = np.random.default_rng(n)
        D = random_orthogonal_symplectic(1, rng)
        T0 = t0_matrix(n, 1, D)
        dim = 4 * n
        assert np.linalg.norm(T0 @ sharp_adjoint(T0) + np.eye(dim)) < 1e-12
        assert not is_symplectic(T0).ok


class TestRandomSystem:
    def test_determinism(self):
        a = random_system(3, 2, seed=123)
        b = random_system(3, 2, seed=123)
        assert np.array_equal(a.R, b.R)
        assert np.array_equal(a.C, b.C)
        assert np.array_equal(a.Sigma, b.Sigma)

    def test_seeds_differ(self):
        a = random_system(3, 2, seed=1)
        b = random_system(3, 2, seed=2)
        assert not np.array_equal(a.R, b.R)

    @pytest.mark.parametrize("seed", range(6))
    def test_invariants_hold(self, seed):
        sys = random_system(2, 2, seed=seed)
        assert np.allclose(sys.R, sys.R.T)
        assert is_symplectic(sys.Sigma).ok

    def test_bad_arguments(self):
        with pytest.raises(StructureError):
            random_system(0, 1, seed=0)
        with pytest.raises(StructureError, match="seed >= 0, got seed=-1"):
            random_system(1, 1, seed=-1)


class TestClassDimensionPairing:
    @pytest.mark.parametrize("idx", range(10))
    def test_observability_and_controllability_counts_agree(self, idx):
        sys = mixed_population(10, base_seed=300)[idx]
        kry = krylov_matrices(sys, variant="jr")
        obs = np.asarray(kry.observability)
        ctl = np.asarray(kry.controllability)
        k_obs, l_obs = factor_count_oracles(obs, None)
        k_ctl, l_ctl = factor_count_oracles(ctl.T, None)
        assert (k_obs, l_obs) == (k_ctl, l_ctl)

    def test_structured_counts(self):
        # the construction fixes (1, 2, 1), and the count oracle must find it
        sys = structured_system(7, 1, 2, 1)
        obs = krylov_matrices(sys, variant="jr").observability
        assert factor_count_oracles(obs, POPULATION_POLICY) == (1, 2)

    def test_populations_call_no_rank_code(self, monkeypatch):
        # the test populations take their sizes from how they are built, so
        # they must not depend on the rank code they are used to test
        def refuse(*args, **kwargs):
            raise AssertionError("a test population called the library's rank code")

        for module in (symkal, symkal.factorization, symkal.model, symkal.kalman, helpers):
            for name, value in list(vars(module).items()):
                if value is factor_count_oracles or value is krylov_matrices:
                    monkeypatch.setattr(module, name, refuse)
        assert structured_system(7, 1, 2, 1).n == 4
        assert len(mixed_population(20, 2026)) == 20


class TestTransferMatrix:
    def test_matches_direct_inverse(self):
        sys = random_system(2, 1, seed=9)
        s = 0.3 + 1.1j
        direct = sys.C @ np.linalg.inv(s * np.eye(4) - sys.A) @ sys.B + sys.D
        assert np.allclose(transfer_matrix(sys.A, sys.B, sys.C, sys.D, s), direct)
