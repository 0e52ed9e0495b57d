import numpy as np
import pytest

from symkal import (
    ConsistencyError,
    RankAmbiguityError,
    ValidationError,
    controllability_stack,
    is_symplectic,
    jmat,
    kalman_decompose,
    largest_angle,
    numerical_rank,
    observability_stack,
)
from symkal import optomech
from symkal.factorization import OBSERVABLE, UNOBSERVABLE, slot_indices

SQRT2 = np.sqrt(2.0)

PARAMETER_TRIPLES = [
    (1.0, 1.0, 1.0),
    (2.0, 0.5, 1.5),
    (0.7, 1.3, 0.4),
    (3.1, 0.2, 2.2),
]

# cells at and near the ends of the range where the split is reproduced
# numerically: one parameter at a time, the others at 1
RANGE_EDGES = [
    (1e-3, 1.0, 1.0),
    (1e2, 1.0, 1.0),
    (1.0, 1e-5, 1.0),
    (1.0, 1e-6, 1.0),
    (1.0, 1e3, 1.0),
    (1.0, 1.0, 1e-3),
    (1.0, 1.0, 1e2),
    (1.0, 1.0, 1e3),
    (1.0, 1.0, 1e8),
]


def _past_the_range(omega, lam, gamma, error, reason):
    return pytest.param(omega, lam, gamma, marks=pytest.mark.xfail(
        raises=error, strict=True, reason=reason))


# the system still splits as (1, 1, 1) here, and refines to REFERENCE_V
PAST_THE_RANGE = [
    _past_the_range(1e3, 1.0, 1.0, ConsistencyError,
                    "decomposed as (1, 0, 2), whose unobservable subspace C sees at 1e-3"),
    _past_the_range(1e4, 1.0, 1.0, ConsistencyError,
                    "decomposed as (1, 0, 2), whose unobservable subspace C sees at 1e-4"),
    _past_the_range(1.0, 1e-7, 1.0, ConsistencyError,
                    "the decomposition fails verification: Hautus margin 1.4e-7"),
    _past_the_range(1.0, 1e-8, 1.0, ConsistencyError,
                    "the decomposition fails verification: Hautus margin 1.4e-8"),
    _past_the_range(1.0, 1e7, 1.0, ConsistencyError,
                    "the refined V' = Y# V fails the CCR check: its rounding grows as ||Y|| ||V||"),
    _past_the_range(1.0, 1e8, 1.0, RankAmbiguityError,
                    "the symplectic polish loses column pair 0"),
]


class TestConstruction:
    def test_hamiltonian_matrix_entries(self):
        omega, lam = 2.5, 0.75
        R = optomech.hamiltonian_matrix(omega, lam)
        assert R[2, 2] == omega and R[5, 5] == omega
        assert R[0, 2] == R[2, 0] == lam
        assert R[1, 2] == R[2, 1] == lam
        assert np.count_nonzero(R) == 6
        assert np.array_equal(R, R.T)

    def test_coupling_matrix(self):
        sys = optomech.build(1.0, 1.0, 2.0)
        expected = np.zeros((2, 6))
        expected[0, 2] = 2.0
        expected[1, 5] = 2.0
        assert np.allclose(sys.C, expected)
        assert np.allclose(sys.Sigma, np.eye(2))

    def test_drift_matches_equations_of_motion(self):
        omega, lam, gamma = 1.7, 0.6, 1.1
        sys = optomech.build(omega, lam, gamma)
        A = sys.A
        # dq3 = -gamma^2/2 q3 + omega p3, dp3 = -lam q1 - lam q2 - omega q3
        # - gamma^2/2 p3, dp1 = dp2 = -lam q3, dq1 = dq2 = 0
        expected = np.zeros((6, 6))
        expected[2, 2] = -gamma**2 / 2
        expected[2, 5] = omega
        expected[3, 2] = -lam
        expected[4, 2] = -lam
        expected[5, 0] = expected[5, 1] = -lam
        expected[5, 2] = -omega
        expected[5, 5] = -gamma**2 / 2
        assert np.allclose(A, expected)
        B = sys.B
        expected_b = np.zeros((6, 2))
        expected_b[2, 0] = -gamma
        expected_b[5, 1] = -gamma
        assert np.allclose(B, expected_b)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValidationError):
            optomech.build(0.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            optomech.build(1.0, -1.0, 1.0)


class TestAuxCoefficients:
    def test_unit_frequency(self):
        a, b = optomech.aux_coefficients(1.0)
        assert a == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert b == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_rational_form(self):
        omega = 1.7
        a, b = optomech.aux_coefficients(omega)
        num = omega * (omega**8 + omega**6 + omega**4 + omega**2 + 1)
        den = omega**10 + omega**8 + omega**6 + omega**4 + omega**2 + 1
        assert a == pytest.approx(num / den, rel=1e-15)
        assert b == pytest.approx(1 / den, rel=1e-15)


class TestDecomposition:
    @pytest.mark.parametrize("omega,lam,gamma", PARAMETER_TRIPLES)
    def test_class_dimensions(self, omega, lam, gamma):
        _, dec, _, _, _, _ = optomech.run(omega, lam, gamma)
        assert (dec.k, dec.l, dec.d) == (1, 1, 1)
        assert dec.labels == ("co", "nco", "ncno", "co", "cno", "ncno")

    @pytest.mark.parametrize("omega,lam,gamma", PARAMETER_TRIPLES)
    def test_subspaces(self, omega, lam, gamma):
        sys = optomech.build(omega, lam, gamma)
        controllable = numerical_rank(controllability_stack(sys, "jr")).image
        unobservable = numerical_rank(observability_stack(sys, "jr")).kernel
        e = np.eye(6)
        # controllable: q3, p3, p1 + p2; unobservable: q1 - q2, p1, p2
        ctl_ref = numerical_rank(
            np.column_stack([e[:, 2], e[:, 5], (e[:, 3] + e[:, 4]) / SQRT2])).image
        unobs_ref = numerical_rank(
            np.column_stack([(e[:, 0] - e[:, 1]) / SQRT2, e[:, 3], e[:, 4]])).image
        assert controllable.dim == 3 and unobservable.dim == 3
        assert largest_angle(controllable, ctl_ref) <= 1e-7
        assert largest_angle(unobservable, unobs_ref) <= 1e-7


class TestRefinement:
    @pytest.mark.parametrize("omega,lam,gamma", PARAMETER_TRIPLES)
    def test_reference_form_reached(self, omega, lam, gamma):
        _, dec, refined, pair, _, _ = optomech.run(omega, lam, gamma)
        V = np.asarray(refined.V)
        assert np.linalg.norm(V - optomech.REFERENCE_V) <= 1e-9
        assert np.linalg.norm(V.T @ V - np.eye(6)) <= 1e-9
        assert np.linalg.norm(V @ jmat(3) @ V.T - jmat(3)) <= 1e-9

    @pytest.mark.parametrize("omega,lam,gamma", RANGE_EDGES + PAST_THE_RANGE)
    def test_reference_form_across_scales(self, omega, lam, gamma):
        _, dec, refined, _, _, _ = optomech.run(omega, lam, gamma)
        assert (dec.k, dec.l, dec.d) == (1, 1, 1)
        assert np.linalg.norm(np.asarray(refined.V) - optomech.REFERENCE_V) <= 1e-9

    @pytest.mark.parametrize("omega,lam,gamma", PARAMETER_TRIPLES)
    def test_refined_dynamics_coefficients(self, omega, lam, gamma):
        _, _, refined, _, _, _ = optomech.run(omega, lam, gamma)
        A = np.asarray(refined.A_hat)
        B = np.asarray(refined.B_hat)
        # dq1 = (-gamma^2/2) q1 + omega p1 - gamma dU1
        assert A[0, 0] == pytest.approx(-gamma**2 / 2, abs=1e-9)
        assert A[0, 3] == pytest.approx(omega, abs=1e-9)
        assert B[0, 0] == pytest.approx(-gamma, abs=1e-9)
        # dp1 = -omega q1 - sqrt2 lam q2 - gamma^2/2 p1 - gamma dU2
        assert A[3, 0] == pytest.approx(-omega, abs=1e-9)
        assert A[3, 1] == pytest.approx(-SQRT2 * lam, abs=1e-9)
        assert A[3, 3] == pytest.approx(-gamma**2 / 2, abs=1e-9)
        assert B[3, 1] == pytest.approx(-gamma, abs=1e-9)
        # dp2 = -sqrt2 lam q1, with no direct noise drive
        assert A[4, 0] == pytest.approx(-SQRT2 * lam, abs=1e-9)
        assert np.allclose(B[4], 0.0, atol=1e-9)
        # the passive rows stay silent
        for row in (1, 2, 5):
            assert np.allclose(A[row], 0.0, atol=1e-9)
            assert np.allclose(B[row], 0.0, atol=1e-9)

    def test_rows_have_expected_entries(self):
        _, _, refined, _, _, _ = optomech.run(1.0, 1.0, 1.0)
        values = {0.0, 1.0, -1.0, 1 / SQRT2, -1 / SQRT2}
        for row in np.asarray(refined.V):
            for entry in row:
                assert min(abs(entry - v) for v in values) < 1e-9

    def test_refined_state_rows(self):
        _, _, refined, _, _, _ = optomech.run(1.0, 1.0, 1.0)
        # the observable-only state reads (q1 + q2)/sqrt2
        assert refined.labels[1] == "nco"
        assert np.allclose(refined.V[1],
                           [1 / SQRT2, 1 / SQRT2, 0, 0, 0, 0], atol=1e-9)
        # its conjugate reads (p1 + p2)/sqrt2 and is controllable-only
        assert refined.labels[4] == "cno"
        assert np.allclose(refined.V[4],
                           [0, 0, 0, 1 / SQRT2, 1 / SQRT2, 0], atol=1e-9)

    @pytest.mark.parametrize("omega,lam,gamma", PARAMETER_TRIPLES)
    def test_pair_validates_against_e(self, omega, lam, gamma):
        # Y keeps V's unobservable subspace: its observable rows vanish on the
        # unobservable columns and are invertible on the observable ones
        _, dec, _, Y, _, _ = optomech.run(omega, lam, gamma)
        obs = slot_indices(dec.k, dec.l, dec.d, OBSERVABLE)
        unobs = slot_indices(dec.k, dec.l, dec.d, UNOBSERVABLE)
        assert is_symplectic(Y).ok
        assert np.max(np.abs(Y[np.ix_(obs, unobs)])) <= 1e-12
        assert np.linalg.svd(Y[np.ix_(obs, obs)], compute_uv=False)[-1] > 1e-6

    def test_wrong_shape_decomposition_rejected(self):
        from symkal import build_system
        sys = build_system(np.zeros((2, 2)), np.eye(2))
        dec = kalman_decompose(sys)
        with pytest.raises(ValidationError):
            optomech.refinement_pair(dec)
