"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line with the
measured worst-case quantities once its assertions clear (run pytest with
-s to see the lines as they happen).
"""

import time

import numpy as np
from helpers import POPULATION_POLICY, factor_population, mixed_population
from symkal import (
    build_system,
    jmat,
    kalman_decompose,
    krylov_matrices,
    largest_angle,
    numerical_rank,
    one_sided_symplectic_svd,
    sharp_adjoint,
    t0_matrix,
    transfer_matrix,
    verify_factorization,
)
from symkal import optomech
from symkal.factorization import MAX_KERNEL_ANGLE, VERIFY_TOL, factor_count_oracles
from symkal.kalman import LABEL_CNO, LABEL_NCO

SQRT2 = np.sqrt(2.0)

PARAMETER_TRIPLES = [
    (1.0, 1.0, 1.0),
    (2.0, 0.5, 1.5),
    (0.7, 1.3, 0.4),
    (3.1, 0.2, 2.2),
]


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def _system_population(count: int):
    """Seeded systems with n <= 5, m <= 3: generic draws mixed with
    structured ones so every class split occurs."""
    return mixed_population(count, base_seed=2026)


def test_criterion_1_demo_reproduction():
    worst_angle = 0.0
    worst_runtime = 0.0
    e = np.eye(6)
    ctl_ref = numerical_rank(
        np.column_stack([e[:, 2], e[:, 5], (e[:, 3] + e[:, 4]) / SQRT2])).image
    unobs_ref = numerical_rank(
        np.column_stack([(e[:, 0] - e[:, 1]) / SQRT2, e[:, 3], e[:, 4]])).image
    for omega, lam, gamma in PARAMETER_TRIPLES:
        system = optomech.build(omega, lam, gamma)
        start = time.perf_counter()
        dec = kalman_decompose(system)
        worst_runtime = max(worst_runtime, time.perf_counter() - start)
        assert (dec.k, dec.l, dec.d) == (1, 1, 1)
        kry = krylov_matrices(system, variant="jr")
        controllable = numerical_rank(kry.controllability).image
        unobservable = numerical_rank(kry.observability).kernel
        assert controllable.dim == 3 and unobservable.dim == 3
        worst_angle = max(worst_angle,
                          largest_angle(controllable, ctl_ref),
                          largest_angle(unobservable, unobs_ref))
    assert worst_angle <= 1e-7
    assert worst_runtime < 1.0
    _report("1", f"(k,l,d)=(1,1,1) on 4 triples, worst angle {worst_angle:.2e}, "
                 f"worst runtime {worst_runtime * 1e3:.1f} ms")


def test_criterion_2_demo_refinement():
    worst_orth = worst_sympl = worst_coef = 0.0
    for omega, lam, gamma in PARAMETER_TRIPLES:
        _, _, refined, _, _, _ = optomech.run(omega, lam, gamma)
        V = np.asarray(refined.V)
        worst_orth = max(worst_orth, float(np.linalg.norm(V.T @ V - np.eye(6))))
        worst_sympl = max(worst_sympl,
                          float(np.linalg.norm(V @ jmat(3) @ V.T - jmat(3))))
        A = np.asarray(refined.A_hat)
        worst_coef = max(worst_coef,
                         abs(A[0, 3] - omega),
                         abs(A[4, 0] + SQRT2 * lam))
    assert worst_orth <= 1e-9
    assert worst_sympl <= 1e-9
    assert worst_coef <= 1e-9
    _report("2", f"orthogonality {worst_orth:.2e}, symplecticity {worst_sympl:.2e}, "
                 f"dynamics coefficients off by {worst_coef:.2e}")


def test_criterion_3_krylov_duality_identity():
    start = time.perf_counter()
    worst = 0.0
    population = _system_population(200)
    for sys in population:
        kry = krylov_matrices(sys, variant="jr")
        obs = np.asarray(kry.observability)
        T0 = t0_matrix(sys.n, sys.m, sys.Sigma)
        resid = np.linalg.norm(obs - T0 @ sharp_adjoint(kry.controllability))
        worst = max(worst, resid / np.linalg.norm(obs))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 30.0
    _report("3", f"200 systems, worst relative residual {worst:.2e}, {elapsed:.1f} s")


def test_criterion_4_power_basis_equivalence():
    worst = 0.0
    for sys in _system_population(200):
        kry_a = krylov_matrices(sys, variant="a")
        kry_jr = krylov_matrices(sys, variant="jr")
        img_a = numerical_rank(kry_a.controllability, POPULATION_POLICY).image
        img_jr = numerical_rank(kry_jr.controllability, POPULATION_POLICY).image
        ker_a = numerical_rank(kry_a.observability, POPULATION_POLICY).kernel
        ker_jr = numerical_rank(kry_jr.observability, POPULATION_POLICY).kernel
        assert img_a.dim == img_jr.dim
        assert ker_a.dim == ker_jr.dim
        if img_a.dim:
            worst = max(worst, largest_angle(img_a, img_jr))
        if ker_a.dim:
            worst = max(worst, largest_angle(ker_a, ker_jr))
    assert worst <= 1e-7
    _report("4", f"200 systems, worst principal angle {worst:.2e}")


def test_criterion_5_factorization_postconditions():
    population = factor_population(200, base_seed=31415)
    kinds = {"generic": 0, "deficient": 0, "k0": 0, "l0": 0}
    forced_k0 = forced_l0 = 0
    assert VERIFY_TOL == 1e-8
    assert MAX_KERNEL_ANGLE == 1e-7
    for idx, F in enumerate(population):
        fact = one_sided_symplectic_svd(F)
        checks = verify_factorization(F, fact)
        assert checks.passed, (idx, checks.as_dict())
        k_oracle, l_oracle = factor_count_oracles(F)
        assert (fact.E.k, fact.E.l) == (k_oracle, l_oracle)
        forced_k0 += fact.E.k == 0
        forced_l0 += fact.E.l == 0
    assert forced_k0 >= 40 and forced_l0 >= 40  # both degenerate shapes well covered
    _report("5", f"200 matrices (k=0 in {forced_k0}, l=0 in {forced_l0}), "
                 f"all checks at 1e-8 with exact (k, l) oracles")


def test_criterion_6_pattern_suite():
    worst_pattern_ratio = 0.0
    worst_ccr = 0.0
    nontrivial = 0
    for sys in _system_population(200):
        dec = kalman_decompose(sys, policy=POPULATION_POLICY)
        J = jmat(sys.n)
        worst_ccr = max(worst_ccr,
                        float(np.linalg.norm(dec.V @ J @ dec.V.T - J)))
        checks = dec.residual_report
        scale = 1e-8 * (1.0 + float(np.linalg.norm(dec.A_hat)))
        assert checks.pattern_residual <= scale
        worst_pattern_ratio = max(worst_pattern_ratio,
                                  checks.pattern_residual / scale)
        assert dec.labels.count(LABEL_NCO) == dec.labels.count(LABEL_CNO)
        nontrivial += dec.l > 0 or dec.d > 0
    assert worst_ccr <= 1e-9
    assert nontrivial >= 80  # the population genuinely exercises the pattern
    _report("6", f"200 systems ({nontrivial} with nontrivial splits), "
                 f"pattern residual at {worst_pattern_ratio:.1e} of allowance, "
                 f"worst CCR {worst_ccr:.2e}")


def test_criterion_7_transfer_invariance():
    worst = 0.0
    for sys in _system_population(50):
        dec = kalman_decompose(sys, policy=POPULATION_POLICY)
        for omega in (0.17, 0.61, 1.3, 2.9, 5.7):
            point = 1j * omega
            orig = transfer_matrix(sys.A, sys.B, sys.C, sys.D, point)
            moved = transfer_matrix(dec.A_hat, dec.B_hat, dec.C_hat, dec.D, point)
            rel = np.linalg.norm(moved - orig) / max(np.linalg.norm(orig), 1e-300)
            worst = max(worst, rel)
    assert worst <= 1e-7
    _report("7", f"50 systems x 5 frequencies, worst relative deviation {worst:.2e}")


def test_criterion_8_micro_cases():
    # position-only coupling: one conjugate observable/unobservable pair
    C = np.array([[SQRT2, 0.0], [0.0, 0.0]])
    dec = kalman_decompose(build_system(np.zeros((2, 2)), C))
    assert (dec.k, dec.l, dec.d) == (0, 1, 0)
    assert dec.labels == ("nco", "cno")

    # annihilation-type coupling: fully controllable and observable
    dec = kalman_decompose(build_system(np.zeros((2, 2)), np.eye(2)))
    assert (dec.k, dec.l, dec.d) == (1, 0, 0)

    # no coupling at all: everything decoupled
    for n in (1, 2, 4):
        rng = np.random.default_rng(n)
        R0 = rng.standard_normal((2 * n, 2 * n))
        dec = kalman_decompose(build_system(0.5 * (R0 + R0.T), np.zeros((2, 2 * n))))
        assert (dec.k, dec.l, dec.d) == (0, 0, n)
    _report("8", "hand-derived micro-cases match exactly")
