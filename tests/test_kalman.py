import dataclasses
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import symkal.factorization
import symkal.kalman

from helpers import (
    POPULATION_POLICY,
    STRUCTURED_SHAPES,
    mixed_population,
    random_symplectic,
    structured_split_input,
    structured_system,
    with_uncoupled_fields,
)
from symkal import (
    krylov_matrices,
    largest_angle,
    numerical_rank,
    optomech,
    QuadratureSystem,
    random_system,
    RankAmbiguityError,
    RefinementPair,
    RefinementRejectedError,
    StructureError,
    TolerancePolicy,
    ValidationError,
    ConsistencyError,
    build_system,
    is_symplectic,
    jmat,
    kalman_decompose,
    refine,
    sharp_adjoint,
    transfer_matrix,
    verify_decomposition,
    verify_transformation,
)
from symkal.factorization import CONTROLLABLE, UNOBSERVABLE, slot_indices
from symkal.kalman import (
    LABEL_CNO,
    LABEL_CO,
    LABEL_NCNO,
    LABEL_NCO,
    MIN_PBH_MARGIN,
    observability_margin,
    pattern_residuals,
    state_labels,
)
from symkal.linalg import SYMPLECTIC_TOL

SQRT2 = np.sqrt(2.0)


def position_coupled_mode():
    """Single mode reading only its position quadrature."""
    C = np.array([[SQRT2, 0.0], [0.0, 0.0]])
    return build_system(np.zeros((2, 2)), C, np.eye(2))


def annihilation_coupled_mode():
    return build_system(np.zeros((2, 2)), np.eye(2), np.eye(2))


class TestMicroCases:
    def test_position_coupling_splits_conjugates(self):
        dec = kalman_decompose(position_coupled_mode())
        assert (dec.k, dec.l, dec.d) == (0, 1, 0)
        assert dec.labels == (LABEL_NCO, LABEL_CNO)
        # the observable coordinate is along the position, the unobservable
        # one along its conjugate momentum (V rows up to symplectic scaling)
        assert abs(dec.V[0, 1]) < 1e-12 and abs(dec.V[0, 0]) > 0.1
        assert abs(dec.V[1, 0]) < 1e-12 and abs(dec.V[1, 1]) > 0.1

    def test_annihilation_coupling_fully_co(self):
        dec = kalman_decompose(annihilation_coupled_mode())
        assert (dec.k, dec.l, dec.d) == (1, 0, 0)
        assert dec.labels == (LABEL_CO, LABEL_CO)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_uncoupled_system(self, n):
        rng = np.random.default_rng(n)
        R0 = rng.standard_normal((2 * n, 2 * n))
        sys = build_system(0.5 * (R0 + R0.T), np.zeros((2, 2 * n)), np.eye(2))
        dec = kalman_decompose(sys, policy=POPULATION_POLICY)
        assert (dec.k, dec.l, dec.d) == (0, 0, n)
        assert set(dec.labels) == {LABEL_NCNO}


class TestDecomposition:
    @pytest.mark.parametrize("idx", range(24))
    def test_population_invariants(self, idx):
        sys = mixed_population(24, base_seed=40)[idx]
        dec = kalman_decompose(sys, policy=POPULATION_POLICY)
        checks = dec.residual_report
        assert checks.passed
        n = sys.n
        J = jmat(n)
        assert np.linalg.norm(dec.V @ J @ dec.V.T - J) <= 1e-9
        a, b, c = pattern_residuals(dec.A_hat, dec.B_hat, dec.C_hat,
                                    dec.k, dec.l, dec.d)
        scale = 1e-8 * (1.0 + np.linalg.norm(dec.A_hat))
        assert max(a, b, c) <= scale
        assert dec.labels.count(LABEL_NCO) == dec.labels.count(LABEL_CNO) == dec.l
        assert dec.labels == state_labels(dec.k, dec.l, dec.d)

    @pytest.mark.parametrize("make", [
        lambda: structured_system(13, 1, 1, 1),
        lambda: random_system(6, 16, seed=3),
    ], ids=["kernel", "no_kernel"])
    def test_no_complex_eigendecomposition(self, monkeypatch, make):
        # both skew forms are reduced in real arithmetic
        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition on the decompose path")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        dec = kalman_decompose(make())
        assert dec.residual_report.passed

    @pytest.mark.filterwarnings("error")
    def test_large_system_residuals_are_scale_safe(self):
        # the raw power stack of n = 64 gives a V with entries near 1e100,
        # whose CCR residual overflowed a plain Frobenius norm; it must come
        # out finite and without an overflow warning
        try:
            kalman_decompose(random_system(64, 1, 2))
        except ConsistencyError as exc:
            assert np.isfinite(exc.report.ccr_residual)

    @pytest.mark.parametrize("n, m, seed", [
        *((n, m, seed) for n, m in [(8, 1), (8, 4), (9, 1), (9, 4)] for seed in range(10)),
        # 2m >= 2n: rank C = 2n decides it without the stack, whose raw
        # powers lose the rank F decision from n = 16 on
        *((n, m, seed) for n, m in [(16, 16), (32, 32), (16, 24)] for seed in range(3)),
    ])
    def test_generic_system_is_all_co(self, n, m, seed):
        # a generic draw has no unobservable subspace: rank F = 2n gives
        # (n, 0, 0) with V = I, and the Hautus margin on A confirms it,
        # where the skew form of the raw power stack can lose pairs
        sys = random_system(n, m, seed)
        dec = kalman_decompose(sys)
        assert (dec.k, dec.l, dec.d) == (n, 0, 0)
        assert np.array_equal(dec.V, np.eye(2 * n))
        assert verify_decomposition(sys, dec).passed

    @pytest.mark.parametrize("n, m, r_factor, c_factor", [
        (3, 4, 1e40, 1.0), (3, 4, 1e100, 1.0), (6, 16, 1e40, 1.0), (6, 16, 1e100, 1.0),
        (6, 16, 1.0, 1e150),
    ])
    def test_wide_system_is_all_co_in_any_units(self, n, m, r_factor, c_factor):
        # rank C = 2n needs no power of G, so units whose raw powers, or the
        # square of the stack, leave float64 still decompose
        base = random_system(n, m, 1)
        sys = QuadratureSystem(R=r_factor * base.R, C=c_factor * base.C, Sigma=base.Sigma)
        dec = kalman_decompose(sys)
        assert (dec.k, dec.l, dec.d) == (n, 0, 0)
        assert verify_decomposition(sys, dec).passed

    def test_block_ordering_of_labels(self):
        labels = state_labels(1, 2, 1)
        assert labels == ("co", "nco", "nco", "ncno", "co", "cno", "cno", "ncno")

    @pytest.mark.parametrize("idx", range(8))
    def test_transfer_function_invariance(self, idx):
        sys = mixed_population(8, base_seed=90)[idx]
        dec = kalman_decompose(sys, policy=POPULATION_POLICY)
        for omega in (0.17, 0.61, 1.3, 2.9, 5.7):
            s_pt = 1j * omega
            orig = transfer_matrix(sys.A, sys.B, sys.C, sys.D, s_pt)
            moved = transfer_matrix(dec.A_hat, dec.B_hat, dec.C_hat, dec.D, s_pt)
            rel = np.linalg.norm(moved - orig) / max(np.linalg.norm(orig), 1e-12)
            assert rel <= 1e-7

    def test_zero_block_list_consistency(self):
        # the mandated A zero blocks are exactly the invariance constraints
        # of the controllable and unobservable slot sets
        ctl_slots = {0, 3, 4}
        unobs_slots = {2, 4, 5}
        assert set(CONTROLLABLE) == ctl_slots and set(UNOBSERVABLE) == unobs_slots
        expected = {(i, j) for i in range(6) for j in range(6)
                    if (j in ctl_slots and i not in ctl_slots)
                    or (j in unobs_slots and i not in unobs_slots)}
        assert _probed_zero_sets(1, 1, 1)[0] == expected


# The paper's table over the slots (q_a, q_b, q_c, p_a, p_b, p_c) of sizes
# (k, l, d, k, l, d), written out rather than derived.
PAPER_A_ZERO_BLOCKS = {
    (0, 2), (0, 4), (0, 5),
    (1, 0), (1, 2), (1, 3), (1, 4), (1, 5),
    (2, 0), (2, 3), (2, 4),
    (3, 2), (3, 4), (3, 5),
    (5, 0), (5, 3), (5, 4),
}
PAPER_B_ZERO_ROWS = {1, 2, 5}
PAPER_C_ZERO_COLS = {2, 4, 5}
PAPER_SLOT_LABELS = ("co", "nco", "ncno", "co", "cno", "ncno")
LAYOUT_SHAPES = [(1, 1, 1), (2, 1, 3), (0, 2, 1), (1, 0, 2), (2, 3, 0), (0, 0, 2), (1, 0, 0),
                 (0, 1, 0)]


def _slot_of(k, l, d):
    """The slot of each state, from the slot sizes alone."""
    return np.repeat(np.arange(6), (k, l, d, k, l, d))


def _probed_zero_sets(k, l, d, m=2):
    """The (row slot, column slot) pairs of A_hat, the row slots of B_hat and
    the column slots of C_hat that pattern_residuals treats as mandated
    zeros, found by setting one entry at a time; every entry of a block must
    agree."""
    slot = _slot_of(k, l, d).tolist()
    size = len(slot)
    zero, nonzero = set(), set()
    for i in range(size):
        for j in range(size):
            A = np.zeros((size, size))
            A[i, j] = 1.0
            a, b, c = pattern_residuals(A, np.zeros((size, 2 * m)), np.zeros((2 * m, size)),
                                        k, l, d)
            assert b == c == 0.0 and a in (0.0, 1.0)
            (zero if a else nonzero).add(("A", slot[i], slot[j]))
        B = np.zeros((size, 2 * m))
        B[i, 1] = 1.0
        _, b, c = pattern_residuals(np.zeros((size, size)), B, B.T, k, l, d)
        assert b in (0.0, 1.0) and c in (0.0, 1.0)
        (zero if b else nonzero).add(("B", slot[i]))
        (zero if c else nonzero).add(("C", slot[i]))
    assert not zero & nonzero
    return ({key[1:] for key in zero if key[0] == "A"},
            {key[1] for key in zero if key[0] == "B"},
            {key[1] for key in zero if key[0] == "C"})


class TestLayout:
    @pytest.mark.parametrize("k, l, d", LAYOUT_SHAPES)
    def test_zero_sets_match_the_paper(self, k, l, d):
        present = set(_slot_of(k, l, d).tolist())
        zero_a, zero_b, zero_c = _probed_zero_sets(k, l, d)
        assert zero_a == {(i, j) for i, j in PAPER_A_ZERO_BLOCKS
                          if i in present and j in present}
        assert zero_b == PAPER_B_ZERO_ROWS & present
        assert zero_c == PAPER_C_ZERO_COLS & present

    @pytest.mark.parametrize("k, l, d", LAYOUT_SHAPES)
    def test_labels_and_indices_match_the_paper(self, k, l, d):
        slot = _slot_of(k, l, d)
        assert state_labels(k, l, d) == tuple(PAPER_SLOT_LABELS[i] for i in slot)
        for i in range(6):
            assert slot_indices(k, l, d, (i,)).tolist() == np.flatnonzero(slot == i).tolist()
        assert slot_indices(k, l, d, (5, 0)).tolist() == (
            np.flatnonzero(slot == 5).tolist() + np.flatnonzero(slot == 0).tolist())


class TestPerShapeCaches:
    """Constants of a shape are built once, shared between calls and
    read-only, so that no decomposition can change another's."""

    def test_slot_indices_are_read_only(self):
        idx = slot_indices(2, 1, 1, CONTROLLABLE)
        assert slot_indices(2, 1, 1, CONTROLLABLE) is idx
        with pytest.raises(ValueError):
            idx[0] = 5

    def test_zero_masks_are_read_only(self):
        masks = symkal.kalman._zero_masks(2, 1, 1)
        assert symkal.kalman._zero_masks(2, 1, 1) is masks
        for mask in masks:
            with pytest.raises(ValueError):
                mask[0] = True

    def test_identity_pencil_is_read_only(self):
        eye, lwork = symkal.kalman._identity_pencil(5)
        assert np.array_equal(eye, np.eye(5)) and lwork >= 8 * 5
        with pytest.raises(ValueError):
            eye[0, 0] = 2.0

    def test_results_without_kernel_share_v_and_factorization(self):
        # N = {0} for both, one from C alone, one from the stack
        first = kalman_decompose(random_system(3, 4, seed=1))
        second = kalman_decompose(random_system(3, 1, seed=2))
        assert (first.k, second.k) == (3, 3)
        assert second.V is first.V and second.factorization is first.factorization
        assert first.factorization.Z is first.V
        assert np.array_equal(first.V, np.eye(6))
        for arr in (first.V, first.factorization.E.xi):
            with pytest.raises(ValueError):
                arr[0] = 2.0

    def test_same_v_as_a_fresh_process(self):
        kalman_decompose(random_system(6, 16, seed=3))
        V = kalman_decompose(structured_system(13, 1, 1, 1)).V
        script = ("import sys\n"
                  "sys.path[:0] = sys.argv[1:]\n"
                  "from helpers import structured_system\n"
                  "from symkal import kalman_decompose\n"
                  "print(kalman_decompose(structured_system(13, 1, 1, 1)).V.tobytes().hex())\n")
        paths = [str(Path(symkal.kalman.__file__).parents[1]), str(Path(__file__).parent)]
        fresh = subprocess.run([sys.executable, "-c", script, *paths], capture_output=True,
                               text=True, check=True, timeout=120)
        assert fresh.stdout.strip() == V.tobytes().hex()


class TestVerifyDecomposition:
    def test_clean_report(self):
        sys = structured_system(9, 1, 1, 0)
        dec = kalman_decompose(sys, policy=POPULATION_POLICY)
        report = verify_decomposition(sys, dec)
        assert report.passed
        assert report.observability_margin >= MIN_PBH_MARGIN

    def test_swapped_columns_flagged(self):
        sys = structured_system(9, 1, 1, 1)
        dec = kalman_decompose(sys, policy=POPULATION_POLICY)
        V_bad = np.array(dec.V)
        V_bad[:, [0, 1]] = V_bad[:, [1, 0]]
        bad = dataclasses.replace(dec, V=V_bad)
        report = verify_decomposition(sys, bad)
        assert not report.passed

    def test_perturbed_entry_breaks_symplecticity(self):
        sys = structured_system(9, 1, 1, 0)
        dec = kalman_decompose(sys, policy=POPULATION_POLICY)
        V_bad = np.array(dec.V)
        V_bad[0, 0] += 1e-3
        bad = dataclasses.replace(dec, V=V_bad)
        report = verify_decomposition(sys, bad)
        assert not report.ccr_ok

    @pytest.mark.parametrize("seed, index", [(65, 63), (63, 94), (64, 93)])
    def test_ccr_bound_scales_with_v(self, seed, index):
        # T = diag(D, D^-1) with D = 2^20 on the q_c slot and 1 elsewhere is
        # symplectic and scales rows without rounding, so T V is a correct
        # answer whose V J V^T - J carries the rounding of V's q_c block times
        # 2^40, orders of magnitude above 1e-9; the observable block, and
        # with it the Hautus margin, is left as it is
        sys, truth = structured_split_input(seed, index)
        dec = kalman_decompose(sys)
        assert (dec.k, dec.l, dec.d) == truth
        t = np.ones(2 * sys.n)
        t[slot_indices(dec.k, dec.l, dec.d, (2,))] = 2.0 ** 20
        t[slot_indices(dec.k, dec.l, dec.d, (5,))] = 2.0 ** -20
        V = t[:, None] * dec.V
        V_inv = sharp_adjoint(V)
        report = verify_transformation(sys, V, dec.k, dec.l, dec.d,
                                       V @ sys.A @ V_inv, V @ sys.B, sys.C @ V_inv)
        assert report.passed, report.as_dict()
        assert report.ccr_residual > 1e3 * SYMPLECTIC_TOL

    def test_scaled_v_breaks_symplecticity(self):
        # (1e3 V) J (1e3 V)^T - J = (1e6 - 1) J, far above 1e-9 ||1e3 V||^2
        sys = structured_system(9, 1, 1, 1)
        dec = kalman_decompose(sys, policy=POPULATION_POLICY)
        report = verify_transformation(sys, 1e3 * dec.V, dec.k, dec.l, dec.d,
                                       dec.A_hat, dec.B_hat, dec.C_hat)
        assert not report.ccr_ok

    def test_counts_must_sum_to_n(self):
        sys = structured_system(9, 1, 1, 1)
        dec = kalman_decompose(sys, policy=POPULATION_POLICY)
        with pytest.raises(StructureError, match="k \\+ l \\+ d = 2, expected n = 3"):
            verify_transformation(sys, dec.V, 1, 1, 0, dec.A_hat, dec.B_hat, dec.C_hat)

    @pytest.mark.filterwarnings("error")
    def test_large_representable_a_hat(self):
        # C scaled by 1e100 puts entries near 1e200 into A = J R - C# C / 2:
        # A_hat is representable, but the squares in its Frobenius norm are
        # not.  No verdict reads A_hat, and the report stays finite; a stored
        # A_hat of entries 1e200 leaves it unchanged
        base = random_system(3, 1, seed=1)
        sys = build_system(base.R, 1e100 * base.C, base.Sigma)
        dec = kalman_decompose(sys)
        assert (dec.k, dec.l, dec.d) == (3, 0, 0)
        report = dec.residual_report
        assert report.passed
        assert np.isfinite(dataclasses.astuple(report)).all(), report
        A_hat = np.full((6, 6), 1e200)
        assert verify_transformation(sys, np.eye(6), 3, 0, 0, A_hat, sys.B, sys.C) == report

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c_factor", [1e60, 1e77, 1e78, 1e80, 1e90, 1e100])
    @pytest.mark.parametrize("n, m, seed", [(n, m, seed) for n, m in [(2, 1), (3, 1), (4, 2)]
                                            for seed in range(3)])
    def test_coupling_in_any_units_is_all_co(self, n, m, seed, c_factor):
        # the Hautus margin of (G, C) is relative to sigma_max(C), so the
        # units of C do not move it; on A = J R - C# C / 2 it fell as ||C||^-2
        base = random_system(n, m, seed)
        sys = build_system(base.R, c_factor * base.C, base.Sigma)
        dec = kalman_decompose(sys)
        assert (dec.k, dec.l, dec.d) == (n, 0, 0)
        margin = kalman_decompose(base).residual_report.observability_margin
        assert dec.residual_report.observability_margin == pytest.approx(margin, rel=1e-6)

    def test_wrong_shape(self):
        sys_small = position_coupled_mode()
        sys_large = structured_system(1, 1, 1, 1)
        dec = kalman_decompose(sys_small)
        with pytest.raises(StructureError):
            verify_decomposition(sys_large, dec)

    def test_decomposition_of_another_system_fails(self):
        # the stored A_hat, B_hat and C_hat are those of the decomposed
        # system; the verdict must come from the system given, moved by V
        dec = kalman_decompose(structured_split_input(11, 0)[0])
        assert (dec.k, dec.l, dec.d) == (1, 1, 1)
        assert verify_decomposition(dec.system, dec) == dec.residual_report
        report = verify_decomposition(random_system(3, 2, seed=5), dec)
        assert not report.invariance_ok and not report.kernel_ok and not report.passed
        assert report.invariance_residual > 0.1 and report.kernel_residual > 0.1
        assert report.pattern_residual > 1.0

    def test_identity_of_another_system_is_judged_on_the_system_given(self):
        # V = I decomposes every system whose C has rank 2n, so the report
        # of one such system is that system's own, whichever V = I is given
        dec = kalman_decompose(random_system(3, 4, seed=1))
        other = kalman_decompose(random_system(3, 4, seed=2))
        assert dec.V is other.V and (dec.k, other.k) == (3, 3)
        assert verify_decomposition(other.system, dec) == other.residual_report
        assert dec.residual_report != other.residual_report


class TestRefine:
    def test_identity_pair(self):
        sys = structured_system(13, 1, 1, 1)
        dec = kalman_decompose(sys, policy=POPULATION_POLICY)
        E = dec.factorization.E
        pair = RefinementPair(X=np.eye(2 * E.k + E.l), Y=np.eye(2 * E.r))
        out = refine(dec, pair, policy=POPULATION_POLICY)
        assert np.allclose(out.V, dec.V)
        assert out.labels == dec.labels
        assert (out.k, out.l, out.d) == (dec.k, dec.l, dec.d)

    def test_x_is_sized_by_the_nonzero_rows_of_e(self):
        # a 384-row stack factors to a 12 x 12 E: X is 12 x 12, and an X of
        # the stack's height is rejected
        dec = kalman_decompose(random_system(6, 16, 3))
        assert dec.factorization.E.materialize().shape == (12, 12)
        out = refine(dec, RefinementPair(X=np.eye(12), Y=np.eye(12)))
        assert np.array_equal(out.V, dec.V)
        with pytest.raises(StructureError, match=r"do not match E \(12 x 12\)"):
            refine(dec, RefinementPair(X=np.eye(384), Y=np.eye(12)))

    def test_no_observable_state_refines_with_an_empty_x(self):
        # C = 0 gives k = l = 0: E has no rows, and the empty X is invertible
        dec = kalman_decompose(build_system(np.eye(4), np.zeros((2, 4)), np.eye(2)))
        assert (dec.k, dec.l) == (0, 0)
        out = refine(dec, RefinementPair(X=np.zeros((0, 0)), Y=np.eye(4)))
        assert np.array_equal(out.V, dec.V)
        assert out.labels == dec.labels

    def test_block_symplectic_on_decoupled_states(self):
        # mixing only the uncontrollable-unobservable pair slots keeps the
        # canonical pattern untouched
        sys = structured_system(13, 1, 1, 2)
        dec = kalman_decompose(sys, policy=POPULATION_POLICY)
        E = dec.factorization.E
        n, d = sys.n, dec.d
        rng = np.random.default_rng(4)
        Sd = random_symplectic(d, rng)
        Y = np.eye(2 * n)
        slots = list(range(dec.k + dec.l, n)) + list(range(n + dec.k + dec.l, 2 * n))
        Y[np.ix_(slots, slots)] = Sd
        assert is_symplectic(Y).ok
        out = refine(dec, RefinementPair(X=np.eye(2 * E.k + E.l), Y=Y), policy=POPULATION_POLICY)
        assert out.labels == dec.labels
        assert out.residual_report.passed

    def test_pattern_violation_rejected(self):
        sys = structured_system(13, 1, 1, 1)
        dec = kalman_decompose(sys, policy=POPULATION_POLICY)
        E = dec.factorization.E
        n = sys.n
        rng = np.random.default_rng(8)
        Y = random_symplectic(n, rng)  # generic symplectic scrambles the pattern
        with pytest.raises(RefinementRejectedError) as info:
            refine(dec, RefinementPair(X=np.eye(2 * E.k + E.l), Y=Y), policy=POPULATION_POLICY)
        assert info.value.blocks

    def test_rejected_blocks_pinned(self):
        # E's rows split as (k, l, k) and its columns as the six slots.
        # Scaling row k, the unit on slot q_b, by 1e-12 leaves X invertible
        # but puts that diagonal below the pattern bound: a vanished diagonal
        # in block (1, 1).  Adding row 2k + l - 1, whose xi sits on p_a, into
        # row 0 puts an entry off the pattern in (0, 3).
        sys = structured_system(13, 1, 1, 1)
        dec = kalman_decompose(sys, policy=POPULATION_POLICY)
        E = dec.factorization.E
        k, l = E.k, E.l
        assert (k, l) == (1, 1)
        X = np.eye(2 * k + l)
        X[k, k] = 1e-12
        X[0, 2 * k + l - 1] = 0.5
        with pytest.raises(RefinementRejectedError) as info:
            refine(dec, RefinementPair(X=X, Y=np.eye(2 * E.r)), policy=POPULATION_POLICY)
        assert info.value.blocks == ((0, 3), (1, 1))
        assert all(type(index) is int for block in info.value.blocks for index in block)
        assert str(info.value) == ("refinement rejected: X E Y does not match the canonical "
                                   "pattern at blocks ((0, 3), (1, 1))")

    def test_nonsymplectic_y_rejected(self):
        sys = structured_system(13, 1, 1, 1)
        dec = kalman_decompose(sys, policy=POPULATION_POLICY)
        E = dec.factorization.E
        with pytest.raises(ValidationError, match="Y symplectic"):
            refine(dec, RefinementPair(X=np.eye(2 * E.k + E.l), Y=2.0 * np.eye(2 * sys.n)))

    def test_singular_x_rejected(self):
        sys = structured_system(13, 1, 1, 1)
        dec = kalman_decompose(sys, policy=POPULATION_POLICY)
        E = dec.factorization.E
        X = np.zeros((2 * E.k + E.l, 2 * E.k + E.l))
        with pytest.raises(ValidationError, match="X invertible"):
            refine(dec, RefinementPair(X=X, Y=np.eye(2 * sys.n)))

    @pytest.mark.parametrize("scale", [1e160, 1e300, 1e-160, 1e-300])
    def test_huge_x_accepted(self, scale):
        # X E Y = scale * E matches the pattern exactly; neither the norm of
        # X E Y, whose square overflows or underflows, nor an absolute floor
        # on the pattern bound may make the check reject it
        dec = kalman_decompose(optomech.build(1.0, 1.0, 1.0))
        E = dec.factorization.E
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = refine(dec, RefinementPair(X=scale * np.eye(2 * E.k + E.l), Y=np.eye(2 * E.r)))
        assert np.array_equal(out.V, dec.V)
        assert out.labels == dec.labels

    def test_x_check_uses_the_policy(self):
        # the demo's 3 x 3 X has singular values 3.39, 1 and 0.723, so a
        # scale of 4e14 puts the cutoff scale * eps * 3 * 3.39 at 0.90,
        # above the smallest
        dec = kalman_decompose(optomech.build(1.0, 1.0, 1.0))
        pair = optomech.refinement_pair(dec)
        assert pair.X.shape == (3, 3)
        with pytest.raises(ValidationError, match="X invertible"):
            refine(dec, pair, policy=TolerancePolicy(scale=4e14))


class TestClassifyStates:
    def test_position_coupled_mode(self):
        dec = kalman_decompose(position_coupled_mode())
        assert dec.labels == (LABEL_NCO, LABEL_CNO)
        # the unobservable state is the momentum direction
        assert abs(dec.V[1, 0]) < 1e-12
        assert abs(dec.V[1, 1]) > 0.1

    def test_uncoupled_all_ncno(self):
        sys = build_system(np.eye(4), np.zeros((2, 4)), np.eye(2))
        assert set(kalman_decompose(sys).labels) == {LABEL_NCNO}


class TestSubspaceAgreement:
    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 1, 0), (0, 2, 1), (1, 0, 2)])
    def test_against_krylov_oracles(self, shape):
        sys = structured_system(77, *shape)
        dec = kalman_decompose(sys, policy=POPULATION_POLICY)
        n = sys.n
        kry = krylov_matrices(sys, variant="jr")
        controllable = numerical_rank(kry.controllability, POPULATION_POLICY).image
        unobservable = numerical_rank(kry.observability, POPULATION_POLICY).kernel
        V_inv = sharp_adjoint(dec.V)
        ctl_slots = [i for i, lab in enumerate(dec.labels) if lab in (LABEL_CO, LABEL_CNO)]
        unobs_slots = [i for i, lab in enumerate(dec.labels) if lab in (LABEL_CNO, LABEL_NCNO)]
        ctl_span = numerical_rank(V_inv[:, ctl_slots]).image
        unobs_span = numerical_rank(V_inv[:, unobs_slots]).image
        assert controllable.dim == len(ctl_slots)
        assert unobservable.dim == len(unobs_slots)
        if controllable.dim:
            assert largest_angle(controllable, ctl_span) <= 1e-7
        if unobservable.dim:
            assert largest_angle(unobservable, unobs_span) <= 1e-7


def _quotient(sys, V, k: int, l: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The pair (W^T G W, C W) that verify_transformation judges, W from
    the same complete QR of V#'s columns on the unobservable slots, and
    (G, C) itself when there are none."""
    unobs = slot_indices(k, l, d, UNOBSERVABLE)
    G = jmat(sys.n) @ sys.R
    if not unobs.size:
        return G, sys.C
    W = np.linalg.qr(sharp_adjoint(V)[:, unobs], mode="complete").Q[:, unobs.size:]
    return W.T @ G @ W, sys.C @ W


def _qz_margin(G_q, C_q) -> float:
    """The margin from scipy.linalg.eig on the identity pencil, each complex
    eigenvector normalized on its own: the reference for
    observability_margin, which reads ggev's packed real output."""
    _, X = scipy.linalg.eig(G_q, np.eye(G_q.shape[0]))
    X = X / np.linalg.norm(X, axis=0)
    return float(np.min(np.linalg.norm(C_q @ X, axis=0))) / float(np.linalg.norm(C_q, 2))


def _uncertified_margin(G_q, C_q) -> float:
    """observability_margin with its certificate switched off, so that
    every pair takes the QZ."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symkal.kalman, "MIN_PBH_MARGIN", np.inf)
        margin, certified = observability_margin(lambda: G_q, C_q)
    assert not certified
    return margin


class TestObservabilityMargin:
    @pytest.mark.parametrize("seed, index", [(21, 266), (1003, 189), (1030, 219)])
    def test_known_wrong_answers_rejected(self, seed, index):
        # the factorization reads an ncno pair of these structured_split
        # inputs as co; the claimed unobservable subspace is invariant and
        # dark, so only the Hautus margin on the quotient can tell
        sys, (k, l, d) = structured_split_input(seed, index)
        with pytest.raises(ConsistencyError) as info:
            kalman_decompose(sys)
        report = info.value.report
        assert (report.k, report.l, report.d) == (k + 1, l, d - 1)
        assert report.ccr_ok and report.invariance_ok and report.kernel_ok
        assert not report.observability_ok

    @pytest.mark.parametrize("index", [42, 145])
    def test_wrong_sizes_past_min_rcond_rejected(self, monkeypatch, index):
        # structured_split seed 11 inputs that factorization.MIN_RCOND keeps
        # out: without it the route returns one l too many, with ||V||_F up
        # to 6.3e12, and the invariance check rejects the subspace
        monkeypatch.setattr(symkal.factorization, "MIN_RCOND", 0.0)
        sys, truth = structured_split_input(11, index)
        try:
            dec = kalman_decompose(sys)
        except (ConsistencyError, RankAmbiguityError):
            return
        assert (dec.k, dec.l, dec.d) == truth

    def test_wrong_sizes_within_min_rcond_rejected(self):
        # structured_split seed 17 input 247, truly (19, 3, 5): the route
        # returns (19, 5, 3) with cond(V) 5.6e13, which MIN_RCOND lets
        # through, and the invariance check rejects the subspace
        sys, truth = structured_split_input(17, 247)
        try:
            dec = kalman_decompose(sys)
        except (ConsistencyError, RankAmbiguityError):
            return
        assert (dec.k, dec.l, dec.d) == truth

    def test_ncno_pair_claimed_co(self):
        sys = structured_system(9, 1, 0, 1)
        dec = kalman_decompose(sys, policy=POPULATION_POLICY)
        assert (dec.k, dec.l, dec.d) == (1, 0, 1)
        checks = verify_transformation(sys, dec.V, 2, 0, 0, dec.A_hat, dec.B_hat, dec.C_hat)
        assert checks.ccr_ok and checks.invariance_ok and checks.kernel_ok
        assert not checks.observability_ok
        assert checks.observability_margin <= 1e-14

    def test_pair_claimed_co_fails_above_sqrt_eps(self):
        # claiming (k + 1, l - 1, d) with the true V moves one nco/cno pair
        # into co.  Where the subspace left unobservable stays invariant and
        # dark, the margin must reject it; where the eigenvalues of that pair
        # meet, it sits at the sqrt(eps) level of a Jordan pair rather than
        # at rounding
        shapes = [shape for shape in STRUCTURED_SHAPES if shape[1] >= 1]
        margins = []
        for k, l, d in shapes:
            for seed in range(100, 130):
                sys = structured_system(seed, k, l, d)
                dec = kalman_decompose(sys, policy=POPULATION_POLICY)
                checks = verify_transformation(sys, dec.V, k + 1, l - 1, d,
                                               dec.A_hat, dec.B_hat, dec.C_hat)
                assert not checks.passed, (k, l, d, seed)
                if checks.ccr_ok and checks.invariance_ok and checks.kernel_ok:
                    margins.append(checks.observability_margin)
        assert len(margins) >= 100
        assert max(margins) > np.sqrt(np.finfo(float).eps)

    def test_refined_demo_keeps_its_margin(self):
        # refinement leaves a q_b row of A_hat near 1e-34, where a balanced
        # eigensolver returned a wrong eigenvector and a margin near 1e-17;
        # the margin on the quotient of G must match the reference
        _, _, refined, _, _, _ = optomech.run(2.0, 0.5, 1.5)
        report = refined.residual_report
        assert report.observability_margin > 0.1 and not report.observability_certified
        reference = _qz_margin(*_quotient(refined.system, refined.V, 1, 1, 1))
        assert abs(report.observability_margin - reference) <= 1e-12 * reference

    def test_empty_and_dark_blocks(self):
        sys = build_system(np.eye(4), np.zeros((2, 4)))
        dec = kalman_decompose(sys)
        assert dec.residual_report.observability_margin == np.inf
        checks = verify_transformation(sys, dec.V, 1, 0, 1, dec.A_hat, dec.B_hat, dec.C_hat)
        assert checks.observability_margin == 0.0
        assert not checks.passed

    def test_zero_r_and_c_compare_products(self):
        # G = 0 and C = 0: each backward error is 0 against a scale of 0,
        # which passes rather than dividing 0 by 0
        sys = build_system(np.zeros((4, 4)), np.zeros((2, 4)))
        dec = kalman_decompose(sys)
        assert (dec.k, dec.l, dec.d) == (0, 0, 2)
        report = dec.residual_report
        assert report.passed and report.observability_margin == np.inf
        assert report.invariance_residual == report.kernel_residual == 0.0
        checks = verify_transformation(sys, np.eye(4), 1, 0, 1, sys.A, sys.B, sys.C)
        assert checks.invariance_ok and checks.kernel_ok
        assert checks.observability_margin == 0.0 and not checks.passed


class TestMarginAgainstQZ:
    """observability_margin reads scipy's ggev output without scipy.linalg.eig
    around it; the margin that eig gives is the reference, to 1e-12 relative.
    The certificate is switched off, so that every pair takes the QZ."""

    @staticmethod
    def _assert_matches(dec):
        G_q, C_q = _quotient(dec.system, dec.V, dec.k, dec.l, dec.d)
        margin = _uncertified_margin(G_q, C_q)
        reference = _qz_margin(G_q, C_q)
        assert abs(margin - reference) <= 1e-12 * reference, (margin, reference)
        return margin

    @pytest.mark.parametrize("shape", STRUCTURED_SHAPES)
    def test_structured_population(self, shape):
        for seed in range(40, 44):
            self._assert_matches(kalman_decompose(structured_system(seed, *shape),
                                                  policy=POPULATION_POLICY))

    def test_random_population(self):
        for n in range(1, 7):
            for m in (1, 2, 3):
                self._assert_matches(kalman_decompose(random_system(n, m, seed=10 * n + m)))

    def test_odd_block_with_a_real_eigenvalue(self):
        # 2k + l = 3 states on the quotient: a real 3 x 3 matrix has a real
        # eigenvalue, and here a complex pair beside it
        dec = kalman_decompose(structured_system(15, 1, 1, 1))
        G_q, _ = _quotient(dec.system, dec.V, 1, 1, 1)
        assert (np.linalg.eigvals(G_q).imag == 0).sum() == 1
        self._assert_matches(dec)

    def test_unconverged_qz_raises(self, monkeypatch):
        ggev = symkal.kalman._dggev

        def failing(*args, **kwargs):
            return ggev(*args, **kwargs)[:-1] + (3,)

        dec = kalman_decompose(random_system(2, 1, seed=11))
        G_q, C_q = _quotient(dec.system, dec.V, dec.k, dec.l, dec.d)
        monkeypatch.setattr(symkal.kalman, "_dggev", failing)
        with pytest.raises(np.linalg.LinAlgError, match=r"\(ggev\) did not converge \(LAPACK info=3\)"):
            observability_margin(lambda: G_q, C_q)


class TestCertifiedMargin:
    """observability_margin bounds the Hautus margin by sigma_min(C_q) /
    sigma_max(C_q), less its rounding, and takes no QZ when that bound
    reaches MIN_PBH_MARGIN; any other pair takes the QZ margin."""

    @staticmethod
    def _assert_sound(dec) -> bool:
        """Whether the report's margin is certified; a certified one must lie
        below the QZ margin, with the same verdict."""
        report = dec.residual_report
        qz = _uncertified_margin(*_quotient(dec.system, dec.V, dec.k, dec.l, dec.d))
        if report.observability_certified:
            assert report.observability_margin <= qz * (1 + 1e-12), (report, qz)
            assert report.observability_ok == (qz >= MIN_PBH_MARGIN)
        else:
            assert report.observability_margin == qz
        return report.observability_certified

    def test_random_population(self):
        certified = [self._assert_sound(kalman_decompose(random_system(n, m, seed)))
                     for n in range(1, 7) for m in range(1, 17) for seed in range(3)]
        # C_q = C is 2m x 2n: certified from m = n on
        assert sum(certified) >= 100

    def test_structured_population(self):
        certified = [self._assert_sound(kalman_decompose(structured_system(seed, *shape),
                                                         policy=POPULATION_POLICY))
                     for shape in STRUCTURED_SHAPES for seed in range(40, 44)]
        assert 0 < sum(certified) < len(certified)

    @staticmethod
    def _counted_qz(monkeypatch) -> list:
        """The order of every QZ the verifier runs; ggev's workspace query,
        which _identity_pencil makes once per order, is not one."""
        calls = []
        ggev = symkal.kalman._dggev

        def counting(a, b, **kwargs):
            if kwargs.get("lwork") != -1:
                calls.append(a.shape)
            return ggev(a, b, **kwargs)

        monkeypatch.setattr(symkal.kalman, "_dggev", counting)
        return calls

    def test_wide_c_of_deficient_rank_takes_qz(self, monkeypatch):
        # C_q is 10 x 5, but only two fields couple: rank C_q <= 4
        system = with_uncoupled_fields(2, 1, 1, 3, seed=0)
        calls = self._counted_qz(monkeypatch)
        dec = kalman_decompose(system)
        assert calls == [(5, 5)]
        assert self._assert_sound(dec) is False

    def test_dark_c_gives_zero_without_qz(self, monkeypatch):
        # sigma_max(C_q) = 0: no eigenvector is seen, and none is computed
        sys = build_system(np.eye(4), np.zeros((2, 4)))
        calls = self._counted_qz(monkeypatch)
        checks = verify_transformation(sys, np.eye(4), 1, 0, 1, sys.A, sys.B, sys.C)
        assert calls == []
        assert checks.observability_margin == 0.0
        assert not checks.observability_certified and not checks.passed

    def test_certified_result_takes_no_qz(self, monkeypatch):
        def failing(*args, **kwargs):
            raise AssertionError("ggev called")

        monkeypatch.setattr(symkal.kalman, "_dggev", failing)
        dec = kalman_decompose(random_system(6, 16, seed=3))
        report = dec.residual_report
        assert report.passed and report.observability_certified
        assert report == verify_decomposition(dec.system, dec)
