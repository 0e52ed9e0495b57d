"""Kalman decomposition of a quadrature system by a symplectic state change.

The observability stack is factored as Q E Z^{-1}; the state transformation
V = Z^{-1} is symplectic, so the transformed system is again a valid
quadrature model, and the canonical sparsity of E forces the transformed
(A, B, C) into a block pattern that separates the four controllability and
observability classes while keeping conjugate coordinate pairs together.
A stack of full rank 2n has no unobservable subspace; it is not factored,
and V = I.  Nor is it built when its first block C already has rank 2n.

Every result is checked by verify_transformation before it is returned,
in the input's own coordinates: V must be symplectic, and the subspace it
claims unobservable must be invariant under G = J R and dark to C, with a
quotient pair (W^T G W, C W) whose Hautus margin reaches MIN_PBH_MARGIN.
The margin is certified from the singular values of C W where they can;
otherwise one QZ of W^T G W runs, through scipy's dggev, which is imported
on its first call, so a certified result loads no scipy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConsistencyError,
    RefinementRejectedError,
    StructureError,
    ValidationError,
)
from .factorization import (
    CONTROLLABLE,
    OBSERVABLE,
    SLOTS,
    UNOBSERVABLE,
    CanonicalE,
    SymplecticFactorization,
    compress,
    decide_rank,
    factor,
    slot_indices,
)
from .linalg import (
    DEFAULT_POLICY,
    SYMPLECTIC_TOL,
    TolerancePolicy,
    as_matrix,
    is_symplectic,
    jmat,
    readonly,
    scaled_norm,
    sharp_adjoint,
    smallest_gain,
)
from .model import QuadratureSystem, krylov_matrices

# relative tolerance of refine's pattern check of X E Y, and of the stored
# matrices of a report against those recomputed from its V in symkal verify
CHECK_TOL = 1e-8
# the verifier's cut: largest backward error of the claimed unobservable
# subspace, and smallest Hautus margin of the quotient.  Correct answers sit
# below 1e-8 and above 2e-3; an nco/cno pair misread as co has a margin at
# rounding level, or up to about 6e-8 where its eigenvalues form a Jordan pair
MIN_PBH_MARGIN = 1e-6

LABEL_CO = "co"
LABEL_NCO = "nco"
LABEL_CNO = "cno"
LABEL_NCNO = "ncno"

LABEL_MEANINGS = {
    LABEL_CO: "controllable and observable",
    LABEL_NCO: "uncontrollable, observable",
    LABEL_CNO: "controllable, unobservable",
    LABEL_NCNO: "uncontrollable and unobservable",
}

# the class of a slot by (controllable, unobservable), and of each slot
_CLASSES = {(True, False): LABEL_CO, (False, False): LABEL_NCO,
            (True, True): LABEL_CNO, (False, True): LABEL_NCNO}
_SLOT_LABELS = tuple(_CLASSES[slot in CONTROLLABLE, slot in UNOBSERVABLE] for slot in SLOTS)


def state_labels(k: int, l: int, d: int) -> tuple[str, ...]:
    """Per-state classification in the (q_a, q_b, q_c, p_a, p_b, p_c) order."""
    return tuple(_SLOT_LABELS[slot] for slot in SLOTS for _ in slot_indices(k, l, d, (slot,)))


def _largest(values) -> float:
    return float(np.abs(values).max(initial=0.0))


@lru_cache(maxsize=512)
def _zero_masks(k: int, l: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only masks of the mandated zeros of A_hat, of the rows of
    B_hat and of the columns of C_hat, built once per shape."""
    ctl = np.zeros(2 * (k + l + d), dtype=bool)
    unobs = np.zeros(2 * (k + l + d), dtype=bool)
    ctl[slot_indices(k, l, d, CONTROLLABLE)] = True
    unobs[slot_indices(k, l, d, UNOBSERVABLE)] = True
    masks = ((ctl[None, :] & ~ctl[:, None]) | (unobs[None, :] & ~unobs[:, None]), ~ctl, unobs)
    for mask in masks:
        mask.setflags(write=False)
    return masks


def pattern_residuals(A_hat, B_hat, C_hat, k: int, l: int, d: int) -> tuple[float, float, float]:
    """Largest magnitude inside each set of mandated zero blocks.

    A_hat maps the controllable and the unobservable subspaces into
    themselves, so an entry is zero where its column lies in one of them and
    its row does not.  B_hat has no uncontrollable rows and C_hat no
    unobservable columns.
    """
    a_zero, b_zero, c_zero = _zero_masks(k, l, d)
    return _largest(A_hat[a_zero]), _largest(B_hat[b_zero]), _largest(C_hat[:, c_zero])


def pattern_violations(E: CanonicalE, T: np.ndarray) -> list[tuple[int, int]]:
    """(row block, slot) coordinates, in row-major order, where a
    (2k + l) x 2r T breaks the pattern of E: an entry above
    CHECK_TOL * ||T|| off the support of E, or one at or below it on the
    support.  Rows split into one block per observable slot, holding E's
    run on that slot's columns."""
    support = E.materialize() != 0
    scale = CHECK_TOL * scaled_norm(T)
    bad = np.where(support, np.abs(T) <= scale, np.abs(T) > scale)
    sizes = [slot_indices(E.k, E.l, E.d, (slot,)).size for slot in SLOTS]
    row_block = np.repeat(np.arange(len(OBSERVABLE)), [sizes[slot] for slot in OBSERVABLE])
    col_slot = np.repeat(SLOTS, sizes)
    return sorted({(int(row_block[i]), int(col_slot[j])) for i, j in zip(*np.nonzero(bad))})


@dataclass(frozen=True)
class DecompositionChecks:
    """The verdicts on one decomposition and the numbers they read.  The
    pattern residuals, the largest entries in the mandated zero blocks of
    A_hat, B_hat and C_hat, are reported but decide nothing."""

    ccr_residual: float
    ccr_ok: bool
    pattern_a: float
    pattern_b: float
    pattern_c: float
    invariance_residual: float
    invariance_ok: bool
    kernel_residual: float
    kernel_ok: bool
    observability_margin: float
    observability_ok: bool
    # True when observability_margin is the bound certified from the
    # singular values of C W, False when it is the QZ margin itself
    observability_certified: bool
    k: int
    l: int
    d: int

    @property
    def pattern_residual(self) -> float:
        return max(self.pattern_a, self.pattern_b, self.pattern_c)

    @property
    def passed(self) -> bool:
        return self.ccr_ok and self.invariance_ok and self.kernel_ok and self.observability_ok

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class KalmanDecomposition:
    """A symplectic V with the transformed system and state classification.

    State ordering after the transformation is (q_a, q_b, q_c, p_a, p_b, p_c)
    with block sizes (k, l, d, k, l, d); conjugate pairs stay aligned, and
    the q_b block is conjugate to the p_b block.
    """

    system: QuadratureSystem
    factorization: SymplecticFactorization
    V: np.ndarray
    k: int
    l: int
    A_hat: np.ndarray
    B_hat: np.ndarray
    C_hat: np.ndarray
    D: np.ndarray
    residual_report: DecompositionChecks

    def __post_init__(self):
        for name in ("V", "A_hat", "B_hat", "C_hat", "D"):
            object.__setattr__(self, name, readonly(getattr(self, name)))

    @property
    def d(self) -> int:
        return self.system.n - self.k - self.l

    @property
    def labels(self) -> tuple[str, ...]:
        return state_labels(self.k, self.l, self.d)


def _transformed(sys: QuadratureSystem, V: np.ndarray):
    V_inv = sharp_adjoint(V)
    return V @ sys.A @ V_inv, V @ sys.B, sys.C @ V_inv, sys.D


def _dggev(*args, **kwargs):
    """scipy's dggev, loaded by the first call that runs a QZ."""
    from scipy.linalg.lapack import dggev
    return dggev(*args, **kwargs)


@lru_cache(maxsize=128)
def _identity_pencil(order: int) -> tuple[np.ndarray, int]:
    """The read-only identity of order ``order`` and the workspace size
    ggev asks for on a pencil of that order, which depends on the order
    alone."""
    eye = np.eye(order)
    eye.setflags(write=False)
    return eye, int(_dggev(eye, eye, lwork=-1)[-2][0])


def observability_margin(G_q, C_q: np.ndarray) -> tuple[float, bool]:
    """Hautus margin of the pair (G_q(), C_q), and whether it is certified.

    The margin is the smallest ||C_q x|| / sigma_max(C_q) over the unit
    right eigenvectors x of G_q(): 0 when one is invisible in the output,
    inf for a pair with no state.  smallest_gain's bound on sigma_min /
    sigma_max(C_q) bounds it from below whatever G_q() is; a bound of at
    least MIN_PBH_MARGIN is returned as certified, and G_q is not called.
    """
    if C_q.shape[1] == 0:
        return float("inf"), False
    bound, top = smallest_gain(C_q)
    if not top:
        return 0.0, False
    if bound >= MIN_PBH_MARGIN:
        return bound, True
    # QZ on the identity pencil only permutes; geev's scaling balance can
    # return a wrong eigenvector when a row of the matrix is near 1e-34, as
    # in the refined optomechanical demo.  The call and its workspace query
    # are those of scipy.linalg.eig(G_q, I), so X holds the same
    # eigenvectors; they are normalized below through squared norms, all
    # columns at once
    eye, lwork = _identity_pencil(C_q.shape[1])
    _, alphai, _, _, X, _, info = _dggev(G_q(), eye, compute_vl=0, lwork=lwork)
    if info:
        raise np.linalg.LinAlgError(
            f"generalized eig algorithm (ggev) did not converge (LAPACK info={info})")
    # a complex pair comes packed as the real and imaginary parts of x in
    # two columns; both x and its conjugate take the pair's summed squared
    # norms (the pair mask is scipy's)
    x_sq = np.sum(X * X, axis=0)
    cx = C_q @ X
    cx_sq = np.sum(cx * cx, axis=0)
    pair = alphai > 0
    pair[:-1] |= alphai[1:] < 0
    first = np.flatnonzero(pair)
    for sq in (x_sq, cx_sq):
        sq[first] += sq[first + 1]
        sq[first + 1] = sq[first]
    return float(np.sqrt(np.min(cx_sq / x_sq))) / top, False


def _backward_error(residual: float, scale: float) -> tuple[float, bool]:
    """residual / scale, and whether it is at most MIN_PBH_MARGIN, judged on
    products: a zero G or C has residual 0 too, and passes."""
    return (residual / scale if residual else 0.0), residual <= MIN_PBH_MARGIN * scale


def verify_transformation(sys: QuadratureSystem, V: np.ndarray, k: int, l: int, d: int,
                          A_hat, B_hat, C_hat) -> DecompositionChecks:
    """Check a state transformation V and its claimed (k, l, d) on a system.

    Once V is symplectic, (k, l, d) is fixed by N, the span of V#'s columns
    on the slots claimed unobservable: the form on N has the p_b slots as
    its radical, and its symplectic complement is the controllable
    subspace.  So N is judged through orthonormal bases, U of N and W of
    its orthogonal complement, and cond(V) enters no verdict.  The backward
    errors ||G U - U U^T G U||_F / ||G||_F, with G = J R, and
    ||C U||_F / ||C||_F measure the smallest changes to G and C that make N
    invariant and unobservable; the Hautus margin of (W^T G W, C W) leaves
    no other unobservable mode.  No verdict reads the Krylov stacks or the
    given transformed matrices.  N = {0} takes no QR, and forms G only for
    a QZ.
    """
    n = sys.n
    V = np.asarray(V)
    if V.shape != (2 * n, 2 * n):
        raise StructureError(f"V has shape {V.shape}, expected {(2 * n, 2 * n)}")
    if k + l + d != n:
        raise StructureError(f"k + l + d = {k + l + d}, expected n = {n}")
    J = jmat(n)
    ccr_residual = scaled_norm(V @ J @ V.T - J)
    # the bound divides rather than scales: a V whose norm overflows gives
    # inf / inf = nan, a failure, never an infinite bound
    v = max(1.0, scaled_norm(V))
    unobs = slot_indices(k, l, d, UNOBSERVABLE)
    if unobs.size:
        Q = np.linalg.qr(sharp_adjoint(V)[:, unobs], mode="complete").Q
        U, W = Q[:, :unobs.size], Q[:, unobs.size:]
        G = J @ sys.R
        GU = G @ U
        invariance = _backward_error(scaled_norm(GU - U @ (U.T @ GU)), scaled_norm(G))
        kernel = _backward_error(scaled_norm(sys.C @ U), scaled_norm(sys.C))
        margin, certified = observability_margin(lambda: W.T @ G @ W, sys.C @ W)
    else:
        invariance = kernel = (0.0, True)
        margin, certified = observability_margin(lambda: J @ sys.R, sys.C)
    pattern_a, pattern_b, pattern_c = pattern_residuals(A_hat, B_hat, C_hat, k, l, d)
    return DecompositionChecks(
        ccr_residual=ccr_residual, ccr_ok=ccr_residual / v / v <= SYMPLECTIC_TOL,
        pattern_a=pattern_a, pattern_b=pattern_b, pattern_c=pattern_c,
        invariance_residual=invariance[0], invariance_ok=invariance[1],
        kernel_residual=kernel[0], kernel_ok=kernel[1],
        observability_margin=margin, observability_ok=margin >= MIN_PBH_MARGIN,
        observability_certified=certified, k=k, l=l, d=d)


def kalman_decompose(sys: QuadratureSystem,
                     policy: TolerancePolicy | None = None) -> KalmanDecomposition:
    """Decompose a system into its four controllability/observability classes.

    Factors the observability stack, takes V = Z^{-1}, and judges V and the
    unobservable subspace it claims with verify_transformation.  When the
    stack's rank decision gives
    rank F = 2n, the unobservable subspace Ker F is {0}, (k, l, d) = (n, 0, 0)
    and V = I: the factorization is then Xu's form of the orthonormal basis
    I of Ker F's complement, E = I and Z = I, and no skew form is taken.
    Ker F lies in Ker C, so when C has 2m >= 2n rows and the decision on
    its singular values, stage "rank C", gives rank C = 2n, the same V = I
    is returned before the stack is built.
    A ConsistencyError (with the full report attached) is raised instead of
    returning a silently inconsistent decomposition.
    """
    policy = policy or DEFAULT_POLICY
    n = sys.n
    two_m = sys.C.shape[0]
    # C is the stack's first block, so N lies in Ker C: a C of rank 2n leaves
    # N = {0} with no power of G.  Its overflow test is the stack's, and also
    # keeps C# C in A finite
    if two_m >= 2 * n and decide_rank(np.linalg.svd(sys.C, compute_uv=False), two_m, policy,
                                      "C").rank == 2 * n:
        return _without_kernel(sys)
    # krylov_matrices has tested the stack for finiteness
    compressed = compress(krylov_matrices(sys, variant="jr").observability, policy)
    if compressed.rank_f.rank == 2 * n:
        return _without_kernel(sys)
    fact = factor(compressed, policy)
    V = sharp_adjoint(fact.Z)
    return _verified(sys, fact, V, fact.E.k, fact.E.l, "decomposition", _transformed(sys, V))


@lru_cache(maxsize=128)
def _identity_factorization(n: int) -> SymplecticFactorization:
    """Xu's form of the 2n x 2n identity, E = I and Z = I with residual 0,
    built once per n; its Z is read-only and doubles as V = I."""
    eye = np.eye(2 * n)
    eye.setflags(write=False)
    return SymplecticFactorization(E=CanonicalE(r=n, k=n, l=0, xi=np.ones(n)), Z=eye,
                                   residual=0.0)


def _without_kernel(sys: QuadratureSystem) -> KalmanDecomposition:
    """The decomposition (n, 0, 0) of a system with N = {0}: V = I, and the
    factorization is Xu's form of I, the orthonormal basis of N's
    complement, E = I and Z = I.  Every such result of one n shares the
    same read-only V and factorization."""
    n = sys.n
    fact = _identity_factorization(n)
    # V = I leaves the system as it is: no product is taken
    return _verified(sys, fact, fact.Z, n, 0, "decomposition", (sys.A, sys.B, sys.C, sys.D))


def _verified(sys: QuadratureSystem, fact: SymplecticFactorization, V: np.ndarray,
              k: int, l: int, what: str, transformed: tuple) -> KalmanDecomposition:
    """The decomposition of ``sys`` by V with counts (k, l) and the
    ``transformed`` (A_hat, B_hat, C_hat, D), once these pass
    verify_transformation; a ConsistencyError naming ``what`` otherwise."""
    A_hat, B_hat, C_hat, D = transformed
    checks = verify_transformation(sys, V, k, l, sys.n - k - l, A_hat, B_hat, C_hat)
    if not checks.passed:
        raise ConsistencyError(f"{what} failed verification", report=checks)
    # V and the transformed matrices are fresh arrays that nothing else
    # holds, or read-only already, as the system's own C is under V = I:
    # they are frozen in place rather than copied
    for arr in (V, A_hat, B_hat, C_hat, D):
        arr.setflags(write=False)
    return KalmanDecomposition(system=sys, factorization=fact, V=V, k=k, l=l, A_hat=A_hat,
                               B_hat=B_hat, C_hat=C_hat, D=D, residual_report=checks)


def verify_decomposition(sys: QuadratureSystem, dec: KalmanDecomposition) -> DecompositionChecks:
    """Re-derive every invariant of a decomposition from scratch: ``sys`` is
    transformed by dec.V anew, so the stored dec.A_hat, dec.B_hat and
    dec.C_hat are not read."""
    two_n = 2 * sys.n
    if dec.V.shape != (two_n, two_n):
        raise StructureError(f"V has shape {dec.V.shape}, expected {(two_n, two_n)}")
    A_hat, B_hat, C_hat, _ = _transformed(sys, dec.V)
    return verify_transformation(sys, dec.V, dec.k, dec.l, dec.d, A_hat, B_hat, C_hat)


@dataclass(frozen=True)
class RefinementPair:
    """A left factor X and a symplectic Y that reshape E while keeping the
    decomposition valid: X E Y must match the canonical pattern with all
    stored diagonal entries nonzero."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = as_matrix(self.X, "X")
        Y = as_matrix(self.Y, "Y")
        if X.shape[0] != X.shape[1]:
            raise StructureError(f"X must be square, got {X.shape}")
        if Y.shape[0] != Y.shape[1] or Y.shape[0] % 2:
            raise StructureError(f"Y must be square and even-dimensional, got {Y.shape}")
        object.__setattr__(self, "X", readonly(X))
        object.__setattr__(self, "Y", readonly(Y))


def refine(dec: KalmanDecomposition, pair: RefinementPair,
           policy: TolerancePolicy | None = None) -> KalmanDecomposition:
    """Rebuild the decomposition with V' = Y^{-1} V for a validated pair.

    The pair is validated against the decomposition's canonical factor E,
    its (2k + l) x 2r nonzero rows: Y symplectic, the (2k + l) x (2k + l)
    X invertible under ``policy``, and X E Y matching the canonical pattern
    with nonzero diagonals.  Counts and labels are preserved; every
    invariant is re-verified on the result.
    """
    E = dec.factorization.E
    E_mat = E.materialize()
    p = E_mat.shape[0]
    if pair.X.shape[0] != p or pair.Y.shape[0] != 2 * E.r:
        raise StructureError(
            f"pair shapes {pair.X.shape}, {pair.Y.shape} do not match E ({p} x {2 * E.r})")
    y_check = is_symplectic(pair.Y)
    if not y_check.ok:
        raise ValidationError("Y symplectic", residual=y_check.residual)
    sv_x = np.linalg.svd(pair.X, compute_uv=False)
    # an empty X (no observable state) is invertible: the bound 0 keeps no value
    x_rank = (policy or DEFAULT_POLICY).decide(sv_x, p * sv_x.max(initial=0.0), "rank X")
    if x_rank.rank < p:
        raise ValidationError("X invertible", residual=float(sv_x[-1]), detail=str(x_rank))

    violations = pattern_violations(E, pair.X @ E_mat @ pair.Y)
    if violations:
        raise RefinementRejectedError(
            "X E Y does not match the canonical pattern", blocks=violations)
    V = sharp_adjoint(pair.Y) @ dec.V
    return _verified(dec.system, dec.factorization, V, dec.k, dec.l, "refined decomposition",
                     _transformed(dec.system, V))
