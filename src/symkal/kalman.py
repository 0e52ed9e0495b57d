"""Kalman decomposition of a quadrature system by a symplectic state change.

The observability stack is factored as Q E Z^{-1}; the state transformation
V = Z^{-1} is symplectic, so the transformed system is again a valid
quadrature model, and the canonical sparsity of E forces the transformed
(A, B, C) into a block pattern that separates the four controllability and
observability classes while keeping conjugate coordinate pairs together.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg.lapack import dggev as _dggev

from .errors import (
    ConsistencyError,
    RefinementRejectedError,
    StructureError,
    ValidationError,
)
from .factorization import SymplecticFactorization, one_sided_symplectic_svd
from .linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    as_matrix,
    is_symplectic,
    jmat,
    readonly,
    sharp_adjoint,
)
from .model import QuadratureSystem, krylov_matrices

# relative tolerance of the block-zero checks of the verifier and of refine
CHECK_TOL = 1e-8
# smallest Hautus observability margin of the block claimed observable;
# correct decompositions sit above 1e-5, an nco/cno pair misread as co at
# rounding level, or up to about 3e-7 where its eigenvalues form a Jordan pair
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

# Zero blocks of the transformed matrices on the 6-way grid
# (q_a, q_b, q_c, p_a, p_b, p_c) with block sizes (k, l, d, k, l, d).
A_ZERO_BLOCKS = (
    (0, 2), (0, 4), (0, 5),
    (1, 0), (1, 2), (1, 3), (1, 4), (1, 5),
    (2, 0), (2, 3), (2, 4),
    (3, 2), (3, 4), (3, 5),
    (5, 0), (5, 3), (5, 4),
)
B_ZERO_BLOCK_ROWS = (1, 2, 5)
C_ZERO_BLOCK_COLS = (2, 4, 5)

_CLASSICAL_BLOCKS = {
    "A_co": ((0, 3), (0, 3)),
    "A_nco": ((1,), (1,)),
    "A_cno": ((4,), (4,)),
    "A_ncno": ((2, 5), (2, 5)),
    "A_13": ((0, 3), (1,)),
    "A_21": ((4,), (0, 3)),
    "A_23": ((4,), (1,)),
    "A_24": ((4,), (2, 5)),
    "A_43": ((2, 5), (1,)),
    "B_co": ((0, 3), None),
    "B_cno": ((4,), None),
    "C_co": (None, (0, 3)),
    "C_nco": (None, (1,)),
}


def state_labels(k: int, l: int, d: int) -> tuple[str, ...]:
    """Per-state classification in the (q_a, q_b, q_c, p_a, p_b, p_c) order."""
    return tuple([LABEL_CO] * k + [LABEL_NCO] * l + [LABEL_NCNO] * d
                 + [LABEL_CO] * k + [LABEL_CNO] * l + [LABEL_NCNO] * d)


def block_slices(k: int, l: int, d: int) -> list[slice]:
    sizes = (k, l, d, k, l, d)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    return [slice(int(offsets[i]), int(offsets[i + 1])) for i in range(6)]


def pattern_residuals(A_hat, B_hat, C_hat, k: int, l: int, d: int) -> tuple[float, float, float]:
    """Largest magnitude inside each set of mandated zero blocks."""
    slices = block_slices(k, l, d)
    a_max = 0.0
    for i, j in A_ZERO_BLOCKS:
        piece = A_hat[slices[i], slices[j]]
        if piece.size:
            a_max = max(a_max, float(np.max(np.abs(piece))))
    b_max = max((float(np.max(np.abs(B_hat[slices[i], :])))
                 for i in B_ZERO_BLOCK_ROWS if B_hat[slices[i], :].size), default=0.0)
    c_max = max((float(np.max(np.abs(C_hat[:, slices[j]])))
                 for j in C_ZERO_BLOCK_COLS if C_hat[:, slices[j]].size), default=0.0)
    return a_max, b_max, c_max


@dataclass(frozen=True)
class DecompositionChecks:
    """Residuals and the observability margin of one decomposition."""

    ccr_residual: float
    ccr_ok: bool
    pattern_a: float
    pattern_b: float
    pattern_c: float
    pattern_scale: float
    pattern_ok: bool
    observability_margin: float
    observability_ok: bool
    k: int
    l: int
    d: int

    @property
    def pattern_residual(self) -> float:
        return max(self.pattern_a, self.pattern_b, self.pattern_c)

    @property
    def passed(self) -> bool:
        return self.ccr_ok and self.pattern_ok and self.observability_ok

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
    d: int
    A_hat: np.ndarray
    B_hat: np.ndarray
    C_hat: np.ndarray
    D: np.ndarray
    labels: tuple[str, ...]
    residual_report: DecompositionChecks

    def __post_init__(self):
        for name in ("V", "A_hat", "B_hat", "C_hat", "D"):
            object.__setattr__(self, name, readonly(getattr(self, name)))

    @property
    def n(self) -> int:
        return self.system.n

    def classical_block(self, name: str) -> np.ndarray:
        """Named view into A_hat/B_hat/C_hat in classical grouping.

        Recognized names: A_co, A_nco, A_cno, A_ncno, A_13, A_21, A_23,
        A_24, A_43, B_co, B_cno, C_co, C_nco.
        """
        if name not in _CLASSICAL_BLOCKS:
            raise KeyError(f"unknown block {name!r}")
        rows, cols = _CLASSICAL_BLOCKS[name]
        slices = block_slices(self.k, self.l, self.d)

        def gather(mat, row_blocks, col_blocks):
            row_idx = np.concatenate([np.arange(s.start, s.stop) for s in
                                      (slices[i] for i in row_blocks)]) if row_blocks else None
            col_idx = np.concatenate([np.arange(s.start, s.stop) for s in
                                      (slices[j] for j in col_blocks)]) if col_blocks else None
            if row_idx is None:
                return mat[:, col_idx]
            if col_idx is None:
                return mat[row_idx, :]
            return mat[np.ix_(row_idx, col_idx)]

        if name.startswith("A"):
            return gather(self.A_hat, rows, cols)
        if name.startswith("B"):
            return gather(self.B_hat, rows, None)
        return gather(self.C_hat, None, cols)


def _transformed(sys: QuadratureSystem, V: np.ndarray):
    V_inv = sharp_adjoint(V)
    return V @ sys.A @ V_inv, V @ sys.B, sys.C @ V_inv, sys.D


def observability_margin(A_hat, C_hat, k: int, l: int) -> float:
    """Hautus margin of the transformed states claimed observable.

    The block is the slots (q_a, q_b, p_a).  The margin is the smallest
    ||C_obs x|| / ||C_obs||_F over the unit right eigenvectors x of A_obs:
    0 when some eigenvector of the block is invisible in the output, inf
    for an empty block.
    """
    n = A_hat.shape[0] // 2
    obs = np.r_[0:k + l, n:n + k]
    if obs.size == 0:
        return float("inf")
    C_obs = C_hat[:, obs]
    scale = float(np.linalg.norm(C_obs))
    if scale == 0.0:
        return 0.0
    # QZ on the identity pencil only permutes; geev's scaling balance can
    # return a wrong eigenvector when a row of A_obs is near 1e-34, as in
    # the refined optomechanical demo.  The call and its workspace query
    # are those of scipy.linalg.eig(A_obs, I), so X holds the same
    # eigenvectors; they are normalized below through squared norms, all
    # columns at once.
    A_obs = np.asarray_chkfinite(A_hat[np.ix_(obs, obs)])
    eye = np.eye(obs.size)
    lwork = int(_dggev(A_obs, eye, lwork=-1)[-2][0])
    _, alphai, _, _, X, _, info = _dggev(A_obs, eye, compute_vl=0, lwork=lwork)
    if info:
        raise np.linalg.LinAlgError(
            f"generalized eig algorithm (ggev) did not converge (LAPACK info={info})")
    # a complex pair comes packed as the real and imaginary parts of x in
    # two columns; both x and its conjugate take the pair's summed squared
    # norms (the pair mask is scipy's)
    x_sq = np.sum(X * X, axis=0)
    cx = C_obs @ X
    cx_sq = np.sum(cx * cx, axis=0)
    pair = alphai > 0
    pair[:-1] |= alphai[1:] < 0
    first = np.flatnonzero(pair)
    for sq in (x_sq, cx_sq):
        sq[first] += sq[first + 1]
        sq[first + 1] = sq[first]
    return float(np.sqrt(np.min(cx_sq / x_sq))) / scale


def verify_transformation(sys: QuadratureSystem, V: np.ndarray, k: int, l: int, d: int,
                          A_hat, B_hat, C_hat) -> DecompositionChecks:
    """Check a state transformation V and its claimed (k, l, d) on a system.

    Judges the symplecticity of V, the block-zero pattern of the given
    transformed matrices and the Hautus observability margin of the block
    they claim observable.  The pattern makes (p_b, q_c, p_c) an invariant
    subspace inside Ker C_hat, and a positive margin leaves no other
    unobservable mode, so those slots are the unobservable subspace.  Its
    symplectic complement, span(q_a, p_a, p_b) under a symplectic V, is the
    controllable subspace of a quadrature system; so the three checks fix
    (k, l, d) without reading the Krylov stacks the algorithm factors.
    """
    n = sys.n
    V = np.asarray(V)
    if V.shape != (2 * n, 2 * n):
        raise StructureError(f"V has shape {V.shape}, expected {(2 * n, 2 * n)}")
    J = jmat(n)
    ccr_residual = float(np.linalg.norm(V @ J @ V.T - J))
    pattern_a, pattern_b, pattern_c = pattern_residuals(A_hat, B_hat, C_hat, k, l, d)
    pattern_scale = CHECK_TOL * (1.0 + float(np.linalg.norm(A_hat)))
    margin = observability_margin(A_hat, C_hat, k, l)
    return DecompositionChecks(
        ccr_residual=ccr_residual,
        ccr_ok=ccr_residual <= 1e-9,
        pattern_a=pattern_a,
        pattern_b=pattern_b,
        pattern_c=pattern_c,
        pattern_scale=pattern_scale,
        pattern_ok=max(pattern_a, pattern_b, pattern_c) <= pattern_scale,
        observability_margin=margin,
        observability_ok=margin >= MIN_PBH_MARGIN,
        k=k,
        l=l,
        d=d,
    )


def kalman_decompose(sys: QuadratureSystem,
                     policy: TolerancePolicy | None = None) -> KalmanDecomposition:
    """Decompose a system into its four controllability/observability classes.

    Factors the observability stack, takes V = Z^{-1}, and verifies the
    block-zero pattern, the symplecticity of V, and the observability margin
    of the transformed system.  A ConsistencyError (with the full report
    attached) is raised instead of returning a silently inconsistent
    decomposition.
    """
    obs = krylov_matrices(sys, variant="jr").observability
    fact = one_sided_symplectic_svd(obs, policy=policy)
    n = sys.n
    k, l = fact.E.k, fact.E.l
    d = n - k - l
    V = sharp_adjoint(fact.Z)
    A_hat, B_hat, C_hat, D = _transformed(sys, V)
    checks = verify_transformation(sys, V, k, l, d, A_hat, B_hat, C_hat)
    if not checks.passed:
        raise ConsistencyError("decomposition failed verification", report=checks)
    return KalmanDecomposition(
        system=sys, factorization=fact, V=V, k=k, l=l, d=d,
        A_hat=A_hat, B_hat=B_hat, C_hat=C_hat, D=D,
        labels=state_labels(k, l, d), residual_report=checks)


def verify_decomposition(sys: QuadratureSystem, dec: KalmanDecomposition) -> DecompositionChecks:
    """Re-derive every invariant of a decomposition from scratch."""
    return verify_transformation(sys, dec.V, dec.k, dec.l, dec.d,
                                 dec.A_hat, dec.B_hat, dec.C_hat)


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

    The pair is validated against the decomposition's canonical factor E:
    Y symplectic, X invertible under ``policy``, and X E Y matching the
    canonical pattern with nonzero diagonals.  Counts and labels are
    preserved; every invariant is re-verified on the result.
    """
    E = dec.factorization.E
    E_mat = E.materialize()
    if pair.X.shape[0] != E.s or pair.Y.shape[0] != 2 * E.r:
        raise StructureError(
            f"pair shapes {pair.X.shape}, {pair.Y.shape} do not match E ({E.s} x {2 * E.r})")
    y_check = is_symplectic(pair.Y, tol=1e-9)
    if not y_check.ok:
        raise ValidationError("Y symplectic", residual=y_check.residual)
    sv_x = np.linalg.svd(pair.X, compute_uv=False)
    x_rank = (policy or DEFAULT_POLICY).decide(sv_x, E.s * sv_x[0], "rank X")
    if x_rank.rank < E.s:
        raise ValidationError("X invertible", residual=float(sv_x[-1]), detail=str(x_rank))

    transformed_E = pair.X @ E_mat @ pair.Y
    violations = E.pattern_violations(transformed_E, CHECK_TOL)
    if violations:
        raise RefinementRejectedError(
            "X E Y does not match the canonical pattern", blocks=violations)

    V_new = sharp_adjoint(pair.Y) @ dec.V
    A_hat, B_hat, C_hat, D = _transformed(dec.system, V_new)
    checks = verify_transformation(dec.system, V_new, dec.k, dec.l, dec.d,
                                   A_hat, B_hat, C_hat)
    if not checks.passed:
        raise ConsistencyError("refined decomposition failed verification", report=checks)
    return KalmanDecomposition(
        system=dec.system, factorization=dec.factorization, V=V_new,
        k=dec.k, l=dec.l, d=dec.d,
        A_hat=A_hat, B_hat=B_hat, C_hat=C_hat, D=D,
        labels=dec.labels, residual_report=checks)
