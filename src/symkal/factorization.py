"""One-sided symplectic factorization F = Q E Z^{-1}.

Any real F of shape s x 2r factors with Q orthogonal, Z real symplectic,
and E in Xu's sparse canonical pattern, whose shape is controlled by two
integers: k, half the rank of the form F J F^T carried onto the row space,
and l, the rank of F beyond those paired directions.  The decomposition
reads only Z and the counts in E; the square Q is completed from its
leading columns when first read.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from .errors import RankAmbiguityError, StructureError
from .linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    as_matrix,
    is_symplectic,
    jmat,
    largest_angle,
    numerical_rank,
    readonly,
    skew_canonical,
    symplectic_gram_schmidt,
)

# smallest reciprocal condition a full-rank decision accepts: a Gram matrix
# that rounding alone keeps positive definite is not a rank decision
MIN_RCOND = 1e-8
# residual bound of verify_factorization: relative to max(1, ||F||_F) for the
# reconstruction, absolute for the Z and Q residuals
VERIFY_TOL = 1e-8


@dataclass(frozen=True)
class CanonicalE:
    """The sparse middle factor of the factorization, in Xu's form.

    Nonzero entries occupy three diagonal runs: (rows 0..k-1, cols 0..k-1)
    holding xi, (rows k..k+l-1, cols k..k+l-1) holding ones, and
    (rows k+l..2k+l-1, cols r..r+k-1) holding xi again.
    """

    s: int
    r: int
    k: int
    l: int
    xi: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if self.k < 0 or self.l < 0:
            raise StructureError("k and l must be nonnegative")
        if self.k + self.l > self.r:
            raise StructureError(f"k + l = {self.k + self.l} exceeds r = {self.r}")
        if 2 * self.k + self.l > self.s:
            raise StructureError(f"2k + l = {2 * self.k + self.l} exceeds s = {self.s}")
        if xi.shape != (self.k,):
            raise StructureError(f"xi has shape {xi.shape}, expected ({self.k},)")
        if xi.size and not (np.isfinite(xi).all() and (xi > 0).all()):
            raise StructureError("xi entries must be positive and finite")
        object.__setattr__(self, "xi", readonly(xi))

    @property
    def d(self) -> int:
        return self.r - self.k - self.l

    def materialize(self) -> np.ndarray:
        E = np.zeros((self.s, 2 * self.r))
        k, l, r = self.k, self.l, self.r
        E[np.arange(k), np.arange(k)] = self.xi
        E[k + np.arange(l), k + np.arange(l)] = 1.0
        E[k + l + np.arange(k), r + np.arange(k)] = self.xi
        return E

    def kernel_column_indices(self) -> list[int]:
        """Columns annihilated by the pattern."""
        k, l, r = self.k, self.l, self.r
        return list(range(k + l, r)) + list(range(r + k, 2 * r))

    def pattern_violations(self, T: np.ndarray, tol: float) -> list[tuple[int, int]]:
        """Offending 4x6 block coordinates of an s x 2r matrix tested against
        this pattern, plus any vanishing mandated diagonal entries.

        Rows split as (k, l, k, rest) and columns as (k, l, d, k, l, d); the
        three diagonal runs sit in blocks (0, 0), (1, 1) and (2, 3).  Entries
        count as zero up to tol * (1 + ||T||).
        """
        k, l, r = self.k, self.l, self.r
        row_off = np.cumsum([0, k, l, k, self.s - 2 * k - l])
        col_off = np.cumsum([0, k, l, r - k - l, k, l, r - k - l])
        scale = tol * (1.0 + float(np.linalg.norm(T)))
        diag_blocks = {(0, 0), (1, 1), (2, 3)}
        bad = []
        for i in range(4):
            for j in range(6):
                piece = T[row_off[i]:row_off[i + 1], col_off[j]:col_off[j + 1]]
                if not piece.size:
                    continue
                if (i, j) in diag_blocks:
                    off = piece - np.diag(np.diag(piece))
                    if float(np.max(np.abs(off))) > scale:
                        bad.append((i, j))
                    elif np.any(np.abs(np.diag(piece)) <= scale):
                        bad.append((i, j))
                elif float(np.max(np.abs(piece))) > scale:
                    bad.append((i, j))
        return bad


@dataclass(frozen=True)
class SymplecticFactorization:
    """The triple (Q, E, Z) with F Z = Q E and Z symplectic.

    ``Q_lead`` holds the 2k + l leading columns of Q, the only ones F Z = Q E
    uses; the rows of E past them are zero.
    """

    Q_lead: np.ndarray
    E: CanonicalE
    Z: np.ndarray
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "Q_lead", readonly(self.Q_lead))
        object.__setattr__(self, "Z", readonly(self.Z))

    @cached_property
    def Q(self) -> np.ndarray:
        """The square Q: Q_lead completed by an orthonormal basis of the
        complement of its span.  The factorization has already checked that
        Q_lead has full column rank."""
        s, p = self.Q_lead.shape
        if p == s:
            return self.Q_lead
        # a plain SVD, not numerical_rank: this completes a basis rather than
        # deciding a rank, and a second threshold under the default policy
        # could disagree with the one the factorization was run with
        _, _, Vh = np.linalg.svd(self.Q_lead.T)
        return readonly(np.hstack([self.Q_lead, Vh[p:].T]))

    @property
    def k(self) -> int:
        return self.E.k

    @property
    def l(self) -> int:
        return self.E.l


def one_sided_symplectic_svd(F, policy: TolerancePolicy | None = None) -> SymplecticFactorization:
    """Factor F = Q E Z^{-1} with Q orthogonal, Z real symplectic and E in
    Xu's canonical form: twin xi blocks and a unit l-block.

    The counts are pinned to independent rank decisions: k is half the rank
    of F J F^T and l = rank(F) - 2k, both made by ``policy.decide``.  When
    those decisions cannot be reconciled, a RankAmbiguityError carrying the
    decisions is raised rather than guessing.

    Both decisions and Ker F depend only on the row space of F, so one SVD
    first compresses the s x 2r input to at most 2r rows, at O(s (2r)^2).
    Everything after that works on 2r x 2r data at O((2r)^3), apart from
    lifting the paired columns back; the s x s Q is completed only when the
    ``Q`` attribute is first read.
    """
    A = as_matrix(F, "F")
    s, cols = A.shape
    if s == 0 or cols == 0 or cols % 2:
        raise StructureError(f"F must be s x 2r with s, r >= 1, got {A.shape}")
    r = cols // 2
    policy = policy or DEFAULT_POLICY
    J = jmat(r)

    # One SVD F = U_F Sigma V^T compresses the stack to its row space:
    # F = U_F F_c with F_c = Sigma V^T of p = min(s, 2r) rows, so that
    # F J F^T = U_F (F_c J F_c^T) U_F^T and every rank decision below runs on
    # p x p data.  V^T is kept whole because for s < 2r the kernel of F lies
    # beyond the thin factor.  This is not numerical_rank: F_c needs U_F and
    # every singular value, and a second SVD of the stack would cost time.
    U_F, sv, Vh = np.linalg.svd(A, full_matrices=s < cols)
    sigma_f = float(sv[0])
    F_c = sv[:, None] * Vh[:sv.size]
    M_raw = F_c @ J @ F_c.T
    M = 0.5 * (M_raw - M_raw.T)  # remove the rounding asymmetry of the product
    # Rounding in F J F^T sits at the eps * sigma_f^2 level, so the skew
    # spectrum is decided against the bound of the uncompressed s x s
    # product, max(s, 2r) sigma_f^2, which mu_max <= sigma_f^2 never exceeds:
    # compression moves no rank decision.
    size = max(s, cols)
    canon = skew_canonical(M, policy=policy, bound=size * sigma_f * sigma_f)
    k = canon.k

    rank_f = policy.decide(sv, size * sigma_f, "rank F")
    decisions = (rank_f, canon.decision)
    l = rank_f.rank - 2 * k
    d = r - k - l
    if l < 0 or d < 0:
        raise RankAmbiguityError(
            f"rank(F)={rank_f.rank} and rank(F J F^T)={2 * k} imply l={l}, d={d}", *decisions)

    xi = np.sqrt(canon.mus)
    # only the pairs are read: the kernel columns of canon.U are never built
    u_c = canon.pairs[:, 0::2]
    v_c = canon.pairs[:, 1::2]
    u_cols = U_F @ u_c
    v_cols = U_F @ v_c
    # F^T U_F = F_c^T, so the lifted columns map back through F_c alone.
    Za = (J @ (F_c.T @ v_c)) / xi[None, :]
    Za_partner = -(J @ (F_c.T @ u_c)) / xi[None, :]

    N = Vh[rank_f.rank:].T
    if N.shape[1]:
        G_raw = N.T @ J @ N
        G = 0.5 * (G_raw - G_raw.T)
        # N is orthonormal, so the form's rounding sits at the level of J
        canon_ker = skew_canonical(G, policy=policy, bound=cols)
        decisions += (replace(canon_ker.decision, stage="skew_canonical on Ker F"),)
        if canon_ker.k < d:
            raise RankAmbiguityError(
                f"kernel of F carries only {canon_ker.k} symplectic pairs, expected {d}",
                *decisions)
        # Pairs beyond the d mandated ones are threshold noise on an exactly
        # degenerate form; fold them into the radical.
        pair_cols = N @ canon_ker.U[:, :2 * d]
        roots = np.sqrt(canon_ker.mus[:d])
        Zc = pair_cols[:, 0::2] / roots[None, :] if d else np.zeros((2 * r, 0))
        Zc_partner = pair_cols[:, 1::2] / roots[None, :] if d else np.zeros((2 * r, 0))
        W0 = N @ canon_ker.U[:, 2 * d:]
    else:
        Zc = np.zeros((2 * r, 0))
        Zc_partner = np.zeros((2 * r, 0))
        W0 = np.zeros((2 * r, 0))
    if W0.shape[1] != l:
        raise RankAmbiguityError(
            f"kernel radical has dimension {W0.shape[1]}, expected l={l}", *decisions)

    if l:
        Zb = _paired_directions(J, Za, Za_partner, Zc, Zc_partner, W0, policy)
    else:
        Zb = np.zeros((2 * r, 0))

    Z = np.hstack([Za, Zb, Zc, Za_partner, W0, Zc_partner])
    Z, scales = symplectic_gram_schmidt(Z, r)
    xi = xi * scales[:k]

    if l:
        Zb = Z[:, k:k + l]
        W0 = Z[:, r + k:r + k + l]
        Qb_raw = A @ Zb
        _require_full_rank(policy, np.linalg.svd(Qb_raw, compute_uv=False),
                           size * sigma_f, "image of the paired directions")
        # L L^T = Qb_raw^T Qb_raw from the triangular factor of Qb_raw,
        # without squaring its condition as a Cholesky of the Gram would
        R = np.linalg.qr(Qb_raw, mode="r")
        L = (R * np.where(np.diag(R) < 0, -1.0, 1.0)[:, None]).T
        W0 = W0 @ L
        Zb = Zb @ np.linalg.inv(L).T
        Qb = A @ Zb
        Z = Z.copy()
        Z[:, k:k + l] = Zb
        Z[:, r + k:r + k + l] = W0
    else:
        Qb = np.zeros((s, 0))

    Q_lead = np.hstack([u_cols, Qb, v_cols])
    p = Q_lead.shape[1]
    if p < s:
        # the rank check of the completion, made here so that reading Q later
        # cannot fail: the p leading columns must be independent
        numerical_rank(Q_lead, policy, expected_rank=p)

    E = CanonicalE(s=s, r=r, k=k, l=l, xi=xi)
    # rows of E past 2k + l are zero, so Q E = Q_lead E[:2k + l]
    residual = float(np.linalg.norm(A @ Z - Q_lead @ E.materialize()[:p]))
    return SymplecticFactorization(Q_lead=Q_lead, E=E, Z=Z, residual=residual)


def _require_full_rank(policy: TolerancePolicy, values, bound: float, stage: str):
    """Require full rank of descending singular values, with a reciprocal
    condition of at least MIN_RCOND."""
    decision = policy.decide(values, bound, stage, expected=len(values))
    if values[-1] < MIN_RCOND * values[0]:
        raise RankAmbiguityError(f"{stage} has reciprocal condition below {MIN_RCOND:g}",
                                 decision)


def _paired_directions(J, Za, Za_partner, Zc, Zc_partner, W0, policy):
    """Directions dual to the kernel radical W0.

    They live in the form-orthogonal complement of the paired blocks, carry
    unit pairing with W0, and are sheared isotropic.  Being form-orthogonal
    to the a-block forces their images under A to be Euclidean-orthogonal to
    the a-block image, which is what keeps Q orthogonal.
    """
    anchor = numerical_rank(np.hstack([Za, Za_partner, Zc, Zc_partner]), policy).image.basis
    constraints = np.vstack([anchor.T @ J, W0.T])
    candidates = numerical_rank(constraints, policy,
                                expected_rank=J.shape[0] - W0.shape[1]).kernel.basis
    pairing = candidates.T @ J @ W0
    sv_pair = np.linalg.svd(pairing, compute_uv=False)
    _require_full_rank(policy, sv_pair, max(pairing.shape) * float(sv_pair[0]),
                       "pairing of the kernel radical with its complement")
    Zb = candidates @ np.linalg.inv(pairing).T
    shear = Zb.T @ J @ Zb
    return Zb + W0 @ (-shear / 2.0)


@dataclass(frozen=True)
class FactorizationChecks:
    """Residual report for a factorization against its input."""

    reconstruction_residual: float
    reconstruction_ok: bool
    z_symplectic_residual: float
    z_symplectic_ok: bool
    q_residual: float
    q_ok: bool
    q_condition: float
    k: int
    l: int
    k_oracle: int
    l_oracle: int
    counts_ok: bool
    kernel_angle: float
    kernel_ok: bool

    @property
    def passed(self) -> bool:
        return (self.reconstruction_ok and self.z_symplectic_ok and self.q_ok
                and self.counts_ok and self.kernel_ok)

    def as_dict(self) -> dict:
        return asdict(self)


def factor_count_oracles(F, policy: TolerancePolicy | None = None) -> tuple[int, int]:
    """Independent (k, l) from SVD ranks: k = rank(F J F^T) / 2, l = rank(F) - 2k.

    Computed without the eigendecomposition route the factorization uses.
    Both ranks are read off the triangular factor of F = Q_F R, which has
    at most 2r rows and the row space of F, so F J F^T = Q_F (R J R^T) Q_F^T
    is never formed; the bounds are the factorization's.  An odd rank of
    F J F^T raises a RankAmbiguityError.
    """
    A = as_matrix(F, "F")
    s, cols = A.shape
    r = cols // 2
    policy = policy or DEFAULT_POLICY
    R = np.linalg.qr(A, mode="r")
    sv_f = np.linalg.svd(R, compute_uv=False)
    sigma_f = float(sv_f[0]) if sv_f.size else 0.0
    size = max(s, cols)
    sv_m = np.linalg.svd(R @ jmat(r) @ R.T, compute_uv=False)
    form = policy.decide(sv_m, size * sigma_f * sigma_f, "oracle rank F J F^T")
    if form.rank % 2:
        raise RankAmbiguityError(f"rank of F J F^T decided as the odd value {form.rank}", form)
    rank_f = policy.decide(sv_f, size * sigma_f, "oracle rank F").rank
    return form.rank // 2, rank_f - form.rank


def verify_factorization(F, fact: SymplecticFactorization,
                         policy: TolerancePolicy | None = None) -> FactorizationChecks:
    """Check every postcondition of a factorization, reporting residuals.

    Reconstruction is judged against VERIFY_TOL * max(1, ||F||_F); the Z
    and Q residuals against VERIFY_TOL directly.  The kernel check compares
    Ker F with Z applied to the pattern's kernel columns through principal
    angles.
    The Q checks read only Q_lead: the completion is orthonormal and
    orthogonal to it, so Q^T Q = blockdiag(Q_lead^T Q_lead, I).
    """
    A = as_matrix(F, "F")
    policy = policy or DEFAULT_POLICY
    E_mat = fact.E.materialize()
    if A.shape != E_mat.shape:
        raise StructureError(f"F has shape {A.shape} but the factorization expects {E_mat.shape}")
    scale = max(1.0, float(np.linalg.norm(A)))
    s, p = fact.Q_lead.shape
    reconstruction = float(np.linalg.norm(A @ fact.Z - fact.Q_lead @ E_mat[:p]))
    z_residual = is_symplectic(fact.Z).residual
    q_residual = float(np.linalg.norm(fact.Q_lead.T @ fact.Q_lead - np.eye(p)))
    sv_q = np.linalg.svd(fact.Q_lead, compute_uv=False)
    if p < s:
        sv_q = np.append(sv_q, 1.0)
    q_condition = float(sv_q.max() / sv_q.min())

    k_oracle, l_oracle = factor_count_oracles(A, policy)
    counts_ok = (k_oracle == fact.E.k) and (l_oracle == fact.E.l)

    kernel = numerical_rank(A, policy).kernel
    z_kernel = numerical_rank(np.asarray(fact.Z)[:, fact.E.kernel_column_indices()], policy).image
    kernel_angle = largest_angle(kernel, z_kernel)

    return FactorizationChecks(
        reconstruction_residual=reconstruction,
        reconstruction_ok=reconstruction <= VERIFY_TOL * scale,
        z_symplectic_residual=z_residual,
        z_symplectic_ok=z_residual <= VERIFY_TOL,
        q_residual=q_residual,
        q_ok=q_residual <= VERIFY_TOL,
        q_condition=q_condition,
        k=fact.E.k,
        l=fact.E.l,
        k_oracle=k_oracle,
        l_oracle=l_oracle,
        counts_ok=counts_ok,
        kernel_angle=kernel_angle,
        kernel_ok=kernel_angle <= 1e-7,
    )
