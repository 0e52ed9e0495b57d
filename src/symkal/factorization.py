"""One-sided symplectic factorization F = Q E Z^{-1}.

Any real F of shape s x 2r factors with Q orthogonal, Z real symplectic,
and E in Xu's sparse canonical pattern, whose shape is controlled by two
integers: k, half the rank of the form F J F^T carried onto the row space,
and l, the rank of F beyond those paired directions.  Only the 2k + l
leading rows of E are nonzero, so the factorization is kept in its thin
form F Z = Q_lead E: E is those (2k + l) x 2r rows, and Q_lead, the s x
(2k + l) orthonormal leading columns of Q, is not stored.  Each of its
columns is a column of F Z over the one nonzero of E in that row.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import RankAmbiguityError, StructureError, ValidationError
from .linalg import (
    DEFAULT_POLICY,
    ORTHONORMAL_TOL,
    RankDecision,
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

# residual bound of verify_factorization's reconstruction, relative to
# max(1, ||F||_F)
VERIFY_TOL = 1e-8
# largest principal angle verify_factorization accepts between Ker F and Z
# applied to the pattern's kernel columns
MAX_KERNEL_ANGLE = 1e-7

# The block layout.  The columns of Z and of E, and the states once V = Z^-1
# is applied, fall into six slots (q_a, q_b, q_c, p_a, p_b, p_c) of sizes
# (k, l, d, k, l, d).  The controllable subspace sits on CONTROLLABLE and the
# unobservable one on UNOBSERVABLE; every zero block, class and label of a
# decomposition is read off these two sets (Kalman's canonical structure).
SLOTS = range(6)
CONTROLLABLE = (0, 3, 4)  # q_a, p_a, p_b
UNOBSERVABLE = (2, 4, 5)  # q_c, p_b, p_c
OBSERVABLE = tuple(slot for slot in SLOTS if slot not in UNOBSERVABLE)


@lru_cache(maxsize=1024)
def slot_indices(k: int, l: int, d: int, slots: tuple) -> np.ndarray:
    """Positions of the given slots along an axis laid out in the six slots,
    slot after slot; built once per shape and slot tuple, and read-only."""
    sizes = (k, l, d) * 2
    starts = list(accumulate(sizes, initial=0))
    out = np.array([i for slot in slots for i in range(starts[slot], starts[slot] + sizes[slot])],
                   dtype=int)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CanonicalE:
    """The nonzero rows of the sparse middle factor, in Xu's form.

    E is (2k + l) x 2r.  Row i holds one nonzero, on the i-th column of the
    observable slots (q_a, q_b, p_a): xi on q_a, ones on q_b and xi again on
    p_a.  The columns of the unobservable slots are zero.
    """

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
        if xi.shape != (self.k,):
            raise StructureError(f"xi has shape {xi.shape}, expected ({self.k},)")
        if xi.size and not (np.isfinite(xi).all() and (xi > 0).all()):
            raise StructureError("xi entries must be positive and finite")
        object.__setattr__(self, "xi", readonly(xi))

    @property
    def d(self) -> int:
        return self.r - self.k - self.l

    def materialize(self) -> np.ndarray:
        cols = slot_indices(self.k, self.l, self.d, OBSERVABLE)
        E = np.zeros((cols.size, 2 * self.r))
        E[np.arange(cols.size), cols] = np.concatenate([self.xi, np.ones(self.l), self.xi])
        return E


@dataclass(frozen=True)
class SymplecticFactorization:
    """The pair (E, Z) of the thin form F Z = Q_lead E, with Z symplectic.

    Q_lead is not stored.  Row i of E holds one nonzero, on the i-th
    observable column, so Q_lead = (F Z)[:, obs] / (those entries of E),
    with orthonormal columns.
    """

    E: CanonicalE
    Z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Z", readonly(self.Z))


def _check_leading_columns(Q_core: np.ndarray, s: int, policy: TolerancePolicy) -> None:
    """The postcondition that the p leading columns of Q, read here off
    Q_core (U_F keeps singular values), are independent, so that they
    complete to an orthogonal Q; the bound and stage are numerical_rank's on
    the s x p Q_lead.

    Every singular value of Q_core lies in [sqrt(1 - delta), sqrt(1 + delta)]
    for delta = ||Q_core^T Q_core - I||_F, so when delta < 1/2 and the
    policy keeps sqrt(1 - delta) against the largest bound the singular
    values allow, rank p is decided with no SVD.  Otherwise the columns are
    not certified, and a RankAmbiguityError carrying that decision is raised;
    once delta >= 1 the lower bound is 0.
    """
    p = Q_core.shape[1]
    gram = Q_core.T @ Q_core
    gram.reshape(-1)[::p + 1] -= 1.0
    delta = float(np.linalg.norm(gram))
    decision = policy.decide([np.sqrt(max(1.0 - delta, 0.0))],
                             max(s, p) * np.sqrt(1.0 + delta), "numerical_rank")
    if delta >= 0.5 or not decision.rank:
        raise RankAmbiguityError(f"leading columns of Q not certified independent: "
                                 f"||Q_core^T Q_core - I||_F = {delta:.3e}", decision)


@dataclass(frozen=True)
class Compression:
    """An s x 2r F reduced to what the factorization reads of it: the
    triangular factor R_F of F = Q_F R_F, the SVD R_F = U_R Sigma V^T as its
    singular values ``sv`` and the whole V^T ``Vh``, and the decision
    ``rank_f`` on rank F made on them."""

    s: int
    R_F: np.ndarray
    sv: np.ndarray
    Vh: np.ndarray
    rank_f: RankDecision


def compress(A: np.ndarray, policy: TolerancePolicy) -> Compression:
    """The compression of a finite s x 2r array, r >= 1, and its rank decision.

    One Householder QR in mode "r" reduces the s rows to at most 2r at
    O(s (2r)^2); every later step works at O((2r)^3).  One SVD of R_F with
    vectors decides rank F.  V^T is kept whole because for s < 2r the kernel
    of F lies beyond the thin factor.  This is not numerical_rank: the
    factorization needs every singular value.  A ValidationError is raised
    when F J F^T would overflow float64, or when the QR itself overflows,
    which takes entries near the float64 limit, where F J F^T overflows too.
    """
    s, cols = A.shape
    R_F = np.linalg.qr(A, mode="r")
    if not np.isfinite(R_F).all():
        raise ValidationError("F J F^T within float64 range", detail="the QR of F overflows")
    _, sv, Vh = np.linalg.svd(R_F, full_matrices=R_F.shape[0] < cols)
    return Compression(s=s, R_F=R_F, sv=sv, Vh=Vh,
                       rank_f=decide_rank(sv, max(s, cols), policy, "F"))


def decide_rank(sv: np.ndarray, size: int, policy: TolerancePolicy, name: str) -> RankDecision:
    """The decision, stage "rank <name>", on the rank of the matrix ``name``
    of larger dimension ``size`` from its descending singular values ``sv``,
    against the bound size * sigma_max.  A ValidationError is raised first
    when size * sigma_max^2 overflows float64, as products quadratic in the
    matrix, such as ``name`` J ``name``^T, then can."""
    sigma = float(sv[0])
    if size * sigma * sigma == np.inf:
        raise ValidationError(f"{name} J {name}^T within float64 range",
                              detail=f"the largest singular value of {name}, {sigma:.3e}, "
                                     "overflows when squared")
    return policy.decide(sv, size * sigma, f"rank {name}")


def one_sided_symplectic_svd(F, policy: TolerancePolicy | None = None) -> SymplecticFactorization:
    """Factor F = Q E Z^{-1} with Q orthogonal, Z real symplectic and E in
    Xu's canonical form: twin xi blocks and a unit l-block.

    The counts are pinned to independent rank decisions: k is half the rank
    of F J F^T and l = rank(F) - 2k, both made by ``policy.decide``.  The
    form is taken on the rank F leading rows of the compressed stack, so
    l >= 0 always; when d = r - k - l comes out negative, or the kernel of F
    does not carry d pairs, a RankAmbiguityError carrying the decisions is
    raised rather than guessing.

    Both decisions, Ker F and every image F X depend on F only through
    R_F, the triangular factor of F = Q_F R_F, so ``compress`` reduces the
    s x 2r input to at most 2r rows first, and ``factor`` works on those:
    the image of the paired directions on R_F, and the rank check of the
    leading columns of Q on S = Sigma V^T, in
    U_F = Q_F U_R.  The directions paired with the kernel radical take no
    decomposition: they follow in closed form from the pairs already found.

    A ValidationError is raised when F J F^T would overflow float64.
    """
    A = as_matrix(F, "F")
    if A.shape[0] == 0 or A.shape[1] == 0 or A.shape[1] % 2:
        raise StructureError(f"F must be s x 2r with s, r >= 1, got {A.shape}")
    policy = policy or DEFAULT_POLICY
    return factor(compress(A, policy), policy)


def factor(c: Compression, policy: TolerancePolicy) -> SymplecticFactorization:
    """The factorization of the F that ``c`` compresses; see
    one_sided_symplectic_svd."""
    s, R_F, sv, Vh, rank_f = c.s, c.R_F, c.sv, c.Vh, c.rank_f
    cols = Vh.shape[1]
    r = cols // 2
    J = jmat(r)
    # F = U_F S, with orthonormal U_F and S = Sigma V^T, so F X = U_F (S X)
    # for every X.  F_c = the rho = rank F leading rows of S is the stack
    # compressed to its row space; the rows past rho are at or below the rank
    # cutoff, rounding noise, so F J F^T is formed and reduced on rho x rho data.
    S = sv[:, None] * Vh[:sv.size]
    sigma_f = float(sv[0])
    size = max(s, cols)
    rho = rank_f.rank
    F_c = S[:rho]
    M_raw = F_c @ J @ F_c.T
    M = 0.5 * (M_raw - M_raw.T)  # remove the rounding asymmetry of the product
    # Rounding in F J F^T sits at the eps * sigma_f^2 level, so the skew
    # spectrum is decided against the bound of the uncompressed s x s
    # product, max(s, 2r) sigma_f^2, which mu_max <= sigma_f^2 never exceeds.
    canon = skew_canonical(M, policy=policy, bound=size * sigma_f * sigma_f)
    k = canon.k

    decisions = (rank_f, canon.decision)
    # 2k <= rho, so l >= 0; only d can come out negative
    l = rho - 2 * k
    d = r - k - l
    if d < 0:
        raise RankAmbiguityError(
            f"rank(F)={rho} and rank(F J F^T)={2 * k} imply l={l}, d={d}", *decisions)

    xi = np.sqrt(canon.mus)
    u_c = canon.pairs[:, 0::2]
    v_c = canon.pairs[:, 1::2]
    Za = (J @ (F_c.T @ v_c)) / xi[None, :]
    Za_partner = -(J @ (F_c.T @ u_c)) / xi[None, :]

    # an empty kernel gives the 0 x 0 form, with d = 0 pairs and no radical
    N = Vh[rho:].T
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
    Zc = pair_cols[:, 0::2] / roots[None, :]
    Zc_partner = pair_cols[:, 1::2] / roots[None, :]
    W0 = N @ canon_ker.U[:, 2 * d:]

    Zb = _paired_directions(J, Za, Za_partner, Zc, Zc_partner, W0) if l else W0
    Z = np.concatenate([Za, Zb, Zc, Za_partner, W0, Zc_partner], axis=1)
    Z, scales = symplectic_gram_schmidt(Z, r)
    xi = xi * scales[:k]

    # Q_lead = U_F Q_core; the a-columns are the skew form's own pairs
    Q_core = np.zeros((sv.size, 2 * k + l))
    Q_core[:rho, :k] = u_c
    Q_core[:rho, k + l:] = v_c
    if l:
        # the q_b and p_b slots of Z, read as views: the products below on
        # copies taken through slot_indices differ from these in the last bits
        Zb = Z[:, k:k + l]
        W0 = Z[:, r + k:r + k + l]
        # F Zb whitens more closely through R_F and a QR than through S or an
        # SVD; the demo's refinement at omega = 1e2 also relies on this whitening
        Qb_raw = R_F @ Zb
        stage = "image of the paired directions"
        sv_b = np.linalg.svd(Qb_raw, compute_uv=False)
        decision = policy.decide(sv_b, size * sigma_f, stage)
        if decision.rank != l:
            raise RankAmbiguityError(f"{stage} gives rank {decision.rank}, expected {l}",
                                     decision)
        # L L^T = Qb_raw^T Qb_raw from the triangular factor of Qb_raw,
        # without squaring its condition as a Cholesky of the Gram would
        R = np.linalg.qr(Qb_raw, mode="r")
        L = (R * np.where(np.diag(R) < 0, -1.0, 1.0)[:, None]).T
        W0 = W0 @ L
        Zb = Zb @ np.linalg.inv(L).T
        Z[:, k:k + l] = Zb
        Z[:, r + k:r + k + l] = W0
        Q_core[:, k:k + l] = S @ Zb
    if 0 < Q_core.shape[1] < s:
        _check_leading_columns(Q_core, s, policy)

    Z.setflags(write=False)
    return SymplecticFactorization(E=CanonicalE(r=r, k=k, l=l, xi=xi), Z=Z)


def _paired_directions(J, Za, Za_partner, Zc, Zc_partner, W0):
    """Directions dual to the kernel radical W0, in closed form.

    X = J W0 pairs with the orthonormal W0 to the identity, and still does
    once projected along the symplectic pairs A = [Za Zc], A' = [Za_partner
    Zc_partner], all form-orthogonal to W0, onto their form-orthogonal
    complement.  Its W0 component is then removed and the rest sheared
    isotropic.  Being form-orthogonal to the a-block keeps its image under F
    Euclidean-orthogonal to the a-block image, which keeps Q orthogonal.
    """
    A = np.hstack([Za, Zc])
    A_partner = np.hstack([Za_partner, Zc_partner])
    X = J @ W0
    Zb = X + A @ (A_partner.T @ J @ X) - A_partner @ (A.T @ J @ X)
    Zb -= W0 @ (W0.T @ Zb)
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

    Computed from singular values, without the skew canonical form the
    factorization uses.
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

    Reconstruction is judged against VERIFY_TOL * max(1, ||F||_F), and Z by
    is_symplectic's verdict, relative to ||Z||_F^2.  Column j of Q_lead is
    F z_j / e_j, which carries the rounding of F z_j magnified by
    ||F||_F ||z_j|| / |e_j|, at least 1; the Q residual is judged against
    ORTHONORMAL_TOL times the largest of these.  The kernel check compares
    Ker F with Z applied to the pattern's kernel columns through principal
    angles.
    The Q checks read Q_lead, read off F Z through the one nonzero of each
    row of E: the thin form F Z = Q_lead E holds with orthonormal columns in
    Q_lead, and q_condition is cond(Q_lead), 1 when E has no rows.
    """
    A = as_matrix(F, "F")
    policy = policy or DEFAULT_POLICY
    E_mat = fact.E.materialize()
    p, cols = E_mat.shape
    if A.shape[1] != cols or A.shape[0] < p:
        raise StructureError(f"F has shape {A.shape} but the factorization expects {cols} "
                             f"columns and at least {p} rows")
    norm_f = float(np.linalg.norm(A))
    scale = max(1.0, norm_f)
    k, l, d = fact.E.k, fact.E.l, fact.E.d
    FZ = A @ fact.Z
    obs = slot_indices(k, l, d, OBSERVABLE)
    e = E_mat[np.arange(p), obs]
    Q_lead = FZ[:, obs] / e
    q_scale = float(np.max(norm_f * np.linalg.norm(fact.Z[:, obs], axis=0) / np.abs(e),
                           initial=1.0))
    reconstruction = float(np.linalg.norm(FZ - Q_lead @ E_mat))
    z_check = is_symplectic(fact.Z)
    q_residual = float(np.linalg.norm(Q_lead.T @ Q_lead - np.eye(p)))
    sv_q = np.linalg.svd(Q_lead, compute_uv=False)
    q_condition = float(sv_q[0] / sv_q[-1]) if p else 1.0

    k_oracle, l_oracle = factor_count_oracles(A, policy)
    counts_ok = (k_oracle == k) and (l_oracle == l)

    kernel = numerical_rank(A, policy).kernel
    z_kernel = numerical_rank(fact.Z[:, slot_indices(k, l, d, UNOBSERVABLE)], policy).image
    kernel_angle = largest_angle(kernel, z_kernel)

    return FactorizationChecks(
        reconstruction_residual=reconstruction,
        reconstruction_ok=reconstruction <= VERIFY_TOL * scale,
        z_symplectic_residual=z_check.residual,
        z_symplectic_ok=z_check.ok,
        q_residual=q_residual,
        q_ok=q_residual <= ORTHONORMAL_TOL * q_scale,
        q_condition=q_condition,
        k=k,
        l=l,
        k_oracle=k_oracle,
        l_oracle=l_oracle,
        counts_ok=counts_ok,
        kernel_angle=kernel_angle,
        kernel_ok=kernel_angle <= MAX_KERNEL_ANGLE,
    )
