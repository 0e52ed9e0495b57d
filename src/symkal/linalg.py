"""Dense linear algebra specialized to the symplectic structure of phase space.

Conventions used throughout the package: a vector in R^{2k} is ordered as k
positions followed by k momenta, and the symplectic form is
omega(u, v) = u^T J v with J = [[0, I_k], [-I_k, 0]].

Like every scipy routine the package uses, skew_canonical's LAPACK
reduction (dgehrd, dorghr) is imported by the call that runs it, so that
importing the package and the decompositions that take no skew form never
load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import RankAmbiguityError, StructureError, ValidationError

EPS = float(np.finfo(np.float64).eps)
# a rank bound below this means the data is identically zero
ZERO_LEVEL = 1e-300
# relative asymmetry above which skew_canonical rejects its input
SKEW_TOL = 1e-9
# bound on ||T T^sharp - I||_F / max(1, ||T||_F)^2 for a symplectic T
SYMPLECTIC_TOL = 1e-9
# smallest pairing omega(z_i, z_{r+i}) the symplectic polish accepts, and
# largest residual entry it may leave
MIN_PAIRING = 0.1


@dataclass(frozen=True)
class RankDecision:
    """One thresholded rank: the values it was read off, in descending
    order, the cutoff they were compared against, and the count above it."""

    stage: str
    rank: int
    cutoff: float
    values: np.ndarray

    @property
    def margin(self) -> float:
        """min(sigma_r / cutoff, cutoff / sigma_{r+1}): how far the nearest
        value sits from the cutoff, as a ratio.  A side with no positive
        value does not limit it."""
        margin = np.inf
        if self.rank:
            margin = self.values[self.rank - 1] / self.cutoff
        if self.rank < self.values.size and self.values[self.rank] > 0:
            margin = min(margin, self.cutoff / self.values[self.rank])
        return float(margin)

    def __str__(self) -> str:
        return f"{self.stage}: rank {self.rank} at cutoff {self.cutoff:.3e} (margin {self.margin:.3g})"


@dataclass(frozen=True)
class TolerancePolicy:
    """The one rule behind every rank decision.

    Values computed from data of size times norm ``bound`` count as nonzero
    above ``scale * eps * bound``; a bound below ``ZERO_LEVEL`` means the
    data is zero, and then the cutoff is ``ZERO_LEVEL`` itself.  The scale
    must be positive and finite.
    """

    scale: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValidationError("tolerance scale positive and finite", detail=f"got {self.scale}")

    def cutoff(self, bound: float) -> float:
        if bound < ZERO_LEVEL:
            return ZERO_LEVEL
        return self.scale * EPS * bound

    def decide(self, values, bound: float, stage: str) -> RankDecision:
        """Count the values above the cutoff of ``bound``; a caller that
        needs a given rank compares it with the decision's."""
        values = np.sort(np.asarray(values, dtype=float))[::-1]
        cut = self.cutoff(float(bound))
        return RankDecision(stage, int(np.count_nonzero(values > cut)), cut, values)


DEFAULT_POLICY = TolerancePolicy()


def as_matrix(value, name: str) -> np.ndarray:
    """Coerce to a 2-D float array, rejecting non-finite entries."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise StructureError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise StructureError(f"{name} contains non-finite entries")
    return arr


def as_complex_matrix(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=complex)
    if arr.ndim != 2:
        raise StructureError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise StructureError(f"{name} contains non-finite entries")
    return arr


def readonly(arr: np.ndarray) -> np.ndarray:
    """A read-only array of the values of ``arr``: ``arr`` itself when it is
    already a read-only ndarray that owns its data, a read-only copy of
    anything else."""
    if type(arr) is np.ndarray and not arr.flags.writeable and arr.flags.owndata:
        return arr
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def jmat(k: int) -> np.ndarray:
    """The 2k x 2k symplectic form matrix [[0, I_k], [-I_k, 0]], shared
    between calls and read-only."""
    if k < 1:
        raise StructureError(f"jmat requires k >= 1, got k={k}")
    J = np.zeros((2 * k, 2 * k))
    J[:k, k:] = np.eye(k)
    J[k:, :k] = -np.eye(k)
    J.setflags(write=False)
    return J


def scaled_norm(X) -> float:
    """Frobenius norm of X, taken on X / max|X| and scaled back: it
    overflows only where the norm itself exceeds float64, not where the
    squares of the entries do."""
    arr = np.asarray(X)
    big = float(np.abs(arr).max(initial=0.0))
    if big in (0.0, np.inf):
        return big
    # sqrt(u . u) on u raveled in memory order is what np.linalg.norm
    # computes for a real array, without its wrapper
    unit = (arr / big).ravel(order="K")
    return big * float(np.sqrt(unit.dot(unit)))


def smallest_gain(X) -> tuple[float, float]:
    """A lower bound on min ||X x|| / (sigma_max ||x||) over nonzero x, and
    sigma_max, from one values-only SVD of a finite X: sigma_min / sigma_max
    less rows * EPS, which covers the rounding of the singular values.
    Negative when X may have a kernel, and 0 when X is zero or wider than
    tall."""
    rows, cols = X.shape
    sv = np.linalg.svd(X, compute_uv=False)
    top = float(sv[0])
    return (float(sv[-1] / top - rows * EPS) if top and rows >= cols else 0.0), top


def sharp_adjoint(X) -> np.ndarray:
    """Adjoint -J X^H J with respect to the symplectic form.

    For a real matrix this is -J X^T J.  A symplectic matrix T satisfies
    T @ sharp_adjoint(T) = I, so the sharp adjoint doubles as an exact,
    inversion-free inverse for symplectic matrices.

    The products with J only move blocks and flip signs, so they are done
    by index.  Negations are written 0 - y and copies y + 0: a zero then
    comes out as +0.0, as from the dense product, never as -0.0.
    """
    arr = np.asarray(X)
    if arr.ndim != 2:
        raise StructureError(f"sharp adjoint needs a 2-D array, got shape {arr.shape}")
    rows, cols = arr.shape
    if rows == 0 or cols == 0 or rows % 2 or cols % 2:
        raise StructureError(f"sharp adjoint needs even positive dimensions, got {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise StructureError("sharp adjoint input contains non-finite entries")
    # -J_a Y J_b = [[Y22, -Y21], [-Y12, Y11]] for Y = X^H in (a, b) blocks
    a, b = cols // 2, rows // 2
    Y = arr.conj().T
    out = np.empty(Y.shape, dtype=np.result_type(Y, 0.0))
    out[:a, :b] = Y[a:, b:] + 0.0
    out[:a, b:] = 0.0 - Y[a:, :b]
    out[a:, :b] = 0.0 - Y[:a, b:]
    out[a:, b:] = Y[:a, :b] + 0.0
    return out


class SymplecticCheck(NamedTuple):
    ok: bool
    residual: float

    def __bool__(self) -> bool:
        return self.ok


def is_symplectic(T) -> SymplecticCheck:
    """Test T @ T^sharp = I, returning the verdict together with the
    residual ||T T^sharp - I||_F.

    Rounding in T T^sharp grows with ||T||_F^2, so T passes when
    residual / max(1, ||T||_F)^2 <= SYMPLECTIC_TOL: an absolute bound would
    reject a correct T of large norm, such as a strongly squeezing one.
    """
    arr = as_matrix(T, "T")
    rows, cols = arr.shape
    if rows != cols or rows % 2 or rows == 0:
        raise StructureError(f"symplectic test needs a square even-dimensional matrix, got {arr.shape}")
    # a T too large for float64 gives an infinite residual, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm(arr @ sharp_adjoint(arr) - np.eye(rows)))
    # the bound divides rather than scales: a T whose norm overflows gives
    # inf / inf = nan, a failure, never an infinite bound
    t = max(1.0, scaled_norm(arr))
    return SymplecticCheck(residual / t / t <= SYMPLECTIC_TOL, residual)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of R^ambient, one column per direction."""

    basis: np.ndarray

    def __post_init__(self):
        B = as_matrix(self.basis, "basis")
        if B.shape[1] > B.shape[0]:
            raise StructureError(f"basis has more columns than ambient dimensions: {B.shape}")
        if B.shape[1]:
            gram_residual = np.linalg.norm(B.T @ B - np.eye(B.shape[1]))
            if gram_residual > 1e-9 * max(1.0, np.sqrt(B.shape[1])):
                raise StructureError(f"basis columns are not orthonormal (residual {gram_residual:.3e})")
        object.__setattr__(self, "basis", readonly(B))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class RankResult:
    """A thresholded rank with the orthonormal image and kernel bases of
    the SVD it was read from."""

    decision: RankDecision
    image: SubspaceBasis
    kernel: SubspaceBasis

    @property
    def rank(self) -> int:
        return self.decision.rank


def numerical_rank(F, policy: TolerancePolicy | None = None) -> RankResult:
    """Rank with orthonormal image and kernel bases from an SVD.

    The image lives in the column space (R^rows), the kernel in R^cols;
    rank + kernel.dim = cols always holds, empty inputs included.
    """
    A = as_matrix(F, "F")
    policy = policy or DEFAULT_POLICY
    # thin on tall inputs: the image needs only rank columns of U, and the
    # kernel needs all of V^T, which only a wide input leaves out of the
    # thin factorization
    U, sv, Vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    decision = policy.decide(sv, max(A.shape) * (float(sv[0]) if sv.size else 0.0),
                             "numerical_rank")
    rank = decision.rank
    return RankResult(decision, SubspaceBasis(U[:, :rank]), SubspaceBasis(Vh[rank:].T))


@dataclass(frozen=True)
class SkewCanonicalForm:
    """Orthogonal reduction of a skew matrix to paired 2x2 blocks.

    U^T M U = blockdiag(mu_1 J_2, ..., mu_k J_2, 0) with mus sorted in
    descending order and U orthogonal.  Columns come interleaved:
    (u_1, v_1, u_2, v_2, ..., kernel columns).  ``pairs`` is the view
    ``U[:, :2k]`` of the paired columns.
    """

    U: np.ndarray
    mus: np.ndarray
    decision: RankDecision

    def __post_init__(self):
        object.__setattr__(self, "U", readonly(as_matrix(self.U, "U")))
        object.__setattr__(self, "mus", readonly(np.asarray(self.mus, dtype=float)))

    @property
    def k(self) -> int:
        return self.decision.rank

    @property
    def pairs(self) -> np.ndarray:
        return self.U[:, :2 * self.k]


def skew_canonical(M, policy: TolerancePolicy | None = None,
                   bound: float | None = None) -> SkewCanonicalForm:
    """Canonical form of a skew-symmetric matrix under orthogonal congruence.

    The input is checked to be skew within ``SKEW_TOL`` relative to its norm
    and then symmetrized to K = (M - M^T)/2 exactly.  One Householder
    reduction K = Q T Q^T makes T skew and tridiagonal.  T couples its even
    coordinates only to its odd ones, through the ceil(s/2) x floor(s/2)
    lower bidiagonal B with B[i, i] = e_2i and B[i, i-1] = -e_(2i-1), where
    e is the superdiagonal of T.  Each singular triple (sigma, x, y) of B
    gives u = Q_even x and v = Q_odd y with K u = -sigma v and K v = sigma u,
    so the eigenvalues of 1j*K are the +-sigma, with one 0 more for odd s.
    The pairs are those the policy decides against ``bound``, by default
    the size times the largest sigma; callers that build M as a product
    should pass the bound of that product's rounding.  More pairs than
    floor(s/2) raise a RankAmbiguityError.  The kernel columns of ``U``
    are the unkept columns of Q_even X and Q_odd Y, interleaved as the
    pairs are.
    """
    A = as_matrix(M, "M")
    s_dim, cols = A.shape
    if s_dim != cols:
        raise StructureError(f"skew_canonical needs a square matrix, got {A.shape}")
    # the test is scale-free; on A / max|A| no norm overflows
    big = float(np.abs(A).max(initial=0.0))
    unit = A / big if big > 0 else A
    if float(np.linalg.norm(unit + unit.T)) > SKEW_TOL * float(np.linalg.norm(unit)):
        raise StructureError("matrix is not skew-symmetric within tolerance")
    policy = policy or DEFAULT_POLICY
    if s_dim == 0:
        return SkewCanonicalForm(U=np.zeros((0, 0)), mus=np.zeros(0),
                                 decision=policy.decide(np.zeros(0), 0.0, "skew_canonical"))
    K = 0.5 * (A - A.T)

    from scipy.linalg.lapack import dgehrd, dorghr
    # the wrappers' minimal workspace selects the unblocked reduction, which
    # LAPACK takes below order 128 in any case
    h, tau, _ = dgehrd(K)
    Q = dorghr(h, tau)[0] if s_dim > 1 else np.ones((1, 1))
    e = 0.5 * (np.diagonal(h, 1) - np.diagonal(h, -1))
    half = s_dim // 2
    B = np.zeros((s_dim - half, half))
    # the diagonal and the subdiagonal of B, as strides of its flat view
    flat = B.reshape(-1)
    flat[::half + 1] = e[0::2]
    flat[half::half + 1] = -e[1::2]
    X, sigma, Yh = np.linalg.svd(B)
    if bound is None:
        bound = s_dim * float(sigma[0]) if half else 0.0
    decision = policy.decide(np.concatenate([sigma, np.zeros(s_dim % 2), -sigma[::-1]]),
                             bound, "skew_canonical")
    k = decision.rank
    if k > half:
        raise RankAmbiguityError(
            f"skew_canonical decides {k} pairs, more than a {s_dim} x {s_dim} form holds",
            decision)
    Q_even, Q_odd, Y = Q[:, 0::2], Q[:, 1::2], Yh.T
    u = Q_even @ X[:, :k]
    v = Q_odd @ Y[:, :k]
    # rotate each pair in its plane so that u points along the projection of
    # the first standard axis with a solid footprint in the plane; a common
    # rotation of u and v keeps K u = -sigma v and K v = sigma u
    rows = np.sqrt(u * u + v * v)
    anchor = (rows >= 1e-2 * rows.max(axis=0)).argmax(axis=0)
    cos, sin = u[anchor, range(k)], v[anchor, range(k)]
    norm = np.sqrt(cos * cos + sin * sin)
    cos, sin = cos / norm, sin / norm
    U = np.empty((s_dim, s_dim))
    U[:, 0:2 * k:2] = u * cos + v * sin
    U[:, 1:2 * k:2] = v * cos - u * sin
    U[:, 2 * k::2] = Q_even @ X[:, k:]
    U[:, 2 * k + 1::2] = Q_odd @ Y[:, k:]
    U.setflags(write=False)
    return SkewCanonicalForm(U=U, mus=sigma[:k], decision=decision)


def largest_angle(A: SubspaceBasis, B: SubspaceBasis) -> float:
    """Largest principal angle between two subspaces of the same R^n, in radians.

    pi/2 when the dimensions differ, 0 when both are empty.  Small angles
    come from their sine, the norm of B's component outside A, because the
    cosine of an angle below 1e-8 rounds to 1; large ones from the smallest
    cosine, the smallest singular value of A^T B.
    """
    if A.ambient_dim != B.ambient_dim:
        raise StructureError(
            f"ambient dimensions differ: {A.ambient_dim} vs {B.ambient_dim}")
    if A.dim != B.dim:
        return float(np.pi / 2)
    if A.dim == 0:
        return 0.0
    sine = float(np.linalg.svd(B.basis - A.basis @ (A.basis.T @ B.basis), compute_uv=False)[0])
    if sine < np.sqrt(0.5):
        return float(np.arcsin(sine))
    cosine = float(np.linalg.svd(A.basis.T @ B.basis, compute_uv=False)[-1])
    return float(np.arccos(min(cosine, 1.0)))


def symplectic_gram_schmidt(Z: np.ndarray, r: int):
    """Polish columns paired as (i, r+i) into an exactly symplectic basis.

    Each pair is first scaled to unit pairing w_i = omega(z_i, z_{r+i}).
    Then the Newton step Z <- Z + Z J D / 2, with D = Z^T J Z - J, is
    repeated: it cancels D to first order, so each step squares the
    residual, and it spreads one least correction over all columns where a
    Gram-Schmidt sweep would push every correction into the later pairs.
    The steps stop once the largest entry of D is at the rounding level of
    the product Z^T J Z, or once a step no longer shrinks it; the better Z
    is kept.  Returns the polished matrix and the per-pair scale factors
    1/sqrt(w_i).
    """
    if Z.shape != (2 * r, 2 * r):
        raise StructureError(f"expected a {2 * r} x {2 * r} matrix, got {Z.shape}")
    J = jmat(r)

    def residual(Y):
        # Y^T J Y - J, with J applied by index: J Y = [Y_p; -Y_q]
        P = Y[:r].T @ Y[r:]
        return P - P.T - J

    # w_i = omega(z_i, z_{r+i}) = z_i,q . z_{r+i},p - z_i,p . z_{r+i},q
    w = (np.einsum("ij,ij->j", Z[:r, :r], Z[r:, r:])
         - np.einsum("ij,ij->j", Z[r:, :r], Z[:r, r:]))
    lost = np.flatnonzero(~(w > MIN_PAIRING))
    if lost.size:
        i = int(lost[0])
        raise RankAmbiguityError(
            f"column pair {i} lost its symplectic pairing during polishing (omega={w[i]:.3e})")
    scales = 1.0 / np.sqrt(w)
    both = np.concatenate([scales, scales])
    Z = Z * both
    D = residual(Z)
    err = float(np.abs(D).max())
    # entry (i, j) of Z^T J Z sums 2r products and is rounded at about
    # eps ||z_i|| ||z_j||: the level takes columns of the mean squared norm
    level = EPS * float(np.einsum("ij,ij->", Z, Z)) / (2 * r)
    while err > level:
        step = Z + 0.5 * (Z[:, :r] @ D[r:] - Z[:, r:] @ D[:r])
        D_step = residual(step)
        err_step = float(np.abs(D_step).max())
        if not err_step < err:
            break
        Z, D, err = step, D_step, err_step
    if err > MIN_PAIRING:
        # the steps diverged; name the pair of the largest residual entry
        i = int(np.argmax(np.abs(D))) // (2 * r) % r
        raise RankAmbiguityError(
            f"column pair {i} lost its symplectic pairing during polishing (residual {err:.3e})")
    return Z, scales
