"""Dense linear algebra specialized to the symplectic structure of phase space.

Conventions used throughout the package: a vector in R^{2k} is ordered as k
positions followed by k momenta, and the symplectic form is
omega(u, v) = u^T J v with J = [[0, I_k], [-I_k, 0]].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDimensionError, RankAmbiguityError, StructureError

EPS = float(np.finfo(np.float64).eps)
# a rank bound below this means the data is identically zero
ZERO_LEVEL = 1e-300
# relative asymmetry above which skew_canonical rejects its input
SKEW_TOL = 1e-9
# smallest pairing omega(z_i, z_{r+i}) the Gram-Schmidt polish accepts
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
    data is zero, and then the cutoff is ``ZERO_LEVEL`` itself.
    """

    scale: float = 1.0

    def cutoff(self, bound: float) -> float:
        if bound < ZERO_LEVEL:
            return ZERO_LEVEL
        return self.scale * EPS * bound

    def decide(self, values, bound: float, stage: str, expected: int | None = None) -> RankDecision:
        """Count the values above the cutoff of ``bound``.  When ``expected``
        is given and the count differs, raise a RankAmbiguityError carrying
        the decision."""
        values = np.sort(np.asarray(values, dtype=float))[::-1]
        cut = self.cutoff(float(bound))
        decision = RankDecision(stage, int(np.count_nonzero(values > cut)), cut, values)
        if expected is not None and decision.rank != expected:
            raise RankAmbiguityError(f"{stage} gives rank {decision.rank}, expected {expected}",
                                     decision)
        return decision


DEFAULT_POLICY = TolerancePolicy()


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array, rejecting non-finite entries."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise StructureError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise StructureError(f"{name} contains non-finite entries")
    return arr


def as_complex_matrix(value, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(value, dtype=complex)
    if arr.ndim != 2:
        raise StructureError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise StructureError(f"{name} contains non-finite entries")
    return arr


def readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def jmat(k: int) -> np.ndarray:
    """The 2k x 2k symplectic form matrix [[0, I_k], [-I_k, 0]], shared
    between calls and read-only."""
    if k < 1:
        raise DegenerateDimensionError(f"jmat requires k >= 1, got k={k}")
    J = np.zeros((2 * k, 2 * k))
    J[:k, k:] = np.eye(k)
    J[k:, :k] = -np.eye(k)
    J.setflags(write=False)
    return J


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


def is_symplectic(T, tol: float = 1e-9) -> SymplecticCheck:
    """Test T @ T^sharp = I, returning the verdict together with the residual."""
    arr = as_matrix(T, "T")
    rows, cols = arr.shape
    if rows != cols or rows % 2 or rows == 0:
        raise StructureError(f"symplectic test needs a square even-dimensional matrix, got {arr.shape}")
    residual = float(np.linalg.norm(arr @ sharp_adjoint(arr) - np.eye(rows)))
    return SymplecticCheck(residual <= tol, residual)


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
    """A thresholded rank with the SVD factors it was read from.  The
    orthonormal image and kernel bases are built, and validated by
    SubspaceBasis, on first read."""

    decision: RankDecision
    left: np.ndarray = field(repr=False)
    right_h: np.ndarray = field(repr=False)

    @property
    def rank(self) -> int:
        return self.decision.rank

    @cached_property
    def image(self) -> SubspaceBasis:
        return SubspaceBasis(self.left[:, :self.rank])

    @cached_property
    def kernel(self) -> SubspaceBasis:
        return SubspaceBasis(self.right_h[self.rank:].T)


def numerical_rank(F, policy: TolerancePolicy | None = None,
                   expected_rank: int | None = None) -> RankResult:
    """Rank with orthonormal image and kernel bases from an SVD, each basis
    built on first read.

    The image lives in the column space (R^rows), the kernel in R^cols;
    rank + kernel.dim = cols always holds, empty inputs included.  When
    ``expected_rank`` is given and the thresholded rank disagrees, a
    RankAmbiguityError is raised with the decision attached.
    """
    A = as_matrix(F, "F")
    policy = policy or DEFAULT_POLICY
    # thin on tall inputs: the image needs only rank columns of U, and the
    # kernel needs all of V^T, which only a wide input leaves out of the
    # thin factorization
    U, sv, Vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    decision = policy.decide(sv, max(A.shape) * (float(sv[0]) if sv.size else 0.0),
                             "numerical_rank", expected_rank)
    return RankResult(decision, U, Vh)


@dataclass(frozen=True)
class SkewCanonicalForm:
    """Orthogonal reduction of a skew matrix to paired 2x2 blocks.

    U^T M U = blockdiag(mu_1 J_2, ..., mu_k J_2, 0) with mus sorted in
    descending order and U orthogonal.  Columns come interleaved:
    (u_1, v_1, u_2, v_2, ..., kernel columns).  ``pairs`` holds the 2k
    paired columns; the kernel columns of ``U`` are completed on first read
    from ``null_vectors``, the eigenvectors of 1j*M at or below the cutoff.
    """

    pairs: np.ndarray
    mus: np.ndarray
    decision: RankDecision
    null_vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "pairs", readonly(as_matrix(self.pairs, "pairs")))
        object.__setattr__(self, "mus", readonly(np.asarray(self.mus, dtype=float)))
        object.__setattr__(self, "null_vectors", readonly(self.null_vectors))

    @property
    def k(self) -> int:
        return self.decision.rank

    @property
    def size(self) -> int:
        return self.pairs.shape[0]

    @cached_property
    def U(self) -> np.ndarray:
        """The square U: the pairs followed by an orthonormal basis of the
        part of the near-null eigenvectors' span orthogonal to them."""
        nker = self.size - 2 * self.k
        if not nker:
            return self.pairs
        Wk = self.null_vectors
        Bk = np.hstack([Wk.real, Wk.imag])
        if self.k:
            Bk = Bk - self.pairs @ (self.pairs.T @ Bk)
        Uo, _, _ = np.linalg.svd(Bk, full_matrices=False)
        return readonly(np.hstack([self.pairs, Uo[:, :nker]]))

    def block_matrix(self) -> np.ndarray:
        """Materialize blockdiag(mu_i J_2, ..., 0) for residual checks."""
        s = self.size
        B = np.zeros((s, s))
        for i, mu in enumerate(self.mus):
            B[2 * i, 2 * i + 1] = mu
            B[2 * i + 1, 2 * i] = -mu
        return B


def skew_canonical(M, policy: TolerancePolicy | None = None,
                   bound: float | None = None) -> SkewCanonicalForm:
    """Canonical form of a skew-symmetric matrix under orthogonal congruence.

    The input is checked to be skew within ``SKEW_TOL`` relative to its norm and
    then symmetrized to (M - M^T)/2 exactly.  The pairs are the eigenvalues
    of 1j*M that the policy decides against ``bound``, by default the size
    times the largest eigenvalue magnitude; callers that build M as a
    product should pass the bound of that product's rounding.  The kernel
    columns of the result's ``U`` cost one SVD, paid only when ``U`` is read.
    """
    A = as_matrix(M, "M")
    s_dim, cols = A.shape
    if s_dim != cols:
        raise StructureError(f"skew_canonical needs a square matrix, got {A.shape}")
    scale = float(np.linalg.norm(A))
    if scale > 0 and float(np.linalg.norm(A + A.T)) > SKEW_TOL * scale:
        raise StructureError("matrix is not skew-symmetric within tolerance")
    policy = policy or DEFAULT_POLICY
    if s_dim == 0:
        return SkewCanonicalForm(pairs=np.zeros((0, 0)), mus=np.zeros(0),
                                 decision=policy.decide(np.zeros(0), 0.0, "skew_canonical"),
                                 null_vectors=np.zeros((0, 0), dtype=complex))
    K = 0.5 * (A - A.T)

    lam, W = np.linalg.eigh(1j * K)
    if bound is None:
        bound = s_dim * float(np.max(np.abs(lam)))
    # eigenvalues come ascending, so the pairs come from the trailing columns
    decision = policy.decide(lam[::-1], bound, "skew_canonical")
    k, cut = decision.rank, decision.cutoff
    U_pairs, mus = (_canonical_pairs(K, W.T[::-1][:k]) if k
                    else (np.zeros((s_dim, 0)), np.zeros(0)))
    return SkewCanonicalForm(pairs=U_pairs, mus=mus, decision=decision,
                             null_vectors=W[:, np.abs(lam) <= cut])


def _dot_rows(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise inner products as a column, each computed by the same BLAS
    dot as for two 1-D operands."""
    return np.matmul(X[:, None, :], Y[:, :, None])[:, 0]


def _canonical_pairs(K: np.ndarray, eigvecs: np.ndarray):
    """Orthonormal pairs (u, v) with K u = -mu v, K v = mu u, one from each
    eigenvector of 1j*K in the rows of ``eigvecs``, all in one batched pass.

    Returns the interleaved columns (u_1, v_1, u_2, v_2, ...) and the mus in
    descending order; ties keep the row order of ``eigvecs``.  Each in-plane
    orientation is deterministic.
    """
    k, s = eigvecs.shape
    # the (real, imaginary) planes, s x 2 each, as a view of the complex rows
    planes = np.ascontiguousarray(eigvecs).view(np.float64).reshape(k, s, 2)
    G, sv, _ = np.linalg.svd(planes, full_matrices=False)
    # a clean complex eigenvector's real and imaginary parts already carry
    # the invariant 2-plane; where the +mu and -mu eigenvectors mixed (mu at
    # rounding scale), recover the second plane direction through K itself
    mixed = sv[:, 1] < 0.3 * sv[:, 0]
    if mixed.any():
        g1 = G[mixed, :, 0]
        t = np.matmul(K, g1[:, :, None])[:, :, 0]
        t = t - g1 * _dot_rows(g1, t)
        G[mixed, :, 1] = t / np.sqrt(_dot_rows(t, t))
    g1, g2 = G[:, :, 0], G[:, :, 1]
    # orient u toward the first standard axis with a solid footprint in the plane
    rows = np.sqrt((G * G).sum(axis=2))
    anchor = (rows >= 1e-2 * rows.max(axis=1, keepdims=True)).argmax(axis=1)
    u = np.matmul(G, G[np.arange(k), anchor][:, :, None])[:, :, 0]
    u = u / np.sqrt(_dot_rows(u, u))
    # the partner is the in-plane unit vector orthogonal to u, oriented so
    # that u^T K v > 0; staying inside the plane avoids amplifying rounding
    # by the spread of the spectrum
    v = g2 * _dot_rows(u, g1) - g1 * _dot_rows(u, g2)
    v = v / np.sqrt(_dot_rows(v, v))
    mus = _dot_rows(np.matmul(u[:, None, :], K)[:, 0], v)[:, 0]
    v *= np.where(mus < 0, -1.0, 1.0)[:, None]
    mus = np.abs(mus)
    order = np.argsort(-mus, kind="stable")
    U = np.empty((s, 2 * k))
    U[:, 0::2] = u[order].T
    U[:, 1::2] = v[order].T
    return U, mus[order]


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

    One sweep of symplectic Gram-Schmidt in pair order: each pair is made
    form-orthogonal to all earlier pairs and rescaled to unit pairing.
    Returns the polished matrix and the per-pair scale factors applied.
    """
    if Z.shape != (2 * r, 2 * r):
        raise StructureError(f"expected a {2 * r} x {2 * r} matrix, got {Z.shape}")
    Z = Z.copy()
    scales = np.ones(r)
    # J Y = [Y_p; -Y_q] for Y = [Y_q; Y_p], by index; the signed zeros are
    # those of the dense product (see sharp_adjoint)
    JZ = np.vstack([Z[r:] + 0.0, 0.0 - Z[:r]])
    for i in range(r):
        for col in (i, r + i):
            x = Z[:, col]
            x = x - Z[:, :i] @ (x @ JZ[:, r:r + i]) + Z[:, r:r + i] @ (x @ JZ[:, :i])
            Z[:, col] = x
            np.add(x[r:], 0.0, out=JZ[:r, col])
            np.subtract(0.0, x[:r], out=JZ[r:, col])
        w = float(Z[:, i] @ JZ[:, r + i])
        if w <= MIN_PAIRING:
            raise RankAmbiguityError(
                f"column pair {i} lost its symplectic pairing during polishing (omega={w:.3e})")
        sc = 1.0 / np.sqrt(w)
        Z[:, [i, r + i]] *= sc
        JZ[:, [i, r + i]] *= sc
        scales[i] = sc
    return Z, scales
