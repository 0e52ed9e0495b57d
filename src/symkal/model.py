"""State-space models of coupled oscillator networks in quadrature form.

A system is the data (R, C, Sigma): a symmetric energy matrix R on the
2n-dimensional phase space, a real coupling matrix C into 2m field
quadratures, and a symplectic feedthrough Sigma.  The drift and input
matrices A = J R - C# C / 2 and B = -C# Sigma are derived on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import block_diag, expm

from .errors import StructureError, ValidationError
from .linalg import (
    as_complex_matrix,
    as_matrix,
    is_symplectic,
    jmat,
    readonly,
    sharp_adjoint,
)

_SYMMETRY_TOL = 1e-10
_UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class QuadratureSystem:
    """An n-mode, m-field linear system in the quadrature representation."""

    R: np.ndarray
    C: np.ndarray
    Sigma: np.ndarray

    def __post_init__(self):
        R = as_matrix(self.R, "R")
        C = as_matrix(self.C, "C")
        Sigma = as_matrix(self.Sigma, "Sigma")
        if R.shape[0] != R.shape[1] or R.shape[0] % 2 or R.shape[0] == 0:
            raise ValidationError("R is 2n x 2n", detail=f"got shape {R.shape}")
        two_n = R.shape[0]
        if C.shape[1] != two_n or C.shape[0] % 2 or C.shape[0] == 0:
            raise ValidationError("C is 2m x 2n", detail=f"got shape {C.shape} against 2n={two_n}")
        two_m = C.shape[0]
        if Sigma.shape != (two_m, two_m):
            raise ValidationError("Sigma is 2m x 2m", detail=f"got shape {Sigma.shape} against 2m={two_m}")
        with np.errstate(over="ignore"):
            r_norm = float(np.linalg.norm(R))
        # every scale-relative check, the symmetry one below included, is
        # void at an infinite norm
        if r_norm == np.inf:
            raise ValidationError("R within float64 range", detail="its Frobenius norm overflows")
        sym_residual = float(np.linalg.norm(R - R.T))
        if sym_residual > _SYMMETRY_TOL * max(1.0, r_norm):
            raise ValidationError("R symmetric", residual=sym_residual)
        check = is_symplectic(Sigma)
        if not check.ok:
            raise ValidationError("Sigma symplectic", residual=check.residual)
        object.__setattr__(self, "R", readonly(R))
        object.__setattr__(self, "C", readonly(C))
        object.__setattr__(self, "Sigma", readonly(Sigma))
        # a symplectic Sigma can hold entries near 1e200, so B = -C# Sigma
        # can overflow where R, C and Sigma do not
        with np.errstate(over="ignore", invalid="ignore"):
            B = self.B
        if not np.isfinite(B).all():
            raise ValidationError("B within float64 range", detail="-C# Sigma overflows")

    @property
    def n(self) -> int:
        return self.R.shape[0] // 2

    @property
    def m(self) -> int:
        return self.C.shape[0] // 2

    @cached_property
    def C_sharp(self) -> np.ndarray:
        """The sharp adjoint C# shared by A and B."""
        return readonly(sharp_adjoint(self.C))

    @property
    def A(self) -> np.ndarray:
        return jmat(self.n) @ self.R - 0.5 * self.C_sharp @ self.C

    @property
    def B(self) -> np.ndarray:
        return -self.C_sharp @ self.Sigma

    @property
    def D(self) -> np.ndarray:
        return np.array(self.Sigma)


def build_system(R, C, Sigma=None) -> QuadratureSystem:
    """Assemble and validate a system from its raw matrices.

    ``Sigma`` defaults to the identity feedthrough.
    """
    C = as_matrix(C, "C")
    if Sigma is None:
        Sigma = np.eye(C.shape[0])
    return QuadratureSystem(R=R, C=C, Sigma=Sigma)


@dataclass(frozen=True)
class PhysicalSpec:
    """Complex coupling data: scattering S and the position/momentum
    coefficients Lq, Lp of the coupling operator L = Lq q + Lp p."""

    S: np.ndarray
    Lq: np.ndarray
    Lp: np.ndarray

    def __post_init__(self):
        S = as_complex_matrix(self.S, "S")
        Lq = as_complex_matrix(self.Lq, "Lq")
        Lp = as_complex_matrix(self.Lp, "Lp")
        if S.shape[0] != S.shape[1] or S.shape[0] == 0:
            raise ValidationError("S square", detail=f"got shape {S.shape}")
        m = S.shape[0]
        if Lq.shape != Lp.shape or Lq.shape[0] != m:
            raise ValidationError(
                "Lq, Lp are m x n", detail=f"got {Lq.shape} and {Lp.shape} against m={m}")
        with np.errstate(over="ignore", invalid="ignore"):
            gram = S.conj().T @ S
            unitary_residual = float(np.linalg.norm(gram - np.eye(m)))
        if not np.isfinite(gram).all():
            raise ValidationError("S within float64 range", detail="S^H S overflows")
        if unitary_residual > _UNITARY_TOL:
            raise ValidationError("S unitary", residual=unitary_residual)
        object.__setattr__(self, "S", readonly(S))
        object.__setattr__(self, "Lq", readonly(Lq))
        object.__setattr__(self, "Lp", readonly(Lp))

    @property
    def m(self) -> int:
        return self.S.shape[0]

    @property
    def n(self) -> int:
        return self.Lq.shape[1]


def from_physical(spec: PhysicalSpec) -> tuple[np.ndarray, np.ndarray]:
    """Realify complex coupling data into the (C, Sigma) quadrature matrices.

    C = (1/sqrt 2) [[Lq + Lq*, Lp + Lp*], [-i(Lq - Lq*), -i(Lp - Lp*)]] and
    Sigma = [[Re S, -Im S], [Im S, Re S]], read off the real and imaginary
    parts in real arithmetic; Sigma is orthogonal symplectic.  Each part x
    is multiplied by 2 (1/sqrt 2), an exact double: the product is that of
    (x + x) (1/sqrt 2), as complex division by sqrt 2 rounds it, wherever
    x + x is finite, and it overflows only where sqrt 2 x does.  A C that
    overflows raises a ValidationError.  Every zero of C and of -Im S comes
    out as +0.0, never as -0.0.
    """
    Lq, Lp, S = spec.Lq, spec.Lp, spec.S
    with np.errstate(over="ignore"):
        C = np.block([[Lq.real, Lp.real],
                      [Lq.imag, Lp.imag]]) * (2.0 * (1.0 / np.sqrt(2.0))) + 0.0
    if not np.isfinite(C).all():
        raise ValidationError("C within float64 range", detail="sqrt 2 times Lq or Lp overflows")
    Sigma = np.block([
        [S.real, 0.0 - S.imag],
        [S.imag, S.real],
    ])
    return C, Sigma


@dataclass(frozen=True)
class KrylovMatrices:
    """Stacked controllability/observability matrices for one power basis.

    The observability stack is built eagerly; the controllability stack is
    built from the same ``generator`` G on first read.  Arrays that are
    already read-only and own their data are kept as given, anything else
    is copied.
    """

    system: QuadratureSystem = field(repr=False)
    generator: np.ndarray = field(repr=False)
    observability: np.ndarray
    depth: int

    def __post_init__(self):
        object.__setattr__(self, "generator", readonly(self.generator))
        object.__setattr__(self, "observability", readonly(self.observability))

    @cached_property
    def controllability(self) -> np.ndarray:
        """[B, G B, ..., G^{d-1} B]."""
        blocks = [self.system.B]
        for _ in range(self.depth - 1):
            blocks.append(self.generator @ blocks[-1])
        return readonly(np.hstack(blocks))


def krylov_matrices(sys: QuadratureSystem, variant: str) -> KrylovMatrices:
    """Build the stacked [C; C G; ...; C G^{d-1}], and on first read of
    ``controllability`` the matrix [B, G B, ..., G^{d-1} B].

    ``variant`` selects the power basis G: the drift matrix A ("a") or the
    closed-loop-free generator J R ("jr").  Both give the same image and
    kernel.  The depth is d = 2n.  A block of the observability stack that
    overflows float64 raises a ValidationError naming its power.
    """
    if variant not in ("a", "jr"):
        raise StructureError(f"variant must be 'a' or 'jr', got {variant!r}")
    G = sys.A if variant == "a" else jmat(sys.n) @ sys.R
    G.setflags(write=False)
    depth = 2 * sys.n
    # each block C G^j is written into its place in the stack, one product
    # of the block above it
    observability = np.empty((depth * sys.C.shape[0], G.shape[0]))
    blocks = observability.reshape(depth, *sys.C.shape)
    blocks[0] = sys.C
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, depth):
            np.matmul(blocks[j - 1], G, out=blocks[j])
    if not np.isfinite(observability).all():
        j = next(j for j, block in enumerate(blocks) if not np.isfinite(block).all())
        raise ValidationError("observability stack within float64 range",
                              detail=f"C G^{j} overflows, G = {'A' if variant == 'a' else 'J R'}")
    observability.setflags(write=False)
    return KrylovMatrices(system=sys, generator=G, observability=observability, depth=depth)


def t0_matrix(n: int, m: int, D) -> np.ndarray:
    """The fixed full-rank matrix relating the two structured Krylov stacks.

    T0 = diag(D, ..., D) diag(J_2m, -J_2m, ...) J_4nm satisfies
    observability = T0 @ sharp_adjoint(controllability) for the "jr" variant
    of any system whose feedthrough is D.  T0 T0# equals (-1)^n D D^T tiled,
    so T0 is symplectic exactly when n is even and D is orthogonal.
    """
    if n < 1 or m < 1:
        raise StructureError(f"t0_matrix needs n, m >= 1, got n={n}, m={m}")
    Dm = as_matrix(D, "D")
    if Dm.shape != (2 * m, 2 * m):
        raise ValidationError("D is 2m x 2m", detail=f"got shape {Dm.shape} against 2m={2 * m}")
    check = is_symplectic(Dm)
    if not check.ok:
        raise ValidationError("D symplectic", residual=check.residual)
    J2m = jmat(m)
    signs = block_diag(*[J2m if i % 2 == 0 else -J2m for i in range(2 * n)])
    stacked = block_diag(*([Dm] * (2 * n)))
    return stacked @ signs @ jmat(2 * n * m)


def random_system(n: int, m: int, seed: int) -> QuadratureSystem:
    """Deterministic random system for a given seed.

    R is symmetric standard normal, C is standard normal scaled by
    1/sqrt(2m), and Sigma is exp(J K) for a random symmetric K, which is
    symplectic by construction.
    """
    if n < 1 or m < 1:
        raise StructureError(f"random_system needs n, m >= 1, got n={n}, m={m}")
    if seed < 0:
        raise StructureError(f"random_system needs seed >= 0, got seed={seed}")
    rng = np.random.default_rng(seed)
    R0 = rng.standard_normal((2 * n, 2 * n))
    R = 0.5 * (R0 + R0.T)
    C = rng.standard_normal((2 * m, 2 * n)) / np.sqrt(2 * m)
    K0 = rng.standard_normal((2 * m, 2 * m))
    Sigma = expm(jmat(m) @ (0.5 * (K0 + K0.T)))
    return QuadratureSystem(R=R, C=C, Sigma=Sigma)


def transfer_matrix(A, B, C, D, s: complex) -> np.ndarray:
    """Frequency response C (sI - A)^{-1} B + D at one complex point."""
    A = np.asarray(A)
    dim = A.shape[0]
    return C @ np.linalg.solve(s * np.eye(dim) - A, B) + D
