"""Built-in demo system: two lossless cavities driven through one damped
mechanical mode.

Three modes, one input/output field.  The energy is
H = (omega/2)(q3^2 + p3^2) + lam q1 q3 + lam q2 q3 and the coupling
operator is L = (gamma/sqrt 2)(q3 + i p3), so only the mechanical mode is
damped.  The decomposition splits the six states into one co pair, one
conjugate nco/cno pair, and one ncno pair for every positive choice of the
parameters.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .kalman import KalmanDecomposition, RefinementPair, kalman_decompose, refine
from .linalg import TolerancePolicy, numerical_rank
from .model import PhysicalSpec, QuadratureSystem, build_system, from_physical

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# The orthogonal symplectic transformation every parameter choice refines to:
# (q3, (q1+q2)/sqrt2, (q1-q2)/sqrt2) on the position side, mirrored on the
# momentum side.
REFERENCE_V = np.array([
    [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
    [_INV_SQRT2, _INV_SQRT2, 0.0, 0.0, 0.0, 0.0],
    [_INV_SQRT2, -_INV_SQRT2, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 0.0, _INV_SQRT2, _INV_SQRT2, 0.0],
    [0.0, 0.0, 0.0, _INV_SQRT2, -_INV_SQRT2, 0.0],
])


def _check_parameters(omega: float, lam: float, gamma: float) -> None:
    for name, value in (("omega", omega), ("lambda", lam), ("gamma", gamma)):
        if not (np.isfinite(value) and value > 0):
            raise ValidationError(f"{name} positive", detail=f"got {value}")


def hamiltonian_matrix(omega: float, lam: float) -> np.ndarray:
    """Expand H = (omega/2)(q3^2 + p3^2) + lam q1 q3 + lam q2 q3 into
    the symmetric matrix of (1/2) x^T R x."""
    R = np.zeros((6, 6))
    R[2, 2] = omega
    R[5, 5] = omega
    R[0, 2] = R[2, 0] = lam
    R[1, 2] = R[2, 1] = lam
    return R


def physical_spec(gamma: float) -> PhysicalSpec:
    """Coupling L = (gamma/sqrt 2)(q3 + i p3) on the mechanical mode, S = I."""
    Lq = np.array([[0.0, 0.0, gamma * _INV_SQRT2]], dtype=complex)
    Lp = np.array([[0.0, 0.0, 1j * gamma * _INV_SQRT2]])
    return PhysicalSpec(S=np.eye(1, dtype=complex), Lq=Lq, Lp=Lp)


def build(omega: float = 1.0, lam: float = 1.0, gamma: float = 1.0) -> QuadratureSystem:
    _check_parameters(omega, lam, gamma)
    C, Sigma = from_physical(physical_spec(gamma))
    return build_system(hamiltonian_matrix(omega, lam), C, Sigma)


def aux_coefficients(omega: float) -> tuple[float, float]:
    """The rational weights a(omega), b(omega) that appear in the raw
    (unrefined) transformed dynamics of this system."""
    even_powers = sum(omega ** (2 * j) for j in range(5))
    denom = omega ** 10 + even_powers
    return omega * even_powers / denom, 1.0 / denom


def refinement_pair(dec: KalmanDecomposition) -> RefinementPair:
    """Refinement pair steering this system's decomposition onto REFERENCE_V.

    Y = V Vref^T is symplectic because Vref is orthogonal symplectic, and
    Y^{-1} V = Vref by construction.  X is then assembled to carry E Y onto
    the canonical pattern: the three nonzero columns of E Y are mapped to
    scaled unit columns and the construction is completed to an invertible
    map on the rest of the space.
    """
    if (dec.k, dec.l, dec.d) != (1, 1, 1):
        raise ValidationError("demo decomposition has (k, l, d) = (1, 1, 1)",
                              detail=f"got {(dec.k, dec.l, dec.d)}")
    Y = dec.V @ REFERENCE_V.T
    E_mat = dec.factorization.E.materialize()
    EY = E_mat @ Y
    lead = EY[:, [0, 1, 3]]
    comp = numerical_rank(lead.T, expected_rank=3).kernel.basis
    target = np.eye(EY.shape[0])
    for pos, norm in enumerate(np.linalg.norm(lead, axis=0)):
        target[pos, pos] = norm
    X = target @ np.linalg.inv(np.hstack([lead, comp]))
    return RefinementPair(X=X, Y=Y)


def run(omega: float = 1.0, lam: float = 1.0, gamma: float = 1.0,
        policy: TolerancePolicy | None = None):
    """Build, decompose, and refine the demo system.

    Returns (system, decomposition, refined decomposition, pair, a, b).
    """
    system = build(omega, lam, gamma)
    dec = kalman_decompose(system, policy=policy)
    pair = refinement_pair(dec)
    refined = refine(dec, pair, policy=policy)
    a, b = aux_coefficients(omega)
    return system, dec, refined, pair, a, b
