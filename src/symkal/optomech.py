"""Built-in demo system: two lossless cavities driven through one damped
mechanical mode.

Three modes, one input/output field.  The energy is
H = (omega/2)(q3^2 + p3^2) + lam q1 q3 + lam q2 q3 and the coupling
operator is L = (gamma/sqrt 2)(q3 + i p3), so only the mechanical mode is
damped.  The system splits its six states into one co pair, one conjugate
nco/cno pair, and one ncno pair for every positive choice of the
parameters.  One parameter at a time, the others at 1, at every power of
ten from 1e-9 to 1e8, the library reproduces that split numerically for
omega up to 1e2, lambda from 1e-6 to 1e6 and every gamma.  Past that,
omega from 1e3 to 1e6 decomposes as (1, 0, 2), which fails verification,
and from 1e7 on as a (1, 0, 2) that passes it, since C sees the subspace it
adds at 1/omega, below the cut; lambda at 1e-7 and below fails
verification on a Hautus margin of 1.4 lambda, lambda = 1e7 fails it after
refinement and lambda = 1e8 raises a RankAmbiguityError.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .factorization import OBSERVABLE, slot_indices
from .kalman import KalmanDecomposition, RefinementPair, kalman_decompose, refine
from .linalg import TolerancePolicy
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


def build(omega: float, lam: float, gamma: float) -> QuadratureSystem:
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
    Y^{-1} V = Vref by construction.  X carries the three nonzero columns
    of E Y, the 3 x 3 block lead, onto scaled unit columns: X is lead^{-1}
    with row j scaled by the norm of column j of lead.  lead is invertible:
    the observable rows of V and of Vref both annihilate the unobservable
    subspace, so they differ by an invertible 3 x 3 factor.
    """
    if (dec.k, dec.l, dec.d) != (1, 1, 1):
        raise ValidationError("demo decomposition has (k, l, d) = (1, 1, 1)",
                              detail=f"got {(dec.k, dec.l, dec.d)}")
    Y = dec.V @ REFERENCE_V.T
    lead = (dec.factorization.E.materialize() @ Y)[:, slot_indices(dec.k, dec.l, dec.d, OBSERVABLE)]
    X = np.linalg.norm(lead, axis=0)[:, None] * np.linalg.inv(lead)
    return RefinementPair(X=X, Y=Y)


def run(omega: float, lam: float, gamma: float, policy: TolerancePolicy | None = None):
    """Build, decompose, and refine the demo system.

    Returns (system, decomposition, refined decomposition, pair, a, b).
    """
    system = build(omega, lam, gamma)
    dec = kalman_decompose(system, policy=policy)
    pair = refinement_pair(dec)
    refined = refine(dec, pair, policy=policy)
    a, b = aux_coefficients(omega)
    return system, dec, refined, pair, a, b
