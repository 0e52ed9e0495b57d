"""Invariance relations of the decomposition.

Each relation maps a system onto one with the same controllability and
observability structure, so a decomposition must report the same sizes
(k, l, d) before and after:

- R x alpha: the energy in other units;
- C x beta: the coupling in other units;
- R x alpha with C x sqrt(alpha): time in other units, A = alpha A;
- (C, Sigma) -> (W C, W Sigma) for an orthogonal symplectic W on the
  fields, which leaves A and B unchanged.

The base is the first 100 inputs of the structured_split benchmark workload
at seed 11 (n 3-12), whose sizes are known by construction.  Every input the
base verifies with its true sizes must verify with the same sizes under each
relation, and no input may ever return other sizes.
"""

from functools import lru_cache

import numpy as np
import pytest

from helpers import structured_split_inputs
from symkal import ConsistencyError, QuadratureSystem, RankAmbiguityError, kalman_decompose

BASE_SEED = 11
BASE_COUNT = 100


def _haar_orthogonal_symplectic(m: int, rng) -> np.ndarray:
    """[[Re U, -Im U], [Im U, Re U]] for a Haar-random m x m unitary U."""
    Z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    Q, R = np.linalg.qr(Z)
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    return np.block([[Q.real, -Q.imag], [Q.imag, Q.real]])


def _scaled(r_factor: float, c_factor: float):
    def relation(system: QuadratureSystem, index: int) -> QuadratureSystem:
        return QuadratureSystem(R=r_factor * system.R, C=c_factor * system.C,
                                Sigma=system.Sigma)
    return relation


def _rotated_fields(system: QuadratureSystem, index: int) -> QuadratureSystem:
    W = _haar_orthogonal_symplectic(system.m, np.random.default_rng([BASE_SEED, index]))
    return QuadratureSystem(R=system.R, C=W @ system.C, Sigma=W @ system.Sigma)


RELATIONS = {
    "as given": lambda system, index: system,
    "R*1e-3": _scaled(1e-3, 1.0),
    "R*1e3": _scaled(1e3, 1.0),
    "C*1e-3": _scaled(1.0, 1e-3),
    "C*1e3": _scaled(1.0, 1e3),
    "time*1e-3": _scaled(1e-3, np.sqrt(1e-3)),
    "time*1e3": _scaled(1e3, np.sqrt(1e3)),
    "field rotation": _rotated_fields,
}

# Relations under which some base-verified inputs are lost today, with the
# outcome counts of the 100 inputs (verified / RankAmbiguityError /
# ConsistencyError; the base gives 98 / 1 / 1).  The raw powers C G^j of the
# observability stack grow as ||G||^j, so the rank decisions depend on units.
LOSSES = {
    "R*1e-3": "53 / 42 / 5",
    "R*1e3": "30 / 42 / 28",
    "time*1e-3": "53 / 42 / 5",
    "time*1e3": "28 / 42 / 30",
}


@lru_cache(maxsize=None)
def _base() -> tuple:
    return tuple(structured_split_inputs(BASE_SEED, BASE_COUNT))


def _outcome(system: QuadratureSystem):
    """The verified sizes, or the class name of the failure."""
    try:
        dec = kalman_decompose(system)
    except (RankAmbiguityError, ConsistencyError) as exc:
        return type(exc).__name__
    return dec.k, dec.l, dec.d


@lru_cache(maxsize=None)
def _outcomes(relation: str) -> tuple:
    return tuple(_outcome(RELATIONS[relation](system, index))
                 for index, (system, _) in enumerate(_base()))


@pytest.mark.parametrize("relation", RELATIONS)
def test_no_wrong_sizes(relation):
    wrong = [index for index, ((_, truth), got) in enumerate(zip(_base(), _outcomes(relation)))
             if isinstance(got, tuple) and got != truth]
    assert wrong == []


@pytest.mark.parametrize("relation", [
    pytest.param(relation, marks=pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason=f"verified inputs lost today ({LOSSES[relation]})"))
    if relation in LOSSES else relation
    for relation in RELATIONS
])
def test_verified_inputs_stay_verified(relation):
    lost = [index for index, ((_, truth), before, after)
            in enumerate(zip(_base(), _outcomes("as given"), _outcomes(relation)))
            if before == truth and after != truth]
    assert lost == []
