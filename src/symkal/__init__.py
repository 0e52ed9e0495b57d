"""Quadrature-form linear system models and their symplectic Kalman decomposition."""

__version__ = "0.1.0"

from .errors import (
    ConsistencyError,
    DocumentError,
    RankAmbiguityError,
    RefinementRejectedError,
    StructureError,
    SymkalError,
    ValidationError,
)
from .linalg import (
    RankDecision,
    SkewCanonicalForm,
    SubspaceBasis,
    SymplecticCheck,
    TolerancePolicy,
    is_symplectic,
    jmat,
    largest_angle,
    numerical_rank,
    sharp_adjoint,
    skew_canonical,
)
from .model import (
    KrylovMatrices,
    PhysicalSpec,
    QuadratureSystem,
    build_system,
    from_physical,
    krylov_matrices,
    random_system,
    t0_matrix,
    transfer_matrix,
)
from .factorization import (
    CanonicalE,
    FactorizationChecks,
    SymplecticFactorization,
    factor_count_oracles,
    one_sided_symplectic_svd,
    verify_factorization,
)
from .kalman import (
    LABEL_MEANINGS,
    DecompositionChecks,
    KalmanDecomposition,
    RefinementPair,
    kalman_decompose,
    refine,
    state_labels,
    verify_decomposition,
    verify_transformation,
)
from . import optomech

__all__ = [
    "__version__",
    # errors
    "SymkalError", "StructureError", "ValidationError",
    "DocumentError", "RankAmbiguityError",
    "RefinementRejectedError", "ConsistencyError",
    # linear algebra
    "TolerancePolicy", "RankDecision", "SubspaceBasis", "SkewCanonicalForm", "SymplecticCheck",
    "jmat", "sharp_adjoint", "is_symplectic", "numerical_rank", "skew_canonical",
    "largest_angle",
    # model
    "QuadratureSystem", "PhysicalSpec", "KrylovMatrices", "build_system",
    "from_physical", "krylov_matrices", "t0_matrix", "random_system", "transfer_matrix",
    # factorization
    "CanonicalE", "SymplecticFactorization", "FactorizationChecks",
    "one_sided_symplectic_svd", "verify_factorization", "factor_count_oracles",
    # kalman
    "KalmanDecomposition", "RefinementPair", "DecompositionChecks",
    "LABEL_MEANINGS", "kalman_decompose", "verify_decomposition",
    "verify_transformation", "refine", "state_labels",
    # demo
    "optomech",
]
