"""Exception types shared across the package."""

from __future__ import annotations


class SymkalError(Exception):
    """Base class for all errors raised by this package."""


class StructureError(SymkalError):
    """A matrix does not have the shape or structure an operation requires."""


class ValidationError(SymkalError):
    """An input violates a documented invariant.

    Carries the name of the violated invariant and, when meaningful, the
    measured residual that exceeded its tolerance.
    """

    def __init__(self, invariant: str, residual: float | None = None, detail: str = ""):
        self.invariant = invariant
        self.residual = residual
        msg = f"invariant violated: {invariant}"
        if residual is not None:
            msg += f" (residual {residual:.3e})"
        if detail:
            msg += f"; {detail}"
        super().__init__(msg)


class DocumentError(ValidationError):
    """A system document or report file is malformed.  Carries the field name."""

    def __init__(self, field: str, detail: str):
        self.field = field
        super().__init__(invariant=f"document field '{field}'", detail=detail)


class RankAmbiguityError(SymkalError):
    """Rank decisions of the tolerance policy are mutually inconsistent.

    Carries the rank decisions that conflicted, each with its values, cutoff
    and margin, and lists them one per line in the message, so the caller
    can pick a better tolerance scale.
    """

    def __init__(self, detail: str, *decisions):
        self.decisions = decisions
        super().__init__("\n  ".join([f"ambiguous rank decision: {detail}"]
                                      + [str(decision) for decision in decisions]))


class ConsistencyError(SymkalError):
    """Internal verification failed after an apparently successful computation."""

    def __init__(self, detail: str, report):
        self.report = report
        super().__init__(f"internal consistency check failed: {detail}")
