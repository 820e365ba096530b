"""Exception types shared across the package."""


class MinconnError(Exception):
    """Base class for all package-specific errors."""


class InvalidParams(MinconnError):
    """A construction or operation received parameters outside its domain."""


class TooSmall(MinconnError):
    """The graph has too few vertices for the requested operation."""


class TooLarge(MinconnError):
    """Input exceeds a hard guard (the exhaustive enumerator's vertex cap)."""


class EmptyRegion(MinconnError):
    """A region operation received an empty vertex set."""


class NoSuchEdge(MinconnError):
    """The named edge is not present in the graph."""


class NoSeparatorThroughVertex(MinconnError):
    """No separator of the graph contains the requested vertex."""


class PreconditionViolated(MinconnError):
    """A procedure's stated precondition failed on the given input."""


class ClassMismatch(MinconnError):
    """The graph is not in the minimality class the caller asserted."""


class ValidationFailed(MinconnError):
    """A family-level validation found a mismatch with its declared values."""


class NotConverged(MinconnError):
    """An estimate failed to stabilise within the radius budget."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate
