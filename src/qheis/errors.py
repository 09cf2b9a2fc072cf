"""Exception types shared across the package."""


class DomainError(ValueError):
    """A field or map was evaluated outside its domain."""


class SingularityError(DomainError):
    """Evaluation at a singular point of a transform (Cayley pole, origin for sigma)."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; signals a convention or transcription bug."""


class AccuracyError(RuntimeError):
    """Quadrature refinement did not reach the requested tolerance.

    Carries the best available estimate so callers can still inspect it.
    """

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error
