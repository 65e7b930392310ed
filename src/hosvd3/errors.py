"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Array dimensions are inconsistent with each other or the request."""


class DomainError(ValueError):
    """Input is outside the mathematical domain (e.g. a zero tensor)."""


class ValidationError(ValueError):
    """Input fails a structural precondition (e.g. not Hermitian, not a core)."""


class NumericalError(RuntimeError):
    """An iterative numerical procedure failed to converge.

    Carries the tensor mode it occurred in when raised from a per-mode
    computation (``mode is None`` otherwise).  From the eigensolver it is
    the position, counted from 1, of the failing matrix among those solved
    in one call (1 for :func:`~hosvd3.smalllinalg.hermitian_eig`).
    """

    def __init__(self, message, mode=None):
        super().__init__(message)
        self.mode = mode
