"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Array dimensions are inconsistent with each other or the request."""


class DomainError(ValueError):
    """Input is outside the mathematical domain (e.g. a zero tensor)."""


class ValidationError(ValueError):
    """Input fails a structural precondition (e.g. not Hermitian, not a core)."""


class NumericalError(RuntimeError):
    """LAPACK's eigensolver did not converge.  That is its one cause, so
    only hosvd and hermitian_eig, which call the eigensolver, raise it.

    Carries the tensor mode it occurred in (``mode is None`` otherwise):
    from :func:`~hosvd3.hosvd.hosvd` the lowest mode whose Gram matrix the
    eigensolver fails on, and 1 from :func:`~hosvd3.smalllinalg.hermitian_eig`.
    """

    def __init__(self, message, mode=None):
        super().__init__(message)
        self.mode = mode
