"""Exception types shared across the package."""


class SmoothnessLabError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(SmoothnessLabError, ValueError):
    """An argument is outside its documented domain."""


class EvaluationError(SmoothnessLabError):
    """A function produced a non-finite value at a quadrature node."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class ConvergenceError(SmoothnessLabError):
    """An iterative solver hit its iteration cap before converging."""


class DegenerateReferenceError(SmoothnessLabError):
    """All reference points for a ratio estimate were unusable."""


class DegreeViolationError(SmoothnessLabError):
    """A quantity that must be a polynomial of bounded degree is not one."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ReportIOError(SmoothnessLabError):
    """A report could not be written or serialized."""
