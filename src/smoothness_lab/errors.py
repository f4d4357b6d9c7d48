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


class ReportIOError(SmoothnessLabError):
    """A report could not be written or serialized."""
