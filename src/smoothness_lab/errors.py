"""Exception types shared across the package, and the checks of integer and real arguments."""

import numpy as np


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


def _integer(n, name: str, lo: int, hi=None) -> int:
    """n as an int, if it is an integer (not a bool) in [lo, hi], or of at least lo when hi is None."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < lo or (hi is not None and n > hi):
        kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(lo, f"an integer >= {lo}")
        raise InvalidArgumentError(f"{name} must be {kind if hi is None else f'an integer in [{lo}, {hi}]'}, got {n!r}")
    return int(n)


def _real(v, name: str) -> float:
    """v as a float, if it is a real number (not a bool) or a 0-d array of one; inf and nan pass."""
    if isinstance(v, np.ndarray) and v.ndim == 0:
        v = v[()]
    if not isinstance(v, (int, float, np.integer, np.floating)) or isinstance(v, bool):
        raise InvalidArgumentError(f"{name} must be a real number, got {v!r}")
    return float(v)


def _reals(v, name: str, slack=None) -> np.ndarray:
    """v as a float array, if numpy reads it as an array of integers or floats (not of bools or strings); given slack, also within [-1 - slack, 1 + slack]."""
    try:
        kind = np.asarray(v).dtype.kind
    except (TypeError, ValueError):
        kind = None
    if kind not in ("i", "u", "f"):
        raise InvalidArgumentError(f"{name} must be a real number or an array of them, got {v!r}")
    out = np.asarray(v, dtype=float)
    if slack is not None and not np.all(np.abs(out) <= 1.0 + slack):
        raise InvalidArgumentError(f"{name} must lie in [-1, 1]")
    return out
