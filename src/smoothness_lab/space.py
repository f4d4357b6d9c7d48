"""Weighted Lebesgue spaces on [-1, 1] and their admissible parameter ranges.

The norm of f in L_{p,alpha} is the p-norm of f(x) (1-x^2)^alpha; for
p = inf it is the supremum of |f(x)| (1-x^2)^alpha. The parameter pairs
(p, alpha) for which the smoothness characterization holds form the
admissible set encoded in validate_params.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError, InvalidArgumentError
from .quadrature import gauss_jacobi, ordered_sum

__all__ = [
    "EPS_INTERIOR",
    "SpaceParams",
    "FunctionHandle",
    "Admissibility",
    "validate_params",
    "make_grid",
    "sample",
    "weighted_norm",
]

# Margin keeping grid evaluations away from the endpoint singularities.
EPS_INTERIOR = 1e-6


@dataclass(frozen=True)
class SpaceParams:
    """Integrability exponent p in [1, inf] and weight exponent alpha."""

    p: float
    alpha: float

    def __post_init__(self):
        p = float(self.p)
        alpha = float(self.alpha)
        if math.isnan(p) or p < 1.0:
            raise InvalidArgumentError(f"p must be >= 1 (or inf), got {self.p!r}")
        if not math.isfinite(alpha):
            raise InvalidArgumentError(f"alpha must be finite, got {self.alpha!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "alpha", alpha)

    @property
    def is_sup(self) -> bool:
        return math.isinf(self.p)


@dataclass(frozen=True)
class Admissibility:
    """Verdict of validate_params: the alpha-interval attached to a given p."""

    admissible: bool
    p: float
    alpha: float
    lower: float
    upper: float
    lower_closed: bool
    upper_closed: bool

    def interval(self) -> str:
        left = "[" if self.lower_closed else "("
        right = "]" if self.upper_closed else ")"
        return f"{left}{self.lower:g}, {self.upper:g}{right}"


def validate_params(p: float, alpha: float) -> Admissibility:
    """Check whether (p, alpha) lies in the range where the equivalence holds.

    The admissible weight exponents are (1/2, 1] for p = 1, the open
    interval (1 - 1/(2p), 3/2 - 1/(2p)) for 1 < p < inf, and [1, 3/2)
    for p = inf. p below 1 is rejected outright.
    """
    p = float(p)
    alpha = float(alpha)
    if math.isnan(p) or p < 1.0:
        raise InvalidArgumentError(f"p must be >= 1 (or inf), got {p!r}")
    if not math.isfinite(alpha):
        raise InvalidArgumentError(f"alpha must be finite, got {alpha!r}")
    if p == 1.0:
        lower, upper, lc, uc = 0.5, 1.0, False, True
    elif math.isinf(p):
        lower, upper, lc, uc = 1.0, 1.5, True, False
    else:
        lower, upper, lc, uc = 1.0 - 1.0 / (2.0 * p), 1.5 - 1.0 / (2.0 * p), False, False
    above = alpha >= lower if lc else alpha > lower
    below = alpha <= upper if uc else alpha < upper
    return Admissibility(bool(above and below), p, alpha, lower, upper, lc, uc)


@dataclass
class FunctionHandle:
    """A function on [-1, 1] with optional derivatives and metadata.

    eval must accept numpy arrays of any shape and return matching shapes.
    parity is "even", "odd", or "none" and is advisory.

    degree, when given, is a promise that eval is a polynomial of degree at
    most degree. The translation kernels then integrate it with the smallest
    exact Chebyshev z-rule: their kernel has degree 4 in z and R is linear
    in z, so the integrand has degree degree + 4, and a rule of
    n = degree // 2 + 3 nodes is exact because degree + 4 <= 2n - 1. A
    degree that is too low gives wrong translations, not an error; None
    (the default) selects the convergence-stopped rule.

    breaks lists the points of (-1, 1), in increasing order, where eval is
    not smooth (a kink or a jump). The convergence-stopped z-rule of the
    translation kernels splits its integral where R crosses a break, which
    keeps its convergence spectral on a piecewise-smooth function.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    d1: Optional[Callable[[np.ndarray], np.ndarray]] = None
    d2: Optional[Callable[[np.ndarray], np.ndarray]] = None
    parity: str = "none"
    label: str = ""
    degree: Optional[int] = None
    breaks: tuple = ()

    def __post_init__(self):
        if self.parity not in ("even", "odd", "none"):
            raise InvalidArgumentError(f"parity must be even, odd, or none, got {self.parity!r}")
        d = self.degree
        if d is not None and (not isinstance(d, (int, np.integer)) or isinstance(d, bool) or d < 0):
            raise InvalidArgumentError(f"degree must be None or a nonnegative integer, got {d!r}")
        breaks = tuple(self.breaks)
        for b in breaks:
            if not isinstance(b, (int, float, np.integer, np.floating)) or isinstance(b, bool) or not -1.0 < b < 1.0:
                raise InvalidArgumentError(f"breaks must be finite numbers inside (-1, 1), got {b!r}")
        if any(a >= b for a, b in zip(breaks, breaks[1:])):
            raise InvalidArgumentError(f"breaks must be strictly increasing, got {breaks!r}")
        self.breaks = tuple(float(b) for b in breaks)

    def __call__(self, x):
        return self.eval(x)


def make_grid(n: int) -> np.ndarray:
    """Chebyshev-type evaluation grid of n points, clamped to |x| <= 1 - 1e-6.

    Points are sin(pi (2k - n - 1) / (2n)) for k = 1..n, ascending; the sine
    form keeps the grid exactly symmetric about 0.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 2:
        raise InvalidArgumentError(f"grid size must be an integer >= 2, got {n!r}")
    k = np.arange(1, n + 1, dtype=float)
    pts = np.sin(math.pi * (2.0 * k - n - 1.0) / (2.0 * n))
    return np.clip(pts, -(1.0 - EPS_INTERIOR), 1.0 - EPS_INTERIOR)


def sample(f, x: np.ndarray) -> np.ndarray:
    """Values of f at the array x, as floats of x's shape.

    f is a callable or an object with an eval attribute. A result of
    another shape (a constant, say) is broadcast to x's shape. A non-finite
    value raises EvaluationError naming the first argument that gave one.
    """
    if callable(f):
        fn = f
    elif hasattr(f, "eval"):
        fn = f.eval
    else:
        raise InvalidArgumentError("expected a callable or a function handle")
    vals = np.asarray(fn(x), dtype=float)
    if vals.shape != x.shape:
        vals = np.broadcast_to(vals, x.shape).astype(float)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        node = float(x.flat[np.argmax(bad)])
        raise EvaluationError(f"function is not finite at {node!r}", node=node)
    return vals


def weighted_norm(f, params: SpaceParams, n_nodes: int = 256) -> float:
    """Norm of f in L_{p,alpha} by weighted Gauss quadrature or grid supremum.

    For finite p the weight (1-x^2)^(p alpha) is absorbed into a
    Gauss-Jacobi rule with n_nodes points, which requires
    p * alpha > -1. For p = inf the maximum of |f| (1-x^2)^alpha is taken
    over make_grid(n_nodes) augmented with +-(1 - 1e-6).
    """
    if not isinstance(params, SpaceParams):
        params = SpaceParams(*params)
    if params.is_sup:
        edge = 1.0 - EPS_INTERIOR
        x = np.concatenate((make_grid(max(int(n_nodes), 2)), [-edge, edge]))
        vals = np.abs(sample(f, x)) * (1.0 - x * x) ** params.alpha
        return float(np.max(vals))
    exponent = params.p * params.alpha
    if exponent <= -1.0:
        raise InvalidArgumentError(
            f"p * alpha must exceed -1 for an integrable weight, got {exponent:g}"
        )
    rule = gauss_jacobi(int(n_nodes), exponent, exponent)
    vals = np.abs(sample(f, rule.nodes)) ** params.p
    return float(ordered_sum(rule.weights * vals) ** (1.0 / params.p))
