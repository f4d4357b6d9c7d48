"""Gaussian quadrature rules on [-1, 1] and deterministic integration.

The Legendre and Jacobi rules start from the eigenvalues of the symmetric
tridiagonal Jacobi matrix (Golub & Welsch, Math. Comp. 1969), computed
without eigenvectors. One Newton step on p_n, evaluated by the orthonormal
three-term recurrence whose coefficients fill that matrix, refines each
node, and the weights are the Christoffel numbers mu0 / sum_{k<n} p_k(x)^2
of the same recurrence at the refined nodes (as in Hale & Townsend, SIAM
J. Sci. Comput. 2013). This takes O(n^2) time and O(n) memory, where the
eigenvectors took an n x n matrix, and the weights near the ends are at
least as accurate. The Chebyshev rule is closed form. Node order is always
ascending and summation order is fixed, so repeated calls are bitwise
reproducible on the same platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import EvaluationError, InvalidArgumentError

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "gauss_chebyshev",
    "gauss_jacobi",
    "integrate",
    "ordered_sum",
    "sample",
]

MAX_NODES = 4096


def ordered_sum(values) -> float:
    """Sum an array in ascending index order, independent of BLAS threading."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        return 0.0
    return float(np.cumsum(arr)[-1])


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a quadrature rule on (-1, 1).

    Attributes
    ----------
    kind : str
        "legendre", "chebyshev1", or "jacobi(a,b)".
    nodes : ndarray
        Strictly increasing, all inside the open interval.
    weights : ndarray
        Strictly positive, same length as nodes.
    """

    kind: str
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise InvalidArgumentError("nodes and weights must be 1-d arrays of equal length")
        if nodes.size and (nodes[0] <= -1.0 or nodes[-1] >= 1.0):
            raise InvalidArgumentError("nodes must lie inside the open interval (-1, 1)")
        if nodes.size > 1 and not np.all(np.diff(nodes) > 0):
            raise InvalidArgumentError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise InvalidArgumentError("weights must be strictly positive")

    def __len__(self):
        return self.nodes.size


def _check_n(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InvalidArgumentError(f"node count must be an integer, got {n!r}")
    if n < 1 or n > MAX_NODES:
        raise InvalidArgumentError(f"node count must be in [1, {MAX_NODES}], got {n}")
    return int(n)


def _orthonormal_sums(x, diag, off):
    """p_n(x) and p_n'(x), both times off[n-1], and sum_{k<n} p_k(x)^2.

    p_k are the orthonormal polynomials of the recurrence diag, off scaled to
    p_0 = 1: off[k] p_{k+1} = (x - diag[k]) p_k - off[k-1] p_{k-1}.
    """
    n = diag.size
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    total = np.zeros_like(x)
    for k in range(n):
        total += p * p
        t = x - diag[k]
        beta = off[k - 1] if k else 0.0
        scale = off[k] if k < n - 1 else 1.0
        p_next = (t * p - beta * p_prev) / scale
        d_prev, d = d, (p + t * d - beta * d_prev) / scale
        p_prev, p = p, p_next
    return p, d, total


def _golub_welsch(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    # Recurrence coefficients of monic Jacobi polynomials for weight
    # (1-x)^a (1+x)^b; see Gautschi, "Orthogonal Polynomials", table 1.1.
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    with np.errstate(invalid="ignore", divide="ignore"):
        diag = (b * b - a * a) / (s * (s + 2.0))
    diag[0] = (b - a) / (a + b + 2.0)
    if n > 1:
        k = np.arange(1, n, dtype=float)
        s = 2.0 * k + a + b
        num = 4.0 * k * (k + a) * (k + b) * (k + a + b)
        den = s * s * (s + 1.0) * (s - 1.0)
        off = np.sqrt(num / den)
        off[0] = math.sqrt(4.0 * (a + 1.0) * (b + 1.0) / ((a + b + 2.0) ** 2 * (a + b + 3.0)))
    else:
        off = np.zeros(0)
    mu0 = 2.0 ** (a + b + 1.0) * math.exp(
        math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
    )
    if n == 1:
        return np.array([diag[0]]), np.array([mu0])
    # one Newton step on the zeros of p_n from the eigenvalues, then the
    # Christoffel weights at the refined nodes
    x = eigh_tridiagonal(diag, off, eigvals_only=True)
    p_n, d_n, _ = _orthonormal_sums(x, diag, off)
    x = x - p_n / d_n
    return x, mu0 / _orthonormal_sums(x, diag, off)[2]


@lru_cache(maxsize=256)
def gauss_legendre(n: int) -> QuadratureRule:
    """Gauss-Legendre rule with n nodes, exact for polynomials of degree 2n-1.

    Parameters
    ----------
    n : int
        Number of nodes, 1 <= n <= 4096.

    Returns
    -------
    QuadratureRule
    """
    n = _check_n(n)
    nodes, weights = _golub_welsch(n, 0.0, 0.0)
    return QuadratureRule("legendre", nodes, weights)


@lru_cache(maxsize=256)
def gauss_chebyshev(n: int) -> QuadratureRule:
    """Gauss-Chebyshev rule (first kind, weight 1/sqrt(1-x^2)), closed form.

    Nodes are the Chebyshev points cos((2k-1)pi/(2n)) in ascending order,
    written through sine so the node set is exactly symmetric in floating
    point (and the midpoint of an odd rule is exactly 0.0). All weights
    equal pi/n.
    """
    n = _check_n(n)
    k = np.arange(1, n + 1, dtype=float)
    nodes = np.sin(math.pi * (2.0 * k - n - 1.0) / (2.0 * n))
    weights = np.full(n, math.pi / n)
    return QuadratureRule("chebyshev1", nodes, weights)


@lru_cache(maxsize=512)
def gauss_jacobi(n: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Jacobi rule for the weight (1-x)^a (1+x)^b, a, b > -1.

    Parameters
    ----------
    n : int
        Number of nodes, 1 <= n <= 4096.
    a, b : float
        Weight exponents; each must be greater than -1 for the weight to be
        integrable.

    Returns
    -------
    QuadratureRule
    """
    n = _check_n(n)
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidArgumentError("jacobi exponents must be finite")
    if a <= -1.0 or b <= -1.0:
        raise InvalidArgumentError(f"jacobi exponents must exceed -1, got a={a}, b={b}")
    nodes, weights = _golub_welsch(n, a, b)
    return QuadratureRule(f"jacobi({a:g},{b:g})", nodes, weights)


def _as_callable(f):
    """f itself when it is callable, else the eval attribute of a function handle."""
    if callable(f):
        return f
    if hasattr(f, "eval"):
        return f.eval
    raise InvalidArgumentError("expected a callable or a function handle")


def sample(f, x: np.ndarray) -> np.ndarray:
    """Values of f at the array x, as floats of x's shape.

    f is a callable or an object with an eval attribute. A result of
    another shape (a constant, say) is broadcast to x's shape. A non-finite
    value raises EvaluationError naming the first argument that gave one.
    """
    vals = np.asarray(_as_callable(f)(x), dtype=float)
    if vals.shape != x.shape:
        vals = np.broadcast_to(vals, x.shape).astype(float)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        node = float(x.flat[np.argmax(bad)])
        raise EvaluationError(f"function is not finite at {node!r}", node=node)
    return vals


def integrate(fn, rule: QuadratureRule) -> float:
    """Integrate a callable against a rule with a fixed summation order.

    Parameters
    ----------
    fn : callable
        Vectorized function of the node array. An object with an ``eval``
        attribute (a function handle) is accepted as well.
    rule : QuadratureRule

    Returns
    -------
    float

    Raises
    ------
    EvaluationError
        If the integrand is non-finite at any node (raised by sample); the
        offending node is attached to the exception.
    """
    return ordered_sum(rule.weights * sample(fn, rule.nodes))
