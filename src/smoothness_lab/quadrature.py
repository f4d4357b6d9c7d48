"""Gaussian quadrature rules on [-1, 1] and deterministic integration.

The Legendre and Jacobi rules are those of the symmetric weights
(1-x^2)^a: Legendre, the (2, 2) rule and each norm's (p alpha, p alpha)
rule. They start from the eigenvalues of the symmetric tridiagonal Jacobi
matrix T (Golub & Welsch, Math. Comp. 1969), computed without
eigenvectors. T has a zero diagonal: its eigenvalues come in pairs +-x, and
the positive ones are the square roots of the eigenvalues of the half-size
tridiagonal block of T^2 on the odd indices. Only the nonnegative nodes are
refined and weighted, and the rule is their exact mirror image. One pass of
the orthonormal three-term recurrence whose coefficients fill T gives p_n,
p_n' and p_{n-1}, p_{n-1}' at each eigenvalue: one Newton step refines the
node, and the weight is the Christoffel number mu0 / sum_{k<n} p_k^2 at the
refined node, by Christoffel-Darboux mu0 / (p_n' p_{n-1}) there, both
factors carried to the refined node to first order with p_n'' from the
Jacobi differential equation (as in Hale & Townsend, SIAM J. Sci. Comput.
2013). This takes O(n^2) time and O(n) memory, and the weights near the
ends are more accurate than those of the eigenvectors. The Chebyshev rule
is closed form. Node order is always ascending, every rule is bitwise
symmetric, and summation order is fixed, so repeated calls are bitwise
reproducible on the same platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import EvaluationError, InvalidArgumentError, _integer, _real

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
        "legendre", "chebyshev1", or "jacobi(a,a)".
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


def _last_two(x, off):
    """p_n, p_n', p_{n-1} and p_{n-1}' at x, the first two times off[n-1], each divided by exp(log_s); and log_s.

    p_k are the orthonormal polynomials of the recurrence with zero
    diagonal and off-diagonal off, scaled to p_0 = 1:
    off[k] p_{k+1} = x p_k - off[k-1] p_{k-1}. They overflow near the ends
    at a large exponent, hence log_s; it is 0 for a <= 48 and n <= 4096.
    """
    n = off.size + 1
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    log_s = np.zeros_like(x)
    for k in range(n):
        beta = off[k - 1] if k else 0.0
        scale = off[k] if k < n - 1 else 1.0
        p_next = (x * p - beta * p_prev) / scale
        d_prev, d = d, (p + x * d - beta * d_prev) / scale
        p_prev, p = p, p_next
        if k % 8 == 7 or k == n - 1:
            # values past 1e100 are divided by their size; they grow < (2.5 sqrt(2a + 3))^8 in 8 steps
            size = np.maximum(np.abs(p), np.abs(p_prev))
            if size.max() > 1e100:
                size[size <= 1e100] = 1.0
                p, d, p_prev, d_prev = p / size, d / size, p_prev / size, d_prev / size
                log_s += np.log(size)
    return p, d, p_prev, d_prev, log_s


def _newton_christoffel(x, off, a, mu0):
    """Nodes and weights of the Gauss-Jacobi rule of (1-x^2)^a from approximate zeros x of p_n.

    One pass of _last_two gives P = off[n-1] p_n, P', p_{n-1} and p_{n-1}'
    at x. One Newton step x + h, h = -P / P', refines each node. Its weight
    is the Christoffel number mu0 / sum_{k<n} p_k^2, where by
    Christoffel-Darboux the sum is P' p_{n-1} - p_{n-1}' P, at a zero of P
    just P' p_{n-1}. Both factors are carried to x + h to first order in h,
    with P'' from the Jacobi differential equation
    (1 - x^2) y'' = (2 a + 2) x y' - n (n + 2 a + 1) y. exp(-2 log_s)
    undoes the scale of _last_two on both factors.
    """
    n = off.size + 1
    p_n, d_n, p_m, d_m, log_s = _last_two(x, off)
    h = -p_n / d_n
    dd_n = ((a + a + 2.0) * x * d_n - n * (n + a + a + 1.0) * p_n) / ((1.0 - x) * (1.0 + x))
    return x + h, mu0 / ((d_n + dd_n * h) * (p_m + d_m * h)) * np.exp(-2.0 * log_s)


def _golub_welsch(n: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    # Recurrence coefficients of monic Jacobi polynomials for weight
    # (1-x^2)^a; see Gautschi, "Orthogonal Polynomials", table 1.1. The
    # diagonal is zero. mu0 = 2^(2a+1) Gamma(a+1)^2 / Gamma(2a+2), in log
    # space before 2^(2a+1) overflows and the gamma quotient underflows.
    gammas = math.lgamma(a + 1.0) + math.lgamma(a + 1.0) - math.lgamma(a + a + 2.0)
    mu0 = 2.0 ** (a + a + 1.0) * math.exp(gammas) if a < 500.0 else math.exp((a + a + 1.0) * math.log(2.0) + gammas)
    if n == 1:
        return np.array([0.0]), np.array([mu0])
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + a + a
    num = 4.0 * k * (k + a) * (k + a) * (k + a + a)
    den = s * s * (s + 1.0) * (s - 1.0)
    off = np.sqrt(num / den)
    off[0] = math.sqrt(4.0 * (a + 1.0) * (a + 1.0) / ((a + a + 2.0) ** 2 * (a + a + 3.0)))
    # The zeros come in pairs +-x and T^2 keeps the parity of an index. Its
    # block on the odd indices is tridiagonal, with the squares of the
    # n // 2 positive zeros for eigenvalues. Only those zeros are refined
    # and weighted; an odd rule adds the midpoint, where p_n is exactly 0
    # and the node stays 0.0. The negative half is their mirror image.
    o = np.append(off, 0.0)
    m = n // 2
    square_diag = o[0 : 2 * m : 2] ** 2 + o[1 : 2 * m : 2] ** 2
    square_off = o[1 : 2 * m - 2 : 2] * o[2 : 2 * m - 1 : 2]
    x = np.sqrt(eigh_tridiagonal(square_diag, square_off, eigvals_only=True))
    x, w = _newton_christoffel(np.concatenate(([0.0], x)) if n % 2 else x, off, a, mu0)
    if not np.all(w > 0.0):
        raise InvalidArgumentError(f"node count {n} is too large for jacobi exponent {a:g}: the smallest weight underflows")
    return np.concatenate((-x[::-1][:m], x)), np.concatenate((w[::-1][:m], w))


@lru_cache(maxsize=256, typed=True)
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
    n = _integer(n, "node count", 1, MAX_NODES)
    nodes, weights = _golub_welsch(n, 0.0)
    return QuadratureRule("legendre", nodes, weights)


@lru_cache(maxsize=256, typed=True)
def gauss_chebyshev(n: int) -> QuadratureRule:
    """Gauss-Chebyshev rule (first kind, weight 1/sqrt(1-x^2)), closed form.

    Nodes are the Chebyshev points cos((2k-1)pi/(2n)) in ascending order,
    written through sine so the node set is exactly symmetric in floating
    point (and the midpoint of an odd rule is exactly 0.0). All weights
    equal pi/n.
    """
    n = _integer(n, "node count", 1, MAX_NODES)
    k = np.arange(1, n + 1, dtype=float)
    nodes = np.sin(math.pi * (2.0 * k - n - 1.0) / (2.0 * n))
    weights = np.full(n, math.pi / n)
    return QuadratureRule("chebyshev1", nodes, weights)


@lru_cache(maxsize=512, typed=True)
def gauss_jacobi(n: int, a: float) -> QuadratureRule:
    """Gauss-Jacobi rule for the symmetric weight (1-x^2)^a, a > -1.

    Parameters
    ----------
    n : int
        Number of nodes, 1 <= n <= 4096.
    a : float
        Weight exponent; it must be greater than -1 for the weight to be
        integrable.

    Returns
    -------
    QuadratureRule
    """
    n = _integer(n, "node count", 1, MAX_NODES)
    a = _real(a, "jacobi exponent")
    if not -1.0 < a < math.inf:
        raise InvalidArgumentError(f"jacobi exponent must be finite and exceed -1, got a={a}")
    nodes, weights = _golub_welsch(n, a)
    return QuadratureRule(f"jacobi({a:g},{a:g})", nodes, weights)


def _panel_rule(edges, n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on each panel between edges, weighted by (1-x^2)^2.

    For a function smooth between the edges, where one global rule converges only algebraically.
    """
    gl = gauss_legendre(n)
    edges = np.asarray(edges, dtype=float)
    half, mid = np.diff(edges)[:, None] / 2.0, (edges[1:] + edges[:-1])[:, None] / 2.0
    nodes = (half * gl.nodes + mid).ravel()
    return nodes, (half * gl.weights).ravel() * (1.0 - nodes * nodes) ** 2


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
    if not isinstance(rule, QuadratureRule):
        raise InvalidArgumentError(f"rule must be a QuadratureRule, got {rule!r}")
    return ordered_sum(rule.weights * sample(fn, rule.nodes))
