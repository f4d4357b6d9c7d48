"""Jacobi polynomials, expansions, and the associated differential operator."""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import math
import threading

import numpy as np
from numpy.polynomial import chebyshev as ncheb

from .errors import InvalidArgumentError, _integer, _real, _reals
from .quadrature import _panel_rule, gauss_chebyshev, gauss_jacobi, ordered_sum, sample

__all__ = [
    "PolynomialRep",
    "jacobi_eval",
    "jacobi_poly",
    "jacobi_h",
    "apply_D_poly",
    "fourier_jacobi_coeff",
    "expand_in_jacobi",
]


@dataclass(frozen=True)
class PolynomialRep:
    """Polynomial sum_k cheb[k] T_k(x) in Chebyshev coefficients, with exact degree.

    Values come from Clenshaw's recurrence (numpy's chebval), accurate on
    [-1, 1] to a few ulps of the coefficient sum. The monomial coefficients
    of P_64^{(2,2)} reach 1.7e20 while its values stay O(1); its Chebyshev
    coefficients stay below 0.06, so polynomials up to the degree-64 caps of
    approx (MAX_WITNESS_DEG, MAX_APPROX_DIM) keep full precision.
    """

    cheb: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.cheb, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise InvalidArgumentError("coefficients must form a nonempty 1-d array")
        if not np.all(np.isfinite(c)):
            raise InvalidArgumentError("coefficients must be finite")
        last = c.size
        while last > 1 and c[last - 1] == 0.0:
            last -= 1
        c = c[:last].copy()
        c.setflags(write=False)
        object.__setattr__(self, "cheb", c)

    @property
    def degree(self) -> int:
        return self.cheb.size - 1

    def __call__(self, x):
        xv = np.asarray(x, dtype=float)
        out = ncheb.chebval(xv, self.cheb)
        return float(out) if xv.ndim == 0 else out

    # FunctionHandle duck-typing
    @property
    def eval(self):
        return self.__call__

    def derivative(self) -> "PolynomialRep":
        return PolynomialRep(ncheb.chebder(self.cheb))

    def is_zero(self) -> bool:
        return not np.any(self.cheb)


def _cheb_interp(values):
    """Chebyshev coefficients of the interpolant of values at the n first-kind Chebyshev points, gauss_chebyshev(n).nodes, n = len(values).

    The discrete Chebyshev transform there recovers the coefficients of
    every polynomial of degree < n exactly. values may have more axes than
    the first; the coefficients of each column are then the columns of
    the result.
    """
    n = len(values)
    coeffs = ncheb.chebvander(gauss_chebyshev(n).nodes, n - 1).T @ values * (2.0 / n)
    coeffs[0] *= 0.5
    return coeffs


def _check_jacobi_args(n, a, b):
    n, a, b = _integer(n, "degree", 0), _real(a, "jacobi exponent a"), _real(b, "jacobi exponent b")
    if not (math.isfinite(a) and math.isfinite(b)) or a <= -1.0 or b <= -1.0:
        raise InvalidArgumentError(f"jacobi exponents must be finite and exceed -1, got ({a}, {b})")
    return n, a, b


def _recurrence(n, a, b, one, affine):
    """Unnormalized P_0^{(a,b)}..P_n^{(a,b)} by the standard three-term recurrence.

    one is P_0 and affine(p, c, d) returns (c + d x) p, both in the caller's
    representation: values on a grid or Chebyshev coefficients.
    """
    prev = one
    yield prev
    if n == 0:
        return
    cur = affine(one, (a - b) / 2.0, (a + b + 2.0) / 2.0)
    yield cur
    for k in range(2, n + 1):
        c1 = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
        c2 = (2.0 * k + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * k + a + b - 2.0) * (2.0 * k + a + b - 1.0) * (2.0 * k + a + b)
        c4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b)
        cur, prev = (affine(cur, c2, c3) - c4 * prev) / c1, cur
        yield cur


def _raw_rows(n, a, b, x):
    """Unnormalized P_0..P_n^{(a,b)} at x (any ndarray shape)."""
    return _recurrence(n, a, b, np.ones_like(x), lambda p, c, d: (c + d * x) * p)


def jacobi_eval(n, a, b, x):
    """Jacobi polynomial of degree n normalized so that P_n(1) = 1.

    One run of the recurrence takes the points of x with 1 appended, and
    divides by its value at 1.
    """
    n, a, b = _check_jacobi_args(n, a, b)
    xv = _reals(x, "x", 1e-12)
    raw = deque(_raw_rows(n, a, b, np.append(xv, 1.0)), maxlen=1)[0]
    out = (raw[:-1] / raw[-1]).reshape(xv.shape)
    return float(out) if np.isscalar(x) or xv.shape == () else out


# Rows built by jacobi_matrix, per (a, b, node values), least recently used
# first. The package uses a handful of node sets per run, each well under
# _ROWS_BYTES; older sets are dropped once the rows kept exceed it. The lock
# covers each lookup, and each insert with its trim; rows are built outside it.
_ROWS: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_ROWS_BYTES = 1 << 20
_ROWS_LOCK = threading.Lock()


def jacobi_matrix(nmax, x, a=2.0, b=2.0):
    """Rows P_0..P_nmax (normalized at 1) evaluated on a 1-d array x in [-1, 1], as a read-only array.

    The recurrence runs on the points with 1 appended, and each row is
    divided by its last entry, its value at 1. The rows of each node set
    and (a, b) are built once per process and kept in a bounded in-memory
    cache keyed on the node values. A call asks for a prefix of the longest
    run built so far; P_0..P_nmax do not depend on how far the recurrence
    runs, so the slice is bitwise the rows a fresh run would give.
    """
    nmax, a, b = _check_jacobi_args(nmax, a, b)
    x = _reals(x, "x", 1e-12)
    if x.ndim != 1:
        raise InvalidArgumentError(f"x must be a 1-d array, got shape {x.shape}")
    key = (a, b, x.tobytes())
    with _ROWS_LOCK:
        rows = _ROWS.pop(key, None)
    if rows is None or rows.shape[0] <= nmax:
        raw = np.array(list(_raw_rows(nmax, a, b, np.append(x, 1.0))))
        rows = raw[:, :-1] / raw[:, -1:]
        rows.setflags(write=False)
    with _ROWS_LOCK:
        _ROWS[key] = rows
        while sum(r.nbytes for r in _ROWS.values()) > _ROWS_BYTES:
            _ROWS.popitem(last=False)
    return rows[: nmax + 1]


def _cheb_rows(n, a, b):
    """Unnormalized P_0..P_n^{(a,b)} in Chebyshev coefficients, each of length n + 1.

    P_k has degree k, so entries k + 1..n of its row are zero, and its
    first k + 1 entries do not depend on n.
    """
    one = np.zeros(n + 1)
    one[0] = 1.0

    def affine(p, c, d):
        # chebmulx drops the zero tail of p; pad its product back to n + 1
        xp = ncheb.chebmulx(p)
        return c * p + d * np.pad(xp, (0, n + 1 - xp.size))

    return _recurrence(n, a, b, one, affine)


@lru_cache(maxsize=256)
def _cheb_matrix(d: int, a: float, b: float) -> np.ndarray:
    """(d+1) x (d+1) matrix whose column k holds the Chebyshev coefficients of P_k^{(a,b)}, P_k(1) = 1.

    One run of the recurrence gives every column; column k is normalized by
    the sum of its first k + 1 entries, its value at 1, so it is bitwise
    jacobi_poly(k, a, b).cheb padded with zeros. No entry depends on d,
    so a d below 64 takes the leading block of the degree-64 matrix.
    """
    if d < 64:
        return _cheb_matrix(64, a, b)[: d + 1, : d + 1]
    M = np.empty((d + 1, d + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # at a huge a or b, columns past those asked for overflow
        for k, raw in enumerate(_cheb_rows(d, a, b)):
            M[:, k] = raw / np.sum(raw[: k + 1])
    M.setflags(write=False)
    return M


def _jacobi_series(c) -> PolynomialRep:
    """sum_k c[k] P_k^{(2,2)}, summed over k in order, so bitwise the in-order sum of c[k] jacobi_poly(k, 2, 2)."""
    c = np.asarray(c, dtype=float)
    return PolynomialRep(np.cumsum(_cheb_matrix(c.size - 1, 2.0, 2.0) * c, axis=1)[:, -1])


def jacobi_poly(n, a, b) -> PolynomialRep:
    """Degree-n Jacobi polynomial P_n^{(a,b)}, P_n(1) = 1, in Chebyshev coefficients: column n of _cheb_matrix.

    The recurrence of jacobi_eval runs on Chebyshev coefficients, so the
    result agrees with jacobi_eval to ~1e-14 up to degree 64.
    """
    n, a, b = _check_jacobi_args(n, a, b)
    return PolynomialRep(_cheb_matrix(n, a, b)[:, n])


def jacobi_h(n) -> float:
    """Squared (1-x^2)^2-weighted L2 norm of P_n^{(2,2)} (normalized at 1), in closed form."""
    # checked outside the cache, which keys True and 1 alike
    return _h_cached(_check_jacobi_args(n, 2, 2)[0])


@lru_cache(maxsize=4096)
def _h_cached(n: int) -> float:
    tilde = Fraction(32, 2 * n + 5) * Fraction(
        math.factorial(n + 2) ** 2, math.factorial(n + 4) * math.factorial(n)
    )
    return float(tilde / Fraction(math.comb(n + 2, 2)) ** 2)


def _d_eigenvalues(n) -> np.ndarray:
    """-k(k+5) for k = 0..n: the second-order operator D multiplies P_k^{(2,2)} by the k-th."""
    k = np.arange(n + 1.0)
    return -k * (k + 5.0)


def apply_D_poly(poly: PolynomialRep) -> PolynomialRep:
    """Image (1-x^2) g'' - 6x g' of g under the (2,2) operator, in Chebyshev coefficients, by its closed form.

    The Chebyshev equation (1-x^2) T_k'' = x T_k' - k^2 T_k and
    x T_k' = (k/2) (U_k + U_{k-2}) give D T_k = -k(k+5) T_k
    - 10k (T_{k-2} + T_{k-4} + ...), the T_0 term halved. So for
    g = sum c_k T_k, (Dg)_j = -j(j+5) c_j - 10 sum_{k > j, k = j mod 2} k c_k,
    halved at j = 0: two reversed cumulative sums, over the even and the
    odd entries of k c, in a fixed order. The image has g's length, and
    P_n^{(2,2)} is an eigenfunction with eigenvalue -n(n+5).
    """
    c = poly.cheb
    k = np.arange(c.size, dtype=float)
    kc = k * c
    tails = np.zeros(c.size + 2)  # tails[j] = sum of k c_k over k >= j, k = j mod 2, from the top
    for j in (0, 1):
        tails[j : c.size : 2] = np.cumsum(kc[j::2][::-1])[::-1]
    dg = _d_eigenvalues(c.size - 1) * c - 10.0 * tails[2:]
    dg[0] *= 0.5
    return PolynomialRep(dg)


def fourier_jacobi_coeff(f, n, n_nodes: int = 64) -> float:
    """Expansion integral of f against P_n^{(2,2)} with weight (1-x^2)^2."""
    n, _, _ = _check_jacobi_args(n, 2, 2)
    rule = gauss_jacobi(_integer(n_nodes, "n_nodes", 1), 2.0)
    vals = sample(f, rule.nodes)
    return ordered_sum(rule.weights * vals * jacobi_eval(n, 2, 2, rule.nodes))


def _plateau_cut(c):
    """How many leading coefficients of the series c to keep, cut where it reaches its plateau; None when it reaches none.

    The standardChop rule of Aurentz & Trefethen (ACM TOMS 43, 2017): on
    the envelope of |c| (its largest entry from each index on, relative to
    the first), a plateau starts at the first j whose envelope e_j either
    is 0 or is followed, at j2 = round(1.25 j + 5), by more than
    3 (1 - log e_j / log tol) times itself, tol the machine epsilon. The cut is then where
    log10 of the envelope plus a ramp from 0 to -log10(tol) / 3 over
    the first j2 entries is least. It needs 17 coefficients; a series
    whose tail still decays at its end, algebraically say, has no plateau.
    """
    n, tol = c.size, float(np.finfo(float).eps)
    if n < 17:
        return None
    env = np.maximum.accumulate(np.abs(c)[::-1])[::-1]
    if env[0] == 0.0:
        return 1
    env = env / env[0]
    for j in range(2, n + 1):  # 1-based, as in the paper
        j2 = math.floor(1.25 * j + 5.5)
        if j2 > n:
            return None
        e1, e2 = env[j - 1], env[j2 - 1]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - math.log(e1) / math.log(tol)):
            plateau = j - 1
            break
    if env[plateau - 1] == 0.0:
        return plateau
    floor = tol ** (7.0 / 6.0)
    j3 = int(np.sum(env >= floor))
    if j3 < j2:
        j2 = j3 + 1
        env[j2 - 1] = floor
    ramped = np.log10(env[:j2]) + np.linspace(0.0, -math.log10(tol) / 3.0, j2)
    return max(int(np.argmin(ramped)), 1)


def expand_in_jacobi(f, nmax, n_nodes: int = 256) -> np.ndarray:
    """Coefficients c_0..c_nmax with f ~ sum c_nu P_nu^{(2,2)} in the weighted sense.

    The inner products take the n_nodes-point Gauss-Jacobi (2,2) rule, split
    at the breaks of f (FunctionHandle.breaks) into n_nodes // (len(breaks)
    + 1) Gauss-Legendre nodes per panel weighted by (1-x^2)^2: exact for a
    piecewise polynomial such as |x|, where one global rule is algebraic.
    """
    nmax, _, _ = _check_jacobi_args(nmax, 2, 2)
    n_nodes = _integer(n_nodes, "n_nodes", 1)
    breaks = tuple(getattr(f, "breaks", ()))
    if breaks:
        nodes, weights = _panel_rule((-1.0,) + breaks + (1.0,), max(n_nodes // (len(breaks) + 1), 1))
    else:
        rule = gauss_jacobi(n_nodes, 2.0)
        nodes, weights = rule.nodes, rule.weights
    vals = sample(f, nodes)
    basis = jacobi_matrix(nmax, nodes)
    prods = np.cumsum(basis * (weights * vals)[None, :], axis=1)[:, -1]
    h = np.array([_h_cached(k) for k in range(nmax + 1)])
    return prods / h
