"""Jacobi polynomials, expansions, and the associated differential operator."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import math

import numpy as np

from .errors import InvalidArgumentError
from .quadrature import gauss_jacobi, ordered_sum
from .space import EPS_INTERIOR, sample

__all__ = [
    "PolynomialRep",
    "DOperatorParams",
    "jacobi_eval",
    "jacobi_poly",
    "jacobi_series_eval",
    "jacobi_h",
    "apply_D_poly",
    "apply_D_func",
    "fourier_jacobi_coeff",
    "expand_in_jacobi",
    "poly_lincomb",
]

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker's constant for float64
_BLOCK = 8192  # elements per block of _comp_horner; see its docstring


def _comp_horner(coeffs, x):
    """Horner evaluation with a running error compensation term.

    Accurate to ~1 ulp even when plain Horner loses digits to cancellation,
    which matters for high-degree Jacobi coefficients (they reach ~1e9 by
    degree 32 while values stay O(1)).

    This is the compensated Horner scheme of Graillat, Langlois & Louvet
    (2005). Each element goes through the same IEEE-754 operations, in the
    same order, as the textbook loop: TwoProd(s, x) with Dekker's splitting,
    TwoSum(p, c) with Knuth's, then e = e * x + (ep + es) per coefficient
    and s + e at the end. Only the splitting of x, which does not depend on
    the coefficient, is done once instead of once per coefficient; it yields
    the same halves. The results are therefore bit-identical to that loop.

    x is flattened and evaluated in contiguous blocks of ``_BLOCK`` elements
    through nine preallocated work buffers, so no step allocates and the
    buffers (about 0.6 MB) stay in cache however large x is. The block size
    is a constant because it changes only the speed, never a result: each
    element is computed on its own. On a 2-core Xeon with 4 MB of L2, blocks
    of 8K and 16K elements ran fastest at shapes (43, 2048) and (1024, 1024);
    1K blocks were twice as slow (numpy's per-call overhead) and 64K blocks
    1.3 times (the buffers no longer fit in L2).
    """
    xv = np.asarray(x, dtype=float)
    flat = xv.ravel()
    out = np.empty(flat.size)
    work = np.empty((9, min(flat.size, _BLOCK)))
    for lo in range(0, flat.size, _BLOCK):
        xb = flat[lo : lo + _BLOCK]
        xh, xl, s, e, p, t, u, sh, sl = work[:, : xb.size]
        # every ufunc below writes into its last argument
        np.multiply(xb, _SPLITTER, t)
        np.subtract(t, xb, xh)
        np.subtract(t, xh, xh)  # xh = t - (t - x)
        np.subtract(xb, xh, xl)
        s.fill(coeffs[-1])
        e.fill(0.0)
        for c in coeffs[-2::-1]:
            # TwoProd, p + u == s * x exactly:
            # u = ((sh * xh - p) + sh * xl + sl * xh) + sl * xl
            np.multiply(s, xb, p)
            np.multiply(s, _SPLITTER, t)
            np.subtract(t, s, sh)
            np.subtract(t, sh, sh)  # sh = t - (t - s)
            np.subtract(s, sh, sl)
            np.multiply(sh, xh, u)
            u -= p
            np.multiply(sh, xl, t)
            u += t
            np.multiply(sl, xh, t)
            u += t
            np.multiply(sl, xl, t)
            u += t
            # TwoSum, s + sh == p + c exactly:
            # s = p + c, t = s - p, sh = (p - (s - t)) + (c - t)
            np.add(p, c, s)
            np.subtract(s, p, t)
            np.subtract(s, t, sh)
            np.subtract(p, sh, sh)
            np.subtract(c, t, t)
            sh += t
            # e = e * x + (u + sh)
            e *= xb
            u += sh
            e += u
        np.add(s, e, out[lo : lo + xb.size])
    return float(out[0]) if xv.ndim == 0 else out.reshape(xv.shape)


@dataclass(frozen=True)
class PolynomialRep:
    """Polynomial in ascending monomial coefficients with exact degree."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise InvalidArgumentError("coefficients must form a nonempty 1-d array")
        if not np.all(np.isfinite(c)):
            raise InvalidArgumentError("coefficients must be finite")
        last = c.size
        while last > 1 and c[last - 1] == 0.0:
            last -= 1
        c = c[:last].copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x):
        return _comp_horner(self.coeffs, x)

    # FunctionHandle duck-typing
    @property
    def eval(self):
        return self.__call__

    def derivative(self) -> "PolynomialRep":
        c = self.coeffs
        if c.size == 1:
            return PolynomialRep(np.zeros(1))
        return PolynomialRep(c[1:] * np.arange(1, c.size))

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= tol))


def poly_lincomb(weights, polys) -> PolynomialRep:
    """Linear combination sum_k weights[k] * polys[k] as a PolynomialRep."""
    weights = list(weights)
    polys = list(polys)
    if len(weights) != len(polys) or not polys:
        raise InvalidArgumentError("need equally many weights and polynomials, at least one")
    size = max(p.coeffs.size for p in polys)
    out = np.zeros(size)
    for w, p in zip(weights, polys):
        out[: p.coeffs.size] += w * p.coeffs
    return PolynomialRep(out)


def _check_jacobi_args(n, a, b):
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise InvalidArgumentError(f"degree must be a nonnegative integer, got {n!r}")
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or a <= -1.0 or b <= -1.0:
        raise InvalidArgumentError(f"jacobi exponents must be finite and exceed -1, got ({a}, {b})")
    return int(n), a, b


def _recurrence_step(n, a, b):
    # standard three-term recurrence constants for P_n^{(a,b)}
    c1 = 2.0 * n * (n + a + b) * (2.0 * n + a + b - 2.0)
    c2 = (2.0 * n + a + b - 1.0) * (a * a - b * b)
    c3 = (2.0 * n + a + b - 2.0) * (2.0 * n + a + b - 1.0) * (2.0 * n + a + b)
    c4 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * (2.0 * n + a + b)
    return c1, c2, c3, c4


def _raw_values(n, a, b, x):
    """Unnormalized P_n^{(a,b)} at x (any ndarray shape) by recurrence."""
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev
    p = (a - b) / 2.0 + (a + b + 2.0) / 2.0 * x
    for k in range(2, n + 1):
        c1, c2, c3, c4 = _recurrence_step(k, a, b)
        p, p_prev = ((c2 + c3 * x) * p - c4 * p_prev) / c1, p
    return p


@lru_cache(maxsize=4096)
def _value_at_one(n, a, b):
    return float(_raw_values(n, a, b, np.ones(())))


def jacobi_eval(n, a, b, x):
    """Jacobi polynomial of degree n normalized so that P_n(1) = 1."""
    n, a, b = _check_jacobi_args(n, a, b)
    xv = np.asarray(x, dtype=float)
    if np.any(np.abs(xv) > 1.0 + 1e-12):
        raise InvalidArgumentError("evaluation points must lie in [-1, 1]")
    out = _raw_values(n, a, b, xv) / _value_at_one(n, a, b)
    return float(out) if np.isscalar(x) or xv.shape == () else out


def jacobi_matrix(nmax, x, a=2.0, b=2.0):
    """Rows P_0..P_nmax (normalized at 1) evaluated on a 1-d array."""
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1, x.size))
    out[0] = 1.0
    if nmax >= 1:
        out[1] = ((a - b) / 2.0 + (a + b + 2.0) / 2.0 * x) / _value_at_one(1, a, b)
        raw_prev = np.ones_like(x)
        raw = (a - b) / 2.0 + (a + b + 2.0) / 2.0 * x
        for k in range(2, nmax + 1):
            c1, c2, c3, c4 = _recurrence_step(k, a, b)
            raw, raw_prev = ((c2 + c3 * x) * raw - c4 * raw_prev) / c1, raw
            out[k] = raw / _value_at_one(k, a, b)
    return out


def jacobi_series_eval(coeffs, x, a=2.0, b=2.0):
    """sum_k coeffs[k] P_k^{(a,b)}(x) with P_k(1) = 1, for x of any shape."""
    coeffs = np.asarray(coeffs, dtype=float)
    xv = np.asarray(x, dtype=float)
    acc = np.full(xv.shape, coeffs[0], dtype=float)
    if coeffs.size > 1:
        raw_prev = np.ones_like(xv)
        raw = (a - b) / 2.0 + (a + b + 2.0) / 2.0 * xv
        acc = acc + coeffs[1] * raw / _value_at_one(1, a, b)
        for k in range(2, coeffs.size):
            c1, c2, c3, c4 = _recurrence_step(k, a, b)
            raw, raw_prev = ((c2 + c3 * xv) * raw - c4 * raw_prev) / c1, raw
            acc = acc + coeffs[k] * raw / _value_at_one(k, a, b)
    return float(acc) if np.isscalar(x) or xv.shape == () else acc


@lru_cache(maxsize=512)
def _poly_cached(n, a, b):
    if float(a).is_integer() and float(b).is_integer() and a > -1 and b > -1:
        # exact rational recurrence, rounded to float once at the end
        ai, bi = int(a), int(b)
        prev = [Fraction(1)]
        if n == 0:
            cur = prev
        else:
            cur = [Fraction(ai - bi, 2), Fraction(ai + bi + 2, 2)]
        for k in range(2, n + 1):
            c1 = Fraction(2 * k * (k + ai + bi) * (2 * k + ai + bi - 2))
            c2 = Fraction((2 * k + ai + bi - 1) * (ai * ai - bi * bi))
            c3 = Fraction((2 * k + ai + bi - 2) * (2 * k + ai + bi - 1) * (2 * k + ai + bi))
            c4 = Fraction(2 * (k + ai - 1) * (k + bi - 1) * (2 * k + ai + bi))
            nxt = [Fraction(0)] * (k + 1)
            for j, c in enumerate(cur):
                nxt[j] += c2 * c
                nxt[j + 1] += c3 * c
            for j, c in enumerate(prev):
                nxt[j] -= c4 * c
            cur, prev = [c / c1 for c in nxt], cur
        norm = sum(cur)  # value at x = 1
        return PolynomialRep(np.array([float(c / norm) for c in cur]))
    # float recurrence for non-integer exponents
    prev = np.array([1.0])
    if n == 0:
        cur = prev
    else:
        cur = np.array([(a - b) / 2.0, (a + b + 2.0) / 2.0])
    for k in range(2, n + 1):
        c1, c2, c3, c4 = _recurrence_step(k, a, b)
        nxt = np.zeros(k + 1)
        nxt[: k] += c2 * cur
        nxt[1 : k + 1] += c3 * cur
        nxt[: k - 1] -= c4 * prev
        cur, prev = nxt / c1, cur
    return PolynomialRep(cur / np.sum(cur))


def jacobi_poly(n, a, b) -> PolynomialRep:
    """Monomial coefficients of the degree-n Jacobi polynomial, P_n(1) = 1."""
    n, a, b = _check_jacobi_args(n, a, b)
    return _poly_cached(n, a, b)


@lru_cache(maxsize=4096)
def jacobi_h(n, a=2, b=2) -> float:
    """Squared weighted L2 norm of P_n^{(a,b)} (normalized at 1).

    Closed form for the (2,2) pair; other exponent pairs fall back to
    quadrature of the defining integral.
    """
    if n < 0:
        raise InvalidArgumentError("degree must be nonnegative")
    if (a, b) == (2, 2):
        tilde = Fraction(32, 2 * n + 5) * Fraction(
            math.factorial(n + 2) ** 2, math.factorial(n + 4) * math.factorial(n)
        )
        return float(tilde / Fraction(math.comb(n + 2, 2)) ** 2)
    rule = gauss_jacobi(max(2 * (n + 1), 16), float(a), float(b))
    vals = jacobi_eval(n, a, b, rule.nodes)
    return ordered_sum(rule.weights * vals * vals)


@dataclass(frozen=True)
class DOperatorParams:
    """Coefficients of the operator (1-x^2) f'' + (mu - nu - (nu+mu+2) x) f'."""

    nu: float = 2.0
    mu: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.nu) and math.isfinite(self.mu)):
            raise InvalidArgumentError("operator parameters must be finite")


def apply_D_poly(poly: PolynomialRep, d: DOperatorParams = DOperatorParams()) -> PolynomialRep:
    """Exact coefficient-space image of a polynomial under the operator."""
    c = poly.coeffs
    m = c.size - 1
    out = np.zeros(m + 1)
    drift = d.mu - d.nu
    damp = d.nu + d.mu + 2.0
    for k in range(m):
        ck1 = (k + 1) * c[k + 1]  # first derivative coefficient
        out[k] += drift * ck1
        out[k + 1] -= damp * ck1
    for k in range(m - 1):
        ck2 = (k + 1) * (k + 2) * c[k + 2]  # second derivative coefficient
        out[k] += ck2
        out[k + 2] -= ck2
    return PolynomialRep(out)


def apply_D_func(f, d: DOperatorParams = DOperatorParams(), x=0.0) -> float:
    """Pointwise image of a function handle under the operator.

    Uses the handle's analytic derivatives when present, otherwise central
    differences with step 1e-5 (which additionally needs
    |x| <= 1 - 2e-5 so the stencil stays inside the interval).
    """
    x = float(x)
    if abs(x) > 1.0 - EPS_INTERIOR:
        raise InvalidArgumentError(f"point must satisfy |x| <= 1 - {EPS_INTERIOR:g}")
    fn = f.eval if hasattr(f, "eval") and not callable(f) else f
    have_analytic = getattr(f, "d1", None) is not None and getattr(f, "d2", None) is not None
    if have_analytic:
        f1 = float(f.d1(np.asarray(x)))
        f2 = float(f.d2(np.asarray(x)))
    else:
        h = max(1e-5, 1e-5 * (1.0 - x * x))
        if abs(x) + h > 1.0:
            raise InvalidArgumentError(
                "finite differences need |x| small enough for the stencil to stay in [-1, 1]"
            )
        fm, f0, fp = (float(fn(np.asarray(v))) for v in (x - h, x, x + h))
        f1 = (fp - fm) / (2.0 * h)
        f2 = (fp - 2.0 * f0 + fm) / (h * h)
    return (1.0 - x * x) * f2 + (d.mu - d.nu - (d.nu + d.mu + 2.0) * x) * f1


def fourier_jacobi_coeff(f, n, n_nodes: int = 64) -> float:
    """Expansion integral of f against P_n^{(2,2)} with weight (1-x^2)^2."""
    n, _, _ = _check_jacobi_args(n, 2, 2)
    rule = gauss_jacobi(int(n_nodes), 2.0, 2.0)
    vals = sample(f, rule.nodes)
    return ordered_sum(rule.weights * vals * jacobi_eval(n, 2, 2, rule.nodes))


def expand_in_jacobi(f, nmax, n_nodes: int = 256) -> np.ndarray:
    """Coefficients c_0..c_nmax with f ~ sum c_nu P_nu^{(2,2)} in the weighted sense."""
    nmax, _, _ = _check_jacobi_args(nmax, 2, 2)
    rule = gauss_jacobi(int(n_nodes), 2.0, 2.0)
    vals = sample(f, rule.nodes)
    basis = jacobi_matrix(nmax, rule.nodes)
    prods = np.cumsum(basis * (rule.weights * vals)[None, :], axis=1)[:, -1]
    h = np.array([jacobi_h(k) for k in range(nmax + 1)])
    return prods / h
