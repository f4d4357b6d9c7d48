"""Weighted Lebesgue spaces on [-1, 1] and their admissible parameter ranges.

The norm of f in L_{p,alpha} is the p-norm of f(x) (1-x^2)^alpha; for
p = inf it is the supremum of |f(x)| (1-x^2)^alpha. The parameter pairs
(p, alpha) for which the smoothness characterization holds form the
admissible set encoded in validate_params.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgumentError, _integer, _real
from .jacobi import PolynomialRep, expand_in_jacobi
from .quadrature import MAX_NODES, gauss_chebyshev, gauss_jacobi, sample

__all__ = [
    "EPS_INTERIOR",
    "NORM_NODES",
    "SpaceParams",
    "DiscreteNorm",
    "discrete_norm",
    "FunctionHandle",
    "Admissibility",
    "validate_params",
    "make_grid",
    "sample",
    "weighted_norm",
]

# Margin keeping grid evaluations away from the endpoint singularities.
EPS_INTERIOR = 1e-6
NORM_NODES = 256  # nodes of the norm rule: the default of every norm, modulus, K and E, and E's report rule


@dataclass(frozen=True)
class SpaceParams:
    """Integrability exponent p in [1, inf] and weight exponent alpha."""

    p: float
    alpha: float

    def __post_init__(self):
        p = _real(self.p, "p")
        alpha = _real(self.alpha, "alpha")
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
    params = SpaceParams(p, alpha)
    p, alpha = params.p, params.alpha
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
    """A function on [-1, 1], its values eval, with an optional degree and breaks.

    eval must accept numpy arrays of any shape and return matching shapes.
    A handle carries no derivatives: the package applies the second-order
    operator D to the (2,2) Jacobi coefficients of f, where it multiplies
    the k-th by -k(k+5).

    degree, when given, is a promise that eval is a polynomial of degree at
    most degree; with breaks, that it is one between each pair of adjacent
    breaks (and the ends), so a piecewise polynomial such as |x| declares
    degree=1, breaks=(0.0,). The translation kernels then integrate it
    exactly: their kernel has degree 4 in z and R is linear in z, so where
    R stays in one piece the integrand has degree degree + 4, and the
    Chebyshev z-rule of n = degree // 2 + 3 nodes is exact because
    degree + 4 <= 2n - 1; where R crosses a break the integral is split at
    the crossings and each panel integrated in closed form
    (translation._piecewise_points). A degree that is too low gives wrong
    translations, not an error; None (the default) selects the
    convergence-stopped rule. Only a FunctionHandle or a PolynomialRep
    declares a degree: a degree attribute of any other function is
    ignored. A degree with breaks is not a degree on all of [-1, 1]
    (_declared_degree): the exact (2,2) coefficients, the exact fit of
    best_approx and the multiplier moduli are only for a degree without
    breaks.

    best_approx and k_functional solve an f that is exactly even or odd on
    their rule on half of it. The test compares the values of eval at each
    pair of nodes x and -x exactly: np.power is not bitwise odd-symmetric,
    so an eval written x**3 is not folded, while x*x*x is.

    breaks lists the points of (-1, 1), in increasing order, where eval is
    not smooth (a kink or a jump). Without a degree, the convergence-stopped
    z-rule of the translation kernels splits its integral at each break
    that R crosses at the point, which keeps its convergence spectral on a
    piecewise-smooth function; where R crosses none, the point takes the
    break-free rule and gets the value of f declared without breaks.
    expand_in_jacobi splits its rule at every break.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    degree: Optional[int] = None
    breaks: tuple = ()

    def __post_init__(self):
        if self.degree is not None:
            _integer(self.degree, "degree", 0)
        if not isinstance(self.breaks, (tuple, list)):
            raise InvalidArgumentError(f"breaks must be a tuple or list, got {self.breaks!r}")
        breaks = tuple(_real(b, "breaks") for b in self.breaks)
        if not all(-1.0 < b < 1.0 for b in breaks):
            raise InvalidArgumentError(f"breaks must be finite numbers inside (-1, 1), got {breaks!r}")
        if any(a >= b for a, b in zip(breaks, breaks[1:])):
            raise InvalidArgumentError(f"breaks must be strictly increasing, got {breaks!r}")
        self.breaks = breaks

    def __call__(self, x):
        return self.eval(x)


def _piece_degree(f) -> Optional[int]:
    """The degree f declares between its breaks: that of a FunctionHandle or a PolynomialRep, else None (numpy's polynomials have a degree() method)."""
    return f.degree if isinstance(f, (FunctionHandle, PolynomialRep)) else None


def _declared_degree(f) -> Optional[int]:
    """The degree f declares on all of [-1, 1]: _piece_degree of an f without breaks, else None."""
    return None if getattr(f, "breaks", ()) else _piece_degree(f)


class _LastCall:
    """A one-entry memo: the _Prepared of the last f it was asked for.

    f matches by identity, and so does the eval a FunctionHandle holds, so
    a handle whose eval was reassigned misses; f's declared degree and its
    breaks match by value. The entry holds f and its eval, so their
    identities cannot be reused while it is kept. A function whose values
    change without any of these changing is not detected. The entry is one
    attribute, read once and replaced whole, and each _Prepared guards its
    state with its own lock: concurrent callers may build or sample twice,
    but never raise for it or get each other's value.
    """

    def __init__(self):
        self.clear()

    def clear(self):
        self._entry = None  # (key, value)

    def get(self, f) -> "_Prepared":
        """The kept _Prepared if the key matches, else a new one, kept as the one entry."""
        key = (f, f.eval if isinstance(f, FunctionHandle) else None, _piece_degree(f), tuple(getattr(f, "breaks", ())))
        entry = self._entry
        if entry is not None and entry[0][0] is f and entry[0][1] is key[1] and entry[0][2:] == key[2:]:
            return entry[1]
        self._entry = (key, _Prepared(f))
        return self._entry[1]


class _Prepared:
    """f made ready for best_approx, k_functional and modulus, which keep work across calls of one n or delta each.

    Called on the nodes of a rule, it gives f's values there, and so
    expand_in_jacobi takes them from it too. It holds f's declared degree,
    and one slot each for its exact (2,2) coefficients at that degree, the
    exact fit ("fit"), the n-free work of best_approx ("E"), the delta-free
    work of k_functional ("K"), the translations of modulus ("modulus")
    and, for an f with no declared degree, its chopped (2,2) series
    ("series", translation._series), each keyed by its own settings and
    replaced whole when they change. f is sampled once per rule: the samples that the build of a slot takes
    are kept while the slot lives, and shared by every slot. Every call
    gives bitwise the result of a cold one.

    lock, reentrant since a build may build another slot, covers the
    samples, the slots and the state that their values keep across calls
    (_Translates.moduli, the last solve of "E"). It is taken before
    jacobi_matrix's row lock, never after.
    """

    def __init__(self, f):
        self.f = f
        self.degree = _declared_degree(f)
        self.breaks = tuple(getattr(f, "breaks", ()))  # read by expand_in_jacobi
        self.lock = threading.RLock()
        self._samples = {}  # the bytes of a rule's nodes -> f's values there
        self._slots = {}  # name -> (settings, value, the keys of the samples its build took)
        self._taken = set()  # the keys of the samples taken by the build under way, or outside any build

    def __call__(self, nodes):
        """f at the nodes of a rule, sampled once while a slot takes them."""
        key = nodes.tobytes()
        with self.lock:
            fv = self._samples.get(key)
            if fv is None:
                fv = self._samples[key] = sample(self.f, nodes)
            self._taken.add(key)
        return fv

    def coefficients(self):
        """The exact (2,2) coefficients of f at its declared degree d, from the unsplit (d + 1)-node rule, kept in a slot; None without one."""
        if self.degree is not None:
            # the bound __call__ has no breaks, at which expand_in_jacobi would split the rule
            return self.slot("coefficients", None, lambda: expand_in_jacobi(self.__call__, self.degree, n_nodes=self.degree + 1))

    def slot(self, name, settings, build):
        """The value of the slot name if built for settings, else build(), kept there.

        The old value goes before build() runs, and its samples stay for
        build() to take; then the samples that no slot, no build under way
        and no caller outside a build took are dropped. A build may build
        another slot.
        """
        with self.lock:
            kept = self._slots.get(name)
            if kept is not None and kept[0] == settings:
                return kept[1]
            self._slots.pop(name, None)
            outer, self._taken = self._taken, set()
            value = build()
            self._slots[name], self._taken = (settings, value, self._taken), outer
            live = outer.union(*(taken for _, _, taken in self._slots.values()))
            self._samples = {key: fv for key, fv in self._samples.items() if key in live}
            return value


# the prepared function of the last f asked for: the package's one memo
_PREPARED = _LastCall()
_prepared = _PREPARED.get


def make_grid(n: int) -> np.ndarray:
    """Chebyshev-type evaluation grid of n points, clamped to |x| <= 1 - 1e-6.

    The points are the nodes of gauss_chebyshev(n), 2 <= n <= 4096:
    ascending and exactly symmetric about 0.
    """
    n = _integer(n, "grid size", 2, MAX_NODES)
    return np.clip(gauss_chebyshev(n).nodes, -(1.0 - EPS_INTERIOR), 1.0 - EPS_INTERIOR)


def _as_params(params) -> SpaceParams:
    """params as a SpaceParams, if it is one or a (p, alpha) tuple or list."""
    if isinstance(params, SpaceParams):
        return params
    if not (isinstance(params, (tuple, list)) and len(params) == 2):
        raise InvalidArgumentError(f"params must be a SpaceParams or a (p, alpha) pair, got {params!r}")
    return SpaceParams(*params)


def _check_delta(d, name: str = "delta", below_pi: bool = False) -> float:
    """d as a float, if it is a real number (not a bool) in [0, inf), or in [0, pi) when below_pi."""
    d = _real(d, name)
    if not (math.isfinite(d) and 0.0 <= d < (math.pi if below_pi else math.inf)):
        raise InvalidArgumentError(f"{name} must be finite and lie in [0, {'pi' if below_pi else 'inf'}), got {d!r}")
    return d


@dataclass(frozen=True)
class DiscreteNorm:
    """The L_{p,alpha} norm of values v at fixed nodes; built by discrete_norm.

    For finite p it is (ordered sum of weights |v|^p)^(1/p), the weights
    absorbing (1-x^2)^(p alpha); for p = inf it is max weights |v|, the
    weights being (1-x^2)^alpha. Where that sum underflows or overflows
    (large p) and v is not zero, it is taken of v / max|v|, and the norm
    scaled back by max|v|.
    """

    p: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __call__(self, vals) -> float:
        # ndarray methods and no power at p = 1: the K solvers call this in
        # their inner loops, where np.max, np.cumsum and ** 1.0 cost
        # measurable time
        if self.p == math.inf:
            return float((np.abs(vals) * self.weights).max())
        a = np.abs(vals)
        with np.errstate(over="ignore"):
            s = float((self.weights * (a if self.p == 1.0 else a**self.p)).cumsum()[-1])
        return self._root(s, a)

    def _root(self, s, a) -> float:
        """The norm from the ordered sum s of the weighted |v|^p, a = |v|, rescaled where s is not a normal float."""
        if not sys.float_info.min <= s < math.inf:
            m = float(a.max())
            if 0.0 < m < math.inf and m != 1.0:
                return m * self(a / m)  # max(a / m) is 1: the sum is at least the weight of its node
        return s if self.p == 1.0 else s ** (1.0 / self.p)

    def rows(self, vals) -> list:
        """The norm of each row of the 2-d array vals, bitwise [self(v) for v in vals], in one pass over the array."""
        a = np.abs(vals)
        if self.p == math.inf:
            return (a * self.weights).max(axis=-1).tolist()
        with np.errstate(over="ignore"):
            sums = (self.weights * (a if self.p == 1.0 else a**self.p)).cumsum(axis=-1)[:, -1]
        return [self._root(s, row) for s, row in zip(sums.tolist(), a)]


def discrete_norm(params, n_nodes: int) -> DiscreteNorm:
    """The norm of L_{p,alpha} discretised on n_nodes nodes.

    For finite p the weight (1-x^2)^(p alpha) is absorbed into an
    n_nodes-point Gauss-Jacobi rule, which requires p * alpha > -1. For
    p = inf the nodes are make_grid(max(n_nodes, 2)) and +-(1 - 1e-6).
    n_nodes must be an integer in [1, MAX_NODES] for either kind of p.
    """
    # a non-integer or n_nodes < 1 is named as not a positive integer, a
    # count past MAX_NODES by the range, at either kind of p
    n_nodes = _integer(_integer(n_nodes, "node count", 1), "node count", 1, MAX_NODES)
    params = _as_params(params)
    if params.is_sup:
        edge = 1.0 - EPS_INTERIOR
        x = np.concatenate((make_grid(max(n_nodes, 2)), [-edge, edge]))
        return DiscreteNorm(params.p, x, (1.0 - x * x) ** params.alpha)
    exponent = params.p * params.alpha
    if exponent <= -1.0:
        raise InvalidArgumentError(f"p * alpha must exceed -1 for an integrable weight, got {exponent:g}")
    rule = gauss_jacobi(n_nodes, exponent)
    return DiscreteNorm(params.p, rule.nodes, rule.weights)


def weighted_norm(f, params: SpaceParams, n_nodes: int = NORM_NODES) -> float:
    """Norm of f in L_{p,alpha}: discrete_norm(params, n_nodes) of the values of f at its nodes."""
    norm = discrete_norm(params, n_nodes)
    return norm(sample(f, norm.nodes))
