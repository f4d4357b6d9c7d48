"""Generalized translation operators and the associated smoothness modulus.

The asymmetric translation tau_y averages f along the rotated argument
R(x, z, y) against a sign-changing kernel B; its trigonometric form with
y = cos t carries the cos^-4(t/2) growth that shapes the modulus. The
symmetric operator uses the plain (1-z^2)^2 average and satisfies the
product formula on the Jacobi basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateReferenceError, EvaluationError, InvalidArgumentError
from .jacobi import jacobi_eval
from .quadrature import gauss_chebyshev
from .space import EPS_INTERIOR, SpaceParams, make_grid
from .quadrature import gauss_jacobi

__all__ = [
    "MultiplierTable",
    "compute_R",
    "kernel_B",
    "asym_translate",
    "asym_translate_t",
    "sym_translate",
    "multiplier_psi",
    "build_multiplier_table",
    "abs_rotation_average",
    "modulus",
]

_REFERENCE_POINTS = (0.15, 0.35, 0.55)
_REFERENCE_FLOOR = 1e-3


def _check_cube(x, z, y):
    for name, v in (("x", x), ("z", z), ("y", y)):
        v = np.asarray(v, dtype=float)
        if not np.all(np.isfinite(v)) or np.any(np.abs(v) > 1.0):
            raise InvalidArgumentError(f"{name} must lie in [-1, 1]")


def compute_R(x, z, y):
    """Rotated argument x y - z sqrt(1-x^2) sqrt(1-y^2), clipped to [-1, 1].

    The clip removes rounding excursions of a few ulp outside the interval
    so downstream evaluations never leave the domain.
    """
    _check_cube(x, z, y)
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    r = x * y - z * np.sqrt(1.0 - x * x) * np.sqrt(1.0 - y * y)
    out = np.clip(r, -1.0, 1.0)
    return float(out) if out.shape == () else out


def kernel_B(x, z, y):
    """Sign-changing translation kernel B_y(x, z)."""
    _check_cube(x, z, y)
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    sx = np.sqrt(1.0 - x * x)
    sy = np.sqrt(1.0 - y * y)
    r = np.clip(x * y - z * sx * sy, -1.0, 1.0)
    br = sx * y + z * x * sy + sx * (1.0 - y) * (1.0 - z * z)
    out = 2.0 * br * br - (1.0 - r * r)
    return float(out) if out.shape == () else out


def _unwrap(f):
    if callable(f):
        return f
    if hasattr(f, "eval"):
        return f.eval
    raise InvalidArgumentError("expected a callable or a function handle")


def _finite(vals, where):
    if not np.all(np.isfinite(vals)):
        flat = np.asarray(vals)
        idx = np.argmax(~np.isfinite(flat))
        node = float(np.asarray(where).ravel()[idx % np.asarray(where).size])
        raise EvaluationError(f"function is not finite near argument {node!r}", node=node)
    return vals


def _z_nodes(fn, quad_n: int) -> int:
    """Nodes of the z-rule: quad_n, capped at the exact d // 2 + 3 when fn declares a degree d."""
    degree = getattr(fn, "degree", None)
    if degree is None:
        return int(quad_n)
    return min(int(quad_n), degree // 2 + 3)


def _asym_core(fn, y: float, xs: np.ndarray, quad_n: int) -> np.ndarray:
    """tau_y f on a 1-d array of interior points, one Chebyshev z-rule.

    The kernel kb has degree 4 in z, so a polynomial fn of declared degree d
    is integrated exactly by the rule of _z_nodes(fn, quad_n) nodes; any
    other fn gets the full quad_n rule.
    """
    rule = gauss_chebyshev(_z_nodes(fn, quad_n))
    z = rule.nodes[None, :]
    x = xs[:, None]
    sx = np.sqrt(1.0 - x * x)
    sy = math.sqrt(max(1.0 - y * y, 0.0))
    r = np.clip(x * y - z * sx * sy, -1.0, 1.0)
    br = sx * y + z * x * sy + sx * (1.0 - y) * (1.0 - z * z)
    kb = 2.0 * br * br - (1.0 - r * r)
    fv = np.asarray(fn(r), dtype=float)
    if fv.shape != r.shape:
        fv = np.broadcast_to(fv, r.shape).astype(float)
    _finite(fv, r)
    integ = np.cumsum(rule.weights * kb * fv, axis=1)[:, -1]
    return 4.0 / (math.pi * (1.0 + y) ** 2) * integ / (1.0 - xs * xs)


def _check_y(y: float) -> float:
    y = float(y)
    if not math.isfinite(y) or y <= -1.0 or y > 1.0:
        raise InvalidArgumentError(f"translation parameter y must lie in (-1, 1], got {y!r}")
    return y


def asym_translate(f, y, x, quad_n: int = 128) -> float:
    """Asymmetric translation tau_y(f) at a single interior point x."""
    y = _check_y(y)
    x = float(x)
    if not abs(x) < 1.0:
        raise InvalidArgumentError(f"x must lie in (-1, 1), got {x!r}")
    return float(_asym_core(_unwrap(f), y, np.array([x]), quad_n)[0])


def asym_translate_t(f, t, x, quad_n: int = 128) -> float:
    """Trigonometric form: tau at y = cos t, defined for |t| < pi, even in t."""
    t = float(t)
    if not (math.isfinite(t) and abs(t) < math.pi):
        raise InvalidArgumentError(f"t must satisfy |t| < pi, got {t!r}")
    return asym_translate(f, math.cos(t), x, quad_n)


def _sym_core(fn, y: float, xs: np.ndarray, quad_n: int) -> np.ndarray:
    """Symmetric translation on a 1-d array of points, one Chebyshev z-rule.

    The weight (1-z^2)^2 has degree 4 in z, so a polynomial fn of declared
    degree d is integrated exactly by the rule of _z_nodes(fn, quad_n)
    nodes; any other fn gets the full quad_n rule.
    """
    rule = gauss_chebyshev(_z_nodes(fn, quad_n))
    z = rule.nodes[None, :]
    x = xs[:, None]
    sy = math.sqrt(max(1.0 - y * y, 0.0))
    r = np.clip(x * y - z * np.sqrt(1.0 - x * x) * sy, -1.0, 1.0)
    fv = np.asarray(fn(r), dtype=float)
    if fv.shape != r.shape:
        fv = np.broadcast_to(fv, r.shape).astype(float)
    _finite(fv, r)
    zz = 1.0 - rule.nodes[None, :] ** 2
    integ = np.cumsum(rule.weights * zz * zz * fv, axis=1)[:, -1]
    return 8.0 / (3.0 * math.pi) * integ


def sym_translate(f, y, x, quad_n: int = 128) -> float:
    """Symmetric translation with the (1-z^2)^2 average; product formula holds."""
    y = float(y)
    if not (math.isfinite(y) and abs(y) <= 1.0):
        raise InvalidArgumentError(f"y must lie in [-1, 1], got {y!r}")
    x = float(x)
    if abs(x) > 1.0:
        raise InvalidArgumentError(f"x must lie in [-1, 1], got {x!r}")
    return float(_sym_core(_unwrap(f), y, np.array([x]), quad_n)[0])


def multiplier_psi(n: int, y, quad_n: int = 128) -> float:
    """Expansion multiplier psi_n(y) of the asymmetric translation.

    Estimated as the median of tau_y(P_n)(x) / P_n(x) over fixed reference
    abscissae, skipping points where |P_n| falls below 1e-3. If every
    reference point is skipped the estimate is degenerate and an error is
    raised rather than returning a silent extrapolation.
    """
    y = _check_y(y)
    refs = np.array(_REFERENCE_POINTS)
    pv = np.asarray(jacobi_eval(int(n), 2, 2, refs), dtype=float)
    keep = np.abs(pv) >= _REFERENCE_FLOOR
    if not np.any(keep):
        raise DegenerateReferenceError(
            f"all reference points have |P_{n}| < {_REFERENCE_FLOOR:g}"
        )
    fn = lambda r: jacobi_eval(int(n), 2, 2, r)
    ratios = _asym_core(fn, y, refs[keep], quad_n) / pv[keep]
    return float(np.median(ratios))


@dataclass(frozen=True)
class MultiplierTable:
    """Table of psi_n(y) over degrees x translation amounts."""

    degrees: tuple
    ys: np.ndarray
    values: np.ndarray
    reference_points: tuple = _REFERENCE_POINTS

    def __post_init__(self):
        ys = np.asarray(self.ys, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        ys.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        if vals.shape != (len(self.degrees), ys.size):
            raise InvalidArgumentError("values must have shape (len(degrees), len(ys))")
        at_one = np.isclose(ys, 1.0, rtol=0.0, atol=0.0)
        if np.any(at_one) and np.any(np.abs(vals[:, at_one] - 1.0) > 1e-10):
            raise InvalidArgumentError("psi_n(1) must equal 1 to 1e-10")

    def value(self, n: int, y: float) -> float:
        i = self.degrees.index(int(n))
        j = int(np.argmin(np.abs(self.ys - y)))
        if abs(self.ys[j] - y) > 1e-12:
            raise InvalidArgumentError(f"y={y!r} is not tabulated")
        return float(self.values[i, j])


def build_multiplier_table(max_n: int, ys, quad_n: int = 128) -> MultiplierTable:
    """Tabulate psi_n(y) for n = 0..max_n over the given translation amounts."""
    ys = np.asarray(ys, dtype=float)
    vals = np.empty((max_n + 1, ys.size))
    for i, n in enumerate(range(max_n + 1)):
        for j, y in enumerate(ys):
            vals[i, j] = multiplier_psi(n, float(y), quad_n)
    return MultiplierTable(tuple(range(max_n + 1)), ys, vals)


def abs_rotation_average(f, t, xs, quad_n: int = 128) -> np.ndarray:
    """(1-x^2)^-1 Chebyshev average of (1-R^2) |f(R)| with R = x cos t - z sin t sqrt(1-x^2).

    This is the positive-kernel transform whose weighted norm stays
    uniformly controlled by the norm of f. It always uses the full quad_n
    rule: |f| is not a polynomial even when f declares a degree.
    """
    t = float(t)
    if not (math.isfinite(t) and 0.0 <= t <= math.pi):
        raise InvalidArgumentError(f"t must lie in [0, pi], got {t!r}")
    xs = np.asarray(xs, dtype=float)
    rule = gauss_chebyshev(int(quad_n))
    z = rule.nodes[None, :]
    x = xs[:, None]
    r = np.clip(x * math.cos(t) - z * np.sqrt(1.0 - x * x) * math.sin(t), -1.0, 1.0)
    fv = np.abs(np.asarray(_unwrap(f)(r), dtype=float))
    if fv.shape != r.shape:
        fv = np.broadcast_to(fv, r.shape).astype(float)
    _finite(fv, r)
    integ = np.cumsum(rule.weights * (1.0 - r * r) * fv, axis=1)[:, -1]
    return integ / (1.0 - xs * xs)


def modulus(
    f,
    delta,
    params: SpaceParams,
    t_points: int = 16,
    quad_n: int = 128,
    norm_nodes: int = 256,
) -> float:
    """Smoothness modulus sup_{0 <= t <= delta} of the weighted norm of tau_{cos t} f - f.

    The supremum is taken over the uniform grid t = delta k / t_points,
    k = 0..t_points; the k = 0 term is identically zero and skipped.
    """
    delta = float(delta)
    if not (math.isfinite(delta) and 0.0 <= delta < math.pi):
        raise InvalidArgumentError(f"delta must lie in [0, pi), got {delta!r}")
    if t_points < 1:
        raise InvalidArgumentError("t_points must be positive")
    if delta == 0.0:
        return 0.0
    if not isinstance(params, SpaceParams):
        params = SpaceParams(*params)
    fn = _unwrap(f)
    if params.is_sup:
        edge = 1.0 - EPS_INTERIOR
        xs = np.concatenate((make_grid(max(int(norm_nodes), 2)), [-edge, edge]))
        wts = (1.0 - xs * xs) ** params.alpha
        rule = None
    else:
        exponent = params.p * params.alpha
        if exponent <= -1.0:
            raise InvalidArgumentError("p * alpha must exceed -1 for an integrable weight")
        rule = gauss_jacobi(int(norm_nodes), exponent, exponent)
        xs = rule.nodes
    fx = np.asarray(fn(xs), dtype=float)
    if fx.shape != xs.shape:
        fx = np.broadcast_to(fx, xs.shape).astype(float)
    _finite(fx, xs)
    best = 0.0
    for k in range(1, int(t_points) + 1):
        t = delta * k / t_points
        gv = _asym_core(fn, math.cos(t), xs, quad_n) - fx
        if rule is None:
            val = float(np.max(np.abs(gv) * wts))
        else:
            val = float(np.cumsum(rule.weights * np.abs(gv) ** params.p)[-1] ** (1.0 / params.p))
        if val > best:
            best = val
    return best
