"""Generalized translation operators and the associated smoothness modulus.

The asymmetric translation tau_y averages f along the rotated argument
R(x, z, y) against a sign-changing kernel B; its trigonometric form with
y = cos t carries the cos^-4(t/2) growth that shapes the modulus. The
symmetric operator uses the plain (1-z^2)^2 average and satisfies the
product formula on the Jacobi basis.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError
from .jacobi import jacobi_eval
from .quadrature import _as_callable, gauss_chebyshev, sample
from .space import SpaceParams, _positive_int, discrete_norm

__all__ = [
    "compute_R",
    "kernel_B",
    "asym_translate",
    "sym_translate",
    "multiplier_psi",
    "abs_rotation_average",
    "modulus",
]


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


# The convergence-stopped z-rule stops once two successive levels agree to
# this multiple of the integral of |integrand|: a rounding-level target.
_Z_RTOL = 1e-14
# Intervals per panel at the first level of the convergence-stopped z-rule.
_Z_START = 8


def _z_nodes(fn, quad_n: int) -> int:
    """Nodes of the z-rule: quad_n, capped at the exact d // 2 + 3 when fn declares a degree d."""
    degree = getattr(fn, "degree", None)
    if degree is None:
        return int(quad_n)
    return min(int(quad_n), degree // 2 + 3)


@lru_cache(maxsize=64)
def _nested_rule(kind: str, n: int):
    """Abscissae s_j and weights on [-1, 1] of a rule with n intervals, j = 0..n.

    "trapezoid" has s_j = 1 - 2j/n, "clenshaw-curtis" s_j = cos(j pi / n).
    Both are nested: the rule with 2n intervals has the n-interval
    abscissae at its even indices.
    """
    j = np.arange(n + 1)
    if kind == "trapezoid":
        s = 1.0 - 2.0 * j / n
        w = np.full(n + 1, 2.0 / n)
        w[[0, -1]] = 1.0 / n
    else:
        k = np.arange(1, n // 2 + 1)
        b = np.where(2 * k == n, 1.0, 2.0)
        c = np.where((j == 0) | (j == n), 1.0, 2.0)
        s = np.cos(j * math.pi / n)
        w = c / n * (1.0 - np.cos(2.0 * np.outer(j, k) * math.pi / n) @ (b / (4.0 * k * k - 1.0)))
    s.setflags(write=False)
    w.setflags(write=False)
    return s, w


def _panels(x, y, breaks):
    """Centre and half-width in theta = arccos z of each panel, shape (len(x), P, 1), for points (x, y).

    R is linear in z, so break b is crossed at
    z* = (x y - b) / (sqrt(1-x^2) sqrt(1-y^2)); the panels run between 0,
    the crossings theta* = arccos z* and pi. A break that R does not cross
    leaves an empty panel at 0 or pi.
    """
    x = x[:, None]
    y = y[:, None]
    den = np.sqrt(1.0 - x * x) * np.sqrt(np.maximum(1.0 - y * y, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        zs = np.where(den > 0.0, (x * y - np.asarray(breaks)) / den, 1.0)
    theta = np.arccos(np.clip(zs, -1.0, 1.0))
    shape = (theta.shape[0], 1)
    edges = np.concatenate((np.zeros(shape), theta, np.full(shape, math.pi)), axis=-1)
    return (
        ((edges[:, 1:] + edges[:, :-1]) / 2.0)[..., None],
        ((edges[:, 1:] - edges[:, :-1]) / 2.0)[..., None],
    )


def _exact_integral(fn, kernel, ys, xs, quad_n, nodes):
    """z-integral of kernel * f(R) by the Gauss-Chebyshev rule of nodes nodes, shape (len(ys), len(xs)).

    Rows of y are taken in chunks whose arrays hold at most
    len(xs) * quad_n elements; each element goes through the same
    operations in the same order as a call with a scalar y.
    """
    rule = gauss_chebyshev(nodes)
    z = rule.nodes
    x = xs[None, :, None]
    sx = np.sqrt(1.0 - x * x)
    out = np.empty((ys.size, xs.size))
    chunk = max(1, int(quad_n) // nodes)
    for lo in range(0, ys.size, chunk):
        y = ys[lo : lo + chunk, None, None]
        sy = np.sqrt(np.maximum(1.0 - y * y, 0.0))
        r = np.clip(x * y - z * sx * sy, -1.0, 1.0)
        kw = kernel(rule.weights, x, sx, y, sy, z, r)
        out[lo : lo + chunk] = np.cumsum(kw * sample(fn, r), axis=-1)[..., -1]
    return out


def _dot(a, w):
    """Sum of a times w over the last axis of a.

    Unlike a BLAS matrix-vector product, einsum rounds each row the same
    way wherever it lies in a, so a point's value does not depend on the
    other points of its chunk.
    """
    return np.einsum("...j,j->...", a, w)


def _nested_integral(fn, kernel, ys, xs, quad_n, breaks):
    """z-integral of kernel * f(R) by a nested rule stopped at convergence, shape (len(ys), len(xs)).

    With z = cos theta the z-integral is a theta-integral over [0, pi]. One
    panel takes the trapezoid rule in theta (Gauss-Chebyshev-Lobatto in z,
    exact to degree 2n - 1); with breaks, each panel takes a Clenshaw-Curtis
    rule in theta. Every (y, x) pair is a point of its own. The rule starts
    at _Z_START intervals per panel and doubles, reusing every sample. A
    point stops when two successive levels agree to _Z_RTOL times its
    integral of |integrand|, or when the next level would have more than
    quad_n intervals in all. Points are taken in chunks whose arrays hold
    at most len(xs) * quad_n elements, and only unconverged points go on to
    the next level.
    """
    kind = "clenshaw-curtis" if breaks else "trapezoid"
    npanel = len(breaks) + 1
    cap = max(int(quad_n) // npanel, 1)
    budget = xs.size * int(quad_n)
    x_all = np.tile(xs, ys.size)
    y_all = np.repeat(ys, xs.size)
    out = np.empty(x_all.size)
    # points, intervals per panel, their samples at the previous level, and
    # the previous estimate
    work = [(np.arange(out.size), min(_Z_START, cap), None, None)]
    while work:
        pts, n, old, prev = work.pop()
        last = 2 * n > cap
        # samples per point taken at this level, and kept for the next one
        new_cols = npanel * (n + 1 if old is None else n // 2)
        kept_cols = 0 if last else npanel * (n + 1)
        chunk = max(1, budget // max(new_cols, kept_cols))
        if pts.size > chunk:
            for lo in reversed(range(0, pts.size, chunk)):
                part = slice(lo, lo + chunk)
                work.append((pts[part], n, None if old is None else old[part], None if prev is None else prev[part]))
            continue
        x = x_all[pts, None, None]
        y = y_all[pts, None, None]
        sx = np.sqrt(1.0 - x * x)
        sy = np.sqrt(np.maximum(1.0 - y * y, 0.0))
        s, w = _nested_rule(kind, n)
        if old is not None:
            s = s[1::2]
        if breaks:
            centre, half = _panels(x_all[pts], y_all[pts], breaks)
            z = np.cos(centre + half * s)
            half = half[..., 0]
        else:
            # one panel, [0, pi], the same for every point
            z = np.cos(math.pi / 2.0 + math.pi / 2.0 * s)
            half = math.pi / 2.0
        r = np.clip(x * y - z * sx * sy, -1.0, 1.0)
        g = kernel(1.0, x, sx, y, sy, z, r) * sample(fn, r)
        est = np.sum(half * (_dot(g, w) if old is None else _dot(old, w[::2]) + _dot(g, w[1::2])), axis=-1)
        done = np.full(pts.size, last)
        if old is not None and not last:
            size = np.sum(half * (_dot(np.abs(old), w[::2]) + _dot(np.abs(g), w[1::2])), axis=-1)
            done = np.abs(est - prev) <= _Z_RTOL * size
        out[pts[done]] = est[done]
        more = ~done
        if np.any(more):
            if old is None:
                samples = g[more]
            else:
                samples = np.empty((int(np.sum(more)),) + g.shape[1:-1] + (n + 1,))
                samples[..., ::2] = old[more]
                samples[..., 1::2] = g[more]
            work.append((pts[more], 2 * n, samples, est[more]))
    return out.reshape(ys.size, xs.size)


def _z_integral(fn, kernel, y, xs, quad_n):
    """z-integral of kernel * f(R) for each y: (len(y), len(xs)) for a 1-d y, (len(xs),) for a scalar."""
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    if getattr(fn, "degree", None) is not None:
        out = _exact_integral(fn, kernel, ys, xs, quad_n, _z_nodes(fn, quad_n))
    else:
        out = _nested_integral(fn, kernel, ys, xs, quad_n, tuple(getattr(fn, "breaks", ())))
    return out[0] if np.ndim(y) == 0 else out


def _asym_kernel(w, x, sx, y, sy, z, r):
    br = sx * y + z * x * sy + sx * (1.0 - y) * (1.0 - z * z)
    return w * (2.0 * br * br - (1.0 - r * r))


def _sym_kernel(w, x, sx, y, sy, z, r):
    zz = 1.0 - z * z
    return w * zz * zz


def _asym_core(fn, y, xs: np.ndarray, quad_n: int) -> np.ndarray:
    """tau_y f on a 1-d array of interior points, for a scalar y or a 1-d array of y.

    The kernel kb has degree 4 in z, so a polynomial fn of declared degree d
    is integrated exactly by the Chebyshev rule of _z_nodes(fn, quad_n)
    nodes; any other fn gets the nested rule of _nested_integral, with
    quad_n as its cap. A 1-d y gives shape (len(y), len(xs)).
    """
    scale = [4.0 / (math.pi * (1.0 + v) ** 2) for v in np.atleast_1d(y).tolist()]
    return np.reshape(scale, np.shape(y) + (1,)) * _z_integral(fn, _asym_kernel, y, xs, quad_n) / (1.0 - xs * xs)


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
    quad_n = _positive_int(quad_n, "quad_n")
    return float(_asym_core(_as_callable(f), y, np.array([x]), quad_n)[0])


def _sym_core(fn, y, xs: np.ndarray, quad_n: int) -> np.ndarray:
    """Symmetric translation on a 1-d array of points, for a scalar y or a 1-d array of y.

    The weight (1-z^2)^2 has degree 4 in z, so a polynomial fn of declared
    degree d is integrated exactly by the Chebyshev rule of
    _z_nodes(fn, quad_n) nodes; any other fn gets the nested rule of
    _nested_integral, with quad_n as its cap. A 1-d y gives shape
    (len(y), len(xs)).
    """
    return 8.0 / (3.0 * math.pi) * _z_integral(fn, _sym_kernel, y, xs, quad_n)


def sym_translate(f, y, x, quad_n: int = 128) -> float:
    """Symmetric translation with the (1-z^2)^2 average; product formula holds."""
    y = float(y)
    if not (math.isfinite(y) and abs(y) <= 1.0):
        raise InvalidArgumentError(f"y must lie in [-1, 1], got {y!r}")
    x = float(x)
    if abs(x) > 1.0:
        raise InvalidArgumentError(f"x must lie in [-1, 1], got {x!r}")
    quad_n = _positive_int(quad_n, "quad_n")
    return float(_sym_core(_as_callable(f), y, np.array([x]), quad_n)[0])


def multiplier_psi(n: int, y) -> float:
    """Expansion multiplier psi_n(y) = P_n^{(0,4)}(y) / P_n^{(0,4)}(1) of the asymmetric translation.

    tau_y P_n^{(2,2)} = psi_n(y) P_n^{(2,2)} for every y in (-1, 1]: the
    Jacobi convolution structure of Gasper (Ann. of Math. 93, 1971). The
    value comes from the three-term recurrence of jacobi_eval.
    """
    return jacobi_eval(n, 0, 4, _check_y(y))


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
    rule = gauss_chebyshev(_positive_int(quad_n, "quad_n"))
    z = rule.nodes[None, :]
    x = xs[:, None]
    r = np.clip(x * math.cos(t) - z * np.sqrt(1.0 - x * x) * math.sin(t), -1.0, 1.0)
    fv = np.abs(sample(f, r))
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
    k = 0..t_points; the k = 0 term is identically zero and skipped. Each
    norm is discrete_norm(params, norm_nodes) of tau_{cos t} f - f at its
    nodes. t_points and quad_n must be positive integers. Over a grid of
    deltas, _moduli gives the same values and translates f once per
    distinct y.
    """
    delta = float(delta)
    if not (math.isfinite(delta) and 0.0 <= delta < math.pi):
        raise InvalidArgumentError(f"delta must lie in [0, pi), got {delta!r}")
    t_points = _positive_int(t_points, "t_points")
    quad_n = _positive_int(quad_n, "quad_n")
    return _moduli(f, [delta], params, t_points, quad_n, norm_nodes)[0]


def _moduli(f, deltas, params: SpaceParams, t_points: int, quad_n: int, norm_nodes: int) -> list:
    """modulus(f, delta, ...) for each delta, by one _asym_core call over the distinct y of all grids.

    A y = cos(delta k / t_points) that several deltas share, as the same float, is translated once.
    """
    grids = [[math.cos(d * k / t_points) for k in range(1, t_points + 1)] if d != 0.0 else [] for d in deltas]
    ys = sorted({y for grid in grids for y in grid})
    if not ys:
        return [0.0] * len(grids)
    norm = discrete_norm(params, norm_nodes)
    fn = _as_callable(f)
    fx = sample(fn, norm.nodes)
    by_y = dict(zip(ys, (norm(gv) for gv in _asym_core(fn, np.array(ys), norm.nodes, quad_n) - fx)))
    return [max([0.0] + [by_y[y] for y in grid]) for grid in grids]
