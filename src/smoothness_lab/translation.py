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
from numpy.polynomial import chebyshev as ncheb

from .errors import InvalidArgumentError, _integer, _real, _reals
from .jacobi import _cheb_interp, _plateau_cut, expand_in_jacobi, jacobi_eval, jacobi_matrix
from .quadrature import _as_callable, gauss_chebyshev, sample
from .space import NORM_NODES, SpaceParams, _as_params, _check_delta, _piece_degree, _prepared, discrete_norm

__all__ = [
    "compute_R",
    "kernel_B",
    "multiplier_psi",
    "abs_rotation_average",
    "modulus",
]


def _check_cube(x, z, y):
    """x, z and y as float arrays, each checked to lie in [-1, 1], and together to broadcast to one shape."""
    arrays = tuple(_reals(v, name, 0.0) for name, v in zip("xzy", (x, z, y)))
    try:
        np.broadcast_shapes(*(v.shape for v in arrays))
    except ValueError:
        raise InvalidArgumentError(f"x, z and y must broadcast to one shape, got {', '.join(str(v.shape) for v in arrays)}") from None
    return arrays


def compute_R(x, z, y):
    """Rotated argument x y - z sqrt(1-x^2) sqrt(1-y^2), clipped to [-1, 1].

    The clip removes rounding excursions of a few ulp outside the interval
    so downstream evaluations never leave the domain.
    """
    x, z, y = _check_cube(x, z, y)
    out = _rotation(x, z, y)[2]
    return float(out) if out.shape == () else out


def kernel_B(x, z, y):
    """Sign-changing translation kernel B_y(x, z), the kernel of the asymmetric translation (_asym_kernel)."""
    x, z, y = _check_cube(x, z, y)
    sx, sy, r = _rotation(x, z, y)
    out = _asym_kernel(1.0, x, sx, y, sy, z, r)
    return float(out) if out.shape == () else out


def _rotation(x, z, y):
    """sqrt(1-x^2), sqrt(1-y^2) and R = x y - z sqrt(1-x^2) sqrt(1-y^2), clipped to [-1, 1], of broadcastable arrays."""
    sx = np.sqrt(1.0 - x * x)
    sy = np.sqrt(np.maximum(1.0 - y * y, 0.0))
    return sx, sy, np.clip(x * y - z * sx * sy, -1.0, 1.0)


# The convergence-stopped z-rule stops once two successive levels agree to
# this multiple of the integral of |integrand|: a rounding-level target.
_Z_RTOL = 1e-14
# ... or once the error extrapolated from its last two differences is below
# this share of that target (_nested_points).
_Z_EXTRAPOLATED = 0.1
# Intervals per panel at the first level of the convergence-stopped z-rule.
_Z_START = 8
# Most elements per array of the z-rule, which takes its points in chunks.
_CHUNK = 2**15
T_POINTS = 16  # steps of the t grid on which modulus takes its supremum, by default


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


def _crossing(x, y, breaks):
    """z* = (x y - b) / (sqrt(1-x^2) sqrt(1-y^2)) of each break b, shape (len(x), len(breaks)).

    R is linear in z, so it takes the value b at z = z* and crosses b
    inside (-1, 1) exactly when |z*| < 1. Where sqrt(1-y^2) is 0, R is x
    for every z and z* reads 1: no crossing.
    """
    x = x[:, None]
    y = y[:, None]
    den = np.sqrt(1.0 - x * x) * np.sqrt(np.maximum(1.0 - y * y, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, (x * y - np.asarray(breaks)) / den, 1.0)


def _edges(x, y, breaks):
    """0, the crossings theta* = arccos z* of the breaks (_crossing, clipped to [-1, 1]) and pi, for points (x, y): shape (len(x), len(breaks) + 2).

    They are the edges in theta = arccos z of the panels between which R
    crosses the breaks; a break that R does not cross at the point gives
    theta* = 0 or pi, and an empty panel.
    """
    theta = np.arccos(np.clip(_crossing(x, y, breaks), -1.0, 1.0))
    shape = (theta.shape[0], 1)
    return np.concatenate((np.zeros(shape), theta, np.full(shape, math.pi)), axis=-1)


def _panels(x, y, breaks):
    """Centre and half-width in theta = arccos z of each panel (_edges), shape (len(x), len(breaks) + 1, 1), for points (x, y).

    Every break must be crossed by R at every point, or its panel is
    empty: _nested_points passes each point only the breaks it crosses.
    """
    edges = _edges(x, y, breaks)
    return (
        ((edges[:, 1:] + edges[:, :-1]) / 2.0)[..., None],
        ((edges[:, 1:] - edges[:, :-1]) / 2.0)[..., None],
    )


def _z_points(fn, kernel, y_all, x_all, quad_n, pieces=None):
    """z-integral of kernel * f(R) at the points (y_all[i], x_all[i]), and whether each point's value depends on quad_n.

    The one place that picks the z-rule. The kernels have degree 4 in z,
    so an fn of declared degree d between its breaks (_piece_degree) is
    integrated exactly: a point whose R crosses no break takes the
    Gauss-Chebyshev rule of min(quad_n, d // 2 + 3) nodes, and a point
    that crosses one takes _piecewise_points. Only a rule that quad_n cut
    below d // 2 + 3 nodes depends on quad_n. Any other fn takes the
    nested rule of _nested_points, with cap quad_n, whose capped points
    are those that depend on it. pieces, if given, is _pieces of fn, which
    a caller that translates fn many times takes once.
    """
    degree = _piece_degree(fn)
    if degree is None:
        return _nested_points(fn, kernel, y_all, x_all, quad_n)
    nodes = min(int(quad_n), degree // 2 + 3)
    capped = np.full(x_all.size, nodes < degree // 2 + 3)
    breaks = tuple(getattr(fn, "breaks", ()))
    if not breaks:
        return _exact_points(fn, kernel, y_all, x_all, nodes), capped
    crossed = np.any(np.abs(_crossing(x_all, y_all, breaks)) < 1.0, axis=1)
    free = ~crossed
    out = np.empty(x_all.size)
    out[free] = _exact_points(fn, kernel, y_all[free], x_all[free], nodes)
    if pieces is None:
        pieces = _pieces(fn, degree, breaks)
    out[crossed] = _piecewise_points(kernel, y_all[crossed], x_all[crossed], pieces)
    capped[crossed] = False
    return out, capped


def _exact_points(fn, kernel, y_all, x_all, nodes):
    """z-integral of kernel * f(R) at the points (y_all[i], x_all[i]) by the Gauss-Chebyshev rule of nodes nodes.

    Points are taken in chunks whose arrays hold at most _CHUNK elements;
    each element goes through the same operations in the same order
    whatever its chunk, so the values do not depend on the chunks.
    """
    rule = gauss_chebyshev(nodes)
    z = rule.nodes
    out = np.empty(x_all.size)
    chunk = max(1, _CHUNK // nodes)
    for lo in range(0, x_all.size, chunk):
        x = x_all[lo : lo + chunk, None]
        y = y_all[lo : lo + chunk, None]
        sx, sy, r = _rotation(x, z, y)
        kw = kernel(rule.weights, x, sx, y, sy, z, r)
        out[lo : lo + chunk] = np.cumsum(kw * sample(fn, r), axis=-1)[..., -1]
    return out


def _pieces(fn, degree, breaks):
    """The breaks of fn, the centre and half-width of each piece between them, and fn's Chebyshev coefficients there, column i for piece i.

    fn is a polynomial of degree degree on each piece, in the variable
    t = (x - centre) / half-width; it is sampled at the degree + 1
    Chebyshev points in t of every piece in one call, and its
    interpolants there (_cheb_interp) are exact.
    """
    edges = np.array((-1.0,) + tuple(breaks) + (1.0,))
    centre, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    t = gauss_chebyshev(degree + 1).nodes[:, None]
    return tuple(breaks), centre, half, _cheb_interp(sample(fn, centre + half * t))


def _piecewise_points(kernel, y_all, x_all, pieces):
    """z-integral of kernel * f(R) at points (y_all[i], x_all[i]) whose R crosses a break of f, a polynomial of degree d between its breaks given by _pieces.

    With z = cos theta the integral runs over [0, pi], along which R
    increases; the crossings of the breaks split it into one panel per
    piece (_edges; a break that R does not cross leaves an empty panel),
    panel i holding the theta where R lies in piece i. There the
    integrand is the kernel times the piece's polynomial p_i(R), of degree
    d + 4 in z, so its Chebyshev coefficients come exactly from its values
    g_ij at the n = d + 5 Chebyshev points z_j, and the integral of
    T_k(cos theta) is sin(k theta) / k (theta for k = 0). The panel's
    integral is sum_j g_ij (W_j(theta_{i+1}) - W_j(theta_i)), with
    W_j(theta) = (2 / n) (theta / 2 + sum_{k=1}^{n-1} T_k(z_j) sin(k theta) / k).
    f is sampled only by _pieces. Points are taken in chunks, and each
    point's sums run over its own row (np.einsum), so its value does not
    depend on its chunk.
    """
    breaks, centre, half, coeffs = pieces
    centre, half = centre[:, None], half[:, None]
    n = coeffs.shape[0] + 4  # d + 5
    coeffs = coeffs[..., None]  # coefficient k of piece i at [k, i, 0]
    z = gauss_chebyshev(n).nodes
    cheb = ncheb.chebvander(z, n - 1)  # T_k(z_j) at [j, k]
    k = np.arange(1.0, n)
    out = np.empty(x_all.size)
    chunk = max(1, _CHUNK // ((len(breaks) + 2) * n))
    for lo in range(0, x_all.size, chunk):
        x, y = x_all[lo : lo + chunk], y_all[lo : lo + chunk]
        theta = _edges(x, y, breaks)[..., None]
        # theta / 2 and sin(k theta) / k at each edge: (n / 2) W_j(theta) before the sum over k
        antider = np.concatenate((theta / 2.0, np.sin(theta * k) / k), axis=-1)
        weights = (2.0 / n) * np.einsum("pik,jk->pij", antider[:, 1:] - antider[:, :-1], cheb)
        x, y = x[:, None, None], y[:, None, None]
        sx, sy, r = _rotation(x, z, y)
        g = kernel(1.0, x, sx, y, sy, z, r) * ncheb.chebval((r - centre) / half, coeffs, tensor=False)
        out[lo : lo + chunk] = np.einsum("pij,pij->p", g, weights)
    return out


def _dot(a, w):
    """Sum of a times w over the last axis of a.

    Unlike a BLAS matrix-vector product, einsum rounds each row the same
    way wherever it lies in a, so a point's value does not depend on the
    other points of its chunk.
    """
    return np.einsum("...j,j->...", a, w)


def _nested_points(fn, kernel, y_all, x_all, quad_n):
    """z-integral of kernel * f(R) at the points (y_all[i], x_all[i]), and whether each point reached the cap.

    With z = cos theta the z-integral is a theta-integral over [0, pi].
    The points are grouped by the breaks of fn (FunctionHandle.breaks) that
    R actually crosses there (_crossing). A point that crosses none has a
    smooth, even and 2 pi-periodic integrand in theta and takes one panel
    with the trapezoid rule (Gauss-Chebyshev-Lobatto in z, exact to degree
    2n - 1): bitwise the value of the same f declared without breaks. A
    point that crosses k breaks takes k + 1 panels, split at the crossings,
    each with a Clenshaw-Curtis rule in theta. The rule starts at _Z_START
    intervals per panel and doubles, reusing every sample; the estimates
    I_{n/2} and I_{n/4} of the first level come from its even samples. A
    point stops when, with d = |I_n - I_{n/2}| and S its integral of
    |integrand|:

    - d <= _Z_RTOL S (two levels agree), or
    - d^2 <= _Z_EXTRAPOLATED _Z_RTOL S |I_{n/2} - I_{n/4}| and d <= 1e-6 S:
      the error of I_n extrapolated from the last two differences, as for a
      geometrically convergent rule (Trefethen & Weideman, SIAM Review 56,
      2014), is below _Z_EXTRAPOLATED _Z_RTOL S;

    or when the next level would have more than quad_n intervals in all: it
    then ends capped, the only points whose value depends on quad_n. Points
    are taken in chunks whose arrays hold at most _CHUNK elements, and only
    unconverged points go on to the next level; _dot makes each point's
    value independent of its chunk.
    """
    breaks = tuple(getattr(fn, "breaks", ()))
    out = np.empty(x_all.size)
    capped = np.zeros(x_all.size, dtype=bool)
    crossed = np.abs(_crossing(x_all, y_all, breaks)) < 1.0
    patterns, group = np.unique(crossed, axis=0, return_inverse=True)
    group = group.ravel()
    # points, the breaks they cross, intervals per panel, their samples at
    # the previous level, and the estimates I_{n/2} and I_{n/4} of the
    # previous level
    work = []
    for k, pattern in enumerate(patterns):
        cut = tuple(b for b, c in zip(breaks, pattern) if c)
        work.append((np.flatnonzero(group == k), cut, min(_Z_START, _z_cap(quad_n, cut)), None, None, None))
    while work:
        pts, cut, n, old, prev, prev2 = work.pop()
        npanel = len(cut) + 1
        last = 2 * n > _z_cap(quad_n, cut)
        # samples per point taken at this level, and kept for the next one
        new_cols = npanel * (n + 1 if old is None else n // 2)
        kept_cols = 0 if last else npanel * (n + 1)
        chunk = max(1, _CHUNK // max(new_cols, kept_cols))
        if pts.size > chunk:
            for lo in reversed(range(0, pts.size, chunk)):
                part = slice(lo, lo + chunk)
                work.append((pts[part], cut, n) + tuple(None if a is None else a[part] for a in (old, prev, prev2)))
            continue
        x = x_all[pts, None, None]
        y = y_all[pts, None, None]
        kind = "clenshaw-curtis" if cut else "trapezoid"
        s, w = _nested_rule(kind, n)
        if old is not None:
            s = s[1::2]
        if cut:
            centre, half = _panels(x_all[pts], y_all[pts], cut)
            z = np.cos(centre + half * s)
            half = half[..., 0]
        else:
            # one panel, [0, pi], the same for every point
            z = np.cos(math.pi / 2.0 + math.pi / 2.0 * s)
            half = math.pi / 2.0
        sx, sy, r = _rotation(x, z, y)
        g = kernel(1.0, x, sx, y, sy, z, r) * sample(fn, r)
        est = np.sum(half * (_dot(g, w) if old is None else _dot(old, w[::2]) + _dot(g, w[1::2])), axis=-1)
        done = np.full(pts.size, last)
        if not last:
            if old is None:
                size = np.sum(half * _dot(np.abs(g), w), axis=-1)
                # I_{n/2} and I_{n/4}, from the samples at every 2nd and 4th index of the first level
                prev, prev2 = (
                    np.sum(half * _dot(g[..., ::k], _nested_rule(kind, n // k)[1]), axis=-1) if n % k == 0 else None
                    for k in (2, 4)
                )
            else:
                size = np.sum(half * (_dot(np.abs(old), w[::2]) + _dot(np.abs(g), w[1::2])), axis=-1)
            if prev is not None:
                diff = np.abs(est - prev)
                done = diff <= _Z_RTOL * size
                if prev2 is not None:
                    extrapolated = diff * diff <= _Z_EXTRAPOLATED * _Z_RTOL * size * np.abs(prev - prev2)
                    done |= extrapolated & (diff <= 1e-6 * size)
        out[pts[done]] = est[done]
        capped[pts[done]] = last
        more = ~done
        if np.any(more):
            if old is None:
                samples = g[more]
            else:
                samples = np.empty((int(np.sum(more)),) + g.shape[1:-1] + (n + 1,))
                samples[..., ::2] = old[more]
                samples[..., 1::2] = g[more]
            work.append((pts[more], cut, 2 * n, samples, est[more], None if prev is None else prev[more]))
    return out, capped


def _z_cap(quad_n, cut):
    """Most intervals per panel of the nested rule: quad_n in all over the len(cut) + 1 panels."""
    return max(int(quad_n) // (len(cut) + 1), 1)


def _asym_kernel(w, x, sx, y, sy, z, r):
    br = sx * y + z * x * sy + sx * (1.0 - y) * (1.0 - z * z)
    return w * (2.0 * br * br - (1.0 - r * r))


def _sym_kernel(w, x, sx, y, sy, z, r):
    zz = 1.0 - z * z
    return w * zz * zz


def _asym_points(fn, ys, iy, x_all, quad_n, pieces=None):
    """tau_y f at the points (ys[iy[i]], x_all[i]), and whether each point's value depends on quad_n (_z_points, with pieces).

    tau_y f = 4 / (pi (1 + y)^2) (1 - x^2)^-1 times the z-integral of kb f(R);
    the factor is taken once per entry of ys (_asym_scale).
    """
    z, capped = _z_points(fn, _asym_kernel, ys[iy], x_all, quad_n, pieces)
    return _asym_scale(ys)[iy] * z / (1.0 - x_all * x_all), capped


def _asym_core(fn, y, xs: np.ndarray, quad_n: int) -> np.ndarray:
    """tau_y f on a 1-d array of interior points, for a scalar y or a 1-d array of y.

    The z-rule is that of _z_points, with quad_n as its cap. A 1-d y gives
    shape (len(y), len(xs)).
    """
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    iy = np.repeat(np.arange(ys.size), xs.size)
    tau, _ = _asym_points(fn, ys, iy, np.tile(xs, ys.size), quad_n)
    return tau.reshape(np.shape(y) + xs.shape)


def _asym_scale(ys):
    """The factor 4 / (pi (1 + y)^2) of tau_y for each y of a 1-d array.

    In Python floats: numpy's (1.0 + y) ** 2 differs in the last bit for some y.
    """
    return np.array([4.0 / (math.pi * (1.0 + v) ** 2) for v in ys.tolist()])


def _sym_core(fn, y, xs: np.ndarray, quad_n: int) -> np.ndarray:
    """Symmetric translation, the (1-z^2)^2 average of f(R), on a 1-d array of points, for a scalar y or a 1-d array of y.

    The z-rule is that of _z_points, with quad_n as its cap. A 1-d y gives
    shape (len(y), len(xs)).
    """
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    z, _ = _z_points(fn, _sym_kernel, np.repeat(ys, xs.size), np.tile(xs, ys.size), quad_n)
    return 8.0 / (3.0 * math.pi) * z.reshape(np.shape(y) + xs.shape)


def multiplier_psi(n: int, y) -> float:
    """Expansion multiplier psi_n(y) = P_n^{(0,4)}(y) / P_n^{(0,4)}(1) of the asymmetric translation.

    tau_y P_n^{(2,2)} = psi_n(y) P_n^{(2,2)} for every y in (-1, 1]: the
    Jacobi convolution structure of Gasper (Ann. of Math. 93, 1971). The
    value comes from the three-term recurrence of jacobi_eval.
    """
    y = _real(y, "translation parameter y")
    if not math.isfinite(y) or y <= -1.0 or y > 1.0:
        raise InvalidArgumentError(f"translation parameter y must lie in (-1, 1], got {y!r}")
    return jacobi_eval(n, 0, 4, y)


def abs_rotation_average(f, t, xs, quad_n: int = 128) -> np.ndarray:
    """(1-x^2)^-1 Chebyshev average of (1-R^2) |f(R)| with R = x cos t - z sin t sqrt(1-x^2).

    This is the positive-kernel transform whose weighted norm stays
    uniformly controlled by the norm of f. It always uses the full quad_n
    rule: |f| is not a polynomial even when f declares a degree. Its R
    takes sin t, not the sqrt(1-y^2) of the translations' z-rule.
    """
    t = _real(t, "t")
    if not (math.isfinite(t) and 0.0 <= t <= math.pi):
        raise InvalidArgumentError(f"t must lie in [0, pi], got {t!r}")
    xs = _reals(xs, "xs")
    if xs.ndim != 1 or not np.all(np.abs(xs) < 1.0):
        raise InvalidArgumentError("xs must be a 1-d array of finite points in (-1, 1)")
    rule = gauss_chebyshev(_integer(quad_n, "quad_n", 1))
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
    t_points: int = T_POINTS,
    quad_n: int = 128,
    norm_nodes: int = NORM_NODES,
):
    """Smoothness modulus sup_{0 <= t <= delta} of the weighted norm of tau_{cos t} f - f.

    The supremum is taken over the uniform grid t = delta k / t_points,
    k = 0..t_points; the k = 0 term is identically zero and skipped. Each
    norm is discrete_norm(params, norm_nodes) of tau_{cos t} f - f at its
    nodes (_Translates). A number delta gives a float, a 1-d sequence the
    list of its moduli: f is translated once per distinct y = cos t across
    them, and each value is bitwise the modulus at its delta alone. A call
    translates only the y that are new to the kept _Translates: a row's
    norm does not depend on the other y translated with it, so successive
    calls, one delta each, give bitwise the values of one call over all
    their deltas, and doubling deltas share half their y.
    """
    try:
        values = np.asarray(delta, dtype=object)  # object, so that a bool stays a bool
    except (TypeError, ValueError) as e:
        raise InvalidArgumentError(f"delta must be a number or a 1-d sequence of numbers, got {delta!r}") from e
    if values.ndim > 1:
        raise InvalidArgumentError(f"delta must be a number or a 1-d sequence, got shape {values.shape}")
    deltas = [_check_delta(d, below_pi=True) for d in values.ravel().tolist()]
    t_points = _integer(t_points, "t_points", 1)
    quad_n = _integer(quad_n, "quad_n", 1)
    params = _as_params(params)
    settings = (params, t_points, quad_n, norm_nodes)
    moduli = _prepared(f).slot("modulus", settings, lambda: _Translates(f, *settings)).moduli(deltas)
    return moduli if values.ndim else moduli[0]


def _t_grids(deltas, t_points):
    """y = cos(delta k / t_points), k = 1..t_points, for each delta; none for delta = 0."""
    return [[math.cos(d * k / t_points) for k in range(1, t_points + 1)] if d != 0.0 else [] for d in deltas]


# The degree of the (2,2) series that _Translates tries for an f with no declared degree
_SERIES_DEGREE = 64


def _series(prep):
    """expand_in_jacobi(f, _SERIES_DEGREE) cut at its plateau (_plateau_cut), for the prepared f; None where it reaches none."""
    coeffs = expand_in_jacobi(prep, _SERIES_DEGREE)
    cut = _plateau_cut(coeffs)
    return None if cut is None else coeffs[:cut]


class _Translates:
    """tau_y f - f on the nodes of discrete_norm(params, norm_nodes), for each y of the t grids it is asked for.

    moduli(deltas) translates the y of their grids that it has not met yet,
    keeps the norm of each row, and gives the modulus at each delta, the
    largest norm among the rows of its grid. It takes f's samples at the
    nodes, or its (2,2) coefficients, from f's prepared function when it
    is built. The rows come from the multipliers tau_y P_k = psi_k(y) P_k
    (Gasper, Ann. of Math. 93, 1971): with a the coefficients of f,
    tau_y f - f = sum_k (psi_k(y) - 1) a_k P_k, one matrix product for
    every new y and no z-integral, which quad_n does not enter. a is
    exact where f declares a degree d on all of [-1, 1] (_declared_degree);
    where f declares no degree at all it is f's series of degree
    _SERIES_DEGREE cut at its plateau (_series, kept in the prepared
    function's "series" slot), when there is one. Any other f, a piecewise
    polynomial or a series with no plateau, takes the z-rule of
    _asym_points with cap quad_n, bitwise _asym_core(f, ys, nodes, quad_n)
    - f, and keeps each row with a point whose value depends on that cap
    (_z_points), and the mask of those points: moduli(deltas, quad_n=q)
    integrates only those points again, under the cap q, and gives
    bitwise modulus(f, deltas, params, t_points, q, norm_nodes), because a
    point that stopped by its test stops at the same level under any
    larger cap, and a point of an exact rule that the cap did not cut
    does not depend on it.
    """

    def __init__(self, f, params, t_points, quad_n, norm_nodes):
        prep = _prepared(f)
        self.lock = prep.lock  # guards norms and capped
        self.fn = _as_callable(f)
        self.t_points = t_points
        self.quad_n = quad_n
        self.norm = discrete_norm(params, norm_nodes)
        # the norm of each y met, and (row, mask of its capped points) for the rows with a capped point
        self.norms = {}
        self.capped = {}
        # the (2,2) coefficients of f, or None, and then f at the nodes and,
        # for a piecewise polynomial, its pieces, sampled through prep
        self.coeffs = self.pieces = None
        if prep.degree is not None:
            self.coeffs = prep.coefficients()
        elif _piece_degree(f) is None:
            self.coeffs = prep.slot("series", None, lambda: _series(prep))
        else:
            self.pieces = _pieces(prep, _piece_degree(f), prep.breaks)
        self.base = prep(self.norm.nodes) if self.coeffs is None else self.coeffs

    def _translate(self, new):
        """Translate the sorted list new of y, and keep their norms and capped rows."""
        ys, xs = np.array(new), self.norm.nodes
        if self.coeffs is not None:
            # psi_k(y) = P_k^{(0,4)}(y) normalised at 1, bitwise multiplier_psi(k, y)
            degree = self.coeffs.size - 1
            rows = ((jacobi_matrix(degree, ys, 0.0, 4.0).T - 1.0) * self.coeffs) @ jacobi_matrix(degree, xs)
        else:
            iy = np.repeat(np.arange(ys.size), xs.size)
            tau, capped = _asym_points(self.fn, ys, iy, np.tile(xs, ys.size), self.quad_n, self.pieces)
            rows = tau.reshape(ys.size, xs.size) - self.base
            masks = capped.reshape(rows.shape)
            # copies, so that a kept row does not keep its whole batch alive
            self.capped.update((y, (row.copy(), mask.copy())) for y, row, mask in zip(new, rows, masks) if mask.any())
        self.norms.update(zip(new, self.norm.rows(rows)))

    def moduli(self, deltas, quad_n=None) -> list:
        """The modulus at each delta, the y of its grid translated first if new.

        With quad_n, the capped points of the rows of these grids are then
        integrated again under the cap quad_n, in one call.
        """
        grids = _t_grids(deltas, self.t_points)
        ys = {y for grid in grids for y in grid}
        with self.lock:
            new = sorted(ys - self.norms.keys())
            if new:
                self._translate(new)
            norms = self.norms
            redo = sorted(ys & self.capped.keys()) if quad_n is not None else []
            if redo:
                xs = self.norm.nodes
                rows = np.array([self.capped[y][0] for y in redo])
                iy, ix = np.nonzero([self.capped[y][1] for y in redo])
                tau, _ = _asym_points(self.fn, np.array(redo), iy, xs[ix], quad_n, self.pieces)
                rows[iy, ix] = tau - self.base[ix]
                norms = {**norms, **dict(zip(redo, self.norm.rows(rows)))}
            return [max([0.0] + [norms[y] for y in grid]) for grid in grids]
