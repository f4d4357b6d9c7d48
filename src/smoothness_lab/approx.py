"""Best polynomial approximation, Jackson-type smoothing, and K-functionals."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy.polynomial import chebyshev as ncheb
from scipy.linalg.lapack import dgelsy, dgeqrf, dtrtrs

from .errors import ConvergenceError, InvalidArgumentError
from .jacobi import (
    PolynomialRep,
    apply_D_poly,
    expand_in_jacobi,
    fourier_jacobi_coeff,
    jacobi_matrix,
    jacobi_poly,
    poly_lincomb,
)
from .quadrature import _as_callable, gauss_chebyshev, gauss_legendre, ordered_sum, sample
from .space import FunctionHandle, SpaceParams, _as_params, _positive_int, discrete_norm, weighted_norm
from .translation import _sym_core

__all__ = [
    "BestApproxResult",
    "JacksonParams",
    "KFunctionalResult",
    "best_approx",
    "jackson_kernel",
    "gamma_norm",
    "jackson_operator",
    "jackson_degree_bound",
    "k_functional",
    "bernstein_markov_ratios",
]

MAX_APPROX_DIM = 64
MAX_WITNESS_DEG = 64


@dataclass(frozen=True)
class BestApproxResult:
    """Outcome of a best-approximation solve.

    argmin is computed on a solve rule, discrete_norm(params, max(grid_n,
    2n)); value is the weighted norm of f - argmin recomputed with the
    256-node weighted_norm, so it is consistent with the public norm by
    construction, and the two rules coincide at the default grid_n = 256.
    diagnostics always holds grid_n (the node count of the solve rule) and
    iterations (0 for the projection and the exact fit); irls-grid also
    reports backtracks, the number of halved steps, and lp-interior-point
    reports gap, the LP's final relative duality gap (or its relative
    residual, if larger). method is "exact-fit" when f declares a degree d
    < n: argmin is then f itself, no solver runs, and grid_n is d + 1, the
    nodes of its Chebyshev interpolant.
    """

    value: float
    argmin: PolynomialRep
    method: str
    diagnostics: dict = field(default_factory=dict)


def best_approx(f, n, params, grid_n: int = 256) -> BestApproxResult:
    """Best approximation of f from polynomials of degree < n in L_{p,alpha}.

    n is the dimension of the approximating space (degree bound n - 1),
    1 <= n <= 64. p = 2 uses an exact weighted projection. Other p minimise
    the norm of f - P on the solve rule discrete_norm(params, max(grid_n,
    2n)): p in {1, inf} exactly, through the dual of the linear program by
    an interior-point method; 1 < p < inf by damped Newton steps, the IRLS
    direction taken at the Newton length 1 / (p - 1) and halved until the
    objective decreases. The reported value is measured on the 256-node
    weighted_norm, which may differ from the solve rule.

    A function that declares a degree d < n (a PolynomialRep, or a
    FunctionHandle through its degree) lies in the space and is its own
    best approximation, for every p: method "exact-fit" returns it, a
    handle as its Chebyshev interpolant at d + 1 nodes, with diagnostics
    {"grid_n": d + 1, "iterations": 0}. grid_n must be a positive integer
    on every path.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or not 1 <= n <= MAX_APPROX_DIM:
        raise InvalidArgumentError(f"dimension must be an integer in [1, {MAX_APPROX_DIM}], got {n!r}")
    grid_n = _positive_int(grid_n, "grid_n")
    params = _as_params(params)
    n = int(n)
    degree = f.degree if isinstance(f, (PolynomialRep, FunctionHandle)) else None
    if degree is not None and degree < n:
        argmin, method, diagnostics = _exact_fit(f, degree), "exact-fit", {"grid_n": degree + 1, "iterations": 0}
    else:
        solve = _best_l2 if params.p == 2.0 else _best_grid
        argmin, method, diagnostics = solve(f, n, params, grid_n)
    value = weighted_norm(lambda x: sample(f, x) - argmin(x), params)
    return BestApproxResult(value, argmin, method, diagnostics)


def _exact_fit(f, degree):
    """f as a PolynomialRep: itself, or its interpolant at the degree + 1 Chebyshev points.

    The discrete Chebyshev transform at the first-kind points recovers the
    coefficients of every polynomial of degree <= degree exactly.
    """
    if isinstance(f, PolynomialRep):
        return f
    nodes = gauss_chebyshev(degree + 1).nodes
    coeffs = ncheb.chebvander(nodes, degree).T @ sample(f, nodes) * (2.0 / nodes.size)
    coeffs[0] *= 0.5
    return PolynomialRep(coeffs)


def _best_l2(f, n, params, grid_n):
    # the rule of the norm has weight (1-x^2)^(2 alpha), under which the
    # (2 alpha, 2 alpha) Jacobi basis is orthogonal
    norm = discrete_norm(params, max(grid_n, 2 * n))
    a = 2.0 * params.alpha
    fv = sample(f, norm.nodes)
    basis = jacobi_matrix(n - 1, norm.nodes, a, a)
    wf = norm.weights * fv
    numer = np.cumsum(basis * wf[None, :], axis=1)[:, -1]
    denom = np.cumsum(basis * basis * norm.weights[None, :], axis=1)[:, -1]
    coeffs = numer / denom
    argmin = poly_lincomb(coeffs, [jacobi_poly(k, a, a) for k in range(n)])
    return argmin, "l2-projection", {"grid_n": norm.nodes.size, "iterations": 0}


def _best_grid(f, n, params, grid_n):
    # argmin minimises the norm on this solve rule; best_approx reports the
    # error on the 256-node weighted_norm
    norm = discrete_norm(params, max(grid_n, 2 * n))
    fv = sample(f, norm.nodes)
    V = ncheb.chebvander(norm.nodes, n - 1)
    diagnostics = {"grid_n": norm.nodes.size}
    if params.p == 1.0 or params.is_sup:
        coeffs, diagnostics["iterations"], diagnostics["gap"] = _lp_fit(params.p, [(V, fv, norm.weights)])
        return PolynomialRep(coeffs), "lp-interior-point", diagnostics
    scale = float(np.max(np.abs(fv))) or 1.0
    coeffs, diagnostics["iterations"], diagnostics["backtracks"] = _damped_newton(fv, V, norm.weights, params.p, scale)
    return PolynomialRep(coeffs), "irls-grid", diagnostics


def _lp_fit(p, blocks):
    """Coefficients c minimising sum_k ||w_k (g_k - M_k c)||_p for p in {1, inf}.

    blocks holds (M_k, g_k, w_k). The fit is solved through its LP dual by
    _lp_box, posed so that its equality rows read W M c = W g on the
    support of the optimum: c is minus their multipliers, and it is
    feasible whatever the final gap. Returns (c, iterations, gap).

    - p = 1, all blocks stacked: maximise g^T y subject to M^T y = 0 and
      |y| <= w, with y = w (2u - 1).
    - p = inf: maximise sum_k g_k^T W_k (lam_k - mu_k) subject to
      sum(lam_k + mu_k) = 1 for each block and
      sum_k M_k^T W_k (lam_k - mu_k) = 0, with u = (lam_k, mu_k).
    """
    if p == 1.0:
        M, g, w = (np.concatenate(parts) for parts in zip(*blocks))
        _, y, gap, iterations = _lp_box(M.T * w, 0.5 * (M.T @ w), -w * g)
        return -y, iterations, gap
    k = len(blocks)
    simplex = np.repeat(np.eye(k), [2 * w.size for _, _, w in blocks], axis=1)
    rows = np.hstack([np.hstack((M.T * w, -(M.T * w))) for M, _, w in blocks])
    cost = np.concatenate([np.concatenate((-w * g, w * g)) for _, g, w in blocks])
    b = np.concatenate((np.ones(k), np.zeros(rows.shape[0])))
    u0 = np.concatenate([np.full(2 * w.size, 0.5 / w.size) for _, _, w in blocks])  # on each simplex
    _, y, gap, iterations = _lp_box(np.vstack((simplex, rows)), b, cost, u0)
    return -y[k:], iterations, gap


def _lp_box(A, b, c, u0=None):
    """Solve min c^T u subject to A u = b and 0 <= u <= 1; never raises.

    An infeasible-start primal-dual interior-point method with Mehrotra's
    predictor-corrector steps (Mehrotra, SIAM J. Optim. 2, 1992; Wright,
    Primal-Dual Interior-Point Methods, 1997). The rows of A are scaled to
    unit length and c to unit maximum. Each step solves the m x m normal
    equations A D A^T dy = r, m the number of rows, through the triangular
    QR factor of D^(1/2) A^T from LAPACK's dgeqrf, which keeps the accuracy
    that forming A D A^T would square away as D spreads near the optimum.
    The bound pairs (u, 1 - u) and their slacks are held stacked, so each
    ratio test is one _max_step. The iterates start at u0 (default 0.5
    everywhere), which must lie strictly inside the box; a start that also
    solves A u = b saves steps.

    Returns (u, y, gap, iterations) at the point of smallest gap seen: y
    holds the multipliers of A u = b in the units of A, b and c, gap is the
    largest of the relative duality gap and the relative primal and dual
    residuals, and iterations counts the residual evaluations. The loop
    stops when gap is at most 1e-10, when it has not improved for 5 steps,
    when the normal equations turn singular or a step is not finite, or
    after 100 steps.
    """
    rows = np.sqrt(np.einsum("ij,ij->i", A, A))
    rows[rows == 0.0] = 1.0
    A, b = A / rows[:, None], b / rows
    cmax = float(np.max(np.abs(c))) or 1.0
    c = c / cmax
    n = c.size
    u = np.full(n, 0.5) if u0 is None else u0
    y = np.zeros(b.size)
    # x = (u, v) with v = 1 - u, slacks sz = (s, z) and steps dx = (du, -du)
    s = np.maximum(c, 0.0) + 1.0
    sz = np.concatenate((s, s - c))
    s, z = sz[:n], sz[n:]
    bnorm, cnorm = 1.0 + np.linalg.norm(b), 1.0 + np.linalg.norm(c)
    best = (math.inf, u, y, 0)
    for iterations in range(1, 101):
        x = np.concatenate((u, 1.0 - u))
        v = x[n:]
        rp = b - A @ u
        rd = c - A.T @ y - s + z
        pobj, dobj = float(c @ u), float(b @ y - z.sum())
        gap = max(abs(pobj - dobj) / max(1.0, abs(pobj)), np.linalg.norm(rp) / bnorm, np.linalg.norm(rd) / cnorm)
        if gap < best[0]:
            best = (gap, u, y, iterations)
        if gap <= 1e-10 or iterations - best[3] >= 5:
            break
        mu = (u @ s + v @ z) / (2.0 * n)
        d = 1.0 / (s / u + z / v)
        qr = dgeqrf(np.sqrt(d)[:, None] * A.T, overwrite_a=1)[0]
        R = np.asfortranarray(qr[: b.size])  # A D A^T = R^T R; dtrtrs reads only the upper triangle
        if not np.all(np.diag(R)):
            break  # singular normal equations

        def direction(r):
            # Newton step whose complementarity products x sz aim at r
            h = rd - r[:n] / u + r[n:] / v
            dy = dtrtrs(R, dtrtrs(R, rp + A @ (d * h), trans=1)[0])[0]
            du = d * (A.T @ dy - h)
            dx = np.concatenate((du, -du))
            return dx, dy, (r - sz * dx) / x

        dx, dy, dsz = direction(-x * sz)
        ap = min(1.0, _max_step(x, dx))
        ad = min(1.0, _max_step(sz, dsz))
        xa, sa = x + ap * dx, sz + ad * dsz
        mu_aff = (xa[:n] @ sa[:n] + xa[n:] @ sa[n:]) / (2.0 * n)
        sigma = (mu_aff / mu) ** 3
        dx, dy, dsz = direction(sigma * mu - x * sz - dx * dsz)
        if not (np.isfinite(dx).all() and np.isfinite(dy).all()):
            break
        u = u + min(1.0, 0.995 * _max_step(x, dx)) * dx[:n]
        ad = min(1.0, 0.995 * _max_step(sz, dsz))
        y, sz = y + ad * dy, sz + ad * dsz
        s, z = sz[:n], sz[n:]
    gap, u, y, _ = best
    return u, y * cmax / rows, gap, iterations


def _max_step(x, dx):
    """Largest t >= 0 with x + t dx >= 0 (inf when dx >= 0)."""
    neg = dx < 0.0
    return float(np.min(x[neg] / -dx[neg], initial=math.inf))


def _lstsq(M, rhs):
    """Minimum-norm least-squares solution of M c = rhs, by LAPACK's rank-revealing dgelsy.

    One LAPACK call: a QR factorisation with column pivoting, truncated
    where the condition estimate of its leading block passes 1 / (eps
    max(M.shape)), the relative cut an SVD-based solve puts on singular
    values.
    """
    m, k = M.shape
    if m < k:
        rhs = np.concatenate((rhs, np.zeros(k - m)))  # dgelsy returns c in rhs's storage
    lwork = max(min(m, k) + 2 * k + 64 * (k + 1), 2 * min(m, k) + 64)  # blocks of up to 64 columns
    return dgelsy(M, rhs, np.zeros(k, dtype=np.int32), np.finfo(float).eps * max(m, k), lwork)[1][:k]


def _damped_newton(fv, V, w, p, scale):
    """Minimise sum w|fv - V c|^p, 1 < p < inf; returns (coeffs, iterations, backtracks).

    The reweighted least-squares fit is c + (p - 1) * (Newton step), so each
    step starts at the Newton length 1 / (p - 1) and is halved until the
    objective decreases. The correction is solved for the residual, so its
    rounding scales with r rather than f. Every power is taken of r / max|r|,
    never of r, so none underflows at large p. The weights |r|^(p-2) are
    floored at 1e-12 max|r| where they shape the step, while the right-hand
    side keeps the true gradient, so the fixed point is the true minimiser.
    The loop stops when the residual, or a step that still fails to decrease
    the objective, is within rounding of f.
    """
    tiny = 64.0 * np.finfo(float).eps * scale
    sw = np.sqrt(w)
    coeffs = _lstsq(V * sw[:, None], fv * sw)  # weighted L2 fit
    backtracks = 0
    for iterations in range(1, 501):
        r = fv - V @ coeffs
        rmax = float(np.max(np.abs(r)))
        if rmax <= tiny:
            return coeffs, iterations, backtracks
        rn = r / rmax
        a = np.abs(rn)
        phi = ordered_sum(w * a ** p)
        floored = np.maximum(a, 1e-12)
        sw = np.sqrt(w * floored ** (p - 2.0))
        # the gradient sign(r) |r|^(p-1) over the floored weight |r|^(p-2),
        # never 0/0: for p >= 2 rn times a power of a / floored <= 1, which
        # may underflow only to 0; for p < 2 the quotient, whose divisor lies
        # in [1, 1e12]
        if p >= 2.0:
            rhs = rn * (a / floored) ** (p - 2.0)
        else:
            rhs = np.sign(rn) * a ** (p - 1.0) / floored ** (p - 2.0)
        d = rmax * _lstsq(V * sw[:, None], rhs * sw)
        vd = V @ d
        vmax = float(np.max(np.abs(vd)))
        t = 1.0 / (p - 1.0)
        while t * vmax > tiny:
            if ordered_sum(w * np.abs((r - t * vd) / rmax) ** p) < phi:
                break
            t *= 0.5
            backtracks += 1
        else:
            return coeffs, iterations, backtracks  # the objective stopped decreasing
        coeffs = coeffs + t * d
    raise ConvergenceError("damped Newton did not converge within 500 iterations")


@dataclass(frozen=True)
class JacksonParams:
    """Smoothing kernel order q (integer > 2) and frequency m >= 1."""

    q: int = 3
    m: int = 2

    def __post_init__(self):
        if not isinstance(self.q, (int, np.integer)) or self.q <= 2:
            raise InvalidArgumentError(f"q must be an integer greater than 2, got {self.q!r}")
        if not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise InvalidArgumentError(f"m must be a positive integer, got {self.m!r}")


def jackson_degree_bound(params: JacksonParams) -> int:
    """Degree bound (q+2)(m-1) of the smoothed polynomial."""
    return (params.q + 2) * (params.m - 1)


def _kernel_values(ts: np.ndarray, q: int, m: int) -> np.ndarray:
    den = np.sin(ts / 2.0)
    num = np.sin(m * ts / 2.0)
    ratio = np.full(ts.shape, float(m))
    nz = den != 0.0
    ratio[nz] = num[nz] / den[nz]
    return ratio ** (2 * (q + 2))


def jackson_kernel(t, params: JacksonParams) -> float:
    """Even trigonometric kernel (sin(mt/2)/sin(t/2))^(2(q+2)) on [0, pi].

    The removable singularity at t = 0 takes the limit value m^(2(q+2)).
    """
    t = float(t)
    if not (math.isfinite(t) and 0.0 <= t <= math.pi):
        raise InvalidArgumentError(f"t must lie in [0, pi], got {t!r}")
    return float(_kernel_values(np.array([t]), params.q, params.m)[0])


def _jackson_moments(params: JacksonParams, kmax: int) -> np.ndarray:
    """int K(arccos y) (1-y^2)^2 P_k(y) dy for k = 0..kmax; the k = 0 moment is gamma.

    (sin(mt/2)/sin(t/2))^2 is a cosine polynomial of degree m - 1, so K has
    degree (q+2)(m-1) in y = cos t, and the Gauss-Jacobi (2,2) rule of
    (q+2)(m-1) + 4 nodes is exact for every kmax <= (q+2)(m-1) + 7.
    """
    kernel = lambda y: _kernel_values(np.arccos(y), params.q, params.m)
    nodes = jackson_degree_bound(params) + 4
    return np.array([fourier_jacobi_coeff(kernel, k, nodes) for k in range(kmax + 1)])


def gamma_norm(params: JacksonParams) -> float:
    """Normalizer int_0^pi K(t) sin^5 t dt = int K(arccos y) (1-y^2)^2 dy, exact on a Gauss-Jacobi (2,2) rule."""
    return float(_jackson_moments(params, 0)[0])


def jackson_operator(f, params: JacksonParams) -> PolynomialRep:
    """Kernel-smoothed image of f, a polynomial of degree <= (q+2)(m-1).

    The image is the average of the symmetric translation tau_{cos t} f
    against K(t) sin^5 t / gamma over [0, pi]. That translation multiplies
    P_k^{(2,2)} by P_k(cos t), so the image is sum_k theta_k a_k P_k: a_k
    are the (2,2) coefficients of f from expand_in_jacobi, and theta_k =
    int K(arccos y) (1-y^2)^2 P_k(y) dy / gamma, exact from
    _jackson_moments and zero above the degree bound. _jackson_by_translation
    computes the same image from the translation itself, as a reference.
    """
    bound = jackson_degree_bound(params)
    if bound > MAX_WITNESS_DEG:
        raise InvalidArgumentError(
            f"degree bound (q+2)(m-1) = {bound} exceeds the supported {MAX_WITNESS_DEG}"
        )
    moments = _jackson_moments(params, bound)
    return _poly_from_jacobi(moments / moments[0] * expand_in_jacobi(f, bound))


def _jackson_by_translation(f, params: JacksonParams, xs, t_nodes: int = 256, quad_n: int = 2048) -> np.ndarray:
    """The image of jackson_operator at xs from its definition, a reference independent of the multipliers.

    _sym_core(f, cos t) is averaged against K(t) sin^5 t by a t_nodes-point
    Legendre rule on [0, pi], normalised on the same rule; at x = 1 the
    image of P_k is the multiplier theta_k. The t-integrand is analytic for
    a polynomial f, where 256 nodes reach rounding level; the kink of |x|
    leaves an error of about 1e-8.
    """
    rule = gauss_legendre(int(t_nodes))
    ts = (rule.nodes + 1.0) * (math.pi / 2.0)
    wts = rule.weights * _kernel_values(ts, params.q, params.m) * np.sin(ts) ** 5
    translated = _sym_core(_as_callable(f), np.cos(ts), np.asarray(xs, dtype=float), quad_n)
    return np.cumsum(wts[:, None] * translated, axis=0)[-1] / ordered_sum(wts)


@dataclass(frozen=True)
class KFunctionalResult:
    """Infimal value and the witness polynomial realizing it."""

    value: float
    witness: PolynomialRep
    delta: float
    max_deg: int
    iterations: int
    trace: tuple = ()
    gap: Optional[float] = None


@lru_cache(maxsize=MAX_WITNESS_DEG + 1)
def _jacobi_to_cheb(d: int) -> np.ndarray:
    """(d+1) x (d+1) matrix whose column k holds the Chebyshev coefficients of P_k^{(2,2)}."""
    M = np.zeros((d + 1, d + 1))
    for k in range(d + 1):
        cheb = jacobi_poly(k, 2, 2).cheb
        M[: cheb.size, k] = cheb
    M.setflags(write=False)
    return M


def _poly_from_jacobi(c: np.ndarray) -> PolynomialRep:
    """sum_k c[k] P_k^{(2,2)}, summed over k in order as poly_lincomb does, so bitwise equal to it."""
    return PolynomialRep(np.cumsum(_jacobi_to_cheb(c.size - 1) * c, axis=1)[:, -1])


def _log_root(h, lo, hi):
    """Root in log s of h on [lo, hi], 0 < lo < hi; None unless h(lo) < 0 < h(hi).

    Regula falsi in x = log s with the Illinois modification (Dowell &
    Jarratt, BIT 11, 1971): when the same end of the bracket is kept twice
    running, its value is halved. As in Brent's zeroin (Algorithms for
    Minimization without Derivatives, 1973), each step stays at least tol,
    a few ulps of x, inside the bracket, so an end that has converged closes
    the bracket with one step past the root; and a bracket not halved by
    three steps is bisected. The loop stops when h vanishes or the bracket
    is within 2 tol, and returns the end of smaller |h|.
    """
    x0, x1 = math.log(lo), math.log(hi)
    h0, h1 = h(lo), h(hi)
    if not h0 < 0.0 < h1:
        return None
    f0, f1 = h0, h1  # the Illinois-scaled values the secant uses
    kept, widths = 0, [x1 - x0]
    while True:
        tol = 4.0 * np.finfo(float).eps * max(1.0, abs(x0), abs(x1))
        if x1 - x0 <= 2.0 * tol:
            break
        if len(widths) > 3 and widths[-1] > 0.5 * widths[-4]:
            x = 0.5 * (x0 + x1)
        else:
            x = min(max(x1 - f1 * (x1 - x0) / (f1 - f0), x0 + tol), x1 - tol)
        hx = h(math.exp(x))
        if hx == 0.0:
            return math.exp(x)
        if hx < 0.0:
            x0, h0, f0 = x, hx, hx
            f1 = 0.5 * f1 if kept == 1 else f1
            kept = 1
        else:
            x1, h1, f1 = x, hx, hx
            f0 = 0.5 * f0 if kept == -1 else f0
            kept = -1
        widths.append(x1 - x0)
    return math.exp(x0) if -h0 <= h1 else math.exp(x1)


def k_functional(f, delta, params, max_deg: int = 32, quad_n: int = 256) -> KFunctionalResult:
    """K-functional inf over polynomials g of ||f - g|| + delta^2 ||Dg||.

    The witness, of degree at most max_deg <= 64, is parameterized by
    coefficients c in the (2,2) Jacobi basis, where the second-order operator
    acts diagonally. One norm, discrete_norm(params, quad_n), serves the
    solvers and the reported value. The value is recomputed from, and the
    witness returned as, a PolynomialRep in Chebyshev form. The minimiser
    of F(c) is found by:

    - p = 2, alpha = 1: a scan of the exact path c_nu(s) = a_nu / (1 + s lam_nu^2),
      on which the basis is orthogonal (separable case), taken as one array
      op and refined at the root of F'(s) by _log_root, where F' changes
      sign between the scan points next to the first minimum;
    - 1 < p < inf otherwise: damped Newton steps, each halved until F
      decreases, started off the kinks of F (_newton_k);
    - p in {1, inf}: the exact minimiser on the rule, through the dual of
      the linear program by the interior-point method of best_approx, with
      one block of rows for each of the two norms.

    Outside the separable case the best constant, the minimiser on the face
    Dg = 0, is a candidate too (weighted median at p = 1, exact minimax
    constant at p = inf, a damped Newton fit otherwise); it keeps K exact
    to rounding on constants. The zero, projection, constant (outside the
    separable case) and solver candidates are scored on J, as norm(fv -
    J^T c) + delta^2 norm(J^T (lam c)), and only the best becomes a
    polynomial g. The reported value, norm(f - g) + delta^2 norm(Dg), is
    recomputed from g, so it never exceeds any candidate's by more than the
    rounding of those scores. It equals weighted_norm(f - g, params,
    quad_n) + delta^2 weighted_norm(Dg, params, quad_n) exactly, but reuses
    the samples of f.
    quad_n must be at least max_deg + 1: on fewer nodes the witness is not
    determined and K would be rounding noise. iterations counts the
    solver's steps: Newton steps (0 when the best constant is shown to be
    optimal), interior-point steps, or 0 for the scan. trace holds the last
    objective values of the Newton solve or the scan, and is empty for the
    interior-point solve. gap is the interior-point solve's final gap at p
    in {1, inf}, whichever candidate wins, and None otherwise.
    """
    delta = float(delta)
    if not (math.isfinite(delta) and delta >= 0.0):
        raise InvalidArgumentError(f"delta must be a finite nonnegative number, got {delta!r}")
    if not isinstance(max_deg, (int, np.integer)) or isinstance(max_deg, bool) or not 0 <= max_deg <= MAX_WITNESS_DEG:
        raise InvalidArgumentError(f"max_deg must be an integer in [0, {MAX_WITNESS_DEG}]")
    params = _as_params(params)
    max_deg = int(max_deg)
    quad_n = _positive_int(quad_n, "quad_n")
    if quad_n < max_deg + 1:
        # fewer nodes than witness coefficients leave the fit underdetermined
        raise InvalidArgumentError(f"quad_n must be at least max_deg + 1 = {max_deg + 1}, got {quad_n}")
    norm = discrete_norm(params, quad_n)
    xs = norm.nodes
    fv = sample(f, xs)
    J = jacobi_matrix(max_deg, xs)
    lam = -np.arange(max_deg + 1.0) * (np.arange(max_deg + 1.0) + 5.0)
    d2 = delta * delta
    p = params.p
    c_proj = expand_in_jacobi(f, max_deg, n_nodes=max(int(quad_n), 256))
    candidates = [np.zeros(max_deg + 1), c_proj]
    gap = None

    if p == 2.0 and params.alpha == 1.0:
        # separable case: the basis is orthogonal under this exact weight, so
        # the optimum lies on the path c_nu(s) = a_nu / (1 + s lam_nu^2) and a
        # one-dimensional scan over s replaces the descent
        rw = norm.weights
        hn = np.cumsum(rw[None, :] * J * J, axis=1)[:, -1]
        a = np.cumsum(rw[None, :] * J * fv[None, :], axis=1)[:, -1] / hn
        total = float(np.cumsum(rw * fv * fv)[-1])
        tail2 = max(total - float(np.sum(hn * a * a)), 0.0)

        def path_terms(s):
            # A = sum hn (a - c_s)^2 and B = sum hn (lam c_s)^2 on the path
            c_s = a / (1.0 + s * lam * lam)
            return float(np.sum(hn * (a - c_s) ** 2)), float(np.sum(hn * (lam * c_s) ** 2)), c_s

        # the scan as one array op; same operations in the same order as path_terms
        ss = np.concatenate(([0.0], np.logspace(-18.0, 18.0, 361)))
        cs = a / (1.0 + ss[:, None] * lam * lam)
        aa = np.sum(hn * (a - cs) ** 2, axis=1)
        bb = np.sum(hn * (lam * cs) ** 2, axis=1)
        scan = np.sqrt(tail2 + aa) + d2 * np.sqrt(bb)
        idx = int(np.argmin(scan))  # first minimum
        best_s_val, best_s_c = float(scan[idx]), cs[idx]
        if 0 < idx < ss.size - 1:
            # A' = -s B' along the path, so F'(s) has the sign of
            # h(s) = s sqrt(B) - d2 sqrt(tail2 + A), s ||Dg_s|| - d2 ||f - g_s||.
            # F is unimodal on the path, the convex Pareto front of the two
            # norms, so where h changes sign on the bracket its root is the
            # minimum; where it does not, F is flat to rounding and the scan
            # minimum stands. For idx = 1 the bracket's lower end, s = 0, has
            # no logarithm and is taken one scan step below ss[1].
            lo = float(ss[idx - 1]) if idx > 1 else float(ss[1] * ss[1] / ss[2])

            def slope(s):
                aa_s, bb_s, _ = path_terms(s)
                return s * math.sqrt(bb_s) - d2 * math.sqrt(tail2 + aa_s)

            s_star = _log_root(slope, lo, float(ss[idx + 1]))
            if s_star is not None:
                aa_s, bb_s, c_s = path_terms(s_star)
                val = math.sqrt(tail2 + aa_s) + d2 * math.sqrt(bb_s)
                if val < best_s_val:
                    best_s_val, best_s_c = val, c_s
        best_c, iterations, history = best_s_c, 0, [best_s_val]
    else:
        scale = float(np.max(np.abs(fv))) or 1.0
        const = np.zeros(max_deg + 1)
        const[0] = _best_constant(fv, norm, scale)
        candidates.append(const)
        if 1.0 < p < math.inf:
            best_c, iterations, history = _newton_k(fv, J, lam, norm, d2, c_proj, const, scale)
        else:
            blocks = [(J.T, fv, norm.weights)]
            if d2 > 0.0:
                blocks.append((J.T * lam, np.zeros_like(fv), d2 * norm.weights))
            best_c, iterations, gap = _lp_fit(p, blocks)
            history = []
    candidates.append(best_c)

    # the candidates are scored on J; the winner's value is recomputed from
    # its Chebyshev form, so that it is the public norm at the witness
    C = np.array(candidates)
    scores = [norm(r) + d2 * norm(u) for r, u in zip(fv - C @ J, (C * lam) @ J)]
    best_poly = _poly_from_jacobi(candidates[int(np.argmin(scores))])
    best_val = norm(fv - best_poly(xs)) + d2 * norm(apply_D_poly(best_poly)(xs))
    return KFunctionalResult(
        value=float(best_val),
        witness=best_poly,
        delta=delta,
        max_deg=max_deg,
        iterations=iterations,
        trace=tuple(history[-8:]),
        gap=gap,
    )


def _best_constant(fv, norm, scale):
    """Constant c minimising norm(fv - c)."""
    if norm.p == math.inf:
        # the optimum levels the worst pair: w_i (f_i - c) = w_j (c - f_j)
        wts = norm.weights
        gap = np.subtract.outer(fv, fv) * np.multiply.outer(wts, wts) / np.add.outer(wts, wts)
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        return float((wts[i] * fv[i] + wts[j] * fv[j]) / (wts[i] + wts[j]))
    if norm.p == 1.0:
        order = np.argsort(fv, kind="stable")
        cum = np.cumsum(norm.weights[order])
        return float(fv[order[int(np.searchsorted(cum, 0.5 * cum[-1]))]])
    coeffs, _, _ = _damped_newton(fv, np.ones((fv.size, 1)), norm.weights, norm.p, scale)
    return float(coeffs[0])


def _newton_k(fv, J, lam, norm, d2, c_proj, const, scale):
    """Minimise F(c) = N(fv - J^T c) + d2 N(J^T (lam c)) for the discrete norm N, 1 < p < inf.

    Returns (coeffs, iterations, history of F); iterations counts Newton
    steps. F has kinks where either norm vanishes: on the face Dg = 0 of the
    constants, and at the exact fit, which the projection c_proj is for a
    polynomial f. Newton steps cannot leave a kink, and approach one only
    linearly, so both are settled first by the steepest descent direction
    there (_steepest):

    - if no direction off the face lowers F, the best constant const is the
      minimiser and no Newton step is taken (an exact constant fit included);
    - otherwise F is minimised along that direction from const, and along
      the one from c_proj, and Newton starts from the best of these points
      and c_proj.

    Each Newton step solves the Hessian system, assembled as J diag(.) J^T,
    by least squares, because the Hessian of a 1-homogeneous norm is
    singular along its argument; the weights |v|^(p-2) are floored at
    1e-12 max|v|, as in _damped_newton. The step is halved until F
    decreases. The loop stops when the Newton decrement, or the decrease of
    F in an accepted step, is at rounding level relative to F, when no
    halved step decreases F, or after 100 steps.
    """
    LJ = lam[:, None] * J
    rw, p = norm.weights, norm.p

    def objective(c):
        return norm(fv - J.T @ c) + d2 * norm(LJ.T @ c)

    def grad_norm(v):
        return rw * np.sign(v) * np.abs(v) ** (p - 1.0) / norm(v) ** (p - 1.0)

    def descend_from(c, v):
        # F is convex along c + t v, t >= 0, and decreasing at t = 0
        return c + _line_min(lambda t: objective(c + t * v), objective(c)) * v

    r0 = fv - const[0]
    if float(np.max(np.abs(r0))) > 64.0 * np.finfo(float).eps * scale:
        sigma, v = _steepest(LJ[1:], (J @ grad_norm(r0))[1:], norm)
    else:
        sigma = 0.0  # f is constant to rounding
    if d2 >= sigma:
        return const, 0, [norm(r0)]
    starts = [c_proj, descend_from(const, np.concatenate(([0.0], v)))]
    u = LJ.T @ c_proj
    if d2 > 0.0 and np.any(u):
        sigma, v = _steepest(J, -d2 * (LJ @ grad_norm(u)), norm)
        if sigma > 1.0:  # F decreases along v even from an exact fit
            starts.append(descend_from(c_proj, v))

    c = min(starts, key=objective)
    r, u = fv - J.T @ c, LJ.T @ c
    F = norm(r) + d2 * norm(u)
    history = [F]

    def derivatives(v, B):
        # gradient and Hessian of N(B^T c) in c; zero where N vanishes
        n = norm(v)
        if n == 0.0:
            return 0.0, 0.0
        g = B @ grad_norm(v)
        a = np.maximum(np.abs(v), 1e-12 * float(np.max(np.abs(v))))
        h = (p - 1.0) * rw * a ** (p - 2.0) / n ** (p - 1.0)
        return g, (B * h) @ B.T - (p - 1.0) / n * np.outer(g, g)

    for iterations in range(1, 101):
        g1, h1 = derivatives(r, J)
        g2, h2 = derivatives(u, LJ)
        grad = d2 * g2 - g1
        step = _lstsq(h1 + d2 * h2, -grad)
        dr, du = J.T @ step, LJ.T @ step
        t = 1.0
        for _ in range(60):
            F_new = norm(r - t * dr) + d2 * norm(u + t * du)
            if F_new < F:
                break
            t *= 0.5
        else:
            return c, iterations, history  # F stopped decreasing
        c = c + t * step
        r, u = r - t * dr, u + t * du
        drop, F = F - F_new, F_new
        history.append(F)
        # squared Newton decrement / 2 <= 1e-15 F, or a decrease at rounding level
        if -float(grad @ step) <= 2e-15 * F or drop <= 1e-13 * F:
            return c, iterations, history
    return c, iterations, history


def _steepest(B, b, norm):
    """sigma = max <b, v> over norm(B^T v) <= 1, and a maximiser v scaled to <b, v> = 1.

    sigma = 1 / min N(B^T v) over <b, v> = 1; that minimum is a weighted
    p-norm fit on the hyperplane, solved by _damped_newton. b = 0 (or
    empty) gives (0, None).
    """
    if not np.any(b):
        return 0.0, None
    k = int(np.argmax(np.abs(b)))
    rest = np.arange(b.size) != k
    u0 = B[k] / b[k]
    V = np.outer(u0, b[rest]) - B[rest].T  # B^T v = u0 - V z for v[rest] = z on the hyperplane
    z, _, _ = _damped_newton(u0, V, norm.weights, norm.p, float(np.max(np.abs(u0))))
    v = np.empty(b.size)
    v[rest] = z
    v[k] = (1.0 - b[rest] @ z) / b[k]
    return 1.0 / norm(u0 - V @ z), v


def _line_min(F, t0):
    """Minimiser over t >= 0 of a convex F with F'(0) < 0, by doubling from t0 and golden section."""
    f0, hi = F(0.0), t0
    while F(hi) < f0:
        hi *= 2.0
    g = 0.381966011250105
    lo = 0.0
    m1, m2 = lo + g * hi, hi - g * hi
    f1, f2 = F(m1), F(m2)
    for _ in range(40):
        if f1 <= f2:
            hi, m2, f2 = m2, m1, f1
            m1 = lo + g * (hi - lo)
            f1 = F(m1)
        else:
            lo, m1, f1 = m1, m2, f2
            m2 = hi - g * (hi - lo)
            f2 = F(m2)
    return m1 if f1 <= f2 else m2


def bernstein_markov_ratios(poly: PolynomialRep, params, rho: float = 0.5, n_nodes: int = 256):
    """Scaled derivative and norm-shift ratios of a polynomial.

    Returns (||P'||_{p, alpha+1/2} / (n ||P||_{p, alpha}),
             ||P||_{p, alpha} / (n^{2 rho} ||P||_{p, alpha+rho}))
    with n = degree + 1. The zero polynomial has no meaningful ratio.
    """
    params = _as_params(params)
    rho = float(rho)
    if not (math.isfinite(rho) and rho >= 0.0):
        raise InvalidArgumentError(f"rho must be finite and nonnegative, got {rho!r}")
    if poly.is_zero():
        raise InvalidArgumentError("ratios are undefined for the zero polynomial")
    n = poly.degree + 1
    base = weighted_norm(poly, params, n_nodes)
    shifted = weighted_norm(poly, SpaceParams(params.p, params.alpha + rho), n_nodes)
    deriv = weighted_norm(poly.derivative(), SpaceParams(params.p, params.alpha + 0.5), n_nodes)
    return deriv / (n * base), base / (n ** (2.0 * rho) * shifted)
