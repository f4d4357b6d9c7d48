"""Best polynomial approximation, Jackson-type smoothing, and K-functionals."""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.polynomial import chebyshev as ncheb
from scipy.linalg import eigh
from scipy.linalg.lapack import dgelsy, dgeqrf, dtrtrs

from .errors import ConvergenceError, InvalidArgumentError, _integer, _real
from .jacobi import (
    PolynomialRep,
    _cheb_interp,
    _d_eigenvalues,
    _jacobi_series,
    apply_D_poly,
    expand_in_jacobi,
    fourier_jacobi_coeff,
    jacobi_matrix,
)
from .quadrature import _as_callable, gauss_chebyshev, gauss_legendre, ordered_sum
from .space import (
    NORM_NODES,
    DiscreteNorm,
    SpaceParams,
    _as_params,
    _check_delta,
    _prepared,
    discrete_norm,
    weighted_norm,
)
from .translation import _sym_core

__all__ = [
    "BestApproxResult",
    "JacksonParams",
    "KFunctionalResult",
    "best_approx",
    "gamma_norm",
    "jackson_operator",
    "jackson_degree_bound",
    "k_functional",
    "bernstein_markov_ratios",
]

MAX_APPROX_DIM = 64
MAX_WITNESS_DEG = 64
# from this p on, _damped_newton may start from the p = inf fit instead of the L2 fit
_LP_START_P = 12.0


@dataclass(frozen=True)
class BestApproxResult:
    """Outcome of a best-approximation solve.

    argmin is computed on a solve rule, discrete_norm(params, max(grid_n,
    2n)); value is the weighted norm of f - argmin recomputed with the
    default weighted_norm, so it is consistent with the public norm by
    construction, and the two rules coincide at the default grid_n.
    diagnostics always holds grid_n (the node count of the solve rule) and
    iterations (0 for the exact fit); lp-interior-point also reports gap,
    the LP's final relative duality gap (or its relative residual, if
    larger). method is "exact-fit" when f declares a degree d < n: argmin
    is then f itself, no solver runs, and grid_n is d + 1, the nodes of its
    Chebyshev interpolant.
    """

    value: float
    argmin: PolynomialRep
    method: str
    diagnostics: dict = field(default_factory=dict)


def best_approx(f, n, params, grid_n: int = NORM_NODES) -> BestApproxResult:
    """Best approximation of f from polynomials of degree < n in L_{p,alpha}.

    n is the dimension of the approximating space (degree bound n - 1),
    1 <= n <= 64. The norm of f - P is minimised on the solve rule
    discrete_norm(params, max(grid_n, 2n)): p in {1, inf} exactly, through
    the dual of the linear program by an interior-point method; 1 < p < inf
    by damped Newton steps, the IRLS direction taken at the Newton length
    1 / (p - 1) and halved until the objective decreases. Newton starts
    from the weighted least-squares fit, which at p = 2 is the minimiser
    and is returned as its one iterate. The reported value is
    measured on the default weighted_norm, which may differ from the solve
    rule.

    A function that declares a degree d < n (a PolynomialRep, or a
    FunctionHandle through its degree) lies in the space and is its own
    best approximation, for every p: method "exact-fit" returns it, a
    handle as its Chebyshev interpolant at d + 1 nodes, with diagnostics
    {"grid_n": d + 1, "iterations": 0}. grid_n must be a positive integer
    on every path.

    f exactly even or odd on the solve rule is solved on the half x > 0 of
    the rule and on the Chebyshev columns of its parity (_fold), so the two
    n of a parity pair (n = 2m - 1 and 2m for an even f, 2m and 2m + 1 for
    an odd f) share one solve.
    """
    n = _integer(n, "dimension", 1, MAX_APPROX_DIM)
    grid_n = _integer(grid_n, "grid_n", 1)
    params = _as_params(params)
    prep = _prepared(f)
    if prep.degree is not None and prep.degree < n:
        value, argmin = prep.slot("fit", params, lambda: _exact_fit(prep, params))
        return BestApproxResult(value, argmin, "exact-fit", {"grid_n": prep.degree + 1, "iterations": 0})
    size = max(grid_n, 2 * n)
    return prep.slot("E", (params, size), lambda: _e_setup(prep, params, size))(n)


def _exact_fit(prep, params):
    """f of declared degree d as a PolynomialRep, and its error on the report rule: (value, argmin).

    argmin is f itself, or its interpolant at the d + 1 Chebyshev points
    (_cheb_interp), which is exact at degree d.
    """
    argmin = prep.f
    if not isinstance(argmin, PolynomialRep):
        argmin = PolynomialRep(_cheb_interp(prep(gauss_chebyshev(prep.degree + 1).nodes)))
    report = discrete_norm(params, NORM_NODES)
    return report(prep(report.nodes) - argmin(report.nodes)), argmin


def _fold(nodes, weights, fv):
    """The half x > 0 of a mirror-image rule, for values fv of one parity: (indices, parity), else None.

    The rule folds when its nodes, sorted, are the negatives of themselves
    reversed and each mirror pair has equal weights; fv folds when it is
    equal (even f, parity 0) or opposite (odd f, parity 1) at each pair,
    compared exactly. The pairs come from the sorted nodes because the
    p = inf rule appends -edge and edge to make_grid's. An even f on a rule
    with a node at 0 is not folded, since the half would drop that node;
    an odd f is 0 there, as is every odd polynomial. The weights are not
    doubled: on the half, each finite-p norm of a function of f's parity is
    the full one times 2^(-1/p), and the sup norm is the full one.
    """
    order = np.argsort(nodes, kind="stable")
    mirror = order[::-1]
    if not (np.array_equal(nodes[order], -nodes[mirror]) and np.array_equal(weights[order], weights[mirror])):
        return None
    if np.array_equal(fv[order], fv[mirror]):
        parity = 0
    elif np.array_equal(fv[order], -fv[mirror]):
        parity = 1
    else:
        return None
    if nodes.size % 2 and parity == 0:
        return None
    return order[(nodes.size + 1) // 2 :], parity


def _e_setup(prep, params, size):
    """The n-free work of best_approx on the solve rule discrete_norm(params, size), as the function of n that finishes it.

    Done here once: the samples of f on the solve rule and on the report
    rule of NORM_NODES nodes, and the fold of the solve rule (_fold).
    argmin minimises the norm on the solve rule, and the error is reported
    on the report rule. On a fold, n fits the Chebyshev columns T_k, k < n,
    of f's parity on the half rule, and the other coefficients are 0; an
    odd f at n = 1 has no column, and its argmin is 0 with 0 iterations
    (and gap 0.0 at p in {1, inf}). The last solve is kept with its column
    set, so the second n of a parity pair runs no solver.
    """
    norm = discrete_norm(params, size)
    fv = prep(norm.nodes)
    report = discrete_norm(params, NORM_NODES)
    report_fv = prep(report.nodes)
    fold = _fold(norm.nodes, norm.weights, fv)
    half = slice(None) if fold is None else fold[0]
    snorm, sv = DiscreteNorm(params.p, norm.nodes[half], norm.weights[half]), fv[half]
    lp = params.p == 1.0 or params.is_sup
    method = "lp-interior-point" if lp else "irls-grid"

    def solve(cols):
        diagnostics = {"grid_n": norm.nodes.size, "iterations": 0}
        coeffs = np.zeros(cols[-1] + 1 if cols.size else 1)
        V = ncheb.chebvander(snorm.nodes, coeffs.size - 1)
        V = V if fold is None else V[:, cols]
        # an odd f at n = 1 has no column: either solver returns at once
        if lp:
            coeffs[cols], diagnostics["iterations"], diagnostics["gap"] = _lp_fit(params.p, [(V, sv, snorm.weights)])
        else:
            coeffs[cols], diagnostics["iterations"] = _damped_newton(sv, V, snorm)
        argmin = PolynomialRep(coeffs)
        return argmin, diagnostics, report(report_fv - argmin(report.nodes))

    last = None  # (column set, (argmin, diagnostics, value)) of the last solve

    def at(n):
        nonlocal last
        cols = np.arange(n) if fold is None else np.arange(fold[1], n, 2)
        with prep.lock:
            key, kept = tuple(cols), last
            if kept is None or kept[0] != key:
                kept = last = key, solve(cols)
        argmin, diagnostics, value = kept[1]
        return BestApproxResult(value, argmin, method, dict(diagnostics))

    return at


def _lp_fit(p, blocks):
    """Coefficients c minimising sum_k ||w_k (g_k - M_k c)||_p for p in {1, inf}.

    blocks holds (M_k, g_k, w_k). The fit is solved through its LP dual by
    _lp_box, posed so that its equality rows read W M c = W g on the
    support of the optimum: c is minus their multipliers, and it is
    feasible whatever the final gap. Returns (c, iterations, gap).

    - p = 1, all blocks stacked: maximise g^T y subject to M^T y = 0 and
      |y| <= w, with y = w (2u - 1), so 0 <= u <= 1.
    - p = inf: maximise sum_k g_k^T W_k (lam_k - mu_k) subject to
      sum(lam_k + mu_k) = 1 for each block and
      sum_k M_k^T W_k (lam_k - mu_k) = 0, with u = (lam_1..lam_K,
      mu_1..mu_K) >= 0 and no upper bound: each block's simplex row already
      caps its entries at 1. The normal equations take their factor from
      _pair_factor.
    """
    if not blocks[0][0].shape[1]:
        return np.zeros(0), 0, 0.0  # no coefficient to fit
    if p == 1.0:
        M, g, w = (np.concatenate(parts) for parts in zip(*blocks))
        _, y, gap, iterations = _lp_box(M.T * w, 0.5 * (M.T @ w), -w * g)
        return -y, iterations, gap
    k = len(blocks)
    simplex = np.tile(np.repeat(np.eye(k), [w.size for _, _, w in blocks], axis=1), 2)
    wm = np.hstack([M.T * w for M, _, w in blocks])
    wg = np.concatenate([w * g for _, g, w in blocks])
    cost = np.concatenate((-wg, wg))
    b = np.concatenate((np.ones(k), np.zeros(wm.shape[0])))
    u0 = np.tile(np.concatenate([np.full(w.size, 0.5 / w.size) for _, _, w in blocks]), 2)  # on each simplex
    A = np.vstack((simplex, np.hstack((wm, -wm))))
    _, y, gap, iterations = _lp_box(A, b, cost, u0, upper=False, factor=_pair_factor(k))
    return -y[k:], iterations, gap


def _pair_factor(k):
    """The factor of the normal equations of the p = inf LP of _lp_fit, from half its rows.

    Its columns pair up: lam_i is [e_i; a_i] and mu_i is [e_i; -a_i], e_i
    the simplex rows (k of them) and a_i the rest, and so
    dl [e; a][e; a]^T + dm [e; -a][e; -a]^T = s [tau e; a][tau e; a]^T
    + 4 dl dm / s e e^T, with s = dl + dm and tau = (dl - dm) / s. So
    A D A^T = F^T F for F of one row per pair, sqrt(s) [tau e_i; a_i], and
    k rows that add the sums of 4 dl dm / s e e^T on the simplex rows'
    diagonal: a QR of half the rows of D^(1/2) A^T's, with no subtraction.
    """

    def factor(A, d):
        half = d.size // 2
        dl, dm = d[:half], d[half:]
        s = dl + dm
        F = np.zeros((half + k, A.shape[0]), order="F")
        F[:half] = A[:, :half].T * np.sqrt(s)[:, None]
        F[:half, :k] *= ((dl - dm) / s)[:, None]
        F[half + np.arange(k), np.arange(k)] = np.sqrt(A[:k, :half] ** 2 @ (4.0 * dl * (dm / s)))
        return dgeqrf(F, overwrite_a=1)[0]

    return factor


def _lp_box(A, b, c, u0=None, upper=True, factor=None):
    """Solve min c^T u subject to A u = b and 0 <= u <= 1 (0 <= u alone if not upper); never raises.

    An infeasible-start primal-dual interior-point method with Mehrotra's
    predictor-corrector steps (Mehrotra, SIAM J. Optim. 2, 1992; Wright,
    Primal-Dual Interior-Point Methods, 1997). The rows of A are scaled to
    unit length and c to unit maximum. Each step solves the m x m normal
    equations A D A^T dy = r, m the number of rows, through the triangular
    QR factor of D^(1/2) A^T from LAPACK's dgeqrf, which keeps the accuracy
    that forming A D A^T would square away as D spreads near the optimum;
    factor(A, d), if given, returns instead the dgeqrf output of another
    matrix F with F^T F = A D A^T, for the A with its rows scaled.
    With upper bounds the pairs (u, 1 - u) and their slacks are held
    stacked, so each ratio test is one _max_step; without them the state is
    u and its slacks alone, half the size. The iterates start at u0
    (default 0.5 everywhere), which must lie strictly inside the bounds; a
    start that also solves A u = b saves steps.

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
    # x = (u, v) with v = 1 - u, slacks sz = (s, z) and steps dx = (du, -du);
    # without upper bounds x = u, sz = s and dx = du, and v and z are empty
    s = np.maximum(c, 0.0) + 1.0
    sz = np.concatenate((s, s - c)) if upper else s
    s, z = sz[:n], sz[n:]
    bnorm, cnorm = 1.0 + np.linalg.norm(b), 1.0 + np.linalg.norm(c)
    best = (math.inf, u, y, 0)
    for iterations in range(1, 101):
        x = np.concatenate((u, 1.0 - u)) if upper else u
        v = x[n:]
        rp = b - A @ u
        rd = c - A.T @ y - s + z if upper else c - A.T @ y - s
        pobj, dobj = float(c @ u), float(b @ y - z.sum())
        gap = max(abs(pobj - dobj) / max(1.0, abs(pobj)), np.linalg.norm(rp) / bnorm, np.linalg.norm(rd) / cnorm)
        if gap < best[0]:
            best = (gap, u, y, iterations)
        if gap <= 1e-10 or iterations - best[3] >= 5:
            break
        mu = (u @ s + v @ z) / x.size
        d = 1.0 / (s / u + z / v) if upper else u / s
        qr = dgeqrf(np.sqrt(d)[:, None] * A.T, overwrite_a=1)[0] if factor is None else factor(A, d)
        R = np.asfortranarray(qr[: b.size])  # A D A^T = R^T R; dtrtrs reads only the upper triangle
        if not np.all(np.diag(R)):
            break  # singular normal equations

        def direction(r):
            # Newton step whose complementarity products x sz aim at r
            h = rd - r[:n] / u + r[n:] / v if upper else rd - r / u
            dy = dtrtrs(R, dtrtrs(R, rp + A @ (d * h), trans=1)[0])[0]
            du = d * (A.T @ dy - h)
            dx = np.concatenate((du, -du)) if upper else du
            return dx, dy, (r - sz * dx) / x

        dx, dy, dsz = direction(-x * sz)
        ap = min(1.0, _max_step(x, dx))
        ad = min(1.0, _max_step(sz, dsz))
        xa, sa = x + ap * dx, sz + ad * dsz
        mu_aff = (xa[:n] @ sa[:n] + xa[n:] @ sa[n:]) / x.size
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
    """Largest t >= 0 with x + t dx >= 0 (inf when dx >= 0), for x > 0.

    t is the least x / -dx over the entries with dx < 0. The entry where
    dx / x is least gives it, found by one division and one argmin with no
    masked copies; only where other entries lie within rounding of that
    ratio are their quotients compared too, so t is the exact least
    quotient.
    """
    r = dx / x
    i = r.argmin()
    if not r[i] < 0.0:
        return math.inf
    near = r <= r[i] * (1.0 - 1e-15)
    if np.count_nonzero(near) == 1:
        return float(x[i] / -dx[i])
    return float((x[near] / -dx[near]).min())


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


def _damped_newton(fv, V, norm):
    """Minimise sum w|fv - V c|^p for the weights w and the 1 < p < inf of norm; returns (coeffs, iterations).

    A V with no column returns (empty, 0). At p = 2 the minimiser is the
    weighted least-squares fit, returned as the one iterate with no Newton
    step. Otherwise the reweighted least-squares fit is c + (p - 1) *
    (Newton step), so each step starts at the Newton length 1 / (p - 1)
    and is halved until the objective decreases. From p = _LP_START_P on,
    where the L2 fit lies far from the near-minimax argmin, the start is
    whichever of the L2 fit and the p = inf fit of weights w^(1/p)
    (_lp_fit) has the smaller objective; an exact L2 fit is kept as it is.
    The correction is solved for the residual, so its rounding scales with
    r rather than f. Every power is taken of r / max|r|, never of r, so
    none underflows at large p: the sums and gradients by norm
    (DiscreteNorm._psum, _pgrad), the IRLS weights here. The weights
    |r|^(p-2) are floored at 1e-12 max|r| where they shape the step, while
    the right-hand side keeps the true gradient, so the fixed point is the
    true minimiser. Once no halved step decreases the objective, its
    rounding hides the rest of the descent: a gradient of about sqrt(eps)
    relative moves it by only eps. Full Newton steps then go on while each
    halves the largest gradient component, which rounds at eps of its own
    size. The loop stops when the residual, or the step, is within
    rounding of f, or when a Newton step no longer halves the gradient.
    """
    if not V.shape[1]:
        return np.zeros(0), 0  # no coefficient to fit
    w, p = norm.weights, norm.p
    tiny = 64.0 * np.finfo(float).eps * float(np.max(np.abs(fv)))
    sw = np.sqrt(w)
    coeffs = _lstsq(V * sw[:, None], fv * sw)  # weighted L2 fit
    if p == 2.0:
        return coeffs, 1
    r = fv - V @ coeffs
    if p >= _LP_START_P and float(np.max(np.abs(r))) > tiny:
        lp = _lp_fit(math.inf, [(V, fv, w ** (1.0 / p))])[0]
        r_lp = fv - V @ lp
        m = max(float(np.max(np.abs(r))), float(np.max(np.abs(r_lp))))
        if norm._psum(np.abs(r_lp / m)) < norm._psum(np.abs(r / m)):
            coeffs = lp
    polish = None  # the scale of r and the gradient, once the objective stops decreasing
    for iterations in range(1, 501):
        r = fv - V @ coeffs
        rmax = float(np.max(np.abs(r)))
        if rmax <= tiny:
            return coeffs, iterations
        rn = r / rmax
        a = np.abs(rn)
        phi = norm._psum(a)
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
        if polish is None:
            while t * vmax > tiny:
                if norm._psum(np.abs((r - t * vd) / rmax)) < phi:
                    break
                t *= 0.5
            else:
                # the objective stopped decreasing: from here on the gradient ranks full Newton steps
                polish = rmax, float(np.max(np.abs(V.T @ norm._pgrad(rn))))
        if polish is not None:
            t = 1.0 / (p - 1.0)
            g = float(np.max(np.abs(V.T @ norm._pgrad((r - t * vd) / polish[0]))))
            if t * vmax <= tiny or g > 0.5 * polish[1]:
                return coeffs, iterations
            polish = polish[0], g
        coeffs = coeffs + t * d
    raise ConvergenceError("damped Newton did not converge within 500 iterations")


@dataclass(frozen=True)
class JacksonParams:
    """Smoothing kernel order q (integer > 2) and frequency m >= 1."""

    q: int = 3
    m: int = 2

    def __post_init__(self):
        _integer(self.q, "q", 3)
        _integer(self.m, "m", 1)


def jackson_degree_bound(params: JacksonParams) -> int:
    """Degree bound (q+2)(m-1) of the smoothed polynomial."""
    return (params.q + 2) * (params.m - 1)


def _kernel_values(ts: np.ndarray, q: int, m: int) -> np.ndarray:
    """Even trigonometric kernel (sin(mt/2)/sin(t/2))^(2(q+2)) at the array ts in [0, pi].

    The removable singularity at t = 0 takes the limit value m^(2(q+2)).
    """
    den = np.sin(ts / 2.0)
    num = np.sin(m * ts / 2.0)
    ratio = np.full(ts.shape, float(m))
    nz = den != 0.0
    ratio[nz] = num[nz] / den[nz]
    return ratio ** (2 * (q + 2))


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
    return _jacobi_series(moments / moments[0] * expand_in_jacobi(f, bound))


_JACKSON_T_NODES = 256
_JACKSON_QUAD = 2048


def _jackson_by_translation(f, params: JacksonParams, xs) -> np.ndarray:
    """The image of jackson_operator at xs from its definition, a reference independent of the multipliers.

    _sym_core(f, cos t, cap _JACKSON_QUAD) is averaged against K(t) sin^5 t by
    a _JACKSON_T_NODES-point Legendre rule on [0, pi], normalised on the same
    rule; at x = 1 the image of P_k is the multiplier theta_k. The t-integrand
    is analytic for a polynomial f, where 256 nodes reach rounding level; the
    kink of |x| leaves an error of about 1e-8.
    """
    rule = gauss_legendre(_JACKSON_T_NODES)
    ts = (rule.nodes + 1.0) * (math.pi / 2.0)
    wts = rule.weights * _kernel_values(ts, params.q, params.m) * np.sin(ts) ** 5
    translated = _sym_core(_as_callable(f), np.cos(ts), np.asarray(xs, dtype=float), _JACKSON_QUAD)
    return np.cumsum(wts[:, None] * translated, axis=0)[-1] / ordered_sum(wts)


@dataclass(frozen=True)
class KFunctionalResult:
    """Infimal value and the witness polynomial realizing it."""

    value: float
    witness: PolynomialRep
    delta: float
    max_deg: int
    iterations: int
    gap: Optional[float] = None


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


def k_functional(f, delta, params, max_deg: int = 32, quad_n: int = NORM_NODES) -> KFunctionalResult:
    """K-functional inf over polynomials g of ||f - g|| + delta^2 ||Dg||.

    The witness, of degree at most max_deg <= 64, is parameterized by
    coefficients c in the (2,2) Jacobi basis, where the second-order operator
    acts diagonally. One norm, discrete_norm(params, quad_n), serves the
    solvers and the reported value, so K at delta = 0 is E_{max_deg+1} on
    that rule. The value is recomputed from, and the
    witness returned as, a PolynomialRep in Chebyshev form. The minimiser
    of F(c) is found by:

    - p = 2, at every alpha: a scan of the Tikhonov path argmin ||f - g||^2
      + s ||Dg||^2, exact in the basis of the pencil of the two Gram
      matrices (_path_solver), as one array op, refined at the root of
      F'(s) by _log_root where F' changes sign next to the first minimum;
    - 1 < p < inf otherwise: damped Newton steps, each halved until F
      decreases, started off the kinks of F (_newton_k), or at delta = 0
      by best_approx's solver;
    - p in {1, inf}: the exact minimiser on the rule, through the dual of
      the linear program by the interior-point method of best_approx, with
      one block of rows for each of the two norms.

    In every space the best constant, the minimiser on the face Dg = 0, is
    a candidate too (weighted median at p = 1, exact minimax constant at
    p = inf, a damped Newton fit otherwise); it keeps K exact to rounding
    on constants, and K never above its error at any delta. The zero,
    projection, constant and solver candidates are scored on J, as norm(fv
    - J^T c) + delta^2 norm(J^T (lam c)), and only the best becomes a
    polynomial g. The reported value, norm(f - g) + delta^2 norm(Dg), is
    recomputed from g, so it never exceeds any candidate's by more than the
    rounding of those scores. It equals weighted_norm(f - g, params,
    quad_n) + delta^2 weighted_norm(Dg, params, quad_n) exactly, but reuses
    the samples of f.
    quad_n must be at least max_deg + 1: on fewer nodes the witness is not
    determined and K would be rounding noise. iterations counts the
    solver's steps: Newton steps (0 when the best constant is shown to be
    optimal), interior-point steps, or, at p = 2, the evaluations of the
    path slope by _log_root, the two at the ends of its bracket included (0
    when the scan minimum is at an end of the scan).
    gap is the interior-point solve's final gap at p in {1, inf}, whichever
    candidate wins, and None otherwise. delta^2 is capped at 1e300, far past
    the face threshold (_const_face), where K is flat at the best constant.

    In every space, f exactly even or odd on the rule is solved on the half
    x > 0 of the rule and on the rows of J of its parity (_fold): the
    solvers and the descent off the face Dg = 0 see only those, and the
    other coefficients are 0. The candidates are still scored, and the
    value recomputed, on the whole rule.
    """
    delta = _check_delta(delta)
    max_deg = _integer(max_deg, "max_deg", 0, MAX_WITNESS_DEG)
    params = _as_params(params)
    quad_n = _integer(quad_n, "quad_n", 1)
    if quad_n < max_deg + 1:
        # fewer nodes than witness coefficients leave the fit underdetermined
        raise InvalidArgumentError(f"quad_n must be at least max_deg + 1 = {max_deg + 1}, got {quad_n}")
    prep = _prepared(f)
    return prep.slot("K", (params, max_deg, quad_n), lambda: _k_setup(prep, params, max_deg, quad_n))(delta)


def _k_setup(prep, params, max_deg, quad_n):
    """The delta-free work of k_functional, as the function of delta that finishes it.

    Done here once: the samples of f, J, the projection c_proj and the
    scores of the candidates that do not depend on delta (zero, projection
    and the best constant). At p = 2 also the basis and scan of the path
    (_path_solver); at other 1 < p < inf the face test of _newton_k at the
    best constant (_const_face). On a fold (_fold), at every p, the solvers
    and _const_face get the half rule and the rows of J, lam, c_proj and the
    constant of f's parity; their coefficients are widened with zeros.
    For an odd f the face Dg = 0 of the odd rows is the point 0: the
    constant there is 0, and the descent takes every odd row.
    """
    norm = discrete_norm(params, quad_n)
    xs = norm.nodes
    fv = prep(xs)
    J = jacobi_matrix(max_deg, xs)
    lam = _d_eigenvalues(max_deg)
    p = params.p
    c_proj = expand_in_jacobi(prep, max_deg, n_nodes=max(int(quad_n), NORM_NODES))
    const = np.zeros(max_deg + 1)
    const[0] = _best_constant(fv, norm)
    candidates = [np.zeros(max_deg + 1), c_proj, const]

    # on a fold the solvers take the half rule and the rows of f's parity
    fold = _fold(xs, norm.weights, fv)
    half, rows = (slice(None),) * 2 if fold is None else (fold[0], np.arange(fold[1], max_deg + 1, 2))
    sv, sJ, slam, sconst = fv[half], J[rows][:, half], lam[rows], const[rows]
    snorm = DiscreteNorm(p, xs[half], norm.weights[half])
    if p == 2.0:
        solve = _path_solver(sv, sJ, slam, snorm.weights)
    elif 1.0 < p < math.inf:
        face = _const_face(sv, sJ, slam, snorm, sconst)
        solve = lambda d2: _newton_k(sv, sJ, slam, snorm, d2, c_proj[rows], sconst, face) + (None,)
    else:
        block = (sJ.T, sv, snorm.weights)

        def solve(d2):
            blocks = [block, (sJ.T * slam, np.zeros_like(sv), d2 * snorm.weights)] if d2 > 0.0 else [block]
            return _lp_fit(p, blocks)

    # the candidates are scored on J; the winner's value is recomputed from
    # its Chebyshev form, so that it is the public norm at the witness
    C = np.array(candidates)
    fixed = [(norm(r), norm(u)) for r, u in zip(fv - C @ J, (C * lam) @ J)]

    def at(delta):
        d2 = min(delta * delta, 1e300)  # K is flat past the face threshold
        c, iterations, gap = solve(d2)
        # the product of all candidates, the solver's widened with zeros on
        # a fold: a row alone may round differently
        C = np.array(candidates + [np.zeros(max_deg + 1)])
        C[-1, rows] = c
        r, u = fv - C @ J, (C * lam) @ J
        scores = [nr + d2 * nu for nr, nu in fixed] + [norm(r[-1]) + d2 * norm(u[-1])]
        best_poly = _jacobi_series(C[int(np.argmin(scores))])
        # g and Dg in one Clenshaw pass, over their coefficients as the two
        # columns of one array: Dg has g's length
        gv, dgv = ncheb.chebval(xs, np.stack((best_poly.cheb, apply_D_poly(best_poly).cheb), axis=1))
        best_val = norm(fv - gv) + d2 * norm(dgv)
        return KFunctionalResult(float(best_val), best_poly, delta, max_deg, iterations, gap)

    return at


def _path_solver(fv, J, lam, rw):
    """The K minimum at p = 2 as a function of d2 = delta^2: (coefficients, slope evaluations, None).

    Both norms are quadratic, so the minimiser lies on the Tikhonov path
    argmin A + s B, A = sum rw (fv - J^T c)^2, B = sum rw (J^T (lam c))^2:
    c_s = T a / (1 + s sigma^2), for T^T G T = I and T^T L G L T =
    diag(sigma^2), G = J diag(rw) J^T, L = diag(lam), and a = T^T J (rw fv).
    a, tail2 = A(T a) and the scan terms are built here once.
    """
    G = (J * rw) @ J.T
    mu, T = eigh(lam[:, None] * G * lam, G)
    sigma = np.sqrt(np.maximum(mu, 0.0))
    a = T.T @ (J @ (rw * fv))
    tail2 = float(np.cumsum(rw * (fv - (T @ a) @ J) ** 2)[-1])

    def path_terms(s):
        # A - tail2 = sum (a - b_s)^2 and B = sum (sigma b_s)^2, c_s = T b_s, for
        # a number s or along a 1-d array of s: each s takes the same operations
        b_s = a / (1.0 + np.asarray(s)[..., None] * sigma * sigma)
        return ((a - b_s) ** 2).sum(axis=-1), ((sigma * b_s) ** 2).sum(axis=-1), b_s

    # the scan, one call over its 362 points
    ss = np.concatenate(([0.0], np.logspace(-18.0, 18.0, 361)))
    aa, bb, bs = path_terms(ss)
    root_a, root_b = np.sqrt(tail2 + aa), np.sqrt(bb)

    def solve(d2):
        scan = root_a + d2 * root_b
        idx = int(np.argmin(scan))  # first minimum
        best_s_val, best_s_b = float(scan[idx]), bs[idx]
        iterations = 0  # evaluations of the path slope
        if 0 < idx < ss.size - 1:
            # A' = -s B' along the path, so F'(s) has the sign of
            # h(s) = s sqrt(B) - d2 sqrt(A), s ||Dg_s|| - d2 ||f - g_s||.
            # F is unimodal on the path, the convex Pareto front of the two
            # norms, so where h changes sign on the bracket its root is the
            # minimum; where it does not, F is flat to rounding and the scan
            # minimum stands. For idx = 1 the bracket's lower end, s = 0, has
            # no logarithm and is taken one scan step below ss[1].
            lo = float(ss[idx - 1]) if idx > 1 else float(ss[1] * ss[1] / ss[2])

            def slope(s):
                nonlocal iterations
                iterations += 1
                aa_s, bb_s, _ = path_terms(s)
                return s * math.sqrt(bb_s) - d2 * math.sqrt(tail2 + aa_s)

            s_star = _log_root(slope, lo, float(ss[idx + 1]))
            if s_star is not None:
                aa_s, bb_s, b_s = path_terms(s_star)
                if math.sqrt(tail2 + aa_s) + d2 * math.sqrt(bb_s) < best_s_val:
                    best_s_b = b_s
        return T @ best_s_b, iterations, None

    return solve


def _best_constant(fv, norm):
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
    return float(_damped_newton(fv, np.ones((fv.size, 1)), norm)[0][0])


def _const_face(fv, J, lam, norm, const):
    """The steepest descent off the face Dg = 0 at the best constant const: (sigma, v), as _steepest gives them.

    The face is spanned by the rows of J where lam is 0, and v moves the
    others. F decreases along v from const exactly when d2 < sigma; sigma
    is 0 when f is constant to rounding. Neither depends on d2.
    """
    r0 = fv - const @ J
    if float(np.max(np.abs(r0))) <= 64.0 * np.finfo(float).eps * float(np.max(np.abs(fv))):
        return 0.0, None  # f is constant to rounding
    free = lam != 0.0  # the rows off the face
    sigma, v = _steepest((lam[:, None] * J)[free], (J @ norm._derivatives(r0)[0])[free], norm)
    if v is None:
        return sigma, None
    out = np.zeros(lam.size)
    out[free] = v
    return sigma, out


def _newton_k(fv, J, lam, norm, d2, c_proj, const, face):
    """Minimise F(c) = N(fv - J^T c) + d2 N(J^T (lam c)) for the discrete norm N, 1 < p < inf.

    Returns (coeffs, iterations); iterations counts Newton steps. F has
    kinks where either norm vanishes: on the face Dg = 0 of the constants,
    and at the exact fit, which the projection c_proj is for a polynomial
    f. Newton steps cannot leave a kink, and approach one only linearly, so
    both are settled first by the steepest descent direction there
    (_steepest); face = (sigma, v) is that of the best constant const, from
    _const_face:

    - if no direction off the face lowers F (d2 >= sigma), const is the
      minimiser and no Newton step is taken (an exact constant fit included);
    - at d2 = 0, F is E's objective, which _damped_newton minimises with
      its large-p start; Newton runs only where that raises;
    - otherwise F is minimised along v from const, and along the steepest
      direction from c_proj, and Newton starts from the best of these
      points and c_proj.

    Each Newton step solves the Hessian system, assembled as J diag(.) J^T,
    by least squares, because the Hessian of a 1-homogeneous norm is
    singular along its argument; the weights |v|^(p-2) are floored at
    1e-12 max|v| (DiscreteNorm._derivatives). The step is halved until F
    decreases. The loop stops when the Newton decrement, or the decrease of
    F in an accepted step, is at rounding level relative to F, when no
    halved step decreases F, or after 100 steps.
    """
    LJ = lam[:, None] * J

    def objective(c):
        return norm(fv - J.T @ c) + d2 * norm(LJ.T @ c)

    def descend_from(c, v):
        # F is convex along c + t v, t >= 0, and decreasing at t = 0
        return c + _line_min(lambda t: objective(c + t * v), objective(c)) * v

    sigma, v = face
    if d2 >= sigma:
        return const, 0
    if d2 == 0.0:
        with contextlib.suppress(ConvergenceError):  # near p = 1, Newton below may still converge
            return _damped_newton(fv, J.T, norm)
    starts = [c_proj, descend_from(const, v)]
    u = LJ.T @ c_proj
    if d2 > 0.0 and np.any(u):
        sigma, v = _steepest(J, -d2 * (LJ @ norm._derivatives(u)[0]), norm)
        if sigma > 1.0:  # F decreases along v even from an exact fit
            starts.append(descend_from(c_proj, v))

    c = min(starts, key=objective)
    r, u = fv - J.T @ c, LJ.T @ c
    F = norm(r) + d2 * norm(u)

    def derivatives(v, B):
        # gradient and Hessian of N(B^T c) in c; zero where N vanishes
        n = norm(v)
        if n == 0.0:
            return 0.0, 0.0
        g, h = norm._derivatives(v)
        g = B @ g
        return g, (B * h) @ B.T - (norm.p - 1.0) / n * np.outer(g, g)

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
            return c, iterations  # F stopped decreasing
        c = c + t * step
        r, u = r - t * dr, u + t * du
        drop, F = F - F_new, F_new
        # squared Newton decrement / 2 <= 1e-15 F, or a decrease at rounding level
        if -float(grad @ step) <= 2e-15 * F or drop <= 1e-13 * F:
            return c, iterations
    return c, iterations


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
    z, _ = _damped_newton(u0, V, norm)
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


def bernstein_markov_ratios(poly: PolynomialRep, params, rho: float = 0.5, n_nodes: int = NORM_NODES):
    """Scaled derivative and norm-shift ratios of a polynomial.

    Returns (||P'||_{p, alpha+1/2} / (n ||P||_{p, alpha}),
             ||P||_{p, alpha} / (n^{2 rho} ||P||_{p, alpha+rho}))
    with n = degree + 1. The zero polynomial has no meaningful ratio.
    """
    params = _as_params(params)
    rho = _real(rho, "rho")
    if not (math.isfinite(rho) and rho >= 0.0):
        raise InvalidArgumentError(f"rho must be finite and nonnegative, got {rho!r}")
    if poly.is_zero():
        raise InvalidArgumentError("ratios are undefined for the zero polynomial")
    n = poly.degree + 1
    base = weighted_norm(poly, params, n_nodes)
    shifted = weighted_norm(poly, SpaceParams(params.p, params.alpha + rho), n_nodes)
    deriv = weighted_norm(poly.derivative(), SpaceParams(params.p, params.alpha + 0.5), n_nodes)
    return deriv / (n * base), base / (n ** (2.0 * rho) * shifted)
