"""Best approximation, kernel smoothing, and the K-functional."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebvander

import smoothness_lab
from smoothness_lab import (
    Config,
    EvaluationError,
    FunctionHandle,
    InvalidArgumentError,
    JacksonParams,
    PolynomialRep,
    SpaceParams,
    apply_D_poly,
    best_approx,
    corpus,
    expand_in_jacobi,
    fourier_jacobi_coeff,
    gamma_norm,
    gauss_legendre,
    jackson_degree_bound,
    jackson_operator,
    jacobi_poly,
    k_functional,
    make_grid,
    modulus,
    validate_params,
    weighted_norm,
)
import smoothness_lab.approx as approx_module
import smoothness_lab.space as space_module
from smoothness_lab.approx import (
    _best_constant,
    _const_face,
    _fold,
    _jackson_by_translation,
    _kernel_values,
    _log_root,
    _lp_box,
    _lstsq,
    _max_step,
    _newton_k,
    _pair_factor,
)
from smoothness_lab.jacobi import _cheb_matrix, _jacobi_series, jacobi_matrix
from smoothness_lab.quadrature import gauss_jacobi, ordered_sum
from smoothness_lab.space import discrete_norm, sample

P21 = SpaceParams(2.0, 1.0)

# best degree-(n-1) errors for |x| at the 512-point projection grid
ABS_ERRORS = {
    1: 0.21955999638802273,
    2: 0.21955999638802273,
    4: 0.06531162164039228,
    8: 0.024055794463311714,
    16: 0.009054492396606908,
    32: 0.003311445646402645,
}


def test_projection_error_of_square():
    # x^2 = P_0/7 + (6/7) P_2, so the degree-1 error is (6/7) sqrt(h_2)
    res = best_approx(lambda x: x * x, 2, P21)
    assert res.method == "irls-grid"
    assert res.value == pytest.approx((24.0 / 7.0) / math.sqrt(405.0), rel=1e-12)


def test_projection_error_of_odd_function():
    # constants cannot see an odd function
    res = best_approx(lambda x: np.asarray(x, dtype=float), 1, P21)
    assert res.value == pytest.approx(math.sqrt(16.0 / 105.0), rel=1e-12)


def _l2_projection_error(f, n, params, grid_n=256):
    """E_n at p = 2 by projection: the (2 alpha, 2 alpha) Jacobi series of f on best_approx's solve rule, measured on its report rule.

    The solve rule has weight (1-x^2)^(2 alpha), under which that basis is
    orthogonal, so each coefficient is one quotient of inner products.
    """
    norm = discrete_norm(params, max(grid_n, 2 * n))
    a = 2.0 * params.alpha
    basis = jacobi_matrix(n - 1, norm.nodes, a, a)
    numer = np.cumsum(basis * (norm.weights * sample(f, norm.nodes))[None, :], axis=1)[:, -1]
    denom = np.cumsum(basis * basis * norm.weights[None, :], axis=1)[:, -1]
    cheb = np.zeros(n)
    for k, c in enumerate(numer / denom):
        col = jacobi_poly(k, a, a).cheb
        cheb[: col.size] += c * col
    proj = PolynomialRep(cheb)
    return weighted_norm(lambda x: sample(f, x) - proj(x), params)


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.2])
def test_p2_best_approx_is_the_projection(alpha):
    # p = 2 runs the damped Newton solver of every 1 < p < inf; its one
    # iterate, the weighted least-squares fit, is the projection (an odd f
    # at n = 1 has no column and takes none)
    params = SpaceParams(2.0, alpha)
    for seed in (7, 11):
        for e in corpus(seed):
            fnorm = weighted_norm(e.handle, params)
            for n in range(1, 65):
                res = best_approx(e.handle, n, params)
                assert res.method in ("irls-grid", "exact-fit"), (e.label, n)
                if res.method == "irls-grid" and n > 1:
                    assert res.diagnostics["iterations"] == 1, (seed, e.label, n)
                assert abs(res.value - _l2_projection_error(e.handle, n, params)) <= 1e-14 * fnorm, (seed, e.label, n)


@pytest.mark.parametrize("n,value", sorted(ABS_ERRORS.items()))
def test_kink_errors_frozen(n, value):
    res = best_approx(lambda x: np.abs(x), n, P21, grid_n=512)
    assert res.value == pytest.approx(value, abs=1e-10)


def test_kink_errors_decrease():
    vals = [best_approx(lambda x: np.abs(x), n, P21, grid_n=512).value for n in (1, 2, 4, 8, 16, 32)]
    assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < vals[1] / 4.0


def test_polynomials_are_reproduced():
    res = best_approx(lambda x: 1.0 - x + 3.0 * x * x, 3, P21)
    assert res.value <= 1e-12
    assert res.argmin.degree <= 2


def test_sup_norm_lp():
    res = best_approx(lambda x: np.abs(x), 3, SpaceParams(math.inf, 1.0))
    assert res.method == "lp-interior-point"
    assert 0.0 < res.value < weighted_norm(lambda x: np.abs(x), SpaceParams(math.inf, 1.0))
    assert res.diagnostics["iterations"] >= 1
    assert res.diagnostics["gap"] <= 1e-9


def test_intermediate_p_irls():
    res = best_approx(lambda x: np.abs(x), 3, SpaceParams(1.5, 0.8))
    assert res.method == "irls-grid"
    assert res.value > 0.0
    assert res.argmin.degree <= 2


P15 = SpaceParams(1.5, 11.0 / 12.0)
P3 = SpaceParams(3.0, 13.0 / 12.0)
NEWTON_CASES = {
    "|x|": lambda x: np.abs(x),
    "(1-x)^0.75": lambda x: np.maximum(1.0 - x, 0.0) ** 0.75,
    "sin(3x)": lambda x: np.sin(3.0 * x),
    "x": lambda x: np.asarray(x, dtype=float) + 0.0,
}


@pytest.mark.parametrize("params", [P15, P3], ids=["p1.5", "p3"])
@pytest.mark.parametrize("label", sorted(NEWTON_CASES))
def test_newton_irls_converges_to_a_stationary_point(params, label):
    f = NEWTON_CASES[label]
    p = params.p
    norm = weighted_norm(f, params)
    rule = gauss_jacobi(512, p * params.alpha)
    fv = f(rule.nodes)
    prev = math.inf
    for n in range(1, 17):
        res = best_approx(f, n, params, grid_n=512)
        assert res.value <= norm * (1.0 + 1e-9)
        assert res.value <= prev + 1e-9 * norm
        prev = res.value
        r = fv - res.argmin(rule.nodes)
        if np.max(np.abs(r)) < 1e-6 * np.max(np.abs(fv)):
            continue  # a residual this close to rounding has no resolvable gradient
        V = chebvander(rule.nodes, n - 1)
        grad = V.T @ (rule.weights * np.abs(r) ** (p - 1.0) * np.sign(r))
        scale = ordered_sum(rule.weights * np.abs(r) ** (p - 1.0)) * np.max(np.abs(V))
        assert np.max(np.abs(grad)) <= 1e-8 * scale, n


@pytest.mark.parametrize("params,n", [(P15, 8), (P3, 9)], ids=["p1.5-n8", "p3-n9"])
def test_newton_irls_goes_on_where_the_objective_stops_ranking_steps(params, n):
    # (1-x)^0.75 leaves a residual of 2% of f, but no halved step lowered the
    # rounded objective once the gradient was near sqrt(eps); Newton steps
    # that halve the gradient take it to rounding
    f = NEWTON_CASES["(1-x)^0.75"]
    p = params.p
    rule = gauss_jacobi(512, p * params.alpha)
    r = f(rule.nodes) - best_approx(f, n, params, grid_n=512).argmin(rule.nodes)
    V = chebvander(rule.nodes, n - 1)
    grad = V.T @ (rule.weights * np.abs(r) ** (p - 1.0) * np.sign(r))
    scale = ordered_sum(rule.weights * np.abs(r) ** (p - 1.0)) * np.max(np.abs(V))
    assert np.max(np.abs(grad)) <= 1e-10 * scale


@pytest.mark.parametrize("shape,rank", [((40, 7), 7), ((6, 6), 4), ((5, 9), 5)], ids=["tall", "singular", "wide"])
def test_lstsq_is_the_minimum_norm_least_squares_solution(shape, rank):
    # the Newton solves take dgelsy's rank-revealing QR in place of an SVD;
    # on a well-separated rank both give the pseudo-inverse solution
    rng = np.random.default_rng(3)
    M = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
    rhs = rng.standard_normal(shape[0])
    ref = np.linalg.lstsq(M, rhs, rcond=None)[0]
    assert np.max(np.abs(_lstsq(M, rhs) - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("label", ["|x|", "(1-x)^0.75"])
def test_newton_irls_iterations_at_p3(label):
    for n in range(1, 33):
        res = best_approx(NEWTON_CASES[label], n, P3, grid_n=512)
        assert res.method == "irls-grid"
        assert res.diagnostics["iterations"] <= 50, n


def test_damped_newton_at_p20_takes_powers_of_the_scaled_residual():
    # at p = 20, |r|^(p-2) of a residual near rounding underflows to 0 and
    # the step was 0/0 (a RuntimeWarning, an error under pytest); powers of
    # r / max|r| do not underflow, so E_32(sin 3x) reaches rounding
    params = SpaceParams(20.0, 1.225)
    res = best_approx(lambda x: np.sin(3.0 * x), 32, params)
    assert res.method == "irls-grid" and res.value <= 1e-13
    for e in corpus(7):
        fnorm = weighted_norm(e.handle, params)
        errors = [best_approx(e.handle, n, params).value for n in (1, 4, 8, 16, 32)]
        assert errors[0] <= fnorm * (1.0 + 1e-9), e.label
        assert all(b <= a + 1e-9 * fnorm for a, b in zip(errors, errors[1:])), e.label


@pytest.mark.parametrize(
    "params", [P21, SpaceParams(1.0, 0.75), P15, P3, SpaceParams(math.inf, 1.25)], ids=["p2", "p1", "p1.5", "p3", "pinf"]
)
def test_k_value_is_recomputed_bitwise_from_its_witness(params):
    # K evaluates g and Dg in one Clenshaw pass over two coefficient
    # columns; the value is bitwise that of evaluating the witness and its
    # image apply_D_poly(witness) one by one
    cfg = Config()
    norm = discrete_norm(params, cfg.norm_nodes)
    for e in corpus(7):
        fv = sample(e.handle, norm.nodes)
        for delta in cfg.deltas:
            res = k_functional(e.handle, delta, params, cfg.kdeg)
            dg = apply_D_poly(res.witness)(norm.nodes)
            assert res.value == norm(fv - res.witness(norm.nodes)) + delta * delta * norm(dg), (e.label, delta)


def _p40(share):
    # p = 40 at share of its admissible alpha interval
    lo, hi = 1.0 - 1.0 / 80.0, 1.5 - 1.0 / 80.0
    return SpaceParams(40.0, lo + share * (hi - lo))


@pytest.mark.parametrize("share", [0.125, 0.5, 0.875])
def test_k_functional_at_p40_takes_scaled_powers_in_its_hessian(share):
    # at p = 40 the Hessian weight |v|^(p-2) / N(v)^(p-1) of _newton_k
    # underflowed to 0/0; its powers are now taken of v / max|v| as the
    # gradient's are. No K warns, and every solve, started from the better
    # of the L2 and p = inf fits, converges
    params = _p40(share)
    cfg = Config()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for e in corpus(7):
            for d in cfg.deltas:
                k_functional(e.handle, d, params, cfg.kdeg)


@pytest.mark.parametrize(
    "params", [SpaceParams(1.5, 0.9), SpaceParams(3.0, 1.1), SpaceParams(40.0, 1.2375)], ids=["p1.5", "p3", "p40"]
)
def test_low_degree_k_is_finite_and_below_its_witnesses(params):
    # at max_deg = 1, and on a fold at max_deg 1 and 2 for an odd f and 2
    # and 3 for an even f, the face test has one free row: its hyperplane
    # is a point, and the Newton fit on it has no column, where LAPACK's
    # dgelsy raised "unexpected array size"
    fs = [(e.label, e.handle) for e in corpus(7)] + [("exp(x)", np.exp), ("x*x*x", lambda x: x * x * x)]
    for max_deg in range(4):
        for label, f in fs:
            fnorm = weighted_norm(f, params)
            proj = _jacobi_series(expand_in_jacobi(f, max_deg, n_nodes=256))
            proj_err = weighted_norm(lambda x: sample(f, x) - proj(x), params)
            proj_d = weighted_norm(apply_D_poly(proj), params)
            for delta in (0.0, *Config().deltas):
                k = k_functional(f, delta, params, max_deg).value
                bound = min(fnorm, proj_err + delta * delta * proj_d)
                assert math.isfinite(k) and k <= bound + 1e-12 * fnorm, (max_deg, label, delta)


@pytest.mark.parametrize(
    "params",
    [SpaceParams(1.0, 0.75), P15, P21, P3, SpaceParams(40.0, 1.05), SpaceParams(math.inf, 1.25)],
    ids=["p1", "p1.5", "p2", "p3", "p40", "pinf"],
)
def test_k_at_delta_zero_is_the_best_approximation(params):
    # K(f, 0) minimises norm(f - g) over degree <= max_deg on K's rule,
    # which is best_approx's solve and report rule at 256 nodes. At p = 40
    # _newton_k stopped after one step, 1.5% of ||f|| above E_33(|x|); at
    # delta = 0 K takes E's solver and its large-p start
    tol = 1e-10 if params.p in (1.0, math.inf) else 1e-12
    for e in corpus(7):
        fnorm = weighted_norm(e.handle, params)
        for max_deg in (16, 32):
            k = k_functional(e.handle, 0.0, params, max_deg, 256).value
            e_n = best_approx(e.handle, max_deg + 1, params, 256).value
            assert abs(k - e_n) <= tol * fnorm, (e.label, max_deg)


@pytest.mark.parametrize("share", [0.125, 0.5, 0.875])
def test_best_approx_at_p40_converges_from_the_better_start(share):
    # from the L2 fit alone, damped Newton ran out of its 500 steps at p = 40
    # on 91 of these 768 solves; no E_n raises or warns now, and E_n never
    # increases with n
    params = _p40(share)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for e in corpus(7):
            fnorm = weighted_norm(e.handle, params)
            errors = [best_approx(e.handle, n, params, Config.approx_grid).value for n in range(1, 33)]
            assert errors[0] <= fnorm * (1.0 + 1e-9), e.label
            assert all(b <= a + 1e-9 * fnorm for a, b in zip(errors, errors[1:])), e.label


@pytest.mark.parametrize(
    "params", [P21, SpaceParams(1.0, 0.75), P15, P3, SpaceParams(math.inf, 1.25)], ids=["p2", "p1", "p1.5", "p3", "pinf"]
)
def test_diagnostics_report_grid_and_iterations(params):
    res = best_approx(lambda x: np.abs(x), 4, params)
    assert res.diagnostics["grid_n"] >= 8
    assert res.diagnostics["iterations"] >= 1
    assert ("gap" in res.diagnostics) == (res.method == "lp-interior-point")
    assert res.method == ("lp-interior-point" if params.p in (1.0, math.inf) else "irls-grid")


def test_dimension_validation():
    for bad in (0, 65, True, 2.0):
        with pytest.raises(InvalidArgumentError):
            best_approx(lambda x: x, bad, P21)
    # grid_n is checked before a path is chosen: the exact fit, the
    # projection and the solvers reject the same values the same way
    line = FunctionHandle(eval=lambda x: np.asarray(x, dtype=float) + 0.0, degree=1)
    for f in (lambda x: np.abs(x), line, jacobi_poly(2, 2, 2)):
        for params in (P21, SpaceParams(1.0, 0.75), P3):
            for bad in (0, -5, 2.7, True, "abc", None):
                with pytest.raises(InvalidArgumentError, match="grid_n"):
                    best_approx(f, 4, params, grid_n=bad)


def test_kernel_closed_values():
    kernel = lambda t: float(_kernel_values(np.array([t]), 3, 2)[0])
    assert kernel(math.pi / 2.0) == pytest.approx(32.0, rel=1e-12)
    assert kernel(math.pi) == pytest.approx(0.0, abs=1e-12)
    # removable singularity at t = 0 with limit m^(2(q+2))
    assert kernel(1e-9) == pytest.approx(2.0**10, rel=1e-6)
    assert kernel(0.0) == pytest.approx(2.0**10, rel=1e-12)


def test_kernel_normalizer_unit_frequency():
    # at m = 1 the kernel is identically 1, leaving int sin^5 = 16/15
    assert gamma_norm(JacksonParams(3, 1)) == pytest.approx(16.0 / 15.0, rel=1e-12)


def test_kernel_normalizer_scales_like_m4():
    vals = [gamma_norm(JacksonParams(3, m)) / m**4 for m in (4, 8, 16)]
    assert max(vals) / min(vals) <= 2.0


@pytest.mark.parametrize("q,m,bound", [(3, 2, 5), (3, 3, 10), (4, 2, 6), (3, 1, 0)])
def test_degree_bound(q, m, bound):
    assert jackson_degree_bound(JacksonParams(q, m)) == bound


def test_params_validation():
    with pytest.raises(InvalidArgumentError):
        JacksonParams(2, 2)
    with pytest.raises(InvalidArgumentError):
        JacksonParams(3, 0)
    with pytest.raises(InvalidArgumentError):
        JacksonParams(3, True)


def test_smoothing_output_is_low_degree():
    f = lambda x: np.sin(3.0 * x)
    q = jackson_operator(f, JacksonParams(3, 2))
    assert q.degree <= 5
    for nu in range(6, 12):
        assert abs(fourier_jacobi_coeff(q, nu)) <= 1e-8
    # the smoothing is a constant factor away from best approximation, so at
    # m=2 the error is still large; what must hold is decay as m doubles
    err = {}
    for m in (2, 4, 8):
        qm = jackson_operator(f, JacksonParams(3, m))
        err[m] = weighted_norm(lambda x: f(x) - qm(x), P21)
    assert err[2] == pytest.approx(0.4478390818122227, abs=1e-10)
    assert err[2] < weighted_norm(f, P21)
    assert err[4] < err[2] / 2.0
    assert err[8] < err[4] / 2.0


@pytest.mark.parametrize("q,m", [(3, 2), (3, 3), (4, 2)])
def test_smoothing_matches_t_averaged_translation(q, m):
    # the multipliers against the definition: the symmetric translation of
    # each entry without breaks averaged over a 256-point t-rule (verify
    # compares the declared-degree entries only)
    jp = JacksonParams(q, m)
    xs = make_grid(16)
    for e in corpus(7):
        if not e.handle.breaks:
            want = _jackson_by_translation(e.handle, jp, xs)
            assert np.max(np.abs(jackson_operator(e.handle, jp)(xs) - want)) <= 1e-13, e.label


@pytest.mark.parametrize("q,m", [(3, 2), (3, 3), (4, 2)])
def test_smoothing_is_exact_on_abs(q, m):
    # exact image sum theta_k a_k P_k of |x|: a_k on a 2 x 512-node
    # Gauss-Legendre rule split at the kink, theta_k from the t-averaged
    # translation of P_k at x = 1
    jp = JacksonParams(q, m)
    bound = jackson_degree_bound(jp)
    gl = gauss_legendre(512)
    xs = np.concatenate((gl.nodes - 1.0, gl.nodes + 1.0)) / 2.0
    ws = np.concatenate((gl.weights, gl.weights)) / 2.0 * (1.0 - xs * xs) ** 2
    basis = jacobi_matrix(bound, xs)
    a = (basis @ (ws * np.abs(xs))) / ((basis * basis) @ ws)
    theta = np.array([_jackson_by_translation(jacobi_poly(k, 2, 2), jp, [1.0])[0] for k in range(bound + 1)])
    grid = make_grid(64)
    want = jacobi_matrix(bound, grid).T @ (theta * a)
    got = jackson_operator(FunctionHandle(eval=np.abs, breaks=(0.0,)), jp)(grid)
    assert np.max(np.abs(got - want)) <= 1e-14


def test_k_functional_single_mode():
    # f = x is the first mode; the witness keeps it, paying delta^2 * 6 ||x||
    got = k_functional(lambda x: np.asarray(x, dtype=float), 0.1, P21).value
    assert got == pytest.approx(0.06 * math.sqrt(16.0 / 105.0), abs=1e-11)
    assert got == pytest.approx(0.023421601750775217, abs=1e-12)


def test_k_functional_zero_delta_on_polynomial():
    from smoothness_lab import jacobi_poly

    res = k_functional(jacobi_poly(5, 2, 2), 0.0, P21)
    assert res.value <= 1e-12


def test_witness_from_jacobi_coefficients_matches_jacobi_matrix():
    # the K witness is built in Chebyshev form from Jacobi coefficients; at
    # degree 48 it must still agree with the recurrence values
    x = make_grid(2001)
    c = expand_in_jacobi(lambda x: np.abs(x), 48)
    assert np.max(np.abs(_jacobi_series(c)(x) - jacobi_matrix(48, x).T @ c)) <= 1e-13


def test_k_functional_at_degree_64_stays_below_projection_witness():
    f = lambda x: np.abs(x)
    delta = 0.05
    res = k_functional(f, delta, P21, max_deg=64)
    coeffs = expand_in_jacobi(f, 64)
    proj = _jacobi_series(coeffs)
    proj_val = weighted_norm(lambda x: f(x) - proj(x), P21, 256) + delta**2 * weighted_norm(apply_D_poly(proj), P21, 256)
    assert math.isfinite(res.value)
    assert res.witness.degree <= 64
    assert res.value <= proj_val * (1.0 + 1e-12)


def test_k_functional_never_beats_zero_witness():
    f = lambda x: np.abs(x)
    fnorm = weighted_norm(f, P21)
    assert k_functional(f, 5.0, P21).value <= fnorm + 1e-12


def test_k_functional_value_matches_witness():
    f = lambda x: np.abs(x)
    res = k_functional(f, 0.3, P21)
    w = res.witness
    recomputed = weighted_norm(lambda x: f(x) - w(x), P21) + 0.09 * weighted_norm(apply_D_poly(w), P21)
    assert res.value == pytest.approx(recomputed, rel=1e-9)
    assert w.degree <= res.max_deg
    assert res.delta == 0.3


@given(d1=st.floats(0.0, 3.0), d2=st.floats(0.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_k_functional_monotone(d1, d2):
    lo, hi = sorted((d1, d2))
    f = lambda x: np.abs(x)
    assert k_functional(f, lo, P21).value <= k_functional(f, hi, P21).value + 1e-10


def test_k_functional_validation():
    f = lambda x: np.asarray(x, dtype=float)
    with pytest.raises(InvalidArgumentError):
        k_functional(f, -0.1, P21)
    with pytest.raises(InvalidArgumentError):
        k_functional(f, 0.5, P21, max_deg=65)
    with pytest.raises(InvalidArgumentError):
        k_functional(f, 0.5, P21, max_deg=-1)
    with pytest.raises(InvalidArgumentError):
        k_functional(f, 0.5, P21, max_deg=True)


@pytest.mark.parametrize("params", [P21, P3, SpaceParams(math.inf, 1.25)], ids=["p2", "p3", "pinf"])
def test_k_functional_needs_a_node_per_witness_coefficient(params):
    # on 8 nodes a degree-32 witness is underdetermined and K is rounding noise
    f = lambda x: np.abs(x)
    for quad_n in (8, 32):
        with pytest.raises(InvalidArgumentError, match="quad_n must be at least max_deg \\+ 1 = 33"):
            k_functional(f, 0.3, params, max_deg=32, quad_n=quad_n)
    for bad in (0, True, 40.0):
        with pytest.raises(InvalidArgumentError, match="quad_n must be a positive integer"):
            k_functional(f, 0.3, params, max_deg=32, quad_n=bad)
    assert math.isfinite(k_functional(f, 0.3, params, max_deg=32, quad_n=33).value)


K_SPACES = {"p1": SpaceParams(1.0, 0.75), "p1.5": P15, "p3": P3, "pinf": SpaceParams(math.inf, 1.25)}
P2A = SpaceParams(2.0, 0.8125)  # p = 2 off alpha = 1


@pytest.mark.parametrize("name", sorted(K_SPACES))
def test_k_functional_invariants_in_non_hilbert_spaces(name):
    # K never decreases in delta and never exceeds the zero, projection or
    # best-constant witness (E_1, the best approximation by constants)
    params = K_SPACES[name]
    cfg = Config()
    for e in corpus(7):
        f = e.handle
        norm = weighted_norm(f, params, cfg.norm_nodes)
        coeffs = expand_in_jacobi(f, cfg.kdeg, n_nodes=max(cfg.norm_nodes, 256))
        proj = _jacobi_series(coeffs)
        proj_err = weighted_norm(lambda x: f(x) - proj(x), params, cfg.norm_nodes)
        proj_d = weighted_norm(apply_D_poly(proj), params, cfg.norm_nodes)
        const_err = best_approx(f, 1, params).value
        prev = 0.0
        for delta in cfg.deltas:
            res = k_functional(f, delta, params, cfg.kdeg, cfg.norm_nodes)
            assert res.value >= prev - 1e-9 * norm, (e.label, delta)
            assert res.value <= min(norm, proj_err + delta * delta * proj_d, const_err) + 1e-9 * norm, (e.label, delta)
            if 1.0 < params.p < math.inf:
                assert res.iterations <= 50, (e.label, delta)
            prev = res.value


@pytest.mark.parametrize("params", [*K_SPACES.values(), P21, P2A], ids=[*K_SPACES, "p2", "p2-0.8125"])
def test_k_functional_is_flat_at_the_best_constant_for_large_delta(params):
    # past the face threshold the best constant is the minimiser, in every
    # space: K stays finite, never decreases (to rounding) and never exceeds
    # the best constant's error, up to delta = 1e300, whose square overflows
    norm = discrete_norm(params, 256)
    for e in corpus(7):
        fv = sample(e.handle, norm.nodes)
        const_err = norm(fv - _best_constant(fv, norm))
        prev = 0.0
        for delta in (1.0, 1e3, 1e6, 1e9, 1e12, 1e100, 1e160, 1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                k = k_functional(e.handle, delta, params).value
            assert math.isfinite(k), (e.label, delta)
            assert k >= prev * (1.0 - 1e-12), (e.label, delta)
            assert k <= const_err * (1.0 + 1e-12), (e.label, delta)
            prev = k


@pytest.mark.parametrize("params", [*K_SPACES.values(), P21, P2A], ids=[*K_SPACES, "p2", "p2-0.8125"])
def test_k_functional_value_is_the_public_norm_at_its_witness(params):
    # k_functional scores its candidates on the samples of f it already
    # holds; the value must still be, bit for bit, the public norm of f - w
    # plus delta^2 that of Dw at the returned witness w
    for e in corpus(7):
        for delta in (0.1, 0.5):
            res = k_functional(e.handle, delta, params)
            w = res.witness
            diff = weighted_norm(lambda x: sample(e.handle, x) - w(x), params)
            assert res.value == diff + delta * delta * weighted_norm(apply_D_poly(w), params), (e.label, delta)


# the p = 2 spaces that the path tests run in
PATH_ALPHAS = (0.8, 1.0, 1.2)


def _separable_path(f, delta, max_deg, quad_n, alpha):
    """k_functional's discretisation at (2, alpha): the rule, samples, J, lam and the path c_s = T a / (1 + s sigma^2).

    T is the basis of the pencil (L G L, G), G = J W J^T and L = diag(lam),
    with T^T G T = I and T^T L G L T = diag(sigma^2), built as
    k_functional builds it. On a fold (_fold) the path is that of the half
    rule and the rows of f's parity, and c_s is widened with zeros, as in
    k_functional; the rule, samples, J and lam are the whole ones.
    """
    norm = discrete_norm(SpaceParams(2.0, alpha), quad_n)
    fv = sample(f, norm.nodes)
    J = jacobi_matrix(max_deg, norm.nodes)
    lam = -np.arange(max_deg + 1.0) * (np.arange(max_deg + 1.0) + 5.0)
    fold = _fold(norm.nodes, norm.weights, fv)
    half, rows = (slice(None),) * 2 if fold is None else (fold[0], np.arange(fold[1], max_deg + 1, 2))
    rw, sv, sJ, slam = norm.weights[half], fv[half], J[rows][:, half], lam[rows]
    G = (sJ * rw) @ sJ.T
    mu, T = scipy.linalg.eigh(slam[:, None] * G * slam, G)
    sigma = np.sqrt(np.maximum(mu, 0.0))
    a = T.T @ (sJ @ (rw * sv))
    tail2 = float(np.cumsum(rw * (sv - (T @ a) @ sJ) ** 2)[-1])

    def path_terms(s):
        # A - tail2 = sum (a - b_s)^2 and B = sum (sigma b_s)^2, and c_s = T b_s
        b_s = a / (1.0 + s * sigma * sigma)
        c_s = np.zeros(max_deg + 1)
        c_s[rows] = T @ b_s
        return float(np.sum((a - b_s) ** 2)), float(np.sum((sigma * b_s) ** 2)), c_s

    ss = np.concatenate(([0.0], np.logspace(-18.0, 18.0, 361)))
    c_proj = expand_in_jacobi(f, max_deg, n_nodes=max(quad_n, 256))
    return norm, fv, J, lam, delta * delta, tail2, path_terms, ss, c_proj


def _separable_k_reference(f, delta, max_deg, quad_n, alpha):
    """k_functional at (2, alpha) with its scan taken one path_terms call per point.

    The refine (the root of the path slope by _log_root) and the choice
    among the zero, projection, best-constant and path candidates, scored on
    J, are those of k_functional.
    """
    norm, fv, J, lam, d2, tail2, path_terms, ss, c_proj = _separable_path(f, delta, max_deg, quad_n, alpha)
    terms = [path_terms(float(s)) for s in ss]
    scan = [math.sqrt(tail2 + aa) + d2 * math.sqrt(bb) for aa, bb, _ in terms]
    idx = int(np.argmin(scan))
    best_s_val, best_s_c = scan[idx], terms[idx][2]
    if 0 < idx < ss.size - 1:
        lo = float(ss[idx - 1]) if idx > 1 else float(ss[1] * ss[1] / ss[2])

        def slope(s):
            aa, bb, _ = path_terms(s)
            return s * math.sqrt(bb) - d2 * math.sqrt(tail2 + aa)

        s_star = _log_root(slope, lo, float(ss[idx + 1]))
        if s_star is not None:
            aa, bb, c_s = path_terms(s_star)
            if math.sqrt(tail2 + aa) + d2 * math.sqrt(bb) < best_s_val:
                best_s_c = c_s
    const = np.zeros(max_deg + 1)
    const[0] = _best_constant(fv, norm)
    C = np.array([np.zeros(max_deg + 1), c_proj, const, best_s_c])
    scores = [norm(r) + d2 * norm(u) for r, u in zip(fv - C @ J, (C * lam) @ J)]
    best_poly = _jacobi_series(C[int(np.argmin(scores))])
    xs = norm.nodes
    return norm(fv - best_poly(xs)) + d2 * norm(apply_D_poly(best_poly)(xs)), best_poly


@pytest.mark.parametrize("kdeg", [16, 32, 48])
def test_separable_scan_matches_point_by_point_reference(kdeg):
    # the 362-point scan runs as one array op; value and witness must be
    # bitwise those of the point-by-point scan
    cfg = Config()
    for alpha in PATH_ALPHAS:
        for e in corpus(7):
            for delta in cfg.deltas:
                res = k_functional(e.handle, delta, SpaceParams(2.0, alpha), kdeg, cfg.norm_nodes)
                value, witness = _separable_k_reference(e.handle, delta, kdeg, cfg.norm_nodes, alpha)
                assert res.value == value, (alpha, e.label, delta)
                assert np.array_equal(res.witness.cheb, witness.cheb), (alpha, e.label, delta)


def _golden_section_k(f, delta, max_deg, quad_n, alpha):
    """K at (2, alpha) with the path minimum refined by 120 golden-section steps on F, each candidate scored as a polynomial."""
    norm, fv, J, lam, d2, tail2, path_terms, ss, c_proj = _separable_path(f, delta, max_deg, quad_n, alpha)

    def path_value(s):
        aa, bb, c_s = path_terms(s)
        return math.sqrt(tail2 + aa) + d2 * math.sqrt(bb), c_s

    scan = [path_value(float(s)) for s in ss]
    idx = int(np.argmin([val for val, _ in scan]))
    best_s_val, best_s_c = scan[idx]
    if 0 < idx < ss.size - 1:
        lo, hi = float(ss[idx - 1]), float(ss[idx + 1])
        for _ in range(120):
            m1 = lo + 0.381966011250105 * (hi - lo)
            m2 = hi - 0.381966011250105 * (hi - lo)
            if path_value(m1)[0] <= path_value(m2)[0]:
                hi = m2
            else:
                lo = m1
        val, c_s = path_value(0.5 * (lo + hi))
        if val < best_s_val:
            best_s_c = c_s
    xs = norm.nodes
    return min(
        norm(fv - g(xs)) + d2 * norm(apply_D_poly(g)(xs))
        for g in (_jacobi_series(c) for c in (np.zeros(max_deg + 1), c_proj, best_s_c))
    )


@pytest.mark.parametrize("kdeg", [16, 32, 48])
def test_separable_refine_finds_the_root_of_the_path_slope(monkeypatch, kdeg):
    # F'(s) on the path has the sign of h(s) = s ||Dg_s|| - delta^2 ||f - g_s||;
    # where h changes sign on the scan bracket, the refine must pin its root
    # to rounding, and K must never exceed the golden-section K
    roots = []

    def recording(h, lo, hi):
        roots.append(_log_root(h, lo, hi))
        return roots[-1]

    monkeypatch.setattr(approx_module, "_log_root", recording)
    cfg = Config()
    for alpha in PATH_ALPHAS:
        params = SpaceParams(2.0, alpha)
        bracketed = 0
        for e in corpus(7):
            fnorm = weighted_norm(e.handle, params)
            for delta in cfg.deltas:
                roots.clear()
                res = k_functional(e.handle, delta, params, kdeg, cfg.norm_nodes)
                golden = _golden_section_k(e.handle, delta, kdeg, cfg.norm_nodes, alpha)
                # plus rounding of ||f||: K of the constant entry is itself rounding
                assert res.value <= golden * (1.0 + 1e-13) + 1e-15 * fnorm, (alpha, e.label, delta)
                assert len(roots) <= 1
                if roots and roots[0] is not None:
                    bracketed += 1
                    path = _separable_path(e.handle, delta, kdeg, cfg.norm_nodes, alpha)
                    d2, tail2, path_terms = path[4:7]
                    aa, bb, _ = path_terms(roots[0])
                    residual = math.sqrt(tail2 + aa)
                    assert abs(roots[0] * math.sqrt(bb) - d2 * residual) <= 1e-12 * d2 * residual, (alpha, e.label, delta)
        assert bracketed > 0, alpha


def test_log_root_brackets_and_pins_the_root():
    # a sign change is required; the root of a monotone h is found to a few ulps of log s
    assert _log_root(lambda s: s - 2.0, 3.0, 4.0) is None
    assert _log_root(lambda s: 2.0 - s, 1.0, 4.0) is None
    for root in (1e-17, 0.37, 1.0, 5e11):
        s = _log_root(lambda s: math.log(s / root) + (s / root - 1.0), root / 1.5, root * 1.2)
        assert s == pytest.approx(root, rel=1e-14)


# exponents of jacobi_poly: (2,2), and 2 alpha of spaces with p = 2
SERIES_EXPONENTS = (1.0, 1.5, 11.0 / 6.0, 2.0, 13.0 / 6.0, 2.4, 2.5)


@pytest.mark.parametrize("a", SERIES_EXPONENTS)
def test_cheb_matrix_columns_are_jacobi_poly(a):
    # one run of the recurrence builds every column, bitwise the coefficients of jacobi_poly
    for d in (0, 1, 7, 32, 64):
        M = _cheb_matrix(d, a, a)
        for k in range(d + 1):
            cheb = jacobi_poly(k, a, a).cheb
            assert np.array_equal(M[: cheb.size, k], cheb), (d, k)
            assert np.all(M[cheb.size :, k] == 0.0) and not np.any(np.signbit(M[cheb.size :, k])), (d, k)


def test_separable_iterations_count_the_path_slope_evaluations(monkeypatch):
    counts = []

    def counting(h, lo, hi):
        def counted(s):
            counts.append(s)
            return h(s)

        return _log_root(counted, lo, hi)

    monkeypatch.setattr(approx_module, "_log_root", counting)
    cfg = Config()
    for alpha in PATH_ALPHAS:
        total = 0
        for e in corpus(7):
            for delta in cfg.deltas:
                counts.clear()
                res = k_functional(e.handle, delta, SpaceParams(2.0, alpha), cfg.kdeg, cfg.norm_nodes)
                assert res.iterations == len(counts), (alpha, e.label, delta)
                total += res.iterations
        assert total > 0, alpha


@pytest.mark.parametrize("alpha", [0.8, 1.2])
def test_p2_path_k_matches_the_newton_k(alpha):
    # p = 2 no longer reaches _newton_k, which makes it an independent
    # reference there: on k_functional's own discretisation, its minimum of
    # F(c) = N(f - J^T c) + delta^2 N(J^T (lam c)) is the path's K to rounding
    params = SpaceParams(2.0, alpha)
    cfg = Config()
    norm = discrete_norm(params, cfg.norm_nodes)
    J = jacobi_matrix(cfg.kdeg, norm.nodes)
    lam = -np.arange(cfg.kdeg + 1.0) * (np.arange(cfg.kdeg + 1.0) + 5.0)
    for e in corpus(7):
        fv = sample(e.handle, norm.nodes)
        fnorm = norm(fv)
        c_proj = expand_in_jacobi(e.handle, cfg.kdeg, n_nodes=max(cfg.norm_nodes, 256))
        const = np.zeros(cfg.kdeg + 1)
        const[0] = _best_constant(fv, norm)
        face = _const_face(fv, J, lam, norm, const)
        for delta in cfg.deltas:
            d2 = delta * delta
            c, _ = _newton_k(fv, J, lam, norm, d2, c_proj, const, face)
            newton = norm(fv - J.T @ c) + d2 * norm(J.T @ (lam * c))
            res = k_functional(e.handle, delta, params, cfg.kdeg, cfg.norm_nodes)
            assert abs(res.value - newton) <= 1e-13 * fnorm, (e.label, delta)


@pytest.mark.parametrize("alpha", [0.8125, 1.0, 1.1875])
def test_p2_k_never_reaches_the_newton_k(monkeypatch, alpha):
    # every K at p = 2 is the Tikhonov path; the 1 < p < inf descent stays off it
    def unreachable(*args):
        raise AssertionError("p = 2 reached the 1 < p < inf K solver")

    for name in ("_newton_k", "_const_face", "_steepest"):
        monkeypatch.setattr(approx_module, name, unreachable)
    params = SpaceParams(2.0, alpha)
    for e in corpus(7):
        for delta in (*Config().deltas, 0.0, 1e3):
            assert math.isfinite(k_functional(e.handle, delta, params).value), (e.label, delta)


def test_jacobi_series_is_bitwise_poly_lincomb():
    rng = np.random.default_rng(3)
    for d in range(65):
        for _ in range(5):
            c = rng.standard_normal(d + 1) * rng.choice([1e-8, 1.0, 1e6])
            # the in-order sum of c[k] jacobi_poly(k, 2, 2)
            want = np.zeros(d + 1)
            for k in range(d + 1):
                cheb = jacobi_poly(k, 2, 2).cheb
                want[: cheb.size] += c[k] * cheb
            assert np.array_equal(_jacobi_series(c).cheb, PolynomialRep(want).cheb), d


def test_k_functional_reports_the_lp_gap(monkeypatch):
    # at p in {1, inf} the result carries the gap of the interior-point
    # solve it ran, whichever candidate wins; other paths report None
    gaps = []
    lp_fit = approx_module._lp_fit

    def recording(p, blocks):
        out = lp_fit(p, blocks)
        gaps.append(out[2])
        return out

    monkeypatch.setattr(approx_module, "_lp_fit", recording)
    for params in LP_SPACES.values():
        for e in corpus(7):
            for delta in (0.0, 0.4):
                res = k_functional(e.handle, delta, params, 16, 128)
                assert res.gap == gaps[-1], (params.p, e.label, delta)
    for params in (P15, P21):
        assert k_functional(lambda x: np.abs(x), 0.4, params).gap is None
    assert len(gaps) == 2 * 2 * len(corpus(7))


@pytest.mark.parametrize("params", [P15, P3], ids=["p1.5", "p3"])
def test_k_newton_reaches_a_stationary_point(params):
    # the solver behind k_functional at 1 < p < inf, on k_functional's own
    # discretisation: F(c) = N(f - J^T c) + delta^2 N(J^T (lam c)), checked
    # on the coefficients the solver returns
    p = params.p
    cfg = Config()
    norm = discrete_norm(params, cfg.norm_nodes)
    w = norm.weights
    J = jacobi_matrix(cfg.kdeg, norm.nodes)
    lam = -np.arange(cfg.kdeg + 1.0) * (np.arange(cfg.kdeg + 1.0) + 5.0)
    for e in corpus(7):
        fv = e.handle(norm.nodes) + np.zeros_like(norm.nodes)
        fnorm = norm(fv)
        c_proj = expand_in_jacobi(e.handle, cfg.kdeg, n_nodes=max(cfg.norm_nodes, 256))
        const = np.zeros(cfg.kdeg + 1)
        const[0] = _best_constant(fv, norm)
        face = _const_face(fv, J, lam, norm, const)
        for delta in cfg.deltas:
            c, iterations = _newton_k(fv, J, lam, norm, delta * delta, c_proj, const, face)
            assert iterations <= 50
            r, u = fv - J.T @ c, J.T @ (lam * c)
            n1, n2 = norm(r), norm(u)
            if min(n1, n2) <= 1e-6 * fnorm:
                continue  # a kink of F: the minimiser is a constant or an exact fit
            a1, a2 = w * np.abs(r) ** (p - 1.0) / n1 ** (p - 1.0), w * np.abs(u) ** (p - 1.0) / n2 ** (p - 1.0)
            grad = delta * delta * lam * (J @ (a2 * np.sign(u))) - J @ (a1 * np.sign(r))
            bound = np.max(np.abs(J)) * (np.sum(a1) + delta * delta * np.max(np.abs(lam)) * np.sum(a2))
            assert np.max(np.abs(grad)) <= 1e-8 * bound, (e.label, delta)


def test_k_functional_and_best_approx_do_not_import_scipy_optimize():
    # the p in {1, inf} solvers stay in numpy: importing scipy.optimize for
    # an LP solver adds about 16.5 MB of peak memory (a quarter of a
    # `spaces` run's) and 0.1-0.4 s of set-up
    code = (
        "import math, sys\n"
        "import numpy as np\n"
        "import smoothness_lab as s\n"
        "f = lambda x: np.abs(x)\n"
        "for params in (s.SpaceParams(1.0, 0.75), s.SpaceParams(math.inf, 1.25)):\n"
        "    s.k_functional(f, 0.3, params)\n"
        "    s.best_approx(f, 4, params)\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(smoothness_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def _highs_fit(p, blocks):
    """min over c of sum_k ||w_k (g_k - M_k c)||_p for p in {1, inf}, by HiGHS.

    p = 1 splits the residual, M c + e+ - e- = g with e+, e- >= 0 and cost
    w (e+ + e-), over all blocks stacked; p = inf bounds it, -t_k <=
    w_k (g_k - M_k c) <= t_k with cost sum t_k.
    """
    from scipy.optimize import linprog

    m = blocks[0][0].shape[1]
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    if p == 1.0:
        M, g, w = (np.concatenate(parts) for parts in zip(*blocks))
        eye = np.eye(w.size)
        bounds = [(None, None)] * m + [(0, None)] * (2 * w.size)
        res = linprog(np.concatenate((np.zeros(m), w, w)), A_eq=np.hstack((M, eye, -eye)), b_eq=g, bounds=bounds, options=tight)
    else:
        rows, rhs = [], []
        for k, (M, g, w) in enumerate(blocks):
            t = np.zeros((w.size, len(blocks)))
            t[:, k] = -1.0
            rows += [np.hstack((-(w[:, None] * M), t)), np.hstack((w[:, None] * M, t))]
            rhs += [-w * g, w * g]
        cost = np.concatenate((np.zeros(m), np.ones(len(blocks))))
        res = linprog(cost, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs), bounds=(None, None), options=tight)
    assert res.status == 0, res.message
    return res.fun


LP_SPACES = {"p1": SpaceParams(1.0, 0.75), "pinf": SpaceParams(math.inf, 1.25)}


def test_max_step_is_the_exact_least_quotient():
    x = np.array([1.0, 2.0, 3.0])
    assert _max_step(x, np.array([0.0, 1.0, 2.0])) == math.inf
    assert _max_step(x, np.zeros(3)) == math.inf
    assert _max_step(x, np.array([0.5, -3.0, 0.0])) == 2.0 / 3.0
    # entries whose dx / x tie to rounding: the least quotient x / -dx wins
    rng = np.random.default_rng(5)
    for _ in range(500):
        x = rng.random(64) * 10.0 ** rng.uniform(-8, 2, 64)
        dx = rng.standard_normal(64) * 10.0 ** rng.uniform(-6, 3, 64)
        i = int(np.argmin(dx / x))  # the binding entry, and j one within rounding of it
        j = (i + 1) % 64
        x[j], dx[j] = x[i] * (1.0 + rng.integers(-2, 3) * 2.0**-52), dx[i] * (1.0 + rng.integers(-2, 3) * 2.0**-52)
        neg = dx < 0.0
        assert _max_step(x, dx) == np.min(x[neg] / -dx[neg], initial=math.inf)


def test_lp_box_finds_the_vertex_in_both_forms():
    # with the box: min -u1 - 2 u2 - 3 u3 over u1 + u2 + u3 = 2 and 0 <= u <= 1
    # is the vertex (0, 1, 1), where the upper bounds of u2 and u3 are active
    A, b, c = np.ones((1, 3)), np.array([2.0]), np.array([-1.0, -2.0, -3.0])
    u, _, gap, _ = _lp_box(A, b, c)
    assert gap <= 1e-10
    assert np.max(np.abs(u - [0.0, 1.0, 1.0])) <= 1e-9
    # without it: min -u1 - u2 over u1 + u2 + u3 = 1 (the simplex row) and
    # u1 = u2, u >= 0 is (1/2, 1/2, 0), the simplex row binding each entry
    # below 1; its multipliers are (-1, 0)
    A, b, c = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]), np.array([1.0, 0.0]), np.array([-1.0, -1.0, 0.0])
    u, y, gap, _ = _lp_box(A, b, c, np.full(3, 1.0 / 3.0), upper=False)
    assert gap <= 1e-10
    assert np.max(np.abs(u - [0.5, 0.5, 0.0])) <= 1e-9
    assert np.max(np.abs(y - [-1.0, 0.0])) <= 1e-9


@pytest.mark.parametrize("k", [1, 2])
def test_pair_factor_is_a_factor_of_the_normal_equations(k):
    # the p = inf LP's columns pair up as [e; a] and [e; -a]; the factor
    # from one row per pair is R with R^T R = A D A^T, also where D spreads
    # over many decades as it does near the optimum
    rng = np.random.default_rng(k)
    sizes = (40, 25)[:k]
    simplex = np.tile(np.repeat(np.eye(k), sizes, axis=1), 2) / rng.uniform(1.0, 9.0, (k, 1))
    a = rng.standard_normal((6, sum(sizes)))
    A = np.vstack((simplex, np.hstack((a, -a))))
    for spread in (0.0, 12.0):
        d = 10.0 ** rng.uniform(-spread, 0.0, A.shape[1])
        m = A.shape[0]
        R = np.triu(_pair_factor(k)(A, d)[:m])
        want = (A * d) @ A.T
        assert np.max(np.abs(R.T @ R - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("name", sorted(LP_SPACES))
def test_lp_solves_match_highs(name):
    # E_n and K at p in {1, inf} against HiGHS on the same discrete rule;
    # best_approx at grid_n = 256 solves and reports on discrete_norm(params, 256)
    params = LP_SPACES[name]
    cfg = Config()
    norm = discrete_norm(params, cfg.norm_nodes)
    J = jacobi_matrix(cfg.kdeg, norm.nodes)
    lam = -np.arange(cfg.kdeg + 1.0) * (np.arange(cfg.kdeg + 1.0) + 5.0)
    for e in corpus(7):
        fv = sample(e.handle, norm.nodes)
        slack = 1e-9 * norm(fv)
        for n in (1, 2, 3, 8, 17, 32):
            # the bare eval declares no degree, so the LP runs at every n
            res = best_approx(e.handle.eval, n, params, grid_n=cfg.norm_nodes)
            assert res.method == "lp-interior-point", (e.label, n)
            assert res.diagnostics["gap"] <= 1e-9, (e.label, n)
            ref = _highs_fit(params.p, [(chebvander(norm.nodes, n - 1), fv, norm.weights)])
            assert abs(res.value - ref) <= slack, (e.label, n)
        for delta in cfg.deltas:
            res = k_functional(e.handle, delta, params, cfg.kdeg, cfg.norm_nodes)
            assert res.gap <= 1e-8, (e.label, delta)
            blocks = [(J.T, fv, norm.weights), (J.T * lam, np.zeros_like(fv), delta * delta * norm.weights)]
            assert abs(res.value - _highs_fit(params.p, blocks)) <= slack, (e.label, delta)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf], ids=["p1", "p1.5", "p2", "p3", "pinf"])
def test_basic_invariants_at_interval_midpoints(p):
    # E_n never increases with n and never exceeds ||f||, K never exceeds
    # the zero or the projection witness, and the modulus never decreases
    # with delta; grid_n = 256 makes the solve rule of best_approx its
    # report rule
    verdict = validate_params(p, 0.0)
    params = SpaceParams(p, 0.5 * (verdict.lower + verdict.upper))
    cfg = Config()
    for e in corpus(7):
        f = e.handle
        fnorm = weighted_norm(f, params, cfg.norm_nodes)
        slack = 1e-9 * fnorm
        prev = fnorm
        for n in range(1, 33):
            value = best_approx(f, n, params, grid_n=cfg.norm_nodes).value
            assert value <= prev + slack, (e.label, n)
            prev = value
        coeffs = expand_in_jacobi(f, cfg.kdeg, n_nodes=max(cfg.norm_nodes, 256))
        proj = _jacobi_series(coeffs)
        proj_err = weighted_norm(lambda x: sample(f, x) - proj(x), params, cfg.norm_nodes)
        proj_d = weighted_norm(apply_D_poly(proj), params, cfg.norm_nodes)
        prev = 0.0
        for delta in cfg.deltas:
            k = k_functional(f, delta, params, cfg.kdeg, cfg.norm_nodes).value
            assert k <= min(fnorm, proj_err + delta * delta * proj_d) + slack, (e.label, delta)
            om = modulus(f, delta, params, cfg.t_points, cfg.quad_n, cfg.norm_nodes)
            assert om >= prev - slack, (e.label, delta)
            prev = om


EXACT_FIT_P = (1.0, 1.5, 2.0, 3.0, math.inf)
EXACT_FIT_IDS = ("p1", "p1.5", "p2", "p3", "pinf")


def _midpoint(p):
    verdict = validate_params(p, 0.0)
    return SpaceParams(p, 0.5 * (verdict.lower + verdict.upper))


def _solver_method(p):
    return "lp-interior-point" if p in (1.0, math.inf) else "irls-grid"


# every corpus entry that declares a degree on all of [-1, 1] (not |x|, a
# piecewise polynomial), at two seeds, and a PolynomialRep
DECLARED_DEGREE = [
    (f"{e.label}@{seed}", e.handle, e.handle.degree)
    for seed in (7, 11)
    for e in corpus(seed)
    if space_module._declared_degree(e.handle) is not None
] + [("P_12^(2,2)", jacobi_poly(12, 2, 2), 12)]


@pytest.mark.parametrize("p", EXACT_FIT_P, ids=EXACT_FIT_IDS)
def test_exact_fit_returns_f_when_its_degree_is_below_n(p):
    params = _midpoint(p)
    xs = make_grid(64)
    for label, f, d in DECLARED_DEGREE:
        fx = sample(f, xs)
        fnorm = weighted_norm(f, params)
        for n in sorted({d + 1, 32}):
            res = best_approx(f, n, params)
            assert res.method == "exact-fit", (label, n)
            assert res.diagnostics == {"grid_n": d + 1, "iterations": 0}, (label, n)
            assert np.max(np.abs(res.argmin(xs) - fx)) <= 1e-14 * np.max(np.abs(fx)), (label, n)
            assert res.value <= 1e-14 * fnorm, (label, n)
            if not isinstance(f, FunctionHandle):
                assert res.argmin is f
        if d >= 1:
            # at n <= d, f is outside the space and the solver runs
            assert best_approx(f, d, params).method == _solver_method(p), label


@pytest.mark.parametrize("params", [P15, P3], ids=["p1.5", "p3"])
@pytest.mark.parametrize("seed", [7, 11])
def test_newton_error_is_certified_by_its_dual_bound(params, seed):
    # any y with V^T y = 0 bounds E_n from below by Hoelder's inequality:
    # f^T y = (f - V c)^T y <= ||f - V c|| (sum w^(1-q) |y|^q)^(1/q); the
    # gradient of the p-th power at the residual, projected onto V^T y = 0,
    # is that bound's optimal y at the true minimiser. grid_n = 256 makes
    # the solve rule the report rule
    p = params.p
    q = p / (p - 1.0)
    norm = discrete_norm(params, 256)
    for e in corpus(seed):
        fv = sample(e.handle, norm.nodes)
        fnorm = norm(fv)
        for n in range(1, 33):
            res = best_approx(e.handle, n, params, grid_n=256)
            r = fv - res.argmin(norm.nodes)
            Q, _ = np.linalg.qr(chebvander(norm.nodes, n - 1))
            y = norm.weights * np.abs(r) ** (p - 1.0) * np.sign(r)
            y = y - Q @ (Q.T @ y)
            dual = ordered_sum(norm.weights ** (1.0 - q) * np.abs(y) ** q) ** (1.0 / q)
            bound = ordered_sum(fv * y) / dual if dual > 0.0 else 0.0
            assert res.value - bound <= 1e-9 * fnorm, (e.label, n, res.value, bound)


def _nan_above_half(x):
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.5, np.nan, x)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: best_approx(f, 4, SpaceParams(1.0, 0.75)),
        lambda f: best_approx(f, 4, SpaceParams(1.5, 11.0 / 12.0)),
        lambda f: best_approx(f, 4, SpaceParams(3.0, 13.0 / 12.0)),
        lambda f: best_approx(f, 4, SpaceParams(math.inf, 1.25)),
        lambda f: best_approx(f, 4, P21),
        lambda f: expand_in_jacobi(f, 4),
        lambda f: fourier_jacobi_coeff(f, 3),
        lambda f: k_functional(f, 0.3, SpaceParams(3.0, 13.0 / 12.0)),
        lambda f: k_functional(f, 0.3, P21),
        *(lambda f, p=p: best_approx(FunctionHandle(eval=f, degree=3), 4, _midpoint(p)) for p in EXACT_FIT_P),
    ],
    ids=["p1", "p1.5", "p3", "pinf", "p2", "expand", "fourier", "k-p3", "k-p2", *(f"exact-{i}" for i in EXACT_FIT_IDS)],
)
def test_non_finite_f_raises_evaluation_error_quietly(call, capfd):
    # one sampling path: no LinAlgError, no solver failure, no silent NaN
    # and no LAPACK message on stderr
    with pytest.raises(EvaluationError) as info:
        call(_nan_above_half)
    assert info.value.node > 0.5
    assert capfd.readouterr().err == ""


def test_k_functionals_check_every_delta():
    # the delta-free work kept from a good delta does not let a bad one through
    f = lambda x: np.abs(x)
    k_functional(f, 0.1, P21, 8, 64)
    with pytest.raises(InvalidArgumentError, match="delta"):
        k_functional(f, -0.2, P21, 8, 64)


# the corpus entries that are exactly even or odd on every rule, with their parity
PARITY_ENTRIES = {"|x|": 0, "x^2": 0, "sin(3x)": 1, "P_5": 1}


def _same_e(a, b):
    return (a.value, a.method, a.diagnostics) == (b.value, b.method, b.diagnostics) and np.array_equal(
        a.argmin.cheb, b.argmin.cheb
    )


@pytest.mark.parametrize("name", sorted(K_SPACES))
def test_e_n_of_a_parity_pair_is_one_solve(name):
    # an even f at even n, and an odd f at odd n, adds only a column of the
    # other parity, so E_n is bitwise E_{n-1}, each from a cold call
    params = K_SPACES[name]
    cfg = Config()
    entries = {e.label: e.handle for e in corpus(7)}
    for label, parity in PARITY_ENTRIES.items():
        f = entries[label]
        for n in range(2, 33):
            if n % 2 == parity:
                space_module._PREPARED.clear()
                before = best_approx(f, n - 1, params, cfg.approx_grid)
                space_module._PREPARED.clear()
                assert _same_e(best_approx(f, n, params, cfg.approx_grid), before), (label, n)


@pytest.mark.parametrize("name", sorted(K_SPACES))
def test_folded_solves_match_the_unfolded_ones(name, monkeypatch):
    # the fold changes only the rounding: E_n and K of every parity entry
    # lie within 1e-10 ||f|| of the same solvers on the whole rule and basis
    params = K_SPACES[name]
    cfg = Config()
    entries = [e for e in corpus(7) if e.label in PARITY_ENTRIES or e.label in ("1", "x")]

    def values():
        space_module._PREPARED.clear()
        out = {}
        for e in entries:
            for n in range(1, 33):
                out[e.label, "E", n] = best_approx(e.handle, n, params, cfg.approx_grid).value
            for d in cfg.deltas:
                out[e.label, "K", d] = k_functional(e.handle, d, params, cfg.kdeg, cfg.norm_nodes).value
        return out

    folded = values()
    monkeypatch.setattr(approx_module, "_fold", lambda nodes, weights, fv: None)
    whole = values()
    norms = {e.label: weighted_norm(e.handle, params, cfg.norm_nodes) for e in entries}
    for key, value in folded.items():
        assert abs(value - whole[key]) <= 1e-10 * norms[key[0]], key


@pytest.mark.parametrize("name", sorted(K_SPACES))
def test_a_function_even_at_all_nodes_but_one_is_not_folded(name, monkeypatch):
    # x^2 moved by one ulp at the largest node of the solve rule is neither
    # even nor odd there, and takes the unfolded path bit for bit
    params = K_SPACES[name]
    norm = discrete_norm(params, 512)
    odd_one = float(norm.nodes.max())
    f = lambda x: np.where(x == odd_one, np.nextafter(x * x, 2.0), x * x)
    assert approx_module._fold(norm.nodes, norm.weights, norm.nodes * norm.nodes) is not None
    assert approx_module._fold(norm.nodes, norm.weights, sample(f, norm.nodes)) is None
    got_e = [best_approx(f, n, params, 512) for n in (1, 2, 5, 6)]
    got_k = [k_functional(f, d, params, 16, 512) for d in (0.0, 0.2, 1.6)]
    monkeypatch.setattr(approx_module, "_fold", lambda nodes, weights, fv: None)
    space_module._PREPARED.clear()
    for n, got in zip((1, 2, 5, 6), got_e):
        assert _same_e(got, best_approx(f, n, params, 512)), n
    for d, got in zip((0.0, 0.2, 1.6), got_k):
        want = k_functional(f, d, params, 16, 512)
        assert (got.value, got.iterations, got.gap) == (want.value, want.iterations, want.gap), d
        assert np.array_equal(got.witness.cheb, want.witness.cheb), d


@pytest.mark.parametrize("name", sorted(K_SPACES))
def test_an_odd_f_at_n_1_has_the_zero_argmin(name):
    # no column has the parity of an odd f at n = 1: no solver runs
    params = K_SPACES[name]
    for f in (lambda x: np.sin(3.0 * x), FunctionHandle(eval=lambda x: x * x * x, degree=3)):
        res = best_approx(f, 1, params)
        assert res.argmin.is_zero()
        assert res.diagnostics["iterations"] == 0
        assert res.diagnostics.get("gap", 0.0) == 0.0
        assert ("gap" in res.diagnostics) == (params.p in (1.0, math.inf))
        assert res.value == weighted_norm(f, params)
    # nor does any row of the K witness at max_deg 0
    for delta in (0.0, 0.3):
        res = k_functional(lambda x: np.sin(3.0 * x), delta, params, max_deg=0, quad_n=64)
        assert res.witness.is_zero() and res.iterations == 0
