"""Best approximation, kernel smoothing, and the K-functional."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
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
    SpaceParams,
    apply_D_poly,
    best_approx,
    corpus,
    expand_in_jacobi,
    fourier_jacobi_coeff,
    gamma_norm,
    gauss_legendre,
    jackson_degree_bound,
    jackson_kernel,
    jackson_operator,
    jacobi_poly,
    k_functional,
    make_grid,
    modulus,
    poly_lincomb,
    validate_params,
    weighted_norm,
)
import smoothness_lab.approx as approx_module
from smoothness_lab.approx import (
    _best_constant,
    _jackson_by_translation,
    _log_root,
    _lstsq,
    _newton_k,
    _poly_from_jacobi,
)
from smoothness_lab.jacobi import jacobi_matrix
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
    assert res.method == "l2-projection"
    assert res.value == pytest.approx((24.0 / 7.0) / math.sqrt(405.0), rel=1e-12)


def test_projection_error_of_odd_function():
    # constants cannot see an odd function
    res = best_approx(lambda x: np.asarray(x, dtype=float), 1, P21)
    assert res.value == pytest.approx(math.sqrt(16.0 / 105.0), rel=1e-12)


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
    rule = gauss_jacobi(512, p * params.alpha, p * params.alpha)
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
def test_diagnostics_report_grid_and_iterations(params):
    res = best_approx(lambda x: np.abs(x), 4, params)
    assert res.diagnostics["grid_n"] >= 8
    iterations = res.diagnostics["iterations"]
    assert (iterations == 0) if res.method == "l2-projection" else (iterations >= 1)
    assert ("backtracks" in res.diagnostics) == (res.method == "irls-grid")
    assert ("gap" in res.diagnostics) == (res.method == "lp-interior-point")
    lp = params.p in (1.0, math.inf)
    assert res.method == ("l2-projection" if params.p == 2.0 else "lp-interior-point" if lp else "irls-grid")


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
    p = JacksonParams(3, 2)
    assert jackson_kernel(math.pi / 2.0, p) == pytest.approx(32.0, rel=1e-12)
    assert jackson_kernel(math.pi, p) == pytest.approx(0.0, abs=1e-12)
    # removable singularity at t = 0 with limit m^(2(q+2))
    assert jackson_kernel(1e-9, p) == pytest.approx(2.0**10, rel=1e-6)
    assert jackson_kernel(0.0, p) == pytest.approx(2.0**10, rel=1e-12)


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
    assert np.max(np.abs(_poly_from_jacobi(c)(x) - jacobi_matrix(48, x).T @ c)) <= 1e-13


def test_k_functional_at_degree_64_stays_below_projection_witness():
    f = lambda x: np.abs(x)
    delta = 0.05
    res = k_functional(f, delta, P21, max_deg=64)
    coeffs = expand_in_jacobi(f, 64)
    proj = poly_lincomb(coeffs, [jacobi_poly(k, 2, 2) for k in range(65)])
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
        proj = poly_lincomb(coeffs, [jacobi_poly(k, 2, 2) for k in range(cfg.kdeg + 1)])
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


@pytest.mark.parametrize("params", [*K_SPACES.values(), P21], ids=[*K_SPACES, "p2"])
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


def _separable_path(f, delta, max_deg, quad_n):
    """k_functional's discretisation at (2, 1): the rule, samples, J, lam and the path c_s = a / (1 + s lam^2)."""
    norm = discrete_norm(P21, quad_n)
    fv = sample(f, norm.nodes)
    J = jacobi_matrix(max_deg, norm.nodes)
    lam = -np.arange(max_deg + 1.0) * (np.arange(max_deg + 1.0) + 5.0)
    rw = norm.weights
    hn = np.cumsum(rw[None, :] * J * J, axis=1)[:, -1]
    a = np.cumsum(rw[None, :] * J * fv[None, :], axis=1)[:, -1] / hn
    tail2 = max(float(np.cumsum(rw * fv * fv)[-1]) - float(np.sum(hn * a * a)), 0.0)

    def path_terms(s):
        # A = sum hn (a - c_s)^2 and B = sum hn (lam c_s)^2
        c_s = a / (1.0 + s * lam * lam)
        return float(np.sum(hn * (a - c_s) ** 2)), float(np.sum(hn * (lam * c_s) ** 2)), c_s

    ss = np.concatenate(([0.0], np.logspace(-18.0, 18.0, 361)))
    c_proj = expand_in_jacobi(f, max_deg, n_nodes=max(quad_n, 256))
    return norm, fv, J, lam, delta * delta, tail2, path_terms, ss, c_proj


def _separable_k_reference(f, delta, max_deg, quad_n):
    """k_functional at (2, 1) with its scan taken one path_terms call per point.

    The refine (the root of the path slope by _log_root) and the choice
    among the zero, projection and path candidates, scored on J, are those
    of k_functional.
    """
    norm, fv, J, lam, d2, tail2, path_terms, ss, c_proj = _separable_path(f, delta, max_deg, quad_n)
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
    C = np.array([np.zeros(max_deg + 1), c_proj, best_s_c])
    scores = [norm(r) + d2 * norm(u) for r, u in zip(fv - C @ J, (C * lam) @ J)]
    best_poly = _poly_from_jacobi(C[int(np.argmin(scores))])
    xs = norm.nodes
    return norm(fv - best_poly(xs)) + d2 * norm(apply_D_poly(best_poly)(xs)), best_poly


@pytest.mark.parametrize("kdeg", [16, 32, 48])
def test_separable_scan_matches_point_by_point_reference(kdeg):
    # the 362-point scan runs as one array op; value and witness must be
    # bitwise those of the point-by-point scan
    cfg = Config()
    for e in corpus(7):
        for delta in cfg.deltas:
            res = k_functional(e.handle, delta, P21, kdeg, cfg.norm_nodes)
            value, witness = _separable_k_reference(e.handle, delta, kdeg, cfg.norm_nodes)
            assert res.value == value, (e.label, delta)
            assert np.array_equal(res.witness.cheb, witness.cheb), (e.label, delta)


def _golden_section_k(f, delta, max_deg, quad_n):
    """K at (2, 1) with the path minimum refined by 120 golden-section steps on F, each candidate scored as a polynomial."""
    norm, fv, J, lam, d2, tail2, path_terms, ss, c_proj = _separable_path(f, delta, max_deg, quad_n)

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
        for g in map(_poly_from_jacobi, (np.zeros(max_deg + 1), c_proj, best_s_c))
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
    bracketed = 0
    for e in corpus(7):
        fnorm = weighted_norm(e.handle, P21)
        for delta in cfg.deltas:
            roots.clear()
            res = k_functional(e.handle, delta, P21, kdeg, cfg.norm_nodes)
            golden = _golden_section_k(e.handle, delta, kdeg, cfg.norm_nodes)
            # plus rounding of ||f||: K of the constant entry is itself rounding
            assert res.value <= golden * (1.0 + 1e-13) + 1e-15 * fnorm, (e.label, delta)
            assert len(roots) <= 1
            if roots and roots[0] is not None:
                bracketed += 1
                _, _, _, _, d2, tail2, path_terms, _, _ = _separable_path(e.handle, delta, kdeg, cfg.norm_nodes)
                aa, bb, _ = path_terms(roots[0])
                residual = math.sqrt(tail2 + aa)
                assert abs(roots[0] * math.sqrt(bb) - d2 * residual) <= 1e-12 * d2 * residual, (e.label, delta)
    assert bracketed > 0


def test_log_root_brackets_and_pins_the_root():
    # a sign change is required; the root of a monotone h is found to a few ulps of log s
    assert _log_root(lambda s: s - 2.0, 3.0, 4.0) is None
    assert _log_root(lambda s: 2.0 - s, 1.0, 4.0) is None
    for root in (1e-17, 0.37, 1.0, 5e11):
        s = _log_root(lambda s: math.log(s / root) + (s / root - 1.0), root / 1.5, root * 1.2)
        assert s == pytest.approx(root, rel=1e-14)


def test_poly_from_jacobi_is_bitwise_poly_lincomb():
    rng = np.random.default_rng(3)
    for d in range(65):
        for _ in range(5):
            c = rng.standard_normal(d + 1) * rng.choice([1e-8, 1.0, 1e6])
            want = poly_lincomb(c, [jacobi_poly(k, 2, 2) for k in range(d + 1)])
            assert np.array_equal(_poly_from_jacobi(c).cheb, want.cheb), d


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
        scale = float(np.max(np.abs(fv)))
        fnorm = norm(fv)
        c_proj = expand_in_jacobi(e.handle, cfg.kdeg, n_nodes=max(cfg.norm_nodes, 256))
        const = np.zeros(cfg.kdeg + 1)
        const[0] = _best_constant(fv, norm, scale)
        for delta in cfg.deltas:
            c, iterations, _ = _newton_k(fv, J, lam, norm, delta * delta, c_proj, const, scale)
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
        proj = poly_lincomb(coeffs, [jacobi_poly(k, 2, 2) for k in range(cfg.kdeg + 1)])
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
    return "l2-projection" if p == 2.0 else "lp-interior-point" if p in (1.0, math.inf) else "irls-grid"


# every corpus entry that declares a degree, at two seeds, and a PolynomialRep
DECLARED_DEGREE = [
    (f"{e.label}@{seed}", e.handle, e.handle.degree) for seed in (7, 11) for e in corpus(seed) if e.handle.degree is not None
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
