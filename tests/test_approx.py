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
    DegreeViolationError,
    EvaluationError,
    InvalidArgumentError,
    JacksonParams,
    SpaceParams,
    apply_D_poly,
    best_approx,
    corpus,
    expand_in_jacobi,
    fourier_jacobi_coeff,
    gamma_norm,
    jackson_degree_bound,
    jackson_kernel,
    jackson_operator,
    jacobi_poly,
    k_functional,
    make_grid,
    poly_lincomb,
    weighted_norm,
)
from smoothness_lab.approx import _best_constant, _newton_k, _poly_from_jacobi
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


def test_sup_norm_exchange():
    res = best_approx(lambda x: np.abs(x), 3, SpaceParams(math.inf, 1.0))
    assert res.method == "remez-grid"
    assert 0.0 < res.value < weighted_norm(lambda x: np.abs(x), SpaceParams(math.inf, 1.0))
    assert res.diagnostics["iterations"] >= 1


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


@pytest.mark.parametrize("label", ["|x|", "(1-x)^0.75"])
def test_newton_irls_iterations_at_p3(label):
    for n in range(1, 33):
        res = best_approx(NEWTON_CASES[label], n, P3, grid_n=512)
        assert res.method == "irls-grid"
        assert res.diagnostics["iterations"] <= 50, n


@pytest.mark.parametrize(
    "params", [P21, SpaceParams(1.0, 0.75), P15, P3, SpaceParams(math.inf, 1.25)], ids=["p2", "p1", "p1.5", "p3", "pinf"]
)
def test_diagnostics_report_grid_and_iterations(params):
    res = best_approx(lambda x: np.abs(x), 4, params)
    assert res.diagnostics["grid_n"] >= 8
    iterations = res.diagnostics["iterations"]
    assert (iterations == 0) if res.method == "l2-projection" else (iterations >= 1)
    assert ("backtracks" in res.diagnostics) == (res.method == "irls-grid")


def test_dimension_validation():
    for bad in (0, 65, True, 2.0):
        with pytest.raises(InvalidArgumentError):
            best_approx(lambda x: x, bad, P21)


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
    with pytest.raises(InvalidArgumentError):
        JacksonParams(3, 2, t_nodes=4)


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


def test_smoothing_guards_resolution():
    with pytest.raises(DegreeViolationError):
        jackson_operator(lambda x: np.abs(x), JacksonParams(3, 2, t_nodes=16), quad_n=64)


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
    ],
    ids=["p1", "p1.5", "p3", "pinf", "p2", "expand", "fourier", "k-p3", "k-p2"],
)
def test_non_finite_f_raises_evaluation_error_quietly(call, capfd):
    # one sampling path: no LinAlgError, no solver failure, no silent NaN
    # and no LAPACK message on stderr
    with pytest.raises(EvaluationError) as info:
        call(_nan_above_half)
    assert info.value.node > 0.5
    assert capfd.readouterr().err == ""
