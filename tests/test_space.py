"""Weighted-space plumbing: admissibility windows, norms, grids."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothness_lab import (
    EvaluationError,
    FunctionHandle,
    InvalidArgumentError,
    SpaceParams,
    best_approx,
    jacobi_poly,
    k_functional,
    make_grid,
    modulus,
    validate_params,
    weighted_norm,
)
import smoothness_lab as sl
from smoothness_lab import quadrature, space
from smoothness_lab.harness import Config
from smoothness_lab.space import sample

P21 = SpaceParams(2.0, 1.0)


@pytest.mark.parametrize(
    "p,alpha,ok",
    [
        (1.0, 0.5, False),  # lower edge open
        (1.0, 0.75, True),
        (1.0, 1.0, True),  # upper edge closed
        (1.0, 1.0001, False),
        (2.0, 0.75, False),  # open interval for finite p > 1
        (2.0, 0.76, True),
        (2.0, 1.0, True),
        (2.0, 1.25, False),
        (4.0, 0.875, False),
        (4.0, 1.0, True),
        (4.0, 1.375, False),
        (math.inf, 0.999, False),
        (math.inf, 1.0, True),  # lower edge closed
        (math.inf, 1.49, True),
        (math.inf, 1.5, False),
    ],
)
def test_admissibility_table(p, alpha, ok):
    assert validate_params(p, alpha).admissible is ok


def test_admissibility_edges_reported():
    v = validate_params(1.0, 0.7)
    assert (v.lower, v.upper) == (0.5, 1.0)
    assert (v.lower_closed, v.upper_closed) == (False, True)
    v = validate_params(math.inf, 1.2)
    assert (v.lower, v.upper) == (1.0, 1.5)
    assert (v.lower_closed, v.upper_closed) == (True, False)
    assert "1" in v.interval()


def test_p_below_one_rejected():
    with pytest.raises(InvalidArgumentError):
        validate_params(0.5, 1.0)
    with pytest.raises(InvalidArgumentError):
        validate_params(0.999, 1.0)


def test_norm_of_x_in_l2():
    # int x^2 (1-x^2)^2 dx = 16/105
    assert weighted_norm(lambda x: x, P21) == pytest.approx(math.sqrt(16.0 / 105.0), rel=1e-13)


def test_norm_of_x_in_sup():
    # max |x|(1-x^2) sits at 1/sqrt(3); the grid resolves it to ~1e-3
    got = weighted_norm(lambda x: x, SpaceParams(math.inf, 1.0))
    assert got == pytest.approx(2.0 / (3.0 * math.sqrt(3.0)), rel=1e-3)


def test_norm_positive_homogeneous():
    f = lambda x: np.sin(3.0 * x)
    assert weighted_norm(lambda x: -2.5 * f(x), P21) == pytest.approx(2.5 * weighted_norm(f, P21), rel=1e-13)


def test_norm_zero_function():
    assert weighted_norm(lambda x: np.zeros_like(np.asarray(x, dtype=float)), P21) == 0.0


@given(
    c1=st.floats(-3.0, 3.0),
    c2=st.floats(-3.0, 3.0),
    n1=st.integers(0, 6),
    n2=st.integers(0, 6),
)
@settings(max_examples=60, deadline=None)
def test_triangle_inequality(c1, c2, n1, n2):
    f = jacobi_poly(n1, 2, 2)
    g = jacobi_poly(n2, 2, 2)
    fg = lambda x: c1 * f(x) + c2 * g(x)
    lhs = weighted_norm(fg, P21)
    rhs = weighted_norm(lambda x: c1 * f(x), P21) + weighted_norm(lambda x: c2 * g(x), P21)
    assert lhs <= rhs + 1e-10


@pytest.mark.parametrize("f", [lambda x: x, lambda x: np.abs(x), lambda x: np.sin(3.0 * x)])
def test_norm_monotone_in_alpha(f):
    # (1-x^2) <= 1, so a heavier weight exponent can only shrink the norm
    assert weighted_norm(f, SpaceParams(2.0, 1.2)) <= weighted_norm(f, SpaceParams(2.0, 0.8)) + 1e-12


def test_make_grid_shape_and_range():
    g = make_grid(33)
    assert g.shape == (33,)
    assert np.all(np.diff(g) > 0)
    assert g[0] > -1.0 and g[-1] < 1.0
    assert np.allclose(g, -g[::-1], atol=1e-15)


def test_function_handle_is_callable():
    h = FunctionHandle(eval=lambda x: x * x, degree=2)
    xs = np.array([-0.5, 0.0, 0.5])
    assert h(0.5) == 0.25
    assert np.array_equal(h(xs), xs * xs)


def test_weighted_norm_accepts_handle():
    h = FunctionHandle(eval=lambda x: np.asarray(x, dtype=float))
    bare = weighted_norm(lambda x: x, P21)
    assert weighted_norm(h, P21) == pytest.approx(bare, rel=1e-15)


@pytest.mark.parametrize("p", [2.0, math.inf])
@pytest.mark.parametrize("bad", [True, 2.5, 0, -3])
def test_norm_node_count_must_be_a_positive_integer(p, bad):
    # n_nodes=True used to give a one-node rule and a norm of 0.0 for sin(3x)
    with pytest.raises(InvalidArgumentError, match="node count must be a positive integer"):
        weighted_norm(lambda x: np.sin(3.0 * x), (p, 1.0), n_nodes=bad)


def test_norm_node_count_accepts_numpy_integers():
    f = lambda x: np.sin(3.0 * x)
    for params in (P21, SpaceParams(math.inf, 1.25)):
        assert weighted_norm(f, params, n_nodes=np.int64(64)) == weighted_norm(f, params, n_nodes=64)


@pytest.mark.parametrize(
    "params",
    [SpaceParams(1.0, -1.0), SpaceParams(1.5, -0.7), SpaceParams(2.0, -0.6), SpaceParams(3.0, -0.5)],
    ids=["p1", "p1.5", "p2", "p3"],
)
def test_one_message_for_a_non_integrable_weight(params):
    f = lambda x: np.sin(3.0 * x)
    calls = (
        lambda: weighted_norm(f, params),
        lambda: modulus(f, 0.5, params),
        lambda: k_functional(f, 0.5, params),
        lambda: best_approx(f, 4, params),
    )
    messages = set()
    for call in calls:
        with pytest.raises(InvalidArgumentError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {f"p * alpha must exceed -1 for an integrable weight, got {params.p * params.alpha:g}"}


def test_sample_is_the_quadrature_sampling_path():
    assert space.sample is quadrature.sample


def test_sample_broadcasts_and_names_the_bad_node():
    x = np.array([[-0.5, 0.0], [0.25, 0.75]])
    assert np.array_equal(sample(lambda t: 2.0, x), np.full((2, 2), 2.0))
    assert np.array_equal(sample(FunctionHandle(eval=lambda t: t * t), x), x * x)
    with pytest.raises(EvaluationError) as info:
        sample(lambda t: np.where(t == 0.0, np.nan, t), x)
    assert info.value.node == 0.0
    with pytest.raises(InvalidArgumentError):
        sample(object(), x)


@pytest.mark.parametrize("p", [2.0, math.inf])
def test_modulus_and_norm_reject_non_finite_f(p):
    f = lambda x: np.where(np.asarray(x) > 0.5, np.inf, 0.0)
    for call in (lambda: weighted_norm(f, SpaceParams(p, 1.0)), lambda: modulus(f, 0.3, SpaceParams(p, 1.0))):
        with pytest.raises(EvaluationError):
            call()


@pytest.mark.parametrize("flag", [True, np.True_, False], ids=["True", "np.True_", "False"])
def test_a_bool_delta_is_rejected(flag):
    # a bool is not a delta: k_functional and modulus used to take True as 1.0
    f = lambda x: np.abs(x)
    for call in (
        lambda: k_functional(f, flag, P21),
        lambda: modulus(f, flag, P21),
        lambda: modulus(f, [0.2, flag], P21),
        lambda: modulus(f, np.array([flag]), P21),
        lambda: Config(deltas=(flag, 0.2)),
    ):
        with pytest.raises(InvalidArgumentError, match="delta"):
            call()


def test_deltas_of_numpy_and_python_number_types_are_accepted():
    f = lambda x: np.abs(x)
    for d in (np.float64(0.25), np.float32(0.25), np.array(0.25), 0.25):
        assert k_functional(f, d, P21, 16, 64).delta == 0.25
        assert modulus(f, d, P21, 4, 16, 64) == modulus(f, 0.25, P21, 4, 16, 64)
    assert k_functional(f, 1, P21, 16, 64).delta == 1.0
    assert Config(deltas=(np.float64(0.1), 1)).deltas == (0.1, 1)


_ABS = lambda x: np.abs(x)
_XS = np.array([-0.5, 0.0, 0.5])

# (call, the argument its message must name): every public numeric argument
# is checked one way, and a malformed one raises InvalidArgumentError, never
# a ValueError, TypeError or AttributeError of its own, and is never accepted
MALFORMED_CALLS = {
    "SpaceParams-p-str": (lambda: SpaceParams("a", 1.0), "p"),
    "SpaceParams-alpha-None": (lambda: SpaceParams(2.0, None), "alpha"),
    "SpaceParams-p-bool": (lambda: SpaceParams(True, 1.0), "p"),
    "validate_params-p-None": (lambda: validate_params(None, 1.0), "p"),
    "validate_params-alpha-str": (lambda: validate_params(2.0, "a"), "alpha"),
    "validate_params-alpha-bool": (lambda: validate_params(2.0, True), "alpha"),
    "k_functional-p-str": (lambda: k_functional(_ABS, 0.1, ("a", 1.0), 8, 64), "p"),
    "k_functional-alpha-None": (lambda: k_functional(_ABS, 0.1, (2.0, None), 8, 64), "alpha"),
    "k_functional-p-bool": (lambda: k_functional(_ABS, 0.1, (True, 1.0), 8, 64), "p"),
    "multiplier_psi-y-str": (lambda: sl.multiplier_psi(2, "a"), "translation parameter y"),
    "multiplier_psi-y-None": (lambda: sl.multiplier_psi(2, None), "translation parameter y"),
    "multiplier_psi-y-bool": (lambda: sl.multiplier_psi(2, True), "translation parameter y"),
    "abs_rotation_average-t-str": (lambda: sl.abs_rotation_average(_ABS, "a", _XS), "t"),
    "abs_rotation_average-t-bool": (lambda: sl.abs_rotation_average(_ABS, True, _XS), "t"),
    "bernstein_markov_ratios-rho-str": (lambda: sl.bernstein_markov_ratios(jacobi_poly(3, 2, 2), P21, "a"), "rho"),
    "bernstein_markov_ratios-rho-bool": (lambda: sl.bernstein_markov_ratios(jacobi_poly(3, 2, 2), P21, True), "rho"),
    "jacobi_eval-exponent-str": (lambda: sl.jacobi_eval(2, "a", 2, 0.5), "jacobi exponent"),
    "gauss_jacobi-exponent-str": (lambda: sl.gauss_jacobi(4, "a"), "jacobi exponent"),
    # the rule of (4, 1.0) is kept by the cache, which must not answer for True
    "gauss_jacobi-exponent-bool": (lambda: (sl.gauss_jacobi(4, 1.0), sl.gauss_jacobi(4, True)), "jacobi exponent"),
    "expand_in_jacobi-n_nodes-float": (lambda: sl.expand_in_jacobi(_ABS, 4, n_nodes=2.5), "n_nodes"),
    "expand_in_jacobi-n_nodes-bool": (lambda: sl.expand_in_jacobi(_ABS, 4, n_nodes=True), "n_nodes"),
    "fourier_jacobi_coeff-n_nodes-float": (lambda: sl.fourier_jacobi_coeff(_ABS, 2, n_nodes=2.5), "n_nodes"),
    "fourier_jacobi_coeff-n_nodes-bool": (lambda: sl.fourier_jacobi_coeff(_ABS, 2, n_nodes=True), "n_nodes"),
    "compute_R-x-str": (lambda: sl.compute_R("a", 0.0, 0.0), "x"),
    "kernel_B-x-str": (lambda: sl.kernel_B("a", 0.0, 0.0), "x"),
    "jacobi_eval-x-str": (lambda: sl.jacobi_eval(2, 2, 2, "x"), "x"),
    "FunctionHandle-breaks-float": (lambda: FunctionHandle(_ABS, breaks=0.5), "breaks"),
    "Config-deltas-float": (lambda: Config(deltas=0.1), "deltas"),
    "Config-p-str": (lambda: Config(p="a"), "p"),
    "Config-alpha-None": (lambda: Config(alpha=None), "alpha"),
    "integrate-rule-None": (lambda: sl.integrate(_ABS, None), "rule"),
    "jacobi_eval-x-nan": (lambda: sl.jacobi_eval(2, 2, 2, float("nan")), "x"),
    "jacobi_eval-x-list-nan": (lambda: sl.jacobi_eval(2, 2, 2, [0.5, float("nan")]), "x"),
    "weighted_norm-params-triple": (lambda: weighted_norm(_ABS, (2.0, 1.0, 3.0)), "params"),
    "weighted_norm-params-single": (lambda: weighted_norm(_ABS, (2.0,)), "params"),
    "weighted_norm-params-float": (lambda: weighted_norm(_ABS, 2.0), "params"),
    "weighted_norm-params-dict": (lambda: weighted_norm(_ABS, {"p": 2}), "params"),
    "weighted_norm-params-str": (lambda: weighted_norm(_ABS, "ab"), "params"),
    "compute_R-x-numeric-str": (lambda: sl.compute_R("0.5", 0, 0), "x"),
    "compute_R-x-bool": (lambda: sl.compute_R(True, 0, 0), "x"),
    "kernel_B-z-bool": (lambda: sl.kernel_B(0.1, True, 0.2), "z"),
    "jacobi_eval-x-numeric-str": (lambda: sl.jacobi_eval(2, 2, 2, "0.5"), "x"),
    "jacobi_eval-x-bool": (lambda: sl.jacobi_eval(2, 2, 2, True), "x"),
    "abs_rotation_average-xs-str": (lambda: sl.abs_rotation_average(_ABS, 0.5, ["0.1", "0.2"]), "xs"),
    # the node count is checked as such at p = inf too, not as make_grid's grid size
    "weighted_norm-n_nodes-too-many-inf": (lambda: weighted_norm(_ABS, SpaceParams(math.inf, 1.25), 5000), "node count"),
    "weighted_norm-n_nodes-too-many": (lambda: weighted_norm(_ABS, SpaceParams(1.5, 1.0), 5000), "node count"),
    # jacobi_matrix checks what jacobi_eval checks, and takes a 1-d x only
    "jacobi_matrix-degree-float": (lambda: sl.jacobi_matrix(1.5, _XS), "degree"),
    "jacobi_matrix-degree-bool": (lambda: sl.jacobi_matrix(True, _XS), "degree"),
    "jacobi_matrix-exponents-below-minus-1": (lambda: sl.jacobi_matrix(3, _XS, -2, -2), "jacobi exponents"),
    "jacobi_matrix-x-outside": (lambda: sl.jacobi_matrix(3, [2.0]), "x"),
    "jacobi_matrix-x-nan": (lambda: sl.jacobi_matrix(3, [float("nan")]), "x"),
    "jacobi_matrix-x-2d": (lambda: sl.jacobi_matrix(3, np.zeros((2, 2))), "x"),
    "kernel_B-shapes-do-not-broadcast": (lambda: sl.kernel_B(np.zeros(2), np.zeros(3), 0.1), "x, z and y"),
    "compute_R-shapes-do-not-broadcast": (lambda: sl.compute_R(np.zeros(2), 0.0, np.zeros(3)), "x, z and y"),
}


@pytest.mark.parametrize("call,name", MALFORMED_CALLS.values(), ids=MALFORMED_CALLS.keys())
def test_a_malformed_argument_raises_invalid_argument_error(call, name):
    with pytest.raises(InvalidArgumentError, match=f"^{name} "):
        call()


@pytest.mark.parametrize("c", [1e-12, 1e-9, 1e-8, 1e8, 1e10])
def test_norm_at_large_p_neither_underflows_nor_overflows(c):
    # at p = 40, |c|^p leaves the normal floats; the norm is still c times
    # that of 1, with no RuntimeWarning
    params = SpaceParams(40.0, 1.2)
    one = weighted_norm(lambda x: np.ones_like(x), params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = weighted_norm(lambda x: np.full_like(x, c), params)
    assert abs(got - c * one) <= 1e-14 * c * one


def test_norm_of_normal_sums_is_unscaled():
    # a sum that is a normal float takes no rescaling: bitwise the ordered
    # sum of weights |v|^p, to the power 1/p
    rng = np.random.default_rng(5)
    for p in (1.0, 1.5, 3.0, 40.0):
        norm = space.discrete_norm(SpaceParams(p, 1.0), 64)
        v = rng.normal(size=64)
        want = float(np.cumsum(norm.weights * np.abs(v) ** p)[-1]) ** (1.0 / p)
        assert norm(v) == want, p
    assert norm(np.zeros(64)) == 0.0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 40.0, math.inf])
def test_norms_of_rows_are_bitwise_the_norm_of_each_row(p):
    # _Translates takes the norm of every translated row in one pass; each
    # is bitwise the norm of its row alone, rescaled rows and zero rows too
    norm = space.discrete_norm(SpaceParams(p, 1.2), 256)
    rng = np.random.default_rng(11)
    for scale in (1e-200, 1e-9, 1.0, 1e9, 1e200):
        vals = rng.normal(size=(23, norm.nodes.size)) * scale
        vals[4] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm.rows(vals) == [norm(v) for v in vals], scale
