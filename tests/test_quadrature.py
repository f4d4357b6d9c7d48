"""Quadrature rules: exactness, determinism, and argument validation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from smoothness_lab import (
    EvaluationError,
    FunctionHandle,
    InvalidArgumentError,
    gauss_chebyshev,
    gauss_jacobi,
    gauss_legendre,
    harness,
    integrate,
    jacobi,
    ordered_sum,
    weighted_norm,
)
from smoothness_lab.quadrature import _golub_welsch, _panel_rule


def legendre_moment(k: int) -> Fraction:
    return Fraction(2, k + 1) if k % 2 == 0 else Fraction(0)


def jacobi22_moment(k: int) -> Fraction:
    # int x^k (1-x^2)^2 dx on [-1, 1]
    if k % 2:
        return Fraction(0)
    return 2 * (Fraction(1, k + 1) - Fraction(2, k + 3) + Fraction(1, k + 5))


def chebyshev_moment(k: int) -> float:
    if k % 2:
        return 0.0
    return math.pi * math.comb(k, k // 2) / 2.0**k


def test_two_node_jacobi_rule_is_exact():
    rule = gauss_jacobi(2, 2.0)
    assert np.allclose(sorted(rule.nodes), [-1.0 / math.sqrt(7.0), 1.0 / math.sqrt(7.0)], atol=1e-15)
    assert np.allclose(rule.weights, [8.0 / 15.0, 8.0 / 15.0], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_legendre_exact_through_degree_2n_minus_1(n):
    rule = gauss_legendre(n)
    for k in range(2 * n):
        got = ordered_sum(rule.weights * rule.nodes**k)
        want = float(legendre_moment(k))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_jacobi22_exact_through_degree_2n_minus_1(n):
    rule = gauss_jacobi(n, 2.0)
    for k in range(2 * n):
        got = ordered_sum(rule.weights * rule.nodes**k)
        want = float(jacobi22_moment(k))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_chebyshev_exact_through_degree_2n_minus_1(n):
    rule = gauss_chebyshev(n)
    for k in range(2 * n):
        got = ordered_sum(rule.weights * rule.nodes**k)
        want = chebyshev_moment(k)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


@given(coeffs=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=11))
@settings(max_examples=60, deadline=None)
def test_legendre_exact_on_random_polynomials(coeffs):
    rule = gauss_legendre(6)
    got = integrate(lambda x: np.polynomial.polynomial.polyval(x, coeffs), rule)
    want = sum(c * float(legendre_moment(k)) for k, c in enumerate(coeffs))
    assert abs(got - want) <= 1e-12 * max(1.0, sum(abs(c) for c in coeffs))


def test_weight_function_integral():
    assert integrate(lambda x: (1.0 - x * x) ** 2, gauss_legendre(8)) == pytest.approx(16.0 / 15.0, rel=1e-14)


def test_doubling_gap_smooth_vs_kink():
    smooth = lambda x: np.sin(3.0 * x)
    kink = np.abs
    gaps = {}
    for f in (smooth, kink):
        a = integrate(f, gauss_legendre(128))
        b = integrate(f, gauss_legendre(256))
        gaps[f] = abs(a - b)
    assert gaps[smooth] <= 1e-14
    # a kink keeps plain Gauss at algebraic order; the gap stays visible
    assert gaps[kink] > 1e-8


def test_ordered_sum_is_deterministic_and_accurate():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(4096) * 1e3
    assert ordered_sum(vals) == ordered_sum(vals.copy())
    assert abs(ordered_sum(vals) - math.fsum(vals)) <= 1e-9


def test_rule_fields():
    rule = gauss_jacobi(5, 2.0)
    assert rule.kind == "jacobi(2,2)"
    assert rule.nodes.shape == rule.weights.shape == (5,)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)


@pytest.mark.parametrize("bad", [0, -1, 2.5])
def test_node_count_validation(bad):
    with pytest.raises(InvalidArgumentError):
        gauss_legendre(bad)


def test_integrate_samples_through_sample():
    rule = gauss_legendre(8)
    with pytest.raises(EvaluationError) as info:
        integrate(lambda x: np.where(x > 0.5, np.nan, x), rule)
    node = float(rule.nodes[rule.nodes > 0.5][0])
    assert info.value.node == node
    assert str(info.value) == f"function is not finite at {node!r}"
    with pytest.raises(InvalidArgumentError):
        integrate(object(), rule)


def test_jacobi_exponent_validation():
    for bad in (-1.0, -1.5, math.inf, math.nan):
        with pytest.raises(InvalidArgumentError):
            gauss_jacobi(4, bad)


def _mu0(a, b):
    return 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)


def _eigenvector_rule(n, a, b):
    """The Golub-Welsch rule as built before: weights from the first row of the eigenvectors."""
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    with np.errstate(invalid="ignore", divide="ignore"):
        diag = (b * b - a * a) / (s * (s + 2.0))
    diag[0] = (b - a) / (a + b + 2.0)
    if n == 1:
        return np.array([diag[0]]), np.array([_mu0(a, b)])
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + a + b
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
    off[0] = math.sqrt(4.0 * (a + 1.0) * (b + 1.0) / ((a + b + 2.0) ** 2 * (a + b + 3.0)))
    nodes, vecs = eigh_tridiagonal(diag, off)
    return nodes, _mu0(a, b) * vecs[0, :] ** 2


# the exponents p * alpha of the package's norms, and the (2,2) rule
EXPONENTS = [0.0, 0.75, 1.375, 2.0, 3.0, 3.25]


@pytest.mark.parametrize("a", EXPONENTS)
@pytest.mark.parametrize("n", [1, 2, 7, 64, 256, 1024, 2048])
def test_rule_without_eigenvectors_matches_the_eigenvector_rule(n, a):
    nodes, weights = _golub_welsch(n, a)
    old_nodes, old_weights = _eigenvector_rule(n, a, a)
    assert np.max(np.abs(nodes - old_nodes)) <= 1e-15
    # the weights are symmetric, and match the eigenvector rule on x <= 0;
    # near x = 1 the eigenvector weights of a >= 3 drift (3.6e-7 relative
    # at a = 3.25, n = 2048, against the 40-digit reference below)
    assert np.max(np.abs(weights / weights[::-1] - 1.0)) <= 1e-10
    left = slice(0, (n + 1) // 2)
    assert np.max(np.abs(weights[left] / old_weights[left] - 1.0)) <= 1e-9
    assert abs(math.fsum(weights) / _mu0(a, a) - 1.0) <= 1e-14


# the package builds rules of symmetric weights (1-x^2)^a only
@pytest.mark.parametrize("a,b", [(0.0, 0.0), (2.0, 2.0), (3.25, 3.25)])
@pytest.mark.parametrize("n", [64, 2048])
def test_endpoint_nodes_and_weights_against_a_40_digit_reference(n, a, b):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    am, bm = mp.mpf(a), mp.mpf(b)
    scale = mp.gamma(n + am + 1) * mp.gamma(n + bm + 1) / (mp.gamma(n + am + bm + 1) * mp.factorial(n))
    scale *= mp.mpf(2) ** (am + bm + 1)
    derivative = lambda x: (n + am + bm + 1) / 2 * mp.jacobi(n - 1, am + 1, bm + 1, x)
    nodes, weights = _golub_welsch(n, a)
    for i in (0, 1, n - 2, n - 1):
        x = mp.mpf(float(nodes[i]))
        for _ in range(3):
            x -= mp.jacobi(n, am, bm, x) / derivative(x)
        w = scale / ((1 - x * x) * derivative(x) ** 2)
        assert abs(float(nodes[i] - x)) <= 1e-16, i
        assert abs(float(weights[i] / w) - 1.0) <= 1e-10, i


@pytest.mark.parametrize("a", EXPONENTS)
@pytest.mark.parametrize("n", [4, 5, 64, 2047, 2048])
def test_symmetric_rules_are_bitwise_symmetric(n, a):
    # a symmetric weight gets its nonnegative half and the mirror image of it
    for rule in (gauss_legendre(n), gauss_jacobi(n, a)):
        assert np.array_equal(rule.nodes, -rule.nodes[::-1]), rule.kind
        assert np.array_equal(rule.weights, rule.weights[::-1]), rule.kind
        if n % 2:
            assert rule.nodes[n // 2] == 0.0, rule.kind


def test_panel_rule_is_gauss_legendre_per_panel_times_the_22_weight():
    edges = (-1.0, -0.6, 0.0, 0.6, 1.0)
    nodes, weights = _panel_rule(edges, 8)
    gl = gauss_legendre(8)
    for k, (a, b) in enumerate(zip(edges, edges[1:])):
        part = slice(8 * k, 8 * (k + 1))
        assert np.array_equal(nodes[part], (b - a) / 2.0 * gl.nodes + (a + b) / 2.0)
        assert np.array_equal(weights[part], (b - a) / 2.0 * gl.weights * (1.0 - nodes[part] ** 2) ** 2)
    # exact for a piecewise polynomial with joints at the edges
    f = lambda x: np.abs(x) ** 3
    assert ordered_sum(weights * f(nodes)) == pytest.approx(2.0 * (1 / 4 - 2 / 6 + 1 / 8), rel=1e-14)


def test_split_rules_take_their_nodes_and_weights_from_panel_rule(monkeypatch):
    # harness._split_rule and the break-split rule of expand_in_jacobi both
    # return what _panel_rule built, bitwise
    made = []

    def recording(edges, n):
        made.append((tuple(edges), n, _panel_rule(edges, n)))
        return made[-1][2]

    monkeypatch.setattr(harness, "_panel_rule", recording)
    monkeypatch.setattr(jacobi, "_panel_rule", recording)
    for n_panel, y in ((16, -0.5), (64, 0.0), (512, 0.3), (1024, 0.9)):
        xs, ws = harness._split_rule(n_panel, y)
        s = math.sqrt(1.0 - y * y)
        assert made[-1][:2] == ((-1.0, -s, 0.0, s, 1.0), n_panel // 2)
        assert xs is made[-1][2][0] and ws is made[-1][2][1]
    seen = []
    f = FunctionHandle(eval=lambda x: seen.append(x) or np.abs(x), breaks=(-0.25, 0.5))
    jacobi.expand_in_jacobi(f, 4, n_nodes=96)
    assert made[-1][:2] == ((-1.0, -0.25, 0.5, 1.0), 32)
    assert seen[-1] is made[-1][2][0]


@pytest.mark.parametrize("a", [300.0, 600.0, 1200.0, 5000.0])
def test_rules_of_large_exponent_keep_their_mass(a):
    # 2^(2a+1) overflows past a = 511, and p_k overflows near the ends: mu0
    # is taken in log space and the recurrence rescaled, so the weights still
    # sum to int (1-x^2)^a dx = sqrt(pi) Gamma(a+1) / Gamma(a+3/2)
    mass = math.exp(0.5 * math.log(math.pi) + math.lgamma(a + 1.0) - math.lgamma(a + 1.5))
    for n in (16, 256):
        rule = gauss_jacobi(n, a)
        assert abs(ordered_sum(rule.weights) - mass) <= 1e-10 * mass, n
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])


def test_a_rule_whose_weights_underflow_names_its_node_count_and_exponent():
    with pytest.raises(InvalidArgumentError, match="^node count 1024 is too large for jacobi exponent 300: "):
        gauss_jacobi(1024, 300.0)
    # the norm of a space of large p alpha: built at 256 nodes, refused at 1024
    f = lambda x: np.abs(x)
    assert math.isfinite(weighted_norm(f, (430.0, 1.2)))
    with pytest.raises(InvalidArgumentError, match="^node count 1024 is too large for jacobi exponent 300: "):
        weighted_norm(f, (250.0, 1.2), 1024)
