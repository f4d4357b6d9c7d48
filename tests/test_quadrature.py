"""Quadrature rules: exactness, determinism, and argument validation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothness_lab import (
    EvaluationError,
    InvalidArgumentError,
    gauss_chebyshev,
    gauss_jacobi,
    gauss_legendre,
    integrate,
    ordered_sum,
)


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
    rule = gauss_jacobi(2, 2.0, 2.0)
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
    rule = gauss_jacobi(n, 2.0, 2.0)
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
    rule = gauss_jacobi(5, 2.0, 2.0)
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
    with pytest.raises(InvalidArgumentError):
        gauss_jacobi(4, -1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        gauss_jacobi(4, 0.0, -1.5)
