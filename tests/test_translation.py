"""Generalized translation: identities, multipliers, kernel bound, modulus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothness_lab import (
    FunctionHandle,
    InvalidArgumentError,
    SpaceParams,
    abs_rotation_average,
    asym_translate,
    asym_translate_t,
    build_multiplier_table,
    compute_R,
    jacobi_eval,
    jacobi_poly,
    kernel_B,
    make_grid,
    modulus,
    multiplier_psi,
    sym_translate,
)
from smoothness_lab.harness import corpus
from smoothness_lab.translation import _asym_core, _sym_core, _z_nodes

P21 = SpaceParams(2.0, 1.0)


def test_translate_by_one_is_identity():
    f = lambda x: np.sin(3.0 * x)
    for x in make_grid(16):
        assert asym_translate(f, 1.0, x) == pytest.approx(f(x), abs=1e-10)


@pytest.mark.parametrize("y", [-0.9, -0.5, 0.0, 0.5, 0.9, 1.0])
def test_constants_are_preserved(y):
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    for x in (-0.7, 0.0, 0.4):
        assert asym_translate(one, y, x) == pytest.approx(1.0, abs=1e-10)


def test_translation_is_linear():
    f = lambda x: np.asarray(x, dtype=float)
    g = lambda x: np.abs(x)
    combo = lambda x: 0.7 * f(x) - 1.3 * g(x)
    for y in (-0.5, 0.5):
        for x in (-0.3, 0.6):
            want = 0.7 * asym_translate(f, y, x) - 1.3 * asym_translate(g, y, x)
            assert asym_translate(combo, y, x) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize(
    "n,y,want",
    [
        (1, 0.5, -0.5),  # 3y - 2
        (1, -0.9, -4.7),
        (2, 0.5, -0.75),  # 7y^2 - 7y + 1
        (2, 0.0, 1.0),
        (0, 0.3, 1.0),
    ],
)
def test_multiplier_closed_forms(n, y, want):
    assert multiplier_psi(n, y) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("y", [-0.5, 0.5, 0.9])
def test_product_formula(n, y):
    poly = jacobi_poly(n, 2, 2)
    psi = multiplier_psi(n, y)
    for x in (-0.7, 0.2):
        assert asym_translate(poly, y, x) == pytest.approx(poly(x) * psi, abs=1e-8)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_symmetric_product_formula(n):
    poly = jacobi_poly(n, 2, 2)
    got = sym_translate(poly, 0.5, 0.3)
    assert got == pytest.approx(poly(0.3) * poly(0.5), abs=1e-8)


def test_cos_parameterization_matches():
    f = lambda x: np.sin(3.0 * x)
    for t in (0.3, 1.0, 2.2):
        assert asym_translate_t(f, t, 0.25) == pytest.approx(asym_translate(f, math.cos(t), 0.25), abs=1e-14)


@given(
    x=st.floats(-0.999, 0.999),
    z=st.floats(-0.999, 0.999),
    y=st.floats(-0.999, 0.999),
)
@settings(max_examples=300, deadline=None)
def test_kernel_bound(x, z, y):
    r = compute_R(x, z, y)
    assert abs(r) <= 1.0 + 1e-12
    assert abs(kernel_B(x, z, y)) <= 19.0 * (1.0 - r * r) + 1e-12


def test_argument_reduction():
    # R collapses to x at y = 1 and to -x at y = -1 regardless of z
    assert compute_R(0.4, 0.7, 1.0) == pytest.approx(0.4, abs=1e-15)
    assert compute_R(0.4, 0.7, -1.0) == pytest.approx(-0.4, abs=1e-15)


def test_translation_rejects_bad_y():
    f = lambda x: np.asarray(x, dtype=float)
    with pytest.raises(InvalidArgumentError):
        asym_translate(f, -1.0, 0.3)
    with pytest.raises(InvalidArgumentError):
        asym_translate(f, 1.2, 0.3)


def test_modulus_frozen_values():
    f = lambda x: np.asarray(x, dtype=float)
    assert modulus(f, 0.25, P21) == pytest.approx(0.03640604390444986, abs=1e-12)
    assert modulus(f, 0.5, P21) == pytest.approx(0.14336062413762896, abs=1e-12)


def test_modulus_at_zero():
    assert modulus(lambda x: np.abs(x), 0.0, P21) == 0.0


@given(d=st.floats(0.01, 0.78), m=st.sampled_from([2, 4]))
@settings(max_examples=40, deadline=None)
def test_modulus_monotone_on_nested_grids(d, m):
    # the sup is discretized over t = d*k/t_points; scaling delta and t_points
    # together makes the new grid a strict superset, so the value cannot drop
    # (plain delta monotonicity only holds up to grid resolution)
    f = lambda x: np.abs(x)
    lo = modulus(f, d, P21, t_points=8, norm_nodes=64)
    hi = modulus(f, m * d, P21, t_points=m * 8, norm_nodes=64)
    assert lo <= hi + 1e-12


def test_modulus_validation():
    f = lambda x: np.asarray(x, dtype=float)
    with pytest.raises(InvalidArgumentError):
        modulus(f, math.pi, P21)
    with pytest.raises(InvalidArgumentError):
        modulus(f, -0.1, P21)
    with pytest.raises(InvalidArgumentError):
        modulus(f, 0.5, P21, t_points=0)


def test_multiplier_table_layout():
    ys = (-0.5, 0.0, 0.5)
    table = build_multiplier_table(4, ys)
    assert table.values.shape == (5, 3)
    assert tuple(table.degrees) == (0, 1, 2, 3, 4)
    assert np.allclose(table.values[0], 1.0, atol=1e-10)
    for j, y in enumerate(ys):
        assert table.value(2, y) == pytest.approx(7.0 * y * y - 7.0 * y + 1.0, abs=1e-10)
        assert table.values[2, j] == table.value(2, y)


def test_multiplier_table_deterministic():
    a = build_multiplier_table(3, (0.2, 0.8))
    b = build_multiplier_table(3, (0.2, 0.8))
    assert np.array_equal(a.values, b.values)


def test_rotation_average_shape_and_zero():
    xs = make_grid(9)
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    out = abs_rotation_average(zero, 0.7, xs)
    assert out.shape == xs.shape
    assert np.allclose(out, 0.0, atol=1e-15)
    bumpy = abs_rotation_average(lambda x: np.abs(x), 0.7, xs)
    assert np.all(np.isfinite(bumpy))
    assert np.all(bumpy >= 0.0)


def test_translate_polynomial_stays_close_to_eval_grid():
    # translate of a low mode evaluated on a grid equals the multiplier row
    poly = jacobi_poly(3, 2, 2)
    psi = multiplier_psi(3, 0.4)
    xs = make_grid(7)
    got = np.array([asym_translate(poly, 0.4, float(x)) for x in xs])
    assert np.max(np.abs(got - psi * jacobi_eval(3, 2, 2, xs))) <= 1e-8


# Polynomials that declare their degree: the polynomial corpus entries and a
# few Jacobi modes up to the degree where the monomial form stays accurate.
CORPUS_POLYS = [(e.label, e.handle) for e in corpus(7) if e.handle.degree is not None]
POLY_CASES = CORPUS_POLYS + [(f"P_{n}", jacobi_poly(n, 2, 2)) for n in (0, 1, 5, 12, 24)]


def _sup(fn):
    return float(np.max(np.abs(fn(np.linspace(-1.0, 1.0, 401)))))


@pytest.mark.parametrize("label,fn", POLY_CASES, ids=[c[0] for c in POLY_CASES])
@pytest.mark.parametrize("quad_n", [128, 2048])
def test_asym_exact_rule_matches_full_rule(label, fn, quad_n):
    # the handle gets the short exact rule, its bare eval the full quad_n rule;
    # the points stay off the ends, where the division by 1 - x^2 amplifies
    # the rounding of either rule a hundredfold
    xs = 0.9 * make_grid(16)
    for y in (-0.5, 0.3, 0.9):
        short = _asym_core(fn, y, xs, quad_n)
        full = _asym_core(fn.eval, y, xs, quad_n)
        assert np.max(np.abs(short - full)) <= 1e-13 * _sup(fn), (label, y)


@pytest.mark.parametrize("label,fn", POLY_CASES, ids=[c[0] for c in POLY_CASES])
@pytest.mark.parametrize("quad_n", [128, 2048])
def test_sym_exact_rule_matches_full_rule(label, fn, quad_n):
    xs = make_grid(16)
    for y in (-1.0, -0.5, 0.3, 0.9, 1.0):
        short = _sym_core(fn, y, xs, quad_n)
        full = _sym_core(fn.eval, y, xs, quad_n)
        assert np.max(np.abs(short - full)) <= 1e-13 * _sup(fn), (label, y)


def test_z_nodes_uses_the_exact_rule_capped_at_quad_n():
    p12 = jacobi_poly(12, 2, 2)
    assert _z_nodes(p12, 2048) == 9
    assert _z_nodes(p12, 4) == 4
    assert _z_nodes(FunctionHandle(eval=p12.eval, degree=12), 4) == 4
    assert _z_nodes(FunctionHandle(eval=lambda x: x, degree=0), 128) == 3
    # no declared degree, or a bound method without one: the full rule
    assert _z_nodes(FunctionHandle(eval=p12.eval), 128) == 128
    assert _z_nodes(p12.eval, 128) == 128
    assert _z_nodes(lambda x: x, 128) == 128


@pytest.mark.parametrize("label,fn", CORPUS_POLYS, ids=[c[0] for c in CORPUS_POLYS])
def test_rotation_average_ignores_degree(label, fn):
    # |f| is not a polynomial, so the positive-kernel transform keeps quad_n
    xs = make_grid(16)
    for t in (0.3, 2.2):
        assert np.array_equal(abs_rotation_average(fn, t, xs), abs_rotation_average(fn.eval, t, xs))


@pytest.mark.parametrize("degree", [-1, True, 2.5])
def test_function_handle_rejects_bad_degree(degree):
    with pytest.raises(InvalidArgumentError):
        FunctionHandle(eval=lambda x: x, degree=degree)
