"""Jacobi (2,2) machinery: evaluation, norms, expansions, the second-order operator."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothness_lab import (
    FunctionHandle,
    InvalidArgumentError,
    PolynomialRep,
    SpaceParams,
    apply_D_poly,
    expand_in_jacobi,
    fourier_jacobi_coeff,
    gauss_jacobi,
    gauss_legendre,
    jacobi_eval,
    jacobi_h,
    jacobi_matrix,
    jacobi_poly,
    make_grid,
)
from smoothness_lab.jacobi import _ROWS, _ROWS_BYTES, _d_eigenvalues, _jacobi_series, _plateau_cut, _raw_rows
from smoothness_lab.space import NORM_NODES, discrete_norm


def exact_h(n: int) -> Fraction:
    # squared (1-x^2)^2-weighted norm under the value-1-at-1 normalization
    raw = Fraction(32, 2 * n + 5) * Fraction(math.factorial(n + 2)) ** 2 / (
        Fraction(math.factorial(n)) * Fraction(math.factorial(n + 4))
    )
    lead = Fraction((n + 1) * (n + 2), 2)
    return raw / lead**2


@pytest.mark.parametrize("n", range(11))
def test_mode_norms_match_closed_form(n):
    assert jacobi_h(n) == pytest.approx(float(exact_h(n)), rel=1e-13)


def test_recurrence_normalized_at_one():
    for n in range(33):
        assert jacobi_eval(n, 2, 2, 1.0) == 1.0


def test_coefficient_form_normalized_at_one():
    # T_k(1) = 1, so the value at the endpoint is the sum of the Chebyshev
    # coefficients, which jacobi_poly scales to one
    for n in range(65):
        assert abs(jacobi_poly(n, 2, 2)(1.0) - 1.0) <= 1e-13


@pytest.mark.parametrize("n", [8, 12, 16, 24])
def test_recurrence_and_coefficients_agree(n):
    grid = make_grid(64)
    poly = jacobi_poly(n, 2, 2)
    assert np.max(np.abs(poly(grid) - jacobi_eval(n, 2, 2, grid))) <= 1e-12


@pytest.mark.parametrize("n", [8, 16, 24, 32, 48, 64])
def test_chebyshev_form_agrees_to_degree_64(n):
    # Chebyshev coefficients of P_n stay O(1), so Clenshaw keeps full
    # precision up to the degree-64 cap, the endpoint included
    grid = make_grid(256)
    poly = jacobi_poly(n, 2, 2)
    assert np.max(np.abs(poly(grid) - jacobi_eval(n, 2, 2, grid))) <= 1e-13
    assert abs(poly(1.0) - 1.0) <= 1e-13


def test_orthogonality_on_gauss_rule():
    rule = gauss_jacobi(64, 2.0)
    basis = jacobi_matrix(16, rule.nodes)
    gram = (basis * rule.weights[None, :]) @ basis.T
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) <= 1e-14
    assert np.allclose(np.diag(gram), [jacobi_h(k) for k in range(17)], rtol=1e-12)


def test_matrix_rows_match_pointwise_eval():
    xs = make_grid(17)
    m = jacobi_matrix(6, xs)
    assert m.shape == (7, 17)
    for n in (0, 3, 6):
        assert np.allclose(m[n], jacobi_eval(n, 2, 2, xs), atol=1e-14)


def _fresh_rows(nmax, x, a, b):
    """P_0..P_nmax^{(a,b)} at x from a run of the recurrence of their own, outside any cache.

    Each row is divided by its value at 1 from a scalar run of its own.
    """
    ones = _raw_rows(nmax, a, b, np.ones(()))
    return np.array([raw / float(one) for raw, one in zip(_raw_rows(nmax, a, b, x), ones)])


def test_matrix_rows_are_cached_read_only_prefixes():
    # a short call, then a longer one that rebuilds the run, then the short
    # one again: every answer is bitwise a fresh run of its own length
    x = np.linspace(-0.97, 0.97, 101)
    for a, b in ((2.0, 2.0), (1.5, 1.5), (2.0, 1.0)):
        for nmax in (4, 40, 4, 40, 17):
            rows = jacobi_matrix(nmax, x, a, b)
            assert rows.shape == (nmax + 1, x.size)
            assert np.array_equal(rows, _fresh_rows(nmax, x, a, b)), (a, b, nmax)
            assert not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[0, 0] = 2.0
    # the short rows are a view of the long run, built once
    assert np.shares_memory(jacobi_matrix(4, x), jacobi_matrix(40, x))
    # the same nodes under another (a, b), or other nodes, are other rows
    assert not np.array_equal(jacobi_matrix(8, x, 2.0, 2.0), jacobi_matrix(8, x, 1.5, 1.5))
    assert not np.array_equal(jacobi_matrix(8, x, 2.0, 1.0), jacobi_matrix(8, x, 1.0, 2.0))
    assert np.array_equal(jacobi_matrix(8, x[::-1], 2.0, 2.0), _fresh_rows(8, x[::-1], 2.0, 2.0))


def test_matrix_cache_stays_within_its_bound():
    for k in range(40):
        jacobi_matrix(64, np.linspace(-0.9, 0.9, 256) * (1.0 - k / 100.0))
    assert 0 < sum(r.nbytes for r in _ROWS.values()) <= _ROWS_BYTES


@pytest.mark.parametrize("n", range(65))
def test_eigenrelation(n):
    # the closed form keeps P_n an eigenfunction to a few ulps up to degree 64
    poly = jacobi_poly(n, 2, 2)
    want = -float(n * (n + 5)) * poly.cheb
    got = apply_D_poly(poly).cheb
    assert got.shape == poly.cheb.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def _d_by_numpy(c):
    """(1-x^2) g'' - 6x g' composed from numpy.polynomial's chebder, chebmulx, chebadd and chebsub.

    c may hold floats, or Fractions for the exact image.
    """
    cheb = np.polynomial.chebyshev
    g1 = cheb.chebder(c)
    g2 = cheb.chebder(g1)
    inner = cheb.chebadd(cheb.chebmulx(g2), 6 * g1)
    out = cheb.chebsub(g2, cheb.chebmulx(inner))
    return np.concatenate((out, [0 * c[0]] * (len(c) - len(out))))  # numpy may trim the zero tail


def _d_terms(c):
    """Sum of the absolute terms of each coefficient of D g, j(j+5) |c_j| + 10 sum_{k > j, k = j mod 2} k |c_k|, halved at j = 0."""
    k = np.arange(c.size, dtype=float)
    s = k * (k + 5.0) * np.abs(c)
    for j in range(c.size):
        s[j] += 10.0 * np.sum(np.abs(k * c)[j + 2 :: 2]) * (0.5 if j == 0 else 1.0)
    return s


def test_apply_d_poly_is_within_rounding_of_the_exact_image():
    # every degree 0..64, on the Jacobi modes, on random coefficients across
    # ten decades, and with zeros inside and a tiny last coefficient: each
    # coefficient of the closed form is within 8 eps of the exact image, in
    # Fractions, and within 1024 eps of numpy's composition, both relative
    # to that coefficient's sum of absolute terms
    eps = np.finfo(float).eps
    rng = np.random.default_rng(5)
    for d in range(65):
        c = rng.standard_normal(d + 1) * 10.0 ** rng.uniform(-5.0, 5.0, d + 1)
        holes = c.copy()
        holes[rng.integers(0, d + 1, 2)] = 0.0
        holes[-1] = 1e-300
        for poly in (jacobi_poly(d, 2, 2), PolynomialRep(c), PolynomialRep(holes)):
            got = apply_D_poly(poly).cheb
            assert got.shape == poly.cheb.shape, d
            exact = _d_by_numpy(np.array([Fraction(v) for v in poly.cheb.tolist()], dtype=object))
            scale = _d_terms(poly.cheb)
            err = np.array([float(abs(Fraction(g) - x)) for g, x in zip(got.tolist(), exact)])
            assert np.all(err <= 8.0 * eps * scale), d
            assert np.all(np.abs(got - _d_by_numpy(poly.cheb)) <= 1024.0 * eps * scale), d


def test_chebyshev_and_jacobi_forms_of_d_agree():
    # K picks its candidate with D as -k(k+5) on the (2,2) coefficients and
    # reports its value with apply_D_poly on the Chebyshev ones: both forms
    # agree at the norm nodes of (2, 1) for every degree 0..64
    xs = discrete_norm(SpaceParams(2.0, 1.0), NORM_NODES).nodes
    rng = np.random.default_rng(11)
    for d in range(65):
        c = rng.standard_normal(d + 1)
        want = _jacobi_series(_d_eigenvalues(d) * c)(xs)
        got = apply_D_poly(_jacobi_series(c))(xs)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), d


@given(
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
)
@settings(max_examples=40, deadline=None)
def test_operator_is_linear_on_modes(m, n, a, b):
    pm, pn = jacobi_poly(m, 2, 2), jacobi_poly(n, 2, 2)

    def combo_of(u, v):
        # u pm + v pn, summed in that order
        c = np.zeros(max(m, n) + 1)
        c[: pm.cheb.size] += u * pm.cheb
        c[: pn.cheb.size] += v * pn.cheb
        return PolynomialRep(c)

    combo = combo_of(a, b)
    image = apply_D_poly(combo)
    want = combo_of(-a * m * (m + 5), -b * n * (n + 5))
    xs = make_grid(33)
    assert np.max(np.abs(image(xs) - want(xs))) <= 1e-9 * max(1.0, abs(a), abs(b))


def test_mode_coefficient_recovers_norm():
    assert fourier_jacobi_coeff(jacobi_poly(5, 2, 2), 5) == pytest.approx(jacobi_h(5), rel=1e-12)
    assert fourier_jacobi_coeff(jacobi_poly(5, 2, 2), 3) == pytest.approx(0.0, abs=1e-15)


def test_expansion_roundtrip_and_convergence():
    f = lambda x: np.sin(3.0 * x)
    rule = gauss_jacobi(256, 2.0)
    fv = f(rule.nodes)

    def residual(nmax):
        coeffs = expand_in_jacobi(f, nmax)
        sv = jacobi_matrix(nmax, rule.nodes).T @ coeffs
        return math.sqrt(max(float(np.sum(rule.weights * (fv - sv) ** 2)), 0.0))

    r8, r16 = residual(8), residual(16)
    assert r16 <= r8 / 2.0
    coeffs = expand_in_jacobi(f, 20)
    grid = make_grid(65)
    assert np.max(np.abs(jacobi_matrix(20, grid).T @ coeffs - f(grid))) <= 1e-10


def test_expansion_splits_at_breaks():
    # |x| against a 2 x 512-node Gauss-Legendre rule split at 0, exact for
    # the piecewise polynomial integrands; the default 256-node rule, split
    # at the declared break, must agree to rounding of the sums
    gl = gauss_legendre(512)
    xs = np.concatenate((gl.nodes - 1.0, gl.nodes + 1.0)) / 2.0
    ws = np.concatenate((gl.weights, gl.weights)) / 2.0 * (1.0 - xs * xs) ** 2
    basis = jacobi_matrix(64, xs)
    h = np.array([jacobi_h(k) for k in range(65)])
    want = basis @ (ws * np.abs(xs)) / h
    scale = np.abs(basis) @ (ws * np.abs(xs)) / h
    got = expand_in_jacobi(FunctionHandle(eval=np.abs, breaks=(0.0,)), 64)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)
    # one global rule converges only algebraically at the kink
    assert np.max(np.abs(expand_in_jacobi(np.abs, 64, 1024) - want)) > 1e-4


def test_polynomial_rep_basics():
    p = PolynomialRep(cheb=[2.0, 0.75, 0.0, 0.25])  # x^3 + 2 = 2 T_0 + (3 T_1 + T_3) / 4
    assert p.degree == 3
    d = p.derivative()
    assert np.allclose(d.cheb, [1.5, 0.0, 1.5])  # 3 x^2 = 3 (T_0 + T_2) / 2
    assert p(0.5) == pytest.approx(2.125, rel=1e-15)
    assert not p.is_zero()
    assert PolynomialRep(np.array([0.0])).is_zero()


def _reference_clenshaw(cheb, x):
    # textbook Clenshaw: b_k = (c_k - b_{k+2}) + 2x b_{k+1}, value (c_0 - b_2) + x b_1
    xv = np.asarray(x, dtype=float)
    b1 = np.zeros(xv.shape)
    b2 = np.zeros(xv.shape)
    for c in cheb[:0:-1]:
        b1, b2 = (c - b2) + 2.0 * xv * b1, b1
    out = (cheb[0] - b2) + xv * b1
    return float(out) if xv.ndim == 0 else out


def _horner_inputs():
    rng = np.random.default_rng(5)
    grid = rng.uniform(-1.0, 1.0, (37, 500))
    grid[0, :2] = (-1.0, 1.0)
    return {
        "python-scalar": 0.3,
        "0-d": np.array(-0.7),
        "empty": np.empty(0),
        "empty-2d": np.empty((0, 3)),
        "ragged-1d": np.linspace(-1.0, 1.0, 16421),
        "c-contiguous-2d": grid,
        "transposed-2d": grid.T,
        "endpoints": np.array([-1.0, 1.0, -1.0]),
    }


def _horner_coeffs(n):
    rng = np.random.default_rng(n)
    return {
        "jacobi": jacobi_poly(n, 2, 2).cheb,
        "random": rng.standard_normal(n + 1) * 10.0 ** rng.uniform(-3, 9, n + 1),
    }


# The test keeps the id it had when PolynomialRep evaluated monomial
# coefficients by compensated Horner; its subject is now PolynomialRep's
# call, Clenshaw's recurrence on the Chebyshev coefficients.
@pytest.mark.parametrize("n", [0, 5, 12, 40])
@pytest.mark.parametrize("kind", ["jacobi", "random"])
@pytest.mark.parametrize("name", list(_horner_inputs()))
def test_comp_horner_bit_identical_to_textbook_loop(n, kind, name):
    coeffs = _horner_coeffs(n)[kind]
    x = _horner_inputs()[name]
    before = np.array(x, copy=True)
    new = PolynomialRep(coeffs)(x)
    ref = _reference_clenshaw(coeffs, x)
    assert np.array_equal(np.asarray(x), before)  # input untouched
    if np.ndim(x) == 0:
        assert type(new) is float
    else:
        assert new.shape == np.shape(x)
    new_bits = np.asarray(new, dtype=float).view(np.int64)
    ref_bits = np.asarray(ref, dtype=float).view(np.int64)
    assert np.array_equal(new_bits, ref_bits)


def test_lincomb_matches_manual_sum():
    polys = [jacobi_poly(k, 2, 2) for k in range(3)]
    combo = _jacobi_series([1.0, -2.0, 0.5])
    xs = make_grid(9)
    manual = polys[0](xs) - 2.0 * polys[1](xs) + 0.5 * polys[2](xs)
    assert np.allclose(combo(xs), manual, atol=1e-14)


def test_degree_validation():
    with pytest.raises(InvalidArgumentError):
        jacobi_poly(-1, 2, 2)
    # the cache of jacobi_h keys True and 1 alike: True must fail after 1 is cached
    jacobi_h(1)
    for n in (-2, 2.5, "3", True):
        with pytest.raises(InvalidArgumentError):
            jacobi_h(n)
    with pytest.raises(InvalidArgumentError):
        jacobi_eval(3, 2, 2, 1.5)


def test_plateau_cut_keeps_the_series_up_to_its_plateau():
    # sin(3x)'s (2,2) coefficients fall to a rounding plateau of 1e-14 to
    # 6e-13 from degree 20 on: the cut keeps degrees 0..19. |x| and
    # (1-x)^0.75 decay algebraically and reach no plateau by degree 64; a
    # zero series keeps one coefficient, and 16 are too few to judge
    sin3 = expand_in_jacobi(lambda x: np.sin(3.0 * x), 64)
    assert _plateau_cut(sin3) == 20
    assert np.max(np.abs(sin3[20:])) <= 1e-12 * np.max(np.abs(sin3))
    assert _plateau_cut(expand_in_jacobi(FunctionHandle(eval=np.abs, breaks=(0.0,)), 64)) is None
    assert _plateau_cut(expand_in_jacobi(lambda x: np.maximum(1.0 - x, 0.0) ** 0.75, 64)) is None
    assert _plateau_cut(np.zeros(65)) == 1
    assert _plateau_cut(sin3[:16]) is None
