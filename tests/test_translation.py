"""Generalized translation: identities, multipliers, kernel bound, modulus."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothness_lab import (
    Config,
    FunctionHandle,
    InvalidArgumentError,
    SpaceParams,
    abs_rotation_average,
    compute_R,
    jacobi_eval,
    jacobi_matrix,
    jacobi_poly,
    kernel_B,
    make_grid,
    modulus,
    multiplier_psi,
)
from smoothness_lab.harness import _split_rule, corpus
from smoothness_lab.quadrature import gauss_legendre, sample
import smoothness_lab.translation as translation_module
import smoothness_lab.space as space_module
from smoothness_lab.approx import k_functional
from smoothness_lab.space import discrete_norm, weighted_norm
from smoothness_lab.translation import (
    _Z_RTOL,
    _Z_START,
    _Translates,
    _asym_core,
    _asym_kernel,
    _asym_scale,
    _exact_points,
    _nested_points,
    _nested_rule,
    _sym_core,
    _sym_kernel,
    _t_grids,
    _z_points,
)

P21 = SpaceParams(2.0, 1.0)


def test_translate_by_one_is_identity():
    f = lambda x: np.sin(3.0 * x)
    xs = make_grid(16)
    assert np.max(np.abs(_asym_core(f, 1.0, xs, 128) - f(xs))) <= 1e-10


@pytest.mark.parametrize("y", [-0.9, -0.5, 0.0, 0.5, 0.9, 1.0])
def test_constants_are_preserved(y):
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    assert np.max(np.abs(_asym_core(one, y, np.array([-0.7, 0.0, 0.4]), 128) - 1.0)) <= 1e-10


def test_translation_is_linear():
    f = lambda x: np.asarray(x, dtype=float)
    g = lambda x: np.abs(x)
    combo = lambda x: 0.7 * f(x) - 1.3 * g(x)
    xs = np.array([-0.3, 0.6])
    for y in (-0.5, 0.5):
        want = 0.7 * _asym_core(f, y, xs, 128) - 1.3 * _asym_core(g, y, xs, 128)
        assert np.max(np.abs(_asym_core(combo, y, xs, 128) - want)) <= 1e-12


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


def test_multiplier_is_defined_up_to_degree_64():
    values = np.array([[multiplier_psi(n, y) for y in (-0.95, -0.5, 0.0, 0.5, 0.9, 1.0)] for n in range(65)])
    assert np.all(np.isfinite(values))
    assert np.all(values[:, -1] == 1.0)


@pytest.mark.parametrize("y", [-0.95, -0.5, 0.0, 0.5, 0.9])
def test_multiplier_matches_z_quadrature_ratio(y):
    # tau_y P_n / P_n by the z-rule, where P_n is not small; |psi_n(-0.95)|
    # reaches 330, so the error is taken relative to max(1, |psi_n|)
    xs = make_grid(16)
    for n in range(65):
        poly = jacobi_poly(n, 2, 2)
        pv = poly(xs)
        keep = np.abs(pv) >= 1e-3
        psi = multiplier_psi(n, y)
        ratio = _asym_core(poly, y, xs[keep], 128) / pv[keep]
        assert np.max(np.abs(ratio - psi)) <= 1e-10 * max(1.0, abs(psi)), n


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("y", [-0.5, 0.5, 0.9])
def test_product_formula(n, y):
    poly = jacobi_poly(n, 2, 2)
    psi = multiplier_psi(n, y)
    xs = np.array([-0.7, 0.2])
    assert np.max(np.abs(_asym_core(poly, y, xs, 128) - poly(xs) * psi)) <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_symmetric_product_formula(n):
    poly = jacobi_poly(n, 2, 2)
    got = _sym_core(poly, 0.5, np.array([0.3]), 128)[0]
    assert got == pytest.approx(poly(0.3) * poly(0.5), abs=1e-8)


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
    # tau_y is defined for y in (-1, 1]; its multiplier checks y
    for bad in (-1.0, 1.2, math.nan):
        with pytest.raises(InvalidArgumentError, match="translation parameter y"):
            multiplier_psi(2, bad)


def test_modulus_frozen_values():
    f = lambda x: np.asarray(x, dtype=float)
    assert modulus(f, 0.25, P21) == pytest.approx(0.03640604390444986, abs=1e-12)
    assert modulus(f, 0.5, P21) == pytest.approx(0.14336062413762896, abs=1e-12)


def test_modulus_at_zero():
    assert modulus(lambda x: np.abs(x), 0.0, P21) == 0.0


@pytest.mark.parametrize("obj", [np.polynomial.Chebyshev([0.0, 0.0, 1.0]), np.polynomial.Polynomial([0.5, -1.0, 0.0, 2.0])])
def test_a_numpy_polynomial_declares_no_degree(obj):
    # numpy's degree() method is not a declared degree: the modulus of the
    # object is bitwise that of a function that calls it
    params = SpaceParams(1.5, 11.0 / 12.0)
    assert modulus(obj, 0.4, params) == modulus(lambda x: obj(x), 0.4, params)


def test_a_degree_attribute_of_a_plain_function_is_ignored():
    # only a FunctionHandle or a PolynomialRep declares a degree; |x| with a
    # degree attribute of 1 takes the convergence-stopped z-rule, as it does
    # in best_approx, and is not translated as a linear function
    params = SpaceParams(1.5, 11.0 / 12.0)
    f = lambda x: np.abs(x)
    f.degree = 1
    got = modulus(f, 0.4, params)
    assert got == modulus(lambda x: np.abs(x), 0.4, params)
    assert got == pytest.approx(0.1388, abs=1e-4)


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
    for bad in (0, True, 2.5):
        # t_points=2.5 used to give the modulus at delta = 0.4
        with pytest.raises(InvalidArgumentError, match="t_points"):
            modulus(f, 0.5, P21, t_points=bad)
    assert modulus(f, 0.5, P21, t_points=np.int64(4)) == modulus(f, 0.5, P21, t_points=4)
    for bad in (0, -3, True, 2.5, "x", None):
        # an unchecked quad_n of 0 gives a wrong modulus, not an error
        with pytest.raises(InvalidArgumentError, match="quad_n"):
            modulus(f, 0.1, P21, quad_n=bad)


@pytest.mark.parametrize(
    "call",
    [lambda q: abs_rotation_average(np.abs, 0.7, make_grid(5), quad_n=q)],
    ids=["rotation"],
)
def test_translations_reject_a_bad_quad_n(call):
    # an unchecked quad_n of 0 or -3 gives wrong values, and 2.5 is truncated
    for bad in (0, -3, True, 2.5, "x", None):
        with pytest.raises(InvalidArgumentError, match="quad_n"):
            call(bad)
    assert np.all(np.isfinite(call(np.int64(16))))


def test_multiplier_low_degrees():
    for y in (-0.5, 0.0, 0.5):
        assert multiplier_psi(0, y) == pytest.approx(1.0, abs=1e-10)
        assert multiplier_psi(2, y) == pytest.approx(7.0 * y * y - 7.0 * y + 1.0, abs=1e-10)


def test_multiplier_deterministic():
    for n in range(4):
        for y in (0.2, 0.8):
            assert multiplier_psi(n, y) == multiplier_psi(n, y)


@pytest.mark.parametrize("xs", [[1.0, 0.3], [-1.0], [0.2, math.nan], [math.inf], [[0.1, 0.2], [0.3, 0.4]]])
def test_rotation_average_rejects_bad_xs(xs):
    # x = +-1 divided by zero, and a 2-d xs leaked numpy's broadcasting error
    with pytest.raises(InvalidArgumentError, match="xs"):
        abs_rotation_average(np.abs, 0.5, xs)


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
    got = _asym_core(poly, 0.4, xs, 128)
    assert np.max(np.abs(got - psi * jacobi_eval(3, 2, 2, xs))) <= 1e-8


# Polynomials that declare their degree on all of [-1, 1]: the polynomial
# corpus entries and a few Jacobi modes.
CORPUS_POLYS = [(e.label, e.handle) for e in corpus(7) if space_module._declared_degree(e.handle) is not None]
POLY_CASES = CORPUS_POLYS + [(f"P_{n}", jacobi_poly(n, 2, 2)) for n in (0, 1, 5, 12, 24)]


def _sup(fn):
    return float(np.max(np.abs(fn(np.linspace(-1.0, 1.0, 401)))))


@pytest.mark.parametrize("label,fn", POLY_CASES, ids=[c[0] for c in POLY_CASES])
@pytest.mark.parametrize("quad_n", [128, 2048])
def test_asym_exact_rule_matches_full_rule(label, fn, quad_n):
    # the handle gets the short exact rule, its bare eval the
    # convergence-stopped rule; the points stay off the ends, where the division by 1 - x^2 amplifies
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


def test_z_points_picks_the_exact_rule_capped_at_quad_n(monkeypatch):
    # a declared degree d takes the exact rule of min(quad_n, d // 2 + 3)
    # nodes, and marks its points capped, their values depending on quad_n,
    # only where quad_n cut it; anything else takes the nested rule, with
    # quad_n as its cap
    rules = []
    real_exact, real_nested = translation_module._exact_points, translation_module._nested_points

    def exact(fn, kernel, y_all, x_all, nodes):
        rules.append(("exact", nodes))
        return real_exact(fn, kernel, y_all, x_all, nodes)

    def nested(fn, kernel, y_all, x_all, quad_n):
        rules.append(("nested", quad_n))
        return real_nested(fn, kernel, y_all, x_all, quad_n)

    monkeypatch.setattr(translation_module, "_exact_points", exact)
    monkeypatch.setattr(translation_module, "_nested_points", nested)
    p12 = jacobi_poly(12, 2, 2)
    y_all, x_all = np.array([0.3, -0.5]), np.array([0.2, 0.7])
    cases = [
        (p12, 2048, ("exact", 9)),
        (p12, 4, ("exact", 4)),
        (FunctionHandle(eval=p12.eval, degree=12), 4, ("exact", 4)),
        (FunctionHandle(eval=lambda x: x, degree=0), 128, ("exact", 3)),
        # no declared degree, or a bound method without one
        (FunctionHandle(eval=p12.eval), 128, ("nested", 128)),
        (p12.eval, 128, ("nested", 128)),
        (lambda x: x, 128, ("nested", 128)),
    ]
    for fn, quad_n, rule in cases:
        rules.clear()
        _, capped = _z_points(fn, _asym_kernel, y_all, x_all, quad_n)
        assert rules == [rule]
        if rule[0] == "exact":
            assert capped.shape == x_all.shape
            assert np.all(capped == (rule[1] < fn.degree // 2 + 3)), (fn, quad_n)


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


@pytest.mark.parametrize("core", [_asym_core, _sym_core], ids=["asym", "sym"])
def test_core_signatures_stay_fn_y_xs_quad_n(core):
    # the benchmark tracer binds xs and quad_n of both kernels by name
    assert list(inspect.signature(core).parameters) == ["fn", "y", "xs", "quad_n"]


@pytest.mark.parametrize("breaks", [(1.0,), (float("nan"),), (0.2, 0.1), (-1.0,), (0.1, 0.1), ("0",), (True,)])
def test_function_handle_rejects_bad_breaks(breaks):
    with pytest.raises(InvalidArgumentError):
        FunctionHandle(eval=lambda x: x, breaks=breaks)


def test_function_handle_stores_breaks_as_floats():
    assert FunctionHandle(eval=np.abs, breaks=[0, np.float64(0.5)]).breaks == (0.0, 0.5)
    assert FunctionHandle(eval=np.abs).breaks == ()


# Reference translations: Gauss-Legendre in theta = arccos z with 2,048
# nodes on each side of the crossing theta* of R with 0, built from the
# public compute_R and kernel_B rather than from the kernels under test.
REF_XS = 0.9 * make_grid(64)
REF_GL = gauss_legendre(2048)


def _reference(f, y, kind, breaks=(0.0,), xs=REF_XS):
    out = []
    for x in xs:
        den = math.sqrt(1.0 - x * x) * math.sqrt(1.0 - y * y)
        splits = sorted(math.acos(min(max((x * y - c) / den, -1.0), 1.0)) for c in breaks)
        edges = [0.0] + splits + [math.pi]
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            z = np.cos((a + b) / 2.0 + (b - a) / 2.0 * REF_GL.nodes)
            xv, yv = np.full_like(z, x), np.full_like(z, y)
            weight = kernel_B(xv, z, yv) if kind == "asym" else (1.0 - z * z) ** 2
            total += (b - a) / 2.0 * float(np.sum(REF_GL.weights * weight * f(compute_R(xv, z, yv))))
        if kind == "asym":
            out.append(4.0 / (math.pi * (1.0 + y) ** 2) * total / (1.0 - x * x))
        else:
            out.append(8.0 / (3.0 * math.pi) * total)
    return np.array(out)


CORPUS = {e.label: e.handle for e in corpus(7)}
KERNELS = {"asym": _asym_core, "sym": _sym_core}


def _nested_grid(fn, kernel, ys, xs, quad_n):
    """The nested z-rule at every (y, x) of a grid, shape (len(ys), len(xs))."""
    z, _ = _nested_points(fn, kernel, np.repeat(ys, xs.size), np.tile(xs, ys.size), quad_n)
    return z.reshape(ys.size, xs.size)


def _crosses(xs, y, b):
    """Whether R crosses b inside the z-range at each x: |z*| < 1."""
    return np.abs((xs * y - b) / (np.sqrt(1.0 - xs * xs) * math.sqrt(1.0 - y * y))) < 1.0


@pytest.mark.parametrize("kind", ["asym", "sym"])
@pytest.mark.parametrize("y", [-0.5, 0.3, 0.9])
def test_abs_is_split_at_its_break(kind, y):
    # the default quad_n: one global rule of 2,048 nodes is still off by 1e-7;
    # the points where R crosses the break and those where it does not are
    # held to the same bound
    h = CORPUS["|x|"]
    assert h.breaks == (0.0,)
    xs = 0.995 * make_grid(64)
    crossing = _crosses(xs, y, 0.0)
    assert 0 < np.sum(crossing) < xs.size
    err = np.abs(KERNELS[kind](h, y, xs, 128) - _reference(h.eval, y, kind, xs=xs))
    assert np.max(err[crossing]) <= 1e-12
    assert np.max(err[~crossing]) <= 1e-12


@pytest.mark.parametrize("kind", ["asym", "sym"])
def test_points_that_cross_no_break_take_the_break_free_rule(kind):
    # where R stays on one side of 0 the integrand in theta is smooth and
    # periodic: |x| declared with its break must then be, bit for bit, the
    # same |x| declared without it
    kernel = _asym_kernel if kind == "asym" else _sym_kernel
    xs = 0.995 * make_grid(64)
    ys = np.array([-0.9, -0.5, 0.3, 0.6, 0.9, 0.99, 1.0])
    split = _nested_grid(CORPUS["|x|"], kernel, ys, xs, 128)
    plain = _nested_grid(FunctionHandle(eval=CORPUS["|x|"].eval), kernel, ys, xs, 128)
    free = np.array([~_crosses(xs, y, 0.0) if y < 1.0 else np.full(xs.size, True) for y in ys])
    assert 0 < np.sum(free) < free.size
    assert np.array_equal(split[free], plain[free])
    assert np.all(split[~free] != plain[~free])


@pytest.mark.parametrize("kind", ["asym", "sym"])
@pytest.mark.parametrize("y", [-0.5, 0.3, 0.9])
def test_two_breaks_where_R_crosses_only_some_of_them(kind, y):
    # kinks at -0.4 and 0.3: at each y some points cross both, some one and
    # some neither, and each takes only its own panels
    breaks = (-0.4, 0.3)
    f = lambda x: np.abs(x - 0.3) + 2.0 * np.maximum(x + 0.4, 0.0)
    h = FunctionHandle(eval=f, breaks=breaks)
    xs = 0.995 * make_grid(64)
    crossings = _crosses(xs, y, breaks[0]).astype(int) + _crosses(xs, y, breaks[1])
    assert set(crossings.tolist()) == {0, 1, 2}
    got = KERNELS[kind](h, y, xs, 128)
    assert np.max(np.abs(got - _reference(f, y, kind, breaks=breaks, xs=xs))) <= 1e-12


@pytest.mark.parametrize("kind", ["asym", "sym"])
@pytest.mark.parametrize("label", ["sin(3x)", "(1-x)^0.75"])
@pytest.mark.parametrize("quad_n", [128, 2048])
def test_stopped_rule_no_less_accurate_than_full_rule(kind, label, quad_n):
    # a degree of at least 2 quad_n - 6 gives the full quad_n-node Chebyshev
    # rule; at the cap both rules have the same polynomial degree, so the
    # stopped rule is held to the full rule's error with 25% slack
    h = CORPUS[label]
    full_rule = FunctionHandle(eval=h.eval, degree=2 * quad_n)
    for y in (-0.5, 0.3, 0.9):
        ref = _reference(h.eval, y, kind)
        err = np.max(np.abs(KERNELS[kind](h, y, REF_XS, quad_n) - ref))
        err_full = np.max(np.abs(KERNELS[kind](full_rule, y, REF_XS, quad_n) - ref))
        assert err <= 1.25 * err_full + 1e-14, (y, err, err_full)


@pytest.mark.parametrize("kind", ["asym", "sym"])
@pytest.mark.parametrize("quad_n", [100, 128])
def test_unconverged_function_costs_at_most_quad_n_plus_one_samples(kind, quad_n):
    calls = []

    def square_wave(x):
        calls.append(np.size(x))
        return np.sign(np.sin(400.0 * x))

    ys = np.array([-0.5, 0.1, 0.3, 0.9])
    xs = 0.9 * make_grid(16)
    KERNELS[kind](FunctionHandle(eval=square_wave), ys, xs, quad_n)
    assert 0 < sum(calls) <= ys.size * xs.size * (quad_n + 1)


@pytest.mark.parametrize("kind", ["asym", "sym"])
@pytest.mark.parametrize("quad_n", [16, 128])
def test_batched_y_matches_calls_per_y(kind, quad_n):
    # a small quad_n forces the y rows into chunks
    core = KERNELS[kind]
    xs = 0.9 * make_grid(16)
    ys = np.array([math.cos(t) for t in np.linspace(0.0, 3.0, 40)])
    for label, h in CORPUS.items():
        batched = core(h, ys, xs, quad_n)
        assert batched.shape == (ys.size, xs.size)
        single = np.array([core(h, float(y), xs, quad_n) for y in ys])
        if h.degree is not None:
            assert np.array_equal(batched, single), label
        else:
            assert np.max(np.abs(batched - single)) <= 1e-13 * _sup(h), label
    assert core(CORPUS["|x|"], 0.5, xs, quad_n).shape == xs.shape


def test_exact_points_do_not_depend_on_their_chunk(monkeypatch):
    # 4,096 y on 16 x, in chunks of the default size and of 2**10 elements;
    # every 97th point also one point per chunk (a _CHUNK of 1)
    xs = make_grid(16)
    ys = np.cos(np.linspace(0.0, 3.0, 4096))
    y_all, x_all = np.repeat(ys, xs.size), np.tile(xs, ys.size)
    default = translation_module._CHUNK
    for poly in (jacobi_poly(5, 2, 2), jacobi_poly(12, 2, 2)):
        nodes = poly.degree // 2 + 3
        monkeypatch.setattr(translation_module, "_CHUNK", default)
        whole = _exact_points(poly, _asym_kernel, y_all, x_all, nodes)
        monkeypatch.setattr(translation_module, "_CHUNK", 2**10)
        assert np.array_equal(_exact_points(poly, _asym_kernel, y_all, x_all, nodes), whole), poly.degree
        monkeypatch.setattr(translation_module, "_CHUNK", 1)
        assert np.array_equal(_exact_points(poly, _asym_kernel, y_all[::97], x_all[::97], nodes), whole[::97]), poly.degree


@pytest.mark.parametrize("n_x", [5, 16])
def test_exact_rule_rows_do_not_depend_on_their_chunk(n_x):
    # 4,096 y on a few x go through the exact rule in a few large chunks;
    # every row must be bitwise the row of a call with that y alone
    xs = make_grid(n_x)
    ys = np.cos(np.linspace(0.0, 3.0, 4096))
    for poly in (jacobi_poly(5, 2, 2), jacobi_poly(12, 2, 2)):
        batched = _asym_core(poly, ys, xs, 64)
        single = np.array([_asym_core(poly, float(y), xs, 64) for y in ys])
        assert np.array_equal(batched, single), poly.degree


MODULI_SPACES = {
    "p1": SpaceParams(1.0, 0.75),
    "p1.5": SpaceParams(1.5, 11.0 / 12.0),
    "p2": P21,
    "p3": SpaceParams(3.0, 13.0 / 12.0),
    "pinf": SpaceParams(math.inf, 1.25),
}


@pytest.mark.parametrize("name", sorted(MODULI_SPACES))
def test_moduli_equal_modulus_per_delta(name):
    # modulus over a sequence translates once per distinct y across its
    # deltas; each value must still be, bit for bit, the single-delta
    # modulus, also for a zero and a repeated delta
    params = MODULI_SPACES[name]
    cfg = Config()
    grids = (cfg.deltas, [1.0 / n for n in cfg.degrees], (0.3, 0.0, 2.9, 0.3), np.array([0.5]), [])
    for e in corpus(7):
        for deltas in grids:
            want = [modulus(e.handle, d, params, cfg.t_points, cfg.quad_n, cfg.norm_nodes) for d in deltas]
            space_module._PREPARED.clear()  # the sequence translated afresh, not read from the kept rows
            got = modulus(e.handle, deltas, params, cfg.t_points, cfg.quad_n, cfg.norm_nodes)
            assert isinstance(got, list) and got == want, (e.label, deltas)
            assert all(type(v) is float for v in got)


def test_modulus_over_a_sequence_validates_every_delta():
    f = lambda x: np.asarray(x, dtype=float)
    for bad in ([[0.1, 0.2]], [0.1, math.pi], (0.2, -0.1), [0.3, math.nan], ["a"], [[0.1], [0.2, 0.3]]):
        with pytest.raises(InvalidArgumentError, match="delta"):
            modulus(f, bad, P21)
    assert type(modulus(f, np.float64(0.5), P21)) is float


def _row_wise_integral(fn, kernel, ys, xs, quad_n, breaks):
    """The nested z-rule as it was when a row of y stopped only once all of its x had converged."""
    kind = "clenshaw-curtis" if breaks else "trapezoid"
    npanel = len(breaks) + 1
    cap = max(int(quad_n) // npanel, 1)
    x = xs[None, :, None, None]
    sx = np.sqrt(1.0 - x * x)
    out = np.empty((ys.size, xs.size))
    work = [(np.arange(ys.size), min(_Z_START, cap), None, None)]
    while work:
        rows, n, old, prev = work.pop()
        last = 2 * n > cap
        y = ys[rows, None, None, None]
        sy = np.sqrt(np.maximum(1.0 - y * y, 0.0))
        if breaks:
            den = sx[..., 0] * sy[..., 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                zs = np.where(den > 0.0, (x[..., 0] * y[..., 0] - np.asarray(breaks)) / den, 1.0)
            theta = np.arccos(np.clip(zs, -1.0, 1.0))
            shape = theta.shape[:2] + (1,)
            edges = np.concatenate((np.zeros(shape), theta, np.full(shape, math.pi)), axis=-1)
            centre = ((edges[..., 1:] + edges[..., :-1]) / 2.0)[..., None]
            half = ((edges[..., 1:] - edges[..., :-1]) / 2.0)[..., None]
        else:
            centre = half = np.full((rows.size, 1, 1, 1), math.pi / 2.0)
        s, w = _nested_rule(kind, n)
        z = np.cos(centre + half * (s if old is None else s[1::2]))
        r = np.clip(x * y - z * sx * sy, -1.0, 1.0)
        g = kernel(1.0, x, sx, y, sy, z, r) * sample(fn, r)
        dot = lambda a, v: a @ v
        est = np.sum(half[..., 0] * (dot(g, w) if old is None else dot(old, w[::2]) + dot(g, w[1::2])), axis=-1)
        done = np.full(rows.size, last)
        if old is not None and not last:
            size = np.sum(half[..., 0] * (dot(np.abs(old), w[::2]) + dot(np.abs(g), w[1::2])), axis=-1)
            done = np.all(np.abs(est - prev) <= _Z_RTOL * size, axis=1)
        out[rows[done]] = est[done]
        more = ~done
        if np.any(more):
            if old is None:
                samples = g[more]
            else:
                samples = np.empty((int(np.sum(more)),) + g.shape[1:-1] + (n + 1,))
                samples[..., ::2] = old[more]
                samples[..., 1::2] = g[more]
            work.append((rows[more], 2 * n, samples, est[more]))
    return out


def test_per_point_stop_spares_the_points_far_from_the_singularity():
    # (1-x)^0.75 needs the 2,048-interval cap only where R reaches 1, near
    # x = y; a row-wise stop sent all 2,048 x of the row there (2,049
    # samples each), the per-point stop takes about 61 per x
    calls = []

    def f(x):
        calls.append(np.size(x))
        return CORPUS["(1-x)^0.75"].eval(x)

    xs, _ = _split_rule(1024, 0.5)
    _asym_core(FunctionHandle(eval=f), 0.5, xs, 2048)
    assert sum(calls) <= 128 * xs.size


@pytest.mark.parametrize("kind", ["asym", "sym"])
@pytest.mark.parametrize("label", ["|x|", "sin(3x)", "(1-x)^0.75"])
@pytest.mark.parametrize("quad_n", [128, 2048])
def test_per_point_stop_agrees_with_the_row_wise_stop(kind, label, quad_n):
    # both stop where two levels agree to _Z_RTOL of the integral of
    # |integrand|, so they differ by about that much
    kernel = _asym_kernel if kind == "asym" else _sym_kernel
    h = CORPUS[label]
    ys = np.array([-0.5, 0.3, 0.5, 0.9])
    got = _nested_grid(h, kernel, ys, REF_XS, quad_n)
    want = _row_wise_integral(h, kernel, ys, REF_XS, quad_n, h.breaks)
    abs_kernel = lambda *args: np.abs(kernel(*args))
    size = _row_wise_integral(lambda x: np.abs(h.eval(x)), abs_kernel, ys, REF_XS, quad_n, h.breaks)
    assert np.all(np.abs(got - want) <= 1e-13 * size)


def _z_rule_moduli(f, deltas, params, cfg):
    """The moduli from the z-rule translations of _asym_core, one row per distinct y, as modulus took them before the multipliers."""
    grids = _t_grids(deltas, cfg.t_points)
    ys = sorted({y for grid in grids for y in grid})
    norm = discrete_norm(params, cfg.norm_nodes)
    rows = _asym_core(f, np.array(ys), norm.nodes, cfg.quad_n) - sample(f, norm.nodes)
    by_y = dict(zip(ys, map(norm, rows)))
    return [max([0.0] + [by_y[y] for y in grid]) for grid in grids]


def test_jacobi_matrix_0_4_rows_are_the_multipliers():
    # _Translates takes psi_k(y) for a declared degree from these rows
    ys = np.array([math.cos(t) for t in np.linspace(0.0, 3.0, 25)])
    rows = jacobi_matrix(64, ys, 0.0, 4.0)
    for n in range(65):
        assert np.array_equal(rows[n], [multiplier_psi(n, y) for y in ys]), n


@pytest.mark.parametrize("name", sorted(MODULI_SPACES))
def test_multiplier_moduli_agree_with_the_z_rule(name):
    # a declared-degree f takes its moduli from psi_k(y) a_k, without a
    # z-integral; the z-rule is exact for it too, so the two agree to
    # rounding. The degree-48 K witness needs all of its d + 1 = 49 nodes.
    params = MODULI_SPACES[name]
    cfg = Config()
    fs = [
        (f"{e.label},seed={seed}", e.handle)
        for seed in (7, 11)
        for e in corpus(seed)
        if space_module._declared_degree(e.handle) is not None
    ]
    witness = k_functional(CORPUS["sin(3x)"], 0.1, P21, 48, 256).witness
    assert witness.degree == 48
    fs.append(("witness-48", witness))
    for label, f in fs:
        got = modulus(f, cfg.deltas, params, cfg.t_points, cfg.quad_n, cfg.norm_nodes)
        want = _z_rule_moduli(f, cfg.deltas, params, cfg)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-13 * weighted_norm(f, params), label


@pytest.mark.parametrize("name", sorted(MODULI_SPACES))
def test_series_moduli_agree_with_the_nested_rule(name):
    # sin(3x) declares no degree; its (2,2) series reaches a plateau at
    # degree 20, so _Translates takes the multipliers of the series cut
    # there, which agree with the nested z-rule's moduli within 1e-12
    # relative. |x| and (1-x)^0.75 decay algebraically and reach none
    params = MODULI_SPACES[name]
    cfg = Config()
    for seed in (7, 11):
        entries = {e.label: e.handle for e in corpus(seed)}
        h = entries["sin(3x)"]
        translates = _Translates(h, params, cfg.t_points, cfg.quad_n, cfg.norm_nodes)
        assert translates.coeffs is not None and translates.coeffs.size == 20
        got = translates.moduli(cfg.deltas)
        want = _z_rule_moduli(h, cfg.deltas, params, cfg)
        assert np.max(np.abs(np.subtract(got, want)) / np.array(want)) <= 1e-12, seed
        for label in ("|x|", "(1-x)^0.75"):
            assert _Translates(entries[label], params, cfg.t_points, cfg.quad_n, cfg.norm_nodes).coeffs is None, label


def test_abs_is_translated_exactly_on_the_norm_nodes():
    # |x| declares degree 1 between its breaks: at the 256 norm nodes of
    # (2, 1) and 40 y = cos t, t in (0, 2.4], its piecewise-exact
    # translation agrees with the nested rule under a cap of 2,048 within
    # 1e-11 of the largest |tau_y f|
    h = CORPUS["|x|"]
    assert (h.degree, h.breaks) == (1, (0.0,))
    xs = discrete_norm(P21, Config().norm_nodes).nodes
    ys = np.cos(np.linspace(0.0, 2.4, 41)[1:])
    got = _asym_core(h, ys, xs, 128)
    z, _ = _nested_points(h, _asym_kernel, np.repeat(ys, xs.size), np.tile(xs, ys.size), 2048)
    want = (_asym_scale(ys)[:, None] * z.reshape(ys.size, xs.size)) / (1.0 - xs * xs)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_moduli_of_a_declared_degree_take_no_z_integral(monkeypatch):
    calls = []
    real = translation_module._z_points

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(translation_module, "_z_points", recording)
    cfg = Config()
    for e in corpus(7):
        if space_module._declared_degree(e.handle) is not None:
            modulus(e.handle, cfg.deltas, P21, cfg.t_points, cfg.quad_n, cfg.norm_nodes)
    assert calls == []
    # the translations themselves still take the exact z-rule
    _asym_core(CORPUS["P_5"], 0.5, make_grid(4), 128)
    assert len(calls) == 1


def test_a_degree_with_breaks_declares_a_piecewise_polynomial():
    # degree=d with breaks promises a polynomial of degree d between the
    # breaks, not on all of [-1, 1]: the handle has no exact coefficients,
    # and its moduli come from the piecewise-exact z-rule. This quintic is
    # one polynomial across its break, so they agree with the multiplier
    # moduli of the handle declared without it
    quintic = lambda x: x**5 - 0.3 * x**2
    broken = FunctionHandle(eval=quintic, degree=5, breaks=(0.0,))
    plain = FunctionHandle(eval=quintic, degree=5)
    assert space_module._prepared(broken).coefficients() is None
    assert space_module._prepared(plain).coefficients() is not None
    cfg = Config()
    for params in (P21, SpaceParams(1.5, 11.0 / 12.0)):
        got = modulus(broken, cfg.deltas, params)
        want = modulus(plain, cfg.deltas, params)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12 * max(want), params
    assert abs(modulus(broken, 0.4, P21) - modulus(quintic, 0.4, P21)) <= 1e-12


@pytest.mark.parametrize("kind", ["asym", "sym"])
@pytest.mark.parametrize("y", [-0.5, 0.3, 0.9])
def test_a_piecewise_polynomial_translates_exactly(kind, y):
    # pieces of degree 3 with a kink at -0.4 and a jump at 0.3: points that
    # cross both breaks, one or neither, against the split 2,048-node
    # reference
    breaks = (-0.4, 0.3)
    f = lambda x: np.where(x < 0.3, np.abs(x + 0.4) * x * x, 1.0 - x * x * x)
    xs = 0.995 * make_grid(64)
    crossings = _crosses(xs, y, breaks[0]).astype(int) + _crosses(xs, y, breaks[1])
    assert set(crossings.tolist()) == {0, 1, 2}
    h = FunctionHandle(eval=f, degree=3, breaks=breaks)
    got = KERNELS[kind](h, y, xs, 128)
    assert np.max(np.abs(got - _reference(f, y, kind, breaks=breaks, xs=xs))) <= 1e-12


@pytest.mark.parametrize("quad_n", [8, 128])
def test_points_that_do_not_depend_on_the_cap_keep_their_value_under_a_larger_one(quad_n):
    # _z_points marks the points whose value depends on quad_n: those the
    # nested rule capped, and those of an exact rule that quad_n cut below
    # d // 2 + 3 nodes (the random series, degree 12, at quad_n = 8).
    # Integrating only them again under 2 quad_n gives bitwise the
    # translation under 2 quad_n, for every corpus entry
    xs = discrete_norm(P21, Config().norm_nodes).nodes
    ys = np.cos(np.array([0.3, 0.8, 1.5, 2.2, 2.8, 3.0]))
    iy, x_all = np.repeat(np.arange(ys.size), xs.size), np.tile(xs, ys.size)
    for e in corpus(7):
        lo, capped = translation_module._asym_points(e.handle, ys, iy, x_all, quad_n)
        hi = lo.copy()
        hi[capped] = translation_module._asym_points(e.handle, ys, iy[capped], x_all[capped], 2 * quad_n)[0]
        assert np.array_equal(lo.reshape(ys.size, -1), _asym_core(e.handle, ys, xs, quad_n)), e.label
        assert np.array_equal(hi.reshape(ys.size, -1), _asym_core(e.handle, ys, xs, 2 * quad_n)), e.label
        if e.label == "random-series":
            assert capped.all() == (quad_n == 8)


@pytest.mark.parametrize("label", ["|x|", "(1-x)^0.75", "sin(3x)"])
def test_doubled_cap_redoes_only_the_capped_points(monkeypatch, label):
    # modulus-k-stability's moduli under 2 quad_n come from the rows of the
    # main pass with only their capped points integrated again; they must be
    # bitwise the moduli of a fresh pass under 2 quad_n
    cfg = Config()
    h = CORPUS[label]
    grid = list(cfg.deltas) + [1.0 / n for n in cfg.degrees]
    translates = _Translates(h, P21, cfg.t_points, cfg.quad_n, cfg.norm_nodes)
    assert translates.moduli(grid) == modulus(h, grid, P21, cfg.t_points, cfg.quad_n, cfg.norm_nodes)
    points = []
    real = translation_module._nested_points

    def recording(fn, kernel, y_all, *args):
        points.append(y_all.size)
        return real(fn, kernel, y_all, *args)

    monkeypatch.setattr(translation_module, "_nested_points", recording)
    for deltas in (cfg.deltas, cfg.deltas[2:5]):
        points.clear()
        got = translates.moduli(deltas, 2 * cfg.quad_n)
        ys = {y for grid in _t_grids(deltas, cfg.t_points) for y in grid}
        assert sum(points) == sum(int(mask.sum()) for y, (_, mask) in translates.capped.items() if y in ys)
        assert got == modulus(h, deltas, P21, cfg.t_points, 2 * cfg.quad_n, cfg.norm_nodes), deltas
    if label == "(1-x)^0.75":
        assert translates.capped


@pytest.mark.parametrize("label", ["|x|", "(1-x)^0.75", "sin(3x)"])
def test_modulus_keeps_the_capped_rows_of_every_y_it_met(label):
    # one-delta modulus calls, as the spaces benchmark makes them, leave the
    # kept _Translates with the norms and capped rows of every y they met,
    # bitwise those of one pass over all the deltas; its moduli under 2
    # quad_n are bitwise modulus under 2 quad_n
    cfg = Config()
    h = CORPUS[label]
    for d in cfg.deltas:
        modulus(h, d, P21, cfg.t_points, cfg.quad_n, cfg.norm_nodes)
    kept = space_module._PREPARED._entry[1]._slots["modulus"][1]
    joint = _Translates(h, P21, cfg.t_points, cfg.quad_n, cfg.norm_nodes)
    joint.moduli(cfg.deltas)
    assert kept.norms == joint.norms
    assert kept.capped.keys() == joint.capped.keys()
    for y, (row, mask) in joint.capped.items():
        assert np.array_equal(kept.capped[y][0], row) and np.array_equal(kept.capped[y][1], mask), y
    if label == "(1-x)^0.75":
        assert kept.capped
    got = kept.moduli(cfg.deltas, 2 * cfg.quad_n)
    assert got == modulus(h, cfg.deltas, P21, cfg.t_points, 2 * cfg.quad_n, cfg.norm_nodes)


@pytest.mark.parametrize("params", [P21, SpaceParams(math.inf, 1.25)], ids=["p2", "pinf"])
def test_kept_capped_rows_own_their_data(params):
    # each kept row and mask is a copy, so it does not keep the array of its
    # whole batch of y alive; of the corpus only (1-x)^0.75 keeps rows, since
    # |x| is translated exactly
    cfg = Config()
    for label in ("(1-x)^0.75",):
        for d in cfg.deltas:
            modulus(CORPUS[label], d, params, cfg.t_points, cfg.quad_n, cfg.norm_nodes)
        kept = space_module._PREPARED._entry[1]._slots["modulus"][1]
        assert kept.capped, label
        for y, (row, mask) in kept.capped.items():
            assert row.base is None and mask.base is None, (label, y)


@pytest.mark.parametrize("label", ["|x|", "(1-x)^0.75", "sin(3x)"])
def test_extrapolated_stop_is_within_rounding_of_a_deeper_two_level_rule(monkeypatch, label):
    # on the sweep's y grid and norm nodes, every point that stops by a test
    # is within 1e-13 S of the two-level test alone under a cap of 4 quad_n,
    # S the point's integral of |integrand|; a point that reaches the cap
    # passed neither test, and is bitwise the two-level rule's at that cap
    cfg = Config()
    h = CORPUS[label]
    grids = _t_grids(list(cfg.deltas) + [1.0 / n for n in cfg.degrees], cfg.t_points)
    ys = np.array(sorted({y for grid in grids for y in grid}))
    xs = discrete_norm(P21, cfg.norm_nodes).nodes
    y_all, x_all = np.repeat(ys, xs.size), np.tile(xs, ys.size)

    def rule(f, kernel, quad_n):
        return _nested_points(f, kernel, y_all, x_all, quad_n)

    got, capped = rule(h, _asym_kernel, cfg.quad_n)
    monkeypatch.setattr(translation_module, "_Z_EXTRAPOLATED", 0.0)
    want, _ = rule(h, _asym_kernel, 4 * cfg.quad_n)
    two_level, _ = rule(h, _asym_kernel, cfg.quad_n)
    abs_f = FunctionHandle(eval=lambda x: np.abs(h.eval(x)), breaks=h.breaks)
    size, _ = rule(abs_f, lambda *args: np.abs(_asym_kernel(*args)), 4 * cfg.quad_n)
    assert np.all(np.abs(got - want)[~capped] <= 1e-13 * size[~capped])
    assert np.array_equal(got[capped], two_level[capped])


@pytest.mark.parametrize("label", ["|x|", "(1-x)^0.75", "sin(3x)"])
def test_extrapolated_stop_takes_fewer_samples(monkeypatch, label):
    cfg = Config()
    h = CORPUS[label]
    ys = np.array(sorted({y for grid in _t_grids(cfg.deltas, cfg.t_points) for y in grid}))
    xs = discrete_norm(P21, cfg.norm_nodes).nodes
    counts = []
    f = FunctionHandle(eval=lambda x: counts.append(np.size(x)) or h.eval(x), breaks=h.breaks)
    _nested_grid(f, _asym_kernel, ys, xs, cfg.quad_n)
    extrapolated = sum(counts)
    counts.clear()
    monkeypatch.setattr(translation_module, "_Z_EXTRAPOLATED", 0.0)
    _nested_grid(f, _asym_kernel, ys, xs, cfg.quad_n)
    assert extrapolated < sum(counts)
