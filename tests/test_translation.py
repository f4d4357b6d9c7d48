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
    asym_translate,
    compute_R,
    jacobi_eval,
    jacobi_poly,
    kernel_B,
    make_grid,
    modulus,
    multiplier_psi,
    sym_translate,
)
from smoothness_lab.harness import _split_rule, corpus
from smoothness_lab.quadrature import gauss_legendre, sample
from smoothness_lab.translation import (
    _Z_RTOL,
    _Z_START,
    _asym_core,
    _asym_kernel,
    _moduli,
    _nested_integral,
    _nested_rule,
    _sym_core,
    _sym_kernel,
    _z_nodes,
)

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
    for x in (-0.7, 0.2):
        assert asym_translate(poly, y, x) == pytest.approx(poly(x) * psi, abs=1e-8)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_symmetric_product_formula(n):
    poly = jacobi_poly(n, 2, 2)
    got = sym_translate(poly, 0.5, 0.3)
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
    [
        lambda q: asym_translate(np.abs, 0.5, 0.3, quad_n=q),
        lambda q: sym_translate(np.abs, 0.5, 0.3, quad_n=q),
        lambda q: abs_rotation_average(np.abs, 0.7, make_grid(5), quad_n=q),
    ],
    ids=["asym", "sym", "rotation"],
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
# few Jacobi modes.
CORPUS_POLYS = [(e.label, e.handle) for e in corpus(7) if e.handle.degree is not None]
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


def test_z_nodes_uses_the_exact_rule_capped_at_quad_n():
    p12 = jacobi_poly(12, 2, 2)
    assert _z_nodes(p12, 2048) == 9
    assert _z_nodes(p12, 4) == 4
    assert _z_nodes(FunctionHandle(eval=p12.eval, degree=12), 4) == 4
    assert _z_nodes(FunctionHandle(eval=lambda x: x, degree=0), 128) == 3
    # no declared degree, or a bound method without one: quad_n, the cap of
    # the convergence-stopped rule
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


def _reference(f, y, kind):
    out = []
    for x in REF_XS:
        zs = x * y / (math.sqrt(1.0 - x * x) * math.sqrt(1.0 - y * y))
        split = math.acos(min(max(zs, -1.0), 1.0))
        total = 0.0
        for a, b in ((0.0, split), (split, math.pi)):
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


@pytest.mark.parametrize("kind", ["asym", "sym"])
@pytest.mark.parametrize("y", [-0.5, 0.3, 0.9])
def test_abs_is_split_at_its_break(kind, y):
    # the default quad_n: one global rule of 2,048 nodes is still off by 1e-7
    h = CORPUS["|x|"]
    assert h.breaks == (0.0,)
    got = KERNELS[kind](h, y, REF_XS, 128)
    assert np.max(np.abs(got - _reference(h.eval, y, kind))) <= 1e-12


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


MODULI_SPACES = {
    "p1": SpaceParams(1.0, 0.75),
    "p1.5": SpaceParams(1.5, 11.0 / 12.0),
    "p2": P21,
    "p3": SpaceParams(3.0, 13.0 / 12.0),
    "pinf": SpaceParams(math.inf, 1.25),
}


@pytest.mark.parametrize("name", sorted(MODULI_SPACES))
def test_moduli_equal_modulus_per_delta(name):
    # _moduli translates once per distinct y across its deltas; each value
    # must still be, bit for bit, the single-delta modulus, also for a zero
    # and a repeated delta
    params = MODULI_SPACES[name]
    cfg = Config()
    grids = (cfg.deltas, [1.0 / n for n in cfg.degrees], (0.3, 0.0, 2.9, 0.3))
    for e in corpus(7):
        for deltas in grids:
            want = [modulus(e.handle, d, params, cfg.t_points, cfg.quad_n, cfg.norm_nodes) for d in deltas]
            got = _moduli(e.handle, deltas, params, cfg.t_points, cfg.quad_n, cfg.norm_nodes)
            assert got == want, (e.label, deltas)


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
    got = _nested_integral(h, kernel, ys, REF_XS, quad_n, h.breaks)
    want = _row_wise_integral(h, kernel, ys, REF_XS, quad_n, h.breaks)
    abs_kernel = lambda *args: np.abs(kernel(*args))
    size = _row_wise_integral(lambda x: np.abs(h.eval(x)), abs_kernel, ys, REF_XS, quad_n, h.breaks)
    assert np.all(np.abs(got - want) <= 1e-13 * size)
