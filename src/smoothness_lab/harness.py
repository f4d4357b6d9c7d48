"""Verification harness: corpus, invariant checks, theorem sweeps, reports."""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional

import numpy as np

from .approx import (
    MAX_APPROX_DIM,
    MAX_WITNESS_DEG,
    JacksonParams,
    _jackson_by_translation,
    bernstein_markov_ratios,
    best_approx,
    gamma_norm,
    jackson_degree_bound,
    jackson_operator,
    k_functional,
)
from .errors import InvalidArgumentError, ReportIOError, SmoothnessLabError
from .jacobi import (
    PolynomialRep,
    apply_D_poly,
    expand_in_jacobi,
    jacobi_eval,
    jacobi_h,
    jacobi_matrix,
    jacobi_poly,
    poly_lincomb,
)
from .quadrature import gauss_chebyshev, gauss_jacobi, gauss_legendre, integrate, ordered_sum
from .space import FunctionHandle, SpaceParams, discrete_norm, make_grid, sample, validate_params, weighted_norm
from .translation import (
    _asym_core,
    _moduli,
    _sym_core,
    abs_rotation_average,
    compute_R,
    kernel_B,
    modulus,
    multiplier_psi,
)

__all__ = [
    "Config",
    "CorpusEntry",
    "VerificationReport",
    "corpus",
    "run_lemma_suite",
    "run_theorem_sweep",
    "emit_report",
]

SCHEMA_VERSION = 1

# node counts, degrees and grid sizes: each must be a positive integer
_RESOLUTION_FIELDS = (
    "quad_n",
    "norm_nodes",
    "t_points",
    "kdeg",
    "pair_nodes",
    "pair_quad",
    "coeff_nodes",
    "coeff_quad",
    "approx_grid",
)


def _is_positive_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1


def _is_finite_real(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool) and math.isfinite(v)


@dataclass(frozen=True)
class Config:
    """Knobs shared by the verification suite and the theorem sweep."""

    p: float = 2.0
    alpha: float = 1.0
    quad_n: int = 128
    norm_nodes: int = 256
    t_points: int = 16
    kdeg: int = 32
    seed: int = 7
    tol_scale: float = 1.0
    deltas: tuple = (0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.4)
    degrees: tuple = (2, 4, 8, 16, 32)
    # heavier resolutions for the checks whose tolerances demand them
    pair_nodes: int = 1024
    pair_quad: int = 1024
    coeff_nodes: int = 2048
    coeff_quad: int = 2048
    approx_grid: int = 512

    def __post_init__(self):
        for name in _RESOLUTION_FIELDS:
            v = getattr(self, name)
            if not _is_positive_int(v):
                raise InvalidArgumentError(f"{name} must be a positive integer, got {v!r}")
        for name in ("degrees", "deltas"):
            if len(getattr(self, name)) == 0:
                raise InvalidArgumentError(f"{name} must not be empty")
        if self.kdeg > MAX_WITNESS_DEG:
            raise InvalidArgumentError(f"kdeg must be at most {MAX_WITNESS_DEG}, got {self.kdeg!r}")
        if self.norm_nodes < self.kdeg + 1:
            # the K-functional fits kdeg + 1 witness coefficients on these nodes
            raise InvalidArgumentError(f"norm_nodes must be at least kdeg + 1 = {self.kdeg + 1}, got {self.norm_nodes!r}")
        for n in self.degrees:
            if not _is_positive_int(n):
                raise InvalidArgumentError(f"degrees must be positive integers, got {n!r}")
            if n > MAX_APPROX_DIM:
                raise InvalidArgumentError(f"degrees must be at most {MAX_APPROX_DIM}, got {n!r}")
        for d in self.deltas:
            if not (_is_finite_real(d) and 0.0 <= d < math.pi):
                raise InvalidArgumentError(f"deltas must be finite and lie in [0, pi), got {d!r}")
        if not (_is_finite_real(self.tol_scale) and self.tol_scale > 0.0):
            raise InvalidArgumentError(f"tol_scale must be finite and positive, got {self.tol_scale!r}")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


@dataclass(frozen=True)
class CorpusEntry:
    """A labeled test function with a smoothness class tag."""

    label: str
    handle: FunctionHandle
    tag: str
    seed: Optional[int] = None


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check."""

    check_id: str
    status: str
    observed: Optional[float]
    tolerance: Optional[float]
    details: tuple = ()
    note: str = ""
    seconds: float = 0.0

    def as_dict(self) -> dict:
        # seconds stays out: emitted reports must be byte-stable across runs
        return {
            "check_id": self.check_id,
            "status": self.status,
            "observed": self.observed,
            "tolerance": self.tolerance,
            "details": [dict(d) for d in self.details],
            "note": self.note,
        }


def _poly_handle(poly: PolynomialRep, parity="none", label="") -> FunctionHandle:
    d1 = poly.derivative()
    d2 = d1.derivative()
    return FunctionHandle(
        eval=poly.__call__, d1=d1.__call__, d2=d2.__call__, parity=parity, label=label, degree=poly.degree
    )


def corpus(seed: int = 7):
    """Deterministic corpus of test functions spanning the smoothness classes."""
    rng = np.random.default_rng(seed)
    series_coeffs = rng.uniform(-1.0, 1.0, 13) * (1.0 + np.arange(13.0)) ** -3.0
    series_poly = poly_lincomb(series_coeffs, [jacobi_poly(k, 2, 2) for k in range(13)])
    p5 = jacobi_poly(5, 2, 2)
    entries = [
        CorpusEntry(
            "1",
            FunctionHandle(
                eval=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                d1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                d2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                parity="even",
                label="1",
                degree=0,
            ),
            "polynomial",
        ),
        CorpusEntry(
            "x",
            FunctionHandle(
                eval=lambda x: np.asarray(x, dtype=float) + 0.0,
                d1=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                d2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                parity="odd",
                label="x",
                degree=1,
            ),
            "polynomial",
        ),
        CorpusEntry(
            "x^2",
            FunctionHandle(
                eval=lambda x: np.asarray(x, dtype=float) ** 2,
                d1=lambda x: 2.0 * np.asarray(x, dtype=float),
                d2=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
                parity="even",
                label="x^2",
                degree=2,
            ),
            "polynomial",
        ),
        CorpusEntry("P_5", _poly_handle(p5, parity="odd", label="P_5"), "polynomial"),
        CorpusEntry(
            "|x|",
            FunctionHandle(
                eval=lambda x: np.abs(np.asarray(x, dtype=float)), parity="even", label="|x|", breaks=(0.0,)
            ),
            "kink",
        ),
        CorpusEntry(
            "(1-x)^0.75",
            FunctionHandle(
                eval=lambda x: np.maximum(1.0 - np.asarray(x, dtype=float), 0.0) ** 0.75,
                d1=lambda x: -0.75 * np.maximum(1.0 - np.asarray(x, dtype=float), 1e-300) ** -0.25,
                d2=lambda x: -0.1875 * np.maximum(1.0 - np.asarray(x, dtype=float), 1e-300) ** -1.25,
                parity="none",
                label="(1-x)^0.75",
            ),
            "endpoint-singular",
        ),
        CorpusEntry(
            "sin(3x)",
            FunctionHandle(
                eval=lambda x: np.sin(3.0 * np.asarray(x, dtype=float)),
                d1=lambda x: 3.0 * np.cos(3.0 * np.asarray(x, dtype=float)),
                d2=lambda x: -9.0 * np.sin(3.0 * np.asarray(x, dtype=float)),
                parity="odd",
                label="sin(3x)",
            ),
            "analytic",
        ),
        CorpusEntry(
            "random-series",
            _poly_handle(series_poly, parity="none", label="random-series"),
            "random-series",
            seed=seed,
        ),
    ]
    return entries


def _d_handle(entry: CorpusEntry) -> Optional[FunctionHandle]:
    """Image of the entry under the second-order operator, when derivatives exist."""
    h = entry.handle
    if h.d1 is None or h.d2 is None:
        return None

    def dv(x):
        x = np.asarray(x, dtype=float)
        return (1.0 - x * x) * h.d2(x) - 6.0 * x * h.d1(x)

    return FunctionHandle(eval=dv, label=f"D[{entry.label}]")


def _run(check_id: str, tolerance: Optional[float], fn: Callable[[], tuple]) -> VerificationReport:
    """Run one check, never letting an exception escape the suite."""
    start = time.perf_counter()
    try:
        observed, details, note = fn()
    except SmoothnessLabError as e:
        return VerificationReport(check_id, "fail", None, tolerance, (), f"error: {e}", time.perf_counter() - start)
    except Exception as e:  # noqa: BLE001 - a crashed check must still report
        return VerificationReport(check_id, "fail", None, tolerance, (), f"error: {e!r}", time.perf_counter() - start)
    elapsed = time.perf_counter() - start
    if observed is None:
        return VerificationReport(check_id, "skipped", None, tolerance, tuple(details), note, elapsed)
    observed = float(observed)
    if tolerance is None:
        status = "pass" if math.isfinite(observed) else "fail"
    else:
        status = "pass" if observed <= tolerance else "fail"
    return VerificationReport(check_id, status, observed, tolerance, tuple(details), note, elapsed)


def _split_rule(n_panel: int, y: float):
    """Composite Gauss rule for the (1-x^2)^2 inner product of tau_y f.

    tau_y |x| has kinks at x = 0 and at x = +-sqrt(1 - y^2), where the range
    of R touches 0, so the rule puts a panel joint at each: every panel sees
    a piecewise analytic integrand and the rule converges spectrally where a
    single global rule is stuck at O(n^-2). Four panels of n_panel // 2
    nodes keep the 2 * n_panel nodes of a split at 0 alone.
    """
    gl = gauss_legendre(max(int(n_panel) // 2, 1))
    s = math.sqrt(1.0 - y * y)
    edges = (-1.0, -s, 0.0, s, 1.0)
    halves = [((b - a) / 2.0, (a + b) / 2.0) for a, b in zip(edges, edges[1:])]
    xs = np.concatenate([h * gl.nodes + c for h, c in halves])
    ws = np.concatenate([h * gl.weights for h, _ in halves]) * (1.0 - xs * xs) ** 2
    return xs, ws


def _legendre_moment(k: int) -> float:
    return 0.0 if k % 2 else 2.0 / (k + 1.0)


def _chebyshev_moment(k: int) -> float:
    return 0.0 if k % 2 else math.pi * math.comb(k, k // 2) / 2.0 ** k


def _jacobi22_moment(k: int) -> float:
    return 0.0 if k % 2 else 2.0 * (1.0 / (k + 1.0) - 2.0 / (k + 3.0) + 1.0 / (k + 5.0))


def run_lemma_suite(config: Config = Config()):
    """All structural checks: identities, bounds, spectral facts, estimates.

    Returns a list of VerificationReport in a fixed order; a check that
    raises is reported as failed, never aborting the suite.
    """
    cfg = config
    verdict = validate_params(cfg.p, cfg.alpha)
    if not verdict.admissible:
        raise InvalidArgumentError(
            f"(p, alpha) = ({cfg.p:g}, {cfg.alpha:g}) is outside the admissible range {verdict.interval()}"
        )
    entries = corpus(cfg.seed)
    grid16 = make_grid(16)
    reports = []
    t = lambda v: v * cfg.tol_scale

    def quadrature_exactness():
        worst, details = 0.0, []
        cases = [
            ("legendre", gauss_legendre, _legendre_moment),
            ("chebyshev1", gauss_chebyshev, _chebyshev_moment),
            ("jacobi(2,2)", lambda n: gauss_jacobi(n, 2.0, 2.0), _jacobi22_moment),
        ]
        for name, make, moment in cases:
            err = 0.0
            for n in (2, 4, 8, 16):
                rule = make(n)
                for k in range(2 * n):
                    got = ordered_sum(rule.weights * rule.nodes ** k)
                    ref = moment(k)
                    err = max(err, abs(got - ref) / max(1.0, abs(ref)))
            details.append({"case": name, "value": err})
            worst = max(worst, err)
        return worst, details, ""

    reports.append(_run("quadrature-exactness", t(1e-12), quadrature_exactness))

    def quadrature_doubling():
        worst, details = 0.0, []
        base = max(int(cfg.quad_n), 2)
        cases = [(e.label, e.handle.eval, e.tag) for e in entries]
        # near-pole rational sentinel: its Gauss error is visible at low node
        # counts and negligible at the default resolution
        cases.append(("1/(1.1+x)", lambda x: 1.0 / (1.1 + np.asarray(x, dtype=float)), "analytic"))
        for label, fn, tag in cases:
            if tag in ("kink", "endpoint-singular"):
                details.append({"case": label, "value": None, "note": "non-smooth integrand, excluded"})
                continue
            lo = integrate(fn, gauss_legendre(base))
            hi = integrate(fn, gauss_legendre(2 * base))
            diff = abs(lo - hi)
            details.append({"case": label, "value": diff})
            worst = max(worst, diff)
        return worst, details, "non-smooth entries excluded: plain Gauss converges only algebraically there"

    reports.append(_run("quadrature-doubling", t(1e-8), quadrature_doubling))

    def jacobi_orthogonality():
        rule = gauss_jacobi(64, 2.0, 2.0)
        mat = jacobi_matrix(16, rule.nodes)
        gram = (mat * rule.weights[None, :]) @ mat.T
        off = gram - np.diag(np.diag(gram))
        worst = float(np.max(np.abs(off)))
        return worst, [{"case": "n<=16", "value": worst}], ""

    reports.append(_run("jacobi-orthogonality", t(1e-10), jacobi_orthogonality))

    def jacobi_eigenrelation():
        worst, details = 0.0, []
        for n in range(0, 17):
            poly = jacobi_poly(n, 2, 2)
            image = apply_D_poly(poly)
            lam = -n * (n + 5.0)
            resid = np.zeros(poly.cheb.size)
            resid[: image.cheb.size] += image.cheb
            resid -= lam * poly.cheb
            scale = max(1.0, float(np.max(np.abs(lam * poly.cheb))))
            rel = float(np.max(np.abs(resid))) / scale
            details.append({"case": f"n={n}", "value": rel})
            worst = max(worst, rel)
        return worst, details, "residual relative to the largest coefficient of the eigenvalue image"

    reports.append(_run("jacobi-eigenrelation", t(1e-10), jacobi_eigenrelation))

    def jacobi_normalization():
        worst = 0.0
        for n in range(33):
            worst = max(worst, abs(jacobi_eval(n, 2, 2, 1.0) - 1.0))
        return worst, [{"case": "n<=32", "value": worst}], ""

    reports.append(_run("jacobi-normalization", 0.0, jacobi_normalization))

    def jacobi_eval_agreement():
        worst, details = 0.0, []
        grid = make_grid(64)
        for n in (8, 12, 16, 24, 32, 48, 64):
            diff = float(np.max(np.abs(jacobi_eval(n, 2, 2, grid) - jacobi_poly(n, 2, 2)(grid))))
            details.append({"case": f"n={n}", "value": diff})
            worst = max(worst, diff)
        return worst, details, ""

    reports.append(_run("jacobi-eval-agreement", t(1e-12), jacobi_eval_agreement))

    def translation_identity():
        worst, details = 0.0, []
        for e in entries:
            fx = np.asarray(e.handle(grid16), dtype=float)
            tv = _asym_core(e.handle, 1.0, grid16, cfg.quad_n)
            diff = float(np.max(np.abs(tv - fx)))
            details.append({"case": e.label, "value": diff})
            worst = max(worst, diff)
        return worst, details, ""

    reports.append(_run("translation-identity", t(1e-10), translation_identity))

    def translation_constant():
        worst, details = 0.0, []
        one = lambda r: np.ones_like(r)
        for y in (-0.9, -0.5, 0.0, 0.5, 0.9, 1.0):
            tv = _asym_core(one, y, grid16, cfg.quad_n)
            diff = float(np.max(np.abs(tv - 1.0)))
            details.append({"case": f"y={y:g}", "value": diff})
            worst = max(worst, diff)
        return worst, details, ""

    reports.append(_run("translation-constant", t(1e-10), translation_constant))

    def translation_linearity():
        worst, details = 0.0, []
        by_label = {e.label: e.handle for e in entries}
        pairs = (("x", "sin(3x)"), ("x^2", "|x|"))
        a, b = 0.7, -1.3
        for la, lb in pairs:
            fa, fb = by_label[la], by_label[lb]
            combo = lambda r: a * np.asarray(fa(r), dtype=float) + b * np.asarray(fb(r), dtype=float)
            for y in (-0.5, 0.5):
                lhs = _asym_core(combo, y, grid16, cfg.quad_n)
                rhs = a * _asym_core(fa.eval, y, grid16, cfg.quad_n) + b * _asym_core(
                    fb.eval, y, grid16, cfg.quad_n
                )
                diff = float(np.max(np.abs(lhs - rhs)))
                details.append({"case": f"{la},{lb},y={y:g}", "value": diff})
                worst = max(worst, diff)
        return worst, details, ""

    reports.append(_run("translation-linearity", t(1e-12), translation_linearity))

    def product_formula():
        worst, details = 0.0, []
        for n in range(9):
            fn = lambda r, n=n: jacobi_eval(n, 2, 2, r)
            px = jacobi_eval(n, 2, 2, grid16)
            err = 0.0
            for y in (-0.5, 0.0, 0.5, 0.9):
                psi = multiplier_psi(n, y)
                tv = _asym_core(fn, y, grid16, cfg.quad_n)
                err = max(err, float(np.max(np.abs(tv - px * psi))))
            details.append({"case": f"n={n}", "value": err})
            worst = max(worst, err)
        return worst, details, "z-quadrature translate of each mode against the mode scaled by its closed-form multiplier"

    reports.append(_run("product-formula", t(1e-8), product_formula))

    def sym_product_formula():
        worst, details = 0.0, []
        for n in range(9):
            fn = lambda r, n=n: jacobi_eval(n, 2, 2, r)
            px = jacobi_eval(n, 2, 2, grid16)
            err = 0.0
            for y in (-0.5, 0.0, 0.5, 0.9):
                tv = _sym_core(fn, y, grid16, cfg.quad_n)
                err = max(err, float(np.max(np.abs(tv - px * jacobi_eval(n, 2, 2, y)))))
            details.append({"case": f"n={n}", "value": err})
            worst = max(worst, err)
        return worst, details, "symmetric average of each mode splits into a product"

    reports.append(_run("sym-product-formula", t(1e-8), sym_product_formula))

    def coefficient_multiplier():
        worst, details = 0.0, []
        y = 0.5
        xs, ws = _split_rule(cfg.coeff_nodes // 2, y)
        basis = jacobi_matrix(6, xs)
        hs = np.array([jacobi_h(m) for m in range(7)])
        psis = np.array([multiplier_psi(m, y) for m in range(7)])
        for e in entries:
            fv = np.asarray(e.handle(xs), dtype=float)
            tv = _asym_core(e.handle, y, xs, cfg.coeff_quad)
            a_f = np.cumsum(basis * (ws * fv)[None, :], axis=1)[:, -1] / hs
            a_t = np.cumsum(basis * (ws * tv)[None, :], axis=1)[:, -1] / hs
            err = float(np.max(np.abs(a_t - psis * a_f)))
            details.append({"case": e.label, "value": err})
            worst = max(worst, err)
        return worst, details, f"y={y}"

    reports.append(_run("coefficient-multiplier", t(1e-7), coefficient_multiplier))

    def self_adjointness():
        worst, details = 0.0, []
        for y in (-0.5, 0.5):
            xs, ws = _split_rule(cfg.pair_nodes, y)
            values = {}
            translated = {}
            for e in entries:
                values[e.label] = np.asarray(e.handle(xs), dtype=float)
                translated[e.label] = _asym_core(e.handle, y, xs, cfg.pair_quad)
            labels = [e.label for e in entries]
            for i, la in enumerate(labels):
                for lb in labels[i:]:
                    lhs = ordered_sum(ws * translated[la] * values[lb])
                    rhs = ordered_sum(ws * values[la] * translated[lb])
                    diff = abs(lhs - rhs)
                    details.append({"case": f"({la},{lb}),y={y:g}", "value": diff})
                    worst = max(worst, diff)
        return worst, details, "weight (1-x^2)^2"

    reports.append(_run("self-adjointness", t(1e-8), self_adjointness))

    def d_commutation():
        worst, details = 0.0, []
        polys = {
            "x": jacobi_poly(1, 2, 2),
            "x^2": PolynomialRep(cheb=[0.5, 0.0, 0.5]),
            "P_3": jacobi_poly(3, 2, 2),
            "P_5": jacobi_poly(5, 2, 2),
            "P_8": jacobi_poly(8, 2, 2),
        }
        fit_grid = make_grid(33)
        vander = np.polynomial.chebyshev.chebvander(fit_grid, 8)
        for label, poly in polys.items():
            dpoly = apply_D_poly(poly)
            for y in (0.5, -0.3):
                lhs = _asym_core(dpoly, y, grid16, cfg.quad_n)
                samples = _asym_core(poly, y, fit_grid, cfg.quad_n)
                coeffs, *_ = np.linalg.lstsq(vander, samples, rcond=None)
                rhs = apply_D_poly(PolynomialRep(cheb=coeffs))(grid16)
                diff = float(np.max(np.abs(lhs - rhs)))
                details.append({"case": f"{label},y={y:g}", "value": diff})
                worst = max(worst, diff)
        return worst, details, "translated polynomial refit at degree 8 before applying the operator"

    reports.append(_run("d-commutation", t(1e-7), d_commutation))

    def integral_representation():
        worst, details = 0.0, []
        gl = gauss_legendre(64)
        xs = make_grid(5)
        cases = {
            "x": jacobi_poly(1, 2, 2),
            "x^2": PolynomialRep(cheb=[0.5, 0.0, 0.5]),
            "P_5": jacobi_poly(5, 2, 2),
        }
        for label, poly in cases.items():
            dpoly = apply_D_poly(poly)
            px = poly(xs)
            for tt in (0.3, 1.0):
                lhs = _asym_core(poly, math.cos(tt), xs, cfg.quad_n) - px
                outer_t = tt * (gl.nodes + 1.0) / 2.0
                outer_w = gl.weights * tt / 2.0
                rhs = np.zeros_like(xs)
                for j in range(outer_t.size):
                    v = outer_t[j]
                    inner_t = v * (gl.nodes + 1.0) / 2.0
                    inner_w = gl.weights * v / 2.0
                    inner = _asym_core(dpoly, np.array([math.cos(u) for u in inner_t]), xs, 64)
                    acc = np.zeros_like(xs)
                    for k in range(inner_t.size):
                        u = inner_t[k]
                        wu = 32.0 * math.sin(u / 2.0) * math.cos(u / 2.0) ** 9
                        acc += inner_w[k] * wu * inner[k]
                    dens = 32.0 * math.sin(v / 2.0) * math.cos(v / 2.0) ** 9
                    rhs += outer_w[j] * acc / dens
                diff = float(np.max(np.abs(lhs - rhs)))
                details.append({"case": f"{label},t={tt}", "value": diff})
                worst = max(worst, diff)
        return worst, details, "nested 64-point rules"

    reports.append(_run("integral-representation", t(1e-6), integral_representation))

    params = SpaceParams(cfg.p, cfg.alpha)
    ts_bound = (0.3, 0.8, 1.5, 2.2, 2.8, 3.0)

    def translation_norm_bound():
        details = []
        norm = discrete_norm(params, cfg.norm_nodes)
        ratios = {}
        for qn in (cfg.quad_n, 2 * cfg.quad_n):
            cmax = 0.0
            for e in entries:
                fn = e.handle
                base = norm(sample(fn, norm.nodes))
                if base < 1e-13:
                    continue
                for tt in ts_bound:
                    tv = _asym_core(fn, math.cos(tt), norm.nodes, qn)
                    val = norm(tv) * math.cos(tt / 2.0) ** 4 / base
                    cmax = max(cmax, val)
            ratios[qn] = cmax
        lo, hi = ratios[cfg.quad_n], ratios[2 * cfg.quad_n]
        drift = abs(hi - lo) / max(hi, 1e-300)
        details.append({"case": "empirical-constant", "value": hi})
        details.append({"case": "drift", "value": drift})
        return drift, details, f"norm growth constant {hi:.6g} stable under quadrature doubling"

    reports.append(_run("translation-norm-bound", t(0.10), translation_norm_bound))

    def rotation_average_bound():
        details = []
        norm = discrete_norm(params, cfg.norm_nodes)
        ratios = {}
        for qn in (cfg.quad_n, 2 * cfg.quad_n):
            cmax = 0.0
            for e in entries:
                fn = e.handle.eval
                base = norm(sample(fn, norm.nodes))
                if base < 1e-13:
                    continue
                for tt in ts_bound:
                    gv = abs_rotation_average(fn, tt, norm.nodes, qn)
                    cmax = max(cmax, norm(gv) / base)
            ratios[qn] = cmax
        lo, hi = ratios[cfg.quad_n], ratios[2 * cfg.quad_n]
        drift = abs(hi - lo) / max(hi, 1e-300)
        details.append({"case": "empirical-constant", "value": hi})
        details.append({"case": "drift", "value": drift})
        return drift, details, f"positive-kernel constant {hi:.6g} stable under quadrature doubling"

    reports.append(_run("rotation-average-bound", t(0.10), rotation_average_bound))

    def kernel_pointwise_bound():
        rng = np.random.default_rng(cfg.seed)
        x = rng.uniform(-1.0, 1.0, 20000)
        z = rng.uniform(-1.0, 1.0, 20000)
        y = rng.uniform(-1.0, 1.0, 20000)
        excess = np.abs(kernel_B(x, z, y)) - 19.0 * (1.0 - compute_R(x, z, y) ** 2)
        worst = float(np.max(excess))
        return max(worst, 0.0), [{"case": "samples=20000", "value": worst}], ""

    reports.append(_run("kernel-pointwise-bound", t(1e-12), kernel_pointwise_bound))

    def modulus_monotonicity():
        worst, details = 0.0, []
        for label in ("x", "|x|", "sin(3x)"):
            h = next(e.handle for e in entries if e.label == label)
            vals = _moduli(h, cfg.deltas, params, cfg.t_points, cfg.quad_n, cfg.norm_nodes)
            for i in range(len(vals) - 1):
                viol = vals[i] - vals[i + 1]
                details.append({"case": f"{label},{cfg.deltas[i]:g}->{cfg.deltas[i+1]:g}", "value": viol})
                worst = max(worst, viol)
        return max(worst, 0.0), details, ""

    reports.append(_run("modulus-monotonicity", t(1e-12), modulus_monotonicity))

    def modulus_stability():
        h = next(e.handle for e in entries if e.label == "x")
        lo = modulus(h, 0.5, params, cfg.t_points, cfg.quad_n, cfg.norm_nodes)
        hi = modulus(h, 0.5, params, 2 * cfg.t_points, 2 * cfg.quad_n, 2 * cfg.norm_nodes)
        diff = abs(hi - lo)
        return diff, [{"case": "delta=0.5", "value": diff}], ""

    reports.append(_run("modulus-stability", t(1e-6), modulus_stability))

    def l2_optimality():
        worst, details = 0.0, []
        p21 = SpaceParams(2.0, 1.0)
        for label in ("x^2", "sin(3x)", "|x|"):
            h = next(e.handle for e in entries if e.label == label)
            for n in (4, 8):
                # orthogonality must be tested on the rule the projection
                # itself uses; any other rule measures quadrature error of
                # the integrand instead of optimality
                rule = discrete_norm(p21, max(cfg.coeff_nodes, 2 * n))
                fv = sample(h, rule.nodes)
                res = best_approx(h, n, p21, grid_n=cfg.coeff_nodes)
                rv = fv - res.argmin(rule.nodes)
                basis = jacobi_matrix(n - 1, rule.nodes)
                pr = np.cumsum(basis * (rule.weights * rv)[None, :], axis=1)[:, -1]
                err = float(np.max(np.abs(pr)))
                details.append({"case": f"{label},n={n}", "value": err})
                worst = max(worst, err)
        return worst, details, "projection residual against every lower-degree mode"

    reports.append(_run("l2-optimality", t(1e-9), l2_optimality))

    def direct_estimate_decay():
        p21 = SpaceParams(2.0, 1.0)
        details = []
        families = {}
        global_u = 0.0
        smooth = [e for e in entries if e.tag in ("polynomial", "analytic")]
        for e in smooth:
            dh = _d_handle(e)
            dnorm = weighted_norm(dh, p21, cfg.norm_nodes) if dh is not None else 0.0
            fnorm = weighted_norm(e.handle, p21, cfg.norm_nodes)
            if dnorm < 1e-13:
                details.append({"case": e.label, "value": None, "note": "operator image vanishes"})
                continue
            for n in cfg.degrees:
                en = best_approx(e.handle, n, p21, grid_n=cfg.approx_grid).value
                if en < 1e-9 * fnorm:
                    details.append({"case": f"{e.label},n={n}", "value": None, "note": "below resolution floor"})
                    continue
                ratio = n * n * en / dnorm
                details.append({"case": f"{e.label},n={n}", "value": ratio})
                families.setdefault(n, []).append(ratio)
                global_u = max(global_u, ratio)
        worst = 0.0
        for n, vals in sorted(families.items()):
            spread = max(vals) / min(vals)
            details.append({"case": f"uniformity,n={n}", "value": spread})
            worst = max(worst, spread)
        details.append({"case": "empirical-constant", "value": global_u})
        note = "per-degree spread across smooth entries; upper constant recorded"
        return worst, details, note

    reports.append(_run("direct-estimate-decay", t(100.0), direct_estimate_decay))

    def jackson_cutoff():
        # jackson_operator stops at the degree bound by construction; the
        # multipliers beyond it, and the images, come from the t-average instead
        worst, details = 0.0, []
        for q, m in ((3, 2), (3, 3), (4, 2)):
            jp = JacksonParams(q, m)
            bound = jackson_degree_bound(jp)
            theta = max(abs(_jackson_by_translation(jacobi_poly(k, 2, 2), jp, [1.0])[0]) for k in range(bound + 1, bound + 7))
            details.append({"case": f"q={q},m={m},theta_{bound + 1}..{bound + 6}", "value": theta})
            worst = max(worst, theta)
            for e in entries:
                case = f"q={q},m={m},{e.label}"
                if e.handle.degree is None:
                    note = "no declared degree: the reference needs the convergence-stopped z-rule at each t"
                    if e.handle.breaks:
                        note = "breaks: the reference's t-integrand has kinks, which 256 t-nodes resolve to about 1e-8"
                    details.append({"case": case, "value": None, "note": note})
                    continue
                image = jackson_operator(e.handle, jp)(grid16)
                diff = float(np.max(np.abs(image - _jackson_by_translation(e.handle, jp, grid16))))
                details.append({"case": case, "value": diff})
                worst = max(worst, diff)
        return worst, details, "multipliers beyond the degree bound and images, both against the t-averaged translation"

    reports.append(_run("jackson-cutoff", t(1e-8), jackson_cutoff))

    def jackson_gamma_scaling():
        details = []
        vals = {}
        for m in (4, 8, 16):
            vals[m] = gamma_norm(JacksonParams(3, m)) / m ** 4
            details.append({"case": f"m={m}", "value": vals[m]})
        spread = max(vals.values()) / min(vals.values())
        details.append({"case": "spread", "value": spread})
        return spread, details, "normalizer scaled by m^4"

    reports.append(_run("jackson-gamma-scaling", t(2.0), jackson_gamma_scaling))

    def bernstein_markov_bounded():
        worst, details = 0.0, []
        p21 = SpaceParams(2.0, 1.0)
        for n in (2, 4, 8, 16):
            r_deriv, r_weight = bernstein_markov_ratios(jacobi_poly(n, 2, 2), p21, rho=0.5)
            details.append({"case": f"n={n},derivative", "value": r_deriv})
            details.append({"case": f"n={n},weight-shift", "value": r_weight})
            worst = max(worst, r_deriv, r_weight)
        return worst, details, "degree-normalized ratios stay bounded as the degree grows"

    reports.append(_run("bernstein-markov-bounded", t(10.0), bernstein_markov_bounded))

    def k_two_candidate():
        worst, details = 0.0, []
        norm = discrete_norm(params, cfg.norm_nodes)
        for e in entries:
            proj = expand_in_jacobi(e.handle, cfg.kdeg, n_nodes=max(cfg.norm_nodes, 256))
            gpoly = poly_lincomb(proj, [jacobi_poly(k, 2, 2) for k in range(cfg.kdeg + 1)])
            fv = sample(e.handle, norm.nodes)
            fnorm = norm(fv)
            base = norm(fv - gpoly(norm.nodes))
            dnorm = norm(apply_D_poly(gpoly)(norm.nodes))
            for delta in (0.1, 0.5):
                res = k_functional(e.handle, delta, params, cfg.kdeg, cfg.norm_nodes)
                cap = min(fnorm, base + delta * delta * dnorm)
                excess = res.value - cap
                details.append({"case": f"{e.label},delta={delta:g}", "value": excess})
                worst = max(worst, excess)
        return max(worst, 0.0), details, "never above the zero or projection candidate"

    reports.append(_run("k-two-candidate", t(1e-10), k_two_candidate))

    def k_monotonicity():
        worst, details = 0.0, []
        for label in ("x^2", "sin(3x)", "|x|"):
            h = next(e.handle for e in entries if e.label == label)
            vals = [k_functional(h, d, params, cfg.kdeg, cfg.norm_nodes).value for d in cfg.deltas]
            for i in range(len(vals) - 1):
                viol = vals[i] - vals[i + 1]
                details.append({"case": f"{label},{cfg.deltas[i]:g}->{cfg.deltas[i+1]:g}", "value": viol})
                worst = max(worst, viol)
        return max(worst, 0.0), details, ""

    reports.append(_run("k-monotonicity", t(1e-10), k_monotonicity))

    def corpus_determinism():
        a = corpus(cfg.seed)
        b = corpus(cfg.seed)
        xs = make_grid(32)
        worst = 0.0
        for ea, eb in zip(a, b):
            worst = max(worst, float(np.max(np.abs(np.asarray(ea.handle(xs)) - np.asarray(eb.handle(xs))))))
        return worst, [{"case": f"seed={cfg.seed}", "value": worst}], "bitwise identical corpus regeneration"

    reports.append(_run("corpus-determinism", 0.0, corpus_determinism))

    return reports


def _sum_weighted_errors(e_by_nu: dict, n: int) -> float:
    return float(sum(nu * e_by_nu[nu] for nu in range(1, n + 1)))


def run_theorem_sweep(config: Config = Config()):
    """Equivalence and direct/inverse estimate ratios over the corpus.

    Requires admissible (p, alpha). Ratio families with denominators below
    the resolution floors are recorded as skipped cases rather than polluting
    the pooled constants.
    """
    cfg = config
    verdict = validate_params(cfg.p, cfg.alpha)
    if not verdict.admissible:
        raise InvalidArgumentError(
            f"(p, alpha) = ({cfg.p:g}, {cfg.alpha:g}) is outside the admissible range {verdict.interval()}"
        )
    params = SpaceParams(cfg.p, cfg.alpha)
    entries = corpus(cfg.seed)
    reports = []
    t = lambda v: v * cfg.tol_scale

    max_deg = max(cfg.degrees)
    data = {}
    for e in entries:
        fnorm = weighted_norm(e.handle, params, cfg.norm_nodes)
        grid = list(cfg.deltas) + [1.0 / n for n in cfg.degrees]  # one translation per y shared by both
        oms = _moduli(e.handle, grid, params, cfg.t_points, cfg.quad_n, cfg.norm_nodes)
        omegas = dict(zip(cfg.deltas, oms))
        kvals = {d: k_functional(e.handle, d, params, cfg.kdeg, cfg.norm_nodes).value for d in cfg.deltas}
        errs = {nu: best_approx(e.handle, nu, params, cfg.approx_grid).value for nu in range(1, max_deg + 1)}
        omega_inv = dict(zip(cfg.degrees, oms[len(cfg.deltas) :]))
        data[e.label] = {"fnorm": fnorm, "omega": omegas, "k": kvals, "e": errs, "omega_inv": omega_inv}

    def pooled_ratios(kfloor=1e-13):
        r1, r2, rows1, rows2 = [], [], [], []
        for label, d in data.items():
            for delta in cfg.deltas:
                k = d["k"][delta]
                if k < kfloor:
                    skip = {"case": f"{label},delta={delta:g}", "value": None, "note": "K below floor"}
                    rows1.append(skip)
                    rows2.append(dict(skip))
                    continue
                v1 = d["omega"][delta] / k
                v2 = v1 * math.cos(delta / 2.0) ** 4
                r1.append(v1)
                r2.append(v2)
                rows1.append({"case": f"{label},delta={delta:g}", "value": v1})
                rows2.append({"case": f"{label},delta={delta:g}", "value": v2})
        return r1, r2, rows1, rows2

    r1, r2, raw_rows, damped_rows = pooled_ratios()

    def modulus_k_equivalence():
        # the sandwich has two constants: the lower one multiplies K directly,
        # the upper one carries the cos^-4 damping, so the certified pair is
        # (min raw ratio, max damped ratio); the raw family alone may spread
        # like the inverse damping toward the top of the delta grid
        if not r1:
            return None, raw_rows, "every pair skipped"
        lower, upper = min(r1), max(r2)
        rows = list(raw_rows)
        rows.append({"case": "lower-constant", "value": lower})
        rows.append({"case": "upper-constant", "value": upper})
        rows.append({"case": "raw-spread", "value": max(r1) / lower})
        return upper / lower, rows, "certified constant pair bracketing the modulus by K"

    reports.append(_run("modulus-k-equivalence", t(100.0), modulus_k_equivalence))

    def modulus_k_damped_window():
        if not r2:
            return None, [], "every pair skipped"
        spread = max(r2) / min(r2)
        rows = list(damped_rows)
        rows.append({"case": "lower-constant", "value": min(r2)})
        rows.append({"case": "upper-constant", "value": max(r2)})
        return spread, rows, "cos^4-damped pooled ratio"

    reports.append(_run("modulus-k-damped-window", t(100.0), modulus_k_damped_window))

    def modulus_k_stability():
        # 16 degrees deeper, at least 48, within the cap and the norm_nodes - 1 that Config allows
        kdeg = min(max(48, cfg.kdeg + 16), MAX_WITNESS_DEG, cfg.norm_nodes - 1)
        heavy = replace(cfg, quad_n=2 * cfg.quad_n, kdeg=kdeg)
        hv1, hv2, sh1, sh2 = [], [], [], []
        for e in entries:
            ks = [k_functional(e.handle, delta, params, heavy.kdeg, cfg.norm_nodes).value for delta in cfg.deltas]
            kept = [(delta, k) for delta, k in zip(cfg.deltas, ks) if k >= 1e-13]
            oms = _moduli(e.handle, [delta for delta, _ in kept], params, cfg.t_points, heavy.quad_n, cfg.norm_nodes)
            for (delta, k), om in zip(kept, oms):
                hv1.append(om / k)
                hv2.append(om * math.cos(delta / 2.0) ** 4 / k)
            for delta in cfg.deltas:
                k16 = k_functional(e.handle, delta, params, 16, cfg.norm_nodes).value
                if k16 >= 1e-13:
                    om0 = data[e.label]["omega"][delta]
                    sh1.append(om0 / k16)
                    sh2.append(om0 * math.cos(delta / 2.0) ** 4 / k16)
        if not hv1 or not r1:
            return None, [], "no comparable ratios"
        drift_u = abs(max(hv2) - max(r2)) / max(max(hv2), 1e-300)
        drift_l = abs(min(hv1) - min(r1)) / max(min(hv1), 1e-300)
        worst = max(drift_u, drift_l)
        rows = [
            {"case": "upper-drift", "value": drift_u},
            {"case": "lower-drift", "value": drift_l},
        ]
        if sh1:
            rows.append({"case": "witness-16-upper", "value": max(sh2)})
            rows.append({"case": "witness-16-lower", "value": min(sh1)})
        witness = "deeper witness" if heavy.kdeg > cfg.kdeg else f"witness at the degree cap {heavy.kdeg}"
        return worst, rows, f"constant pair under doubled quadrature and {witness}; degree-16 witness recorded"

    reports.append(_run("modulus-k-stability", t(0.15), modulus_k_stability))

    def direct_constant():
        vals, rows = [], []
        for label, d in data.items():
            for n in cfg.degrees:
                om = d["omega_inv"][n]
                if om < 1e-9 * max(d["fnorm"], 1e-300):
                    rows.append({"case": f"{label},n={n}", "value": None, "note": "modulus below floor"})
                    continue
                if d["e"][n] < 1e-9 * d["fnorm"]:
                    # a rounding-level E_n measures rounding, not an approximation rate
                    rows.append({"case": f"{label},n={n}", "value": None, "note": "E_n below resolution floor"})
                    continue
                v = d["e"][n] / om
                vals.append(v)
                rows.append({"case": f"{label},n={n}", "value": v})
        if not vals:
            return None, rows, "every pair skipped"
        worst = max(vals)
        rows.append({"case": "upper-constant", "value": worst})
        ok = all(math.isfinite(v) for v in vals)
        return (worst if ok else math.inf), rows, "best approximation controlled by the modulus"

    reports.append(_run("modulus-direct-constant", None, direct_constant))

    def inverse_constant():
        vals, rows = [], []
        for label, d in data.items():
            for n in cfg.degrees:
                om = d["omega_inv"][n]
                s = _sum_weighted_errors(d["e"], n)
                if s < 1e-9 * max(d["fnorm"], 1e-300):
                    rows.append({"case": f"{label},n={n}", "value": None, "note": "error sum below floor"})
                    continue
                v = om * n * n / s
                vals.append(v)
                rows.append({"case": f"{label},n={n}", "value": v})
        if not vals:
            return None, rows, "every pair skipped"
        worst = max(vals)
        rows.append({"case": "upper-constant", "value": worst})
        ok = all(math.isfinite(v) for v in vals)
        return (worst if ok else math.inf), rows, "modulus controlled by the weighted error sum"

    reports.append(_run("modulus-inverse-constant", None, inverse_constant))

    def kink_error_decay():
        d = data["|x|"]["e"]
        if 4 not in d or 32 not in d:
            return None, [], "degree grid lacks 4 or 32; decay not checkable"
        e4, e32 = d[4], d[32]
        ratio = 4.0 * e32 / e4
        rows = [{"case": "E_4", "value": e4}, {"case": "E_32", "value": e32}]
        return ratio, rows, "kink error decays by at least 4x from degree 4 to 32"

    reports.append(_run("kink-error-decay", t(1.0), kink_error_decay))

    return reports


def _csv_text(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check_id", "status", "observed", "tolerance", "case", "value", "note"])
    fmt = lambda v: "" if v is None else repr(float(v))
    for r in reports:
        rows = r.details or ({},)
        for d in rows:
            writer.writerow(
                [
                    r.check_id,
                    r.status,
                    fmt(r.observed),
                    fmt(r.tolerance),
                    d.get("case", ""),
                    fmt(d.get("value")),
                    d.get("note", r.note if not r.details else ""),
                ]
            )
    return buf.getvalue()


def emit_report(reports, format: str = "json", path=None, config: Optional[Config] = None) -> str:
    """Serialize reports deterministically; identical inputs give identical bytes.

    Returns the serialized text and writes it to path when given. The JSON
    envelope is {schema_version, config, checks}; CSV is one row per detail
    case. No timestamps or environment data are embedded.
    """
    if format not in ("json", "csv"):
        raise InvalidArgumentError(f"format must be json or csv, got {format!r}")
    config_dict = config.to_dict() if config is not None else {}
    if format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": config_dict,
            "checks": [r.as_dict() for r in reports],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = _csv_text(reports)
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as e:
            raise ReportIOError(f"cannot write report to {path!r}: {e}") from e
    return text
