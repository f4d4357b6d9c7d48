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
_RESOLUTION_FIELDS = ("quad_n", "norm_nodes", "t_points", "kdeg", "approx_grid")
# Fixed node counts of the checks whose tolerances demand more than quad_n:
# x-panels and z-rule of self-adjointness, and the x-rule, z-rule and
# projection grid of coefficient-multiplier and l2-optimality.
_PAIR_NODES = 1024
_COEFF_NODES = 2048


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


def _run_checks(cfg: Config, checks) -> list:
    """Run a table of (check_id, tolerance, fn) in order, each tolerance scaled by tol_scale."""
    return [_run(cid, None if tol is None else tol * cfg.tol_scale, fn) for cid, tol, fn in checks]


def _worst(rows) -> float:
    """The largest value of the detail rows, and at least 0.0; a NaN wins, so its check fails."""
    return float(np.max([d["value"] for d in rows if d["value"] is not None], initial=0.0))


def _spread(vals) -> float:
    """max(vals) / min(vals); a NaN wins."""
    return float(np.max(vals) / np.min(vals))


def _skip(case: str, note: str) -> dict:
    return {"case": case, "value": None, "note": note}


def _space(cfg: Config) -> SpaceParams:
    """The space of cfg; InvalidArgumentError when (p, alpha) is not admissible."""
    verdict = validate_params(cfg.p, cfg.alpha)
    if not verdict.admissible:
        raise InvalidArgumentError(
            f"(p, alpha) = ({cfg.p:g}, {cfg.alpha:g}) is outside the admissible range {verdict.interval()}"
        )
    return SpaceParams(cfg.p, cfg.alpha)


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
    params = _space(cfg)
    entries = corpus(cfg.seed)
    handle = {e.label: e.handle for e in entries}
    grid16 = make_grid(16)
    p21 = SpaceParams(2.0, 1.0)

    def quadrature_exactness():
        rows = []
        cases = [
            ("legendre", gauss_legendre, _legendre_moment),
            ("chebyshev1", gauss_chebyshev, _chebyshev_moment),
            ("jacobi(2,2)", lambda n: gauss_jacobi(n, 2.0, 2.0), _jacobi22_moment),
        ]
        for name, make, moment in cases:
            errs = [
                abs(ordered_sum(rule.weights * rule.nodes ** k) - moment(k)) / max(1.0, abs(moment(k)))
                for rule in map(make, (2, 4, 8, 16))
                for k in range(2 * rule.nodes.size)
            ]
            rows.append({"case": name, "value": float(np.max(errs))})
        return _worst(rows), rows, ""

    def quadrature_doubling():
        rows = []
        base = max(int(cfg.quad_n), 2)
        cases = [(e.label, e.handle.eval, e.tag) for e in entries]
        # near-pole rational sentinel: its Gauss error is visible at low node
        # counts and negligible at the default resolution
        cases.append(("1/(1.1+x)", lambda x: 1.0 / (1.1 + np.asarray(x, dtype=float)), "analytic"))
        for label, fn, tag in cases:
            if tag in ("kink", "endpoint-singular"):
                rows.append(_skip(label, "non-smooth integrand, excluded"))
                continue
            diff = abs(integrate(fn, gauss_legendre(base)) - integrate(fn, gauss_legendre(2 * base)))
            rows.append({"case": label, "value": diff})
        return _worst(rows), rows, "non-smooth entries excluded: plain Gauss converges only algebraically there"

    def jacobi_orthogonality():
        rule = gauss_jacobi(64, 2.0, 2.0)
        mat = jacobi_matrix(16, rule.nodes)
        gram = (mat * rule.weights[None, :]) @ mat.T
        rows = [{"case": "n<=16", "value": float(np.max(np.abs(gram - np.diag(np.diag(gram)))))}]
        return _worst(rows), rows, ""

    def jacobi_eigenrelation():
        rows = []
        for n in range(0, 17):
            poly = jacobi_poly(n, 2, 2)
            image = apply_D_poly(poly)
            lam = -n * (n + 5.0)
            resid = np.zeros(poly.cheb.size)
            resid[: image.cheb.size] += image.cheb
            resid -= lam * poly.cheb
            scale = max(1.0, float(np.max(np.abs(lam * poly.cheb))))
            rows.append({"case": f"n={n}", "value": float(np.max(np.abs(resid))) / scale})
        return _worst(rows), rows, "residual relative to the largest coefficient of the eigenvalue image"

    def jacobi_normalization():
        rows = [{"case": "n<=32", "value": float(np.max([abs(jacobi_eval(n, 2, 2, 1.0) - 1.0) for n in range(33)]))}]
        return _worst(rows), rows, ""

    def jacobi_eval_agreement():
        grid = make_grid(64)
        rows = [
            {"case": f"n={n}", "value": float(np.max(np.abs(jacobi_eval(n, 2, 2, grid) - jacobi_poly(n, 2, 2)(grid))))}
            for n in (8, 12, 16, 24, 32, 48, 64)
        ]
        return _worst(rows), rows, ""

    def translation_identity():
        rows = []
        for e in entries:
            fx = np.asarray(e.handle(grid16), dtype=float)
            tv = _asym_core(e.handle, 1.0, grid16, cfg.quad_n)
            rows.append({"case": e.label, "value": float(np.max(np.abs(tv - fx)))})
        return _worst(rows), rows, ""

    def translation_constant():
        one = lambda r: np.ones_like(r)
        rows = [
            {"case": f"y={y:g}", "value": float(np.max(np.abs(_asym_core(one, y, grid16, cfg.quad_n) - 1.0)))}
            for y in (-0.9, -0.5, 0.0, 0.5, 0.9, 1.0)
        ]
        return _worst(rows), rows, ""

    def translation_linearity():
        rows = []
        a, b = 0.7, -1.3
        for la, lb in (("x", "sin(3x)"), ("x^2", "|x|")):
            fa, fb = handle[la], handle[lb]
            combo = lambda r: a * np.asarray(fa(r), dtype=float) + b * np.asarray(fb(r), dtype=float)
            for y in (-0.5, 0.5):
                lhs = _asym_core(combo, y, grid16, cfg.quad_n)
                rhs = a * _asym_core(fa.eval, y, grid16, cfg.quad_n) + b * _asym_core(fb.eval, y, grid16, cfg.quad_n)
                rows.append({"case": f"{la},{lb},y={y:g}", "value": float(np.max(np.abs(lhs - rhs)))})
        return _worst(rows), rows, ""

    def product_formula(core, multiplier, note):
        # each mode P_n, translated by core, against P_n times its multiplier at y
        def check():
            rows = []
            for n in range(9):
                fn = lambda r, n=n: jacobi_eval(n, 2, 2, r)
                px = jacobi_eval(n, 2, 2, grid16)
                errs = [np.abs(core(fn, y, grid16, cfg.quad_n) - px * multiplier(n, y)) for y in (-0.5, 0.0, 0.5, 0.9)]
                rows.append({"case": f"n={n}", "value": float(np.max(errs))})
            return _worst(rows), rows, note

        return check

    def coefficient_multiplier():
        rows = []
        y = 0.5
        xs, ws = _split_rule(_COEFF_NODES // 2, y)
        basis = jacobi_matrix(6, xs)
        hs = np.array([jacobi_h(m) for m in range(7)])
        psis = np.array([multiplier_psi(m, y) for m in range(7)])
        for e in entries:
            fv = np.asarray(e.handle(xs), dtype=float)
            tv = _asym_core(e.handle, y, xs, _COEFF_NODES)
            a_f = np.cumsum(basis * (ws * fv)[None, :], axis=1)[:, -1] / hs
            a_t = np.cumsum(basis * (ws * tv)[None, :], axis=1)[:, -1] / hs
            rows.append({"case": e.label, "value": float(np.max(np.abs(a_t - psis * a_f)))})
        return _worst(rows), rows, f"y={y}"

    def self_adjointness():
        rows = []
        labels = list(handle)
        for y in (-0.5, 0.5):
            xs, ws = _split_rule(_PAIR_NODES, y)
            values = {e.label: np.asarray(e.handle(xs), dtype=float) for e in entries}
            translated = {e.label: _asym_core(e.handle, y, xs, _PAIR_NODES) for e in entries}
            for i, la in enumerate(labels):
                for lb in labels[i:]:
                    lhs = ordered_sum(ws * translated[la] * values[lb])
                    rhs = ordered_sum(ws * values[la] * translated[lb])
                    rows.append({"case": f"({la},{lb}),y={y:g}", "value": abs(lhs - rhs)})
        return _worst(rows), rows, "weight (1-x^2)^2"

    def d_commutation():
        rows = []
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
                rows.append({"case": f"{label},y={y:g}", "value": float(np.max(np.abs(lhs - rhs)))})
        return _worst(rows), rows, "translated polynomial refit at degree 8 before applying the operator"

    def integral_representation():
        rows = []
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
                # every inner node u of every outer node v in one translation
                inner_t = outer_t[:, None] * (gl.nodes + 1.0) / 2.0
                inner_w = gl.weights * outer_t[:, None] / 2.0
                us = inner_t.ravel().tolist()
                inner = _asym_core(dpoly, np.array([math.cos(u) for u in us]), xs, 64)
                wu = np.reshape([32.0 * math.sin(u / 2.0) * math.cos(u / 2.0) ** 9 for u in us], inner_t.shape)
                acc = np.cumsum((inner_w * wu)[..., None] * inner.reshape(inner_t.shape + xs.shape), axis=1)[:, -1]
                rhs = np.zeros_like(xs)
                for j in range(outer_t.size):
                    v = outer_t[j]
                    dens = 32.0 * math.sin(v / 2.0) * math.cos(v / 2.0) ** 9
                    rhs += outer_w[j] * acc[j] / dens
                rows.append({"case": f"{label},t={tt}", "value": float(np.max(np.abs(lhs - rhs)))})
        return _worst(rows), rows, "nested 64-point rules"

    ts_bound = (0.3, 0.8, 1.5, 2.2, 2.8, 3.0)

    def doubling_drift(image, damping, constant):
        # the largest ratio ||image of f|| damping(t) / ||f|| over entries and
        # ts_bound, at quad_n and at 2 quad_n z-nodes; the drift is observed
        def check():
            norm = discrete_norm(params, cfg.norm_nodes)
            bases = [(e, norm(sample(e.handle, norm.nodes))) for e in entries]
            bases = [(e, base) for e, base in bases if not base < 1e-13]  # a NaN norm stays and fails the check

            def largest(qn):
                ratios = [norm(image(e, tt, norm.nodes, qn)) * damping(tt) / base for e, base in bases for tt in ts_bound]
                return float(np.max(ratios, initial=0.0))

            lo, hi = largest(cfg.quad_n), largest(2 * cfg.quad_n)
            drift = abs(hi - lo) / max(hi, 1e-300)
            rows = [{"case": "empirical-constant", "value": hi}, {"case": "drift", "value": drift}]
            return drift, rows, f"{constant} constant {hi:.6g} stable under quadrature doubling"

        return check

    def kernel_pointwise_bound():
        rng = np.random.default_rng(cfg.seed)
        x = rng.uniform(-1.0, 1.0, 20000)
        z = rng.uniform(-1.0, 1.0, 20000)
        y = rng.uniform(-1.0, 1.0, 20000)
        excess = np.abs(kernel_B(x, z, y)) - 19.0 * (1.0 - compute_R(x, z, y) ** 2)
        rows = [{"case": "samples=20000", "value": float(np.max(excess))}]
        return _worst(rows), rows, ""

    def monotone(labels, values):
        # values(h) lists a quantity over cfg.deltas; a drop as delta grows is a violation
        def check():
            rows = []
            for label in labels:
                vals = values(handle[label])
                rows += [
                    {"case": f"{label},{a:g}->{b:g}", "value": va - vb}
                    for a, b, va, vb in zip(cfg.deltas, cfg.deltas[1:], vals, vals[1:])
                ]
            return _worst(rows), rows, ""

        return check

    def modulus_stability():
        lo = modulus(handle["x"], 0.5, params, cfg.t_points, cfg.quad_n, cfg.norm_nodes)
        hi = modulus(handle["x"], 0.5, params, 2 * cfg.t_points, 2 * cfg.quad_n, 2 * cfg.norm_nodes)
        rows = [{"case": "delta=0.5", "value": abs(hi - lo)}]
        return _worst(rows), rows, ""

    def l2_optimality():
        rows = []
        for label in ("x^2", "sin(3x)", "|x|"):
            h = handle[label]
            for n in (4, 8):
                # orthogonality must be tested on the rule the projection
                # itself uses; any other rule measures quadrature error of
                # the integrand instead of optimality
                rule = discrete_norm(p21, max(_COEFF_NODES, 2 * n))
                fv = sample(h, rule.nodes)
                res = best_approx(h, n, p21, grid_n=_COEFF_NODES)
                rv = fv - res.argmin(rule.nodes)
                basis = jacobi_matrix(n - 1, rule.nodes)
                pr = np.cumsum(basis * (rule.weights * rv)[None, :], axis=1)[:, -1]
                rows.append({"case": f"{label},n={n}", "value": float(np.max(np.abs(pr)))})
        return _worst(rows), rows, "projection residual against every lower-degree mode"

    def direct_estimate_decay():
        rows = []
        families = {}
        for e in entries:
            if e.tag not in ("polynomial", "analytic"):
                continue
            dh = _d_handle(e)
            dnorm = weighted_norm(dh, p21, cfg.norm_nodes) if dh is not None else 0.0
            fnorm = weighted_norm(e.handle, p21, cfg.norm_nodes)
            if dnorm < 1e-13:
                rows.append(_skip(e.label, "operator image vanishes"))
                continue
            for n in cfg.degrees:
                en = best_approx(e.handle, n, p21, grid_n=cfg.approx_grid).value
                if en < 1e-9 * fnorm:
                    rows.append(_skip(f"{e.label},n={n}", "below resolution floor"))
                    continue
                ratio = n * n * en / dnorm
                rows.append({"case": f"{e.label},n={n}", "value": ratio})
                families.setdefault(n, []).append(ratio)
        upper = _worst(rows)
        spreads = [{"case": f"uniformity,n={n}", "value": _spread(vals)} for n, vals in sorted(families.items())]
        rows += spreads + [{"case": "empirical-constant", "value": upper}]
        return _worst(spreads), rows, "per-degree spread across smooth entries; upper constant recorded"

    def jackson_cutoff():
        # jackson_operator stops at the degree bound by construction; the
        # multipliers beyond it, and the images, come from the t-average instead
        rows = []
        for q, m in ((3, 2), (3, 3), (4, 2)):
            jp = JacksonParams(q, m)
            bound = jackson_degree_bound(jp)
            thetas = [_jackson_by_translation(jacobi_poly(k, 2, 2), jp, [1.0])[0] for k in range(bound + 1, bound + 7)]
            theta = float(np.max(np.abs(thetas)))
            rows.append({"case": f"q={q},m={m},theta_{bound + 1}..{bound + 6}", "value": theta})
            for e in entries:
                case = f"q={q},m={m},{e.label}"
                if e.handle.degree is None:
                    note = "no declared degree: the reference needs the convergence-stopped z-rule at each t"
                    if e.handle.breaks:
                        note = "breaks: the reference's t-integrand has kinks, which 256 t-nodes resolve to about 1e-8"
                    rows.append(_skip(case, note))
                    continue
                image = jackson_operator(e.handle, jp)(grid16)
                diff = float(np.max(np.abs(image - _jackson_by_translation(e.handle, jp, grid16))))
                rows.append({"case": case, "value": diff})
        return _worst(rows), rows, "multipliers beyond the degree bound and images, both against the t-averaged translation"

    def jackson_gamma_scaling():
        rows = [{"case": f"m={m}", "value": gamma_norm(JacksonParams(3, m)) / m ** 4} for m in (4, 8, 16)]
        spread = _spread([d["value"] for d in rows])
        return spread, rows + [{"case": "spread", "value": spread}], "normalizer scaled by m^4"

    def bernstein_markov_bounded():
        rows = []
        for n in (2, 4, 8, 16):
            r_deriv, r_weight = bernstein_markov_ratios(jacobi_poly(n, 2, 2), p21, rho=0.5)
            rows.append({"case": f"n={n},derivative", "value": r_deriv})
            rows.append({"case": f"n={n},weight-shift", "value": r_weight})
        return _worst(rows), rows, "degree-normalized ratios stay bounded as the degree grows"

    def k_two_candidate():
        rows = []
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
                rows.append({"case": f"{e.label},delta={delta:g}", "value": res.value - cap})
        return _worst(rows), rows, "never above the zero or projection candidate"

    def corpus_determinism():
        xs = make_grid(32)
        pairs = zip(corpus(cfg.seed), corpus(cfg.seed))
        worst = float(np.max([np.abs(np.asarray(a.handle(xs)) - np.asarray(b.handle(xs))) for a, b in pairs]))
        rows = [{"case": f"seed={cfg.seed}", "value": worst}]
        return _worst(rows), rows, "bitwise identical corpus regeneration"

    moduli = lambda h: _moduli(h, cfg.deltas, params, cfg.t_points, cfg.quad_n, cfg.norm_nodes)
    k_values = lambda h: [k_functional(h, d, params, cfg.kdeg, cfg.norm_nodes).value for d in cfg.deltas]
    translate = lambda e, tt, xs, qn: _asym_core(e.handle, math.cos(tt), xs, qn)
    rotate = lambda e, tt, xs, qn: abs_rotation_average(e.handle.eval, tt, xs, qn)
    return _run_checks(
        cfg,
        [
            ("quadrature-exactness", 1e-12, quadrature_exactness),
            ("quadrature-doubling", 1e-8, quadrature_doubling),
            ("jacobi-orthogonality", 1e-10, jacobi_orthogonality),
            ("jacobi-eigenrelation", 1e-10, jacobi_eigenrelation),
            ("jacobi-normalization", 0.0, jacobi_normalization),
            ("jacobi-eval-agreement", 1e-12, jacobi_eval_agreement),
            ("translation-identity", 1e-10, translation_identity),
            ("translation-constant", 1e-10, translation_constant),
            ("translation-linearity", 1e-12, translation_linearity),
            (
                "product-formula",
                1e-8,
                product_formula(
                    _asym_core,
                    multiplier_psi,
                    "z-quadrature translate of each mode against the mode scaled by its closed-form multiplier",
                ),
            ),
            (
                "sym-product-formula",
                1e-8,
                product_formula(
                    _sym_core, lambda n, y: jacobi_eval(n, 2, 2, y), "symmetric average of each mode splits into a product"
                ),
            ),
            ("coefficient-multiplier", 1e-7, coefficient_multiplier),
            ("self-adjointness", 1e-8, self_adjointness),
            ("d-commutation", 1e-7, d_commutation),
            ("integral-representation", 1e-6, integral_representation),
            ("translation-norm-bound", 0.10, doubling_drift(translate, lambda tt: math.cos(tt / 2.0) ** 4, "norm growth")),
            ("rotation-average-bound", 0.10, doubling_drift(rotate, lambda tt: 1.0, "positive-kernel")),
            ("kernel-pointwise-bound", 1e-12, kernel_pointwise_bound),
            ("modulus-monotonicity", 1e-12, monotone(("x", "|x|", "sin(3x)"), moduli)),
            ("modulus-stability", 1e-6, modulus_stability),
            ("l2-optimality", 1e-9, l2_optimality),
            ("direct-estimate-decay", 100.0, direct_estimate_decay),
            ("jackson-cutoff", 1e-8, jackson_cutoff),
            ("jackson-gamma-scaling", 2.0, jackson_gamma_scaling),
            ("bernstein-markov-bounded", 10.0, bernstein_markov_bounded),
            ("k-two-candidate", 1e-10, k_two_candidate),
            ("k-monotonicity", 1e-10, monotone(("x^2", "sin(3x)", "|x|"), k_values)),
            ("corpus-determinism", 0.0, corpus_determinism),
        ],
    )


def _sum_weighted_errors(e_by_nu: dict, n: int) -> float:
    return float(sum(nu * e_by_nu[nu] for nu in range(1, n + 1)))


def run_theorem_sweep(config: Config = Config()):
    """Equivalence and direct/inverse estimate ratios over the corpus.

    Requires admissible (p, alpha). Ratio families with denominators below
    the resolution floors are recorded as skipped cases rather than polluting
    the pooled constants.
    """
    cfg = config
    params = _space(cfg)
    entries = corpus(cfg.seed)

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

    # the pooled ratios omega / K, raw and cos^4-damped, over entries and deltas
    raw_rows, damped_rows = [], []
    for label, d in data.items():
        for delta in cfg.deltas:
            case = f"{label},delta={delta:g}"
            if d["k"][delta] < 1e-13:
                raw_rows.append(_skip(case, "K below floor"))
                damped_rows.append(_skip(case, "K below floor"))
                continue
            v1 = d["omega"][delta] / d["k"][delta]
            raw_rows.append({"case": case, "value": v1})
            damped_rows.append({"case": case, "value": v1 * math.cos(delta / 2.0) ** 4})
    r1 = [d["value"] for d in raw_rows if d["value"] is not None]
    r2 = [d["value"] for d in damped_rows if d["value"] is not None]
    # min and max that let a NaN through, so that its check fails
    lo = lambda vals: float(np.min(vals))
    hi = lambda vals: float(np.max(vals))

    def modulus_k_equivalence():
        # the sandwich has two constants: the lower one multiplies K directly,
        # the upper one carries the cos^-4 damping, so the certified pair is
        # (min raw ratio, max damped ratio); the raw family alone may spread
        # like the inverse damping toward the top of the delta grid
        if not r1:
            return None, raw_rows, "every pair skipped"
        lower, upper = lo(r1), hi(r2)
        rows = raw_rows + [
            {"case": "lower-constant", "value": lower},
            {"case": "upper-constant", "value": upper},
            {"case": "raw-spread", "value": _spread(r1)},
        ]
        return upper / lower, rows, "certified constant pair bracketing the modulus by K"

    def modulus_k_damped_window():
        if not r2:
            return None, [], "every pair skipped"
        rows = damped_rows + [{"case": "lower-constant", "value": lo(r2)}, {"case": "upper-constant", "value": hi(r2)}]
        return _spread(r2), rows, "cos^4-damped pooled ratio"

    def modulus_k_stability():
        # 16 degrees deeper, at least 48, within the cap and the norm_nodes - 1 that Config allows
        kdeg = min(max(48, cfg.kdeg + 16), MAX_WITNESS_DEG, cfg.norm_nodes - 1)
        heavy = replace(cfg, quad_n=2 * cfg.quad_n, kdeg=kdeg)
        hv1, hv2, sh1, sh2 = [], [], [], []
        for e in entries:
            ks = [k_functional(e.handle, delta, params, heavy.kdeg, cfg.norm_nodes).value for delta in cfg.deltas]
            # not k < floor: a NaN K stays in, so that the check fails
            kept = [(delta, k) for delta, k in zip(cfg.deltas, ks) if not k < 1e-13]
            oms = _moduli(e.handle, [delta for delta, _ in kept], params, cfg.t_points, heavy.quad_n, cfg.norm_nodes)
            for (delta, k), om in zip(kept, oms):
                hv1.append(om / k)
                hv2.append(om * math.cos(delta / 2.0) ** 4 / k)
            for delta in cfg.deltas:
                k16 = k_functional(e.handle, delta, params, 16, cfg.norm_nodes).value
                if not k16 < 1e-13:
                    om0 = data[e.label]["omega"][delta]
                    sh1.append(om0 / k16)
                    sh2.append(om0 * math.cos(delta / 2.0) ** 4 / k16)
        if not hv1 or not r1:
            return None, [], "no comparable ratios"
        rows = [
            {"case": "upper-drift", "value": abs(hi(hv2) - hi(r2)) / max(hi(hv2), 1e-300)},
            {"case": "lower-drift", "value": abs(lo(hv1) - lo(r1)) / max(lo(hv1), 1e-300)},
        ]
        worst = _worst(rows)
        if sh1:
            rows.append({"case": "witness-16-upper", "value": hi(sh2)})
            rows.append({"case": "witness-16-lower", "value": lo(sh1)})
        witness = "deeper witness" if heavy.kdeg > cfg.kdeg else f"witness at the degree cap {heavy.kdeg}"
        return worst, rows, f"constant pair under doubled quadrature and {witness}; degree-16 witness recorded"

    def upper_constant(ratio, note):
        # ratio(d, n) is the ratio of entry data d at degree n, or the reason it is skipped
        def check():
            rows = []
            for label, d in data.items():
                for n in cfg.degrees:
                    v = ratio(d, n)
                    rows.append(_skip(f"{label},n={n}", v) if isinstance(v, str) else {"case": f"{label},n={n}", "value": v})
            if all(row["value"] is None for row in rows):
                return None, rows, "every pair skipped"
            worst = _worst(rows)
            return worst, rows + [{"case": "upper-constant", "value": worst}], note

        return check

    def direct_ratio(d, n):
        if d["omega_inv"][n] < 1e-9 * max(d["fnorm"], 1e-300):
            return "modulus below floor"
        if d["e"][n] < 1e-9 * d["fnorm"]:
            # a rounding-level E_n measures rounding, not an approximation rate
            return "E_n below resolution floor"
        return d["e"][n] / d["omega_inv"][n]

    def inverse_ratio(d, n):
        s = _sum_weighted_errors(d["e"], n)
        if s < 1e-9 * max(d["fnorm"], 1e-300):
            return "error sum below floor"
        return d["omega_inv"][n] * n * n / s

    def kink_error_decay():
        d = data["|x|"]["e"]
        if 4 not in d or 32 not in d:
            return None, [], "degree grid lacks 4 or 32; decay not checkable"
        rows = [{"case": "E_4", "value": d[4]}, {"case": "E_32", "value": d[32]}]
        return 4.0 * d[32] / d[4], rows, "kink error decays by at least 4x from degree 4 to 32"

    return _run_checks(
        cfg,
        [
            ("modulus-k-equivalence", 100.0, modulus_k_equivalence),
            ("modulus-k-damped-window", 100.0, modulus_k_damped_window),
            ("modulus-k-stability", 0.15, modulus_k_stability),
            ("modulus-direct-constant", None, upper_constant(direct_ratio, "best approximation controlled by the modulus")),
            ("modulus-inverse-constant", None, upper_constant(inverse_ratio, "modulus controlled by the weighted error sum")),
            ("kink-error-decay", 1.0, kink_error_decay),
        ],
    )


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
        _write_report(text, path)
    return text


def _write_report(text: str, path) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise ReportIOError(f"cannot write report to {path!r}: {e}") from e
