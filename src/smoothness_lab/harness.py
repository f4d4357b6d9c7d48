"""Verification harness: corpus, invariant checks, theorem sweeps, reports."""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, ClassVar, Optional

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
from .errors import InvalidArgumentError, ReportIOError, SmoothnessLabError, _integer, _real
from .jacobi import (
    PolynomialRep,
    _d_eigenvalues,
    _jacobi_series,
    apply_D_poly,
    expand_in_jacobi,
    jacobi_eval,
    jacobi_h,
    jacobi_matrix,
    jacobi_poly,
)
from .quadrature import MAX_NODES, _panel_rule, gauss_chebyshev, gauss_jacobi, gauss_legendre, integrate, ordered_sum
from .space import NORM_NODES, FunctionHandle, SpaceParams, _check_delta, _declared_degree, _prepared, discrete_norm, make_grid, sample, validate_params, weighted_norm
from .translation import (
    T_POINTS,
    _Translates,
    _asym_core,
    _asym_points,
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

# Fixed node counts of the checks whose tolerances demand more than quad_n:
# x-panels and z-rule of self-adjointness, and the x-rule, z-rule and
# projection grid of coefficient-multiplier and l2-optimality.
_PAIR_NODES = 1024
_COEFF_NODES = 2048


@dataclass(frozen=True)
class Config:
    """Knobs shared by the verification suite and the theorem sweep."""

    p: float = 2.0
    alpha: float = 1.0
    quad_n: int = 128
    kdeg: int = 32
    seed: int = 7
    deltas: tuple = (0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.4)
    degrees: tuple = (2, 4, 8, 16, 32)
    # fixed resolutions, not fields: the norm rule, modulus's t grid and best_approx's solve rule
    norm_nodes: ClassVar[int] = NORM_NODES
    t_points: ClassVar[int] = T_POINTS
    approx_grid: ClassVar[int] = 512

    def __post_init__(self):
        _real(self.p, "p")
        _real(self.alpha, "alpha")
        _integer(self.quad_n, "quad_n", 1, MAX_NODES // 2)  # the checks double it
        _integer(self.kdeg, "kdeg", 1, MAX_WITNESS_DEG)
        _integer(self.seed, "seed", 0)
        for name in ("degrees", "deltas"):
            if not isinstance(getattr(self, name), (tuple, list)):
                raise InvalidArgumentError(f"{name} must be a tuple or list, got {getattr(self, name)!r}")
            if len(getattr(self, name)) == 0:
                raise InvalidArgumentError(f"{name} must not be empty")
        for n in self.degrees:
            _integer(n, "degrees", 1, MAX_APPROX_DIM)
        for d in self.deltas:
            _check_delta(d, "deltas", below_pi=True)


@dataclass(frozen=True)
class CorpusEntry:
    """A labeled test function with a smoothness class tag."""

    label: str
    handle: FunctionHandle
    tag: str


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


def corpus(seed: int = 7):
    """Deterministic corpus of test functions spanning the smoothness classes; seed is a nonnegative integer."""
    _integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    series_coeffs = rng.uniform(-1.0, 1.0, 13) * (1.0 + np.arange(13.0)) ** -3.0
    series_poly = _jacobi_series(series_coeffs)
    p5 = jacobi_poly(5, 2, 2)
    entries = [
        CorpusEntry("1", FunctionHandle(eval=lambda x: np.ones_like(np.asarray(x, dtype=float)), degree=0), "polynomial"),
        CorpusEntry("x", FunctionHandle(eval=lambda x: np.asarray(x, dtype=float) + 0.0, degree=1), "polynomial"),
        CorpusEntry("x^2", FunctionHandle(eval=lambda x: np.asarray(x, dtype=float) ** 2, degree=2), "polynomial"),
        CorpusEntry("P_5", FunctionHandle(eval=p5.__call__, degree=p5.degree), "polynomial"),
        CorpusEntry(
            "|x|",
            FunctionHandle(eval=lambda x: np.abs(np.asarray(x, dtype=float)), degree=1, breaks=(0.0,)),
            "kink",
        ),
        CorpusEntry(
            "(1-x)^0.75",
            FunctionHandle(eval=lambda x: np.maximum(1.0 - np.asarray(x, dtype=float), 0.0) ** 0.75),
            "endpoint-singular",
        ),
        CorpusEntry("sin(3x)", FunctionHandle(eval=lambda x: np.sin(3.0 * np.asarray(x, dtype=float))), "analytic"),
        CorpusEntry("random-series", FunctionHandle(eval=series_poly.__call__, degree=series_poly.degree), "random-series"),
    ]
    return entries


def _d_image(h: FunctionHandle, xs: np.ndarray) -> np.ndarray:
    """Df at xs, from the (2,2) coefficients of h times -k(k+5), the way k_functional applies D.

    At a declared degree the coefficients are the exact ones of h's prepared
    function; otherwise they are those of expand_in_jacobi(h, MAX_WITNESS_DEG).
    """
    a = _prepared(h).coefficients()
    if a is None:
        a = expand_in_jacobi(h, MAX_WITNESS_DEG)
    return (_d_eigenvalues(a.size - 1) * a) @ jacobi_matrix(a.size - 1, xs)


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


def _run_checks(checks) -> list:
    """Run a table of (check_id, tolerance, fn) in order."""
    return [_run(cid, tol, fn) for cid, tol, fn in checks]


def _worst(rows) -> float:
    """The largest value of the detail rows, and at least 0.0; a NaN wins, so its check fails."""
    return float(np.max([d["value"] for d in rows if d["value"] is not None], initial=0.0))


def _spread(vals) -> float:
    """max(vals) / min(vals); a NaN wins, and a zero min gives inf (NaN if the max is 0 too), without a warning."""
    with np.errstate(divide="ignore", invalid="ignore"):
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
    s = math.sqrt(1.0 - y * y)
    return _panel_rule((-1.0, -s, 0.0, s, 1.0), max(int(n_panel) // 2, 1))


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
            ("jacobi(2,2)", lambda n: gauss_jacobi(n, 2.0), _jacobi22_moment),
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
        rule = gauss_jacobi(64, 2.0)
        mat = jacobi_matrix(16, rule.nodes)
        gram = (mat * rule.weights[None, :]) @ mat.T
        rows = [{"case": "n<=16", "value": float(np.max(np.abs(gram - np.diag(np.diag(gram)))))}]
        return _worst(rows), rows, ""

    def jacobi_eigenrelation():
        rows = []
        for n in range(0, 17):
            poly = jacobi_poly(n, 2, 2)
            lam = -n * (n + 5.0)
            resid = apply_D_poly(poly).cheb - lam * poly.cheb
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
            fx = sample(e.handle, grid16)
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
            fv = sample(e.handle, xs)
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
            values = {e.label: sample(e.handle, xs) for e in entries}
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

    def doubling_drift(images, damping, constant):
        # the largest ratio ||image of f|| damping(t) / ||f|| over entries and
        # ts_bound, at quad_n and at 2 quad_n z-nodes; the drift is observed.
        # images(e, xs) gives the rows of e's images at the t of ts_bound
        # under quad_n and under 2 quad_n
        def check():
            norm = discrete_norm(params, NORM_NODES)
            bases = [(e, norm(sample(e.handle, norm.nodes))) for e in entries]
            bases = [(e, base) for e, base in bases if not base < 1e-13]  # a NaN norm stays and fails the check
            pairs = [(base, images(e, norm.nodes)) for e, base in bases]

            def largest(k):
                ratios = [norm(row) * damping(tt) / base for base, rows in pairs for tt, row in zip(ts_bound, rows[k])]
                return float(np.max(ratios, initial=0.0))

            lo, hi = largest(0), largest(1)
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
        lo = modulus(handle["x"], 0.5, params, quad_n=cfg.quad_n)
        hi = modulus(handle["x"], 0.5, params, 2 * T_POINTS, 2 * cfg.quad_n, 2 * NORM_NODES)
        rows = [{"case": "delta=0.5", "value": abs(hi - lo)}]
        return _worst(rows), rows, ""

    def l2_optimality():
        rows = []
        for label in ("x^2", "sin(3x)", "|x|"):
            h = handle[label]
            for n in (4, 8):
                # orthogonality must be tested on the rule best_approx
                # solves on; any other rule measures quadrature error of
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
        norm = discrete_norm(p21, NORM_NODES)
        for e in entries:
            if e.tag not in ("polynomial", "analytic"):
                continue
            dnorm = norm(_d_image(e.handle, norm.nodes))
            fnorm = weighted_norm(e.handle, p21)
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
                if _declared_degree(e.handle) is None:
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
        norm = discrete_norm(params, NORM_NODES)
        for e in entries:
            proj = expand_in_jacobi(e.handle, cfg.kdeg, n_nodes=NORM_NODES)
            gpoly = _jacobi_series(proj)
            fv = sample(e.handle, norm.nodes)
            fnorm = norm(fv)
            base = norm(fv - gpoly(norm.nodes))
            dnorm = norm(apply_D_poly(gpoly)(norm.nodes))
            for delta in (0.1, 0.5):
                # the public entry point, whose guarantee this is
                res = k_functional(e.handle, delta, params, cfg.kdeg)
                cap = min(fnorm, base + delta * delta * dnorm)
                rows.append({"case": f"{e.label},delta={delta:g}", "value": res.value - cap})
        return _worst(rows), rows, "never above the zero or projection candidate"

    def corpus_determinism():
        xs = make_grid(32)
        pairs = zip(corpus(cfg.seed), corpus(cfg.seed))
        worst = float(np.max([np.abs(sample(a.handle, xs) - sample(b.handle, xs)) for a, b in pairs]))
        rows = [{"case": f"seed={cfg.seed}", "value": worst}]
        return _worst(rows), rows, "bitwise identical corpus regeneration"

    moduli = lambda h: modulus(h, cfg.deltas, params, quad_n=cfg.quad_n)
    k_values = lambda h: [k_functional(h, d, params, cfg.kdeg).value for d in cfg.deltas]

    def translate(e, xs):
        # one batch over ts_bound; under 2 quad_n only the points whose value
        # depends on the cap quad_n are integrated again (_z_points), bitwise
        # _asym_core(e.handle, cos t, xs, 2 quad_n) at every point
        ys = np.array([math.cos(tt) for tt in ts_bound])
        iy, x_all = np.repeat(np.arange(ys.size), xs.size), np.tile(xs, ys.size)
        lo, capped = _asym_points(e.handle, ys, iy, x_all, cfg.quad_n)
        hi = lo.copy()
        hi[capped] = _asym_points(e.handle, ys, iy[capped], x_all[capped], 2 * cfg.quad_n)[0]
        return lo.reshape(ys.size, xs.size), hi.reshape(ys.size, xs.size)

    def rotate(e, xs):
        caps = (cfg.quad_n, 2 * cfg.quad_n)
        return tuple([abs_rotation_average(e.handle.eval, tt, xs, qn) for tt in ts_bound] for qn in caps)

    return _run_checks(
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
        grid = list(cfg.deltas) + [1.0 / n for n in cfg.degrees]  # one translation per y shared by both
        # kept for modulus-k-stability, which integrates only their capped points again
        translates = _Translates(e.handle, params, T_POINTS, cfg.quad_n, NORM_NODES)
        # bitwise weighted_norm(e.handle, params), from the samples f's prepared function keeps
        fnorm = translates.norm(_prepared(e.handle)(translates.norm.nodes))
        oms = translates.moduli(grid)
        omegas = dict(zip(cfg.deltas, oms))
        kvals = {d: k_functional(e.handle, d, params, cfg.kdeg).value for d in cfg.deltas}
        errs = {nu: best_approx(e.handle, nu, params, cfg.approx_grid).value for nu in range(1, max_deg + 1)}
        omega_inv = dict(zip(cfg.degrees, oms[len(cfg.deltas) :]))
        data[e.label] = {
            "fnorm": fnorm,
            "omega": omegas,
            "k": kvals,
            "e": errs,
            "omega_inv": omega_inv,
            "translates": translates,
        }

    # the pooled ratios omega / K, raw and cos^4-damped, over entries and deltas
    raw_rows, damped_rows = [], []
    for label, d in data.items():
        for delta in cfg.deltas:
            case = f"{label},delta={delta:g}"
            if delta == 0.0:
                # omega(f, 0) = 0: the ratio says nothing about the constants
                raw_rows.append(_skip(case, "omega vanishes at delta = 0"))
                damped_rows.append(_skip(case, "omega vanishes at delta = 0"))
                continue
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
        # 16 degrees deeper, at least 48, within the cap
        kdeg = min(max(48, cfg.kdeg + 16), MAX_WITNESS_DEG)
        hv1, hv2, sh1, sh2 = [], [], [], []
        for e in entries:
            ks = [k_functional(e.handle, d, params, kdeg).value for d in cfg.deltas]
            # not k < floor: a NaN K stays in, so that the check fails
            kept = [(delta, k) for delta, k in zip(cfg.deltas, ks) if delta > 0.0 and not k < 1e-13]
            # the moduli under 2 quad_n: only the points that reached the cap quad_n can move
            oms = data[e.label]["translates"].moduli([delta for delta, _ in kept], 2 * cfg.quad_n)
            for (delta, k), om in zip(kept, oms):
                hv1.append(om / k)
                hv2.append(om * math.cos(delta / 2.0) ** 4 / k)
            k16s = [k_functional(e.handle, d, params, 16).value for d in cfg.deltas]
            for delta, k16 in zip(cfg.deltas, k16s):
                if delta > 0.0 and not k16 < 1e-13:
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
        witness = "deeper witness" if kdeg > cfg.kdeg else f"witness at the degree cap {kdeg}"
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
        [
            ("modulus-k-equivalence", 100.0, modulus_k_equivalence),
            ("modulus-k-damped-window", 100.0, modulus_k_damped_window),
            ("modulus-k-stability", 0.15, modulus_k_stability),
            ("modulus-direct-constant", None, upper_constant(direct_ratio, "best approximation controlled by the modulus")),
            ("modulus-inverse-constant", None, upper_constant(inverse_ratio, "modulus controlled by the weighted error sum")),
            ("kink-error-decay", 1.0, kink_error_decay),
        ],
    )


def emit_report(reports, format: str = "json", path=None, config: Optional[Config] = None) -> str:
    """Serialize reports deterministically; identical inputs give identical bytes.

    Returns the serialized text and writes it to path when given. The JSON
    envelope is {schema_version, config, checks}; CSV is one row per detail
    case. No timestamps or environment data are embedded.
    """
    if format not in ("json", "csv"):
        raise InvalidArgumentError(f"format must be json or csv, got {format!r}")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(config) if config is not None else {},
        "checks": [r.as_dict() for r in reports],
    }
    header = ["check_id", "status", "observed", "tolerance", "case", "value", "note"]
    rows = [
        [r.check_id, r.status, r.observed, r.tolerance]
        + [d.get("case", ""), d.get("value"), d.get("note", r.note if not r.details else "")]
        for r in reports
        for d in r.details or ({},)
    ]
    return _emit(payload, header, rows, format, path)


def _emit(payload, header, rows, format: str, path) -> str:
    """The one writer of reports and tables: payload as JSON, or header and rows as CSV, written to path when given.

    JSON is sorted and indented. CSV ends each line with "\n", writes None
    as an empty cell and a float (np.float64 included) as repr(float(v)),
    whose repr numpy 2 would otherwise spell np.float64(...).
    """
    if format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)
        text = buf.getvalue()
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as e:
            raise ReportIOError(f"cannot write report to {path!r}: {e}") from e
    return text
