"""Harness behavior: corpus determinism, suite bookkeeping, report emission.

Numerical quality of individual checks is covered by the acceptance tests
against the default configuration.  Here we run a deliberately coarse
configuration so the suite finishes in seconds, and only assert on control
flow and serialization.
"""

import importlib.util
import json
import math
import types
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from smoothness_lab import (
    InvalidArgumentError,
    ReportIOError,
    SpaceParams,
    apply_D_poly,
    best_approx,
    harness,
    make_grid,
    translation,
    weighted_norm,
)
from smoothness_lab.harness import (
    Config,
    VerificationReport,
    corpus,
    emit_report,
    run_lemma_suite,
    run_theorem_sweep,
)
from smoothness_lab.space import _declared_degree, discrete_norm, sample

# Coarse settings: quad_n=8 is too few nodes for the degree-24 integrands the
# doubling check feeds it, so that check must come back as a failure.
SMALL = Config(quad_n=8, kdeg=16)


@pytest.fixture(scope="module")
def small_reports():
    return run_lemma_suite(SMALL)


def by_id(reports):
    out = {r.check_id: r for r in reports}
    assert len(out) == len(reports), "duplicate check ids"
    return out


def test_corpus_labels_and_tags():
    entries = corpus()
    labels = [e.label for e in entries]
    assert labels == ["1", "x", "x^2", "P_5", "|x|", "(1-x)^0.75", "sin(3x)", "random-series"]
    tags = {e.label: e.tag for e in entries}
    assert tags["|x|"] == "kink"
    assert tags["(1-x)^0.75"] == "endpoint-singular"
    assert tags["P_5"] == "polynomial"


def test_corpus_is_deterministic():
    grid = np.linspace(-0.99, 0.99, 51)
    a = corpus(seed=7)
    b = corpus(seed=7)
    for ea, eb in zip(a, b):
        assert ea.label == eb.label
        np.testing.assert_array_equal(ea.handle(grid), eb.handle(grid))
    # a different seed changes only the random entry
    c = corpus(seed=8)
    np.testing.assert_array_equal(a[0].handle(grid), c[0].handle(grid))
    assert not np.array_equal(a[-1].handle(grid), c[-1].handle(grid))


def test_corpus_random_entry_is_tame():
    entry = corpus(seed=7)[-1]
    value = weighted_norm(entry.handle, SpaceParams(2.0, 1.0))
    assert 0.0 < value < 10.0


def test_reduced_suite_shape(small_reports):
    assert len(small_reports) == 28
    reports = by_id(small_reports)
    for r in reports.values():
        assert r.status in ("pass", "fail", "skipped")
        # exact-identity checks carry tolerance 0.0
        assert r.tolerance >= 0.0
        assert r.seconds >= 0.0


def test_reduced_suite_flags_coarse_quadrature(small_reports):
    r = by_id(small_reports)["quadrature-doubling"]
    assert r.status == "fail"
    assert r.observed > r.tolerance


def test_reduced_sweep_runs():
    reports = run_theorem_sweep(SMALL)
    assert sorted(r.check_id for r in reports) == [
        "kink-error-decay",
        "modulus-direct-constant",
        "modulus-inverse-constant",
        "modulus-k-damped-window",
        "modulus-k-equivalence",
        "modulus-k-stability",
    ]
    # x is its own best approximation at every n >= 2, so its E_n is a
    # rounding-level zero and the direct constant skips its rows
    direct = by_id(reports)["modulus-direct-constant"]
    rows = [d for d in direct.details if d["case"].startswith("x,n=")]
    assert len(rows) == len(SMALL.degrees)
    assert all(d["value"] is None and d["note"] == "E_n below resolution floor" for d in rows)


def test_a_zero_delta_skips_its_pooled_ratios():
    # omega(f, 0) = 0, so delta = 0 has no omega / K ratio: its pooled rows
    # are skipped with a note, and the other deltas still set the constants
    reports = by_id(run_theorem_sweep(replace(SMALL, deltas=(0.0, 0.1))))
    assert all(r.status == "pass" for r in reports.values())
    for check_id in ("modulus-k-equivalence", "modulus-k-damped-window"):
        rows = [d for d in reports[check_id].details if d["case"].endswith(",delta=0")]
        assert len(rows) == len(corpus(SMALL.seed))
        assert all(d["value"] is None and d["note"] == "omega vanishes at delta = 0" for d in rows)
        assert reports[check_id].observed is not None


def test_spread_of_a_zero_minimum_is_infinite_without_a_warning():
    # a RuntimeWarning would fail this test
    assert harness._spread([0.0, 1.0]) == math.inf
    assert math.isnan(harness._spread([0.0, 0.0]))
    assert math.isnan(harness._spread([1.0, math.nan]))


def _expected_checks():
    # the benchmark's gate compares the ordered ids of each report with these
    path = Path(__file__).resolve().parents[1] / "perfbench" / "batch.py"
    spec = importlib.util.spec_from_file_location("perfbench_batch", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.EXPECTED_CHECKS


def test_check_order_is_the_benchmarks(small_reports):
    expected = _expected_checks()
    assert [r.check_id for r in small_reports] == list(expected["verify"])
    assert [r.check_id for r in run_theorem_sweep(SMALL)] == list(expected["sweep"])


def _handles_of(monkeypatch, label):
    """The handles of the corpus entry label, collected as the harness builds its corpus."""
    made = []
    real = harness.corpus

    def corpus(seed):
        entries = real(seed)
        made.extend(e.handle for e in entries if e.label == label)
        return entries

    monkeypatch.setattr(harness, "corpus", corpus)
    return lambda f: any(f is h for h in made)


def _k_with_one_nan(monkeypatch):
    # K of sin(3x) at delta 0.4 is NaN; every other value is the real one
    real = harness.k_functional
    is_sin = _handles_of(monkeypatch, "sin(3x)")

    def k_functional(f, delta, *args):
        return types.SimpleNamespace(value=math.nan) if is_sin(f) and delta == 0.4 else real(f, delta, *args)

    monkeypatch.setattr(harness, "k_functional", k_functional)


def test_a_nan_value_fails_its_verify_check(monkeypatch):
    # a NaN row must not vanish into a running maximum that starts at 0.0;
    # translation-norm-bound translates through _asym_points, the others
    # through _asym_core
    monkeypatch.setattr(harness, "_asym_core", lambda f, y, xs, quad_n: np.full(np.shape(xs), np.nan))
    nan_points = lambda f, ys, iy, x_all, quad_n: (np.full(x_all.shape, np.nan), np.zeros(x_all.shape, dtype=bool))
    monkeypatch.setattr(harness, "_asym_points", nan_points)
    _k_with_one_nan(monkeypatch)
    reports = by_id(run_lemma_suite(SMALL))
    for check_id in (
        "translation-identity",
        "translation-constant",
        "product-formula",
        "self-adjointness",
        "translation-norm-bound",
        "k-monotonicity",
    ):
        assert reports[check_id].status == "fail", check_id


def test_a_nan_ratio_fails_the_pooled_sweep_checks(monkeypatch):
    _k_with_one_nan(monkeypatch)
    reports = by_id(run_theorem_sweep(SMALL))
    for check_id in ("modulus-k-equivalence", "modulus-k-damped-window", "modulus-k-stability"):
        assert reports[check_id].status == "fail", check_id


def test_a_zero_lower_constant_fails_the_equivalence_on_its_tolerance(monkeypatch):
    # a zero modulus of one entry makes the lower constant 0: upper / lower
    # is inf without a warning, and the check fails on its tolerance with
    # its rows and both constants, instead of on a ZeroDivisionError
    is_sin = _handles_of(monkeypatch, "sin(3x)")

    class Translates(harness._Translates):
        def moduli(self, deltas, quad_n=None):
            real = super().moduli(deltas, quad_n)
            return [0.0] * len(real) if is_sin(self.fn) else real

    monkeypatch.setattr(harness, "_Translates", Translates)
    report = by_id(run_theorem_sweep(SMALL))["modulus-k-equivalence"]
    assert report.status == "fail" and report.observed == math.inf
    rows = {d["case"]: d["value"] for d in report.details}
    assert rows["lower-constant"] == 0.0 and rows["upper-constant"] > 0.0
    assert len(report.details) == len(corpus(SMALL.seed)) * len(SMALL.deltas) + 3


def test_a_nan_deeper_witness_fails_the_stability_check(monkeypatch):
    # the deeper witness is degree 48 at kdeg 16; a NaN K there is no K below the floor
    real = harness.k_functional
    is_sin = _handles_of(monkeypatch, "sin(3x)")

    def k_functional(f, delta, params, max_deg, *args):
        return types.SimpleNamespace(value=math.nan) if max_deg == 48 and is_sin(f) else real(f, delta, params, max_deg, *args)

    monkeypatch.setattr(harness, "k_functional", k_functional)
    assert by_id(run_theorem_sweep(SMALL))["modulus-k-stability"].status == "fail"


@pytest.mark.parametrize("kdeg,heavy", [(16, 48), (40, 56), (64, 64)])
def test_stability_witness_is_deeper_than_kdeg_up_to_the_cap(monkeypatch, kdeg, heavy):
    # modulus-k-stability's heavy witness is 16 degrees deeper than kdeg, at
    # least 48 and at most the cap; at the cap it must not claim a deeper one
    degrees = set()

    def fake_k(f, delta, params, max_deg, *args):
        degrees.add(max_deg)
        return types.SimpleNamespace(value=1.0)

    monkeypatch.setattr(harness, "k_functional", fake_k)
    reports = {r.check_id: r for r in run_theorem_sweep(replace(SMALL, kdeg=kdeg))}
    assert max(degrees) == heavy
    assert ("deeper witness" in reports["modulus-k-stability"].note) == (heavy > kdeg)


@pytest.mark.parametrize("seed", [-1, True, 1.5, "7", None])
def test_config_and_corpus_take_only_a_nonnegative_integer_seed(seed):
    with pytest.raises(InvalidArgumentError, match="seed must be a nonnegative integer"):
        Config(seed=seed)
    with pytest.raises(InvalidArgumentError, match="seed must be a nonnegative integer"):
        corpus(seed)


def test_config_and_corpus_accept_seed_zero_and_numpy_integers():
    assert Config(seed=0).seed == 0
    assert Config(seed=np.int64(3)).seed == 3
    assert [e.label for e in corpus(np.int64(0))] == [e.label for e in corpus(0)]


def test_config_fixes_the_norm_rule_the_t_grid_and_the_solve_rule():
    # read-only constants, not fields: a report's config does not list them
    assert [f.name for f in fields(Config)] == ["p", "alpha", "quad_n", "kdeg", "seed", "deltas", "degrees"]
    cfg = Config()
    assert (cfg.norm_nodes, cfg.t_points, cfg.approx_grid) == (256, 16, 512)
    for key in ("norm_nodes", "t_points", "approx_grid"):
        with pytest.raises(TypeError):
            Config(**{key: 64})


@pytest.mark.parametrize("runner", [run_lemma_suite, run_theorem_sweep])
def test_inadmissible_space_is_rejected(runner):
    with pytest.raises(InvalidArgumentError):
        runner(Config(p=2.0, alpha=0.7))


def test_empty_json_report():
    text = emit_report([], format="json")
    payload = json.loads(text)
    assert payload == {"checks": [], "config": {}, "schema_version": 1}
    assert text.endswith("\n")


def test_json_report_roundtrip(small_reports):
    text = emit_report(small_reports, format="json", config=SMALL)
    payload = json.loads(text)
    assert payload["schema_version"] == 1
    assert payload["config"]["quad_n"] == 8
    assert len(payload["checks"]) == 28
    for check in payload["checks"]:
        assert set(check) == {"check_id", "status", "observed", "tolerance", "details", "note"}
    # wall-clock timing must never leak into the emitted report
    assert "seconds" not in text


def test_report_emission_is_byte_stable(small_reports):
    first = emit_report(small_reports, format="json", config=SMALL)
    second = emit_report(small_reports, format="json", config=SMALL)
    assert first == second


def test_csv_report_layout():
    plain = VerificationReport("demo", "pass", 1.0, 2.0)
    text = emit_report([plain], format="csv")
    lines = text.strip().split("\n")
    assert lines[0] == "check_id,status,observed,tolerance,case,value,note"
    # a report without detail rows still occupies exactly one line
    assert len(lines) == 2
    assert lines[1].startswith("demo,pass,1.0,2.0")


def test_csv_report_expands_details(small_reports):
    text = emit_report(small_reports, format="csv")
    lines = text.strip().split("\n")
    ids = {line.split(",")[0] for line in lines[1:]}
    assert ids == {r.check_id for r in small_reports}
    assert len(lines) - 1 >= len(small_reports)


def test_report_written_to_path(tmp_path, small_reports):
    target = tmp_path / "report.json"
    text = emit_report(small_reports, format="json", path=target, config=SMALL)
    assert target.read_text() == text


def test_report_write_failure_raised(tmp_path):
    target = tmp_path / "missing" / "report.json"
    with pytest.raises(ReportIOError):
        emit_report([], format="json", path=target)


def test_report_rejects_unknown_format():
    with pytest.raises(InvalidArgumentError):
        emit_report([], format="xml")


def test_as_dict_excludes_timing():
    r = VerificationReport("demo", "pass", 1.0, 2.0, seconds=3.5)
    assert "seconds" not in r.as_dict()
    assert r.as_dict()["check_id"] == "demo"


def _cheb_residual(values, grid, degree):
    coeffs = np.polynomial.chebyshev.chebfit(grid, values, degree)
    return float(np.max(np.abs(np.polynomial.chebyshev.chebval(grid, coeffs) - values)))


@pytest.mark.parametrize("seed", [7, 11])
def test_corpus_declares_true_polynomial_degrees(seed):
    # a declared degree shortens the translation rules, so it must be exact
    # on each piece between the breaks: one too low gives wrong
    # translations, a missing one loses the speed-up
    grid = make_grid(64)
    for e in corpus(seed):
        if e.tag not in ("polynomial", "random-series", "kink"):
            assert e.handle.degree is None, e.label
            continue
        d = e.handle.degree
        assert d is not None, e.label
        edges = (-1.0,) + e.handle.breaks + (1.0,)
        for lo, hi in zip(edges, edges[1:]):
            values = np.asarray(e.handle(lo + (hi - lo) * (grid + 1.0) / 2.0), dtype=float)
            assert _cheb_residual(values, grid, d) <= 1e-12, (e.label, lo)
            if d > 0:
                assert _cheb_residual(values, grid, d - 1) >= 1e-6, (e.label, lo)


def test_sweep_translations_take_at_most_two_million_samples(monkeypatch):
    # every sample of f that a translation takes goes through
    # translation.sample; the default sweep took 5.19 M before the moduli of
    # declared-degree f came from the multipliers (no z-integral at all, so
    # no _exact_points call), the nested z-rule stopped on its
    # extrapolated error, and modulus-k-stability redid only capped points;
    # only |x|, a piecewise polynomial, calls _exact_points, at its points
    # whose R crosses no break
    samples, exact = [], []
    real_sample, real_exact = translation.sample, translation._exact_points

    def counting(f, x):
        samples.append(np.size(x))
        return real_sample(f, x)

    def recording(*args):
        exact.append(args)
        return real_exact(*args)

    monkeypatch.setattr(translation, "sample", counting)
    monkeypatch.setattr(translation, "_exact_points", recording)
    reports = run_theorem_sweep(Config(seed=7))
    assert all(r.status == "pass" for r in reports)
    assert 0 < sum(samples) <= 2_000_000
    assert exact and all(args[0].breaks == (0.0,) for args in exact)


@pytest.mark.parametrize("seed", [7, 11])
def test_only_the_endpoint_singular_entry_reaches_the_nested_rule(monkeypatch, seed):
    # |x| is translated exactly and sin(3x) through its chopped series, so
    # of the corpus only (1-x)^0.75 takes the nested z-rule in the sweep,
    # in its main pass and in modulus-k-stability's pass under 2 quad_n;
    # each call is named by its f's values at a few points
    cfg = Config(seed=seed)
    probe = np.linspace(-0.9, 0.9, 7)
    labels = [(e.label, sample(e.handle, probe)) for e in corpus(seed)]
    points = {}
    real = translation._nested_points

    def recording(fn, kernel, y_all, x_all, quad_n):
        label = next(label for label, values in labels if np.array_equal(values, sample(fn, probe)))
        points[label, quad_n] = points.get((label, quad_n), 0) + y_all.size
        return real(fn, kernel, y_all, x_all, quad_n)

    monkeypatch.setattr(translation, "_nested_points", recording)
    reports = run_theorem_sweep(cfg)
    assert all(r.status == "pass" for r in reports)
    assert set(points) == {("(1-x)^0.75", cfg.quad_n), ("(1-x)^0.75", 2 * cfg.quad_n)}, points
    assert points["(1-x)^0.75", 2 * cfg.quad_n] < points["(1-x)^0.75", cfg.quad_n]


@pytest.mark.parametrize("cfg", [SMALL, Config()], ids=["quad_n=8", "quad_n=128"])
def test_translation_norm_bound_is_the_full_doubled_pass(cfg, small_reports):
    # the check integrates again under 2 quad_n only the points whose value
    # depends on the cap quad_n; its rows are bitwise those of translating
    # every entry at every t under quad_n and again under 2 quad_n. At
    # quad_n = 8 the random series' exact rule is cut below its 9 nodes
    reports = small_reports if cfg is SMALL else run_lemma_suite(cfg)
    rows = {d["case"]: d["value"] for d in by_id(reports)["translation-norm-bound"].details}
    params = SpaceParams(cfg.p, cfg.alpha)
    norm = discrete_norm(params, cfg.norm_nodes)
    largest = []
    for qn in (cfg.quad_n, 2 * cfg.quad_n):
        ratios = []
        for e in corpus(cfg.seed):
            base = norm(sample(e.handle, norm.nodes))
            for t in (0.3, 0.8, 1.5, 2.2, 2.8, 3.0):
                image = translation._asym_core(e.handle, math.cos(t), norm.nodes, qn)
                ratios.append(norm(image) * math.cos(t / 2.0) ** 4 / base)
        largest.append(max(ratios))
    assert rows["empirical-constant"] == largest[1]
    assert rows["drift"] == abs(largest[1] - largest[0]) / largest[1]


def test_d_image_matches_apply_d_poly_and_the_analytic_image():
    # direct-estimate-decay applies D to the (2,2) coefficients of f, as
    # k_functional does; on the corpus polynomials it must agree with
    # apply_D_poly of their exact fit, at sin(3x) with the analytic image
    # (1-x^2) f'' - 6x f' = -9(1-x^2) sin 3x - 18x cos 3x, and the image of
    # the constant is exactly 0. The rounding of the top coefficients is
    # multiplied by k(k+5) and is largest at x = +-1, where |P_k| = 1, so
    # the agreement is measured in the (2, 1) norm that the check takes:
    # its norm within 1e-14, the norm of the difference within 1e-12
    norm = discrete_norm(SpaceParams(2.0, 1.0), Config().norm_nodes)
    xs = norm.nodes
    checked = []
    for e in corpus(7):
        got = harness._d_image(e.handle, xs)
        if _declared_degree(e.handle) is not None:
            fit = best_approx(e.handle, e.handle.degree + 1, SpaceParams(2.0, 1.0))
            assert fit.method == "exact-fit"
            want = apply_D_poly(fit.argmin)(xs)
        elif e.label == "sin(3x)":
            want = -9.0 * (1.0 - xs * xs) * np.sin(3.0 * xs) - 18.0 * xs * np.cos(3.0 * xs)
        else:
            continue
        checked.append(e.label)
        if e.handle.degree == 0:
            assert not np.any(got)
            continue
        assert abs(norm(got) - norm(want)) <= 1e-14 * norm(want), e.label
        assert norm(got - want) <= 1e-12 * norm(want), e.label
    assert checked == ["1", "x", "x^2", "P_5", "sin(3x)", "random-series"]


def test_the_sweep_samples_each_entry_on_its_norm_rule_twice(monkeypatch):
    # once for the translates and the norm of f, and once more for the K of
    # modulus-k-stability, after the later entries replaced f's prepared function
    cfg = Config()
    nodes = discrete_norm(harness._space(cfg), cfg.norm_nodes).nodes
    entries = corpus(cfg.seed)
    counts = dict.fromkeys((e.label for e in entries), 0)
    for e in entries:
        real = e.handle.eval

        def counted(x, real=real, label=e.label):
            x = np.asarray(x)
            counts[label] += x.shape == nodes.shape and np.array_equal(x, nodes)
            return real(x)

        e.handle.eval = counted
    monkeypatch.setattr(harness, "corpus", lambda seed: entries)
    run_theorem_sweep(cfg)
    assert counts == dict.fromkeys(counts, 2)
