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
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from smoothness_lab import InvalidArgumentError, ReportIOError, SpaceParams, harness, make_grid, weighted_norm
from smoothness_lab.harness import (
    Config,
    VerificationReport,
    corpus,
    emit_report,
    run_lemma_suite,
    run_theorem_sweep,
)

# Coarse settings: quad_n=8 is too few nodes for the degree-24 integrands the
# doubling check feeds it, so that check must come back as a failure.
SMALL = Config(
    quad_n=8,
    norm_nodes=64,
    t_points=4,
    kdeg=16,
    approx_grid=64,
)


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
    # only the random entry records its seed
    assert [e.seed for e in entries] == [None] * 7 + [7]


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


def _k_with_one_nan(monkeypatch):
    # K of sin(3x) at delta 0.4 is NaN; every other value is the real one
    real = harness.k_functional

    def k_functional(f, delta, *args):
        res = real(f, delta, *args)
        return types.SimpleNamespace(value=math.nan) if f.label == "sin(3x)" and delta == 0.4 else res

    monkeypatch.setattr(harness, "k_functional", k_functional)


def test_a_nan_value_fails_its_verify_check(monkeypatch):
    # a NaN row must not vanish into a running maximum that starts at 0.0
    monkeypatch.setattr(harness, "_asym_core", lambda f, y, xs, quad_n: np.full(np.shape(xs), np.nan))
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


def test_a_nan_deeper_witness_fails_the_stability_check(monkeypatch):
    # the deeper witness is degree 48 at kdeg 16; a NaN K there is no K below the floor
    real = harness.k_functional

    def k_functional(f, delta, params, max_deg, quad_n):
        res = real(f, delta, params, max_deg, quad_n)
        return types.SimpleNamespace(value=math.nan) if max_deg == 48 and f.label == "sin(3x)" else res

    monkeypatch.setattr(harness, "k_functional", k_functional)
    assert by_id(run_theorem_sweep(SMALL))["modulus-k-stability"].status == "fail"


@pytest.mark.parametrize("kdeg,heavy", [(16, 48), (40, 56), (64, 64)])
def test_stability_witness_is_deeper_than_kdeg_up_to_the_cap(monkeypatch, kdeg, heavy):
    # modulus-k-stability's heavy witness is 16 degrees deeper than kdeg, at
    # least 48 and at most the cap; at the cap it must not claim a deeper one
    degrees = set()

    def fake_k(f, delta, params, max_deg, quad_n):
        degrees.add(max_deg)
        return types.SimpleNamespace(value=1.0)

    monkeypatch.setattr(harness, "k_functional", fake_k)
    # Config needs norm_nodes >= kdeg + 1, so kdeg = 64 gets 65 nodes
    cfg = replace(SMALL, kdeg=kdeg, norm_nodes=max(SMALL.norm_nodes, kdeg + 1))
    reports = {r.check_id: r for r in run_theorem_sweep(cfg)}
    assert max(degrees) == heavy
    assert ("deeper witness" in reports["modulus-k-stability"].note) == (heavy > kdeg)


@pytest.mark.parametrize("norm_nodes,kdeg", [(16, 32), (32, 32), (64, 64)])
def test_config_needs_a_norm_node_per_witness_coefficient(norm_nodes, kdeg):
    # with fewer nodes than kdeg + 1 coefficients K is rounding noise
    with pytest.raises(InvalidArgumentError, match=f"norm_nodes must be at least kdeg \\+ 1 = {kdeg + 1}"):
        Config(norm_nodes=norm_nodes, kdeg=kdeg)
    assert Config(norm_nodes=kdeg + 1, kdeg=kdeg).norm_nodes == kdeg + 1


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
    # a declared degree shortens the translation rules, so it must be exact:
    # one too low gives wrong translations, a missing one loses the speed-up
    grid = make_grid(64)
    for e in corpus(seed):
        if e.tag not in ("polynomial", "random-series"):
            assert e.handle.degree is None, e.label
            continue
        d = e.handle.degree
        assert d is not None, e.label
        values = np.asarray(e.handle(grid), dtype=float)
        assert _cheb_residual(values, grid, d) <= 1e-12, e.label
        if d > 0:
            assert _cheb_residual(values, grid, d - 1) >= 1e-6, e.label
