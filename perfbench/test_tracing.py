"""Tests of the benchmark's span wrappers, on a small configuration.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tracing.py
"""

import math
import sys

import numpy as np
import pytest

from smoothness_lab import cli
from tracing import _FUNCTIONS, Tracer

# Small resolutions keep both suites to a few seconds; whether each check
# passes at this size does not matter here.
SMALL_CONFIG = """
quad_n = 32
norm_nodes = 64
t_points = 4
kdeg = 8
deltas = 0.1, 0.4
degrees = 2, 4
pair_nodes = 64
pair_quad = 64
coeff_nodes = 64
coeff_quad = 64
approx_grid = 64
jackson_quad = 128
jackson_t_nodes = 32
"""


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    return path


def _report(command, config_file, out):
    code = cli.main([command, "--config", str(config_file), "--out", str(out)])
    assert code in (0, 1)
    return out.read_bytes()


def _originals():
    return [getattr(sys.modules[f"smoothness_lab.{m}"], a) for m, a, _, _ in _FUNCTIONS]


def _bindings(objs):
    """(module, attr) pairs in smoothness_lab namespaces bound to any of objs."""
    ids = {id(o) for o in objs}
    return sorted(
        (name, attr)
        for name, mod in list(sys.modules.items())
        if name == "smoothness_lab" or name.startswith("smoothness_lab.")
        for attr, value in vars(mod).items()
        if id(value) in ids
    )


def test_every_binding_is_replaced_and_restored():
    originals = _originals()
    before = _bindings(originals)
    # harness, approx and cli bind names imported from other modules
    assert ("smoothness_lab.harness", "_asym_core") in before
    assert ("smoothness_lab.approx", "_sym_core") in before
    assert ("smoothness_lab.cli", "best_approx") in before
    with Tracer():
        assert _bindings(originals) == []
    assert _bindings(originals) == before


def test_wrapped_run_is_byte_identical_and_counts_every_layer(config_file, tmp_path):
    plain = {c: _report(c, config_file, tmp_path / f"{c}-plain.json") for c in ("verify", "sweep")}
    with Tracer() as tracer:
        traced = {c: _report(c, config_file, tmp_path / f"{c}-traced.json") for c in ("verify", "sweep")}
    assert traced == plain

    spans = {name for _, _, name, _ in _FUNCTIONS} | {"harness.check", "jacobi.poly_eval", "f"}
    assert set(tracer.stats) == spans
    for name, st in tracer.stats.items():
        assert st["calls"] > 0, name
    metrics = tracer.layer_metrics()
    assert metrics["f.points"][0] > 0
    assert metrics["translation.asym_core.points"][0] > 0
    assert sum(1 for k in metrics if k.startswith("harness.check_s.")) == 28 + 6
    for name, st in tracer.stats.items():
        assert 0.0 <= st["self_s"] <= st["incl_s"] + 1e-9, name
    assert math.isclose(sum(st["self_s"] for st in tracer.stats.values()), tracer.root_s, rel_tol=1e-6)


def test_failed_calls_and_iterations_are_counted():
    import smoothness_lab as sl

    params = sl.SpaceParams(1.5, 11.0 / 12.0)
    with Tracer() as tracer:
        # looked up after the wrappers are installed, as the workloads do
        h = sl.corpus(7)[6].handle  # sin(3x)
        sl.best_approx(h, 4, params, 64)
        sl.k_functional(h, 0.4, params, 8, 64)
        with pytest.raises(sl.InvalidArgumentError):
            sl.best_approx(h, 0, params)
    metrics = tracer.layer_metrics()
    assert metrics["approx.best_approx.calls"][0] == 2
    assert metrics["approx.best_approx.failed"][0] == 1
    assert metrics["approx.best_approx.iterations"][0] > 0
    assert metrics["approx.k_functional.iterations"][0] > 0
    assert metrics["f.calls"][0] > 0


def test_polynomial_entries_built_under_the_tracer_count_as_poly_eval():
    import smoothness_lab as sl

    with Tracer() as tracer:
        # a handle binds PolynomialRep.__call__ when corpus() builds it
        p5 = next(e.handle for e in sl.corpus(7) if e.label == "P_5")
        p5(np.linspace(-1.0, 1.0, 11))
    metrics = tracer.layer_metrics()
    assert metrics["jacobi.poly_eval.calls"][0] == 1
    assert metrics["jacobi.poly_eval.points"][0] == 11
    assert metrics["f.calls"][0] == 1
    assert metrics["f.points"][0] == 11
