"""The benchmark tracer (perfbench/tracing.py) wraps package functions by name.

It looks each one up as (module, attribute) and counts points from named
arguments, so a rename in src would break `perfbench/run.py --trace 1`
silently. These tests fail on such a rename instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from smoothness_lab import harness, jacobi, space, translation

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _params(fn):
    return list(inspect.signature(fn).parameters)


def test_every_traced_function_resolves():
    for modname, attr, _, _ in _tracing()._FUNCTIONS:
        module = importlib.import_module(f"smoothness_lab.{modname}")
        assert callable(getattr(module, attr, None)), f"smoothness_lab.{modname}.{attr}"
    # wrapped directly on the class and on the harness module
    assert "__call__" in vars(jacobi.PolynomialRep)
    assert _params(harness._run) == ["check_id", "tolerance", "fn"]
    assert callable(harness.corpus)


def test_counted_arguments_keep_their_names():
    for core in (translation._asym_core, translation._sym_core):
        assert {"xs", "quad_n"} <= set(_params(core)), core.__name__
    assert "n_nodes" in _params(space.weighted_norm)


def test_traced_sweep_counts_its_k_functional_calls():
    # the sweep takes each K from k_functional: one call per entry and delta
    # in each of its three passes (its values, and the deeper and the
    # degree-16 witness of modulus-k-stability), all under the tracer's span
    from smoothness_lab import Config, corpus

    cfg = Config(quad_n=8, norm_nodes=64, t_points=4, kdeg=16, approx_grid=64, deltas=(0.1, 0.4), degrees=(2, 4))
    with _tracing().Tracer() as tracer:
        harness.run_theorem_sweep(cfg)
    metrics = tracer.layer_metrics()
    assert metrics["approx.k_functional.calls"][0] == len(corpus(cfg.seed)) * len(cfg.deltas) * 3
    assert metrics["approx.k_functional.iterations"][0] > 0
