"""The benchmark tracer (perfbench/tracing.py) wraps package functions by name.

It looks each one up as (module, attribute) and counts points from named
arguments, so a rename in src would break `perfbench/run.py --trace 1`
silently. These tests fail on such a rename instead.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

from smoothness_lab import Config, best_approx, harness, jacobi, k_functional, modulus, space, translation, weighted_norm

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
BATCH = TRACING.with_name("batch.py")


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
    from smoothness_lab import corpus

    cfg = Config(quad_n=8, kdeg=16, deltas=(0.1, 0.4), degrees=(2, 4))
    with _tracing().Tracer() as tracer:
        harness.run_theorem_sweep(cfg)
    metrics = tracer.layer_metrics()
    assert metrics["approx.k_functional.calls"][0] == len(corpus(cfg.seed)) * len(cfg.deltas) * 3
    assert metrics["approx.k_functional.iterations"][0] > 0


def test_every_config_read_of_the_batches_resolves():
    # batch.py reads resolutions off Config(), retired fields included
    names = set(re.findall(r"\bcfg\.(\w+)", BATCH.read_text(encoding="utf-8")))
    assert names
    for name in sorted(names):
        assert hasattr(Config(), name), f"Config().{name}, read by perfbench/batch.py"
    # and those constants are the defaults of the functions it passes them to
    default = lambda fn, arg: inspect.signature(fn).parameters[arg].default
    for fn, arg in ((weighted_norm, "n_nodes"), (modulus, "norm_nodes"), (k_functional, "quad_n"), (best_approx, "grid_n")):
        assert Config.norm_nodes == default(fn, arg), fn.__name__
    assert Config.t_points == default(modulus, "t_points")
