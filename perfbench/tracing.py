"""Span tracing around the public entry points of smoothness_lab, from outside.

Nothing in the package changes. Each target function is replaced by a timing
wrapper in every ``smoothness_lab`` module namespace that holds it, so calls
made through names bound by ``from .translation import _asym_core`` (in
``harness``), ``from .translation import _sym_core`` (in ``approx``) or
``from .approx import best_approx`` (in ``cli``) are counted as well as calls
through the defining module.

A span's self time is its duration minus the time covered by its child spans.
Spans are aggregated in memory per name and per operation id (the check or
call in flight), and written out once the workload ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


def _kernel_points(args):
    """len(xs) * quad_n kernel evaluations of a translation core."""
    return np.size(args.arguments["xs"]) * int(args.arguments["quad_n"])


def _norm_points(args):
    """Norm nodes requested from weighted_norm."""
    return int(args.arguments["n_nodes"])


# (module, attribute, span name, point count from the bound arguments)
_FUNCTIONS = (
    ("translation", "_asym_core", "translation.asym_core", _kernel_points),
    ("translation", "_sym_core", "translation.sym_core", _kernel_points),
    ("translation", "abs_rotation_average", "translation.abs_rotation_average", None),
    ("translation", "multiplier_psi", "translation.multiplier_psi", None),
    ("translation", "modulus", "translation.modulus", None),
    ("approx", "best_approx", "approx.best_approx", None),
    ("approx", "k_functional", "approx.k_functional", None),
    ("approx", "jackson_operator", "approx.jackson_operator", None),
    ("jacobi", "jacobi_poly", "jacobi.jacobi_poly", None),
    ("jacobi", "jacobi_matrix", "jacobi.jacobi_matrix", None),
    ("jacobi", "expand_in_jacobi", "jacobi.expand_in_jacobi", None),
    ("jacobi", "fourier_jacobi_coeff", "jacobi.fourier_jacobi_coeff", None),
    ("jacobi", "apply_D_poly", "jacobi.apply_D_poly", None),
    ("space", "weighted_norm", "space.weighted_norm", _norm_points),
    ("quadrature", "gauss_legendre", "quadrature.gauss_legendre", None),
    ("quadrature", "gauss_chebyshev", "quadrature.gauss_chebyshev", None),
    ("quadrature", "gauss_jacobi", "quadrature.gauss_jacobi", None),
    ("harness", "run_lemma_suite", "harness.suite", None),
    ("harness", "run_theorem_sweep", "harness.suite", None),
    ("harness", "emit_report", "harness.emit_report", None),
    ("cli", "main", "cli", None),
)

# Solver iterations, read from each result.
_ITERATIONS = {
    "approx.best_approx": lambda res: res.diagnostics.get("iterations", 0),
    "approx.k_functional": lambda res: res.iterations,
}


def _size_of_first(args, kwargs):
    return np.size(args[0])


class Tracer:
    """Collects spans from wrappers installed into the smoothness_lab modules.

    Entering the context installs the wrappers; leaving it restores every
    original binding. Assign ``op`` to attribute the spans that follow to
    one operation.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.check_s = {}
        self.by_op = defaultdict(lambda: defaultdict(float))
        self.op = "prelude"
        self.root_s = 0.0
        self._stack = []
        self._patches = []
        self._cache_misses = {}

    def _enter(self):
        frame = [time.perf_counter(), 0.0]  # start, time covered by child spans
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame):
        dur = time.perf_counter() - frame[0]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dur
        else:
            self.root_s += dur
        st = self.stats[name]
        st["calls"] += 1
        st["incl_s"] += dur
        st["self_s"] += dur - frame[1]
        self.by_op[self.op][name] += dur - frame[1]
        return st, dur

    def _declare(self, name, *keys):
        """Start the stats of span name at zero, so every run reports them."""
        st = self.stats[name]
        for key in ("calls", "incl_s", "self_s", *keys):
            st[key] += 0

    def wrap(self, name, fn, points=None):
        """Return fn wrapped in a span named name.

        points(args, kwargs) adds to the span's point count. A call that
        raises adds one to the span's failed count.
        """
        iterations = _ITERATIONS.get(name)
        self._declare(name, "failed", *(["points"] if points else []), *(["iterations"] if iterations else []))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                st, _ = self._exit(name, frame)
                if points is not None:
                    st["points"] += points(args, kwargs)
                if not ok:
                    st["failed"] += 1
                elif iterations is not None:
                    st["iterations"] += iterations(result)

        return wrapper

    def _rebind(self, original, replacement):
        """Replace original in every smoothness_lab namespace that binds it."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "smoothness_lab" or modname.startswith("smoothness_lab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def __enter__(self):
        from smoothness_lab import cli, harness, jacobi  # noqa: F401 - loads every submodule

        for modname, attr, name, count in _FUNCTIONS:
            original = getattr(sys.modules[f"smoothness_lab.{modname}"], attr)
            if hasattr(original, "cache_info"):
                self._cache_misses[name] = (original, original.cache_info().misses)
            points = None
            if count is not None:
                sig = inspect.signature(original)

                def points(args, kwargs, sig=sig, count=count):
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    return count(bound)

            self._rebind(original, self.wrap(name, original, points))

        run_check = harness._run
        self._declare("harness.check")

        def traced_run(check_id, tolerance, fn):
            self.op = check_id
            frame = self._enter()
            try:
                return run_check(check_id, tolerance, fn)
            finally:
                _, dur = self._exit("harness.check", frame)
                self.check_s[check_id] = self.check_s.get(check_id, 0.0) + dur
                self.op = "prelude"

        self._rebind(run_check, traced_run)

        poly_call = jacobi.PolynomialRep.__call__
        self._patches.append((jacobi.PolynomialRep, "__call__", poly_call))
        jacobi.PolynomialRep.__call__ = self.wrap("jacobi.poly_eval", poly_call, lambda a, k: np.size(a[1]))

        make_corpus = harness.corpus

        @functools.wraps(make_corpus)
        def traced_corpus(*args, **kwargs):
            """corpus() whose handles count evaluations of f through their eval."""
            entries = make_corpus(*args, **kwargs)
            for e in entries:
                e.handle.eval = self.wrap("f", e.handle.eval, _size_of_first)
            return entries

        self._rebind(make_corpus, traced_corpus)
        return self

    def __exit__(self, *exc):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()
        return False

    def layer_metrics(self):
        """Flat {metric: (value, unit)}: per span and stat, per module and per check."""
        out = {}
        for name, st in self.stats.items():
            for key, value in st.items():
                out[f"{name}.{key}"] = (value, "s") if key.endswith("_s") else (int(value), "count")
        for name, (original, misses) in self._cache_misses.items():
            out[f"{name}.builds"] = (original.cache_info().misses - misses, "count")
        for module in dict.fromkeys(n.split(".")[0] for n in self.stats if "." in n):
            total = sum(st["self_s"] for n, st in self.stats.items() if n.startswith(module + "."))
            out[f"{module}.self_s"] = (total, "s")
        for check_id, secs in self.check_s.items():
            out[f"harness.check_s.{check_id}"] = (secs, "s")
        return out
