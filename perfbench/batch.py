"""One batch of one workload, in a fresh interpreter.

Run by perfbench/run.py from the repository root with ``src`` on PYTHONPATH.
Every batch starts a new process, so the ``lru_cache``d quadrature rules and
Jacobi polynomials start cold, as they do for every CLI invocation.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

# Ordered check ids of the verify and sweep reports at the default Config().
EXPECTED_CHECKS = {
    "verify": (
        "quadrature-exactness", "quadrature-doubling", "jacobi-orthogonality",
        "jacobi-eigenrelation", "jacobi-normalization", "jacobi-eval-agreement",
        "translation-identity", "translation-constant", "translation-linearity",
        "product-formula", "sym-product-formula", "coefficient-multiplier",
        "self-adjointness", "d-commutation", "integral-representation",
        "translation-norm-bound", "rotation-average-bound", "kernel-pointwise-bound",
        "modulus-monotonicity", "modulus-stability", "l2-optimality",
        "direct-estimate-decay", "jackson-cutoff", "jackson-gamma-scaling",
        "bernstein-markov-bounded", "k-two-candidate", "k-monotonicity",
        "corpus-determinism",
    ),
    "sweep": (
        "modulus-k-equivalence", "modulus-k-damped-window", "modulus-k-stability",
        "modulus-direct-constant", "modulus-inverse-constant", "kink-error-decay",
    ),
}

# The four non-Hilbert spaces of the spaces workload: the midpoint of the
# admissible alpha interval for p = 1, 1.5, 3 and inf.
SPACES = ((1.0, 0.75), (1.5, 11.0 / 12.0), (3.0, 13.0 / 12.0), (math.inf, 1.25))
DEGREES = range(1, 33)
# One slack for every invariant, relative to the weighted norm of f.
SLACK = 1e-9
# Scratch directory for the CLI reports, and for run.py's result files.
OUT_DIR = Path(".bench_out")


def setup(seed):
    """Import the package and build Config() and corpus(seed); return the time taken."""
    start = time.perf_counter()
    import smoothness_lab

    cfg = smoothness_lab.Config(seed=seed)
    entries = smoothness_lab.corpus(seed)
    return time.perf_counter() - start, cfg, entries


def run_cli(command, seed):
    """`smoothness-lab <command> --seed <seed> --out <file>` through cli.main."""
    from smoothness_lab import cli

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{command}-{os.getpid()}.json"
    start = time.perf_counter()
    code = cli.main([command, "--seed", str(seed), "--out", str(path)])
    wall = time.perf_counter() - start

    expected = EXPECTED_CHECKS[command]
    problems = [] if code == 0 else [f"exit code {code}"]
    try:
        checks = json.loads(path.read_text(encoding="utf-8"))["checks"]
        path.unlink()
    except (OSError, ValueError, KeyError) as e:
        problems.append(f"no readable report: {e}")
        checks = []
    ids = [c["check_id"] for c in checks]
    if ids != list(expected):
        problems.append(f"check ids differ from the expected {len(expected)}: {ids}")
    failures = Counter(f"{c['check_id']}: {c['status']}" for c in checks if c["status"] != "pass")
    failures.update(f"{cid}: missing" for cid in expected if cid not in ids)
    failed = sum(failures.values())
    return {
        "wall_s": wall,
        "attempted": len(expected),
        "failed": failed,
        "correct": not problems and failed == 0,
        "problems": problems,
        "failures": dict(failures),
    }


def run_spaces(cfg, entries, tracer):
    """best_approx for n = 1..32, k_functional and modulus over cfg.deltas, per space and entry.

    An operation fails when it raises, returns a non-finite or negative value,
    or breaks an invariant: E_n <= ||f||, E_n not increasing in n, K and the
    modulus not decreasing in delta. Failures are counted, never hidden; the
    run is incorrect only if an operation raises an exception that is not a
    package error.
    """
    from smoothness_lab import SmoothnessLabError, SpaceParams, best_approx, k_functional, modulus, weighted_norm

    op_s, failures, problems = [], Counter(), []

    def run_op(fn):
        if tracer is not None:
            tracer.op = len(op_s)
        start = time.perf_counter()
        try:
            value, reason = float(fn()), None
        except SmoothnessLabError as e:
            value, reason = None, f"{type(e).__name__}: {e}"
        except Exception as e:  # noqa: BLE001 - count the operation and keep the batch running
            value, reason = None, f"{type(e).__name__}: {e}"
            problems.append(f"unexpected {reason}")
        op_s.append(time.perf_counter() - start)
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            value, reason = None, "non-finite or negative value"
        return value, reason

    def series(label, values, bad):
        """Run values() in order; bad(value, previous) names a broken invariant."""
        prev = None
        for fn in values:
            value, reason = run_op(fn)
            if value is not None:
                reason = bad(value, prev)
                prev = value
            if reason is not None:
                failures[f"{label}: {reason}"] += 1

    start = time.perf_counter()
    for p, alpha in SPACES:
        params = SpaceParams(p, alpha)
        for e in entries:
            h = e.handle
            norm = weighted_norm(h, params, cfg.norm_nodes)
            slack = SLACK * norm

            def e_bad(v, prev):
                if v > norm + slack:
                    return "E_n > ||f||"
                if prev is not None and v > prev + slack:
                    return "E_n increased with n"
                return None

            def grows(name):
                return lambda v, prev: f"{name} decreased with delta" if prev is not None and v < prev - slack else None

            tag = f"p={p:g}"
            series(f"{tag} best_approx", [lambda n=n: best_approx(h, n, params, cfg.approx_grid).value for n in DEGREES], e_bad)
            series(f"{tag} k_functional",
                   [lambda d=d: k_functional(h, d, params, cfg.kdeg, cfg.norm_nodes).value for d in cfg.deltas],
                   grows("K"))
            series(f"{tag} modulus",
                   [lambda d=d: modulus(h, d, params, cfg.t_points, cfg.quad_n, cfg.norm_nodes) for d in cfg.deltas],
                   grows("modulus"))
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "attempted": len(op_s),
        "failed": sum(failures.values()),
        "correct": not problems,
        "problems": problems,
        "failures": dict(failures),
        "op_s": op_s,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("verify", "sweep", "spaces"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="measure set-up and exit")
    args = parser.parse_args(argv)

    setup_s, cfg, entries = setup(args.seed)
    result = {"setup_s": setup_s}
    if not args.setup_only:
        if args.trace:
            from tracing import Tracer

            context = Tracer()
        else:
            context = contextlib.nullcontext()
        with context as tracer:
            if args.workload == "spaces" and tracer is not None:
                # A handle binds PolynomialRep.__call__ when corpus() builds it, so
                # the traced batch builds its entries again under the wrappers.
                import smoothness_lab

                entries = smoothness_lab.corpus(args.seed)
            outside_s = 0.0 if tracer is None else tracer.root_s
            if args.workload == "spaces":
                result.update(run_spaces(cfg, entries, tracer))
            else:
                result.update(run_cli(args.workload, args.seed))
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            result["uncovered_s"] = result["wall_s"] - (tracer.root_s - outside_s)
            result["by_op"] = {str(op): dict(names) for op, names in tracer.by_op.items()}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
