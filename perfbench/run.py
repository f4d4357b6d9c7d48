"""Benchmark of smoothness-lab: the verify, sweep and spaces workloads.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Each workload is a closed loop driven from this one process with one batch
in flight. Batches run back to back, each in a fresh interpreter, for as long
as another batch is expected to end within --seconds; at least one always
runs. With --trace 1 a single batch runs with span wrappers around the
package's entry points, and the per-layer metrics replace the end-to-end
ones. --workload all runs every workload untraced and then traced, and also
reports the tracing overhead.

Metric lines come first. The last line of standard output is one JSON object
{correct, attempted, failed, metrics} holding the metrics BENCHMARK.json
lists. The full result, with the run environment, is written to
.bench_out/<workload>-seed<seed>-trace<trace>.json. The exit code is 1 when a
correctness gate fails and 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

from batch import OUT_DIR

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify", "sweep", "spaces")
# Set-up-only interpreters started per untraced run, half before the batches
# and half after them, on top of one per batch.
SETUP_SAMPLES = 6
# Every run must end within 180 s; batches are cut off before that.
DEADLINE_S = 170.0
# One operation is in flight at a time, and the package's matrices are small:
# on 2 cores a second BLAS thread made `spaces` about 12% slower, used 45% more
# CPU and spread twice as wide over three runs each.
BLAS_THREADS = 1


class BenchError(Exception):
    """A batch could not be run or did not report."""


def environment(seed):
    commit = None
    if Path(".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "git_commit": commit,
    }


def child_env():
    """Environment for batches: src on the path, BLAS_THREADS BLAS threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_batch(args, env, deadline):
    cmd = [sys.executable, str(HERE / "batch.py"), *args]
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{' '.join(args)}: no result within the deadline") from e
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as e:
        raise BenchError(f"{' '.join(args)}: {e}\n{proc.stderr[-2000:]}") from e


def measure(workload, seed, seconds, trace, env):
    """Run one workload; return (metrics {name: (value, unit)}, detail dict)."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]

    def setups(count):
        return [run_batch(base + ["--setup-only"], env, deadline)["setup_s"] for _ in range(0 if trace else count)]

    setup_s = setups(SETUP_SAMPLES // 2)
    batches, start = [], time.monotonic()
    while True:
        began = time.monotonic()
        batch = run_batch(base + ["--trace", str(trace)], env, deadline)
        batch["elapsed_s"] = time.monotonic() - began
        batches.append(batch)
        typical = statistics.median(b["elapsed_s"] for b in batches)
        if trace or not batch["correct"] or time.monotonic() - start + typical > seconds:
            break
    setup_s += setups(SETUP_SAMPLES - SETUP_SAMPLES // 2)

    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    detail = {
        "correct": all(b["correct"] for b in batches),
        "attempted": attempted,
        "failed": failed,
        "batches": len(batches),
        "problems": [p for b in batches for p in b["problems"]],
        "failures": dict(sum((Counter(b["failures"]) for b in batches), Counter())),
    }
    if trace:
        batch = batches[0]
        metrics = {k: tuple(v) for k, v in batch["layers"].items()}
        metrics["trace.wall_s"] = (batch["wall_s"], "s")
        metrics["trace.uncovered_share"] = (batch["uncovered_s"] / batch["wall_s"], "1")
        detail["by_op"] = batch["by_op"]
        return metrics, detail

    metrics = {
        "setup_s": (statistics.median(setup_s + [b["setup_s"] for b in batches]), "s"),
        "wall_s": (statistics.median(b["wall_s"] for b in batches), "s"),
        "peak_rss_mb": (max(b["peak_rss_mb"] for b in batches), "MB"),
        "fail_ratio": (failed / attempted, "1"),
    }
    op_s = [s for b in batches for s in b.get("op_s", ())]
    if op_s:
        metrics["op_p50_ms"] = (statistics.median(op_s) * 1e3, "ms")
        metrics["op_p99_ms"] = (statistics.quantiles(op_s, n=100, method="inclusive")[98] * 1e3, "ms")
        detail["op_count"] = len(op_s)
    return metrics, detail


def report(workload, metrics, detail, env_info, trace):
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    print(f"{workload} operations: {detail['attempted']} attempted, {detail['failed']} failed, "
          f"{detail['batches']} batch(es), correct={detail['correct']}")
    for reason, count in sorted(detail["failures"].items()):
        print(f"{workload}   {count} x {reason}")
    for problem in detail["problems"]:
        print(f"{workload} gate: {problem}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{env_info['seed']}-trace{trace}.json"
    payload = {"workload": workload, "trace": trace, "env": env_info,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, **detail}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def listed_metrics(trace):
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7, help="corpus seed (Config.seed)")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long batches are started for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/smoothness_lab/__init__.py").is_file():
        print("error: src/smoothness_lab not found; run from the repository root", file=sys.stderr)
        return 2
    env = child_env()
    env_info = environment(args.seed)
    print("env " + json.dumps(env_info, sort_keys=True))
    try:
        if args.workload != "all":
            metrics, detail = measure(args.workload, args.seed, args.seconds, args.trace, env)
            report(args.workload, metrics, detail, env_info, args.trace)
            listed = {k: metrics[k] for k in listed_metrics(args.trace)}
            print(result_line(detail["correct"], detail["attempted"], detail["failed"], listed))
            return 0 if detail["correct"] else 1
        combined, correct, attempted, failed = {}, True, 0, 0
        for workload in WORKLOADS:
            metrics, detail = measure(workload, args.seed, args.seconds, 0, env)
            report(workload, metrics, detail, env_info, 0)
            traced, tdetail = measure(workload, args.seed, args.seconds, 1, env)
            report(workload, traced, tdetail, env_info, 1)
            overhead = traced["trace.wall_s"][0] - metrics["wall_s"][0]
            print(f"{workload} trace.overhead_s = {overhead:.6g} s")
            combined.update({f"{workload}.{k}": v for k, v in metrics.items()})
            combined[f"{workload}.trace.overhead_s"] = (overhead, "s")
            combined[f"{workload}.trace.uncovered_share"] = traced["trace.uncovered_share"]
            correct = correct and detail["correct"] and tdetail["correct"]
            attempted += detail["attempted"]
            failed += detail["failed"]
        print(result_line(correct, attempted, failed, combined))
        return 0 if correct else 1
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
