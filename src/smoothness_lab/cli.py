"""Command-line entry points: verify, sweep, and value tables."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .approx import best_approx
from .errors import InvalidArgumentError, SmoothnessLabError
from .harness import SCHEMA_VERSION, Config, _emit, _space, corpus, emit_report, run_lemma_suite, run_theorem_sweep
from .translation import modulus, multiplier_psi

_FIELD_TYPES = {f.name: f.type for f in fields(Config)}
# Keys of retired Config fields that older config files still set, ignored
# with a warning (the README names what each one set).
_RETIRED_KEYS = ("jackson_quad", "jackson_t_nodes", "pair_nodes", "pair_quad", "coeff_nodes", "coeff_quad", "tol_scale",
                 "norm_nodes", "t_points", "approx_grid")


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in ("deltas",):
            return tuple(float(s) for s in raw.split(",") if s.strip())
        if key in ("degrees",):
            return tuple(int(s) for s in raw.split(",") if s.strip())
        if key in ("p", "alpha"):
            return float(raw)
        return int(raw)
    except ValueError as e:
        raise InvalidArgumentError(f"bad value for {key}: {e}") from e


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise InvalidArgumentError(f"cannot read config file {path!r}: {e}") from e
    out = {}
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise InvalidArgumentError(f"{path}:{lineno}: expected key=value, got {body!r}")
        key, raw = (s.strip() for s in body.split("=", 1))
        if key in _RETIRED_KEYS:
            print(f"warning: {path}:{lineno}: config key {key!r} no longer has an effect; ignored", file=sys.stderr)
            continue
        if key not in _FIELD_TYPES:
            raise InvalidArgumentError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _parse_value(key, raw)
        except InvalidArgumentError as e:
            raise InvalidArgumentError(f"{path}:{lineno}: {e}") from e
    return out


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=float, default=None, help="norm exponent (accepts inf)")
    sub.add_argument("--alpha", type=float, default=None, help="weight exponent")
    sub.add_argument("--quad-nodes", type=int, default=None, dest="quad_n", help="inner quadrature nodes")
    sub.add_argument("--seed", type=int, default=None, help="corpus seed")
    sub.add_argument("--out", default=None, help="report path (default stdout)")
    sub.add_argument("--format", default="json", choices=("json", "csv"), help="report format")
    sub.add_argument("--config", default=None, help="key=value config file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smoothness-lab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    verify = subs.add_parser("verify", help="run the full invariant suite")
    _add_common(verify)
    sweep = subs.add_parser("sweep", help="run the equivalence and estimate ratio sweeps")
    _add_common(sweep)
    sweep.add_argument("--deltas", default=None, help="comma-separated delta grid")
    sweep.add_argument("--degrees", default=None, help="comma-separated degree grid")
    sweep.add_argument("--kdeg", type=int, default=None, help="witness polynomial degree")
    table = subs.add_parser("table", help="emit raw value tables for plotting")
    _add_common(table)
    table.add_argument("--op", required=True, choices=("psi", "modulus", "bestapprox"))
    return parser


def _merge_config(args) -> Config:
    over = {}
    if args.config is not None:
        over.update(_load_config_file(args.config))
    for key in ("p", "alpha", "quad_n", "seed", "kdeg"):
        val = getattr(args, key, None)
        if val is not None:
            over[key] = val
    for key in ("deltas", "degrees"):
        raw = getattr(args, key, None)
        if raw is not None:
            over[key] = _parse_value(key, raw)
    try:
        return replace(Config(), **over)
    except TypeError as e:
        raise InvalidArgumentError(f"bad configuration: {e}") from e


def _run_table(cfg: Config, op: str, fmt: str, path) -> str:
    if op == "psi":
        ys = (-0.9, -0.5, 0.0, 0.5, 0.9, 1.0)
        rows = [{"n": n, "y": y, "psi": multiplier_psi(n, y)} for n in range(7) for y in ys]
    elif op == "modulus":
        params = _space(cfg)
        rows = [
            {"label": e.label, "delta": float(d), "modulus": om}
            for e in corpus(cfg.seed)
            for d, om in zip(cfg.deltas, modulus(e.handle, cfg.deltas, params, quad_n=cfg.quad_n))
        ]
    else:
        params = _space(cfg)
        rows = []
        for e in corpus(cfg.seed):
            for n in cfg.degrees:
                res = best_approx(e.handle, n, params, cfg.approx_grid)
                rows.append({"label": e.label, "n": int(n), "value": res.value, "method": res.method})
    cols = sorted({k for row in rows for k in row})
    payload = {"schema_version": SCHEMA_VERSION, "table": op, "rows": rows}
    return _emit(payload, cols, [[row.get(c) for c in cols] for row in rows], fmt, path)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        cfg = _merge_config(args)
        if args.command == "table":
            text, code = _run_table(cfg, args.op, args.format, args.out), 0
        else:
            reports = run_lemma_suite(cfg) if args.command == "verify" else run_theorem_sweep(cfg)
            text = emit_report(reports, args.format, args.out, config=cfg)
            code = 1 if any(r.status == "fail" for r in reports) else 0
        if args.out is None:
            sys.stdout.write(text)
        return code
    except InvalidArgumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SmoothnessLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
