"""Command-line surface: run | estimate | verify | sweep.

Exit codes: 0 success, 1 verification failure, 2 config error (any library
error other than divergence), 3 numerical divergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import (apply_overrides, config_from_dict, load_doc,
                     parse_set_args, sweep)
from .drivers import ESTIMATOR_AGGITD, build_problem, resolve_params, run
from .errors import ConfigError, DivergenceError, FedBilevelError
from .hypergrad import AggITDConfig, aggitd
from .lower import LowerStepConfig
from .reporting import export_csv, render_svg
from .rng import RngStream
from .runtime import CommLedger, Participation, select_participants
from .verify import run_verification


def _doc_and_overrides(args) -> tuple[dict, dict]:
    return load_doc(args.config) if args.config else {}, parse_set_args(args.set)


def _out_dir(cfg, args) -> str:
    out = args.out_dir or cfg.out_dir or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_run(args) -> int:
    cfg = config_from_dict(apply_overrides(*_doc_and_overrides(args)))
    report = run(cfg)
    out = _out_dir(cfg, args)
    csv_path = os.path.join(out, f"{report.label}_metrics.csv")
    export_csv(report, csv_path)
    svg_path = os.path.join(out, f"{report.label}_grad_norm.svg")
    render_svg([report], "rounds_cum", "grad_norm_sq", svg_path, log_y=True)
    last = report.rows[-1]
    print(f"{report.label}: K={last.k} rounds={report.rounds_total} "
          f"grad_norm_sq={last.grad_norm_sq:.3e} -> {csv_path}")
    return 0


def cmd_estimate(args) -> int:
    cfg = config_from_dict(apply_overrides(*_doc_and_overrides(args)))
    if cfg.estimator != ESTIMATOR_AGGITD:
        raise ConfigError(f"estimate runs estimator 'aggitd' only, got {cfg.estimator!r}")
    problem = build_problem(cfg)
    N, _, lam, _, beta = resolve_params(cfg, problem.constants)
    acfg = AggITDConfig(lam=lam, N=N,
                        lower=LowerStepConfig(beta=beta, tau=cfg.tau, variant=cfg.variant))
    root = RngStream(cfg.seed)
    parts = select_participants(Participation(cfg.participation), problem.m,
                                root.child("part", 0))
    ledger = CommLedger()
    x, y = problem.initial_point()
    h, _, trace = aggitd(problem, x, y, acfg, parts, root.child("est", 0), ledger)
    if not np.isfinite(h).all():
        raise DivergenceError(f"the estimate is not finite: ||h||={np.linalg.norm(h):.3e}")
    out = _out_dir(cfg, args)
    trace_path = os.path.join(out, "estimate_trace.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(trace.to_json_dict(), fh, indent=2)
    err = np.linalg.norm(h - problem.hypergradient(x, problem.y_star(x, y)))
    print(f"||h||={np.linalg.norm(h):.6e} Q={trace.Q} rounds={ledger.rounds_total} "
          f"est_err={err:.6e} -> {trace_path}")
    return 0


def cmd_verify(args) -> int:
    results = run_verification(seed=args.seed)
    failed = 0
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def cmd_sweep(args) -> int:
    doc, overrides = _doc_and_overrides(args)
    try:
        grid = json.loads(args.grid)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed grid: {exc.msg}") from exc
    if not isinstance(grid, dict):
        raise ConfigError("grid must be a JSON object")
    base_cfg = config_from_dict(apply_overrides(doc, overrides))
    out = args.out_dir or base_cfg.out_dir or "sweep_out"
    index = sweep(doc, grid, out, overrides)
    print(f"swept {len(index)} cells -> {os.path.join(out, 'index.json')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedbilevel",
        description="Federated bilevel optimization simulator (fused-estimator driver, "
                    "baselines, round accounting, verification oracles).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--out-dir", help="output directory")

    p_run = sub.add_parser("run", help="full optimization run; writes CSV metrics and an SVG")
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_est = sub.add_parser("estimate", help="single hypergradient estimate with trace dump")
    common(p_est)
    p_est.set_defaults(fn=cmd_estimate)

    p_ver = sub.add_parser("verify", help="run the oracle self-check battery")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(fn=cmd_verify)

    p_sw = sub.add_parser("sweep", help="Cartesian sweep over config overrides")
    common(p_sw)
    p_sw.add_argument("--grid", required=True, help='JSON object, e.g. {"tau": [1, 5]}')
    p_sw.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 3
    except FedBilevelError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
