"""Command-line surface: run | check | sweep | ablate.

Exit codes: 0 on success (for check: all reports passed), 1 on runtime
failure (structured error on stderr), 2 on usage or configuration errors.
stdout carries only machine-readable output (newline-delimited CheckReport
JSON for check); progress notes go to stderr. Output files are written
atomically (temp file + rename). The NOISESTAB_OUT_ROOT environment variable
re-roots relative output directories.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, nn, theory
from .config import config_hash, load_experiment_config, resolved_dict
from .exceptions import ConfigError, NoiseStabError
from .loop import aggregate_runs, run_active_learning
from .selection import METHODS

SUITES = ("second_moment", "jacobian", "distance", "inner", "concentration",
          "efficiency", "all")

CURVE_HEADER = "cycle,labeled_size,strategy,metric_mean,metric_std,n_seeds"


def _out_dir(arg, default_name):
    root = Path(os.environ.get("NOISESTAB_OUT_ROOT", "."))
    path = Path(arg) if arg else Path(default_name)
    if not path.is_absolute():
        path = root / path
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_atomic(path: Path, text: str):
    fd, tmp = tempfile.mkstemp(dir=str(path.parent))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(out_dir: Path, cfg, started_at, finished_at=None):
    doc = {
        "tool_version": __version__,
        "config_sha256": config_hash(cfg),
        "config": resolved_dict(cfg),
        "out_dir": str(out_dir),
        "started_at": started_at,
        "finished_at": finished_at,
    }
    _write_atomic(out_dir / "manifest.json", json.dumps(doc, indent=2) + "\n")


def _timestamp():
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def _apply_overrides(cfg, args):
    if getattr(args, "seeds", None):
        cfg = replace(cfg, seeds=[int(s) for s in args.seeds.split(",")])
    if getattr(args, "strategy", None):
        cfg = replace(cfg, strategy=args.strategy)
    return cfg


def _execute_run(cfg, out_dir: Path, strategy_label=None):
    """Run every seed, then write reports.jsonl and curve.csv atomically."""
    _write_manifest(out_dir, cfg, _timestamp())
    per_seed = run_active_learning(cfg)
    lines = [json.dumps(report.to_record())
             for reports in per_seed for report in reports]
    _write_atomic(out_dir / "reports.jsonl", "\n".join(lines) + "\n")
    label = strategy_label or cfg.strategy
    rows = aggregate_runs(per_seed)
    csv_lines = [CURVE_HEADER]
    csv_lines += [f"{r['cycle']},{r['labeled_size']},{label},"
                  f"{r['metric_mean']!r},{r['metric_std']!r},{r['n_seeds']}"
                  for r in rows]
    _write_atomic(out_dir / "curve.csv", "\n".join(csv_lines) + "\n")
    _write_manifest(out_dir, cfg, _timestamp(), _timestamp())
    return rows


def cmd_run(args) -> int:
    cfg = _apply_overrides(load_experiment_config(args.config), args)
    out_dir = _out_dir(args.out, Path(args.config).stem + "-run")
    rows = _execute_run(cfg, out_dir)
    print(f"wrote {out_dir}/reports.jsonl and curve.csv "
          f"({len(rows)} cycles x {len(cfg.seeds)} seeds)", file=sys.stderr)
    return 0


def _check_models(seed):
    """Small deterministic models used by the default check suites."""
    linear = nn.MlpModel([nn.Linear(np.array([[0.6, -0.8, 0.3, 0.5]]))], 1)
    mlp = nn.build_mlp(2, [8], 3, task="classification", seed=seed)
    scalar = nn.build_mlp(3, [8], 1, task="regression", seed=seed + 1,
                          feature_tap=None)
    scalar.feature_tap = len(scalar.layers)  # scalar tap over the whole stack
    return linear, mlp, scalar


# Monte Carlo sizes: at K=12000 every embedding check's threshold sits at
# least 4 standard deviations of its statistic away, and 50000 concentration
# trials put the standard error far below the gap to the 0.05 threshold.
CHECK_SAMPLINGS = 12000
CONCENTRATION_TRIALS = 50000


def run_check_suite(suite, seed):
    linear, mlp, scalar = _check_models(seed)
    x_lin = np.array([0.9, -0.4, 0.2, 0.7])
    x_a = np.array([0.4, -1.1, 0.6])
    x_b = np.array([-0.8, 0.3, 1.2])
    reports = []
    if suite in ("second_moment", "all"):
        reports.append(theory.check_second_moment(10, 100000, seed))
        reports.append(theory.check_second_moment_trace(10, 137, seed))
    if suite in ("jacobian", "all"):
        reports.append(theory.check_jacobian_norm(linear, x_lin, CHECK_SAMPLINGS,
                                                  seed))
        reports.append(theory.check_jacobian_norm(
            mlp, np.array([0.5, -1.0]), CHECK_SAMPLINGS, seed,
            tap=nn.TAP_PREDICTIVE))
    if suite in ("distance", "all"):
        reports.append(theory.check_distance_equivalence(scalar, x_a, x_b,
                                                         CHECK_SAMPLINGS, seed))
    if suite in ("inner", "all"):
        reports.append(theory.check_inner_product_equivalence(
            scalar, x_a, x_b, CHECK_SAMPLINGS, seed))
    if suite in ("concentration", "all"):
        for kind in theory.CONCENTRATION_KINDS:
            reports.append(theory.concentration_trial(kind, 200, 64, 0.5,
                                                      CONCENTRATION_TRIALS, seed))
            reports.append(theory.concentration_monotonicity(
                kind, 200, [4, 8, 16, 32], 0.25, 400,
                [seed + i for i in range(10)]))
    if suite in ("efficiency", "all"):
        reports.append(theory.efficiency_report(
            200, [32, 64, 128, 256, 512, 1024], 0.5, seed))
    return reports


def cmd_check(args) -> int:
    reports = run_check_suite(args.suite, args.seed)
    for report in reports:
        print(report.to_json())
    return 0 if all(r.passed for r in reports) else 1


def _parse_sweep_values(param, raw):
    values = [v for v in (s.strip() for s in raw.split(",")) if v]
    if not values:
        raise ConfigError("sweep needs a non-empty values list")
    if param == "zeta":
        try:
            return [float(v) for v in values]
        except ValueError as exc:
            raise ConfigError(f"non-numeric zeta value: {exc}") from None
    if param == "K":
        try:
            return [int(v) for v in values]
        except ValueError:
            raise ConfigError(f"non-numeric K value in {values}") from None
    for v in values:
        if v not in METHODS:
            raise ConfigError(f"unknown selector {v!r}; valid: {METHODS}")
    return values


def _sweep_variant(cfg, param, value):
    if param == "zeta":
        return replace(cfg, noise=replace(cfg.noise, zeta=value))
    if param == "K":
        return replace(cfg, noise=replace(cfg.noise, samplings=value))
    return replace(cfg, selector=value)


def cmd_sweep(args) -> int:
    cfg = _apply_overrides(load_experiment_config(args.config), args)
    if not cfg.strategy.startswith("noise_stability"):
        raise ConfigError(f"sweep parameter {args.param!r} applies to "
                          "noise-stability strategies only")
    values = _parse_sweep_values(args.param, args.values)
    out_dir = _out_dir(args.out, Path(args.config).stem + "-sweep")
    merged = [f"param,value,{CURVE_HEADER}"]
    for value in values:
        sub = _sweep_variant(cfg, args.param, value)
        sub_dir = out_dir / f"{args.param}={value}"
        sub_dir.mkdir(parents=True, exist_ok=True)
        rows = _execute_run(sub, sub_dir)
        merged += [f"{args.param},{value},{r['cycle']},{r['labeled_size']},"
                   f"{cfg.strategy},{r['metric_mean']!r},{r['metric_std']!r},"
                   f"{r['n_seeds']}" for r in rows]
        print(f"sweep arm {args.param}={value} done", file=sys.stderr)
    _write_atomic(out_dir / "sweep.csv", "\n".join(merged) + "\n")
    print(f"wrote {out_dir}/sweep.csv", file=sys.stderr)
    return 0


ABLATION_STRATEGIES = ("noise_stability", "noise_stability_m", "noise_stability_d")


def cmd_ablate(args) -> int:
    cfg = _apply_overrides(load_experiment_config(args.config), args)
    out_dir = _out_dir(args.out, Path(args.config).stem + "-ablate")
    per_strategy = {}
    for strategy in ABLATION_STRATEGIES:
        sub = replace(cfg, strategy=strategy)
        sub_dir = out_dir / strategy
        sub_dir.mkdir(parents=True, exist_ok=True)
        per_strategy[strategy] = _execute_run(sub, sub_dir)
        print(f"ablation arm {strategy} done", file=sys.stderr)
    lines = ["cycle,labeled_size," + ",".join(ABLATION_STRATEGIES)]
    for i, row in enumerate(per_strategy[ABLATION_STRATEGIES[0]]):
        means = ",".join(repr(per_strategy[s][i]["metric_mean"])
                         for s in ABLATION_STRATEGIES)
        lines.append(f"{row['cycle']},{row['labeled_size']},{means}")
    _write_atomic(out_dir / "ablation.csv", "\n".join(lines) + "\n")

    if args.single_sample:
        # budget-1 uncertainty-only comparison: 50 noise samplings vs 50
        # Monte Carlo dropout samplings
        arms = {}
        for strategy in ("noise_stability", "bald_mcdropout"):
            sub = replace(cfg, strategy=strategy, budget=1,
                          noise=replace(cfg.noise, samplings=50),
                          bald_samples=50)
            sub_dir = out_dir / f"single_sample_{strategy}"
            sub_dir.mkdir(parents=True, exist_ok=True)
            arms[strategy] = _execute_run(sub, sub_dir)
            print(f"single-sample arm {strategy} done", file=sys.stderr)
        lines = ["cycle,labeled_size,noise_stability,bald_mcdropout"]
        for i, row in enumerate(arms["noise_stability"]):
            lines.append(f"{row['cycle']},{row['labeled_size']},"
                         f"{row['metric_mean']!r},"
                         f"{arms['bald_mcdropout'][i]['metric_mean']!r}")
        _write_atomic(out_dir / "single_sample.csv", "\n".join(lines) + "\n")
    print(f"wrote {out_dir}/ablation.csv", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisestab",
        description="Noise-stability active learning: experiments, theory "
                    "checks, sweeps, and ablations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--seeds", default=None, help="comma-separated seed override")
    run_p.add_argument("--strategy", default=None, help="strategy override")
    run_p.set_defaults(func=cmd_run)

    check_p = sub.add_parser("check", help="run theory verification suites")
    check_p.add_argument("--suite", default="all", choices=SUITES)
    check_p.add_argument("--seed", type=int, default=0)
    check_p.set_defaults(func=cmd_check)

    sweep_p = sub.add_parser("sweep", help="re-run a config over a parameter grid")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--param", required=True, choices=("zeta", "K", "selector"))
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values for the swept parameter")
    sweep_p.add_argument("--out", default=None)
    sweep_p.add_argument("--seeds", default=None)
    sweep_p.set_defaults(func=cmd_sweep)

    ablate_p = sub.add_parser("ablate", help="magnitude/direction ablation runs")
    ablate_p.add_argument("config")
    ablate_p.add_argument("--out", default=None)
    ablate_p.add_argument("--seeds", default=None)
    ablate_p.add_argument("--single-sample", action="store_true",
                          help="also run the budget-1 comparison against "
                               "MC-dropout BALD (needs a dropout model)")
    ablate_p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoiseStabError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())
