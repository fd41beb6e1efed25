"""Command-line surface: run | check | sweep.

Exit codes: 0 on success (for check: all reports passed), 1 on runtime
failure (structured error on stderr), 2 on usage or configuration errors.
stdout carries only machine-readable output (newline-delimited CheckReport
JSON for check); progress notes go to stderr. Output files are written
atomically (temp file + rename). The NOISESTAB_OUT_ROOT environment variable
re-roots relative output directories.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, nn, theory
from .config import config_hash, load_experiment_config, resolved_dict
from .exceptions import ConfigError, NoiseStabError
from .loop import aggregate_runs, check_initial_pool, run_active_learning

SUITES = ("second_moment", "jacobian", "distance", "inner", "concentration",
          "efficiency", "all")

CURVE_HEADER = "cycle,labeled_size,strategy,metric_mean,metric_std,n_seeds"


def _make_dir(path: Path):
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file of that name, or one on the way there
        raise ConfigError(f"cannot make output directory {path}: "
                          f"{exc.strerror}") from None
    return path


def _write_atomic(path: Path, lines):
    """Write ``lines``, each ended by a newline, to ``path`` atomically.

    The temporary file is created with mode 0o666, so the file gets what
    ``open`` would give it: that mode less the umask.
    """
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@functools.lru_cache(maxsize=None)
def _environment():
    """The numeric stack a run's bits come from: the numpy version, the SIMD
    extensions of its build (None before numpy 1.26, whose show_config has no
    mode), and the core its bundled OpenBLAS dispatched to (None where that
    library or its corename symbol is missing). Probed once per process."""
    import ctypes  # not at module level: importing the CLI stays cheap

    core = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        core = corename().decode()
        break
    try:
        simd = np.show_config(mode="dicts").get("SIMD Extensions")
    except TypeError:
        simd = None
    return {"numpy_version": np.__version__, "simd_extensions": simd,
            "openblas_core": core}


def _write_manifest(out_dir: Path, cfg, started_at, finished_at=None):
    doc = {
        "tool_version": __version__,
        "config_sha256": config_hash(cfg),
        "config": resolved_dict(cfg),
        "environment": _environment(),
        "out_dir": str(out_dir),
        "started_at": started_at,
        "finished_at": finished_at,
    }
    _write_atomic(out_dir / "manifest.json", [json.dumps(doc, indent=2)])


def _timestamp():
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def _apply_overrides(cfg, args):
    if getattr(args, "seeds", None) is not None:
        try:
            seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            raise ConfigError("--seeds must be comma-separated integers, "
                              f"got {args.seeds!r}") from None
        cfg = replace(cfg, seeds=seeds)
    if getattr(args, "strategy", None) is not None:
        cfg = replace(cfg, strategy=args.strategy)
    return cfg


def _run_arms(args, arms):
    """Run each ``(subdirectory, cfg)`` arm, built and so checked by the
    caller: manifest.json, reports.jsonl and curve.csv, labelled with the
    arm's strategy, go to that subdirectory of the command's output
    directory. Every arm's directory is made once the arms' shared dataset
    has passed its check, before the first arm runs. Returns the output
    directory and each arm's curve.csv data lines."""
    if args.out == "":
        raise ConfigError("--out must name a directory, got ''")
    check_initial_pool(arms[0][1])
    # an absolute --out, joined to the root, replaces it
    out_dir = Path(os.environ.get("NOISESTAB_OUT_ROOT", ".")) / (
        args.out or f"{Path(args.config).stem}-{args.command}")
    arm_dirs = [_make_dir(out_dir / sub) for sub, _ in arms]
    arm_lines = []
    for arm_dir, (_, cfg) in zip(arm_dirs, arms):
        started_at = _timestamp()
        _write_manifest(arm_dir, cfg, started_at)
        per_seed = run_active_learning(cfg)
        _write_atomic(arm_dir / "reports.jsonl", [
            json.dumps(report.to_record()) for reports in per_seed for report in reports])
        lines = [f"{r['cycle']},{r['labeled_size']},{cfg.strategy},"
                 f"{r['metric_mean']!r},{r['metric_std']!r},{r['n_seeds']}"
                 for r in aggregate_runs(per_seed)]
        _write_atomic(arm_dir / "curve.csv", [CURVE_HEADER] + lines)
        _write_manifest(arm_dir, cfg, started_at, _timestamp())
        print(f"wrote {arm_dir}/reports.jsonl and curve.csv "
              f"({len(lines)} cycles x {len(cfg.seeds)} seeds)", file=sys.stderr)
        arm_lines.append(lines)
    return out_dir, arm_lines


def cmd_run(args) -> int:
    cfg = _apply_overrides(load_experiment_config(args.config), args)
    _run_arms(args, [("", cfg)])
    return 0


def _check_models(seed):
    """Small deterministic models used by the default check suites."""
    linear = nn.MlpModel([nn.Linear(np.array([[0.6, -0.8, 0.3, 0.5]]))], 1)
    mlp = nn.build_mlp(2, [8], 3, task="classification", seed=seed)
    # one output, read at the predictive tap: the whole Linear/ReLU/Linear stack
    scalar = nn.build_mlp(3, [8], 1, task="regression", seed=seed + 1)
    return linear, mlp, scalar


# Monte Carlo sizes: at K=12000 every embedding check's threshold sits at
# least 4 standard deviations of its statistic away, and 50000 concentration
# trials put the standard error far below the gap to the 0.05 threshold.
CHECK_SAMPLINGS = 12000
CONCENTRATION_TRIALS = 50000


def _check_seed(text):
    """``--seed`` as an integer in [0, 2**64), the range of run seeds;
    ``seeding`` takes a seed as it is, never modulo 2**64."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= seed < 2 ** 64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {seed}")
    return seed


# the efficiency sweep's dimension, pool sizes and epsilon
EFFICIENCY_SWEEP = (200, (32, 64, 128, 256, 512, 1024), 0.5)


def run_check_suite(suite, seed):
    """The suite's reports in a fixed order. The efficiency searches, the
    longest part of ``all``, start first and run in worker processes while
    the other checks run here; their report is built last."""
    if suite not in ("efficiency", "all"):
        return _parent_checks(suite, seed)
    with theory.EfficiencySearches(*EFFICIENCY_SWEEP, seed) as searches:
        reports = _parent_checks(suite, seed)
        reports.append(theory.efficiency_report(*EFFICIENCY_SWEEP, seed,
                                                searches=searches))
    return reports


def _parent_checks(suite, seed):
    """Every check of the suite but the efficiency sweep, in suite order."""
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
        reports.append(theory.check_distance_equivalence(
            scalar, x_a, x_b, CHECK_SAMPLINGS, seed, tap=nn.TAP_PREDICTIVE))
    if suite in ("inner", "all"):
        reports.append(theory.check_inner_product_equivalence(
            scalar, x_a, x_b, CHECK_SAMPLINGS, seed, tap=nn.TAP_PREDICTIVE))
    if suite in ("concentration", "all"):
        for kind in theory.CONCENTRATION_KINDS:
            reports.append(theory.concentration_trial(kind, 200, 64, 0.5,
                                                      CONCENTRATION_TRIALS, seed))
            reports.append(theory.concentration_monotonicity(
                kind, 200, [4, 8, 16, 32], 0.25, 400,
                [seed + i for i in range(10)]))
    return reports


def cmd_check(args) -> int:
    reports = run_check_suite(args.suite, args.seed)
    for report in reports:
        print(report.to_json())
    return 0 if all(r.passed for r in reports) else 1


def _parse_sweep_values(param, raw):
    """The ``--values`` items as values of ``param``; ConfigError naming the
    first item that is empty, not of the parameter's type, or a repeat."""
    cast, kind = {"zeta": (float, "a number"),
                  "K": (int, "an integer")}.get(param, (str, None))
    items = [s.strip() for s in raw.split(",")]
    values = []
    for i, item in enumerate(items):
        if not item:
            raise ConfigError(f"--values item {i + 1} is empty in {raw!r}")
        try:
            value = cast(item)
        except ValueError:
            raise ConfigError(f"--values item {i + 1} {item!r} is not {kind}") from None
        if value in values:  # equal values share one arm dir
            first = items[values.index(value)]
            raise ConfigError(f"sweep value {item!r} repeats {first!r}")
        values.append(value)
    return values


def _sweep_variant(cfg, param, value):
    if param == "zeta":
        return replace(cfg, noise=replace(cfg.noise, zeta=value))
    if param == "K":
        return replace(cfg, noise=replace(cfg.noise, samplings=value))
    return replace(cfg, **{param: value})  # strategy or selector


def cmd_sweep(args) -> int:
    cfg = _apply_overrides(load_experiment_config(args.config), args)
    if args.param != "strategy" and cfg.strategy != "noise_stability":
        raise ConfigError(f"sweep parameter {args.param!r} applies to "
                          "the noise_stability strategy only")
    values = _parse_sweep_values(args.param, args.values)
    # every arm is built, and so checked, before the first one runs
    out_dir, arm_lines = _run_arms(args, [
        (f"{args.param}={value}", _sweep_variant(cfg, args.param, value))
        for value in values])
    _write_atomic(out_dir / "sweep.csv", [f"param,value,{CURVE_HEADER}"] + [
        f"{args.param},{value},{line}"
        for value, lines in zip(values, arm_lines) for line in lines])
    print(f"wrote {out_dir}/sweep.csv", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisestab",
        description="Noise-stability active learning: experiments, theory "
                    "checks and parameter sweeps.")
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
    check_p.add_argument("--seed", type=_check_seed, default=0)
    check_p.set_defaults(func=cmd_check)

    sweep_p = sub.add_parser("sweep", help="re-run a config over a parameter grid")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--param", required=True,
                         choices=("zeta", "K", "selector", "strategy"))
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values for the swept parameter")
    sweep_p.add_argument("--out", default=None)
    sweep_p.add_argument("--seeds", default=None)
    sweep_p.set_defaults(func=cmd_sweep)

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
