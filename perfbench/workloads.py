"""The benchmark's workloads: what one job runs, and how its output is checked.

A job is the unit of closed-loop load: one at a time, in one process.
- AL workloads: one run seed of a shipped config, through
  ``loop.run_active_learning``, once per listed strategy. A round is one
  cycle, timed by ``CycleReport.wall_time``.
- ``theory_check``: ``noisestab check --suite all`` through
  ``cli.run_check_suite``. A round is the whole call: it is the time a user
  of ``check`` waits for the verdict, so ``cycle_s.*`` equal ``run_s`` here.

The prediction table names, for each per-layer metric group, the end-to-end
metrics it should move on that workload; ``()`` predicts no change. The
self-test reads ``expect_calls`` and ``expect_idle``: spans that must record
calls on the workload, and spans that must record none.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace

from spans import THEORY_CHECKS

_CYCLE = ("run_s", "cycle_s.p50", "cycle_s.tail")
_EMBED_SPANS = ("stability.pool_embeddings", "nn.forward_to", "nn.perturb")
_LOOP_SPANS = ("loop", "loop.evaluate", "loop.build_dataset", "nn.train", "nn.forward")
_BASELINE_SPANS = ("baselines.random", "baselines.entropy", "baselines.coreset",
                   "baselines.badge")
_THEORY_SPANS = tuple(f"theory.{name}" for name in THEORY_CHECKS)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str | None = None
    strategies: tuple = ()
    min_jobs: int = 1
    predictions: dict = field(default_factory=dict)
    expect_calls: tuple = ()
    expect_idle: tuple = ()


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ns_blobs",
        why="the paper's method at acceptance size; embedding is ~96% of the run",
        config="configs/blobs_accept.json",
        strategies=("noise_stability",),
        min_jobs=2,
        predictions={
            "stability.*": _CYCLE,
            "nn.forward_to/forward/perturb": _CYCLE,
            "nn.train": ("cycle_s.* barely",),
            "selection.*": ("run_s ~2%",),
            "loop.*": ("cycle_s.*",),
            "baselines.*": (),
            "theory.*": (),
        },
        expect_calls=_EMBED_SPANS + _LOOP_SPANS + ("selection.select",
                                                  "selection.k_center"),
        expect_idle=_BASELINE_SPANS + _THEORY_SPANS + (
            "stability.embedding", "nn.jacobian", "selection.kmeans_pp"),
    ),
    Workload(
        name="ns_regression",
        why="feature tap, body-only noise and a small pool: per-direction fixed "
            "costs and training weigh more than on ns_blobs",
        config="configs/regression_demo.json",
        strategies=("noise_stability",),
        min_jobs=6,
        predictions={
            "stability.*": _CYCLE,
            "nn.forward_to/forward/perturb": _CYCLE,
            "nn.train": ("cycle_s.*",),
            "loop.*": ("cycle_s.*",),
            "baselines.*": (),
            "theory.*": (),
        },
        expect_calls=_EMBED_SPANS + _LOOP_SPANS + ("selection.select",
                                                  "selection.k_center"),
        expect_idle=_BASELINE_SPANS + _THEORY_SPANS + (
            "stability.embedding", "nn.jacobian", "selection.kmeans_pp"),
    ),
    Workload(
        name="baselines_blobs",
        why="random, entropy, coreset and BADGE on the ns_blobs data: training and "
            "selection bound, never calls stability",
        config="configs/blobs_accept.json",
        strategies=("random", "entropy", "coreset", "badge"),
        min_jobs=4,
        predictions={
            "stability.*": (),
            "nn.forward_to/forward/perturb": (),
            "nn.train": ("cycle_s.*",),
            "selection.*": ("run_s",),
            "baselines.*": _CYCLE,
            "loop.*": ("cycle_s.*",),
            "theory.*": (),
        },
        expect_calls=_LOOP_SPANS + _BASELINE_SPANS + ("selection.k_center",
                                                      "selection.kmeans_pp"),
        expect_idle=_EMBED_SPANS + _THEORY_SPANS + (
            "stability.embedding", "nn.jacobian", "selection.select"),
    ),
    Workload(
        name="theory_check",
        why="check --suite all: the only workload running theory and the "
            "pool-of-one, K=5000 embedding path",
        min_jobs=1,
        predictions={
            "stability.embedding": ("run_s",),
            "nn.jacobian": ("run_s",),
            "theory.*": ("run_s",),
            "stability.pool_embeddings": (),
            "nn.train": (),
            "selection.*": (),
            "baselines.*": (),
            "loop.*": (),
        },
        expect_calls=_THEORY_SPANS + ("stability.embedding", "nn.jacobian",
                                      "nn.forward_to", "nn.perturb"),
        expect_idle=_LOOP_SPANS + _BASELINE_SPANS + (
            "stability.pool_embeddings", "selection.select", "selection.k_center",
            "selection.kmeans_pp"),
    ),
)}


@dataclass
class JobResult:
    seed: int
    wall_s: float
    rounds: list = field(default_factory=list)
    records: list = field(default_factory=list)  # JSON lines of the job's reports
    quality: dict = field(default_factory=dict)  # metric name -> per-round values
    problems: list = field(default_factory=list)  # outputs found wrong
    failures: list = field(default_factory=list)  # errors and checks not passed

    @property
    def ok(self):
        return not self.problems and not self.failures


def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_al_reports(cfg, reports, seed):
    """Problems found in one seed's cycle reports; empty when they are right."""
    problems = []
    if len(reports) != cfg.cycles:
        problems.append(f"{len(reports)} cycles, expected {cfg.cycles}")
    seen = set()
    expected_size = cfg.initial_labeled
    for i, report in enumerate(reports, start=1):
        where = f"seed {seed} cycle {report.cycle}"
        if report.cycle != i or report.seed != seed:
            problems.append(f"{where}: out of order")
        if report.labeled_size != expected_size:
            problems.append(f"{where}: labeled_size {report.labeled_size}, "
                            f"expected {expected_size}")
        picks = list(report.selected)
        if len(picks) != cfg.budget:
            problems.append(f"{where}: {len(picks)} picks, budget {cfg.budget}")
        if len(set(picks)) != len(picks) or seen & set(picks):
            problems.append(f"{where}: picks repeat")
        if not all(isinstance(p, int) and p >= 0 for p in picks):
            problems.append(f"{where}: picks are not pool indices")
        seen |= set(picks)
        expected_size += len(picks)
        if not _finite([report.metric, report.wall_time, *report.loss_curve]):
            problems.append(f"{where}: non-finite metric, loss or time")
    return problems


def run_al_job(ns, cfg, strategies, seed):
    """One run seed through every strategy; checks run after the timed part."""
    start = time.perf_counter()
    try:
        runs = [(s, ns.loop.run_active_learning(replace(cfg, seeds=[seed],
                                                        strategy=s))[0])
                for s in strategies]
    except Exception as exc:  # a failed job is counted, never fatal
        return JobResult(seed, time.perf_counter() - start,
                         failures=[f"seed {seed}: {type(exc).__name__}: {exc}"])
    result = JobResult(seed, time.perf_counter() - start)
    for strategy, reports in runs:
        result.problems += check_al_reports(cfg, reports, seed)
        result.rounds += [r.wall_time for r in reports]
        result.records += [json.dumps(r.to_record()) for r in reports]
        for r in reports:
            result.quality.setdefault(f"{r.metric_kind}.auc", []).append(r.metric)
            if len(strategies) > 1:
                result.quality.setdefault(f"{strategy}.{r.metric_kind}.auc",
                                          []).append(r.metric)
    return result


def run_theory_job(ns, seed):
    """``check --suite all`` once; the whole call is the job's one round."""
    start = time.perf_counter()
    try:
        reports = ns.cli.run_check_suite("all", seed)
    except Exception as exc:  # a failed check is counted, never fatal
        return JobResult(seed, time.perf_counter() - start,
                         failures=[f"seed {seed}: {type(exc).__name__}: {exc}"])
    wall_s = time.perf_counter() - start
    result = JobResult(seed, wall_s, rounds=[wall_s],
                       records=[r.to_json() for r in reports])
    if not reports:
        result.problems.append(f"seed {seed}: no reports")
    # a check that does not pass is a failed operation; its report is still a
    # well-formed, reproducible output
    result.failures += [f"seed {seed}: {r.name} failed ({r.statistic!r} > "
                        f"{r.threshold!r})" for r in reports if not r.passed]
    return result


class JobRunner:
    """Loads a workload's config once; ``run(seed)`` executes one job."""

    def __init__(self, ns, workload, root):
        self.ns = ns
        self.workload = workload
        self.cfg = (ns.config.load_experiment_config(str(root / workload.config))
                    if workload.config else None)

    def run(self, seed):
        if self.cfg is None:
            return run_theory_job(self.ns, seed)
        return run_al_job(self.ns, self.cfg, self.workload.strategies, seed)
