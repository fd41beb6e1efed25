"""Self-test of the benchmark: metric names, output checks and span placement.

    python3 -m pytest -q perfbench/test_bench.py

The span test traces one job of every workload twice (about 90 s on two
cores).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from dataclasses import dataclass, field

import pytest

import kernels
import run
import spans
from workloads import WORKLOADS, JobRunner, check_al_reports


@pytest.fixture(scope="module")
def ns():
    return run.load_noisestab()


def test_benchmark_json_names_every_measured_metric():
    spec = run.benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    kernel_metrics = {f"kernel.{k}{suffix}" for k in kernels.KERNELS
                      for suffix in ("", ".n", ".iqr")}
    assert {m["name"] for m in spec["per_layer"]} == set(spans.LAYER_METRICS) | kernel_metrics
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "run_s", "cycle_s.p50", "cycle_s.tail", "peak_rss_mb"}


@pytest.mark.parametrize("n_rounds", [16, 20, 30, 128, 1000])
def test_tail_percentile_leaves_ten_rounds_beyond(n_rounds):
    q = run.tail_percentile(n_rounds)
    rounds = list(range(n_rounds))
    beyond = sum(r > run.percentile(rounds, q) for r in rounds)
    assert q >= 50
    assert beyond >= 10 or q == 50


@dataclass
class _Report:
    cycle: int
    labeled_size: int
    selected: list
    seed: int = 3
    metric: float = 0.9
    wall_time: float = 0.1
    loss_curve: list = field(default_factory=lambda: [0.5])


def test_output_check_flags_repeated_picks_and_bad_sizes(ns):
    cfg = JobRunner(ns, WORKLOADS["ns_blobs"], run.ROOT).cfg
    size, budget = cfg.initial_labeled, cfg.budget
    good = [_Report(c, size + (c - 1) * budget,
                    list(range((c - 1) * budget, c * budget)))
            for c in range(1, cfg.cycles + 1)]
    assert check_al_reports(cfg, good, 3) == []
    repeated = [*good[:-1], _Report(cfg.cycles, good[-1].labeled_size,
                                    good[0].selected)]
    assert any("repeat" in p for p in check_al_reports(cfg, repeated, 3))
    short = good[:-1]
    assert check_al_reports(cfg, short, 3)
    nan = [*good[:-1], _Report(cfg.cycles, good[-1].labeled_size,
                               good[-1].selected, metric=float("nan"))]
    assert any("non-finite" in p for p in check_al_reports(cfg, nan, 3))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_spans_record_where_predicted_and_repeat(ns, name):
    workload = WORKLOADS[name]
    runner = JobRunner(ns, workload, run.ROOT)
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer:
            job = runner.run(run.job_seed(5, 0))
        assert job.ok, job.problems
        assert tracer.missing == []
        counts.append(tracer.counts())
    assert counts[0] == counts[1]
    calls = {span: c for span, (c, _) in counts[0].items()}
    assert all(calls[span] > 0 for span in workload.expect_calls), calls
    assert all(calls[span] == 0 for span in workload.expect_idle), calls
    assert set(workload.expect_calls) | set(workload.expect_idle) <= set(spans.SPANS)
    # the wrappers are gone again after the traced job
    assert not hasattr(ns.nn.forward_to, "__wrapped__")
    assert not hasattr(ns.loop.select, "__wrapped__")


def test_missing_wrap_target_is_reported_not_fatal(ns, monkeypatch):
    monkeypatch.delattr(ns.baselines, "select_badge")
    tracer = spans.Tracer()
    with tracer:
        pass
    assert tracer.missing == ["baselines.badge:baselines.select_badge"]
    assert tracer.metrics()["baselines.badge.busy_s"] == 0.0


def test_exits_without_result_where_the_sources_are_absent(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "ns_blobs", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
