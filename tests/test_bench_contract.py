"""The benchmark (perfbench/) calls the package by name, loads the shipped
configs and builds its own ``TrainConfig``; a change that breaks any of that
must fail here, in well under a second, rather than in the benchmark's own
self-test. The theory job, which runs worker processes, is run here too (a
few seconds): its spans must record in this process and its workers must be
gone when it returns."""

import dataclasses
import importlib
import multiprocessing
import sys
from pathlib import Path

import noisestab
import noisestab.cli  # noqa: F401  (the theory job calls ns.cli)
import noisestab.config  # noqa: F401  (the benchmark reads ns.config)

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _perfbench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module(name)


def test_every_span_wrap_target_exists(monkeypatch):
    spans = _perfbench_module(monkeypatch, "spans")
    with spans.Tracer() as tracer:
        pass
    assert tracer.missing == []


def test_every_workload_config_loads(monkeypatch):
    workloads = _perfbench_module(monkeypatch, "workloads")
    for name, workload in workloads.WORKLOADS.items():
        runner = workloads.JobRunner(noisestab, workload, ROOT)
        assert (runner.cfg is None) == (workload.config is None), name


def test_every_workload_strategy_exists(monkeypatch):
    workloads = _perfbench_module(monkeypatch, "workloads")
    for name, workload in workloads.WORKLOADS.items():
        assert set(workload.strategies) <= set(noisestab.STRATEGIES), name


def test_one_kernel_round_passes_every_check(monkeypatch):
    kernels = _perfbench_module(monkeypatch, "kernels")
    times, failed = kernels.KernelBench(noisestab, 0).round()
    assert failed == []
    assert set(times) == set(kernels.KERNELS)


def test_theory_job_passes_and_records_its_spans_untraced_and_traced(
        monkeypatch):
    workloads = _perfbench_module(monkeypatch, "workloads")
    spans = _perfbench_module(monkeypatch, "spans")
    runner = workloads.JobRunner(noisestab, workloads.WORKLOADS["theory_check"],
                                 ROOT)
    job = runner.run(0)
    assert job.ok, job.problems + job.failures
    assert multiprocessing.active_children() == []
    with spans.Tracer() as tracer:
        traced = runner.run(0)
    assert traced.ok, traced.problems + traced.failures
    assert traced.records == job.records
    # a span wrapper is a local closure: a checked function that ran in a
    # worker process, or was not called through its module, records nothing
    calls = {name: stats.calls for name, stats in tracer.stats.items()
             if name.startswith("theory.")}
    assert calls and all(c > 0 for c in calls.values()), calls
    assert multiprocessing.active_children() == []


def test_every_eval_pass_of_the_shipped_configs_and_workloads_is_one_block(
        monkeypatch):
    # each pass of the shipped configs and the workloads runs whole (under
    # twice nn._PASS_ENTRIES), so their figures time the one-block pass. A
    # run's first cycle holds its largest unlabeled pool, the test set and a
    # coreset's labeled-plus-unlabeled pool keep their size, and the theory
    # job's passes are the embeddings of its jacobian, distance and inner
    # checks. About 0.2 s.
    workloads = _perfbench_module(monkeypatch, "workloads")
    strategies = {}
    for workload in workloads.WORKLOADS.values():
        if workload.config:
            strategies.setdefault(ROOT / workload.config, set()).update(
                workload.strategies)
    blocks = []
    infer = noisestab.nn._infer

    def counting(layers, rows, stops):
        blocks.append(noisestab.nn._block_count(layers[:stops[-1]], rows.shape[0]))
        return infer(layers, rows, stops)

    monkeypatch.setattr(noisestab.nn, "_infer", counting)
    for path in sorted((ROOT / "configs").glob("*.json")):
        cfg = noisestab.config.load_experiment_config(str(path))
        for strategy in sorted(strategies.get(path, set()) | {cfg.strategy}):
            noisestab.loop.run_single_seed(
                dataclasses.replace(cfg, strategy=strategy, cycles=1), 0)
    for suite in ("jacobian", "distance", "inner"):
        noisestab.cli._parent_checks(suite, 0)
    assert blocks and max(blocks) == 1


def test_every_al_workload_records_calls_where_it_expects_them(monkeypatch):
    # one cycle of each AL workload's strategies, run by the benchmark's own
    # job under its tracer: a span the workload expects calls on records
    # some, and a span it expects idle records none. The full self-test runs
    # whole jobs; this catches a call moved away from a wrapped name. About
    # 0.3 s.
    workloads = _perfbench_module(monkeypatch, "workloads")
    spans = _perfbench_module(monkeypatch, "spans")
    for name, workload in workloads.WORKLOADS.items():
        if workload.config is None:
            continue
        cfg = workloads.JobRunner(noisestab, workload, ROOT).cfg
        with spans.Tracer() as tracer:
            job = workloads.run_al_job(noisestab, dataclasses.replace(cfg, cycles=1),
                                       workload.strategies, 0)
        assert job.ok, job.problems + job.failures
        assert tracer.missing == []
        calls = {span: stats.calls for span, stats in tracer.stats.items()}
        assert [s for s in workload.expect_calls if calls[s] == 0] == [], name
        assert [s for s in workload.expect_idle if calls[s] > 0] == [], name


def test_noise_stability_workloads_compute_few_exact_distances(monkeypatch,
                                                              exact_pairs):
    # one cycle of each noise-stability workload counts the exact
    # row-center distances its k-center picks compute. Before each row kept
    # bounds (``selection._Traversal``), seed 0 computed 14,712 on ns_blobs
    # and 2,412 on ns_regression; each now computes under a tenth of that
    # (190 and 190). About 0.2 s.
    workloads = _perfbench_module(monkeypatch, "workloads")
    counts = {}
    for name in ("ns_blobs", "ns_regression"):
        cfg = workloads.JobRunner(noisestab, workloads.WORKLOADS[name], ROOT).cfg
        exact_pairs[0] = 0
        noisestab.loop.run_single_seed(dataclasses.replace(cfg, cycles=1), 0)
        counts[name] = exact_pairs[0]
    assert counts["ns_blobs"] < 14712 // 10 and \
        counts["ns_regression"] < 2412 // 10, counts
