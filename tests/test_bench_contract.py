"""The benchmark (perfbench/) calls the package by name, loads the shipped
configs and builds its own ``TrainConfig``; a change that breaks any of that
must fail here, in well under a second, rather than in the benchmark's own
self-test."""

import importlib
import sys
from pathlib import Path

import noisestab
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
