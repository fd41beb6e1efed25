"""noisestab benchmark: end-to-end latency untraced, per-layer spans traced.

    python3 perfbench/run.py --workload ns_blobs --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the root of a source checkout; noisestab is imported from its
``src``. Load is a closed loop: one job at a time in this process, no threads
beyond numpy's BLAS default. Workloads and jobs are defined in workloads.py.

``--trace 0`` measures the end-to-end metrics. Set-up is timed in fresh
interpreters, then jobs run back to back until ``--seconds`` have passed and
at least the workload's ``min_jobs`` have run. Times are rescaled to a
reference machine speed (see speed.py); the raw wall times are on the info
line.
- ``setup_s``: noisestab import plus config load, median of SETUP_REPEATS.
- ``run_s``: median time of one job.
- ``cycle_s.p50`` / ``cycle_s.tail``: per-round latency. The tail percentile
  is fixed per workload: the highest one with at least ten of the first
  ``min_jobs`` jobs' rounds beyond it, and never below the median.
- ``peak_rss_mb``: peak resident set of this process.
Quality (test accuracy or MAE averaged over cycles and seeds), the sha256 of
the report records and ``fail_frac`` are printed on the info line and not
gated. Quality and the sha256 cover the first ``min_jobs`` jobs, so they
depend only on the seed and the code.

``--trace 1`` measures the per-layer metrics. The first job runs untraced,
with span wrappers installed (see spans.py), and untraced again; the traced
time minus the mean untraced time is the tracing overhead. Then the
fixed-size kernels (see kernels.py) repeat until ``--seconds`` have passed.

Every run checks its outputs. ``failed`` counts operations that raised or
whose check did not pass; ``correct`` is false when an output is wrong. The
last stdout line is the result object; the line before it holds the machine
facts and everything not gated.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import kernels  # noqa: E402  (the benchmark's own modules sit next to this file)
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, JobRunner  # noqa: E402

SETUP_REPEATS = 5
MIN_KERNEL_ROUNDS = 5
SETUP_TIMEOUT_S = 60
JOB_SEED_STRIDE = 1_000_003

# Set-up is timed inside a fresh interpreter, between two passes of a
# plain-Python loop that stand in for the machine's speed at that moment
# (numpy cannot be used for them: importing it is part of set-up).
_SETUP_SNIPPET = """\
import sys, time

def probe():
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start

before = probe()
start = time.perf_counter()
import noisestab, noisestab.cli, noisestab.config
if sys.argv[1]:
    noisestab.config.load_experiment_config(sys.argv[1])
elapsed = time.perf_counter() - start
print(repr(elapsed), repr((before + probe()) / 2))
"""
# median set-up probe time on the machine the benchmark was defined on
SETUP_PROBE_REF_S = 0.0236


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_noisestab():
    """Import noisestab from this checkout's src, never from elsewhere."""
    if not (SRC / "noisestab" / "__init__.py").is_file():
        raise BenchError(f"no noisestab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    names = ("nn", "stability", "selection", "baselines", "loop", "theory",
             "config", "cli")
    ns = importlib.import_module("noisestab")
    for name in names:
        importlib.import_module(f"noisestab.{name}")
    if Path(ns.__file__).resolve().parent != SRC / "noisestab":
        raise BenchError(f"imported noisestab from {ns.__file__}, not {SRC}")
    return ns


def measure_setup(workload):
    """Time to import noisestab and load the workload's config, each repeat
    in a fresh interpreter: (median at reference speed, raw samples)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    config = str(ROOT / workload.config) if workload.config else ""

    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET, config],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-400:]}")
        elapsed, probe_s = map(float, proc.stdout.split())
        samples.append((elapsed, SETUP_PROBE_REF_S / probe_s))
    return (statistics.median(raw * k for raw, k in samples),
            [raw for raw, _ in samples])


def job_seed(seed, index):
    """Run seed (AL) or check seed (theory) of a run's index-th job; the
    first job uses the benchmark seed itself."""
    return seed + JOB_SEED_STRIDE * index


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n_rounds):
    """Highest whole percentile with at least ten of n rounds beyond it,
    floored at the median."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n_rounds))) if n_rounds else 50


def sha256_lines(lines):
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def quality_summary(jobs):
    pooled = {}
    for job in jobs:
        for name, values in job.quality.items():
            pooled.setdefault(name, []).extend(values)
    return {name: statistics.fmean(values) for name, values in sorted(pooled.items())}


def blas_facts():
    facts = {"env": {k: os.environ[k] for k in
                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts.update(name=blas.get("name"), version=blas.get("version"),
                     config=blas.get("openblas configuration"))
    except (TypeError, KeyError):
        facts["name"] = "unknown"
    facts["threads"] = _openblas_threads()
    return facts


def _openblas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    import ctypes
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else ():
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def source_facts():
    """The git commit when the checkout has one, and a digest of the sources."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "noisestab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def machine_facts():
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas_facts(),
        **source_facts(),
    }


def run_untraced(ns, workload, seed, seconds):
    probe = speed.SpeedProbe()
    setup_s, setup_samples = measure_setup(workload)
    runner = JobRunner(ns, workload, ROOT)
    jobs, scaled = [], []  # scaled: (job seconds, factor per round second)
    start = time.perf_counter()
    while len(jobs) < workload.min_jobs or time.perf_counter() - start < seconds:
        job, net, k = probe.timed(lambda: runner.run(job_seed(seed, len(jobs))))
        jobs.append(job)
        scaled.append((net * k, k * net / job.wall_s))
    measured_s = time.perf_counter() - start

    fixed = jobs[:workload.min_jobs]
    # timings come from jobs that ran to the end, whatever their checks said
    done = [i for i, job in enumerate(jobs) if job.rounds] or range(len(jobs))
    rounds = ([r * scaled[i][1] for i in done for r in jobs[i].rounds]
              or [scaled[i][0] for i in done])
    raw_rounds = [r for i in done for r in jobs[i].rounds] or [job.wall_s for job in jobs]
    tail_q = tail_percentile(sum(len(job.rounds) for job in fixed))
    metrics = {
        "setup_s": setup_s,
        "run_s": statistics.median(scaled[i][0] for i in done),
        "cycle_s.p50": percentile(rounds, 50),
        "cycle_s.tail": percentile(rounds, tail_q),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failed = sum(not job.ok for job in jobs)
    correct = not any(job.problems for job in jobs)
    info = {
        "wall": {"setup_s": statistics.median(setup_samples),
                 "run_s": statistics.median(jobs[i].wall_s for i in done),
                 "cycle_s.p50": percentile(raw_rounds, 50),
                 "cycle_s.tail": percentile(raw_rounds, tail_q)},
        "speed_factors": [round(k, 4) for _, k in scaled],
        "setup_samples_s": setup_samples,
        "measured_s": measured_s,
        "jobs": len(jobs),
        "job_wall_s": [job.wall_s for job in jobs],
        "rounds": len(rounds),
        "tail_percentile": tail_q,
        "tail_beyond": sum(r > metrics["cycle_s.tail"] for r in rounds),
        "fail_frac": failed / len(jobs),
        "problems": [p for job in jobs for p in job.problems][:20],
        "failures": [f for job in jobs for f in job.failures][:20],
        "quality": quality_summary(fixed),
        "records_sha256": sha256_lines([line for job in fixed for line in job.records]),
        "quality_jobs": [job.seed for job in fixed],
    }
    return metrics, len(jobs), failed, correct, info


def run_traced(ns, workload, seed, seconds):
    runner = JobRunner(ns, workload, ROOT)
    start = time.perf_counter()
    attempted = failed = 0
    untraced_s, traced_s, problems, failures = [], [], [], []
    tracer = spans.Tracer()
    probe = speed.SpeedProbe()
    # untraced, traced, untraced: the overhead is measured against the mean
    # of the untraced runs on either side, which cancels steady drift
    runs = []
    for traced in (False, True, False):
        with tracer if traced else contextlib.nullcontext():
            job, net, k = probe.timed(lambda: runner.run(job_seed(seed, 0)))
        runs.append(job)
        attempted += 1
        failed += not job.ok
        problems += job.problems
        failures += job.failures
        (traced_s if traced else untraced_s).append(net * k)
    if any(job.records != runs[0].records for job in runs):
        problems.append(f"seed {runs[0].seed}: traced reports differ from untraced")

    bench = kernels.KernelBench(ns, seed)
    samples = {name: [] for name in kernels.KERNELS}
    while (len(samples["k_center_s"]) < MIN_KERNEL_ROUNDS
           or time.perf_counter() - start < seconds):
        times, kernel_failures = bench.round()
        attempted += 1
        failed += bool(kernel_failures)
        problems += [f"kernel {name} output is wrong" for name in kernel_failures]
        for name, value in times.items():
            samples[name].append(value)

    metrics = dict(tracer.metrics())
    for name, values in samples.items():
        summary = kernels.summarize(values)
        metrics[f"kernel.{name}"] = summary["median"]
        metrics[f"kernel.{name}.n"] = summary["n"]
        metrics[f"kernel.{name}.iqr"] = summary["iqr"]
    info = {
        "measured_s": time.perf_counter() - start,
        "untraced_run_s": untraced_s,
        "traced_run_s": traced_s,
        "trace_overhead_s": statistics.fmean(traced_s) - statistics.fmean(untraced_s),
        "missing_spans": tracer.missing,
        "span_counts": tracer.counts(),
        "problems": problems[:20],
        "failures": failures[:20],
    }
    return metrics, attempted, failed, not problems, info


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    })


def run_one(args):
    ns = load_noisestab()
    workload = WORKLOADS[args.workload]
    spec = benchmark_spec()
    if args.trace:
        measure = run_traced
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        measure = run_untraced
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics, attempted, failed, correct, info = measure(ns, workload, args.seed,
                                                        args.seconds)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    info.update(workload=workload.name, seed=args.seed, trace=args.trace,
                seconds=args.seconds, why=workload.why,
                predictions=workload.predictions, machine=machine_facts())
    print(json.dumps({"info": info}))
    print(result_line(correct, attempted, failed, metrics, units))
    return 0


def run_all(args):
    """Every workload untraced then traced, each in its own interpreter; prints
    one line per metric and a combined result."""
    summary, correct, attempted, failed = {}, True, 0, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise BenchError(f"{workload} --trace {trace} exited {proc.returncode}")
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            info = json.loads(lines[-2])["info"]
            for name, metric in result["metrics"].items():
                print(f"{workload:16s} {name:44s} {metric['value']:.6g} {metric['unit']}")
                summary[f"{workload}:{name}"] = metric
            if not trace:
                print(f"{workload:16s} {'quality':44s} {json.dumps(info['quality'])}")
                print(f"{workload:16s} {'records_sha256':44s} {info['records_sha256']}")
            else:
                print(f"{workload:16s} {'trace_overhead_s':44s} "
                      f"{info['trace_overhead_s']:.6g} s")
            print(f"{workload:16s} {'fail_frac':44s} "
                  f"{result['failed'] / result['attempted']:.6g}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except (BenchError, OSError, ImportError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
