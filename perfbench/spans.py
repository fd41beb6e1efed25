"""Per-layer spans, recorded from outside the program.

A span wraps one public function of a noisestab module. Each wrapper is
installed at the name its caller looks up: ``loop`` binds ``select`` at
import, ``baselines`` binds ``greedy_k_center`` and ``kmeans_pp``, and
``theory`` binds ``embedding``, so wrapping only the defining module would
record nothing for those calls.

Spans are aggregated in memory by name while the traced run executes:
calls, work units (rows or example-epochs), busy time and self time. Busy
time counts only the outermost span of a name, so recursion through the same
layer is not counted twice. Self time is a span's duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass


def _rows(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) == 1 else int(shape[0])


def _rows_arg(index, key):
    def count(args, kwargs):
        return _rows(args[index] if len(args) > index else kwargs[key])
    return count


def _example_epochs(args, kwargs):
    labeled = args[1] if len(args) > 1 else kwargs["labeled"]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    n = len(labeled[0]) if isinstance(labeled, tuple) else len(labeled)
    return n * cfg.epochs


THEORY_CHECKS = (
    "check_second_moment",
    "check_second_moment_trace",
    "check_jacobian_norm",
    "check_distance_equivalence",
    "check_inner_product_equivalence",
    "concentration_trial",
    "concentration_monotonicity",
    "efficiency_report",
)

# span name -> (wrap targets as (module, attribute), work-unit counter)
SPANS = {
    "loop": ([("loop", "run_single_seed")], None),
    "loop.evaluate": ([("loop", "evaluate")], None),
    "loop.build_dataset": ([("loop", "build_dataset")], None),
    "stability.pool_embeddings": ([("stability", "pool_embeddings")],
                                  _rows_arg(1, "pool")),
    "stability.embedding": ([("stability", "embedding"), ("theory", "embedding")],
                            None),
    "nn.forward_to": ([("nn", "forward_to")], _rows_arg(1, "x")),
    "nn.forward": ([("nn", "forward")], _rows_arg(1, "x")),
    "nn.perturb": ([("nn", "apply_perturbation"), ("nn", "remove_perturbation")],
                   None),
    "nn.train": ([("nn", "train")], _example_epochs),
    "nn.jacobian": ([("nn", "jacobian")], None),
    "selection.select": ([("loop", "select")], None),
    "selection.k_center": ([("selection", "greedy_k_center"),
                            ("baselines", "greedy_k_center")], None),
    "selection.kmeans_pp": ([("selection", "kmeans_pp"),
                             ("baselines", "kmeans_pp")], None),
    "baselines.random": ([("baselines", "select_random")], None),
    "baselines.entropy": ([("baselines", "select_entropy")], None),
    "baselines.coreset": ([("baselines", "select_coreset")], None),
    "baselines.badge": ([("baselines", "select_badge")], None),
}
SPANS.update({f"theory.{name}": ([("theory", name)], None) for name in THEORY_CHECKS})

# per-layer metric -> (span, statistic); the statistic is calls, units
# (rows or example-epochs), busy_s or self_s
_FIELDS = {
    "stability.pool_embeddings": ("calls", "rows", "busy_s", "self_s"),
    "stability.embedding": ("calls", "busy_s", "self_s"),
    "nn.forward_to": ("calls", "rows", "busy_s"),
    "nn.forward": ("calls", "rows", "busy_s"),
    "nn.perturb": ("calls", "busy_s"),
    "nn.train": ("calls", "example_epochs", "busy_s"),
    "nn.jacobian": ("calls", "busy_s"),
    "selection.select": ("calls", "busy_s"),
    "selection.k_center": ("busy_s",),
    "selection.kmeans_pp": ("busy_s",),
    "baselines.random": ("busy_s", "self_s"),
    "baselines.entropy": ("busy_s", "self_s"),
    "baselines.coreset": ("busy_s", "self_s"),
    "baselines.badge": ("busy_s", "self_s"),
    "loop.evaluate": ("busy_s",),
    "loop.build_dataset": ("busy_s",),
}
_FIELDS.update({f"theory.{name}": ("busy_s",) for name in THEORY_CHECKS})

LAYER_METRICS = {f"{span}.{field}": (span, "units" if field in ("rows", "example_epochs")
                                      else field)
                 for span, fields in _FIELDS.items() for field in fields}
LAYER_METRICS["loop.self_s"] = ("loop", "self_s")


@dataclass
class SpanStats:
    calls: int = 0
    units: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Installs span wrappers on noisestab modules and aggregates their timings.

    Use as a context manager; leaving it restores every wrapped attribute.
    Targets that do not exist are listed in ``missing`` and left alone.
    """

    def __init__(self):
        self.stats = {name: SpanStats() for name in SPANS}
        self.missing = []  # wrap targets absent at the last __enter__
        self._stack = []  # [span name, time covered by children]
        self._saved = []

    def __enter__(self):
        self.missing.clear()
        for name, (targets, counter) in SPANS.items():
            for module_name, attr in targets:
                module = importlib.import_module(f"noisestab.{module_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{name}:{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, counter))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, name, fn, counter):
        stats = self.stats[name]
        stack = self._stack

        def span(*args, **kwargs):
            outermost = all(frame[0] != name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if outermost:
                    stats.busy_s += elapsed
                if counter is not None:
                    stats.units += counter(args, kwargs)

        span.__wrapped__ = fn
        return span

    def metrics(self):
        """Every per-layer span metric by name."""
        return {metric: getattr(self.stats[span], field)
                for metric, (span, field) in LAYER_METRICS.items()}

    def counts(self):
        """The span counts that must repeat exactly for the same seed."""
        return {name: (s.calls, s.units) for name, s in self.stats.items()}
