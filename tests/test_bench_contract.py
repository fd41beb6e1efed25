"""The benchmark's span tracer (perfbench/spans.py) wraps package functions by
name; a deleted or renamed target must fail here, in well under a second,
rather than in the benchmark's own self-test."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_span_wrap_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    with spans.Tracer() as tracer:
        pass
    assert tracer.missing == []
