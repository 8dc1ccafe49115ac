"""The benchmark's tracer (perfbench/tracer.py) times the package by
rebinding module attributes it names; a renamed or deleted attribute drops
that metric from a traced run without any error.  This checks, without
running the benchmark, that every traced metric still has at least one
boundary that resolves (some metrics list a second module as a fallback)."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_metric_has_a_boundary_that_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up while building the class
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)

    resolves: dict[str, bool] = {}
    for b in tracer.BOUNDARIES:
        found = getattr(importlib.import_module(b.module), b.attr, None) is not None
        resolves[b.metric] = resolves.get(b.metric, False) or found
    assert len(resolves) > 1
    assert [m for m, ok in resolves.items() if not ok] == []
