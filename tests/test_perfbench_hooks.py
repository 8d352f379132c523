"""The benchmark's trace points name functions that exist.

perfbench/ times each layer by patching the functions its TRACE_POINTS
list; a point whose function is gone records nothing, so its per-layer
metrics would read 0 instead of failing.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_points_all_present(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    assert spans.Tracer.missing(workloads.TRACE_POINTS) == []
