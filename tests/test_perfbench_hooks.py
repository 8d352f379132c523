"""The benchmark's trace points name functions that exist.

perfbench/ times each layer by patching the functions its TRACE_POINTS
list; a point whose function is gone records nothing, so its per-layer
metrics would read 0 instead of failing.
"""

import importlib
from pathlib import Path

from critwave import solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the list functions that the row engine replaced are gone from analysis;
# perfbench still names them until a change to the benchmark drops them,
# and no workload reached them, so their metrics read 0 before and after
DELETED = ["analysis.virial_series", "analysis.g_r_series"]


def test_trace_points_all_present(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    assert spans.Tracer.missing(workloads.TRACE_POINTS) == DELETED


def test_traced_run_counts_steps_and_node_steps(monkeypatch):
    # perfbench's solver.step_calls and solver.node_steps count the calls
    # that solver.run makes to solver.step through the module, each with
    # the state first: ceil(t_end / dt) steps of every node
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")

    # dt = 0.025 and t_end = 0.51: 21 steps, the last one shortened, on 81 nodes
    cfg = solver.RunConfig(mesh_h=0.05, rmax=4.0, t_end=0.51, output_every=0.1, family="bump",
                           params={"amp": 0.3, "sigma": 1.0, "center": 2.0})
    tracer = spans.Tracer()
    with tracer.installed(workloads.TRACE_POINTS):
        rep = solver.run(cfg)
    calls, _, _, node_steps = tracer.stats("solver.step")
    assert rep.outcome == "Completed"
    assert (calls, node_steps) == (21, 21 * 81)
    assert tracer.stats("solver.run")[0] == 1
