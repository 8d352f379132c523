"""One workload in a fresh process; prints one JSON line for run.py.

    python3 perfbench/worker.py --spawn-time T --setup-only
    python3 perfbench/worker.py --spawn-time T --workload NAME --seed N --seconds S --trace 0|1

--spawn-time is the parent's time.time() just before it started this
process, so setup_s covers interpreter start, the numpy/scipy/critwave
imports and the first w_constants quadrature. setup_s and wall_s are
scaled to the reference host speed (speed.py); the raw times are in the
output beside them.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

# imports below are part of setup_s
import numpy as np  # noqa: E402

import critwave  # noqa: E402
from critwave.ground_state import w_constants  # noqa: E402

from spans import Tracer  # noqa: E402
from speed import SpeedProbe, at_reference  # noqa: E402
import workloads  # noqa: E402

MODULES = ("solver", "ground_state", "mesh", "analysis", "profiles", "dalembert", "cli")
OUT = ROOT / ".perfbench-out"
WALL_LIMIT_S = 120.0  # stop starting tasks past this, whatever the minimums say
SETUP_SPEED_EXPONENT = 1.0  # see speed.py


def _ready(spawn_time: float) -> tuple[float, float]:
    t0 = time.perf_counter()
    w_constants(3)
    first_quad = time.perf_counter() - t0
    return time.time() - spawn_time, first_quad


def measure(wl, seconds: float, trace: bool, tracer: Tracer, probe: SpeedProbe) -> list:
    """Run tasks until the next one would end past `seconds`.

    Untraced tasks run under the speed probe; traced ones do not, so that
    their spans hold no probe time. With tracing, tasks alternate
    untraced/traced so that the run also measures the tracing overhead on
    the same inputs.
    """
    tasks = []
    begin = time.perf_counter()
    min_tasks = max(wl.min_tasks, 2 if trace else 1)
    while True:
        traced = trace and len(tasks) % 2 == 1
        t0 = probe.clock()
        if traced:
            with tracer.installed(workloads.TRACE_POINTS):
                task = wl.task(len(tasks))
        else:
            with probe.sampling() as first:
                task = wl.task(len(tasks))
            task.kernel_s = probe.median_since(first)
        task.span_s = probe.clock() - t0
        task.traced = traced
        tasks.append(task)
        elapsed = time.perf_counter() - begin
        samples = sum(len(t.op_latency_s) for t in tasks if not t.traced)
        if elapsed > WALL_LIMIT_S:
            break
        if len(tasks) < min_tasks or (not trace and samples < wl.min_samples):
            continue
        if elapsed + statistics.median(t.span_s for t in tasks) > seconds:
            break
    return tasks


def end_to_end(wl, tasks, setup_s: float) -> dict:
    return {
        "wall_s": statistics.median(
            at_reference(t.wall_s, t.kernel_s, wl.speed_exponent) for t in tasks),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, tasks, tracer: Tracer, first_quad_s: float) -> dict:
    traced = [t for t in tasks if t.traced]
    plain = [t for t in tasks if not t.traced]
    n = len(traced)
    m: dict[str, float] = {}

    def put(key, span, calls=True, seconds=True):
        c, incl, _self, _work = tracer.stats(span)
        if calls:
            m[f"{key}_calls"] = c / n
        if seconds:
            m[f"{key}_s"] = incl / n

    put("solver.run", "solver.run", calls=False)
    m["solver.run_self_s"] = tracer.stats("solver.run")[2] / n
    put("solver.step", "solver.step")
    node_steps = tracer.stats("solver.step")[3]
    m["solver.node_steps"] = node_steps / n
    m["solver.ns_per_node_step"] = (
        1e9 * tracer.stats("solver.step")[1] / node_steps if node_steps else 0.0)
    put("solver.save_snapshot", "solver.save_snapshot")
    put("solver.load_snapshot", "solver.load_snapshot")
    put("ground_state.energy", "ground_state.energy")
    m["ground_state.w_constants_s"] = first_quad_s
    put("mesh.integrate", "mesh.integrate")
    put("mesh.spacing", "mesh.spacing")
    put("mesh.is_uniform", "mesh.is_uniform")
    for fn in ("diagnostics_series", "concentration_radii", "virial_series", "g_r_series",
               "d_functional", "sign_projection", "fit_exponent"):
        put(f"analysis.{fn}", f"analysis.{fn}", calls=False)
    put("profiles.extract", "profiles.extract")
    put("profiles.correlate_scale", "profiles.correlate_scale", seconds=False)
    extracts = tracer.stats("profiles.extract")[0]
    m["profiles.correlate_scale_per_extract"] = (
        tracer.stats("profiles.correlate_scale")[0] / extracts if extracts else 0.0)
    put("dalembert.channel_check", "dalembert.channel_check")
    put("dalembert.int_dF_sq", "dalembert.int_dF_sq", seconds=False)
    put("dalembert.evolve", "dalembert.evolve", calls=False)
    put("dalembert.reduce", "dalembert.reduce", calls=False)
    put("cli.simulate", "cli.simulate", calls=False)
    put("cli.analyze", "cli.analyze", calls=False)
    m["cli.bytes_written"] = float(wl.io.get("bytes_written", 0))
    m["cli.files_written"] = float(wl.io.get("files_written", 0))

    traced_wall = sum(t.span_s for t in traced)
    self_by_module = tracer.module_self_s()
    for mod in MODULES:
        m[f"{mod}.self_s"] = self_by_module.get(mod, 0.0) / n
    m["bench.traced_wall_s"] = traced_wall / n
    m["bench.self_s"] = (traced_wall - sum(self_by_module.values())) / n
    m["bench.trace_overhead"] = (
        statistics.median(t.span_s for t in traced) / statistics.median(t.span_s for t in plain) - 1.0)

    for key in ("solver.energy_drift", "solver.t_star", "solver.oracle_order_min",
                "profiles.recovered_frac", "profiles.pythagorean_defect_max",
                "dalembert.worst_min_ratio"):
        m[key] = float(wl.accuracy.get(key, 0.0))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup_raw_s, first_quad_s = _ready(args.spawn_time)
    probe = SpeedProbe()
    setup_kernel_s = probe.settled()
    setup_s = at_reference(setup_raw_s, setup_kernel_s, SETUP_SPEED_EXPONENT)
    setup = {"setup_s": setup_s, "setup_raw_s": setup_raw_s, "setup_kernel_s": setup_kernel_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    if not Path(critwave.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"worker: critwave imported from {critwave.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed, OUT / args.workload, probe.clock)
    tracer = Tracer()
    tasks = measure(wl, args.seconds, bool(args.trace), tracer, probe)
    plain = [t for t in tasks if not t.traced]
    latencies = [x for t in plain for x in t.op_latency_s]
    result = {
        "workload": wl.name,
        "tasks": len(tasks),
        "traced_tasks": len(tasks) - len(plain),
        "attempted": sum(t.attempted for t in tasks),
        "failed": sum(t.failed for t in tasks),
        "failures": [f for t in tasks for f in t.failures][:10],
        "sizes": wl.sizes(),
        "accuracy": wl.accuracy,
        "task_wall_s": [t.wall_s for t in tasks],
        "task_kernel_s": [getattr(t, "kernel_s", None) for t in tasks],
        "speed_exponent": wl.speed_exponent,
        "missing_trace_points": Tracer.missing(workloads.TRACE_POINTS),
        "runtime_warnings": getattr(wl, "runtime_warnings", 0),
    }
    if wl.tail_pct is not None and latencies:
        p50, tail = np.percentile(latencies, [50.0, wl.tail_pct])
        result["op_latency"] = {
            "op_p50_s": float(p50),
            "op_tail_s": float(tail),
            "tail_percentile": wl.tail_pct,
            "samples": len(latencies),
            "beyond_tail": int(np.sum(np.asarray(latencies) > tail)),
        }
    if args.trace:
        result["metrics"] = per_layer(wl, tasks, tracer, first_quad_s)
        result["module_self_s"] = tracer.module_self_s()
        trace_path = OUT / f"trace-{wl.name}.spans"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        result["metrics"] = end_to_end(wl, plain, setup_s)
        result["raw_wall_s"] = statistics.median(t.wall_s for t in plain)
    result.update(setup)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
