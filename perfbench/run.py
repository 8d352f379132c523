"""critwave benchmark: one seeded workload per fresh process, BLAS on one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-check

Workloads: dispersal, blowup, profiles, oracle (see perfbench/README.md).
With --trace 0 the result holds the end-to-end metrics (tracing off); with
--trace 1 it holds the per-layer metrics of a traced run. The last line of
standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Lines before it are a readable table and a "# detail" JSON line with the
environment, sizes, op latency percentiles and check failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("dispersal", "blowup", "profiles", "oracle")
SETUP_PROBES = 6  # fresh processes timed for setup_s, besides the workload's own
RUN_LIMIT_S = 175.0
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONSTARTUP", None)
    return env


def spawn(args: list, deadline: float) -> dict:
    """Start worker.py with args, wait for it, return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--spawn-time", repr(time.time()), *args]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None  # the checkout may not be a git repository
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.split()
        commit = head if Path(top).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        digest.update(str(p.relative_to(SRC)).encode())
        digest.update(p.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "blas_threads": BLAS_ENV,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Setup probes plus one workload process; returns detail and metrics."""
    keys = ("setup_s", "setup_raw_s", "setup_kernel_s")
    probes = [] if trace else [spawn(["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    res = spawn(
        ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace))],
        deadline,
    )
    if not trace:
        probes.append(res)
        res["metrics"]["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        res["setup_samples"] = {k: [p[k] for p in probes] for k in keys}
    return res


def result_line(results: list, trace: bool, prefix: bool) -> dict:
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec()[kind]}
    metrics = {}
    for res in results:
        for key, unit in units.items():
            name = f"{res['workload']}.{key}" if prefix else key
            metrics[name] = {"value": res["metrics"][key], "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_table(res: dict, trace: bool) -> None:
    kind = "per_layer" if trace else "end_to_end"
    w = res["workload"]
    print(f"== {w}: {res['tasks']} tasks, {res['attempted']} ops, {res['failed']} failed")
    rows = [(m["name"], res["metrics"][m["name"]], m["unit"]) for m in spec()[kind]]
    if "raw_wall_s" in res:
        rows.append(("raw_wall_s (not scaled to the reference speed)", res["raw_wall_s"], "s"))
    rows.append(("ops_failed_frac", res["failed"] / max(res["attempted"], 1), "frac"))
    lat = res.get("op_latency")
    if lat:
        rows.append(("op_p50_s", lat["op_p50_s"], "s"))
        rows.append((f"op_tail_s (p{lat['tail_percentile']:g} of {lat['samples']})", lat["op_tail_s"], "s"))
    for name, value, unit in rows:
        print(f"  {name:<44} {value:>14.6g} {unit}")
    if trace:
        total = res["metrics"]["bench.traced_wall_s"] * res["traced_tasks"]
        shares = ", ".join(
            f"{mod} {100 * s / total:.1f}%" for mod, s in
            sorted(res["module_self_s"].items(), key=lambda kv: -kv[1]))
        print(f"  self-time shares of traced wall: {shares}")
    for f in res["failures"]:
        print(f"  FAILED: {f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "critwave" / "__init__.py").is_file():
        print(f"run.py: no critwave sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return subprocess.run(
            [sys.executable, str(HERE / "selfcheck.py")], cwd=ROOT, env=child_env()).returncode
    if args.workload is None:
        ap.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    start = time.monotonic()
    results = []
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            res = run_workload(name, args.seed, seconds, trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
        print_table(res, trace)
        results.append(res)
    detail = {
        "environment": environment(args.seed),
        "seconds": seconds,
        "trace": trace,
        "elapsed_s": time.monotonic() - start,
        "workloads": {r["workload"]: {k: v for k, v in r.items() if k != "metrics"} for r in results},
    }
    print("# detail " + json.dumps(detail))
    print(json.dumps(result_line(results, trace, prefix=len(results) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
