"""Self-check of the benchmark harness on tiny configs (a few seconds).

    python3 perfbench/run.py --self-check

Asserts the tracer's arithmetic, exact layer counts on a tiny solver run
and a tiny `critwave simulate`, that a deliberately failing output check
is counted in the failed operations, and that the speed probe samples on
its timer and leaves its own time out of the task clock.
"""

from __future__ import annotations

import math
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from critwave import cli, solver  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import PERIOD_S, SpeedProbe  # noqa: E402

TINY = {"mesh_h": 0.05, "rmax": 4.0, "t_end": 0.5, "output_every": 0.1, "family": "bump",
        "params": {"amp": 0.3, "sigma": 1.0, "center": 2.0}}


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"self-check FAILED: {what}")
    print(f"ok  {what}")


class _Toy:
    @staticmethod
    def inner(n):
        return sum(range(n))

    @staticmethod
    def outer(n):
        return _Toy.inner(n) + _Toy.inner(2 * n)


def tracer_arithmetic() -> None:
    tr = Tracer()
    inner, outer = _Toy.__dict__["inner"], _Toy.__dict__["outer"]
    points = [("toy.outer", _Toy, "outer", (), None), ("toy.inner", _Toy, "inner", (), lambda a: a[0])]
    with tr.installed(points):
        for _ in range(3):
            _Toy.outer(20000)
    check(_Toy.__dict__["inner"] is inner and _Toy.__dict__["outer"] is outer,
          "uninstall restores the original attributes")
    c_out, incl_out, self_out, _ = tr.stats("toy.outer")
    c_in, incl_in, self_in, work_in = tr.stats("toy.inner")
    check((c_out, c_in, work_in) == (3, 6, 3 * 60000), "call and work counts are exact")
    check(self_in == incl_in and math.isclose(self_out + self_in, incl_out, rel_tol=1e-9),
          "self times add up to the root span's inclusive time")
    n = len(tr.span_start)
    check(n == 9 and all(tr.span_parent[i] == -1 for i in range(n) if tr.names[tr.span_name[i]] == "toy.outer")
          and all(tr.names[tr.span_name[tr.span_parent[i]]] == "toy.outer"
                  for i in range(n) if tr.names[tr.span_name[i]] == "toy.inner"),
          "spans carry name and parent")
    check(all(tr.span_end[i] >= tr.span_start[i] for i in range(n)), "spans end after they start")


def tiny_solver_run() -> None:
    cfg = solver.RunConfig(**TINY)
    tr = Tracer()
    with tr.installed(workloads.TRACE_POINTS):
        rep = solver.run(cfg)
    dt = cfg.cfl * cfg.mesh_h
    steps = math.ceil((cfg.t_end - 1e-12) / dt)
    nodes = cfg.mesh().nodes.size
    check(tr.stats("solver.step")[0] == steps, f"solver.step_calls == ceil(t_end/dt) == {steps}")
    check(tr.stats("solver.step")[3] == steps * nodes, f"solver.node_steps == {steps} x {nodes}")
    check(tr.stats("ground_state.energy")[0] == len(rep.snapshots),
          f"ground_state.energy_calls == snapshots == {len(rep.snapshots)}")
    check(tr.stats("solver.run")[0] == 1, "solver.run traced once")


def tiny_cli_run() -> None:
    tmp = Path(tempfile.mkdtemp(prefix="perfbench-selfcheck-", dir=ROOT))
    try:
        cfg = tmp / "c.json"
        cfg.write_text(
            '{"mesh": {"h": 0.05, "rmax": 4.0}, "t_end": 0.5, "output": {"every": 0.1},'
            ' "data": {"family": "bump", "amp": 0.3, "sigma": 1.0, "center": 2.0}}')
        tr = Tracer()
        with tr.installed(workloads.TRACE_POINTS):
            code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp / "run"), "--quiet"])
        check(code == 0, "tiny critwave simulate exits 0")
        snaps = len(list((tmp / "run" / "snapshots").glob("*.csv")))
        files = len([p for p in (tmp / "run").rglob("*") if p.is_file()])
        check(tr.stats("solver.save_snapshot")[0] == snaps, f"solver.save_snapshot_calls == {snaps} files")
        check(files == snaps + 3, "simulate writes snapshots + series.csv + report.json + manifest.json")
        check(tr.stats("cli.simulate")[0] == 1 and tr.stats("solver.run")[0] == 1,
              "cli.simulate wraps exactly one solver.run")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def failing_check_counts() -> None:
    wl = workloads.Profiles(seed=0, out_dir=ROOT / ".perfbench-out" / "selfcheck")
    wl._batch = lambda: [0, 1, 2]
    state, want = wl.fields[0]
    wl.fields[0] = (state, [(lam * 1.1, iota) for lam, iota in want])  # wrong expected scale
    task = wl.task(0)
    check(task.attempted == 3 and task.failed == 1,
          f"a deliberately failing check counts: ops_failed_frac = {task.failed}/{task.attempted}")


def tail_sample_minimums() -> None:
    p = workloads.Profiles.__new__(workloads.Profiles)
    o = workloads.Oracle.__new__(workloads.Oracle)
    check((p.min_samples, o.min_samples) == (100, 1000),
          "p90 needs 100 samples and p99 needs 1000 (10 beyond the tail)")


def speed_probe() -> None:
    probe = SpeedProbe()
    handler = signal.getsignal(signal.SIGALRM)
    t0, c0 = time.perf_counter(), probe.clock()
    with probe.sampling() as first:
        end = time.perf_counter() + 3.5 * PERIOD_S
        while time.perf_counter() < end:
            pass
    wall, work = time.perf_counter() - t0, probe.clock() - c0
    n = len(probe.samples) - first
    check(n >= 5, f"the probe samples at entry, every {PERIOD_S} s and at exit ({n} samples)")
    check(signal.getsignal(signal.SIGALRM) is handler and signal.getitimer(signal.ITIMER_REAL)[0] == 0.0,
          "the probe restores the SIGALRM handler and stops its timer")
    check(math.isclose(wall - work, probe.paused, abs_tol=1e-6) and probe.paused >= sum(probe.samples) > 0.0,
          "the probe's clock leaves out the time spent in the probe")


def main() -> int:
    tracer_arithmetic()
    tiny_solver_run()
    tiny_cli_run()
    failing_check_counts()
    tail_sample_minimums()
    speed_probe()
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
