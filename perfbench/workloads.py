"""The benchmark's four workloads, their seeded inputs and output checks.

Every workload calls critwave only through its public functions and the
``critwave`` CLI entry point (``critwave.cli.main``). A task is the unit
the benchmark times (``wall_s``); a task is made of one or more operations,
each checked on its own and counted as failed if it raises or if its output
fails the check.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from critwave import analysis, cli, dalembert, ground_state, profiles, solver
from critwave.ground_state import GroundStateParams, energy, eval_w
from critwave.mesh import FieldState, RadialMesh, Region
from critwave.radial import gaussian_bump

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _step_nodes(args) -> int:
    return args[0].h.size


# (span name, owner, attribute, other namespaces binding the same object,
#  work counter). Names are patched where they are looked up: `energy` is
# imported into solver, analysis and cli, and `step` into analysis.
TRACE_POINTS = [
    ("solver.run", solver, "run", (), None),
    ("solver.step", solver, "step", (analysis,), _step_nodes),
    ("solver.save_snapshot", solver, "save_snapshot", (), None),
    ("solver.load_snapshot", solver, "load_snapshot", (), None),
    ("ground_state.energy", ground_state, "energy", (solver, analysis, cli), None),
    ("ground_state.w_constants", ground_state, "w_constants", (analysis,), None),
    ("mesh.integrate", RadialMesh, "integrate", (), None),
    ("mesh.spacing", RadialMesh, "spacing", (), None),
    ("mesh.is_uniform", RadialMesh, "is_uniform", (), None),
    ("analysis.diagnostics_series", analysis, "diagnostics_series", (), None),
    ("analysis.concentration_radii", analysis, "concentration_radii", (), None),
    ("analysis.virial_series", analysis, "virial_series", (), None),
    ("analysis.g_r_series", analysis, "g_r_series", (), None),
    ("analysis.d_functional", analysis, "d_functional", (), None),
    ("analysis.sign_projection", analysis, "sign_projection", (), None),
    ("analysis.fit_exponent", analysis, "fit_exponent", (), None),
    ("profiles.extract", profiles, "extract", (), None),
    ("profiles.correlate_scale", profiles, "correlate_scale", (), None),
    ("profiles.pythagorean_check", profiles, "pythagorean_check", (), None),
    ("dalembert.channel_check", dalembert, "channel_check", (), None),
    ("dalembert.int_dF_sq", dalembert.OneDWaveData, "int_dF_sq", (), None),
    ("dalembert.evolve", dalembert, "evolve", (), None),
    ("dalembert.reduce", dalembert, "reduce", (), None),
    ("dalembert.build_F", dalembert, "build_F", (), None),
    ("cli.simulate", cli, "cmd_simulate", (), None),
    ("cli.analyze", cli, "cmd_analyze", (), None),
]


@dataclass
class Task:
    """One timed task: its wall time and the per-operation outcomes."""

    wall_s: float
    op_latency_s: list = field(default_factory=list)  # latency samples for op_p50/op_tail
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # one-line reasons, first few kept

    def op(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(reason)


class Workload:
    name = ""
    min_tasks = 1
    tail_pct: float | None = None  # tail percentile of op latency, if reported
    speed_exponent = 1.0  # see speed.py

    def __init__(self, seed: int, out_dir: Path, clock=time.perf_counter):
        self.seed = seed
        self.out_dir = out_dir
        self.clock = clock  # what operations are timed with
        self.rng = np.random.default_rng(seed)
        self.accuracy: dict[str, float] = {}
        self.io: dict[str, float] = {}

    def timed(self, fn, *args):
        """One operation: (result, seconds, error); error is "" unless fn raised."""
        t0 = self.clock()
        try:
            out, err = fn(*args), ""
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
            out, err = None, f"{type(exc).__name__}: {exc}"[:200]
        return out, self.clock() - t0, err

    @property
    def min_samples(self) -> int:
        """Latency samples needed for >= 10 beyond the tail percentile."""
        if self.tail_pct is None:
            return 0
        return math.ceil(10.0 / (1.0 - self.tail_pct / 100.0) - 1e-9)

    def sizes(self) -> dict:
        raise NotImplementedError

    def task(self, index: int) -> Task:
        raise NotImplementedError

    def _worst(self, key: str, value: float, higher_is_worse: bool = True) -> None:
        old = self.accuracy.get(key)
        if old is None or (value > old if higher_is_worse else value < old):
            self.accuracy[key] = float(value)


# ------------------------------------------------------------------ dispersal


class Dispersal(Workload):
    name = "dispersal"
    speed_exponent = 0.7
    min_tasks = 3

    def __init__(self, seed, out_dir, clock=time.perf_counter):
        super().__init__(seed, out_dir, clock)
        self.delta = float(self.rng.uniform(-0.11, -0.09))
        self.config = solver.RunConfig(
            mesh_h=0.005, rmax=26.0, t_end=10.0, family="near_w", output_every=0.5,
            params={"delta": self.delta, "lambda": 0.05, "r_cut": 8.0},
        )

    def sizes(self):
        dt = self.config.cfl * self.config.mesh_h
        return {
            "delta": self.delta,
            "nodes": self.config.mesh().nodes.size,
            "steps": int(np.ceil((self.config.t_end - 1e-12) / dt)),
            "snapshots": int(round(self.config.t_end / self.config.output_every)) + 1,
            "operations_per_task": 1,
        }

    def _run(self):
        rep = solver.run(self.config)
        e0 = energy(rep.snapshots[0], Region.ball(5.0))
        e1 = energy(rep.snapshots[-1], Region.ball(5.0))
        return rep, (e1.gradient_sq + e1.kinetic_sq) / (e0.gradient_sq + e0.kinetic_sq)

    def task(self, index):
        out, dt, err = self.timed(self._run)
        task = Task(wall_s=dt)
        if err:
            task.op(False, err)
            return task
        rep, ratio = out
        self._worst("solver.energy_drift", rep.energy_drift)
        self._worst("ball_energy_ratio", ratio)
        task.op(
            rep.outcome == "Completed" and ratio <= 0.10,
            f"outcome={rep.outcome} ball ratio={ratio:.4g} (need Completed, <= 0.10)",
        )
        return task


# --------------------------------------------------------------------- blowup

BLOWUP_DELTAS = tuple(round(0.045 + 0.001 * k, 4) for k in range(11))
BLOWUP_CONFIG = {
    "mesh": {"h": 0.005, "rmax": 12.0},
    "t_end": 20.0,
    "output": {"every": 0.005},
    "data": {"family": "near_w", "lambda": 1.0},
}
# t* is detected on the step grid (dt = 0.0025); the tolerance admits a
# different stepper of the same order, not a different outcome.
T_STAR_RTOL = 0.01


def blowup_config(delta: float) -> dict:
    cfg = json.loads(json.dumps(BLOWUP_CONFIG))
    cfg["data"]["delta"] = delta
    return cfg


def _digest_tree(root: Path) -> dict:
    """sha256 per file; manifest.json without its timestamps."""
    out = {}
    for p in sorted(root.rglob("*")):
        if not p.is_file():
            continue
        blob = p.read_bytes()
        if p.name == "manifest.json":
            doc = json.loads(blob)
            doc.pop("started", None)
            doc.pop("finished", None)
            blob = json.dumps(doc, sort_keys=True).encode()
        out[str(p.relative_to(root))] = hashlib.sha256(blob).hexdigest()
    return out


def _csv_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


class Blowup(Workload):
    name = "blowup"
    speed_exponent = 1.45
    min_tasks = 2  # the artifacts of repeats are compared byte for byte

    def __init__(self, seed, out_dir, clock=time.perf_counter):
        super().__init__(seed, out_dir, clock)
        self.delta = BLOWUP_DELTAS[int(self.rng.integers(len(BLOWUP_DELTAS)))]
        ref = json.loads(REFERENCE.read_text())["blowup"][repr(self.delta)]
        self.ref_t_star = float(ref["t_star"])
        self.ref_snapshots = int(ref["snapshots"])
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.out_dir / "blowup.json"
        self.config_path.write_text(json.dumps(blowup_config(self.delta)) + "\n")
        self.first_digest: dict | None = None
        self.runtime_warnings = 0

    def sizes(self):
        return {
            "delta": self.delta,
            "nodes": RadialMesh.uniform(0.005, 12.0).nodes.size,
            "steps": int(round(self.ref_t_star / 0.0025)) + 1,
            "snapshots": self.ref_snapshots,
            "operations_per_task": 2,
        }

    def task(self, index):
        run_dir = self.out_dir / f"run{index % 2}"
        shutil.rmtree(run_dir, ignore_errors=True)
        ana_dir = run_dir / "analysis"
        radii = ["--ball-radius", "1", "--g-radius", "4", "--quiet"]
        task = Task(wall_s=0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            code, dt, err = self.timed(cli.main, ["simulate", "--config", str(self.config_path),
                                                  "--out", str(run_dir), *radii])
        task.wall_s += dt
        self.runtime_warnings += len(caught)
        if code != 0:
            task.op(False, f"simulate: {err or f'exit {code}'}")
            return task
        try:
            rep = json.loads((run_dir / "report.json").read_text())
            t_star = rep["t_star"]
            n_snap = len(list((run_dir / "snapshots").glob("snap_*.csv")))
            rows = _csv_rows(run_dir / "series.csv")
        except (OSError, KeyError, ValueError) as exc:
            task.op(False, f"simulate outputs: {type(exc).__name__}: {exc}")
            return task
        ok_t = t_star is not None and abs(t_star - self.ref_t_star) <= T_STAR_RTOL * self.ref_t_star
        task.op(
            rep["outcome"] == "BlowUpDetected" and ok_t and rows == n_snap == len(rep["snapshot_times"]),
            f"outcome={rep['outcome']} t*={t_star} (ref {self.ref_t_star}) "
            f"series rows={rows} snapshots={n_snap}",
        )
        self._worst("solver.energy_drift", rep["energy_drift"])
        if t_star is None:
            task.op(False, "analyze skipped: simulate reported no t*")
            return task
        self.accuracy["solver.t_star"] = float(t_star)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, dt, err = self.timed(cli.main, ["analyze", str(run_dir), "--out", str(ana_dir),
                                                  "--t-est", repr(float(t_star)), *radii])
        task.wall_s += dt
        if code != 0:
            task.op(False, f"analyze: {err or f'exit {code}'}")
            return task
        files = [p for p in run_dir.rglob("*") if p.is_file()]
        self.io = {"files_written": len(files), "bytes_written": sum(p.stat().st_size for p in files)}
        digest = _digest_tree(run_dir)
        if self.first_digest is None:
            self.first_digest = digest
        same = digest == self.first_digest
        rows = _csv_rows(ana_dir / "series.csv")
        task.op(
            rows == n_snap and (ana_dir / "fit.json").exists() and same,
            f"analyze series rows={rows} (want {n_snap}) byte-identical to the first task={same}",
        )
        return task


# ------------------------------------------------------------------- profiles

PROFILE_FIELDS = 400  # indices 0..399 of test 10's generator, all recovered when this was defined
PROFILE_PER_CLASS = 6  # fields per bubble count (1, 2, 3) in one task


def bubble_field(index: int, r: np.ndarray):
    """Test 10's generator: 1-3 signed bubbles 10^4.5 apart plus a small bump."""
    rng = np.random.default_rng(index)
    nb = int(rng.integers(1, 4))
    lams, iotas = [], []
    lam = 10.0 ** rng.uniform(-0.3, 0.3) * 1e-4
    for _ in range(nb):
        lams.append(lam)
        iotas.append(int(rng.choice([-1, 1])))
        lam *= 10.0**4.5 * 10.0 ** rng.uniform(0.0, 0.3)
    u = np.zeros_like(r)
    for lam_j, iota_j in zip(lams, iotas):
        u += eval_w(r, GroundStateParams(lam=lam_j, iota=iota_j))
    u += 1e-3 * np.exp(-((r - 1.0) ** 2))
    return u, sorted(zip(lams, iotas))


class Profiles(Workload):
    name = "profiles"
    speed_exponent = 1.15
    tail_pct = 90.0

    def __init__(self, seed, out_dir, clock=time.perf_counter):
        super().__init__(seed, out_dir, clock)
        self.mesh = RadialMesh.graded(1e-8, 1e6, 48)
        r = self.mesh.nodes
        self.fields = {}
        by_count: dict[int, list] = {1: [], 2: [], 3: []}
        for i in range(PROFILE_FIELDS):
            u, want = bubble_field(i, r)
            self.fields[i] = (FieldState.from_u(self.mesh, u, np.zeros_like(r)), want)
            by_count[len(want)].append(i)
        self.by_count = by_count
        self.min_tasks = math.ceil(self.min_samples / (3 * PROFILE_PER_CLASS))
        self.recovered = 0
        self.extracted = 0

    def sizes(self):
        return {
            "nodes": self.mesh.nodes.size,
            "field_population": PROFILE_FIELDS,
            "operations_per_task": 3 * PROFILE_PER_CLASS,
        }

    def _batch(self) -> list:
        """Seeded indices, PROFILE_PER_CLASS of each bubble count, in seeded order."""
        picks = []
        for nb in (1, 2, 3):
            pool = self.by_count[nb]
            picks += [pool[j] for j in self.rng.choice(len(pool), PROFILE_PER_CLASS, replace=False)]
        return [picks[j] for j in self.rng.permutation(len(picks))]

    @staticmethod
    def _extract(state):
        d = profiles.extract(state, max_bubbles=3, lam_range=(1e-5, 1e5))
        return d, profiles.pythagorean_check(d)

    def task(self, index):
        task = Task(wall_s=0.0)
        for i in self._batch():
            state, want = self.fields[i]
            out, dt, err = self.timed(self._extract, state)
            task.wall_s += dt
            task.op_latency_s.append(dt)
            if err:
                task.op(False, f"field {i}: {err}")
                continue
            d, py = out
            got = sorted((b.lam, b.iota) for b in d.bubbles)
            ok = len(got) == len(want) and all(
                abs(gl / wl - 1.0) <= 0.01 and gi == wi for (gl, gi), (wl, wi) in zip(got, want)
            )
            rel = py.relative_defect
            self._worst("profiles.pythagorean_defect_max", rel)
            self.extracted += 1
            self.recovered += bool(ok)
            task.op(ok and rel <= 0.02, f"field {i}: got {got} want {want} defect {rel:.3g}")
        self.accuracy["profiles.recovered_frac"] = self.recovered / max(self.extracted, 1)
        return task


# --------------------------------------------------------------------- oracle

ORACLE_HS = (0.02, 0.01, 0.005, 0.0025)
ORACLE_RMAX = 12.0
ORACLE_T_END = 4.0
CHANNEL_BATCH = 1000
CHANNEL_BAND = (1.0, 2.5)


class Oracle(Workload):
    name = "oracle"
    speed_exponent = 1.2
    tail_pct = 99.0

    def __init__(self, seed, out_dir, clock=time.perf_counter):
        super().__init__(seed, out_dir, clock)
        self.amp = float(self.rng.uniform(0.8, 1.2))
        self.sigma = float(self.rng.uniform(0.7, 0.9))
        self.center = float(self.rng.uniform(2.5, 3.5))
        self.channel_rng = np.random.default_rng([seed, 1])
        self.min_tasks = math.ceil(self.min_samples / CHANNEL_BATCH)

    def sizes(self):
        return {
            "bump": {"amp": self.amp, "sigma": self.sigma, "center": self.center},
            "ladder_h": list(ORACLE_HS),
            "ladder_nodes": [int(round(ORACLE_RMAX / h)) + 1 for h in ORACLE_HS],
            "ladder_steps": [int(np.ceil((ORACLE_T_END - 1e-12) / (0.5 * h))) for h in ORACLE_HS],
            "oracle_knots": [int(round(ORACLE_RMAX / (h * h / 0.04))) + 1 for h in ORACLE_HS],
            "channel_checks_per_task": CHANNEL_BATCH,
            "operations_per_task": 1 + CHANNEL_BATCH,
        }

    def _ladder(self) -> list:
        g = gaussian_bump(self.amp, self.sigma, self.center)
        errs = []
        for h in ORACLE_HS:
            cfg = solver.RunConfig(
                mesh_h=h, rmax=ORACLE_RMAX, t_end=ORACLE_T_END, nonlinear=False,
                output_every=ORACLE_T_END, family="bump",
                params={"amp": self.amp, "sigma": self.sigma, "center": self.center},
            )
            final = solver.run(cfg).snapshots[-1]
            r = final.mesh.nodes
            hf = h * h / 0.04  # the oracle's projection grid refines faster than h
            fine = np.linspace(0.0, ORACLE_RMAX, int(round(ORACLE_RMAX / hf)) + 1)
            data = dalembert.reduce(g, lambda x: np.zeros_like(np.asarray(x, float)), fine)
            exact = dalembert.evolve(dalembert.build_F(data), final.t)
            f_ex = np.interp(r, exact.knots, exact.f0, right=exact.f0[-1])
            ft_ex = exact.f1[np.clip(np.searchsorted(exact.knots, r) - 1, 0, exact.f1.size - 1)]
            dfe = np.gradient(final.h - f_ex, r, edge_order=2)
            errs.append(math.sqrt(final.mesh.integrate(dfe**2 + (final.hdot - ft_ex) ** 2)))
        return errs

    @staticmethod
    def _channel(data):
        return dalembert.channel_check(dalembert.build_F(data), *CHANNEL_BAND)

    def task(self, index):
        batch = [dalembert.random_data(self.channel_rng) for _ in range(CHANNEL_BATCH)]
        errs, dt, err = self.timed(self._ladder)
        task = Task(wall_s=dt)
        if err:
            task.op(False, f"ladder: {err}")
        else:
            orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
            self._worst("solver.oracle_order_min", min(orders), higher_is_worse=False)
            task.op(min(orders) >= 1.9, f"ladder errors={errs} orders={orders} (need >= 1.9)")
        for data in batch:
            rep, dt, err = self.timed(self._channel, data)
            task.wall_s += dt
            task.op_latency_s.append(dt)
            if err:
                task.op(False, f"channel_check: {err}")
                continue
            self._worst("dalembert.worst_min_ratio", rep.min_ratio, higher_is_worse=False)
            task.op(rep.min_ratio >= 0.5 - 1e-12, f"channel min_ratio={rep.min_ratio!r} < 1/2")
        return task


WORKLOADS = {w.name: w for w in (Dispersal, Blowup, Profiles, Oracle)}
