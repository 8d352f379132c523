"""Command-line front end: simulation runs, d'Alembert checks, diagnostics,
profile extraction, and parameter sweeps.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 runtime
failure, 4 channel-check violation (always an implementation bug). Every
input check, a command's own included, raises InvalidConfigError, and only
`main` turns it into exit 2 and the line `<command>: <message>`. A file
named on the command line that cannot be read is such an input; one inside a
run directory that `analyze` reads is not. `main` maps any other OSError or
CritwaveError to 3 and the same line. A d'Alembert mode's command is
`dalembert check` or `dalembert evolve` in both. A config is checked whole,
data.* keys too, when built, before anything is written: `simulate`'s and
`sweep`'s template (itself a valid config) exit 2, a sweep cell's fails the
cell, and a report.json's makes `analyze` exit 3.

A run directory holds each frame twice: `snapshots/snap_NNNN.csv`, the r, u,
u_t text that `profiles` and the `csv` data family read, and
`frames/frame_NNNN.npy`, the solver's own (h, hdot) as the bytes `np.save`
writes for a (2, nodes) float64 array on the config's mesh. `analyze` reads
only the frames, so its rows are formed from the arrays that `simulate`'s were.

`simulate` runs the solve once, in its own process, and writes each frame's
.npy file as the solve makes it. Then it makes the same frame pass as
`analyze`, `_frame_pass`: the frames are read back one at a time and each
is reduced to its diagnostics row, and `simulate` also writes its snapshot
CSV. One fan-out, `_in_parallel`, spreads every command's work over the
CPUs of the process's affinity mask: it forks its workers directly, and
each sends its result back pickled over a pipe. The frame pass splits a run's frames once
the run has `_FAN_OUT_MIN_ROWS` rows, so no process holds a run's frames;
`analyze --split-index k` passes the frames before k, and its own process
steps v beside the rest (`analysis.singular_part`). `sweep` splits its
cells whenever it has two or more; a lone cell's frame pass splits its
own frames.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import pickle
import signal
import sys
import time
from collections.abc import Sequence
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CritwaveError, DegenerateInputError, InvalidConfigError, InvalidDataError, InvalidParameterError
from . import analysis, dalembert, profiles, solver, table
from .mesh import FieldState, RadialMesh

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CHANNEL = 4


# ----------------------------------------------------------------- manifest


def _write_json(payload, path: Path, sort_keys: bool = False) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def _config_hash(config: solver.RunConfig) -> str:
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _iso_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


# ------------------------------------------------------------ snapshot shares

# Simulate then analyze in one process on a shared 2-vCPU host, fanned out
# against serial in sessions of 10 to 12 alternating pairs: by rows (frames
# times nodes), the pairs the fan-out won in each session, and one session's
# median times, serial -> fanned out:
#     8421: 2/12 (43 -> 59 ms)               16807: 2/10 (49 -> 70 ms)
#    24010: 8/10, 0/12 (81 -> 118 ms)        33614: 10/10, 9/12 (150 -> 118 ms)
#    45619: 7/10, 12/12 (216 -> 166 ms)      60025: 10/12, 9/10 (229 -> 182 ms)
#   120050: 11/12 (409 -> 293 ms)           240100: 11/12 (605 -> 490 ms)
# The break-even moves between sessions within 17k-34k rows (in one, the
# fan-out won 0 of 8 pairs at 33621), so runs under 60000 rows stay serial.
# These pairs were timed with a process pool, before _in_parallel forked
# its workers directly. Hosts with more than 2 CPUs have not been measured.
_FAN_OUT_MIN_ROWS = 60_000

_fanning_out = False  # True while _in_parallel fans out, here and in its workers


def _in_parallel(fn, items: int) -> list:
    """[fn(0, k), ..., fn(k - 1, k)], one call in each of k processes: this
    process makes fn(0, k) while k - 1 workers, forked directly, make one
    call each.

    The calls share out `items` things, call j taking items j, j + k,
    j + 2k, ...; k is the number of CPUs in this process's affinity mask, or
    `items` if that is fewer. A worker inherits fn, and all that it reads,
    from this process's memory, so nothing is sent to it; its result, or the
    exception fn raised, comes back pickled over its own pipe, and it leaves
    by os._exit. This process reads the pipes in order once its own call has
    returned, and reaps every worker before it returns or raises. An
    exception that fn raises in a worker is raised here; one raised here,
    in this process's own call or by a worker's, kills the workers still
    running (SIGKILL) first. A worker that ends without sending its result
    raises ChildProcessError, an OSError, naming it and its wait status.

    k is 1 where the mask cannot be read, and inside any call made during a
    fan-out, in a worker or in this process's own share (a sweep cell), so
    that fan-outs never nest.
    """
    global _fanning_out
    k = 1
    if not _fanning_out and hasattr(os, "sched_getaffinity"):
        k = min(len(os.sched_getaffinity(0)), items)
    if k <= 1:
        return [fn(0, 1)]
    _fanning_out = True  # before the forks, so that the workers inherit it
    workers = {}  # pid -> the read end of its pipe, for each worker not yet reaped
    try:
        for j in range(1, k):
            fd, child_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(fd)
                _run_worker(fn, j, k, child_fd)
            os.close(child_fd)
            workers[pid] = open(fd, "rb")
        results = [fn(0, k)]
        for j, (pid, pipe) in enumerate(list(workers.items()), 1):
            with pipe:
                sent = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            if not sent or status:
                raise ChildProcessError(f"worker {j} ended without sending its result (wait status {status})")
            ok, value = pickle.loads(sent)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe in workers.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
        _fanning_out = False


def _run_worker(fn, j: int, k: int, fd: int):
    """A forked worker's life, which never returns: fn(j, k), or the
    exception it raised, pickled as (ok, value) to fd, then os._exit, with
    status 0 once all is sent."""
    status = 1
    try:
        try:
            sent = True, fn(j, k)
        except Exception as exc:  # noqa: BLE001 - sent to the parent, which raises it
            sent = False, exc
        with open(fd, "wb") as pipe:
            pipe.write(pickle.dumps(sent))
        status = 0
    finally:
        os._exit(status)


def _interleaved(shares: list) -> list:
    """The items of k shares, share j holding items j, j + k, ..., in order."""
    items = [None] * sum(map(len, shares))
    for j, share in enumerate(shares):
        items[j::len(shares)] = share
    return items


def _frame_pass(frames: _RunFrames, row, snapdir: Path | None = None) -> list:
    """[row(0, frames[0]), row(1, frames[1]), ...], and with snapdir each
    frame's snapshot CSV written there as snapshots/snap_NNNN.csv.

    `_in_parallel`'s processes share out the frames, each reading its own
    one at a time, so no process holds a run's frames. A run of fewer than
    `_FAN_OUT_MIN_ROWS` rows, its frames times its nodes, stays in this
    process.
    """
    n = len(frames)

    def share(j, k):
        rows = []
        for i in range(j, n, k):
            state = frames[i]
            if snapdir is not None:
                solver.save_snapshot(state, snapdir / f"snap_{i:04d}.csv")
            rows.append(row(i, state))
        return rows

    return _interleaved(_in_parallel(share, n if n * frames.mesh.nodes.size >= _FAN_OUT_MIN_ROWS else 1))


# ------------------------------------------------------------- simulate logic


def _simulate_into(config: solver.RunConfig, out: Path, ball_radii, g_radii):
    """Run config and write its run directory under out: the snapshots, the
    frames, series.csv, report.json and manifest.json. Returns the report, which
    keeps no snapshots, and the diagnostics series written.

    This process builds the config's mesh and initial data once, before it
    writes anything, runs the solve once and writes each frame's (h, hdot)
    as it is made, holding no more than one frame. `_frame_pass` then reads
    the frames back on that mesh, as `analyze` does, to write their
    snapshots and reduce each to its diagnostics row.
    """
    started = _iso_now()
    mesh = config.mesh()
    initial = solver.make_initial_data(mesh, config.family, config.params)
    snapdir, framedir = out / "snapshots", out / "frames"
    snapdir.mkdir(parents=True, exist_ok=True)
    framedir.mkdir(exist_ok=True)

    def on_frame(i, state):
        np.save(framedir / f"frame_{i:04d}.npy", np.stack((state.h, state.hdot)))

    report = solver.run(config, initial=initial, on_frame=on_frame)
    frames = _RunFrames(framedir, report.times.tolist(), mesh)
    row = analysis.row_function(frames.mesh, tuple(ball_radii), tuple(g_radii))
    series = analysis.assemble_series(report, _frame_pass(frames, row, snapdir))
    series.to_csv(out / "series.csv")
    n, nodes = len(frames), frames.mesh.nodes.size
    files = {f"snapshots/snap_{i:04d}.csv": nodes for i in range(n)}
    files.update((f"frames/frame_{i:04d}.npy", nodes) for i in range(n))
    files["series.csv"] = n

    _write_json({
        "outcome": report.outcome,
        "t_star": report.t_star,
        "energy_drift": report.energy_drift,
        "contamination_time": report.contamination_time,
        "snapshot_times": [float(t) for t in report.times],
        "final_time": float(report.times[-1]),
        "config": asdict(config),
    }, out / "report.json")
    files["report.json"] = 1

    _write_json({
        "config_hash": _config_hash(config),
        "version": __version__,
        "started": started,
        "finished": _iso_now(),
        "outcome": report.outcome,
        "files": files,  # relative path -> row count (of a .npy file, its nodes)
    }, out / "manifest.json", sort_keys=True)
    return report, series


def _fit(series: analysis.DiagnosticsSeries, t_est: float):
    """The exponent fit of the series' lambda1 against t_est, or None where
    it cannot be made."""
    try:
        return analysis.fit_exponent(series.data["t"], series.data["lambda1"], t_est)
    except CritwaveError:
        return None


def _check_radii(args) -> None:
    """Refuse --ball-radius or --g-radius values that would name one column
    twice, before anything is read or written."""
    try:
        analysis.radius_columns(args.ball_radius, args.g_radius)
    except InvalidParameterError as exc:
        raise InvalidConfigError(str(exc)) from exc


def cmd_simulate(args) -> int:
    _check_radii(args)
    config = solver.load_config(args.config)
    report, _ = _simulate_into(config, _out_dir(args), args.ball_radius, args.g_radius)
    if not args.quiet:
        print(f"{report.outcome} t_star={report.t_star} drift={report.energy_drift:.3e}")
    return EXIT_OK


# ------------------------------------------------------------------ dalembert


def cmd_check(args) -> int:
    if args.n < 0:
        raise InvalidConfigError("--n must be >= 0")
    rng = np.random.default_rng(args.seed)
    worst = np.inf
    try:
        for _ in range(args.n):
            data = dalembert.random_data(rng)
            wave = dalembert.build_F(data)
            r1 = args.r1 if args.r1 is not None else 0.5 * data.knots[-1]
            rep = dalembert.channel_check(wave, args.r0, r1)
            worst = min(worst, rep.min_ratio)
    except (InvalidParameterError, DegenerateInputError) as exc:
        raise InvalidConfigError(f"{exc} (--r0 {args.r0}, --r1 {args.r1})") from exc
    if not args.quiet:
        print(f"checked {args.n} worst_min_ratio={worst if args.n else 'n/a'}")
    if args.n and worst < 0.5 - 1e-12:
        print("dalembert check: channel ratio below 1/2 (bug)", file=sys.stderr)
        return EXIT_CHANNEL
    return EXIT_OK


def cmd_evolve(args) -> int:
    """Breakpoint CSV in, exact solution at time t out."""
    if not np.isfinite(args.t):
        raise InvalidConfigError(f"--t must be finite, got {args.t!r}")
    try:
        data = dalembert.import_csv(args.data)
    except (OSError, CritwaveError) as exc:
        raise InvalidConfigError(str(exc)) from exc
    try:
        # a header-only file holds no data (None) and evolves to a header-only file
        evolved = None if data is None else dalembert.evolve(dalembert.build_F(data), args.t)
    except InvalidParameterError as exc:
        raise InvalidConfigError(f"--t: {exc}") from exc
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"evolved_t{args.t:g}.csv"
    dalembert.export_csv(evolved, path)
    if not args.quiet:
        print(f"wrote {path}")
    return EXIT_OK


# -------------------------------------------------------------------- analyze


class _RunFrames(Sequence):
    """A run directory's frames by index, on its config's mesh: frame i is
    the solver's state, its (h, hdot) read from frames/frame_NNNN.npy when it
    is indexed, and is not kept. A frame file must be exactly the bytes
    `np.save` writes for the (2, nodes) float64 array of (h, hdot)."""

    def __init__(self, framedir: Path, times: list, mesh: RadialMesh):
        self.framedir = framedir
        self.times = times
        self.mesh = mesh
        header = io.BytesIO()  # np.save's own, formed once
        np.lib.format.write_array_header_1_0(
            header, {"descr": np.dtype(float).str, "fortran_order": False, "shape": (2, mesh.nodes.size)})
        self.header = header.getvalue()

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i: int) -> FieldState:
        i = range(len(self.times))[i]  # IndexError past either end
        path = self.framedir / f"frame_{i:04d}.npy"
        n = self.mesh.nodes.size
        with open(path, "rb") as fh:
            frame = np.fromfile(fh, count=2 * n) if fh.read(len(self.header)) == self.header else np.empty(0)
            if frame.size != 2 * n or fh.read(1):
                raise InvalidDataError(f"{path}: not the bytes np.save writes for (h, hdot) on the run's mesh, "
                                       f"a (2, {n}) float64 array")
        try:
            return FieldState(self.mesh, self.times[i], *frame.reshape(2, n))
        except InvalidParameterError as exc:  # h or hdot not 0 at the origin
            raise InvalidDataError(f"{path}: {exc}") from exc


def _load_run_dir(run_dir: Path) -> solver.RunReport:
    """The report of a run directory: its config, the t and E columns of
    its series.csv, which the run recorded (t must be report.json's
    snapshot_times), and its frames on the config's mesh, none of which is
    read here; every other column is formed from the frames."""
    path = run_dir / "report.json"
    with open(path) as fh:
        try:
            rep = json.load(fh)
            times = [float(t) for t in rep["snapshot_times"]]
            outcome, t_star = rep["outcome"], rep["t_star"]
            contamination_time, energy_drift = rep["contamination_time"], rep["energy_drift"]
            config = solver.RunConfig(**rep["config"])
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidDataError(f"{path}: malformed report ({exc!r})") from exc
    if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
        raise InvalidDataError(f"{path}: malformed report (snapshot_times are not finite and strictly increasing)")
    series = run_dir / "series.csv"
    series_times, energies = table.read_columns(series, ("t", "E"))
    if energies.size != len(times):
        raise InvalidDataError(f"{series}: {energies.size} rows, but report.json lists {len(times)} snapshots")
    # the same floats, written by repr and by json
    if series_times.tolist() != times:
        raise InvalidDataError(f"{series}: its t column is not report.json's snapshot_times")
    return solver.RunReport(
        outcome=outcome,
        t_star=t_star,
        times=np.asarray(times, float),
        energies=energies,
        snapshots=_RunFrames(run_dir / "frames", times, config.mesh()),
        contamination_time=contamination_time,
        energy_drift=energy_drift,
        config=config,
    )


def cmd_analyze(args) -> int:
    if args.split_index is not None and args.t_est is None:
        raise InvalidConfigError("give --split-index with --t-est")
    if args.t_est is not None and not np.isfinite(args.t_est):
        raise InvalidConfigError(f"--t-est must be finite, got {args.t_est!r}")
    _check_radii(args)
    run_dir = Path(args.run)
    if not (run_dir / "report.json").exists():
        raise InvalidConfigError(f"{run_dir} is not a run directory")
    report = _load_run_dir(run_dir)
    snaps = report.snapshots
    n = len(snaps)
    if args.split_index is not None:
        if not 0 <= args.split_index < n:
            raise InvalidConfigError(f"--split-index {args.split_index} is outside [0, {n})")
        t0 = float(report.times[args.split_index])
        if not args.t_est > t0:
            raise InvalidConfigError(f"--t-est {args.t_est!r} must exceed the restart time {t0!r} "
                                     f"of snapshot {args.split_index}")
    k = n if args.split_index is None else args.split_index  # the frames before the split
    row = analysis.row_function(snaps.mesh, tuple(args.ball_radius), tuple(args.g_radius), args.split_index)
    # the frames before k are shared out; this process steps v beside the rest
    series = analysis.assemble_series(report, _frame_pass(_RunFrames(snaps.framedir, snaps.times[:k], snaps.mesh), row)
                                      + ([] if k == n else analysis.singular_part(report, args.t_est, k, row)))
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    series.to_csv(out / "series.csv")
    if args.t_est is not None:
        fit = _fit(series, args.t_est)
        _write_json(None if fit is None else asdict(fit), out / "fit.json")
    if not args.quiet:
        print(f"wrote {out / 'series.csv'}")
    return EXIT_OK


# ------------------------------------------------------------------- profiles


def cmd_profiles(args) -> int:
    if args.max_bubbles < 1:
        raise InvalidConfigError(f"--max-bubbles must be >= 1, got {args.max_bubbles}")
    if (args.lam_min is None) != (args.lam_max is None):
        raise InvalidConfigError("give --lam-min and --lam-max together, or neither")
    # written so that a NaN fails it too
    if args.lam_min is not None and not 0 < args.lam_min < args.lam_max < np.inf:
        raise InvalidConfigError(f"need 0 < --lam-min < --lam-max < inf, got {args.lam_min!r} and {args.lam_max!r}")
    try:
        state = solver.load_snapshot(args.snapshot)
    except (OSError, CritwaveError) as exc:
        raise InvalidConfigError(str(exc)) from exc
    lam_range = None if args.lam_min is None else (args.lam_min, args.lam_max)
    try:
        decomp = profiles.extract(state, max_bubbles=args.max_bubbles, lam_range=lam_range)
    except InvalidParameterError as exc:  # a given range passed the checks above: the default one is empty
        raise InvalidConfigError(f"{args.snapshot}: {exc} in the default range; give --lam-min and --lam-max") from exc
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    profiles.export_json(decomp, out / "decomposition.json")
    if not args.quiet:
        py = profiles.pythagorean_check(decomp)
        print(f"bubbles={decomp.n_bubbles} relative_defect={py.relative_defect:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------- sweep


def _sweep_cell(cell):
    index, overrides, base, out = cell
    cell_dir = Path(out) / f"cell_{index:03d}"
    try:
        config = solver.RunConfig.from_dict({**base, **overrides})
        report, series = _simulate_into(config, cell_dir, (), ())
        fit = _fit(series, report.t_star) if report.outcome == "BlowUpDetected" and report.t_star else None
        nu_hat = "" if fit is None else repr(fit.nu_hat)
        return index, overrides, report.outcome, report.t_star, nu_hat, ""
    except Exception as exc:  # noqa: BLE001 - recorded per cell
        return index, overrides, "Failed", None, "", f"{type(exc).__name__}: {exc}"


def cmd_sweep(args) -> int:
    base = solver.read_config(args.config)
    solver.RunConfig.from_dict(base)  # validates the template

    grids = []
    for spec in args.param:
        if "=" not in spec:
            raise InvalidConfigError(f"bad --param {spec!r} (want key=v1,v2,...)")
        key, vals = spec.split("=", 1)
        if any(grid[0][0] == key for grid in grids):  # the later values would replace the earlier
            raise InvalidConfigError(f"--param {key} given twice")
        grids.append([(key, solver.parse_scalar(v)) for v in vals.split(",")])
    cells = [{}]
    for grid in grids:
        cells = [{**c, k: v} for c in cells for k, v in grid]

    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    work = [(i, overrides, base, str(out)) for i, overrides in enumerate(cells)]
    # cells are shared out over the CPUs, each running in one process; a lone
    # cell's frame pass shares out its own frames
    results = _interleaved(_in_parallel(lambda j, k: [_sweep_cell(c) for c in work[j::k]], len(work)))

    param_keys = sorted({k for g in grids for k, _ in g})
    with open(out / "aggregate.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cell", *param_keys, "outcome", "t_star", "nu_hat", "error"])
        for index, overrides, outcome, t_star, nu_hat, err in results:
            row = [index]
            vals = [overrides[k] for k in param_keys]  # every cell sets every key
            row += [repr(float(v)) if isinstance(v, (int, float, bool)) else str(v) for v in vals]
            row += [outcome, "" if t_star is None else repr(float(t_star)), nu_hat, err]
            w.writerow(row)
    n_ok = sum(1 for r in results if r[2] != "Failed")
    if not args.quiet:
        print(f"sweep: {n_ok}/{len(results)} cells succeeded")
    return EXIT_OK if n_ok >= 1 else EXIT_RUNTIME


# ----------------------------------------------------------------------- main


def _out_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get("CRITWAVE_OUT", "."))


def _add_common(p):
    p.add_argument("--out", help="output directory (default: CRITWAVE_OUT or cwd)")
    p.add_argument("--quiet", action="store_true", help="suppress status output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critwave",
        description="Numerical experiments for the radial energy-critical focusing wave equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the solver, write snapshots and diagnostics")
    _add_common(p)
    p.add_argument("--config", required=True, help="JSON configuration file")
    p.add_argument("--ball-radius", type=float, action="append", default=[], metavar="R")
    p.add_argument("--g-radius", type=float, action="append", default=[], metavar="R")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dalembert", help="exact linear-solution checks and evolution")
    modes = p.add_subparsers(dest="mode", required=True)
    p = modes.add_parser("check", help="channel-of-energy retention on random data")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--n", type=int, default=100, help="number of random channel checks")
    p.add_argument("--r0", type=float, default=1.0, help="inner band radius")
    p.add_argument("--r1", type=float, default=None,
                   help="outer band radius (inf: the exterior; default half the data's support)")
    p.set_defaults(func=cmd_check)
    p = modes.add_parser("evolve", help="evolve breakpoint data exactly")
    _add_common(p)
    p.add_argument("--data", required=True, help="breakpoint CSV")
    p.add_argument("--t", type=float, default=1.0, help="evolution time")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("analyze", help="recompute diagnostics from a run directory")
    _add_common(p)
    p.add_argument("run", help="run directory written by simulate")
    p.add_argument("--ball-radius", type=float, action="append", default=[], metavar="R")
    p.add_argument("--g-radius", type=float, action="append", default=[], metavar="R")
    p.add_argument("--t-est", type=float, default=None)
    p.add_argument("--split-index", type=int, default=None, help="snapshot index for the regular/singular split")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("profiles", help="extract a multi-bubble decomposition from a snapshot")
    _add_common(p)
    p.add_argument("snapshot", help="snapshot CSV (r,u,ut)")
    p.add_argument("--max-bubbles", type=int, default=3)
    p.add_argument("--lam-min", type=float, default=None)
    p.add_argument("--lam-max", type=float, default=None)
    p.set_defaults(func=cmd_profiles)

    p = sub.add_parser("sweep", help="run a parameter grid of simulations")
    _add_common(p)
    p.add_argument("--config", required=True, help="JSON configuration file")
    p.add_argument("--param", action="append", default=[], metavar="key=v1,v2,...")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = f"{args.command} {args.mode}" if "mode" in args else args.command
    try:
        return args.func(args)
    except InvalidConfigError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, CritwaveError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
