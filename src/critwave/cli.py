"""Command-line front end: simulation runs, d'Alembert checks, diagnostics,
profile extraction, and parameter sweeps.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 runtime
failure, 4 channel-check violation (always an implementation bug). Every
input check, a command's own included, raises InvalidConfigError, and only
`main` turns it into exit 2 and the line `<command>: <message>`. A file
named on the command line that cannot be read is such an input; one inside a
run directory that `analyze` reads is not. `main` maps any other OSError or
CritwaveError to 3 and the same line. A d'Alembert mode's command is
`dalembert check` or `dalembert evolve` in both.

One pool, `_in_parallel`, spreads every command's work over the CPUs of the
process's affinity mask. `simulate` and `analyze` split a run's frames: each
process writes or parses its own share of the snapshot files and reduces
each frame to its diagnostics row as it goes, so no process holds a run's
frames. `simulate`'s processes each run the deterministic solve themselves,
and a worker whose run differs exits 3. `sweep` splits small cells, and runs
larger ones in order, each splitting its own frames.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import multiprocessing
import os
import sys
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CritwaveError, DegenerateInputError, InvalidConfigError, InvalidDataError, InvalidParameterError
from . import analysis, dalembert, profiles, solver, table
from .mesh import FieldState

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

# End to end on a shared 2-vCPU host, simulate then analyze of 2401-node
# runs in a fresh process, one `_in_parallel` call per process against
# serial, in two sessions of 10 alternating pairs, median saving (pairs won):
#    16807 rows  -49 ms (0/10)
#    31213 rows  +18 ms (7/10),  -38 ms (4/10)
#    60025 rows  +57 ms (8/10),  +82 ms (10/10)
#   110446 rows +120 ms (8/10), +196 ms (10/10)
# Runs of fewer rows stay serial. Hosts with more than 2 CPUs have not been
# measured.
_FAN_OUT_MIN_ROWS = 60_000

_forked_fn = None  # _in_parallel's fn while it fans out, here and in its workers


def _call_forked_fn(j: int, k: int):
    return _forked_fn(j, k)


def _in_parallel(fn, rows: int, items: int) -> list:
    """[fn(0, k), ..., fn(k - 1, k)], one call in each of k processes: this
    process makes fn(0, k) while k - 1 forked workers make one call each.

    The calls share out `items` things, call j taking items j, j + k,
    j + 2k, ...; k is the number of CPUs in this process's affinity mask, or
    `items` if that is fewer. The workers inherit fn, and all that it reads,
    from this process's memory (a fork-context pool forks all of its workers
    at its first task, before it starts its own thread), so a task sends
    only (j, k) and only fn's result comes back. One call per process, not
    one task per item: a task per item has the pool's feeder thread wait for
    the GIL that this process's own calls hold, and the workers wait to be
    fed. An exception that fn raises in a worker is raised here once this
    process's own call has returned.

    k is 1 under `_FAN_OUT_MIN_ROWS` rows of work, where the mask cannot be
    read, and inside any call made during a fan-out, in a worker or in this
    process's own share (a sweep cell), so that pools never nest.
    """
    global _forked_fn
    k = 1
    if _forked_fn is None and rows >= _FAN_OUT_MIN_ROWS and hasattr(os, "sched_getaffinity"):
        k = min(len(os.sched_getaffinity(0)), items)
    if k <= 1:
        return [fn(0, 1)]
    _forked_fn = fn  # before the pool forks, so that its workers inherit it
    try:
        with ProcessPoolExecutor(max_workers=k - 1, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_call_forked_fn, j, k) for j in range(1, k)]
            return [fn(0, k), *(f.result() for f in futures)]
    finally:
        _forked_fn = None


def _interleaved(shares: list) -> list:
    """The items of k shares, share j holding items j, j + k, ..., in order."""
    items = [None] * sum(map(len, shares))
    for j, share in enumerate(shares):
        items[j::len(shares)] = share
    return items


# ------------------------------------------------------------- simulate logic


def _run_size(config: solver.RunConfig) -> tuple[int, int]:
    """(frames, nodes) of config's run, with no mesh built: its frames to
    t_end at the output cadence, at most one a step, and its mesh's nodes as
    `RadialMesh.uniform` counts them. Their product is the run's snapshot
    rows."""
    steps = config.t_end / (config.cfl * config.mesh_h)
    return int(min(config.t_end / config.output_every, steps) + 1), int(round(config.rmax / config.mesh_h)) + 1


def _simulate_into(config: solver.RunConfig, out: Path, ball_radii, g_radii):
    """Run config and write its run directory under out: the snapshots,
    series.csv, report.json and manifest.json. Returns the report, which
    keeps no snapshots, and the diagnostics series written.

    Each of `_in_parallel`'s processes runs the solve itself and, of its
    frames, writes only its own share and reduces each to its diagnostics
    row as it is made, so no process holds more than one frame. The solve is
    deterministic: a worker whose run differs from this process's raises
    CritwaveError.
    """
    started = _iso_now()
    out.mkdir(parents=True, exist_ok=True)
    snapdir = out / "snapshots"
    snapdir.mkdir(exist_ok=True)

    def share(j, k):
        rows, row = [], None

        def on_frame(i, state):
            nonlocal row
            if i == 0:  # every frame is on the run's mesh
                row = analysis.row_function(state.mesh, tuple(ball_radii), tuple(g_radii))
            if i % k == j:
                solver.save_snapshot(state, snapdir / f"snap_{i:04d}.csv")
                rows.append(row(i, state))

        return solver.run(config, on_frame=on_frame), rows

    frames, nodes = _run_size(config)
    (report, rows), *workers = _in_parallel(share, nodes * frames, frames)
    for j, (replay, _) in enumerate(workers, 1):
        differ = [name for name, same in (("times", np.array_equal(replay.times, report.times)),
                                          ("outcome", replay.outcome == report.outcome),
                                          ("t_star", replay.t_star == report.t_star)) if not same]
        if differ:
            raise CritwaveError(f"the run replayed by snapshot writer {j} of {len(workers) + 1} differs "
                                f"from this process's in its {' and '.join(differ)}")
    series = analysis.assemble_series(report, _interleaved([rows, *(r for _, r in workers)]))
    series.to_csv(out / "series.csv")
    n = report.times.size
    files = {f"snapshots/snap_{i:04d}.csv": nodes for i in range(n)}
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
        "files": files,  # relative path -> row count
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
    if args.seed is not None:
        config = replace(config, seed=args.seed)
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
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"evolved_t{args.t:g}.csv"
    # a header-only file holds no data (None) and evolves to a header-only file
    dalembert.export_csv(None if data is None else dalembert.evolve(dalembert.build_F(data), args.t), path)
    if not args.quiet:
        print(f"wrote {path}")
    return EXIT_OK


# -------------------------------------------------------------------- analyze


class _RunSnapshots(Sequence):
    """A run directory's snapshots by index, each parsed from its file onto
    snapshot 0's mesh when it is indexed and not kept. A snapshot's u and u_t
    are its file's columns, which h / r of h = r u need not give back bit for
    bit (at the origin, u is a slope of h), so that its diagnostics are the
    ones simulate wrote."""

    def __init__(self, snapdir: Path, times: list):
        self.snapdir = snapdir
        self.times = times
        self.mesh = solver.load_snapshot(snapdir / "snap_0000.csv").mesh

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i: int) -> analysis._Frame:
        i = range(len(self.times))[i]  # IndexError past either end
        path = self.snapdir / f"snap_{i:04d}.csv"
        r, u, ut = table.read_columns(path, ("r", "u", "ut"))
        if not np.array_equal(r, self.mesh.nodes):
            raise InvalidDataError(f"{path}: r column differs from snapshot 0's mesh")
        return analysis._Frame(FieldState.from_u(self.mesh, u, ut, self.times[i]), u, ut)


def _load_run_dir(run_dir: Path) -> solver.RunReport:
    """The report of a run directory: its config (None when report.json
    predates the key), E and sup_u from its series.csv, and its snapshots,
    of which only snapshot 0's mesh is read here."""
    path = run_dir / "report.json"
    with open(path) as fh:
        try:
            rep = json.load(fh)
            times = [float(t) for t in rep["snapshot_times"]]
            outcome, t_star = rep["outcome"], rep["t_star"]
            config = solver.RunConfig(**rep["config"]) if "config" in rep else None
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidDataError(f"{path}: malformed report ({exc!r})") from exc
    series = run_dir / "series.csv"
    _, energies, sups = table.read_columns(series, ("t", "E", "sup_u"))
    if energies.size != len(times):
        raise InvalidDataError(f"{series}: {energies.size} rows, but report.json lists {len(times)} snapshots")
    return solver.RunReport(
        outcome=outcome,
        t_star=t_star,
        times=np.asarray(times, float),
        energies=energies,
        sup_history=sups,
        snapshots=_RunSnapshots(run_dir / "snapshots", times),
        contamination_time=rep.get("contamination_time", 0.0),
        energy_drift=rep.get("energy_drift", 0.0),
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
    split = None
    if args.split_index is not None:
        if not 0 <= args.split_index < n:
            raise InvalidConfigError(f"--split-index {args.split_index} is outside [0, {n})")
        t0 = float(report.times[args.split_index])
        if not args.t_est > t0:
            raise InvalidConfigError(f"--t-est {args.t_est!r} must exceed the restart time {t0!r} "
                                     f"of snapshot {args.split_index}")
        if report.config is None:  # v is evolved under the run's own config
            raise InvalidDataError(f"{run_dir / 'report.json'}: no config to evolve the split's regular part under")
        # before the workers fork, so that they inherit v
        split = analysis.singular_part(report, args.t_est, t0_index=args.split_index)
    mesh = snaps.mesh
    row = analysis.row_function(mesh, tuple(args.ball_radius), tuple(args.g_radius), split)
    shares = _in_parallel(lambda j, k: [row(i, snaps[i]) for i in range(j, n, k)], mesh.nodes.size * n, n)
    series = analysis.assemble_series(report, _interleaved(shares))
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
    decomp = profiles.extract(state, max_bubbles=args.max_bubbles, lam_range=lam_range)
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
        grids.append([(key, solver.parse_scalar(v)) for v in vals.split(",")])
    cells = [{}]
    for grid in grids:
        cells = [{**c, k: v} for c in cells for k, v in grid]

    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    work = [(i, overrides, base, str(out)) for i, overrides in enumerate(cells)]
    rows = []  # of each cell's run; a cell whose config does not build fails at once
    for overrides in cells:
        try:
            rows.append(math.prod(_run_size(solver.RunConfig.from_dict({**base, **overrides}))))
        except InvalidConfigError:
            rows.append(0)
    # cells under the cut-off are split over the CPUs; once one cell alone
    # reaches it, the cells run in order here and each splits its own frames
    results = _interleaved(_in_parallel(lambda j, k: [_sweep_cell(c) for c in work[j::k]],
                                        sum(rows) if max(rows) < _FAN_OUT_MIN_ROWS else 0, len(work)))

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
    p.add_argument("--config", required=True, help="configuration file (JSON or key = value)")
    p.add_argument("--seed", type=int, default=None, help="override the config's seed")
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
    p.add_argument("--config", required=True, help="configuration file (JSON or key = value)")
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
