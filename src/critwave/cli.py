"""Command-line front end: simulation runs, d'Alembert checks, diagnostics,
profile extraction, and parameter sweeps.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 runtime
failure, 4 channel-check violation (always an implementation bug).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    CritwaveError,
    DegenerateInputError,
    InvalidConfigError,
    InvalidDataError,
    InvalidParameterError,
)
from . import analysis, dalembert, profiles, solver, table
from .mesh import FieldState

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CHANNEL = 4


# ----------------------------------------------------------------- manifest


@dataclass
class ExperimentManifest:
    config_hash: str
    version: str
    started: str
    finished: str
    outcome: str
    files: dict  # relative path -> row count

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _config_hash(config: solver.RunConfig) -> str:
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _iso_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


# ---------------------------------------------------------- snapshot fan-out

# Fanning out costs a run about 20-30 ms whatever its size. End to end on
# a 2-CPU host, simulate then analyze on 2401-node runs, fanned out against
# serial over 15 alternating pairs: 50421 rows lost 60 ms (0/15 pairs won),
# 60025 rows won 39 ms (11/15) and 69629 rows won 96 ms (14/15). Runs of
# fewer rows stay serial. Hosts with more than 2 CPUs have not been measured.
_FAN_OUT_MIN_ROWS = 60_000

_forked_fn = None  # the fan-out's fn, set in its worker processes only


def _set_forked_fn(fn) -> None:
    global _forked_fn
    _forked_fn = fn


def _call_forked_fn(i):
    return _forked_fn(i)


def _fan_out(fn, indices: range, rows: int):
    """Yield fn(i) for i in indices, in order, with the calls split over
    the k CPUs of this process's affinity mask.

    This process calls fn on the first ceil(len/k) indices itself while
    forked workers take the rest, one index per task: k - 1 workers, or
    one per remaining index if that is fewer, since a fork-context pool
    forks all of its workers at its first task, before it starts its own
    thread. The workers inherit fn, and all that it reads, from this
    process's memory, so a task sends only its index and a result comes
    back one call at a time. An exception that fn raises in a worker is
    raised here when its result is reached; the tasks not yet started are
    then cancelled.

    Runs serially under `_FAN_OUT_MIN_ROWS` rows of work, where the mask
    cannot be read, and inside a worker process (a sweep cell), so that
    pools never nest.
    """
    k = 1
    if rows >= _FAN_OUT_MIN_ROWS and hasattr(os, "sched_getaffinity"):
        if multiprocessing.parent_process() is None:
            k = len(os.sched_getaffinity(0))
    own = -(-len(indices) // k)
    if own >= len(indices):
        yield from map(fn, indices)
        return
    with ProcessPoolExecutor(
        max_workers=min(k - 1, len(indices) - own),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_set_forked_fn,
        initargs=(fn,),
    ) as pool:
        try:
            results = pool.map(_call_forked_fn, indices[own:])
            yield from map(fn, indices[:own])
            yield from results
        finally:
            pool.shutdown(cancel_futures=True)


# ------------------------------------------------------------- simulate logic


def _write_report(report: solver.RunReport, out: Path) -> None:
    payload = {
        "outcome": report.outcome,
        "t_star": report.t_star,
        "energy_drift": report.energy_drift,
        "contamination_time": report.contamination_time,
        "snapshot_times": [float(t) for t in report.times],
        "final_time": float(report.times[-1]),
        "config": asdict(report.config),
    }
    with open(out / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_run_outputs(report: solver.RunReport, out: Path, ball_radii, g_radii):
    """Write a run's snapshots, series.csv and report.json under out; returns
    the manifest's {file: rows} and the diagnostics series written."""
    out.mkdir(parents=True, exist_ok=True)
    snapdir = out / "snapshots"
    snapdir.mkdir(exist_ok=True)
    snaps = report.snapshots
    files = {f"snapshots/snap_{i:04d}.csv": s.mesh.nodes.size for i, s in enumerate(snaps)}

    def save(i):
        solver.save_snapshot(snaps[i], snapdir / f"snap_{i:04d}.csv")

    # snapshot 0 first, so the forked writers inherit its formatted r column
    save(0)
    for _ in _fan_out(save, range(1, len(snaps)), sum(files.values())):
        pass

    series = analysis.diagnostics_series(report, ball_radii=tuple(ball_radii), g_radii=tuple(g_radii))
    series.to_csv(out / "series.csv")
    files["series.csv"] = len(report.snapshots)

    _write_report(report, out)
    files["report.json"] = 1
    return files, series


def cmd_simulate(args) -> int:
    if not args.config or not os.path.exists(args.config):
        print("simulate: missing or unreadable config", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = solver.load_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
    except (InvalidConfigError, ValueError) as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = _out_dir(args)
    started = _iso_now()
    try:
        report = solver.run(config)
        files, _ = _write_run_outputs(report, out, args.ball_radius, args.g_radius)
        ExperimentManifest(
            config_hash=_config_hash(config),
            version=__version__,
            started=started,
            finished=_iso_now(),
            outcome=report.outcome,
            files=files,
        ).write(out / "manifest.json")
    except (OSError, CritwaveError) as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        # InvalidConfigError: a data.* value that make_initial_data cannot use
        return EXIT_CONFIG if isinstance(exc, InvalidConfigError) else EXIT_RUNTIME
    if not args.quiet:
        print(f"{report.outcome} t_star={report.t_star} drift={report.energy_drift:.3e}")
    return EXIT_OK


# ------------------------------------------------------------------ dalembert


def cmd_dalembert(args) -> int:
    if args.mode == "check":
        if args.n < 0:
            print("dalembert check: --n must be >= 0", file=sys.stderr)
            return EXIT_CONFIG
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
            print(f"dalembert check: {exc} (--r0 {args.r0}, --r1 {args.r1})", file=sys.stderr)
            return EXIT_CONFIG
        if not args.quiet:
            print(f"checked {args.n} worst_min_ratio={worst if args.n else 'n/a'}")
        if args.n and worst < 0.5 - 1e-12:
            print("dalembert check: channel ratio below 1/2 (bug)", file=sys.stderr)
            return EXIT_CHANNEL
        return EXIT_OK

    # evolve: breakpoint CSV in, exact solution at time t out
    try:
        data = dalembert.import_csv(args.data)
    except (OSError, TypeError, CritwaveError) as exc:
        print(f"dalembert evolve: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"evolved_t{args.t:g}.csv"
    # a header-only file holds no data (None) and evolves to a header-only file
    dalembert.export_csv(None if data is None else dalembert.evolve(dalembert.build_F(data), args.t), path)
    if not args.quiet:
        print(f"wrote {path}")
    return EXIT_OK


# -------------------------------------------------------------------- analyze


def _load_run_dir(run_dir: Path) -> solver.RunReport:
    """The report of a run directory: its config (`RunConfig()` when
    report.json predates the key), its snapshots on snapshot 0's mesh, and
    E and sup_u from its series.csv."""
    path = run_dir / "report.json"
    with open(path) as fh:
        try:
            rep = json.load(fh)
            times = [float(t) for t in rep["snapshot_times"]]
            outcome, t_star = rep["outcome"], rep["t_star"]
            config = solver.RunConfig(**rep["config"]) if "config" in rep else solver.RunConfig()
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidDataError(f"{path}: malformed report ({exc!r})") from exc
    series = run_dir / "series.csv"
    _, energies, sups = table.read_columns(series, ("t", "E", "sup_u"))
    if energies.size != len(times):
        raise InvalidDataError(f"{series}: {energies.size} rows, but report.json lists {len(times)} snapshots")
    snapdir = run_dir / "snapshots"
    first = solver.load_snapshot(snapdir / "snap_0000.csv")
    nodes = first.mesh.nodes

    def parse(i):
        # (h, hdot) as FieldState.from_u forms them, on snapshot 0's mesh
        path = snapdir / f"snap_{i:04d}.csv"
        r, u, ut = table.read_columns(path, ("r", "u", "ut"))
        if not np.array_equal(r, nodes):
            raise InvalidDataError(f"{path}: r column differs from snapshot 0's")
        return nodes * u, nodes * ut

    rest = _fan_out(parse, range(1, len(times)), nodes.size * len(times))
    snaps = [FieldState(first.mesh, t, h, hdot) for t, (h, hdot) in zip(times, [(first.h, first.hdot), *rest])]
    return solver.RunReport(
        outcome=outcome,
        t_star=t_star,
        times=np.asarray(times, float),
        energies=energies,
        sup_history=sups,
        snapshots=snaps,
        contamination_time=rep.get("contamination_time", 0.0),
        energy_drift=rep.get("energy_drift", 0.0),
        config=config,
    )


def cmd_analyze(args) -> int:
    if args.split_index is not None and args.t_est is None:
        print("analyze: give --split-index with --t-est", file=sys.stderr)
        return EXIT_CONFIG
    run_dir = Path(args.run)
    if not (run_dir / "report.json").exists():
        print(f"analyze: {run_dir} is not a run directory", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = _load_run_dir(run_dir)
        split = None
        if args.split_index is not None:
            n = len(report.snapshots)
            if not 0 <= args.split_index < n:
                print(f"analyze: --split-index {args.split_index} is outside [0, {n})", file=sys.stderr)
                return EXIT_CONFIG
            split = analysis.singular_part(report, args.t_est, t0_index=args.split_index)
        series = analysis.diagnostics_series(
            report,
            ball_radii=tuple(args.ball_radius),
            g_radii=tuple(args.g_radius),
            split=split,
        )
        out = _out_dir(args)
        out.mkdir(parents=True, exist_ok=True)
        series.to_csv(out / "series.csv")
        if args.t_est is not None:
            try:
                fit = analysis.fit_exponent(series.data["t"], series.data["lambda1"], args.t_est)
                fit_payload = {
                    "nu_hat": fit.nu_hat,
                    "slope": fit.slope,
                    "r_squared": fit.r_squared,
                    "n_points": fit.n_points,
                }
            except CritwaveError:
                fit_payload = None
            with open(out / "fit.json", "w") as fh:
                json.dump(fit_payload, fh, indent=2)
                fh.write("\n")
    except (OSError, CritwaveError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if not args.quiet:
        print(f"wrote {out / 'series.csv'}")
    return EXIT_OK


# ------------------------------------------------------------------- profiles


def cmd_profiles(args) -> int:
    if (args.lam_min is None) != (args.lam_max is None):
        print("profiles: give --lam-min and --lam-max together, or neither", file=sys.stderr)
        return EXIT_CONFIG
    try:
        state = solver.load_snapshot(args.snapshot)
    except (OSError, CritwaveError) as exc:
        print(f"profiles: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        lam_range = None if args.lam_min is None else (args.lam_min, args.lam_max)
        decomp = profiles.extract(state, max_bubbles=args.max_bubbles, lam_range=lam_range)
        out = _out_dir(args)
        out.mkdir(parents=True, exist_ok=True)
        profiles.export_json(decomp, out / "decomposition.json")
    except CritwaveError as exc:
        print(f"profiles: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
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
        report = solver.run(config)
        _, series = _write_run_outputs(report, cell_dir, (), ())
        nu_hat = ""
        if report.outcome == "BlowUpDetected" and report.t_star:
            try:
                fit = analysis.fit_exponent(series.data["t"], series.data["lambda1"], report.t_star)
                nu_hat = repr(fit.nu_hat)
            except CritwaveError:
                nu_hat = ""
        return index, overrides, report.outcome, report.t_star, nu_hat, ""
    except Exception as exc:  # noqa: BLE001 - recorded per cell
        return index, overrides, "Failed", None, "", f"{type(exc).__name__}: {exc}"


def cmd_sweep(args) -> int:
    if not args.config or not os.path.exists(args.config):
        print("sweep: missing or unreadable config", file=sys.stderr)
        return EXIT_CONFIG
    try:
        base = solver.read_config(args.config)
        solver.RunConfig.from_dict(base)  # validates the template
    except (InvalidConfigError, ValueError) as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    grids = []
    for spec in args.param:
        if "=" not in spec:
            print(f"sweep: bad --param {spec!r} (want key=v1,v2,...)", file=sys.stderr)
            return EXIT_CONFIG
        key, vals = spec.split("=", 1)
        grids.append([(key, solver.parse_scalar(v)) for v in vals.split(",")])
    cells = [{}]
    for grid in grids:
        cells = [{**c, k: v} for c in cells for k, v in grid]

    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    work = [(i, overrides, base, str(out)) for i, overrides in enumerate(cells)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_cell, work))
    else:
        results = [_sweep_cell(c) for c in work]

    param_keys = sorted({k for g in grids for k, _ in g})
    with open(out / "aggregate.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cell", *param_keys, "outcome", "t_star", "nu_hat", "error"])
        for index, overrides, outcome, t_star, nu_hat, err in sorted(results):
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
    p.add_argument("--config", help="configuration file (JSON or key = value)")
    p.add_argument("--seed", type=int, default=None, help="override the config's seed")
    p.add_argument("--ball-radius", type=float, action="append", default=[], metavar="R")
    p.add_argument("--g-radius", type=float, action="append", default=[], metavar="R")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dalembert", help="exact linear-solution checks and evolution")
    _add_common(p)
    p.add_argument("mode", choices=("check", "evolve"))
    p.add_argument("--seed", type=int, default=0, help="random seed for check")
    p.add_argument("--n", type=int, default=100, help="number of random channel checks")
    p.add_argument("--r0", type=float, default=1.0)
    p.add_argument("--r1", type=float, default=None)
    p.add_argument("--data", help="breakpoint CSV for evolve")
    p.add_argument("--t", type=float, default=1.0, help="evolution time for evolve")
    p.set_defaults(func=cmd_dalembert)

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
    p.add_argument("--config", help="configuration file (JSON or key = value)")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--param", action="append", default=[], metavar="key=v1,v2,...")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
