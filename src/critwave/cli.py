"""Command-line front end: simulation runs, d'Alembert checks, diagnostics,
profile extraction, and parameter sweeps.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 runtime
failure, 4 channel-check violation (always an implementation bug). Every
input check, a command's own included, raises InvalidConfigError, and only
`main` turns it into exit 2 and the line `<command>: <message>`, where a
d'Alembert mode's command is `dalembert check` or `dalembert evolve`. A file
named on the command line that cannot be read is such an input; one inside a
run directory that `analyze` reads is not. `main` maps any other OSError or
CritwaveError to 3, under the top-level command's name.
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


def _simulate_into(config: solver.RunConfig, out: Path, ball_radii, g_radii):
    """Run config and write its run directory under out: the snapshots,
    series.csv, report.json and manifest.json. Returns the report and the
    diagnostics series written."""
    started = _iso_now()
    report = solver.run(config)
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
    files["series.csv"] = len(snaps)

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


def cmd_simulate(args) -> int:
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
    except (OSError, TypeError, CritwaveError) as exc:
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
        raise InvalidConfigError("give --split-index with --t-est")
    run_dir = Path(args.run)
    if not (run_dir / "report.json").exists():
        raise InvalidConfigError(f"{run_dir} is not a run directory")
    report = _load_run_dir(run_dir)
    split = None
    if args.split_index is not None:
        n = len(report.snapshots)
        if not 0 <= args.split_index < n:
            raise InvalidConfigError(f"--split-index {args.split_index} is outside [0, {n})")
        t0 = float(report.snapshots[args.split_index].t)
        if not args.t_est > t0:
            raise InvalidConfigError(f"--t-est {args.t_est!r} must exceed the restart time {t0!r} "
                                     f"of snapshot {args.split_index}")
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
    if args.jobs < 1:
        raise InvalidConfigError(f"--jobs must be >= 1, got {args.jobs}")
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
    p.add_argument("--data", help="breakpoint CSV")
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
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--param", action="append", default=[], metavar="key=v1,v2,...")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfigError as exc:
        command = f"{args.command} {args.mode}" if "mode" in args else args.command
        print(f"{command}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, CritwaveError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
