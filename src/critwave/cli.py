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
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CritwaveError, InvalidConfigError
from . import analysis, dalembert, profiles, solver
from .ground_state import energy
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
    payload = json.dumps(
        {
            "mesh_h": config.mesh_h,
            "rmax": config.rmax,
            "cfl": config.cfl,
            "t_end": config.t_end,
            "nonlinear": config.nonlinear,
            "blowup_threshold": config.blowup_threshold,
            "output_every": config.output_every,
            "family": config.family,
            "params": {k: config.params[k] for k in sorted(config.params)},
            "seed": config.seed,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _iso_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def _count_rows(path: Path) -> int:
    with open(path) as fh:
        return max(0, sum(1 for _ in fh) - 1)  # minus header


# ------------------------------------------------------------- simulate logic


def _write_report(report: solver.RunReport, out: Path) -> None:
    payload = {
        "outcome": report.outcome,
        "t_star": report.t_star,
        "energy_drift": report.energy_drift,
        "contamination_time": report.contamination_time,
        "snapshot_times": [float(t) for t in report.times],
        "final_time": float(report.times[-1]),
    }
    with open(out / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_run_outputs(report: solver.RunReport, out: Path, ball_radii, g_radii) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    snapdir = out / "snapshots"
    snapdir.mkdir(exist_ok=True)
    files = {}
    for i, snap in enumerate(report.snapshots):
        name = f"snap_{i:04d}.csv"
        solver.save_snapshot(snap, snapdir / name)
        files[f"snapshots/{name}"] = snap.mesh.nodes.size

    series = analysis.diagnostics_series(report, ball_radii=tuple(ball_radii), g_radii=tuple(g_radii))
    series.to_csv(out / "series.csv")
    files["series.csv"] = len(report.snapshots)

    _write_report(report, out)
    files["report.json"] = 1
    return files


def cmd_simulate(args) -> int:
    if not args.config or not os.path.exists(args.config):
        print("simulate: missing or unreadable config", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = solver.load_config(args.config)
        if args.seed is not None:
            config = solver.RunConfig(
                **{**{f: getattr(config, f) for f in config.__dataclass_fields__}, "seed": args.seed}
            )
    except (InvalidConfigError, ValueError) as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = _out_dir(args)
    started = _iso_now()
    try:
        report = solver.run(config)
        files = _write_run_outputs(report, out, args.ball_radius, args.g_radius)
    except CritwaveError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    ExperimentManifest(
        config_hash=_config_hash(config),
        version=__version__,
        started=started,
        finished=_iso_now(),
        outcome=report.outcome,
        files=files,
    ).write(out / "manifest.json")
    if not args.quiet:
        print(f"{report.outcome} t_star={report.t_star} drift={report.energy_drift:.3e}")
    return EXIT_OK


# ------------------------------------------------------------------ dalembert


def cmd_dalembert(args) -> int:
    if args.mode == "check":
        if args.n < 0:
            print("dalembert check: --n must be >= 0", file=sys.stderr)
            return EXIT_CONFIG
        rng = np.random.default_rng(args.seed if args.seed is not None else 0)
        worst = np.inf
        for _ in range(args.n):
            data = dalembert.random_data(rng)
            wave = dalembert.build_F(data)
            r1 = args.r1 if args.r1 is not None else 0.5 * data.knots[-1]
            rep = dalembert.channel_check(wave, args.r0, r1)
            worst = min(worst, rep.min_ratio)
        if not args.quiet:
            print(f"checked {args.n} worst_min_ratio={worst if args.n else 'n/a'}")
        if args.n and worst < 0.5 - 1e-12:
            print("dalembert check: channel ratio below 1/2 (bug)", file=sys.stderr)
            return EXIT_CHANNEL
        return EXIT_OK

    # evolve: breakpoint CSV in, exact solution at time t out
    try:
        with open(args.data) as fh:
            n_rows = sum(1 for _ in fh) - 1
        if n_rows <= 0:
            out = _out_dir(args)
            out.mkdir(parents=True, exist_ok=True)
            with open(out / f"evolved_t{args.t:g}.csv", "w") as fh:
                fh.write("s,f0,f1\n")
            return EXIT_OK
        data = dalembert.import_csv(args.data)
    except (OSError, TypeError, CritwaveError) as exc:
        print(f"dalembert evolve: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    wave = dalembert.build_F(data)
    moved = dalembert.evolve(wave, args.t)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    dalembert.export_csv(moved, out / f"evolved_t{args.t:g}.csv")
    if not args.quiet:
        print(f"wrote {out / f'evolved_t{args.t:g}.csv'}")
    return EXIT_OK


# -------------------------------------------------------------------- analyze


def _load_run_dir(run_dir: Path) -> solver.RunReport:
    with open(run_dir / "report.json") as fh:
        rep = json.load(fh)
    times = rep["snapshot_times"]
    snaps = []
    for i, t in enumerate(times):
        state = solver.load_snapshot(run_dir / "snapshots" / f"snap_{i:04d}.csv")
        snaps.append(FieldState(state.mesh, float(t), state.h, state.hdot))
    energies = np.array([energy(s).total_energy for s in snaps])
    sups = np.array([s.sup_u() for s in snaps])
    return solver.RunReport(
        outcome=rep["outcome"],
        t_star=rep["t_star"],
        times=np.asarray(times, float),
        energies=energies,
        sup_history=sups,
        snapshots=snaps,
        config=solver.RunConfig(),
        contamination_time=rep.get("contamination_time", 0.0),
        energy_drift=rep.get("energy_drift", 0.0),
    )


def cmd_analyze(args) -> int:
    run_dir = Path(args.run)
    if not (run_dir / "report.json").exists():
        print(f"analyze: {run_dir} is not a run directory", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = _load_run_dir(run_dir)
        split = None
        if args.t_est is not None and args.split_index is not None:
            split = analysis.singular_part(report.snapshots, args.t_est, t0_index=args.split_index)
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
    try:
        state = solver.load_snapshot(args.snapshot)
    except (OSError, CritwaveError) as exc:
        print(f"profiles: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        lam_range = None
        if args.lam_min is not None and args.lam_max is not None:
            lam_range = (args.lam_min, args.lam_max)
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
        _write_run_outputs(report, cell_dir, (), ())
        nu_hat = ""
        if report.outcome == "BlowUpDetected" and report.t_star:
            try:
                series = analysis.diagnostics_series(report)
                fit = analysis.fit_exponent(series.data["t"], series.data["lambda1"], report.t_star)
                nu_hat = repr(fit.nu_hat)
            except CritwaveError:
                nu_hat = ""
        return index, overrides, report.outcome, report.t_star, nu_hat, ""
    except (CritwaveError, Exception) as exc:  # noqa: BLE001 - recorded per cell
        return index, overrides, "Failed", None, "", str(exc)


def cmd_sweep(args) -> int:
    if not args.config or not os.path.exists(args.config):
        print("sweep: missing or unreadable config", file=sys.stderr)
        return EXIT_CONFIG
    try:
        base_config = solver.load_config(args.config)  # validates the template
    except (InvalidConfigError, ValueError) as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    del base_config
    with open(args.config) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        base = solver._flatten(json.loads(text))
    else:
        base = {}
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                k, v = (p.strip() for p in line.split("=", 1))
                base[k] = solver._parse_scalar(v)

    grids = []
    for spec in args.param:
        if "=" not in spec:
            print(f"sweep: bad --param {spec!r} (want key=v1,v2,...)", file=sys.stderr)
            return EXIT_CONFIG
        key, vals = spec.split("=", 1)
        grids.append([(key, solver._parse_scalar(v)) for v in vals.split(",")])
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
            row += [repr(float(overrides[k])) if k in overrides else "" for k in param_keys]
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
    p.add_argument("--config", help="configuration file (JSON or key = value)")
    p.add_argument("--out", help="output directory (default: CRITWAVE_OUT or cwd)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")
    p.add_argument("--seed", type=int, default=None, help="random seed override")
    p.add_argument("--quiet", action="store_true", help="suppress status output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critwave",
        description="Numerical experiments for the radial energy-critical focusing wave equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the solver, write snapshots and diagnostics")
    _add_common(p)
    p.add_argument("--ball-radius", type=float, action="append", default=[], metavar="R")
    p.add_argument("--g-radius", type=float, action="append", default=[], metavar="R")
    p.add_argument("--t-est", type=float, default=None, help="no effect; analyze takes --t-est")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dalembert", help="exact linear-solution checks and evolution")
    _add_common(p)
    p.add_argument("mode", choices=("check", "evolve"))
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
