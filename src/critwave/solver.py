"""Explicit finite-difference solver for the radial quintic focusing wave
equation in 3D, in the reduced variable h = r*u:

    d^2_t h = d^2_r h + h^5 / r^4        (nonlinear term = r * u^5)

Second-order centered differences in r, RK4 in t, Dirichlet h(t,0) = 0 at
the origin and Sommerfeld outflow at r = rmax (exact for the linear 1D
reduction).

Cost model of `step` on n nodes: the state is stacked as one (2, n) array
(h, v = dh/dt) and every stage works on it with `out=` NumPy operations in
a workspace allocated once per step, so the stages allocate nothing. A step
is 4 RHS evaluations; each is a copy, 4 operations for the stencil and, when
nonlinear, 5 for r u^5 = (u^2)^2 h (u = h/r, products rather than pow).
With the stage updates that is 56 array operations per step (36 linear),
plus scalar writes at the two boundaries. The spacing is read from the
mesh, which checks uniformity once at construction, so a step does no mesh
check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InvalidConfigError, InvalidDataError
from .ground_state import GroundStateParams, _gradient_kinetic, energy, eval_w
from .mesh import FieldState, RadialMesh, Region
from .radial import RadialProfile, gaussian_bump, smoothstep_bump
from .table import format_column, read_columns, write_columns

CFL_MAX = 0.5


@dataclass(frozen=True)
class RunConfig:
    mesh_h: float = 0.02
    rmax: float = 20.0
    cfl: float = 0.5
    t_end: float = 2.0
    nonlinear: bool = True
    blowup_threshold: float = 1e6  # sup|u| past which a run has blown up
    output_every: float = 0.1
    family: str = "bump"
    params: dict = dc_field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        if self.cfl <= 0 or self.cfl > CFL_MAX:
            raise InvalidConfigError(f"cfl must be in (0, {CFL_MAX}]")
        if self.mesh_h <= 0 or self.rmax <= self.mesh_h or self.t_end <= 0:
            raise InvalidConfigError("invalid mesh or time parameters")
        if self.blowup_threshold <= 0 or self.output_every <= 0:
            raise InvalidConfigError("thresholds and cadence must be positive")

    def mesh(self) -> RadialMesh:
        return RadialMesh.uniform(self.mesh_h, self.rmax)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        flat = _flatten(d)
        known = {
            "mesh.h": "mesh_h",
            "mesh.rmax": "rmax",
            "cfl": "cfl",
            "t_end": "t_end",
            "nonlinear": "nonlinear",
            "blowup_threshold": "blowup_threshold",
            "output.every": "output_every",
            "seed": "seed",
        }
        kwargs: dict = {}
        params: dict = {}
        for key, val in flat.items():
            if key in known:
                kwargs[known[key]] = val
            elif key == "data.family":
                kwargs["family"] = str(val)
            elif key.startswith("data."):
                params[key[5:]] = val
            else:
                raise InvalidConfigError(f"unknown config key: {key}")
        kwargs["params"] = params
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise InvalidConfigError(str(exc)) from exc


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


def read_config(path) -> dict:
    """Read a config file, a JSON object or key = value lines, as a flat
    dict from dotted keys to values."""
    import json

    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return _flatten(json.loads(text))
    flat: dict = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigError(f"expected key = value, got: {line}")
        key, val = (part.strip() for part in line.split("=", 1))
        flat[key] = parse_scalar(val)
    return flat


def load_config(path) -> RunConfig:
    return RunConfig.from_dict(read_config(path))


def parse_scalar(val: str):
    """A key = value right-hand side as bool, int, float, or else string."""
    low = val.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(val)
    except ValueError:
        pass
    try:
        return float(val)
    except ValueError:
        return val


# ----------------------------------------------------------------- initial data

def make_initial_data(mesh: RadialMesh, family: str, params: dict) -> FieldState:
    r = mesh.nodes
    if family == "near_w":
        delta = float(params.get("delta", 0.0))
        lam = float(params.get("lambda", 1.0))
        r_cut = float(params.get("r_cut", mesh.rmax / 3.0))
        u0 = (1.0 + delta) * eval_w(r, GroundStateParams(lam=lam)) * smoothstep_bump(r / r_cut)
        return FieldState.from_u(mesh, u0, np.zeros_like(r))
    if family == "bump":
        return FieldState.from_u(mesh, _bump(params).u(r), np.zeros_like(r))
    if family == "perturbed_w":
        lam = float(params.get("lambda", 1.0))
        eps = float(params.get("eps", 0.0))
        u0 = eval_w(r, GroundStateParams(lam=lam))
        return FieldState.from_u(mesh, u0 + eps * _bump(params).u(r), np.zeros_like(r))
    if family == "csv":
        return load_snapshot(params["path"], mesh)
    raise InvalidConfigError(f"unknown initial-data family: {family}")


def _bump(params: dict) -> RadialProfile:
    """The Gaussian bump of the config's data.amp, data.sigma and data.center."""
    return gaussian_bump(
        float(params.get("amp", 1.0)), float(params.get("sigma", 1.0)), float(params.get("center", 0.0))
    )


def load_snapshot(path, mesh: RadialMesh | None = None) -> FieldState:
    """Read an r,u,ut snapshot table; resample onto `mesh` if given."""
    r, u, ut = read_columns(path, ("r", "u", "ut"))
    if r.size == 0:
        raise InvalidDataError(f"{path}: snapshot has no rows")
    if mesh is None:
        if r[0] != 0.0:
            r = np.concatenate(([0.0], r))
            u = np.concatenate(([u[0]], u))
            ut = np.concatenate(([ut[0]], ut))
        mesh = RadialMesh(r)
        return FieldState.from_u(mesh, u, ut)
    ui = np.interp(mesh.nodes, r, u, right=0.0)
    uti = np.interp(mesh.nodes, r, ut, right=0.0)
    return FieldState.from_u(mesh, ui, uti)


def save_snapshot(state: FieldState, path) -> None:
    """Write the snapshot as an r,u,ut table; the r column's text is kept per
    mesh (`_r_column`), so a run's snapshots format only u and ut."""
    columns = [_r_column(state.mesh), format_column(state.u()), format_column(state.ut())]
    write_columns(path, ["r", "u", "ut"], columns)


# (mesh, repr text of its nodes) of the last snapshot saved; holding the
# mesh keeps its identity from being reused by another mesh
_last_r_column: tuple = (None, [])


def _r_column(mesh: RadialMesh) -> list:
    """The repr text of the mesh's nodes, formatted once per mesh."""
    global _last_r_column
    if _last_r_column[0] is not mesh:
        _last_r_column = (mesh, format_column(mesh.nodes))
    return _last_r_column[1]


# ----------------------------------------------------------------- time stepping


def _rhs(
    y: np.ndarray, k: np.ndarray, inv_r: np.ndarray, dr: float, nonlinear: bool, tmp: np.ndarray
) -> None:
    """Right-hand side of the first-order system: k = (dh/dt, dv/dt) at y = (h, v).

    `inv_r` is 1/r and `tmp` scratch, both on the interior nodes.
    """
    h, v = y
    np.copyto(k[0], v)
    dv = k[1, 1:-1]
    np.multiply(h[1:-1], -2.0, out=dv)
    dv += h[2:]
    dv += h[:-2]
    dv *= 1.0 / dr**2
    if nonlinear:
        # r u^5 = (u^2)^2 h with u = h / r, by products rather than pow
        np.multiply(h[1:-1], inv_r, out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        tmp *= h[1:-1]
        dv += tmp
    # origin: Dirichlet h = 0
    k[:, 0] = 0.0
    # outer boundary: advect v out, d_t v = -d_r v (one-sided 2nd order)
    k[1, -1] = -(3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dr)


def step(state: FieldState, dt: float, nonlinear: bool = True) -> FieldState:
    """One RK4 step of the method-of-lines system.

    Works on the stacked state (h, v) in scratch arrays allocated once per
    step; the stages allocate nothing.
    """
    mesh = state.mesh
    r, dr = mesh.nodes, mesh.spacing
    inv_r = 1.0 / r[1:-1]
    tmp = np.empty_like(inv_r)
    y, ys, k, ksum = np.empty((4, 2, r.size))
    new = np.empty((2, r.size))
    y[0] = state.h
    y[1] = state.hdot

    # ksum accumulates k1 + 2 k2 + 2 k3 + k4; `new` is scratch until the end
    _rhs(y, ksum, inv_r, dr, nonlinear, tmp)
    np.multiply(ksum, 0.5 * dt, out=ys)
    ys += y
    for c in (0.5 * dt, dt):
        _rhs(ys, k, inv_r, dr, nonlinear, tmp)
        np.multiply(k, 2.0, out=new)
        ksum += new
        np.multiply(k, c, out=ys)
        ys += y
    _rhs(ys, k, inv_r, dr, nonlinear, tmp)
    ksum += k

    np.multiply(ksum, dt / 6.0, out=new)
    new += y
    return FieldState(mesh, state.t + dt, new[0], new[1])


@dataclass
class RunReport:
    outcome: str  # "Completed" | "BlowUpDetected"
    t_star: float | None
    times: np.ndarray
    energies: np.ndarray
    sup_history: np.ndarray
    snapshots: list
    contamination_time: float  # rmax minus the initial support radius
    energy_drift: float
    config: RunConfig


def support_radius(state: FieldState, tol: float = 1e-13) -> float:
    big = np.maximum(np.abs(state.h), np.abs(state.hdot)) > tol
    idx = np.nonzero(big)[0]
    if idx.size == 0:
        return 0.0
    return float(state.mesh.nodes[idx[-1]])


def run(config: RunConfig, initial: FieldState | None = None, times: list | None = None) -> RunReport:
    """Integrate until t_end or blow-up; snapshot at the output cadence.

    With `times`, increasing output times after the initial state's, the run
    ends at the last of them instead and keeps a frame at the first step
    that reaches each; t_end and output_every are then not read.
    """
    mesh = config.mesh()
    if initial is None:
        state = make_initial_data(mesh, config.family, config.params)
    else:
        state = initial
        mesh = state.mesh
    dt = config.cfl * mesh.spacing
    contamination = mesh.rmax - support_radius(state)

    frame_t, snapshots, energies, sups = [], [], [], []

    def record(state: FieldState) -> None:
        frame_t.append(state.t)
        snapshots.append(state)
        energies.append(energy(state).total_energy if config.nonlinear else _linear_energy(state))
        sups.append(state.sup_u())

    record(state)
    outcome = "Completed"
    t_star = None

    if times is None:
        t_final = state.t + config.t_end
        n_steps = int(np.ceil((config.t_end - 1e-12) / dt))
        every = config.output_every
        times = itertools.accumulate(itertools.repeat(every), initial=state.t + every)
    else:
        # output times that are sums of dt steps carry the sums' rounding
        # (2e-12 after 8000 steps), so count steps to the frame tolerance
        t_final = max(times, default=state.t)
        n_steps = int(np.ceil((t_final - state.t - 1e-9) / dt))
    outputs = iter(times)
    next_out = next(outputs, np.inf)
    for i in range(n_steps):
        # the last step ends on t_final, shortened or stretched to it
        tau = t_final - state.t if i == n_steps - 1 else dt
        # sup|h/r| over r > 0 above the threshold, or not finite (near
        # blow-up the RK stages overflow, silently here), ends the run
        with np.errstate(over="ignore", invalid="ignore"):
            new = step(state, tau, config.nonlinear)
            amp = np.max(np.abs(new.h[1:] / new.mesh.nodes[1:]))
        if not (np.isfinite(amp) and amp <= config.blowup_threshold):
            outcome = "BlowUpDetected"
            t_star = state.t
            if frame_t[-1] < state.t:  # keep the last stable state
                record(state)
            break
        state = new
        if state.t >= next_out - 1e-9 or i == n_steps - 1:
            record(state)
            next_out = next(outputs, np.inf)

    times_a = np.asarray(frame_t)
    energies_a = np.asarray(energies)
    e0 = energies_a[0]
    # drift excludes the under-resolved last stable frame of a blow-up run
    e_reg = energies_a[:-1] if (outcome == "BlowUpDetected" and energies_a.size > 1) else energies_a
    drift = float(np.max(np.abs(e_reg - e0)) / max(abs(e0), 1e-300))
    return RunReport(
        outcome=outcome,
        t_star=t_star,
        times=times_a,
        energies=energies_a,
        sup_history=np.asarray(sups),
        snapshots=snapshots,
        contamination_time=contamination,
        energy_drift=drift,
        config=config,
    )


def _linear_energy(state: FieldState) -> float:
    gradient_sq, kinetic_sq = _gradient_kinetic(state)
    return 0.5 * gradient_sq + 0.5 * kinetic_sq


def finite_speed_check(
    config: RunConfig, perturbation: RadialProfile, rho: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Max energy leakage of (perturbed - unperturbed) outside r <= rho + t.

    The perturbation must be supported (to rounding) in r <= rho.
    """
    mesh = config.mesh()
    base0 = make_initial_data(mesh, config.family, config.params)
    pert0 = FieldState(
        mesh, base0.t, base0.h + mesh.nodes * perturbation.u(mesh.nodes), base0.hdot.copy()
    )
    rep_base = run(config, initial=base0)
    rep_pert = run(config, initial=pert0)
    n = min(len(rep_base.snapshots), len(rep_pert.snapshots))
    leaks = []
    ts = []
    for sb, sp in zip(rep_base.snapshots[:n], rep_pert.snapshots[:n]):
        diff = sp - sb
        edge = rho + (sb.t - base0.t)
        if edge >= mesh.rmax:
            break
        gradient_sq, kinetic_sq = _gradient_kinetic(diff, Region.exterior(edge))
        leaks.append(gradient_sq + kinetic_sq)
        ts.append(sb.t)
    return float(max(leaks)), np.asarray(ts), np.asarray(leaks)
