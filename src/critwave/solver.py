"""Explicit finite-difference solver for the radial quintic focusing wave
equation in 3D, in the reduced variable h = r*u:

    d^2_t h = d^2_r h + h^5 / r^4        (nonlinear term = r * u^5)

Second-order centered differences in r, a drift-kick-drift Stormer-Verlet
step in t, Dirichlet h(t,0) = 0 at the origin and Sommerfeld outflow
d_t v = -d_r v at r = rmax (exact for the linear 1D reduction), advanced by
Crank-Nicolson on the one-sided second-order stencil.

Cost model of `step` on n nodes: one force evaluation per step, in `out=`
NumPy operations on the new h and v arrays and one interior scratch array.
The two drifts are 4 operations, the stencil 4, the kick 2 and, when
nonlinear, r u^5 = (u^2)^2 h (u = h/r, products rather than pow, 1/r
kept on the mesh) 5 more: 15 array operations per step (10 linear), plus
the outer row in Python floats and scalar writes at the two boundaries.
The spacing is read from the mesh, which checks uniformity once at
construction, and the new state is built without validation, so a step
does no check. `run` adds 2 passes a step for its blow-up test, |h| into a
buffer of the run and its max against a bound fixed once per run; only a
step past that bound takes the exact divide/max/min scan. The loop enters
one NumPy error state per run, not per step.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InvalidConfigError, InvalidDataError
from .ground_state import GroundStateParams, _gradient_kinetic, energy, eval_w
from .mesh import FieldState, RadialMesh, Region
from .radial import RadialProfile, gaussian_bump, smoothstep_bump
from .table import format_column, read_columns, write_columns

CFL_MAX = 0.5
# each initial-data family, the data.* keys it reads and the kind of value each takes
FAMILIES = {
    "near_w": {"delta": "number", "lambda": "positive", "r_cut": "positive"},
    "bump": {"amp": "number", "sigma": "positive", "center": "number"},
    "perturbed_w": {"lambda": "positive", "eps": "number", "amp": "number", "sigma": "positive", "center": "number"},
    "csv": {"path": "string"},
}
_MAX_NODES = 10**7  # more than 1000 times the largest mesh any run here uses
_MAX_STEPS = 10**8  # more than 600 times the 162k steps of ROADMAP item 1's finest graded-mesh run


# config key: (RunConfig field, the kind of value it takes)
_KEYS = {
    "mesh.h": ("mesh_h", "number"),
    "mesh.rmax": ("rmax", "number"),
    "cfl": ("cfl", "number"),
    "t_end": ("t_end", "number"),
    "nonlinear": ("nonlinear", "bool"),
    "blowup_threshold": ("blowup_threshold", "number"),
    "output.every": ("output_every", "number"),
    "seed": ("seed", "integer"),
    "data.family": ("family", "string"),
}

# kind of value: (the types it takes, how a message names them); an unset
# seed is None
_KINDS = {
    "number": ((int, float), "a number"),
    "positive": ((int, float), "a number"),
    "bool": (bool, "true or false"),
    "integer": ((int, type(None)), "an integer"),
    "string": (str, "a string"),
}


def _checked(key: str, value, kind: str):
    """value, a number as a float, if it is of the kind that config key `key`
    takes, else InvalidConfigError naming the key. A bool is never a number,
    a string is not read as one, a number must be finite, and a positive one
    above 0."""
    types, name = _KINDS[kind]
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise InvalidConfigError(f"{key} must be {name}, got {value!r}")
    # fails on NaN, +-inf and an int too large for a float
    if types == (int, float) and not abs(value) <= sys.float_info.max:
        raise InvalidConfigError(f"{key} must be finite, got {value!r}")
    if kind == "positive" and not value > 0:
        raise InvalidConfigError(f"{key} must be positive, got {value!r}")
    return float(value) if types == (int, float) else value


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
        for key, (name, kind) in _KEYS.items():
            _checked(key, getattr(self, name), kind)
        # written so that a NaN fails them too
        if not 0 < self.cfl <= CFL_MAX:
            raise InvalidConfigError(f"cfl must be in (0, {CFL_MAX}]")
        if not 0 < self.mesh_h < self.rmax:
            raise InvalidConfigError(f"mesh.h must be in (0, mesh.rmax = {self.rmax!r}), got {self.mesh_h!r}")
        # round(rmax / h) + 1 <= _MAX_NODES; the quotient may overflow to inf
        if not self.rmax / self.mesh_h < _MAX_NODES - 0.5:
            raise InvalidConfigError(f"mesh.rmax / mesh.h gives more than {_MAX_NODES} nodes, "
                                     f"got mesh.rmax = {self.rmax!r} and mesh.h = {self.mesh_h!r}")
        for key in ("t_end", "blowup_threshold", "output.every"):
            _checked(key, getattr(self, _KEYS[key][0]), "positive")
        # the step count ceil(t_end / (cfl h)) of `run`; cfl * h may underflow to 0
        if not self.t_end / self.cfl / self.mesh_h <= _MAX_STEPS:
            raise InvalidConfigError(f"t_end / (cfl * mesh.h) gives more than {_MAX_STEPS} steps, got t_end = "
                                     f"{self.t_end!r}, cfl = {self.cfl!r} and mesh.h = {self.mesh_h!r}")

    def mesh(self) -> RadialMesh:
        return RadialMesh.uniform(self.mesh_h, self.rmax)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        kwargs: dict = {}
        params: dict = {}
        for key, val in _flatten(d).items():
            if key in _KEYS:
                kwargs[_KEYS[key][0]] = val
            elif key.startswith("data."):
                params[key[5:]] = val
            else:
                raise InvalidConfigError(f"unknown config key: {key}")
        return cls(**kwargs, params=params)


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
    dict from dotted keys to values. A file that is missing, unreadable or
    not valid JSON raises InvalidConfigError naming the path."""
    try:
        with open(path) as fh:
            text = fh.read()
        if text.lstrip().startswith("{"):
            return _flatten(json.loads(text))
    except (OSError, ValueError) as exc:
        raise InvalidConfigError(f"cannot read config {path}: {exc}") from exc
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
    if family not in FAMILIES:
        raise InvalidConfigError(f"data.family must be one of {', '.join(FAMILIES)}, got {family!r}")
    kinds = FAMILIES[family]
    for key in params:
        if key not in kinds:
            reads = ", ".join(f"data.{k}" for k in kinds)
            raise InvalidConfigError(f"data.{key} is not read by data.family = {family}, which reads {reads}")

    def read(key: str, default):
        # data.<key>, checked as FAMILIES says, or default where it is absent
        return _checked(f"data.{key}", params[key], kinds[key]) if key in params else default

    def bump() -> RadialProfile:
        return gaussian_bump(read("amp", 1.0), read("sigma", 1.0), read("center", 0.0))

    r = mesh.nodes
    if family == "csv":
        path = read("path", None)
        if path is None:
            raise InvalidConfigError("data.family = csv needs data.path")
        return load_snapshot(path, mesh)
    # an extreme data.* number can overflow u, or h = r u, to inf or nan:
    # refused below
    with np.errstate(all="ignore"):
        if family == "near_w":
            delta = read("delta", 0.0)
            lam = read("lambda", 1.0)
            r_cut = read("r_cut", mesh.rmax / 3.0)
            u0 = (1.0 + delta) * eval_w(r, GroundStateParams(lam=lam)) * smoothstep_bump(r / r_cut)
        elif family == "bump":
            u0 = bump().u(r)
        else:  # perturbed_w
            lam = read("lambda", 1.0)
            eps = read("eps", 0.0)
            u0 = eval_w(r, GroundStateParams(lam=lam)) + eps * bump().u(r)
        finite = np.all(np.isfinite(r * u0))  # nan at the origin where u0 is not finite
    if not finite:
        given = ", ".join(f"data.{key} = {value!r}" for key, value in sorted(params.items()))
        raise InvalidConfigError(f"data.family = {family} with {given} gives initial data that is not finite")
    return FieldState.from_u(mesh, u0, np.zeros_like(r))


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
    write_columns(path, ["r", "u", "ut"], [_r_column(state.mesh), state.u(), state.ut()])


# a run's frames share its mesh, so each process that writes a share of a
# run's snapshots formats r once
@functools.lru_cache(maxsize=1)
def _r_column(mesh: RadialMesh) -> list:
    """The repr text of the mesh's nodes, formatted once per mesh."""
    return format_column(mesh.nodes)


# ----------------------------------------------------------------- time stepping


def step(state: FieldState, dt: float, nonlinear: bool = True) -> FieldState:
    """One drift-kick-drift (position) Stormer-Verlet step.

    h_half = h + dt/2 v, then v' = v + dt (D^2 h_half + h_half^5 / r^4) on the
    interior and h' = h_half + dt/2 v', with h = v = 0 at the origin. The
    outer row advances d_t v = -d_r v by Crank-Nicolson on the one-sided
    second-order stencil.
    """
    mesh = state.mesh
    dr = mesh.spacing
    h, v = state.h, state.hdot
    new_h = np.multiply(v, 0.5 * dt)
    new_h += h  # h_half until the last drift
    new_v = np.empty_like(v)
    hi = new_h[1:-1]
    force = new_v[1:-1]  # the force, then v' after the kick
    np.multiply(hi, 2.0, out=force)
    np.subtract(new_h[2:], force, out=force)
    force += new_h[:-2]
    force *= 1.0 / dr**2
    tmp = np.empty_like(force)
    if nonlinear:
        # r u^5 = (u^2)^2 h with u = h / r, by products rather than pow
        np.multiply(hi, mesh.inv_r[:-1], out=tmp)
        tmp *= tmp
        tmp *= tmp
        tmp *= hi
        force += tmp
    force *= dt
    force += v[1:-1]
    new_v[0] = 0.0
    # outer boundary: d_t v = -d_r v, Crank-Nicolson on (3 v_N - 4 v_N-1 + v_N-2) / 2 dr,
    # in Python floats: the same double arithmetic as on NumPy scalars
    v3, v2, v1 = v[-3:].tolist()
    w3, w2 = new_v[-3:-1].tolist()
    a = dt / (2.0 * dr)
    w1 = (v1 - a * (1.5 * v1 - 2.0 * (v2 + w2) + 0.5 * (v3 + w3))) / (1.0 + 1.5 * a)
    new_v[-1] = w1
    np.multiply(new_v[1:-1], 0.5 * dt, out=tmp)
    hi += tmp
    new_h[-1] += 0.5 * dt * w1
    new_h[0] = 0.0
    return FieldState._unchecked(mesh, state.t + dt, new_h, new_v)


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
    config: RunConfig | None  # None for a run directory whose report.json predates the key


_SUPPORT_TOL = 1e-13  # |h| or |hdot| above this counts as data


def support_radius(state: FieldState) -> float:
    big = np.maximum(np.abs(state.h), np.abs(state.hdot)) > _SUPPORT_TOL
    idx = np.nonzero(big)[0]
    if idx.size == 0:
        return 0.0
    return float(state.mesh.nodes[idx[-1]])


def run(config: RunConfig, initial: FieldState | None = None, times: list | None = None,
        on_frame=None) -> RunReport:
    """Integrate until t_end or blow-up; snapshot at the output cadence.

    With `times`, increasing output times after the initial state's, the run
    ends at the last of them instead and keeps a frame at the first step
    that reaches each; t_end and output_every are then not read.

    With `on_frame`, frame i goes to on_frame(i, state) when it is recorded
    and is not kept: the report's snapshots are empty, and its times,
    energies and sup_u history are those of the frames passed. A step never
    writes into an earlier state's arrays, so on_frame may keep the state.
    on_frame, like each frame's energy, runs under the caller's NumPy error
    state; only the steps and the blow-up test ignore overflow.
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
    caller_err = np.geterr()

    def record(state: FieldState) -> None:
        # under the caller's error state, not the loop's
        with np.errstate(**caller_err):
            if on_frame is None:
                snapshots.append(state)
            else:
                on_frame(len(frame_t), state)
            frame_t.append(state.t)
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
    r = mesh.nodes[1:]
    u = np.empty_like(r)
    abs_h = np.empty_like(mesh.nodes)
    safe = _safe_bound(config.blowup_threshold, float(r[0]))
    # near blow-up the force h^5/r^4 can overflow, silently here
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            # the last step ends on t_final, shortened or stretched to it
            tau = t_final - state.t if i == n_steps - 1 else dt
            new = step(state, tau, config.nonlinear)
            # sup|h/r| over r > 0 above the threshold, or not finite, ends
            # the run; max|h| within `safe` settles that it is neither, and
            # any other step takes the exact scan, in which a NaN makes both
            # max and min NaN
            if not np.abs(new.h, out=abs_h).max() <= safe:
                np.divide(new.h[1:], r, out=u)
                amp = max(u.max(), -u.min())
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


def _safe_bound(threshold: float, r1: float) -> float:
    """A bound on max|h| within which sup|h/r| over nodes r >= r1 > 0 is
    finite and at most `threshold`, for the quotients as rounded:
    threshold r1 (1 - 1e-12), whose margin covers the rounding of the
    products. It is 0 where threshold r1 is below the smallest normal double
    (the margin would not cover rounding there), and the largest finite
    double where it overflows (r1 > 1, so every |h/r| < |h|), so that +-inf
    and NaN never pass it."""
    bound = threshold * r1
    if bound < sys.float_info.min:
        return 0.0
    return min(bound * (1.0 - 1e-12), sys.float_info.max)


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
