"""Explicit finite-difference solver for the radial quintic focusing wave
equation in 3D, in the reduced variable h = r*u:

    d^2_t h = d^2_r h + h^5 / r^4        (nonlinear term = r * u^5)

Second-order centered differences in r, a drift-kick-drift Stormer-Verlet
step in t, Dirichlet h(t,0) = 0 at the origin and Sommerfeld outflow
d_t v = -d_r v at r = rmax (exact for the linear 1D reduction), advanced by
Crank-Nicolson on the one-sided second-order stencil.

Cost model of `step`: one force evaluation per step, in `out=` NumPy
operations into the workspace that `run` forms once (`_Workspace`), six
rows cut from one aligned block: two (h, v) buffers that the steps
alternate between, one interior scratch row and 1/r. The two drifts are 4
operations, the stencil 4, the kick 2 and, when nonlinear, r u^5 =
(u^2)^2 h (u = h/r, products rather than pow) 5 more: 15 array operations
per step (10 linear), plus the outer row in Python floats and scalar
writes at the two boundaries. Each runs over only the nodes the data can
have reached (finite speed of propagation: data that are +0.0 past node e
are +0.0 past node e + 1 a step later), in a window that grows in chunks
of 64 nodes, so a step costs O(nodes reached), not O(n). A step from a
state in the workspace makes no array and forms slices only when its
window changes; one from any other state scans it, and the new state,
once for its extent. The mesh checks uniformity once at construction, and
the new state is built without validation, so a step does no check. `run`
adds 1 pass a step for its blow-up test, the sum h @ h against a bound
fixed once per run; only a step past that bound takes the exact
divide/max/min scan. It copies a state out of the buffers only to keep it
as a frame. The loop enters one NumPy error state per run, not per step.
"""

from __future__ import annotations

import itertools
import json
import sys
import weakref
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InvalidConfigError, InvalidDataError
from .ground_state import GroundStateParams, _gradient_kinetic, energy, eval_w
from .mesh import FieldState, RadialMesh, Region
from .radial import RadialProfile, gaussian_bump, smoothstep_bump
from .table import format_column, read_columns, write_columns

CFL_MAX = 0.5
# each initial-data family, the data.* keys it reads, each with the kind of value it
# takes and its default: None where the key must be given; r_cut's is mesh.rmax / 3
FAMILIES = {
    "near_w": {"delta": ("number", 0.0), "lambda": ("positive", 1.0), "r_cut": ("positive", lambda rmax: rmax / 3.0)},
    "bump": {"amp": ("number", 1.0), "sigma": ("positive", 1.0), "center": ("number", 0.0)},
    "perturbed_w": {"lambda": ("positive", 1.0), "eps": ("number", 0.0),
                    "amp": ("number", 1.0), "sigma": ("positive", 1.0), "center": ("number", 0.0)},
    "csv": {"path": ("string", None)},
}
_MAX_NODES = 10**7  # more than 1000 times the largest mesh any run here uses
_MAX_STEPS = 10**8  # more than 600 times the 162k steps of ROADMAP item 1's finest graded-mesh run


# config key: (RunConfig field, the kind of value it takes)
_KEYS = {
    "mesh.h": ("mesh_h", "number"),
    "mesh.rmax": ("rmax", "number"),
    "cfl": ("cfl", "number"),
    "t_end": ("t_end", "positive"),
    "nonlinear": ("nonlinear", "bool"),
    "blowup_threshold": ("blowup_threshold", "positive"),
    "output.every": ("output_every", "positive"),
    "data.family": ("family", "string"),
}

# kind of value: (the types it takes, how a message names them)
_KINDS = {
    "number": ((int, float), "a number"),
    "positive": ((int, float), "a number"),
    "bool": (bool, "true or false"),
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
        # the step count ceil(t_end / (cfl h)) of `run`; cfl * h may underflow to 0
        if not self.t_end / self.cfl / self.mesh_h <= _MAX_STEPS:
            raise InvalidConfigError(f"t_end / (cfl * mesh.h) gives more than {_MAX_STEPS} steps, got t_end = "
                                     f"{self.t_end!r}, cfl = {self.cfl!r} and mesh.h = {self.mesh_h!r}")
        _data_values(self.family, self.params, self.rmax)

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
    """Read a JSON config file, an object whose keys may nest or be dotted,
    as a flat dict from dotted keys to values. A file that is missing,
    unreadable, not valid JSON or not an object raises InvalidConfigError
    naming the path."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise InvalidConfigError(f"cannot read config {path}: not a JSON object")
    return _flatten(config)


def load_config(path) -> RunConfig:
    return RunConfig.from_dict(read_config(path))


def parse_scalar(val: str):
    """A `sweep --param` value as bool, int, float, or else string."""
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

def _data_values(family: str, params: dict, rmax: float) -> dict:
    """Each data.* key that `family` reads: its value in `params`, checked as
    FAMILIES says, or its default (r_cut's on a mesh to rmax)."""
    if family not in FAMILIES:
        raise InvalidConfigError(f"data.family must be one of {', '.join(FAMILIES)}, got {family!r}")
    keys = FAMILIES[family]
    for key in params:
        if key not in keys:
            reads = ", ".join(f"data.{k}" for k in keys)
            raise InvalidConfigError(f"data.{key} is not read by data.family = {family}, which reads {reads}")
    for key, (kind, default) in keys.items():
        if default is None and key not in params:
            raise InvalidConfigError(f"data.family = {family} needs data.{key}")
    return {key: _checked(f"data.{key}", params[key], kind) if key in params
            else default(rmax) if callable(default) else default for key, (kind, default) in keys.items()}


def make_initial_data(mesh: RadialMesh, family: str, params: dict) -> FieldState:
    p = _data_values(family, params, mesh.rmax)
    r = mesh.nodes
    if family == "csv":
        return load_snapshot(p["path"], mesh)
    # an extreme data.* number can overflow u, or h = r u, to inf or nan: refused below
    with np.errstate(all="ignore"):
        if family == "near_w":
            u0 = (1.0 + p["delta"]) * eval_w(r, GroundStateParams(lam=p["lambda"])) * smoothstep_bump(r / p["r_cut"])
        else:  # bump, or perturbed_w: W plus eps times the bump
            u0 = gaussian_bump(p["amp"], p["sigma"], p["center"]).u(r)
            if family == "perturbed_w":
                u0 = eval_w(r, GroundStateParams(lam=p["lambda"])) + p["eps"] * u0
        finite = np.all(np.isfinite(r * u0))  # nan at the origin where u0 is not finite
    if not finite:
        given = ", ".join(f"data.{key} = {value!r}" for key, value in sorted(params.items()))
        raise InvalidConfigError(f"data.family = {family} with {given} gives initial data that is not finite")
    return FieldState.from_u(mesh, u0, np.zeros_like(r))


def load_snapshot(path, mesh: RadialMesh | None = None) -> FieldState:
    """Read an r,u,ut snapshot table; resample onto `mesh` if given.

    Without `mesh`, the state is on a new mesh on a contiguous copy of the
    file's r column (a view of the parsed table), with the origin restored;
    so what is kept per mesh object (the greedy grid of `profiles.extract`)
    is shared only by work on the state it returns."""
    r, u, ut = read_columns(path, ("r", "u", "ut"))
    if r.size == 0:
        raise InvalidDataError(f"{path}: snapshot has no rows")
    if mesh is None:
        if r[0] != 0.0:
            r = np.concatenate(([0.0], r))
            u = np.concatenate(([u[0]], u))
            ut = np.concatenate(([ut[0]], ut))
        return FieldState.from_u(RadialMesh(np.ascontiguousarray(r)), u, ut)
    ui = np.interp(mesh.nodes, r, u, right=0.0)
    uti = np.interp(mesh.nodes, r, ut, right=0.0)
    return FieldState.from_u(mesh, ui, uti)


def save_snapshot(state: FieldState, path) -> None:
    """Write the snapshot as an r,u,ut table; the r column's text is kept per
    mesh (`_r_column`), so a run's snapshots format only u and ut."""
    write_columns(path, ["r", "u", "ut"], [_r_column(state.mesh), state.u(), state.ut()])


# a run's frames share its mesh, so each process that writes a share of a
# run's snapshots formats r once; the text lives only as long as its mesh
_R_COLUMNS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _r_column(mesh: RadialMesh) -> list:
    """The repr text of the mesh's nodes, formatted once per mesh."""
    text = _R_COLUMNS.get(mesh)
    if text is None:
        text = _R_COLUMNS[mesh] = format_column(mesh.nodes)
    return text


# ----------------------------------------------------------------- time stepping


_CHUNK = 64  # the step's window grows by this many nodes at a time


def _slices(h: np.ndarray, v: np.ndarray, m: int) -> tuple:
    """The views of (h, v) that a step on the first m nodes reads or
    writes: h[:m], v[:m], h's interior, right and left shifts within them,
    v's interior within them and v's last 3 nodes (the outer row's)."""
    return h[:m], v[:m], h[1:m - 1], h[2:m], h[:m - 2], v[1:m - 1], v[-3:]


def _extent(h: np.ndarray, v: np.ndarray) -> int:
    """The node from which h and v are both +0.0, bit for bit: a -0.0, like
    any other value, counts as data."""
    data = np.flatnonzero(h.view(np.int64) | v.view(np.int64))
    return int(data[-1]) + 1 if data.size else 0


class _Rows:
    """One (h, v) buffer of a `_Workspace`: its rows, the extent of the
    state it holds (h and v are +0.0 from that node on) and its `_slices`
    for the workspace's window."""

    __slots__ = ("h", "v", "extent", "views")

    def __init__(self, h: np.ndarray, v: np.ndarray):
        self.h, self.v, self.extent, self.views = h, v, 0, None  # the zero state


class _Workspace:
    """What the steps of a run on a uniform mesh reuse, formed once: two
    (h, v) buffers (`_Rows`) that the steps alternate between, an interior
    scratch row, 1/r on the interior and the spacing; and the window m of
    the last step, with the slices of the buffers and rows for it, formed
    again only when m changes.

    The six rows are cut from one zeroed, 64-byte-aligned block, with a
    stride of 512 k + 88 doubles that puts their starts at six different
    offsets within a 4 KiB page. Both buffers start as the zero state, of
    extent 0, and no step writes v[0]."""

    __slots__ = ("n", "rows", "tmp", "inv_r", "dr", "m", "window_rows")

    def __init__(self, mesh: RadialMesh):
        n = self.n = mesh.nodes.size
        stride = 512 * -(-n // 512) + 88
        block = np.zeros(6 * stride + 8)
        start = (-block.ctypes.data % 64) // 8
        h1, v1, h2, v2, tmp, inv_r = (block[start + i * stride:start + i * stride + n] for i in range(6))
        self.rows = _Rows(h1, v1), _Rows(h2, v2)
        self.tmp = tmp[:n - 2]
        self.inv_r = inv_r[:n - 2]
        np.divide(1.0, mesh.nodes[1:-1], out=self.inv_r)
        self.dr = mesh.spacing
        self.m = 0

    def window(self, m: int) -> None:
        """Form the slices of a step on the first m nodes."""
        self.m = m
        for rows in self.rows:
            rows.views = _slices(rows.h, rows.v, m)
        self.window_rows = self.tmp[:m - 2], self.inv_r[:m - 2]


def step(state: FieldState, dt: float, nonlinear: bool = True, workspace: _Workspace | None = None) -> FieldState:
    """One drift-kick-drift (position) Stormer-Verlet step.

    h_half = h + dt/2 v, then v' = v + dt (D^2 h_half + h_half^5 / r^4) on the
    interior and h' = h_half + dt/2 v', with h = v = 0 at the origin. The
    outer row advances d_t v = -d_r v by Crank-Nicolson on the one-sided
    second-order stencil.

    The new state is in the buffer of `workspace` (a `_Workspace` of the
    state's mesh; a new one if none is given) that the state is not in, so
    the step after next overwrites it.

    The step computes only the first m nodes. Where h and v are +0.0 from
    node e on (the state's extent), every operation there gives +0.0 from
    +0.0, so h' and v' are +0.0 from node e + 1 on; from the last node if
    e + 3 >= n, as the outer row reads v two nodes in: the new state's
    extent, or, from a state in no buffer (its -0.0 tail is +0.0 a step
    later), the one a scan finds. The window m covers
    the e + 2 nodes that reach them and every node at which the written
    buffer holds data, rounded up to _CHUNK nodes and capped at the whole
    mesh, so past it that buffer already holds +0.0, the full mesh step's
    value. The outer row reads and writes the whole mesh's last nodes,
    inside the window or past it. On the whole mesh, m = n, the step is
    the same operations in the same order.
    """
    ws = _Workspace(state.mesh) if workspace is None else workspace
    one, two = ws.rows
    # write the buffer the state is not in
    src, dst = ((one, two) if state.h is one.h else (two, one) if state.h is two.h
                else (None, one))
    extent = _extent(state.h, state.hdot) if src is None else src.extent
    m = min(ws.n, -(-max(extent + 2, dst.extent + 1) // _CHUNK) * _CHUNK)
    if m != ws.m:
        ws.window(m)
    h, v, _, _, _, v_in, v_tail = _slices(state.h, state.hdot, m) if src is None else src.views
    new_h, _, hi, h_right, h_left, force, new_v_tail = dst.views
    tmp, inv_r = ws.window_rows
    dr = ws.dr
    half = 0.5 * dt
    np.multiply(v, half, out=new_h)
    new_h += h  # h_half until the last drift
    # force is the interior of new_v: the force, then v' after the kick
    np.multiply(hi, 2.0, out=force)
    np.subtract(h_right, force, out=force)
    force += h_left
    force *= 1.0 / dr**2
    if nonlinear:
        # r u^5 = (u^2)^2 h with u = h / r, by products rather than pow
        np.multiply(hi, inv_r, out=tmp)
        tmp *= tmp
        tmp *= tmp
        tmp *= hi
        force += tmp
    force *= dt
    force += v_in
    # outer boundary: d_t v = -d_r v, Crank-Nicolson on (3 v_N - 4 v_N-1 + v_N-2) / 2 dr,
    # in Python floats: the same double arithmetic as on NumPy scalars
    v3, v2, v1 = v_tail.tolist()
    w3, w2, _ = new_v_tail.tolist()
    a = dt / (2.0 * dr)
    w1 = (v1 - a * (1.5 * v1 - 2.0 * (v2 + w2) + 0.5 * (v3 + w3))) / (1.0 + 1.5 * a)
    new_v_tail[2] = w1
    np.multiply(force, half, out=tmp)
    hi += tmp
    dst.h[-1] += half * w1
    new_h[0] = 0.0
    # the outer row reads v two nodes in, so data there reaches the last node
    dst.extent = _extent(dst.h, dst.v) if src is None else extent + 1 if extent + 3 < ws.n else ws.n
    return FieldState._unchecked(state.mesh, state.t + dt, dst.h, dst.v)


@dataclass
class RunReport:
    """What `run` records: the outcome, t* and each frame's t and E, with
    the drift and contamination time formed from them; the frames, unless
    they went to `on_frame`."""

    outcome: str  # "Completed" | "BlowUpDetected"
    t_star: float | None
    times: np.ndarray
    energies: np.ndarray
    snapshots: list
    contamination_time: float  # rmax minus the initial support radius
    energy_drift: float
    config: RunConfig  # the config the run was made under


_SUPPORT_TOL = 1e-13  # |h| or |hdot| above this times its own max counts as data


def support_radius(state: FieldState) -> float:
    h, hdot = np.abs(state.h), np.abs(state.hdot)  # relative tests, so that scaling keeps the radius
    idx = np.nonzero((h > _SUPPORT_TOL * h.max()) | (hdot > _SUPPORT_TOL * hdot.max()))[0]
    if idx.size == 0:
        return 0.0
    return float(state.mesh.nodes[idx[-1]])


def run(config: RunConfig, initial: FieldState | None = None, times: list | None = None,
        on_frame=None) -> RunReport:
    """Integrate until t_end or blow-up; snapshot at the output cadence.

    The run starts from `initial`, on its mesh, or else builds the config's
    mesh and initial data. It records what conservation needs: each
    frame's t and E, and from them the report's energy drift, t* and
    contamination time. Every other per-frame value is a column of
    `analysis.row_function`.

    With `times`, increasing output times after the initial state's, the run
    ends at the last of them instead and keeps a frame at the first step
    that reaches each; t_end and output_every are then not read.

    With `on_frame`, frame i goes to on_frame(i, state) when it is recorded
    and is not kept: the report's snapshots are empty, and its times and
    energies are those of the frames passed. The steps alternate between
    the two buffers of one `_Workspace`, and a frame is a copy out of them,
    so on_frame may keep the state.
    on_frame, like each frame's energy, runs under the caller's NumPy error
    state; only the steps and the blow-up test ignore overflow.
    """
    state = make_initial_data(config.mesh(), config.family, config.params) if initial is None else initial
    start, mesh = state, state.mesh
    dt = config.cfl * mesh.spacing
    contamination = mesh.rmax - support_radius(state)

    frame_t, snapshots, energies = [], [], []
    caller_err = np.geterr()

    def record(state: FieldState) -> None:
        if state is not start:  # a copy out of the workspace, whose buffers later steps overwrite
            state = FieldState._unchecked(mesh, state.t, state.h.copy(), state.hdot.copy())
        # under the caller's error state, not the loop's
        with np.errstate(**caller_err):
            if on_frame is None:
                snapshots.append(state)
            else:
                on_frame(len(frame_t), state)
            frame_t.append(state.t)
            energies.append(energy(state).total_energy if config.nonlinear else _linear_energy(state))

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
    safe_sq = _sum_sq_bound(_safe_bound(config.blowup_threshold, float(r[0])))
    workspace = _Workspace(mesh)
    # near blow-up the force h^5/r^4 can overflow, silently here
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            # the last step ends on t_final, shortened or stretched to it
            tau = t_final - state.t if i == n_steps - 1 else dt
            new = step(state, tau, config.nonlinear, workspace)
            # sup|h/r| over r > 0 above the threshold, or not finite, ends
            # the run; h @ h within `safe_sq` settles that it is neither, and
            # any other step takes the exact scan, in which a NaN makes both
            # max and min NaN
            if not new.h @ new.h <= safe_sq:
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


def _sum_sq_bound(safe: float) -> float:
    """A bound on the computed h @ h within which max|h| <= safe: safe^2 / 4,
    or -1, which no h @ h passes, where that is not a finite normal double.
    Rounded in any order, the sum of n squares is at least (1 - gamma_n) sum
    h^2, gamma_n = n u / (1 - n u) with u = 2^-53, less at most n 2^-1074 of
    underflow, so a sum within the bound leaves max h^2 <= sum h^2 below
    safe^2 by far more than both. NaN, +-inf and a square or sum that
    overflows make it NaN or inf, which never passes."""
    bound = 0.25 * safe * safe
    return bound if sys.float_info.min <= bound <= sys.float_info.max else -1.0


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
