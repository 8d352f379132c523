"""Diagnostics on solver output: the singular part; per frame, through
`row_function`, sup|u|, the concentration radii, sign projection, virial
moments z1, z2, Z and localized virial functionals d and g_R; cone
energies; and the power-law fit of the concentration scale. The right-hand sides of the
virial identities are integrals of `ground_state.energy`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidParameterError
from .ground_state import (
    GroundStateParams,
    _gradient_kinetic,
    eval_w_deriv,
    w_constants,
    w_exterior_grad,
    w_field,
)
from .mesh import FieldState, RadialMesh, Region
from .radial import FOUR_PI, smoothstep_bump, transition
from .solver import RunReport, run
from .table import write_columns


# ------------------------------------------------------------- singular part


def singular_part(report: RunReport, T_est: float, t0_index: int, row) -> list:
    """Split u into regular part v and singular part a = u - v: the rows
    [row(t0_index, u, v), row(t0_index + 1, u, v), ...] of the snapshots
    from t0_index on, each formed, and its u and v dropped, as v arrives.

    v restarts at t0 from u's data smoothly cut off to the exterior
    r >= (T_est - t0) + margin, margin = 2 dr + 2 cfl dr, and is stepped by
    `solver.run` under the run's own config to the later snapshots' times;
    by finite speed of propagation v agrees with the true regular part
    outside the light cone, which is the only region the diagnostics use it
    on. If v fails the run's blow-up test, DegenerateInputError names when.
    """
    base = report.snapshots[t0_index]
    mesh = base.mesh
    if not base.t < T_est < np.inf:
        raise InvalidParameterError("T_est must be finite and exceed the restart time")
    dr = mesh.spacing
    margin = 2.0 * dr + 2.0 * report.config.cfl * dr
    r_cone = T_est - base.t
    chi = transition(mesh.nodes, r_cone, r_cone + margin)
    v0 = FieldState(mesh, base.t, chi * base.h, chi * base.hdot)

    # if v blows up, its last frame is its last stable state, dropped with the rest
    rows = []
    v_run = run(report.config, initial=v0, times=report.times[t0_index + 1 :].tolist(),
                on_frame=lambda j, v: rows.append(row(t0_index + j, report.snapshots[t0_index + j], v)))
    if v_run.outcome == "BlowUpDetected":
        raise DegenerateInputError(f"the regular part v restarted at snapshot index {t0_index} "
                                   f"(t = {base.t:.6g}) blew up at t = {v_run.t_star:.6g}")
    return rows


# -------------------------------------------------------- concentration radii


@dataclass(frozen=True)
class ConcentrationRadii:
    mu: float | None
    nu: float | None
    lambda1: float | None


def _cumulative_energy(field: FieldState, gradient_only: bool = False) -> np.ndarray:
    r = field.mesh.nodes
    dens = r * r * field.du_dr() ** 2
    if not gradient_only:
        dens = dens + r * r * field.ut() ** 2
    return FOUR_PI * field.mesh.cumulative(dens)


def _inf_radius(r: np.ndarray, cum: np.ndarray, threshold: float) -> float | None:
    """Infimal radius where the nondecreasing cumulative reaches threshold:
    None where it does not, NaN where it reaches it only by overflowing."""
    if cum[-1] < threshold:
        return None
    i = int(np.searchsorted(cum, threshold, side="left"))
    if np.isinf(cum[i]):
        return np.nan
    if i == 0:
        return float(r[0])
    if cum[i] == cum[i - 1]:
        return float(r[i])
    return float(r[i - 1] + (threshold - cum[i - 1]) / (cum[i] - cum[i - 1]) * (r[i] - r[i - 1]))


def concentration_radii(u_field: FieldState, a_field: FieldState | None = None) -> ConcentrationRadii:
    """The radii mu (2/5 of |grad W|^2 inside, on a), nu (half of |grad W|^2
    left outside, on u), lambda1 (exterior-of-1 W-gradient inside, on grad a).
    """
    if a_field is None:
        a_field = u_field
    g = w_constants(3)["grad_norm_sq"]
    r = u_field.mesh.nodes
    cum_a = _cumulative_energy(a_field)
    mu = _inf_radius(r, cum_a, 0.4 * g)

    cum_u = cum_a if a_field is u_field else _cumulative_energy(u_field)
    total = cum_u[-1]
    # exterior energy <= g/2  <=>  cumulative >= total - g/2
    nu = _inf_radius(r, cum_u, total - 0.5 * g) if total > 0.5 * g else float(r[0])

    cum_grad_a = _cumulative_energy(a_field, gradient_only=True)
    lam1 = _inf_radius(r, cum_grad_a, w_exterior_grad(1.0))
    return ConcentrationRadii(mu=mu, nu=nu, lambda1=lam1)


def sign_projection(a_field: FieldState, lam1: float) -> float:
    """Gradient pairing of a against the scale-lam1 ground state."""
    if lam1 is None or lam1 <= 0:
        raise InvalidParameterError("lambda1 must be positive")
    r = a_field.mesh.nodes
    wl = eval_w_deriv(r, GroundStateParams(lam=lam1))
    integrand = r * r * a_field.du_dr() * wl
    return FOUR_PI * a_field.mesh.integrate(integrand)


# ---------------------------------------------------------- virial functionals


def _virial_z(state: FieldState) -> tuple[float, float]:
    """(z1, z2) = (int u u_t, int x.grad u u_t) of one field."""
    r = state.mesh.nodes
    u, ut, ur = state.u(), state.ut(), state.du_dr()
    m = state.mesh.integrate
    return FOUR_PI * m(r * r * u * ut), FOUR_PI * m(r * r * r * ur * ut)


def d_functional(field: FieldState, grad_ref: float | None = None) -> float:
    """d = 8 int u_t^2 + 4 (int |grad u|^2 - int |grad W|^2)."""
    if grad_ref is None:
        grad_ref = w_constants(3)["grad_norm_sq"]
    gradient_sq, kinetic_sq = _gradient_kinetic(field)
    return 8.0 * kinetic_sq + 4.0 * (gradient_sq - grad_ref)


def _g_r(field: FieldState, phi: np.ndarray) -> float:
    """g_R = 2 int u u_t phi of one field, phi = smoothstep_bump(r / R) at its nodes."""
    r = field.mesh.nodes
    return 2.0 * FOUR_PI * field.mesh.integrate(r * r * field.u() * field.ut() * phi)


# ----------------------------------------------------------------- cone energy


def cone_energy(snapshots: list, T_est: float) -> tuple[np.ndarray, np.ndarray]:
    """Energy inside the shrinking light cone r <= T_est - t, per output time."""
    times = np.array([s.t for s in snapshots])
    vals = []
    for s in snapshots:
        rad = T_est - s.t
        if rad <= 0:
            vals.append(0.0)
            continue
        gradient_sq, kinetic_sq = _gradient_kinetic(s, Region.ball(min(rad, s.mesh.rmax)))
        vals.append(gradient_sq + kinetic_sq)
    return times, np.array(vals)


# ------------------------------------------------------------------- power fit


@dataclass(frozen=True)
class ExponentFit:
    nu_hat: float
    slope: float  # 1 + nu_hat
    r_squared: float
    n_points: int

    @property
    def concentrating(self) -> bool:
        return self.slope > 1e-9


def fit_exponent(times: np.ndarray, lam1: np.ndarray, T_est: float) -> ExponentFit:
    """Least-squares slope of log lam1 against log(T_est - t), for a finite T_est."""
    if not np.isfinite(T_est):
        raise InvalidParameterError(f"T_est must be finite, got {T_est!r}")
    times = np.asarray(times, dtype=float)
    lam1 = np.asarray(lam1, dtype=float)
    ok = np.isfinite(lam1) & (lam1 > 0) & (times < T_est)
    if int(np.sum(ok)) < 10:
        raise DegenerateInputError("need at least 10 usable series points")
    x = np.log(T_est - times[ok])
    y = np.log(lam1[ok])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return ExponentFit(nu_hat=float(slope) - 1.0, slope=float(slope), r_squared=r2, n_points=int(np.sum(ok)))


# ---------------------------------------------------------- assembled series


@dataclass
class DiagnosticsSeries:
    """Per-output-time diagnostic columns; see `columns` for the layout."""

    columns: list
    data: dict  # column -> np.ndarray

    def to_csv(self, path) -> None:
        write_columns(path, self.columns, [self.data[c] for c in self.columns])


class _Frame(FieldState):
    """A snapshot whose u, u_t and d_r u are computed once, at construction.

    A row function builds one per snapshot and drops it with the snapshot's
    row, so a report never holds the derived arrays.
    """

    def __init__(self, field: FieldState):
        super().__init__(field.mesh, field.t, field.h, field.hdot)
        object.__setattr__(self, "_u", field.u())
        object.__setattr__(self, "_ut", field.ut())
        object.__setattr__(self, "_du_dr", super().du_dr())  # reads the cached u

    def u(self) -> np.ndarray:
        return self._u

    def ut(self) -> np.ndarray:
        return self._ut

    def du_dr(self) -> np.ndarray:
        return self._du_dr


def radius_columns(ball_radii: tuple = (), g_radii: tuple = ()) -> tuple[dict, dict]:
    """The E_ball_<rho> and g_<R> columns of the radii, each a dict from
    column name to radius in the order given. A radius that is not finite
    and > 0 raises InvalidParameterError naming its flag (--ball-radius or
    --g-radius). A repeated radius keeps its one column; two distinct radii
    whose names coincide (`:g` keeps 6 significant digits) raise
    InvalidParameterError naming both."""
    columns = []
    for kind, prefix, radii in (("ball", "E_ball_", ball_radii), ("g", "g_", g_radii)):
        named = {}
        for rho in radii:
            if not (np.isfinite(rho) and rho > 0):
                raise InvalidParameterError(f"--{kind}-radius must be finite and > 0, got {rho!r}")
            name = f"{prefix}{rho:g}"
            first = named.setdefault(name, rho)
            if first != rho:
                raise InvalidParameterError(f"{kind} radii {first!r} and {rho!r} both name the column {name}")
        columns.append(named)
    return columns[0], columns[1]


def row_function(mesh: RadialMesh, ball_radii: tuple = (), g_radii: tuple = (), split_index: int | None = None):
    """The per-frame part of `diagnostics_series` on snapshots on `mesh`:
    row(i, u) gives snapshot i's row, a dict from column name to float in
    series order: sup_u, mu, nu, lambda1, f, z1, z2, Z = z1/2 + z2, d, then
    E_ball_<rho> for each ball radius and g_<R> for each g radius as
    `radius_columns` names them (NaN where a radius is not reached). It
    reads nothing but that one field and v, so every column, sup_u and z1,
    z2, Z and g_R among them, is the frame's own on a run of any length.

    row(i, u, v), v the regular part of a split at `split_index`, reads mu,
    lambda1 and f on a = u - v, which row(i, u) reads on u; z1 and z2
    subtract v's moments when v covers the run (a split at index 0). The d
    column uses the mesh-truncated gradient norm of W as reference, so a
    stationary sampled W reads d = 0 without a truncation offset.
    """
    d_ref = _gradient_kinetic(w_field(mesh))[0]
    ball_columns, g_columns = radius_columns(ball_radii, g_radii)
    balls = {name: Region.ball(min(rho, mesh.rmax)) for name, rho in ball_columns.items()}
    bumps = {name: smoothstep_bump(mesh.nodes / R) for name, R in g_columns.items()}

    def row(i: int, s: FieldState, v: FieldState | None = None) -> dict:
        frame = _Frame(s)
        a = frame if v is None else _Frame(s - v)
        radii = concentration_radii(frame, a)
        mu, nu, lam1 = (np.nan if x is None else x for x in (radii.mu, radii.nu, radii.lambda1))
        f = sign_projection(a, lam1) if lam1 > 0 else np.nan  # written so that a NaN lambda1 fails it
        z1, z2 = _virial_z(frame)
        if split_index == 0:
            v1, v2 = _virial_z(v)
            z1, z2 = z1 - v1, z2 - v2
        values = {"sup_u": frame.sup_u(), "mu": mu, "nu": nu, "lambda1": lam1, "f": f, "z1": z1, "z2": z2,
                  "Z": 0.5 * z1 + z2, "d": d_functional(frame, grad_ref=d_ref)}
        for name, ball in balls.items():
            gradient_sq, kinetic_sq = _gradient_kinetic(frame, ball)
            values[name] = gradient_sq + kinetic_sq
        values.update((name, _g_r(frame, bump)) for name, bump in bumps.items())
        return values

    return row


def assemble_series(report: RunReport, rows) -> DiagnosticsSeries:
    """The series of `report`'s t and E and the rows of `row_function`, one
    per snapshot in order, whose names and order are the columns that
    follow. `rows` may be any iterable; the table is allocated at the first
    row and each row is stored as it arrives.
    """
    n = report.times.size
    data = {"t": report.times.copy(), "E": report.energies.copy()}
    names, table = [], ()
    for i, row in enumerate(rows):
        if i == 0:
            names, table = list(row), np.full((len(row), n), np.nan)
        table[:, i] = [row[c] for c in names]
    data.update(zip(names, table))
    return DiagnosticsSeries(columns=list(data), data=data)


def diagnostics_series(
    report: RunReport,
    ball_radii: tuple = (),
    g_radii: tuple = (),
    split: tuple | None = None,
) -> DiagnosticsSeries:
    """The standard series, t and E of the report and then the columns of
    `row_function`'s rows, one row per snapshot, made one snapshot at a
    time. With split = (T_est, t0_index), the rows from snapshot t0_index
    on are `singular_part`'s.
    """
    snaps = report.snapshots
    k = len(snaps) if split is None else split[1]
    row = row_function(snaps[0].mesh, ball_radii, g_radii, None if split is None else k) if snaps else None
    rows = [row(i, snaps[i]) for i in range(k)]
    return assemble_series(report, rows if split is None else rows + singular_part(report, split[0], k, row))
