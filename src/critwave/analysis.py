"""Diagnostics on solver output: singular part, concentration radii, sign
projection, virial quantities, localized virial functionals, cone energies,
and the power-law fit of the concentration scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidParameterError
from .ground_state import (
    GroundStateParams,
    _gradient_kinetic,
    energy,
    eval_w_deriv,
    w_constants,
    w_exterior_grad,
)
from .mesh import FieldState, Region
from .radial import FOUR_PI, smoothstep_bump, transition
from .solver import RunReport, run
from .table import format_column, write_columns


# ------------------------------------------------------------- singular part


@dataclass
class SingularSplit:
    """u = v + a near the blow-up time: v re-solved from exterior-cutoff data."""

    times: np.ndarray
    a_fields: list
    v_fields: list
    cone_radius: float  # T_est - t0
    margin: float


def singular_part(report: RunReport, T_est: float, t0_index: int = 0) -> SingularSplit:
    """Split u into regular part v and singular part a = u - v.

    v restarts at t0 from u's data smoothly cut off to the exterior
    r >= (T_est - t0) + margin, margin = 2 dr + 2 dt, and is evolved by
    `solver.run` under the run's own config to the later snapshots' times;
    by finite speed of propagation v agrees with the true regular part
    outside the light cone, which is the only region the diagnostics use it
    on. If v fails the run's blow-up test, DegenerateInputError names when.
    """
    base = report.snapshots[t0_index]
    mesh = base.mesh
    if not (base.t < T_est):
        raise InvalidParameterError("T_est must exceed the restart time")
    dr = mesh.spacing
    margin = 2.0 * dr + 2.0 * report.config.cfl * dr
    r_cone = T_est - base.t
    chi = transition(mesh.nodes, r_cone, r_cone + margin)
    v0 = FieldState(mesh, base.t, chi * base.h, chi * base.hdot)

    targets = report.snapshots[t0_index:]
    v_run = run(report.config, initial=v0, times=[s.t for s in targets[1:]])
    if v_run.outcome == "BlowUpDetected":
        raise DegenerateInputError(f"the regular part v restarted at snapshot index {t0_index} "
                                   f"(t = {base.t:.6g}) blew up at t = {v_run.t_star:.6g}")
    return SingularSplit(
        times=np.array([s.t for s in targets]),
        a_fields=[u - v for u, v in zip(targets, v_run.snapshots)],
        v_fields=v_run.snapshots,
        cone_radius=r_cone,
        margin=margin,
    )


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
    """Infimal radius where the nondecreasing cumulative reaches threshold."""
    if cum[-1] < threshold:
        return None
    i = int(np.searchsorted(cum, threshold, side="left"))
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

    cum_u = _cumulative_energy(u_field)
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


# --------------------------------------------------------------- virial series


def _nonuniform_deriv(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.gradient(y, t, edge_order=2)


@dataclass
class VirialSeries:
    times: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    Z: np.ndarray
    z1_rhs: np.ndarray
    z2_rhs: np.ndarray
    z1_defect: np.ndarray  # |d/dt z1 - rhs| at interior times
    z2_defect: np.ndarray
    Z_defect: np.ndarray


def _virial_z(state: FieldState) -> tuple[float, float]:
    """(z1, z2) = (int u u_t, int x.grad u u_t) of one field."""
    r = state.mesh.nodes
    u, ut, ur = state.u(), state.ut(), state.du_dr()
    m = state.mesh.integrate
    return FOUR_PI * m(r * r * u * ut), FOUR_PI * m(r * r * r * ur * ut)


def _virial_moments(state: FieldState) -> tuple[float, float, float, float, float]:
    """(z1, z2, kin, grad, pot): _virial_z and the three right-hand-side integrals."""
    frame = _Frame(state)  # u, u_t and d_r u once for all five
    r = state.mesh.nodes
    u, ut, ur = frame.u(), frame.ut(), frame.du_dr()
    m = state.mesh.integrate
    z1, z2 = _virial_z(frame)
    kin = FOUR_PI * m(r * r * ut * ut)
    grad = FOUR_PI * m(r * r * ur * ur)
    pot = FOUR_PI * m(r * r * u**6)
    return z1, z2, kin, grad, pot


def virial_series(u_snapshots: list, v_snapshots: list | None = None) -> VirialSeries:
    """z1 = int (u u_t - v v_t), z2 = int (x.grad u u_t - ...), Z = z1/2 + z2,
    together with the defect of their finite-difference time derivatives
    against the analytic right-hand sides.
    """
    if len(u_snapshots) < 3:
        raise InvalidParameterError("need at least 3 snapshots")
    times = np.array([s.t for s in u_snapshots])
    rows = [_virial_moments(s) for s in u_snapshots]
    if v_snapshots is not None:
        vrows = [_virial_moments(s) for s in v_snapshots]
        rows = [tuple(a - b for a, b in zip(ru, rv)) for ru, rv in zip(rows, vrows)]
    z1, z2, kin, grad, pot = (np.array(col) for col in zip(*rows))
    Z = 0.5 * z1 + z2
    z1_rhs = kin - grad + pot
    z2_rhs = -1.5 * kin + 0.5 * (grad - pot)
    z1_fd = _nonuniform_deriv(times, z1)
    z2_fd = _nonuniform_deriv(times, z2)
    Z_fd = _nonuniform_deriv(times, Z)
    return VirialSeries(
        times=times,
        z1=z1,
        z2=z2,
        Z=Z,
        z1_rhs=z1_rhs,
        z2_rhs=z2_rhs,
        z1_defect=np.abs(z1_fd - z1_rhs),
        z2_defect=np.abs(z2_fd - z2_rhs),
        Z_defect=np.abs(Z_fd - (0.5 * z1_rhs + z2_rhs)),
    )


# ------------------------------------------------ localized virial functionals


def d_functional(field: FieldState, grad_ref: float | None = None) -> float:
    """d = 8 int u_t^2 + 4 (int |grad u|^2 - int |grad W|^2)."""
    if grad_ref is None:
        grad_ref = w_constants(3)["grad_norm_sq"]
    gradient_sq, kinetic_sq = _gradient_kinetic(field)
    return 8.0 * kinetic_sq + 4.0 * (gradient_sq - grad_ref)


def tail_energy(field: FieldState, R: float) -> float:
    """int_{|x| >= R} u^2/|x|^2 + u^6 + |grad u|^2 + u_t^2 (the A_R bound)."""
    rep = energy(field, Region.exterior(R))
    return rep.hardy_sq + rep.potential + rep.gradient_sq + rep.kinetic_sq


@dataclass
class GRSeries:
    times: np.ndarray
    R: float
    g: np.ndarray
    g_deriv: np.ndarray
    d: np.ndarray
    defect: np.ndarray  # |g' - d|
    tail_bound: np.ndarray


def _g_r(field: FieldState, R: float) -> float:
    """g_R = 2 int u u_t phi(r/R) of one field."""
    r = field.mesh.nodes
    phi = smoothstep_bump(r / R)
    return 2.0 * FOUR_PI * field.mesh.integrate(r * r * field.u() * field.ut() * phi)


def g_r_series(snapshots: list, R: float, grad_ref: float | None = None) -> GRSeries:
    """g_R(t) = 2 int u u_t phi(r/R), its derivative defect against d(t),
    and the exterior-tail bound on the remainder A_R."""
    if len(snapshots) < 3:
        raise InvalidParameterError("need at least 3 snapshots")
    times = np.array([s.t for s in snapshots])
    gs, ds, tails = [], [], []
    for s in snapshots:
        gs.append(_g_r(s, R))
        ds.append(d_functional(s, grad_ref))
        tails.append(tail_energy(s, min(R, s.mesh.rmax)))
    g = np.array(gs)
    d = np.array(ds)
    g_deriv = _nonuniform_deriv(times, g)
    return GRSeries(
        times=times,
        R=R,
        g=g,
        g_deriv=g_deriv,
        d=d,
        defect=np.abs(g_deriv - d),
        tail_bound=np.array(tails),
    )


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
    """Least-squares slope of log lam1 against log(T_est - t)."""
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
        write_columns(path, self.columns, [format_column(self.data[c]) for c in self.columns])


class _Frame(FieldState):
    """A snapshot whose u, u_t and d_r u are computed once, at construction.

    `diagnostics_series` builds one per snapshot and drops it after the
    snapshot's row, so a report never holds the derived arrays.
    """

    def __init__(self, field: FieldState):
        super().__init__(field.mesh, field.t, field.h, field.hdot)
        object.__setattr__(self, "_u", super().u())
        object.__setattr__(self, "_ut", super().ut())
        object.__setattr__(self, "_du_dr", super().du_dr())  # reads the cached u

    def u(self) -> np.ndarray:
        return self._u

    def ut(self) -> np.ndarray:
        return self._ut

    def du_dr(self) -> np.ndarray:
        return self._du_dr


def diagnostics_series(
    report: RunReport,
    ball_radii: tuple = (),
    g_radii: tuple = (),
    split: SingularSplit | None = None,
) -> DiagnosticsSeries:
    """Assemble the standard series: t,E,sup_u,mu,nu,lambda1,f,z1,z2,Z,d
    plus configured ball energies and g_R columns.

    The d column uses the mesh-truncated gradient norm of W as reference,
    so a stationary sampled W reads d = 0 without a truncation offset.
    """
    snaps = report.snapshots
    n = len(snaps)
    cols = ["t", "E", "sup_u", "mu", "nu", "lambda1", "f", "z1", "z2", "Z", "d"]
    cols += [f"E_ball_{rho:g}" for rho in ball_radii] + [f"g_{R:g}" for R in g_radii]
    data: dict = {c: np.full(n, np.nan) for c in cols}
    data["t"] = report.times.copy()
    data["E"] = report.energies.copy()
    data["sup_u"] = report.sup_history.copy()

    a_of = {}
    if split is not None:
        for t, a in zip(split.times, split.a_fields):
            a_of[round(float(t), 12)] = a
    # z1, z2 (v's moments subtracted when v covers the run) and g_R need 3
    # snapshots, as in virial_series and g_r_series
    v_snaps = split.v_fields if split is not None and len(split.v_fields) == n else None
    moments = []

    d_ref = None
    if snaps:
        from .ground_state import w_field

        d_ref = _gradient_kinetic(w_field(snaps[0].mesh))[0]

    for i, s in enumerate(snaps):
        frame = _Frame(s)
        key = round(float(s.t), 12)
        a = _Frame(a_of[key]) if key in a_of else frame
        radii = concentration_radii(frame, a)
        data["mu"][i] = np.nan if radii.mu is None else radii.mu
        data["nu"][i] = np.nan if radii.nu is None else radii.nu
        data["lambda1"][i] = np.nan if radii.lambda1 is None else radii.lambda1
        if radii.lambda1 is not None:
            data["f"][i] = sign_projection(a, radii.lambda1)
        data["d"][i] = d_functional(frame, grad_ref=d_ref)
        for rho in ball_radii:
            gradient_sq, kinetic_sq = _gradient_kinetic(frame, Region.ball(min(rho, s.mesh.rmax)))
            data[f"E_ball_{rho:g}"][i] = gradient_sq + kinetic_sq
        if n >= 3:
            z = _virial_z(frame)
            if v_snaps is not None:
                z = tuple(x - y for x, y in zip(z, _virial_z(v_snaps[i])))
            moments.append(z)
            for R in g_radii:
                data[f"g_{R:g}"][i] = _g_r(frame, R)

    if n >= 3:
        z1, z2 = (np.array(col) for col in zip(*moments))
        data["z1"], data["z2"], data["Z"] = z1, z2, 0.5 * z1 + z2

    return DiagnosticsSeries(columns=cols, data=data)
