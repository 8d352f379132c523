"""Ground state W, energy functionals, and variational predicates.

W(r) = (1 + r^2/3)^{-1/2} is the unique (up to sign and scaling) radial
stationary solution of the energy-critical focusing wave equation
d_t^2 u = Delta u + u^5 in dimension 3.  Reference constants are in
closed form; no hard-coded decimals enter the core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .mesh import FieldState, RadialMesh, Region
from .radial import FOUR_PI, RadialProfile


@dataclass(frozen=True)
class GroundStateParams:
    """Scale and sign of a rescaled ground state."""

    lam: float = 1.0
    iota: int = 1

    def __post_init__(self):
        if self.lam <= 0:
            raise InvalidParameterError("scale lam must be positive")
        if self.iota not in (-1, 1):
            raise InvalidParameterError("iota must be +1 or -1")


def eval_w(r, params: GroundStateParams = GroundStateParams()):
    """Evaluate iota * lam^{-1/2} * W(r/lam)."""
    r = np.asarray(r, dtype=float)
    lam = params.lam
    val = params.iota * lam**-0.5 * (1.0 + (r / lam) ** 2 / 3.0) ** -0.5
    return val if val.ndim else float(val)


def _w_deriv(r, lam):
    """d/dr of lam^{-1/2} W(r/lam); lam may be an array that broadcasts
    against r, e.g. a column of scales for one row per scale."""
    rho = r / lam
    return lam**-1.5 * (-rho / 3.0) * (1.0 + rho**2 / 3.0) ** -1.5


def _w_deriv_log_jet(r, lam):
    """The jet (d, d_x, d_xx) as one (3, n) array, or a tuple of three for a
    scalar r: d = _w_deriv(r, lam) bit for bit (its operations in its order)
    and its x = log lam derivatives. With rho = r/lam, s = rho^2/3 and
    q = 1 + s, d_x = lam^{-3/2} rho (5 - s) / (6 q^{5/2}) = (d/q) (s - 5) / 2
    and d_xx = lam^{-3/2} rho (34 s - s^2 - 25) / (12 q^{7/2})
    = (d/q) (s (s - 34) + 25) / (4 q), so q^{-5/2} is d's q^{-3/2} over q
    and there is one pow. Each row is written in place into the one array.
    lam may be complex (a complex-step derivative)."""
    rho = r / lam
    s = rho**2 / 3.0
    q = 1.0 + s
    jet = np.empty((3, np.size(rho)), np.result_type(rho))
    d, d_x, d_xx = jet
    np.multiply(lam**-1.5 * (-rho / 3.0), q**-1.5, out=d)
    d_q = d / q
    np.subtract(s, 5.0, out=d_x)
    d_x *= d_q
    d_x *= 0.5
    np.subtract(s, 34.0, out=d_xx)
    d_xx *= s
    d_xx += 25.0
    d_xx *= d_q
    d_xx /= q
    d_xx *= 0.25
    return jet if np.ndim(rho) else tuple(jet[:, 0].tolist())


def eval_w_deriv(r, params: GroundStateParams = GroundStateParams()):
    """d/dr of eval_w."""
    val = params.iota * _w_deriv(np.asarray(r, dtype=float), params.lam)
    return val if val.ndim else float(val)


def w_profile(params: GroundStateParams = GroundStateParams()) -> RadialProfile:
    return RadialProfile(lambda r: eval_w(r, params), lambda r: eval_w_deriv(r, params))


def w_field(mesh: RadialMesh, params: GroundStateParams = GroundStateParams()) -> FieldState:
    """Sample (W_lam, 0) on a mesh."""
    u = eval_w(mesh.nodes, params)
    return FieldState.from_u(mesh, u, np.zeros_like(mesh.nodes))


# int |grad W|^2 = int W^6 = 3 sqrt(3) pi^2 / 4: W is the extremizer of the
# Sobolev inequality (Aubin, Talenti 1976)
_GRAD_W = 3.0 * 3.0**0.5 * np.pi**2 / 4.0


def w_constants(N: int = 3) -> dict:
    """Reference constants of W, a fresh dict on every call; the dimension
    N must be 3.

    grad_norm_sq      int |grad W|^2 = 3 sqrt(3) pi^2 / 4
    energy_w          E(W, 0) = grad_norm_sq / 3
    potential_w       int W^6  (equals grad_norm_sq, Pohozaev)
    sobolev_threshold sqrt(3) * grad_norm_sq
    """
    if N != 3:
        raise InvalidParameterError("only dimension N = 3 is supported")
    return {
        "grad_norm_sq": _GRAD_W,
        "energy_w": _GRAD_W / 3.0,
        "potential_w": _GRAD_W,
        "sobolev_threshold": 3.0**0.5 * _GRAD_W,
    }


def w_exterior_grad(radius: float) -> float:
    """int_{|x| >= radius} |grad W|^2, in closed form; radius >= 0 and finite."""
    if not (math.isfinite(radius) and radius >= 0.0):
        raise InvalidParameterError("radius must be finite and non-negative")
    # r = sqrt(3) t turns 4 pi r^2 W'(r)^2 dr into 4 pi sqrt(3) t^4 (1 + t^2)^-3 dt,
    # whose tail from s is 4 pi sqrt(3) [(3/8) arccot s + s (5 s^2 + 3) / (8 (1 + s^2)^2)]
    # (its s-derivative is -s^4 (1 + s^2)^-3 and it vanishes at infinity). As a
    # fraction of the whole, 3 pi / 16 at s = 0, it is the bracket below.
    s = radius / 3.0**0.5
    return _GRAD_W * (
        math.atan2(1.0, s) / (np.pi / 2.0) + s * (5.0 * s * s + 3.0) / (1.5 * np.pi * (1.0 + s * s) ** 2)
    )


@dataclass(frozen=True)
class EnergyReport:
    """The gradient, kinetic and potential integrals of a field over a region (N=3 weights)."""

    gradient_sq: float
    kinetic_sq: float
    potential: float

    @property
    def total_energy(self) -> float:
        # full-space assembly; on subregions this is the localized analogue
        return 0.5 * self.gradient_sq + 0.5 * self.kinetic_sq - self.potential / 6.0


def energy(field: FieldState, region: Region = Region.full()) -> EnergyReport:
    """The three integrals of E over the region by the mesh quadrature rule:
    int |grad u|^2, int u_t^2 (`_gradient_kinetic`) and int u^6."""
    gradient_sq, kinetic_sq = _gradient_kinetic(field, region)
    mesh = field.mesh
    r = mesh.nodes
    u = field.u()
    return EnergyReport(gradient_sq, kinetic_sq, FOUR_PI * mesh.integrate(r * r * u**6, _region_run(mesh, region)))


def _gradient_kinetic(field: FieldState, region: Region = Region.full()) -> tuple[float, float]:
    """(gradient_sq, kinetic_sq) of `energy(field, region)`, without its
    potential integral."""
    mesh = field.mesh
    r = mesh.nodes
    run = _region_run(mesh, region)
    return (
        FOUR_PI * mesh.integrate(r * r * field.du_dr() ** 2, run),
        FOUR_PI * mesh.integrate(r * r * field.ut() ** 2, run),
    )


def _region_run(mesh: RadialMesh, region: Region) -> slice:
    """The nodes in the region's [r0, r1], with edges snapped to nodes within 1e-12."""
    r0, r1 = region.clip(mesh)
    r = mesh.nodes
    return slice(np.searchsorted(r, r0 - 1e-12), np.searchsorted(r, r1 + 1e-12, side="right"))


def energy_of_profile(u0: RadialProfile) -> EnergyReport:
    """Full-space EnergyReport of closed-form static radial data (u, u_t) = (u0, 0)."""
    return EnergyReport(gradient_sq=u0.grad_norm_sq(), kinetic_sq=0.0, potential=u0.l2p_norm(6))


@dataclass(frozen=True)
class VariationalReport:
    """Outcome of the trapping/positivity predicates for a static field."""

    hypothesis_holds: bool  # |grad v|^2 <= |grad W|^2 and E(v,0) <= E(W,0)
    bound_holds: bool | None  # if hypothesis: |grad v|^2 <= 3 E(v,0)
    below_sobolev_threshold: bool
    positivity_holds: bool | None  # if below threshold: E(v,0) >= 0


def variational_check(field, slack: float = 1e-12) -> VariationalReport:
    """Check the variational implications for a static field v.

    `field` may be an EnergyReport or a RadialProfile.
    Comparisons use a relative slack so that exact boundary cases (v = W)
    are classified as satisfying the implications.
    """
    rep = energy_of_profile(field) if isinstance(field, RadialProfile) else field
    c = w_constants(3)
    grad = rep.gradient_sq
    e_static = 0.5 * grad - rep.potential / 6.0
    tol = slack * max(1.0, c["grad_norm_sq"])

    hyp = grad <= c["grad_norm_sq"] + tol and e_static <= c["energy_w"] + tol
    bound = (grad <= 3.0 * e_static + tol) if hyp else None
    below = grad <= c["sobolev_threshold"] + tol
    pos = (e_static >= -tol) if below else None
    return VariationalReport(hyp, bound, below, pos)


def elliptic_residual(field: FieldState) -> float:
    """Discrete L2(dx) norm of Delta u + u^5 over the mesh interior.

    Uses the h = r*u stencil: Delta u = (d^2_r h)/r.  Requires a uniform
    mesh (the solver's stencil).
    """
    dr = field.mesh.spacing
    r = field.mesh.nodes
    u = field.u()
    res = np.zeros_like(u)
    d2h = (field.h[2:] - 2.0 * field.h[1:-1] + field.h[:-2]) / dr**2
    res[1:-1] = d2h / r[1:-1] + u[1:-1] ** 5
    integrand = r * r * res**2
    integrand[0] = integrand[-1] = 0.0
    return float(np.sqrt(FOUR_PI * field.mesh.integrate(integrand)))
