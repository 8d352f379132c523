"""Ground state W, energy functionals, and variational predicates.

W(r) = (1 + r^2/(N(N-2)))^{-(N-2)/2} is the unique (up to sign and
scaling) radial stationary solution of the energy-critical focusing wave
equation.  Reference constants are computed once by adaptive quadrature
and cached; no hard-coded decimals enter the core.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameterError
from .mesh import FieldState, RadialMesh, Region
from .radial import FOUR_PI, RadialProfile

_SUPPORTED_N = (3, 4, 5)


@dataclass(frozen=True)
class GroundStateParams:
    """Dimension, scale, and sign of a rescaled ground state."""

    N: int = 3
    lam: float = 1.0
    iota: int = 1

    def __post_init__(self):
        if self.N not in _SUPPORTED_N:
            raise InvalidParameterError(f"N must be one of {_SUPPORTED_N}")
        if self.lam <= 0:
            raise InvalidParameterError("scale lam must be positive")
        if self.iota not in (-1, 1):
            raise InvalidParameterError("iota must be +1 or -1")


def eval_w(r, params: GroundStateParams = GroundStateParams()):
    """Evaluate iota * lam^{-(N-2)/2} * W(r/lam)."""
    r = np.asarray(r, dtype=float)
    N, lam = params.N, params.lam
    p = (N - 2) / 2.0
    val = params.iota * lam**-p * (1.0 + (r / lam) ** 2 / (N * (N - 2))) ** -p
    return val if val.ndim else float(val)


def eval_w_deriv(r, params: GroundStateParams = GroundStateParams()):
    """d/dr of eval_w."""
    r = np.asarray(r, dtype=float)
    N, lam = params.N, params.lam
    p = (N - 2) / 2.0
    rho = r / lam
    val = (
        params.iota
        * lam ** (-p - 1)
        * (-2.0 * p * rho / (N * (N - 2)))
        * (1.0 + rho**2 / (N * (N - 2))) ** (-p - 1)
    )
    return val if val.ndim else float(val)


def w_profile(params: GroundStateParams = GroundStateParams()) -> RadialProfile:
    return RadialProfile(lambda r: eval_w(r, params), lambda r: eval_w_deriv(r, params))


def w_field(mesh: RadialMesh, params: GroundStateParams = GroundStateParams()) -> FieldState:
    """Sample (W_lam, 0) on a mesh."""
    u = eval_w(mesh.nodes, params)
    return FieldState.from_u(mesh, u, np.zeros_like(mesh.nodes))


@lru_cache(maxsize=None)
def w_constants(N: int = 3) -> dict:
    """Reference constants of W in dimension N.

    grad_norm_sq      int |grad W|^2
    energy_w          E(W, 0) = grad_norm_sq / N
    potential_w       int W^{2N/(N-2)}  (equals grad_norm_sq, Pohozaev)
    sobolev_threshold (N/(N-2))^{(N-2)/2} * grad_norm_sq
    """
    if N not in _SUPPORTED_N:
        raise InvalidParameterError(f"N must be one of {_SUPPORTED_N}")
    from scipy.integrate import quad

    p = (N - 2) / 2.0
    omega = 2.0 * np.pi ** (N / 2.0) / _gamma_half(N)
    w = lambda r: (1.0 + r * r / (N * (N - 2))) ** -p
    dw = lambda r: -2.0 * p * r / (N * (N - 2)) * (1.0 + r * r / (N * (N - 2))) ** (-p - 1)
    grad = omega * quad(lambda r: r ** (N - 1) * dw(r) ** 2, 0, np.inf, limit=200)[0]
    pot = omega * quad(lambda r: r ** (N - 1) * w(r) ** (2 * N / (N - 2)), 0, np.inf, limit=200)[0]
    return {
        "grad_norm_sq": grad,
        "energy_w": grad / N,
        "potential_w": pot,
        "sobolev_threshold": (N / (N - 2)) ** p * grad,
    }


def _gamma_half(N: int) -> float:
    from math import gamma

    return gamma(N / 2.0)


@lru_cache(maxsize=None)
def w_exterior_grad(radius: float, N: int = 3) -> float:
    """int_{|x| >= radius} |grad W|^2, by adaptive quadrature."""
    from scipy.integrate import quad

    params = GroundStateParams(N=N)
    omega = 2.0 * np.pi ** (N / 2.0) / _gamma_half(N)
    return omega * quad(
        lambda r: r ** (N - 1) * eval_w_deriv(r, params) ** 2, radius, np.inf, limit=200
    )[0]


@dataclass(frozen=True)
class EnergyReport:
    """Quadratic/power integrals of a field over a region (N=3 weights)."""

    gradient_sq: float
    kinetic_sq: float
    potential: float
    hardy_sq: float
    region: Region

    @property
    def total_energy(self) -> float:
        # full-space assembly; on subregions this is the localized analogue
        return 0.5 * self.gradient_sq + 0.5 * self.kinetic_sq - self.potential / 6.0


def energy(field: FieldState, region: Region = Region.full()) -> EnergyReport:
    """All four integrals over the region by the mesh quadrature rule.

    The Hardy integrand u^2/r^2 * r^2 dr reduces to u^2 dr and is
    evaluated through h/r, with the limit (d_r h)(0) at the origin.
    """
    r0, r1 = region.clip(field.mesh)
    r = field.mesh.nodes
    u = field.u()
    ut = field.ut()
    dur = field.du_dr()

    mask = (r >= r0 - 1e-12) & (r <= r1 + 1e-12)
    sub = RadialMesh.subgrid(r[mask])

    def integ(vals):
        v = vals[mask]
        if sub.nodes.size < 2:
            return 0.0
        if sub.is_uniform:
            from scipy.integrate import simpson

            return float(simpson(v, x=sub.nodes))
        return float(np.trapezoid(v, sub.nodes))

    return EnergyReport(
        gradient_sq=FOUR_PI * integ(r * r * dur**2),
        kinetic_sq=FOUR_PI * integ(r * r * ut**2),
        potential=FOUR_PI * integ(r * r * u**6),
        hardy_sq=FOUR_PI * integ(u * u),
        region=region,
    )


def energy_of_profile(u0: RadialProfile, u1: RadialProfile | None = None) -> EnergyReport:
    """Full-space EnergyReport of closed-form radial data (N=3)."""
    kin = 0.0 if u1 is None else u1.l2p_norm(2)
    return EnergyReport(
        gradient_sq=u0.grad_norm_sq(),
        kinetic_sq=kin,
        potential=u0.l2p_norm(6),
        hardy_sq=u0.hardy_sq(),
        region=Region.full(),
    )


@dataclass(frozen=True)
class VariationalReport:
    """Outcome of the trapping/positivity predicates for a static field."""

    hypothesis_holds: bool  # |grad v|^2 <= |grad W|^2 and E(v,0) <= E(W,0)
    bound_holds: bool | None  # if hypothesis: |grad v|^2 <= N E(v,0)
    below_sobolev_threshold: bool
    positivity_holds: bool | None  # if below threshold: E(v,0) >= 0


def variational_check(field, N: int = 3, slack: float = 1e-12) -> VariationalReport:
    """Check the variational implications for a static field v.

    `field` may be a FieldState, an EnergyReport, or a RadialProfile.
    Comparisons use a relative slack so that exact boundary cases (v = W)
    are classified as satisfying the implications.
    """
    if isinstance(field, FieldState):
        rep = energy(field)
    elif isinstance(field, RadialProfile):
        rep = energy_of_profile(field)
    else:
        rep = field
    c = w_constants(N)
    grad = rep.gradient_sq
    e_static = 0.5 * grad - (N - 2) / (2.0 * N) * rep.potential
    tol = slack * max(1.0, c["grad_norm_sq"])

    hyp = grad <= c["grad_norm_sq"] + tol and e_static <= c["energy_w"] + tol
    bound = (grad <= N * e_static + tol) if hyp else None
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
