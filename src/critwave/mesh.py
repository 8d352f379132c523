"""Radial meshes, sampled field states, and region descriptors.

Fields are stored in the reduced representation h = r*u, hdot = r*du/dt,
which removes the 2/r coordinate singularity of the radial Laplacian and
makes the origin a plain Dirichlet node (u even => h odd => h(0) = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import simpson

from .errors import InvalidParameterError, OutOfDomainError


def _uniform_spacing(nodes: np.ndarray) -> float | None:
    """First node spacing if every spacing matches it to 1e-12 relative, else None."""
    d = np.diff(nodes)
    if d.size and np.allclose(d, d[0], rtol=1e-12, atol=0.0):
        return float(d[0])
    return None


@dataclass(frozen=True)
class RadialMesh:
    """Strictly increasing radial nodes with r[0] = 0.

    Uniform meshes (``RadialMesh.uniform``) are required by the
    time-domain solver; analysis and profile extraction accept arbitrary
    strictly increasing nodes (e.g. ``RadialMesh.graded`` log spacing).
    The uniform spacing is found once, at construction.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise InvalidParameterError("mesh needs at least 3 nodes")
        if nodes[0] != 0.0:
            raise InvalidParameterError("first mesh node must be r = 0")
        if np.any(np.diff(nodes) <= 0):
            raise InvalidParameterError("mesh nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_dr", _uniform_spacing(nodes))

    @classmethod
    def subgrid(cls, nodes: np.ndarray) -> "RadialMesh":
        """Mesh over a run of another mesh's nodes, which need not include
        the origin; no validation (used for region quadrature)."""
        sub = cls.__new__(cls)
        object.__setattr__(sub, "nodes", nodes)
        object.__setattr__(sub, "_dr", _uniform_spacing(nodes))
        return sub

    @classmethod
    def uniform(cls, h: float, rmax: float) -> "RadialMesh":
        if h <= 0 or rmax <= h:
            raise InvalidParameterError("need 0 < h < rmax")
        n = int(round(rmax / h))
        return cls(np.linspace(0.0, n * h, n + 1))

    @classmethod
    def graded(cls, r_min: float, rmax: float, points_per_decade: int = 200) -> "RadialMesh":
        """Log-spaced nodes from r_min to rmax, plus the origin node."""
        if not (0 < r_min < rmax):
            raise InvalidParameterError("need 0 < r_min < rmax")
        decades = np.log10(rmax / r_min)
        n = max(8, int(np.ceil(decades * points_per_decade)))
        r = np.geomspace(r_min, rmax, n + 1)
        return cls(np.concatenate(([0.0], r)))

    @property
    def rmax(self) -> float:
        return float(self.nodes[-1])

    @property
    def spacing(self) -> float:
        """Uniform spacing; raises if the mesh is not uniform."""
        if self._dr is None:
            raise InvalidParameterError("mesh is not uniform")
        return self._dr

    @property
    def is_uniform(self) -> bool:
        return self._dr is not None

    def integrate(self, values: np.ndarray) -> float:
        """Integral of sampled values dr over the mesh.

        Composite Simpson on uniform meshes, trapezoid otherwise.
        """
        values = np.asarray(values, dtype=float)
        if self.is_uniform:
            return float(simpson(values, dx=self.spacing))
        return float(np.trapezoid(values, self.nodes))

    def cumulative(self, values: np.ndarray) -> np.ndarray:
        """Running trapezoid integral of values dr, node by node."""
        dv = 0.5 * (values[1:] + values[:-1]) * np.diff(self.nodes)
        return np.concatenate(([0.0], np.cumsum(dv)))


@dataclass(frozen=True)
class Region:
    """Integration region: full space, ball, annulus, or exterior."""

    kind: str  # "full" | "ball" | "annulus" | "exterior"
    r0: float = 0.0
    r1: float = np.inf

    @classmethod
    def full(cls) -> "Region":
        return cls("full", 0.0, np.inf)

    @classmethod
    def ball(cls, radius: float) -> "Region":
        return cls("ball", 0.0, radius)

    @classmethod
    def annulus(cls, r0: float, r1: float) -> "Region":
        if not (0 <= r0 < r1):
            raise InvalidParameterError("annulus needs 0 <= r0 < r1")
        return cls("annulus", r0, r1)

    @classmethod
    def exterior(cls, radius: float) -> "Region":
        return cls("exterior", radius, np.inf)

    def clip(self, mesh: RadialMesh) -> tuple[float, float]:
        hi = self.r1 if np.isfinite(self.r1) else mesh.rmax
        if self.r0 > mesh.rmax or hi > mesh.rmax * (1 + 1e-12):
            raise OutOfDomainError(f"region ({self.r0}, {hi}) outside mesh [0, {mesh.rmax}]")
        return float(self.r0), float(min(hi, mesh.rmax))


@dataclass(frozen=True)
class FieldState:
    """Sampled pair (u, du/dt) at time t, stored as h = r*u, hdot = r*ut."""

    mesh: RadialMesh
    t: float
    h: np.ndarray
    hdot: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        hdot = np.asarray(self.hdot, dtype=float)
        n = self.mesh.nodes.size
        if h.shape != (n,) or hdot.shape != (n,):
            raise InvalidParameterError("field arrays must match the mesh")
        if h[0] != 0.0 or hdot[0] != 0.0:
            raise InvalidParameterError("h(0) and hdot(0) must vanish")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "hdot", hdot)

    @classmethod
    def from_u(cls, mesh: RadialMesh, u: np.ndarray, ut: np.ndarray, t: float = 0.0) -> "FieldState":
        r = mesh.nodes
        return cls(mesh, t, r * np.asarray(u, float), r * np.asarray(ut, float))

    @classmethod
    def zero(cls, mesh: RadialMesh, t: float = 0.0) -> "FieldState":
        z = np.zeros_like(mesh.nodes)
        return cls(mesh, t, z, z.copy())

    def _origin_slope(self, values: np.ndarray) -> float:
        # one-sided 2nd-order d/dr at r=0 on possibly nonuniform nodes
        r1, r2 = self.mesh.nodes[1], self.mesh.nodes[2]
        return float((values[1] * r2**2 - values[2] * r1**2) / (r1 * r2 * (r2 - r1)))

    def u(self) -> np.ndarray:
        r = self.mesh.nodes
        out = np.empty_like(self.h)
        out[1:] = self.h[1:] / r[1:]
        out[0] = self._origin_slope(self.h)
        return out

    def ut(self) -> np.ndarray:
        r = self.mesh.nodes
        out = np.empty_like(self.hdot)
        out[1:] = self.hdot[1:] / r[1:]
        out[0] = self._origin_slope(self.hdot)
        return out

    def du_dr(self) -> np.ndarray:
        """Radial derivative of u (2nd order; exact 0 at the origin)."""
        out = np.gradient(self.u(), self.mesh.nodes, edge_order=2)
        out[0] = 0.0  # u is even in r
        return out

    def sup_u(self) -> float:
        return float(np.max(np.abs(self.u())))

    def with_time(self, t: float) -> "FieldState":
        return replace(self, t=t)

    def __add__(self, other: "FieldState") -> "FieldState":
        return FieldState(self.mesh, self.t, self.h + other.h, self.hdot + other.hdot)

    def __sub__(self, other: "FieldState") -> "FieldState":
        return FieldState(self.mesh, self.t, self.h - other.h, self.hdot - other.hdot)

    def __mul__(self, c: float) -> "FieldState":
        return FieldState(self.mesh, self.t, c * self.h, c * self.hdot)

    __rmul__ = __mul__


def rescale_field(state: FieldState, lam: float) -> FieldState:
    """Energy-invariant rescaling u -> lam^{-1/2} u(r/lam) on the same mesh.

    Values of u outside the original domain (r/lam > rmax) are taken as 0.
    """
    if lam <= 0:
        raise InvalidParameterError("lam must be positive")
    r = state.mesh.nodes
    u = state.u()
    ut = state.ut()
    u_new = lam ** -0.5 * np.interp(r / lam, r, u, right=0.0)
    ut_new = lam ** -1.5 * np.interp(r / lam, r, ut, right=0.0)
    return FieldState.from_u(state.mesh, u_new, ut_new, t=state.t)
