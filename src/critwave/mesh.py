"""Radial meshes, sampled field states, and region descriptors.

Fields are stored in the reduced representation h = r*u, hdot = r*du/dt,
which removes the 2/r coordinate singularity of the radial Laplacian and
makes the origin a plain Dirichlet node (u even => h odd => h(0) = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, OutOfDomainError


def _weights(nodes: np.ndarray, dr: float | None) -> np.ndarray:
    """Quadrature weights w of a run of >= 2 nodes, so that w @ f integrates f dr.

    With a uniform spacing dr these are the weights scipy's simpson(f, dx=dr)
    applies: dr/3 [1, 4, 2, ..., 4, 1] on an odd count of nodes; on an even
    count, Simpson on all but the last node plus Cartwright's last-interval
    terms (-1/12, 2/3, 5/12) dr; the trapezoid on 2 nodes. Without one,
    trapezoid weights.
    """
    m = nodes.size
    if dr is None:
        d = np.diff(nodes)
        w = np.zeros(m)
        w[:-1] += 0.5 * d
        w[1:] += 0.5 * d
        return w
    if m == 2:
        return np.full(2, 0.5 * dr)
    k = m - 1 + m % 2  # the odd count of nodes under Simpson panels
    w = np.zeros(m)
    w[1 : k - 1 : 2] = 4.0
    w[2 : k - 1 : 2] = 2.0
    w[0] = w[k - 1] = 1.0
    w *= dr / 3.0
    if k < m:
        w[-3:] += dr * np.array([-1.0 / 12.0, 2.0 / 3.0, 5.0 / 12.0])
    return w


@dataclass(frozen=True, eq=False)
class RadialMesh:
    """Strictly increasing radial nodes with r[0] = 0.

    Uniform meshes (``RadialMesh.uniform``) are required by the
    time-domain solver; analysis and profile extraction accept arbitrary
    strictly increasing nodes (e.g. ``RadialMesh.graded`` log spacing).
    The uniform spacing and the quadrature weights (`weights`) are found
    once, at construction; beside them the mesh keeps, from its first use,
    the first-derivative stencil that `FieldState.du_dr` applies
    (`d_dr_stencil`). A mesh compares and hashes by identity, so that a
    cache can key on it.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise InvalidParameterError("mesh needs at least 3 nodes")
        if nodes[0] != 0.0:
            raise InvalidParameterError("first mesh node must be r = 0")
        d = np.diff(nodes)
        if np.any(d <= 0):
            raise InvalidParameterError("mesh nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        # the first spacing, if every spacing matches it to 1e-12 relative
        # plus a few ulps of rmax, the rounding of np.linspace's nodes
        uniform = np.allclose(d, d[0], rtol=1e-12, atol=4.0 * np.finfo(float).eps * nodes[-1])
        object.__setattr__(self, "_dr", float(d[0]) if uniform else None)
        w = _weights(nodes, self._dr)
        w.setflags(write=False)
        object.__setattr__(self, "_w", w)

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

    @cached_property
    def d_dr_stencil(self) -> tuple:
        """Read-only stencil of np.gradient(f, nodes, edge_order=2), computed on
        first use: (interior, last). interior is the spacing where every
        spacing equals the first, np.gradient's own test, and otherwise the
        rows a, b, c of its interior coefficients; last holds the last node's
        three coefficients, in np.gradient's formulas."""
        d = np.diff(self.nodes)
        if (d == d[0]).all():
            dx = d[0]
            return dx, (0.5 / dx, -2.0 / dx, 1.5 / dx)
        dx1, dx2 = d[:-1], d[1:]
        interior = np.array((-(dx2) / (dx1 * (dx1 + dx2)), (dx2 - dx1) / (dx1 * dx2), dx1 / (dx2 * (dx1 + dx2))))
        interior.setflags(write=False)
        dx1, dx2 = d[-2], d[-1]
        return interior, (dx2 / (dx1 * (dx1 + dx2)), -(dx2 + dx1) / (dx1 * dx2), (2.0 * dx2 + dx1) / (dx2 * (dx1 + dx2)))

    @property
    def weights(self) -> np.ndarray:
        """Read-only quadrature weights: composite Simpson on uniform meshes,
        trapezoid otherwise (see `_weights`)."""
        return self._w

    def integrate(self, values: np.ndarray, run: slice = slice(None)) -> float:
        """Integral of sampled values dr over the mesh, or over the run of
        nodes that the slice `run` selects: w @ values, with the weights of
        the run's own length (a run of fewer than 2 nodes integrates to 0).
        """
        values = np.asarray(values, dtype=float)
        if run.indices(self._w.size) == (0, self._w.size, 1):  # every node: the stored weights
            return float(self._w @ values)
        values = values[run]
        if values.size < 2:
            return 0.0
        return float(_weights(self.nodes[run], self._dr) @ values)

    def cumulative(self, values: np.ndarray) -> np.ndarray:
        """Running trapezoid integral of values dr, node by node."""
        dv = 0.5 * (values[1:] + values[:-1]) * np.diff(self.nodes)
        return np.concatenate(([0.0], np.cumsum(dv)))


@dataclass(frozen=True)
class Region:
    """Integration region r0 <= r <= r1: full space, ball, annulus, or exterior."""

    r0: float = 0.0
    r1: float = np.inf

    def __post_init__(self):
        # a NaN bound fails every comparison: clip would read a NaN r1 as
        # the whole mesh, and the node search a NaN r0 as no nodes
        if np.isnan(self.r0) or np.isnan(self.r1):
            raise InvalidParameterError(f"region bounds must not be NaN, got ({self.r0!r}, {self.r1!r})")

    @classmethod
    def full(cls) -> "Region":
        return cls()

    @classmethod
    def ball(cls, radius: float) -> "Region":
        return cls(0.0, radius)

    @classmethod
    def annulus(cls, r0: float, r1: float) -> "Region":
        if not (0 <= r0 < r1):
            raise InvalidParameterError("annulus needs 0 <= r0 < r1")
        return cls(r0, r1)

    @classmethod
    def exterior(cls, radius: float) -> "Region":
        return cls(radius)

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
    def _unchecked(cls, mesh: RadialMesh, t: float, h: np.ndarray, hdot: np.ndarray) -> "FieldState":
        """The state of float arrays that already match the mesh and vanish
        at the origin, as `solver.step` makes them: kept as given, with no
        check, conversion or copy, so a state of `solver.step`'s holds the
        buffers of its workspace, which the step after next overwrites."""
        state = object.__new__(cls)
        state.__dict__.update(mesh=mesh, t=t, h=h, hdot=hdot)
        return state

    @classmethod
    def from_u(cls, mesh: RadialMesh, u: np.ndarray, ut: np.ndarray, t: float = 0.0) -> "FieldState":
        r = mesh.nodes
        return cls(mesh, t, r * np.asarray(u, float), r * np.asarray(ut, float))

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
        """Radial derivative of u (2nd order; exact 0 at the origin): the bytes
        of np.gradient(u, nodes, edge_order=2) past the origin, by the mesh's
        kept stencil with np.gradient's operations in its order."""
        u = self.u()
        interior, (a, b, c) = self.mesh.d_dr_stencil
        out = np.empty_like(u)
        inner = out[1:-1]
        if interior.ndim:
            np.multiply(interior[0], u[:-2], out=inner)
            inner += interior[1] * u[1:-1]
            inner += interior[2] * u[2:]
        else:
            np.subtract(u[2:], u[:-2], out=inner)
            inner /= 2.0 * interior
        out[0] = 0.0  # u is even in r
        out[-1] = a * u[-3] + b * u[-2] + c * u[-1]
        return out

    def sup_u(self) -> float:
        return float(np.max(np.abs(self.u())))

    def with_time(self, t: float) -> "FieldState":
        return replace(self, t=t)

    def __sub__(self, other: "FieldState") -> "FieldState":
        return FieldState(self.mesh, self.t, self.h - other.h, self.hdot - other.hdot)
