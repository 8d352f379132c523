"""Closed-form radial profiles with adaptive-quadrature norms.

Used wherever full-space integrals are needed to better accuracy than a
truncated mesh can deliver (variational predicates, identity checks,
reference constants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

FOUR_PI = 4.0 * np.pi

_QUAD_OPTS = dict(limit=200, epsabs=1e-12, epsrel=1e-11)


def smoothstep_bump(s):
    """C^1 radial cutoff: 1 for s <= 1, 0 for s >= 2, cubic in between."""
    s = np.asarray(s, dtype=float)
    sig = np.clip(s - 1.0, 0.0, 1.0)
    return 1.0 - 3.0 * sig**2 + 2.0 * sig**3


def transition(r, a, b):
    """C^1 ramp: 0 for r <= a, 1 for r >= b."""
    r = np.asarray(r, dtype=float)
    s = np.clip((r - a) / (b - a), 0.0, 1.0)
    return 3.0 * s**2 - 2.0 * s**3


@dataclass(frozen=True)
class RadialProfile:
    """A radial function r -> u(r) with its derivative, on [0, inf)."""

    u: Callable[[np.ndarray], np.ndarray]
    du: Callable[[np.ndarray], np.ndarray] | None = None

    def deriv(self, r):
        if self.du is not None:
            return self.du(r)
        # 4th-order central difference fallback
        e = 1e-4 * max(1.0, float(np.max(np.abs(np.atleast_1d(r)))))
        r = np.asarray(r, dtype=float)
        return (
            -self.u(r + 2 * e) + 8 * self.u(r + e) - 8 * self.u(r - e) + self.u(r - 2 * e)
        ) / (12 * e)

    def _int(self, integrand, a=0.0, b=np.inf) -> float:
        val, _ = quad(integrand, a, b, **_QUAD_OPTS)
        return val

    def grad_norm_sq(self, r0: float = 0.0, r1: float = np.inf) -> float:
        """4*pi * int r^2 u'(r)^2 dr over [r0, r1]."""
        return FOUR_PI * self._int(lambda r: r * r * self.deriv(r) ** 2, r0, r1)

    def l2p_norm(self, p: float, r0: float = 0.0, r1: float = np.inf) -> float:
        """4*pi * int r^2 |u|^p dr over [r0, r1]."""
        return FOUR_PI * self._int(lambda r: r * r * np.abs(self.u(r)) ** p, r0, r1)

    def hardy_sq(self, r0: float = 0.0, r1: float = np.inf) -> float:
        """4*pi * int u^2 dr (the Hardy-weighted integral int u^2/|x|^2 dx)."""
        return FOUR_PI * self._int(lambda r: self.u(r) ** 2, r0, r1)

    def scaled(self, lam: float) -> "RadialProfile":
        """Energy-invariant rescaling lam^{-1/2} u(r/lam)."""
        u, du = self.u, self.du
        s_u = lambda r: lam ** -0.5 * u(np.asarray(r) / lam)
        s_du = None if du is None else (lambda r: lam ** -1.5 * du(np.asarray(r) / lam))
        return RadialProfile(s_u, s_du)

    def __mul__(self, c: float) -> "RadialProfile":
        u, du = self.u, self.du
        return RadialProfile(
            lambda r: c * u(r), None if du is None else (lambda r: c * du(r))
        )

    __rmul__ = __mul__

    def __add__(self, other: "RadialProfile") -> "RadialProfile":
        ua, ub = self.u, other.u
        da, db = self.du, other.du
        du = None
        if da is not None and db is not None:
            du = lambda r: da(r) + db(r)
        return RadialProfile(lambda r: ua(r) + ub(r), du)


def gaussian_bump(amp: float, sigma: float, center: float = 0.0) -> RadialProfile:
    def u(r):
        return amp * np.exp(-((np.asarray(r, float) - center) ** 2) / sigma**2)

    def du(r):
        r = np.asarray(r, float)
        return -2.0 * (r - center) / sigma**2 * u(r)

    return RadialProfile(u, du)
