"""Exact engine for radial 3D linear waves via the reduction f = r*v.

f solves the 1D wave equation with f(t,0) = 0 and has the closed form
f(t,r) = F(t+r) - F(t-r).  With f0 piecewise-linear and f1
piecewise-constant on the same breakpoints, F is exactly piecewise-linear,
so evolution and all band energies are exact (no quadrature).

Channel minima in closed form: for t >= 0 the band energy over
r0+|t| < r < r1+|t| is 2 int_{-r1}^{-r0} F'^2, which does not move, plus
2 int_{2t+r0}^{2t+r1} F'^2, which is >= 0 and exactly 0 once the window
passes the support of F'. So the minimum over t >= 0 is the constant half,
the t -> +inf free channel, and symmetrically for t <= 0. `channel_check`
costs two `OneDWaveData.int_dF_sq` window integrals, O(cells).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidDataError, InvalidParameterError
from .radial import RadialProfile, half_line_integral
from .table import read_columns, write_columns

_MERGE_EPS = 1e-12
_CSV_COLUMNS = ("s", "f0", "f1")


@dataclass(frozen=True)
class RadialData:
    """Reduced pair (f0, f1): f0 piecewise-linear at knots, f1 constant on cells.

    There are at least two knots; f0 is constant and f1 zero beyond the last
    one; knots[0] must be 0 and f0[0] must vanish (u bounded at the origin).
    """

    knots: np.ndarray
    f0: np.ndarray
    f1: np.ndarray  # len(knots) - 1 cell values

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        f0 = np.asarray(self.f0, dtype=float)
        f1 = np.asarray(self.f1, dtype=float)
        if knots.size < 2 or np.any(np.diff(knots) <= 0):
            raise InvalidDataError("need two or more strictly increasing knots")
        if knots[0] != 0.0:
            raise InvalidDataError("knots must start at r = 0")
        if f0.shape != knots.shape or f1.shape != (knots.size - 1,):
            raise InvalidDataError("f0/f1 shapes do not match the knots")
        if f0[0] != 0.0:
            raise InvalidDataError("f0(0) must vanish")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "f1", f1)


def reduce(u0, u1, grid: np.ndarray) -> RadialData:
    """Project radial data (u0, u1) onto the piecewise class at the grid.

    u0, u1 are RadialProfiles or callables of r.
    f0 = r*u0 at knots; f1 = r*u1 sampled at cell midpoints.
    """
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0:
        grid = np.concatenate(([0.0], grid))
    mid = 0.5 * (grid[1:] + grid[:-1])
    u0, u1 = (fn.u if isinstance(fn, RadialProfile) else fn for fn in (u0, u1))
    f0 = grid * u0(grid)
    f1 = mid * u1(mid)
    f0[0] = 0.0
    return RadialData(grid, f0, f1)


@dataclass(frozen=True)
class OneDWaveData:
    """Piecewise-linear F profile: F' = dF on cells of s, zero outside."""

    s: np.ndarray  # sorted breakpoints over the real line
    dF: np.ndarray  # len(s)-1 cell values of F'
    F_left: float  # F value on (-inf, s[0]]

    @property
    def F_knots(self) -> np.ndarray:
        return self.F_left + np.concatenate(([0.0], np.cumsum(self.dF * np.diff(self.s))))

    def F(self, x):
        """Evaluate F anywhere (piecewise linear, constant outside)."""
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.s, self.F_knots)
        return out if out.ndim else float(out)

    def dF_at(self, x):
        """F' evaluated cellwise (value at knots is the right cell's)."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.s, x, side="right") - 1
        inside = (idx >= 0) & (idx < self.dF.size)
        out = np.where(inside, self.dF[np.clip(idx, 0, self.dF.size - 1)], 0.0)
        return out if out.ndim else float(out)

    def int_dF_sq(self, a: float, b: float) -> float:
        """Exact integral of F'^2 over [a, b], 0.0 where b <= a."""
        if b <= a:
            return 0.0
        lengths = np.clip(np.minimum(self.s[1:], b) - np.maximum(self.s[:-1], a), 0.0, None)
        return float(np.sum(self.dF**2 * lengths))

    def total_energy(self) -> float:
        """int (d_r f)^2 + (d_t f)^2 dr over r > 0; constant in t."""
        return 2.0 * self.int_dF_sq(self.s[0], self.s[-1])

    @property
    def support_radius(self) -> float:
        return float(max(abs(self.s[0]), abs(self.s[-1])))


def build_F(data: RadialData) -> OneDWaveData:
    """Construct F from (f0, f1):

    F(s) =  f0(s)/2  + (1/2) int_0^s  f1   for s > 0,
    F(s) = -f0(-s)/2 + (1/2) int_0^{-s} f1 for s < 0.
    """
    k = data.knots
    dk = np.diff(k)
    slopes = np.diff(data.f0) / dk
    # positive cells (k_i, k_{i+1}): F' = slope/2 + f1/2
    pos = 0.5 * slopes + 0.5 * data.f1
    # negative cells (-k_{i+1}, -k_i): F' = slope/2 - f1/2, reversed order
    neg = (0.5 * slopes - 0.5 * data.f1)[::-1]
    s = np.concatenate((-k[:0:-1], k))
    dF = np.concatenate((neg, pos))
    f1_int = float(np.sum(data.f1 * dk))
    F_left = -0.5 * data.f0[-1] + 0.5 * f1_int
    return OneDWaveData(s, dF, F_left)


def _merge_knots(values: np.ndarray) -> np.ndarray:
    v = np.unique(values)
    if v.size <= 1:
        return v
    scale = max(1.0, float(abs(v[-1])))
    keep = np.concatenate(([True], np.diff(v) > _MERGE_EPS * scale))
    return v[keep]


def evolve(data: OneDWaveData, t: float) -> RadialData:
    """Exact solution at time t as a new piecewise pair (f(t), d_t f(t))."""
    s = data.s
    cand = np.concatenate((s - t, t - s, [0.0]))
    knots = _merge_knots(cand[cand >= 0.0])
    if knots[0] != 0.0:
        knots = np.concatenate(([0.0], knots))
    f = data.F(t + knots) - data.F(t - knots)
    f[0] = 0.0
    mid = 0.5 * (knots[1:] + knots[:-1])
    ft = data.dF_at(t + mid) - data.dF_at(t - mid)
    return RadialData(knots, f, ft)


@dataclass(frozen=True)
class BandEnergy:
    r0: float
    r1: float
    t: float
    value: float


def band_energy(data: OneDWaveData, t: float, r0: float, r1: float) -> BandEnergy:
    """Exact int_{r0+|t|}^{r1+|t|} (d_r f)^2 + (d_t f)^2 dr."""
    if not (0 < r0 < r1):
        raise InvalidParameterError("band needs 0 < r0 < r1")
    a, b = r0 + abs(t), r1 + abs(t)
    val = 2.0 * (data.int_dF_sq(t + a, t + b) + data.int_dF_sq(t - b, t - a))
    return BandEnergy(r0, r1, t, val)


@dataclass(frozen=True)
class ChannelReport:
    side: str  # "Plus" | "Minus" | "Both"
    min_ratio: float
    min_ratio_plus: float
    min_ratio_minus: float


def channel_check(data: OneDWaveData, r0: float, r1: float) -> ChannelReport:
    """Which time half-line retains >= 1/2 of the initial band energy.

    The minima are exact. With p = int_{-r1}^{-r0} F'^2 and
    m = int_{r0}^{r1} F'^2, the band energy at t = 0 is e0 = 2(p + m). For
    t >= 0 it is 2p plus 2 int_{2t+r0}^{2t+r1} F'^2, a window that is >= 0
    and empty of F' for t large, so its minimum is 2p (the t -> +inf free
    channel); for t <= 0 it is 2m. Since max(p, m) >= (p + m)/2, one side
    always keeps half.

    Cost: two `int_dF_sq` calls per check, O(cells).
    """
    if not (0 < r0 < r1):
        raise InvalidParameterError("band needs 0 < r0 < r1")
    p, m = data.int_dF_sq(-r1, -r0), data.int_dF_sq(r0, r1)
    e0 = 2.0 * (p + m)
    if e0 <= 0.0:
        raise DegenerateInputError("zero initial band energy")
    mn_plus, mn_minus = 2.0 * p / e0, 2.0 * m / e0
    thresh = 0.5 - 1e-12
    if mn_plus >= thresh and mn_minus >= thresh:
        side = "Both"
    elif mn_plus >= mn_minus:
        side = "Plus"
    else:
        side = "Minus"
    return ChannelReport(side, max(mn_plus, mn_minus), mn_plus, mn_minus)


@dataclass(frozen=True)
class ExteriorIdentity:
    """Both sides of int_{R0}^inf (d_r(r u0))^2 dr = ext_grad - R0 u0(R0)^2.

    All terms dr-normalized: ext_grad = int_{|x|>=R0} |grad u0|^2 dx / 4 pi.
    """

    lhs: float
    rhs: float
    boundary_term: float

    @property
    def defect(self) -> float:
        return abs(self.lhs - (self.rhs - self.boundary_term))


def exterior_identity_check(u0: RadialProfile, R0: float = 0.0) -> ExteriorIdentity:
    lhs = half_line_integral(lambda r: (u0.u(r) + r * u0.du(r)) ** 2, R0)
    rhs = half_line_integral(lambda r: r * r * u0.du(r) ** 2, R0)
    boundary = R0 * float(u0.u(R0)) ** 2
    return ExteriorIdentity(lhs, rhs, boundary)


def export_csv(data: RadialData | None, path) -> None:
    """Write knots as rows s,f0,f1 (f1 applies to [s_i, s_{i+1})); None writes the header alone."""
    columns = [] if data is None else [data.knots, data.f0, np.append(data.f1, 0.0)]
    write_columns(path, _CSV_COLUMNS, columns)


def import_csv(path) -> RadialData | None:
    """The data `export_csv` wrote (the last f1 is unused); None for a header-only file."""
    s, f0, f1 = read_columns(path, _CSV_COLUMNS)
    if s.size == 0:
        return None
    try:
        return RadialData(s, f0, f1[:-1])
    except InvalidDataError as exc:
        raise InvalidDataError(f"{path}: {exc}") from exc


def random_data(rng: np.random.Generator, n_knots: int = 8, support: float = 5.0) -> RadialData:
    """Random compactly supported piecewise data for channel verification."""
    interior = np.sort(rng.uniform(0.1 * support, support, size=n_knots))
    interior = _merge_knots(interior)
    knots = np.concatenate(([0.0], interior))
    f0 = rng.normal(size=knots.size)
    f0[0] = 0.0
    f1 = rng.normal(size=knots.size - 1)
    return RadialData(knots, f0, f1)
