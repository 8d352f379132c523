"""Greedy multi-bubble profile extraction.

Decomposes a radial field into a signed sum of rescaled ground states
iota_j W_{lam_j} plus a residual, by matching pursuit over the scale
parameter, and checks the Pythagorean splitting of the gradient energy.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidParameterError
from .ground_state import GroundStateParams, _w_deriv, _w_deriv_log_jet, eval_w, eval_w_deriv
from .mesh import FieldState, RadialMesh
from .radial import FOUR_PI

_SEPARATION_FACTOR = 10.0  # least scale ratio between two extracted bubbles
_CORRELATION_FLOOR = 0.3  # least |correlation| of an extracted bubble
_COEFF_WINDOW = (0.7, 1.3)  # projection coefficients snapped to +-1
_REFINE_SWEEPS = 2  # back-fitting sweeps over a multi-bubble fit
_GRID_PER_DECADE = 4  # log-lam grid density of the scale search
_BLOCK_ELEMENTS = 2**20  # size of one row block of the grid-scoring matrix
_SCALE_XTOL = 1e-10  # last step in log lam of the scale search's Newton refine
_SCALE_MAX_STEPS = 64  # bound on the refine's steps; bisection alone needs about 33


@dataclass(frozen=True)
class Bubble:
    """One extracted rescaled ground state iota * W_lam."""

    iota: int
    lam: float
    coeff: float  # raw projection coefficient before snapping to iota
    correlation: float  # normalized gradient correlation at extraction


@dataclass
class ProfileDecomposition:
    bubbles: list
    residual: FieldState
    total_grad_sq: float
    residual_grad_sq: float

    @property
    def n_bubbles(self) -> int:
        return len(self.bubbles)


def _grad_inner(mesh: RadialMesh, du1: np.ndarray, du2: np.ndarray) -> float:
    r = mesh.nodes
    return FOUR_PI * mesh.integrate(r * r * du1 * du2)


def _w_grad_samples(mesh: RadialMesh, lam: float) -> np.ndarray:
    return eval_w_deriv(mesh.nodes, GroundStateParams(lam=lam))


def w_grad_norm_sq(mesh: RadialMesh, lam: float) -> float:
    """Mesh-truncated int |grad W_lam|^2 (used to normalize projections)."""
    dw = _w_grad_samples(mesh, lam)
    return _grad_inner(mesh, dw, dw)


def correlate_scale(mesh: RadialMesh, du: np.ndarray, lam: float) -> tuple[float, float]:
    """(correlation, coefficient) of the gradient du against grad W_lam.

    correlation is normalized to [-1, 1]; coefficient is the projection
    <du, dW_lam> / ||dW_lam||^2, both with mesh-truncated norms.
    """
    if lam <= 0:
        raise InvalidParameterError("lam must be positive")
    dw = _w_grad_samples(mesh, lam)
    inner = _grad_inner(mesh, du, dw)
    nw = _grad_inner(mesh, dw, dw)
    nu = _grad_inner(mesh, du, du)
    if nu <= 0 or nw <= 0:
        raise DegenerateInputError("vanishing gradient norm")
    return inner / np.sqrt(nu * nw), inner / nw


class _ScaleGrid:
    """A log-lam grid x with its matrix D, whose row i is grad W at
    lam = exp(x_i), and the row norms nw = (D*D) @ a, a = 4 pi w r^2: made
    once and scored against any number of gradients. D is formed in row blocks
    of about _BLOCK_ELEMENTS elements (one row at a time on a mesh larger than
    that); it is kept when it is one block, and formed again at each scoring
    when it is more. x, a, nw and a kept D are read-only, so one grid can
    serve every extract on its mesh (`_greedy_grid`)."""

    def __init__(self, mesh: RadialMesh, x: np.ndarray):
        r = mesh.nodes
        self.r, self.x = r, x
        self.a = FOUR_PI * mesh.weights * r * r
        self.nw = np.empty(x.size)
        for rows, d in self._blocks():
            self.nw[rows] = (d * d) @ self.a
        if np.any(self.nw <= 0):
            raise DegenerateInputError("vanishing gradient norm")
        self._d = d if d.shape[0] == x.size else None
        for kept in (x, self.a, self.nw, self._d):
            if kept is not None:
                kept.setflags(write=False)

    @classmethod
    def spanning(cls, mesh: RadialMesh, lo: float, hi: float) -> "_ScaleGrid":
        """The grid of _GRID_PER_DECADE points per decade from lo to hi."""
        return cls(mesh, np.linspace(lo, hi, int(np.ceil(_GRID_PER_DECADE * (hi - lo) / np.log(10.0))) + 1))

    def _blocks(self):
        step = max(1, _BLOCK_ELEMENTS // self.r.size)
        lam = np.exp(self.x)
        for i in range(0, lam.size, step):
            yield slice(i, i + step), _w_deriv(self.r, lam[i : i + step, None])

    def scores(self, du: np.ndarray) -> np.ndarray:
        """|correlation| of du against every row: |D @ (a du)| / sqrt((a @ du^2) nw),
        correlate_scale at every grid point up to rounding."""
        adu = self.a * du
        nu = adu @ du
        if nu <= 0:
            raise DegenerateInputError("vanishing gradient norm")
        if self._d is not None:
            dots = self._d @ adu
        else:
            dots = np.empty(self.x.size)
            for rows, d in self._blocks():
                dots[rows] = d @ adu
        return np.abs(dots) / np.sqrt(nu * self.nw)


@functools.lru_cache(maxsize=1)
def _greedy_grid(mesh: RadialMesh, lo: float, hi: float) -> _ScaleGrid:
    """_ScaleGrid.spanning(mesh, lo, hi), built once per mesh and range."""
    return _ScaleGrid.spanning(mesh, lo, hi)


def _best_scale(grid: _ScaleGrid, du: np.ndarray) -> tuple[float, float, float]:
    """(lam, correlation, coefficient) of the scale best correlated with du:
    the grid's best point, then a safeguarded Newton search on x = log lam
    between that point's two neighbours.

    With d the row grad W_lam and its x-derivatives d', d'', the search scores
    A = <a du, d> and B = <a, d^2> and steps to the root of
    F = 2 A' B - A B', where (A^2/B)' = A F / B^2 vanishes: |correlation| =
    |A| / sqrt(nu B) rises with x where A F > 0. Each step keeps the uphill
    part of the bracket, and is a bisection of it where the Newton step would
    leave it or would not point uphill (A F' >= 0). The search stops at a
    step of at most _SCALE_XTOL; correlation and coefficient come from the
    rows of its last point.
    """
    i = int(np.argmax(grid.scores(du)))
    lo, hi = grid.x[max(i - 1, 0)], grid.x[min(i + 1, grid.x.size - 1)]
    x = grid.x[i]
    a, adu = grid.a, grid.a * du
    for n in range(1, _SCALE_MAX_STEPS + 1):
        d, d1, d2 = _w_deriv_log_jet(grid.r, np.exp(x))
        ad = a * d
        A, A1, A2 = adu @ d, adu @ d1, adu @ d2
        B, B1, B2 = ad @ d, 2.0 * (ad @ d1), 2.0 * (ad @ d2 + a @ (d1 * d1))
        F = 2.0 * A1 * B - A * B1
        F1 = 2.0 * A2 * B + A1 * B1 - A * B2
        if A * F > 0:
            lo = x
        elif A * F < 0:
            hi = x
        step = -F / F1 if A * F1 < 0 else np.inf
        if not lo <= x + step <= hi:
            step = 0.5 * (lo + hi) - x
        if abs(step) <= _SCALE_XTOL or n == _SCALE_MAX_STEPS:
            break
        x += step
    return float(np.exp(x)), A / np.sqrt((adu @ du) * B), A / B


def extract(
    field: FieldState,
    max_bubbles: int = 3,
    lam_range: tuple | None = None,
) -> ProfileDecomposition:
    """Greedy matching pursuit over the dictionary {+-W_lam}.

    Repeatedly finds the scale maximizing the absolute gradient
    correlation of the residual, snaps the projection coefficient to
    +-1 when it lies in _COEFF_WINDOW, subtracts, and stops when the
    correlation drops below _CORRELATION_FLOOR, the coefficient falls
    outside the window, or a scale lies within _SEPARATION_FACTOR of one
    already found.  A fit of several bubbles is then back-fitted.

    With S = log(lam_max / lam_min), the greedy search covers log lam from
    log lam_min - (3/28) S to log lam_max + (3/28) S, so it also finds
    bubbles just outside lam_range (up to ~8e5 for lam_range=(1e-5, 1e5)).

    The greedy grid depends only on the mesh and that range, so it is built
    by the first extract on a mesh object and range and kept for the next
    ones; an extract then forms only each search's Newton rows and, in the
    back-fit, one 5-point grid per bubble and sweep.
    """
    mesh = field.mesh
    r = mesh.nodes
    if lam_range is None:
        lam_range = (5.0 * float(r[1]), mesh.rmax / 5.0)
    lam_min, lam_max = lam_range
    if not (0 < lam_min < lam_max):
        raise InvalidParameterError("need 0 < lam_min < lam_max")
    reach = 3.0 / 28.0 * np.log(lam_max / lam_min)
    lo, hi = np.log(lam_min) - reach, np.log(lam_max) + reach

    du_field = field.du_dr()
    total = _grad_inner(mesh, du_field, du_field)
    if total <= 0:
        raise DegenerateInputError("field has vanishing gradient energy")

    greedy = _greedy_grid(mesh, lo, hi)
    bubbles = []
    du_res = du_field
    while len(bubbles) < max_bubbles:
        if _grad_inner(mesh, du_res, du_res) <= 1e-30 * total:
            break
        lam, corr, coeff = _best_scale(greedy, du_res)
        if abs(corr) < _CORRELATION_FLOOR:
            break
        if not (_COEFF_WINDOW[0] <= abs(coeff) <= _COEFF_WINDOW[1]):
            break
        if any(max(lam / b.lam, b.lam / lam) < _SEPARATION_FACTOR for b in bubbles):
            break
        iota = 1 if coeff > 0 else -1
        du_res = du_res - eval_w_deriv(r, GroundStateParams(lam=lam, iota=iota))
        bubbles.append(Bubble(iota=iota, lam=lam, coeff=float(coeff), correlation=float(corr)))

    if len(bubbles) > 1:
        # back-fitting: re-optimize each scale against the field minus the
        # other bubbles, which removes the leading-order bias from
        # overlapping tails
        for _ in range(_REFINE_SWEEPS):
            for j, b in enumerate(bubbles):
                du_j = du_field.copy()
                for k, other in enumerate(bubbles):
                    if k != j:
                        du_j -= eval_w_deriv(r, GroundStateParams(lam=other.lam, iota=other.iota))
                near = _ScaleGrid.spanning(mesh, np.log(b.lam / 3.0), np.log(b.lam * 3.0))
                lam_j, corr, coeff = _best_scale(near, du_j)
                bubbles[j] = Bubble(
                    iota=1 if coeff > 0 else -1, lam=lam_j, coeff=float(coeff), correlation=float(corr)
                )

    u_res, du_res = field.u(), du_field
    for b in bubbles:
        params = GroundStateParams(lam=b.lam, iota=b.iota)
        u_res = u_res - eval_w(r, params)
        du_res = du_res - eval_w_deriv(r, params)

    residual = FieldState.from_u(mesh, u_res, field.ut(), t=field.t)
    return ProfileDecomposition(
        bubbles=bubbles,
        residual=residual,
        total_grad_sq=total,
        residual_grad_sq=_grad_inner(mesh, du_res, du_res),
    )


@dataclass(frozen=True)
class PythagoreanReport:
    total_grad_sq: float
    bubble_sum: float
    residual_grad_sq: float

    @property
    def defect(self) -> float:
        return abs(self.total_grad_sq - self.bubble_sum - self.residual_grad_sq)

    @property
    def relative_defect(self) -> float:
        return self.defect / self.total_grad_sq


def pythagorean_check(decomp: ProfileDecomposition) -> PythagoreanReport:
    """Gradient energy should split as sum of bubble energies + residual."""
    mesh = decomp.residual.mesh
    bubble_sum = sum(w_grad_norm_sq(mesh, b.lam) for b in decomp.bubbles)
    return PythagoreanReport(
        total_grad_sq=decomp.total_grad_sq,
        bubble_sum=float(bubble_sum),
        residual_grad_sq=decomp.residual_grad_sq,
    )


def export_json(decomp: ProfileDecomposition, path) -> None:
    payload = {
        "bubbles": [
            {
                "iota": b.iota,
                "lam": repr(float(b.lam)),
                "coeff": repr(float(b.coeff)),
                "correlation": repr(float(b.correlation)),
            }
            for b in decomp.bubbles
        ],
        "total_grad_sq": repr(float(decomp.total_grad_sq)),
        "residual_grad_sq": repr(float(decomp.residual_grad_sq)),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
