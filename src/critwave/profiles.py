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
_SCALE_FINISH = 1e-6  # a Newton step this short is taken as the refine's last
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
    rows: list  # rows[j] = eval_w_deriv on the mesh nodes at bubbles[j]'s scale and sign
    bubble_grad_sq: list  # bubble_grad_sq[j] = w_grad_norm_sq at bubbles[j]'s scale

    @property
    def n_bubbles(self) -> int:
        return len(self.bubbles)


def _grad_inner(mesh: RadialMesh, du1: np.ndarray, du2: np.ndarray) -> float:
    r = mesh.nodes
    return FOUR_PI * mesh.integrate(r * r * du1 * du2)


def _w_grad_samples(mesh: RadialMesh, lam: float) -> np.ndarray:
    return eval_w_deriv(mesh.nodes, GroundStateParams(lam=lam))


def w_grad_norm_sq(mesh: RadialMesh, lam: float) -> float:
    """Mesh-truncated int |grad W_lam|^2, as a decomposition carries it per bubble."""
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
    when it is more. A grid that keeps D also keeps the log-lam jet of each
    point a search starts from (`jet`), formed at its first use, and a lower
    bound on B = <a, d^2> over each point's bracket [x_{i-1}, x_{i+1}]:
    bound_i = min(D_{i-1}^2, D_{i+1}^2) @ a, the minimum taken node by node.
    At a node r, d^2 = rho^5 / (9 r^3 (1 + rho^2/3)^3) with rho = r / lam
    rises up to rho = sqrt(15) and falls after it, so over a bracket it is
    least at one of its ends. A grid formed in blocks has every bound 0.
    x, a, nw, bound, a kept D and the kept jets are read-only, so one grid
    can serve every extract on its mesh (`_greedy_grid`)."""

    def __init__(self, mesh: RadialMesh, x: np.ndarray):
        r = mesh.nodes
        self.r, self.x = r, x
        self.a = FOUR_PI * mesh.weights * r * r
        self.nw = np.empty(x.size)
        for rows, d in self._blocks():
            d2 = d * d
            self.nw[rows] = d2 @ self.a
        if np.any(self.nw <= 0):
            raise DegenerateInputError("vanishing gradient norm")
        self._d = d if d.shape[0] == x.size else None
        if self._d is None:
            self.bound = np.zeros(x.size)
        else:
            i = np.arange(x.size)
            self.bound = np.minimum(d2[np.maximum(i - 1, 0)], d2[np.minimum(i + 1, x.size - 1)]) @ self.a
        for kept in (x, self.a, self.nw, self.bound, self._d):
            if kept is not None:
                kept.setflags(write=False)
        self._jets = None if self._d is None else {}

    def jet(self, i: int) -> np.ndarray:
        """_w_deriv_log_jet at lam = exp(x_i), kept after its first use on a grid that keeps D."""
        if self._jets is None:
            return _w_deriv_log_jet(self.r, np.exp(self.x[i]))
        jet = self._jets.get(i)
        if jet is None:
            jet = self._jets[i] = _w_deriv_log_jet(self.r, np.exp(self.x[i]))
            jet.setflags(write=False)
        return jet

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
    """The grid of _GRID_PER_DECADE points per decade from lo to hi, built once per mesh and range."""
    return _ScaleGrid(mesh, np.linspace(lo, hi, int(np.ceil(_GRID_PER_DECADE * (hi - lo) / np.log(10.0))) + 1))


def _best_scale(grid: _ScaleGrid, du: np.ndarray, nu: float) -> tuple | None:
    """_refine_scale from the grid point i best correlated with du, between
    its two neighbours, starting from that point's jet as the grid keeps it;
    or None, with no refine, where nu, the norm <a du, du> to rounding,
    shows that the coefficient cannot reach _COEFF_WINDOW. By Cauchy-Schwarz
    |coefficient| = |A| / B <= sqrt(nu / B), and the refine stays in the
    bracket, where B >= bound_i; so nu < 0.49 bound_i bounds it below 0.7
    (with a margin of 1e-6 for rounding). A grid formed in blocks skips
    nothing."""
    i = int(np.argmax(grid.scores(du)))
    if nu < _COEFF_WINDOW[0] ** 2 * grid.bound[i] * (1.0 - 1e-6):
        return None
    x = grid.x
    return _refine_scale(grid, du, x[i], x[max(i - 1, 0)], x[min(i + 1, x.size - 1)], grid.jet(i))


def _refine_scale(
    grid: _ScaleGrid, du: np.ndarray, x: float, lo: float, hi: float, jet: np.ndarray
) -> tuple[float, float, float, np.ndarray, float, np.ndarray]:
    """(lam, correlation, coefficient, d, x_jet, jet) of the scale best
    correlated with du by a safeguarded Newton search on x = log lam from x
    within [lo, hi], with the grid's nodes r and weights a (none of its
    rows); d is the row grad W_lam at the lam returned, _w_deriv(r, lam) bit
    for bit, and jet is the search's last full jet, at x_jet: log lam itself,
    or the point the Newton finish stepped from, within _SCALE_FINISH of it.
    The jet passed in is _w_deriv_log_jet(r, exp(x)), read and not formed
    again; so a search started from a pair (x_jet, jet) that another
    returned forms no jet at its start.

    With d the row grad W_lam and its x-derivatives d', d'', the search scores
    A = <a du, d> and B = <a, d^2> and steps to the root of
    F = 2 A' B - A B', where (A^2/B)' = A F / B^2 vanishes: |correlation| =
    |A| / sqrt(nu B) rises with x where A F > 0. Each step keeps the uphill
    part of the bracket, and is a bisection of it where the Newton step would
    leave it or would not point uphill (A F' >= 0). One product of the jet
    (d, d', d'') with the rows (a du, a d, a d') gives A, A', A'' and every
    term of B, B', B''. The search stops at a step of at most _SCALE_XTOL,
    with correlation and coefficient from the rows of its last point, or
    takes a Newton step of at most _SCALE_FINISH and stops there, scoring the
    new point by its row d alone: the Newton step after it would be about
    its square, inside _SCALE_XTOL.
    """
    r, a = grid.r, grid.a
    m = np.empty((3, r.size))  # the rows a du, a d, a d'
    adu = np.multiply(a, du, out=m[0])
    nu = adu @ du
    for n in range(1, _SCALE_MAX_STEPS + 1):
        np.multiply(a, jet[:2], out=m[1:])
        (A, B, _), (A1, ad1, a11), (A2, ad2, _) = (jet @ m.T).tolist()
        B1, B2 = 2.0 * ad1, 2.0 * (ad2 + a11)
        F = 2.0 * A1 * B - A * B1
        F1 = 2.0 * A2 * B + A1 * B1 - A * B2
        if A * F > 0:
            lo = x
        elif A * F < 0:
            hi = x
        step = -F / F1 if A * F1 < 0 else np.inf
        newton = lo <= x + step <= hi
        if not newton:
            step = 0.5 * (lo + hi) - x
        if abs(step) <= _SCALE_XTOL or n == _SCALE_MAX_STEPS:
            lam, d = np.exp(x), jet[0]  # _w_deriv's operations in its order
            break
        if newton and abs(step) <= _SCALE_FINISH:
            lam = np.exp(x + step)
            d = _w_deriv(r, lam)
            A, B = adu @ d, (a * d) @ d
            break
        x += step
        jet = _w_deriv_log_jet(r, np.exp(x))
    return float(lam), A / np.sqrt(nu * B), A / B, d, x, jet


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

    Each greedy search scores the grid and refines its best point, unless
    the grid's bound there shows that the residual's coefficient cannot
    reach the window, when the pursuit stops with no refine (`_best_scale`):
    a search the window test would reject. The grid depends only on the
    mesh and that range, so it is built by the first extract on a mesh
    object and range and kept for the next ones, with the jet of each grid
    point a search has started from. The back-fit forms no grid: it refines
    each bubble from the point of its last refine's last jet, reading that
    jet, within a factor 3 of that point, and keeps the point and jet it
    ends on for the bubble's next search. A refine takes one jet product a
    step and most end on a Newton finish scored by one row
    (`_refine_scale`); the row at the scale it returns, times the sign, is
    the bubble's row, and its norm is the bubble's norm that
    pythagorean_check sums. The field's gradient is its du_dr, by the
    mesh's kept stencil.
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
    bubbles, rows = [], []  # rows[j] = iota_j d: eval_w_deriv at bubbles[j]'s scale and sign
    starts = []  # starts[j] = (x, jet): the last full jet of bubbles[j]'s latest refine
    du_res = du_field
    while len(bubbles) < max_bubbles:
        nu = _grad_inner(mesh, du_res, du_res)
        if nu <= 1e-30 * total:
            break
        found = _best_scale(greedy, du_res, nu)
        if found is None:
            break
        lam, corr, coeff, d, x, jet = found
        if abs(corr) < _CORRELATION_FLOOR:
            break
        if not (_COEFF_WINDOW[0] <= abs(coeff) <= _COEFF_WINDOW[1]):
            break
        if any(max(lam / b.lam, b.lam / lam) < _SEPARATION_FACTOR for b in bubbles):
            break
        iota = 1 if coeff > 0 else -1
        rows.append(iota * d)
        starts.append((x, jet))
        du_res = du_res - rows[-1]
        bubbles.append(Bubble(iota=iota, lam=lam, coeff=float(coeff), correlation=float(corr)))

    if len(bubbles) > 1:
        # back-fitting: re-optimize each scale against the field minus the
        # other bubbles, which removes the leading-order bias from
        # overlapping tails
        for _ in range(_REFINE_SWEEPS):
            for j, (x, jet) in enumerate(starts):
                du_j = du_field.copy()
                for k, row in enumerate(rows):
                    if k != j:
                        du_j -= row
                lam_j, corr, coeff, d, x, jet = _refine_scale(greedy, du_j, x, x - np.log(3.0), x + np.log(3.0), jet)
                starts[j] = x, jet
                iota = 1 if coeff > 0 else -1
                bubbles[j] = Bubble(iota=iota, lam=lam_j, coeff=float(coeff), correlation=float(corr))
                rows[j] = iota * d

    u_res, du_res = field.u(), du_field
    for b, row in zip(bubbles, rows):
        u_res = u_res - eval_w(r, GroundStateParams(lam=b.lam, iota=b.iota))
        du_res = du_res - row

    residual = FieldState.from_u(mesh, u_res, field.ut(), t=field.t)
    return ProfileDecomposition(
        bubbles=bubbles,
        residual=residual,
        total_grad_sq=total,
        residual_grad_sq=_grad_inner(mesh, du_res, du_res),
        rows=rows,
        bubble_grad_sq=[_grad_inner(mesh, row, row) for row in rows],
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
    """Gradient energy should split as sum of bubble energies + residual,
    the bubbles' energies being the norms the decomposition carries."""
    return PythagoreanReport(
        total_grad_sq=decomp.total_grad_sq,
        bubble_sum=float(sum(decomp.bubble_grad_sq)),
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
