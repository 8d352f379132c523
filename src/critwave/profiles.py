"""Greedy multi-bubble profile extraction.

Decomposes a radial field into a signed sum of rescaled ground states
iota_j W_{lam_j} plus a residual, by matching pursuit over the scale
parameter, and checks the Pythagorean splitting of the gradient energy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import DegenerateInputError, InvalidDataError, InvalidParameterError
from .ground_state import GroundStateParams, _w_deriv, eval_w, eval_w_deriv
from .mesh import FieldState, RadialMesh
from .radial import FOUR_PI

_SEPARATION_FACTOR = 10.0  # least scale ratio between two extracted bubbles
_COEFF_WINDOW = (0.7, 1.3)  # projection coefficients snapped to +-1
_REFINE_SWEEPS = 2  # back-fitting sweeps over a multi-bubble fit
_GRID_PER_DECADE = 4  # log-lam grid density of the scale search
_BLOCK_ELEMENTS = 2**20  # size of one row block of the grid-scoring matrix


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


def _grid_scores(mesh: RadialMesh, du: np.ndarray, loglam: np.ndarray) -> np.ndarray:
    """|correlation| of du against grad W_lam at every lam = exp(loglam).

    With a = 4 pi w r^2 and D the matrix whose row i is grad W at lam_i, the
    scores are |D @ (a du)| / sqrt((a @ du^2) ((D*D) @ a)): correlate_scale at
    every grid point up to rounding. D is formed in row blocks of about
    _BLOCK_ELEMENTS elements (one row at a time on a mesh larger than that).
    """
    r = mesh.nodes
    a = FOUR_PI * mesh.weights * r * r
    adu = a * du
    nu = a @ (du * du)
    if nu <= 0:
        raise DegenerateInputError("vanishing gradient norm")
    lam = np.exp(loglam)
    rows = max(1, _BLOCK_ELEMENTS // r.size)
    scores = np.empty(lam.size)
    for i in range(0, lam.size, rows):
        d = _w_deriv(r, lam[i : i + rows, None])
        nw = (d * d) @ a
        if np.any(nw <= 0):
            raise DegenerateInputError("vanishing gradient norm")
        scores[i : i + rows] = np.abs(d @ adu) / np.sqrt(nu * nw)
    return scores


def _best_scale(mesh, du, lo, hi):
    """(lam, correlation, coefficient) of the scale in lo <= log lam <= hi best
    correlated with du: a log grid of _GRID_PER_DECADE points per decade scored
    at once, then one bounded search between the best grid point's two
    neighbours, whose evaluation at its result is returned."""
    seen = {}

    def neg_abs_corr(loglam):
        seen[loglam] = correlate_scale(mesh, du, np.exp(loglam))
        return -abs(seen[loglam][0])

    grid = np.linspace(lo, hi, int(np.ceil(_GRID_PER_DECADE * (hi - lo) / np.log(10.0))) + 1)
    i = int(np.argmax(_grid_scores(mesh, du, grid)))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    res = minimize_scalar(neg_abs_corr, bounds=(lo, hi), method="bounded", options={"xatol": 1e-10})
    corr, coeff = seen[res.x]  # the result is the best point the search evaluated
    return float(np.exp(res.x)), corr, coeff


def extract(
    field: FieldState,
    max_bubbles: int = 3,
    correlation_floor: float = 0.3,
    lam_range: tuple | None = None,
) -> ProfileDecomposition:
    """Greedy matching pursuit over the dictionary {+-W_lam}.

    Repeatedly finds the scale maximizing the absolute gradient
    correlation of the residual, snaps the projection coefficient to
    +-1 when it lies in _COEFF_WINDOW, subtracts, and stops when the
    correlation drops below correlation_floor, the coefficient falls
    outside the window, or a scale lies within _SEPARATION_FACTOR of one
    already found.  A fit of several bubbles is then back-fitted.

    With S = log(lam_max / lam_min), the greedy search covers log lam from
    log lam_min - (3/28) S to log lam_max + (3/28) S, so it also finds
    bubbles just outside lam_range (up to ~8e5 for lam_range=(1e-5, 1e5)).
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

    bubbles = []
    du_res = du_field
    while len(bubbles) < max_bubbles:
        if _grad_inner(mesh, du_res, du_res) <= 1e-30 * total:
            break
        lam, corr, coeff = _best_scale(mesh, du_res, lo, hi)
        if abs(corr) < correlation_floor:
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
                lam_j, corr, coeff = _best_scale(mesh, du_j, np.log(b.lam / 3.0), np.log(b.lam * 3.0))
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


def orthogonality_matrix(decomp: ProfileDecomposition) -> np.ndarray:
    """Normalized gradient Gram matrix of the extracted bubbles."""
    mesh = decomp.residual.mesh
    dws = [_w_grad_samples(mesh, b.lam) for b in decomp.bubbles]
    norms = [np.sqrt(_grad_inner(mesh, dw, dw)) for dw in dws]
    n = len(dws)
    m = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = _grad_inner(mesh, dws[i], dws[j]) / (norms[i] * norms[j])
    return m


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


def import_json(path) -> dict:
    """Load an exported decomposition summary (without the residual field)."""
    with open(path) as fh:
        payload = json.load(fh)
    try:
        return {
            "bubbles": [
                Bubble(
                    iota=int(b["iota"]),
                    lam=float(b["lam"]),
                    coeff=float(b["coeff"]),
                    correlation=float(b["correlation"]),
                )
                for b in payload["bubbles"]
            ],
            "total_grad_sq": float(payload["total_grad_sq"]),
            "residual_grad_sq": float(payload["residual_grad_sq"]),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidDataError(f"malformed decomposition file: {exc}") from exc
