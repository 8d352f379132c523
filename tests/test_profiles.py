"""Multi-bubble extraction, Pythagorean splitting, and orthogonality."""

import copy
import json
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from critwave.errors import DegenerateInputError
from critwave.ground_state import GroundStateParams, eval_w, eval_w_deriv
from critwave.mesh import FieldState, RadialMesh
from critwave import profiles


@pytest.fixture(scope="module")
def mesh():
    return RadialMesh.graded(1e-6, 1e3, 60)


def bubble_field(mesh, scales_iotas, noise=0.0):
    r = mesh.nodes
    u = np.zeros_like(r)
    for lam, iota in scales_iotas:
        u += eval_w(r, GroundStateParams(lam=lam, iota=iota))
    if noise:
        u = u + noise * np.exp(-((r - 1.0) ** 2))
    return FieldState.from_u(mesh, u, np.zeros_like(r))


class TestCorrelateScale:
    def test_peak_at_true_scale(self, mesh):
        state = bubble_field(mesh, [(0.37, 1)])
        du = state.du_dr()
        at_true, _ = profiles.correlate_scale(mesh, du, 0.37)
        at_wrong, _ = profiles.correlate_scale(mesh, du, 1.5)
        assert at_true > 0.999
        assert at_true > abs(at_wrong)

    def test_coefficient_near_one(self, mesh):
        state = bubble_field(mesh, [(0.37, -1)])
        corr, coeff = profiles.correlate_scale(mesh, state.du_dr(), 0.37)
        assert corr < -0.999
        assert coeff == pytest.approx(-1.0, abs=2e-3)


# 1-, 2- and 3-bubble fields: (scale, sign) pairs and the extraction's lam_range
FIELDS = {
    1: ([(0.37, -1)], (1e-3, 100.0)),
    2: ([(1e-3, 1), (2.0, -1)], (1e-4, 100.0)),
    3: ([(1e-4, 1), (0.1, -1), (100.0, 1)], (1e-5, 1e3)),
}


def slotted_bubbles(min_size):
    """1-3 (slot, jitter, sign) bubbles in half-decade slots, each slot used
    once, so that no two bubbles cancel."""
    return st.lists(st.tuples(st.integers(-6, 3), st.floats(0.0, 0.4), st.sampled_from([-1, 1])),
                    min_size=min_size, max_size=3, unique_by=lambda b: b[0])


def slot_scales(bubbles):
    """The (scale, sign) pairs of slotted_bubbles."""
    return [(10.0 ** (k / 2.0 + jitter), iota) for k, jitter, iota in bubbles]


# the profiles benchmark's mesh: 48 nodes per decade from 1e-8 to 1e6
GRADED_48 = RadialMesh.graded(1e-8, 1e6, 48)


@dataclass(frozen=True)
class ExactGradientField(FieldState):
    """A sampled iota W_lam whose du_dr is the closed form, not a finite difference."""

    params: GroundStateParams = GroundStateParams()

    def du_dr(self):
        return eval_w_deriv(self.mesh.nodes, self.params)


def scale_grid(lam_range):
    """The greedy search's log-lam grid for lam_range (see extract and _best_scale)."""
    lo, hi = np.log(lam_range)
    reach = 3.0 / 28.0 * (hi - lo)
    lo, hi = lo - reach, hi + reach
    return np.linspace(lo, hi, int(np.ceil(profiles._GRID_PER_DECADE * (hi - lo) / np.log(10.0))) + 1)


def reference_log_jet(r, lam):
    """The earlier `_w_deriv_log_jet`: three arrays, q^{-5/2} by its own pow."""
    rho = r / lam
    s = rho**2 / 3.0
    q = 1.0 + s
    c = lam**-1.5 * rho * q**-2.5
    return lam**-1.5 * (-rho / 3.0) * q**-1.5, c * (5.0 - s) / 6.0, c * (s * (34.0 - s) - 25.0) / (12.0 * q)


def reference_refine_scale(grid, du, x, lo, hi, jet=None):
    """The earlier `_refine_scale`: nine array products a step, a full jet at
    every point the search reaches (a given start jet is not read), and no
    Newton finish. With the scale it returns the row d of its last point,
    and the point of its first Newton step of at most _SCALE_FINISH (the
    point the refine's finish steps from), or else its last point, with that
    point's jet."""
    a, adu = grid.a, grid.a * du
    start = None
    for n in range(1, profiles._SCALE_MAX_STEPS + 1):
        d, d1, d2 = jet = reference_log_jet(grid.r, np.exp(x))
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
        newton = lo <= x + step <= hi
        if not newton:
            step = 0.5 * (lo + hi) - x
        if abs(step) <= profiles._SCALE_XTOL or n == profiles._SCALE_MAX_STEPS:
            break
        if start is None and newton and abs(step) <= profiles._SCALE_FINISH:
            start = x, np.array(jet)
        x += step
    x_start, jet = start or (x, np.array(jet))
    return float(np.exp(x)), A / np.sqrt((adu @ du) * B), A / B, d, x_start, jet


class TestGridScores:
    """The one-product grid scores against correlate_scale at every grid point."""

    @staticmethod
    def check(mesh, du, grid):
        got = profiles._ScaleGrid(mesh, grid).scores(du)
        want = np.array([abs(profiles.correlate_scale(mesh, du, np.exp(x))[0]) for x in grid])
        assert np.all(np.abs(got - want) <= 1e-12 * want)
        assert np.argmax(got) == np.argmax(want)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_equal_to_correlate_scale(self, mesh, count):
        scales, lam_range = FIELDS[count]
        self.check(mesh, bubble_field(mesh, scales, noise=1e-3).du_dr(), scale_grid(lam_range))

    def test_row_blocks(self, monkeypatch):
        # 198002 nodes: a block holds 5 of the grid's 40 rows
        mesh = RadialMesh.graded(1e-6, 1e3, 22000)
        shapes = []

        def spy(r, lam):
            shapes.append(lam.shape)
            return w_deriv(r, lam)

        w_deriv = profiles._w_deriv
        monkeypatch.setattr(profiles, "_w_deriv", spy)
        scales, lam_range = FIELDS[3]
        grid = scale_grid(lam_range)
        self.check(mesh, bubble_field(mesh, scales).du_dr(), grid)
        # the blocks are formed for the row norms, then again for the scores
        assert len(shapes) > 2
        assert sum(s[0] for s in shapes) == 2 * grid.size
        assert all(s[0] * mesh.nodes.size <= profiles._BLOCK_ELEMENTS for s in shapes)

    def test_degenerate_input(self, mesh):
        with pytest.raises(DegenerateInputError):
            profiles._ScaleGrid(mesh, scale_grid((1e-3, 100.0))).scores(np.zeros_like(mesh.nodes))


class TestExtract:
    def test_single_bubble(self, mesh):
        state = bubble_field(mesh, [(0.37, -1)])
        d = profiles.extract(state, lam_range=(1e-3, 100.0))
        assert d.n_bubbles == 1
        b = d.bubbles[0]
        assert b.iota == -1
        assert b.lam == pytest.approx(0.37, rel=1e-3)
        assert d.residual_grad_sq < 1e-3 * d.total_grad_sq

    def test_two_bubbles_with_noise(self, mesh):
        want = [(1e-3, 1), (2.0, -1)]
        state = bubble_field(mesh, want, noise=1e-3)
        d = profiles.extract(state, lam_range=(1e-4, 100.0))
        got = sorted((b.lam, b.iota) for b in d.bubbles)
        assert len(got) == 2
        for (gl, gi), (wl, wi) in zip(got, want):
            assert gi == wi
            assert gl == pytest.approx(wl, rel=0.01)

    def test_noise_only_yields_no_bubble(self, mesh):
        r = mesh.nodes
        state = FieldState.from_u(mesh, 0.1 * np.exp(-((r - 1.0) ** 2) / 4.0), np.zeros_like(r))
        d = profiles.extract(state, lam_range=(1e-3, 100.0))
        assert d.n_bubbles == 0

    def test_newton_refine(self, monkeypatch):
        # 3 greedy searches, each refining from a grid point, and 2 back-fit
        # sweeps of 3, each refining from the point of its bubble's last jet,
        # within _SCALE_FINISH of its scale, and within a factor 3 of that
        # point; every search returns correlate_scale's values at
        # its scale. The greedy grid's matrix is formed once, kept for all
        # three greedy searches, and is the only _w_deriv block (a column of
        # scales) formed; a search's Newton finish forms at most one row, at
        # one scale. A new mesh object, so that no earlier extract's grid is
        # kept for this one
        mesh = RadialMesh.graded(1e-6, 1e3, 60)
        searches, rows, finishes = [], [], []
        refine, w_deriv = profiles._refine_scale, profiles._w_deriv

        def search(grid, du, x, lo, hi, *jet):
            found = refine(grid, du, x, lo, hi, *jet)
            searches.append((du, (x, lo, hi), found))
            return found

        def formed(r, lam):
            (rows if np.ndim(lam) else finishes).append(np.size(lam))
            return w_deriv(r, lam)

        monkeypatch.setattr(profiles, "_refine_scale", search)
        monkeypatch.setattr(profiles, "_w_deriv", formed)
        scales, lam_range = FIELDS[3]
        d = profiles.extract(bubble_field(mesh, scales, noise=1e-3), lam_range=lam_range)
        assert sorted((b.lam, b.iota) for b in d.bubbles) == [
            (pytest.approx(lam, rel=0.01), iota) for lam, iota in scales
        ]
        assert len(searches) == 9
        grid = scale_grid(lam_range)
        greedy, backfit = searches[:3], searches[3:]
        for _, (x, lo, hi), _ in greedy:
            assert np.any(np.abs(grid - x) <= 1e-12 * np.abs(grid).max())
        last = [found for _, _, found in greedy]
        for j, (_, (x, lo, hi), found) in enumerate(backfit):
            lam, *_, start, _ = last[j % 3]
            assert x == start and abs(x - np.log(lam)) <= profiles._SCALE_FINISH
            assert (lo, hi) == (x - np.log(3.0), x + np.log(3.0))
            last[j % 3] = found
        for du, _, (lam, corr, coeff, *_) in searches:
            want_corr, want_coeff = profiles.correlate_scale(mesh, du, lam)
            assert abs(corr - want_corr) <= 1e-12
            assert abs(coeff - want_coeff) <= 1e-12 * abs(want_coeff)
        assert rows == [grid.size]  # the greedy grid alone
        assert len(finishes) <= len(searches)

    def test_grid_built_once_per_mesh_and_range(self, monkeypatch):
        # one bubble, so no back-fit: the greedy grid is the only _w_deriv
        # block (a column of scales); the refine's Newton finish forms single
        # rows at one scale, which are not counted
        rows = []
        w_deriv = profiles._w_deriv

        def formed(r, lam):
            if np.ndim(lam):
                rows.append(lam.size)
            return w_deriv(r, lam)

        monkeypatch.setattr(profiles, "_w_deriv", formed)
        greedy, grids = profiles._greedy_grid, []
        monkeypatch.setattr(profiles, "_greedy_grid", lambda *args: grids.append(greedy(*args)) or grids[-1])
        greedy.cache_clear()
        scales, lam_range = FIELDS[1]
        wider = (lam_range[0] / 10.0, lam_range[1])
        n, n_wider = scale_grid(lam_range).size, scale_grid(wider).size
        mesh = RadialMesh.graded(1e-6, 1e3, 60)
        profiles.extract(bubble_field(mesh, scales), lam_range=lam_range)
        profiles.extract(bubble_field(mesh, scales, noise=1e-3), lam_range=lam_range)
        assert rows == [n]
        assert (greedy.cache_info().misses, greedy.cache_info().hits) == (1, 1)
        grid = grids[0]
        assert grids[1] is grid
        assert not any(v.flags.writeable for v in (grid.x, grid.a, grid.nw, grid._d))
        equal = RadialMesh(mesh.nodes)  # the same nodes in a new mesh object
        profiles.extract(bubble_field(equal, scales), lam_range=lam_range)
        assert rows == [n, n]
        profiles.extract(bubble_field(equal, scales), lam_range=wider)
        assert rows == [n, n, n_wider]
        # one grid is kept: going back to the first range builds it again
        profiles.extract(bubble_field(equal, scales), lam_range=lam_range)
        assert rows == [n, n, n_wider, n]
        assert (greedy.cache_info().misses, greedy.cache_info().hits) == (4, 1)

    @settings(max_examples=30, deadline=None)
    @given(bubbles=slotted_bubbles(1), noise=st.sampled_from([0.0, 1e-3]))
    def test_warm_grid_equals_cold(self, mesh, bubbles, noise):
        # cold: a new mesh object equal to the fixture's builds the grid;
        # warm: the next extract on that mesh and range reads it back
        scales = slot_scales(bubbles)
        fresh = RadialMesh(mesh.nodes)
        before = profiles._greedy_grid.cache_info()
        cold = profiles.extract(bubble_field(fresh, scales, noise), lam_range=(1e-4, 1e3))
        warm = profiles.extract(bubble_field(fresh, scales, noise), lam_range=(1e-4, 1e3))
        after = profiles._greedy_grid.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
        assert warm.bubbles == cold.bubbles
        assert warm.residual.h.tobytes() == cold.residual.h.tobytes()
        assert warm.residual.hdot.tobytes() == cold.residual.hdot.tobytes()
        assert (warm.total_grad_sq, warm.residual_grad_sq) == (cold.total_grad_sq, cold.residual_grad_sq)

    @settings(max_examples=30, deadline=None)
    @given(bubbles=slotted_bubbles(2), noise=st.sampled_from([0.0, 1e-3]))
    def test_backfit_lands_on_correlation_maximum(self, mesh, bubbles, noise):
        # each back-fit search's scale maximizes |correlation| against the
        # field minus the other bubbles as they stood at that search: neither
        # lam (1 -+ 1e-6) scores higher. The last sweep's scales are the
        # decomposition's
        searches, refine = [], profiles._refine_scale

        def search(grid, du, *bracket):
            searches.append((du, refine(grid, du, *bracket)))
            return searches[-1][1]

        with mock.patch.object(profiles, "_refine_scale", search):
            d = profiles.extract(bubble_field(mesh, slot_scales(bubbles), noise), lam_range=(1e-4, 1e3))
        assume(d.n_bubbles > 1)
        backfit = searches[-profiles._REFINE_SWEEPS * d.n_bubbles :]
        assert [found[0] for _, found in backfit[-d.n_bubbles :]] == [b.lam for b in d.bubbles]
        for du, (lam_j, *_) in backfit:
            peak = abs(profiles.correlate_scale(mesh, du, lam_j)[0])
            for lam in (lam_j * (1.0 - 1e-6), lam_j * (1.0 + 1e-6)):
                assert abs(profiles.correlate_scale(mesh, du, lam)[0]) <= peak

    @settings(max_examples=40, deadline=None)
    @given(exponent=st.floats(-4.0, 4.0), iota=st.sampled_from([-1, 1]))
    def test_scale_accuracy_independent_of_lam(self, exponent, iota):
        # a field whose gradient is grad W_lam itself correlates best at
        # exactly lam, so what is left is the search's own error
        lam = 10.0**exponent
        params = GroundStateParams(lam=lam, iota=iota)
        r = GRADED_48.nodes
        field = ExactGradientField(GRADED_48, 0.0, r * eval_w(r, params), np.zeros_like(r), params)
        d = profiles.extract(field, lam_range=(1e-5, 1e5))
        assert [b.iota for b in d.bubbles] == [iota]
        assert abs(d.bubbles[0].lam / lam - 1.0) <= 1e-9

    @pytest.mark.parametrize("lam", [1e-5, 0.37, 1.0, 1e5])
    def test_log_jet_equals_reference(self, lam):
        # one (3, n) array: d bit for bit, d_x and d_xx to rounding
        r = GRADED_48.nodes
        got, want = profiles._w_deriv_log_jet(r, lam), np.array(reference_log_jet(r, lam))
        assert got.shape == (3, r.size)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.all(np.abs(got[1:] - want[1:]) <= 1e-15 * np.abs(want[1:]).max(axis=1, keepdims=True))

    @settings(max_examples=100, deadline=None)
    @given(bubbles=st.lists(st.tuples(st.integers(-10, 8), st.floats(0.0, 0.4), st.sampled_from([-1, 1])),
                            min_size=1, max_size=3, unique_by=lambda b: b[0]),
           noise=st.sampled_from([0.0, 1e-3]))
    def test_refine_equals_reference(self, bubbles, noise):
        # the one-product refine with its Newton finish against the earlier
        # one, over 1-3 bubbles from 1e-5 to 10^4.4 on the benchmark's mesh
        field = bubble_field(GRADED_48, slot_scales(bubbles), noise)
        got = profiles.extract(field, lam_range=(1e-5, 1e5))
        with mock.patch.object(profiles, "_refine_scale", reference_refine_scale):
            want = profiles.extract(field, lam_range=(1e-5, 1e5))
        assert [b.iota for b in got.bubbles] == [b.iota for b in want.bubbles]
        for g, w in zip(got.bubbles, want.bubbles):
            assert abs(g.lam / w.lam - 1.0) <= 1e-13
            assert abs(g.correlation - w.correlation) <= 1e-12
            assert abs(g.coeff - w.coeff) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(bubbles=slotted_bubbles(1), noise=st.sampled_from([0.0, 1e-3]))
    def test_rows_and_norms_are_the_closed_forms(self, bubbles, noise):
        # each bubble's row is its refine's and its norm is carried, yet both
        # are the bytes that eval_w_deriv and w_grad_norm_sq give at its scale
        field = bubble_field(GRADED_48, slot_scales(bubbles), noise)
        d = profiles.extract(field, lam_range=(1e-5, 1e5))
        assert len(d.rows) == len(d.bubble_grad_sq) == d.n_bubbles
        du_res = field.du_dr()
        norms = []
        for b, row, norm in zip(d.bubbles, d.rows, d.bubble_grad_sq):
            want = eval_w_deriv(GRADED_48.nodes, GroundStateParams(lam=b.lam, iota=b.iota))
            assert row.tobytes() == want.tobytes()
            norms.append(profiles.w_grad_norm_sq(GRADED_48, b.lam))
            assert norm == norms[-1]
            du_res = du_res - want
        assert d.residual_grad_sq == profiles._grad_inner(GRADED_48, du_res, du_res)
        assert profiles.pythagorean_check(d).bubble_sum == float(sum(norms))

    def test_rows_formed_once(self, monkeypatch):
        # extract and pythagorean_check form no eval_w_deriv row; a greedy
        # search starts from the jet its grid point keeps, so a second extract
        # on the mesh forms one jet fewer per greedy search. New mesh objects,
        # so that no earlier extract's grid is kept for them
        derivs, jets, grids = [], [], []
        w_deriv, log_jet, best = profiles.eval_w_deriv, profiles._w_deriv_log_jet, profiles._best_scale
        monkeypatch.setattr(profiles, "eval_w_deriv", lambda *args: derivs.append(args) or w_deriv(*args))
        monkeypatch.setattr(profiles, "_w_deriv_log_jet", lambda *args: jets.append(args) or log_jet(*args))
        monkeypatch.setattr(profiles, "_best_scale", lambda grid, *args: grids.append(grid) or best(grid, *args))
        scales, lam_range = FIELDS[3]

        def counts(mesh):
            out = []
            field = bubble_field(mesh, scales, noise=1e-3)
            for _ in range(2):
                jets.clear()
                grids.clear()
                profiles.pythagorean_check(profiles.extract(field, lam_range=lam_range))
                out.append((len(jets), len(grids)))
            return out

        (cold, searches), (warm, again) = counts(RadialMesh.graded(1e-6, 1e3, 60))
        assert derivs == []
        assert searches == again == 3
        assert warm == cold - searches
        grid = grids[0]
        assert len(grid._jets) == searches
        assert not any(jet.flags.writeable for jet in grid._jets.values())
        # a grid whose D is formed in blocks keeps no jets
        mesh = RadialMesh.graded(1e-6, 1e3, 60)
        monkeypatch.setattr(profiles, "_BLOCK_ELEMENTS", 4 * mesh.nodes.size)
        (cold, _), (warm, _) = counts(mesh)
        assert warm == cold and grids[0]._jets is None

    def test_half_amplitude_rejected_by_coeff_window(self, mesh):
        r = mesh.nodes
        u = 0.5 * eval_w(r, GroundStateParams(lam=0.5))
        state = FieldState.from_u(mesh, u, np.zeros_like(r))
        d = profiles.extract(state, lam_range=(1e-3, 100.0))
        assert d.n_bubbles == 0


def decomposition_bytes(d):
    """Everything a decomposition holds, as bytes and reprs."""
    return (repr(d.bubbles), d.residual.h.tobytes(), d.residual.hdot.tobytes(),
            repr((d.total_grad_sq, d.residual_grad_sq, d.bubble_grad_sq)), [row.tobytes() for row in d.rows])


# the benchmark's graded mesh and a uniform one, each with an extraction range it resolves
UNIFORM = RadialMesh.uniform(0.005, 40.0)
MESHES = {"graded": (GRADED_48, (1e-5, 1e5)), "uniform": (UNIFORM, (0.05, 4.0))}


class TestSearchSavings:
    """The greedy searches skipped by the grid's bound, and the back-fit's start from each bubble's last jet."""

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(sorted(MESHES)), t=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    def test_bound_below_every_bracket(self, name, t):
        # B(x) = <a, (grad W_lam)^2> at lam = exp(x), anywhere in the bracket
        # [x_{i-1}, x_{i+1}] of every grid point i, is at least its bound
        mesh, lam_range = MESHES[name]
        grid = profiles._ScaleGrid(mesh, scale_grid(lam_range))
        i = np.arange(grid.x.size)
        lo, hi = grid.x[np.maximum(i - 1, 0)], grid.x[np.minimum(i + 1, i.size - 1)]
        b = profiles._w_deriv(grid.r, np.exp(lo + t * (hi - lo))[:, None]) ** 2 @ grid.a
        assert np.all(b >= grid.bound * (1.0 - 1e-12))
        assert np.all(grid.bound > 0) and not grid.bound.flags.writeable

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(sorted(MESHES)), bubbles=slotted_bubbles(1), noise=st.sampled_from([0.0, 1e-3]),
           amplitude=st.one_of(st.sampled_from([0.7, 0.72, 1.0, 1.3]), st.floats(0.5, 1.5)))
    def test_zero_bound_changes_no_byte(self, name, bubbles, noise, amplitude):
        # with every bound 0 no search is skipped, and every decomposition is
        # the same bytes: a skipped search is one whose coefficient the
        # window would have rejected. The field is scaled so that some
        # coefficients lie near the window's ends
        mesh, lam_range = MESHES[name]
        field = bubble_field(mesh, slot_scales(bubbles), noise)
        field = FieldState.from_u(mesh, amplitude * field.u(), field.ut())
        greedy = profiles._greedy_grid

        def unbounded(*args):
            grid = copy.copy(greedy(*args))
            grid.bound = np.zeros_like(grid.bound)
            return grid

        got = profiles.extract(field, lam_range=lam_range)
        with mock.patch.object(profiles, "_greedy_grid", unbounded):
            want = profiles.extract(field, lam_range=lam_range)
        assert decomposition_bytes(got) == decomposition_bytes(want)

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(sorted(MESHES)), position=st.floats(0.1, 0.9), iota=st.sampled_from([-1, 1]),
           noise=st.sampled_from([0.0, 1e-3]))
    def test_one_bubble_refines_one_search(self, name, position, iota, noise):
        # after the one bubble is subtracted, what is left is too small for
        # any coefficient in the window: its search is skipped, not refined
        mesh, lam_range = MESHES[name]
        lo, hi = np.log(lam_range)
        lam = float(np.exp(lo + position * (hi - lo)))
        searches, refine = [], profiles._refine_scale

        def search(*args):
            searches.append(args)
            return refine(*args)

        with mock.patch.object(profiles, "_refine_scale", search):
            d = profiles.extract(bubble_field(mesh, [(lam, iota)], noise), lam_range=lam_range)
        assert [b.iota for b in d.bubbles] == [iota]
        assert len(searches) == 1

    def test_backfit_starts_from_the_last_jet(self, monkeypatch):
        # each back-fit search starts at the point of its bubble's last jet,
        # within _SCALE_FINISH of the bubble's scale, and reads that jet: it
        # forms one jet fewer than the same search started from a jet formed
        # anew, and returns the same bytes. (The first sweep still moves these scales by up to
        # 0.26 in log lam, so its searches take further jets.)
        searches, jets = [], []
        refine, log_jet = profiles._refine_scale, profiles._w_deriv_log_jet

        def search(grid, du, x, lo, hi, jet):
            runs = []
            for kept in (True, False):
                before = len(jets)
                start_jet = jet if kept else profiles._w_deriv_log_jet(grid.r, np.exp(x))
                runs.append((refine(grid, du, x, lo, hi, start_jet), len(jets) - before))
            searches.append((x, jet, runs))
            return runs[0][0]

        monkeypatch.setattr(profiles, "_refine_scale", search)
        monkeypatch.setattr(profiles, "_w_deriv_log_jet", lambda *args: jets.append(args) or log_jet(*args))
        scales, lam_range = FIELDS[3]
        d = profiles.extract(bubble_field(RadialMesh.graded(1e-6, 1e3, 60), scales, noise=1e-3), lam_range=lam_range)
        assert d.n_bubbles == 3 and len(searches) == 3 + profiles._REFINE_SWEEPS * 3
        last = [runs[0][0] for _, _, runs in searches[:3]]
        for j, (x, jet, ((found, formed), (again, formed_again))) in enumerate(searches[3:]):
            lam, *_, start, start_jet = last[j % 3]
            assert x == start and jet is start_jet
            assert abs(x - np.log(lam)) <= profiles._SCALE_FINISH
            assert formed == formed_again - 1
            assert [np.asarray(v).tobytes() for v in found] == [np.asarray(v).tobytes() for v in again]
            last[j % 3] = found


class TestPythagorean:
    def test_clean_two_bubble_defect(self, mesh):
        state = bubble_field(mesh, [(1e-4, 1), (10.0, 1)])
        d = profiles.extract(state, lam_range=(1e-5, 100.0))
        rep = profiles.pythagorean_check(d)
        assert rep.relative_defect < 0.02
        assert rep.total_grad_sq == pytest.approx(d.total_grad_sq)


def gram_matrix(decomp):
    """Normalized gradient Gram matrix <grad W_i, grad W_j> / (|grad W_i| |grad W_j|) of the bubbles."""
    mesh = decomp.residual.mesh
    dws = [eval_w_deriv(mesh.nodes, GroundStateParams(lam=b.lam)) for b in decomp.bubbles]
    return np.array(
        [[profiles.correlate_scale(mesh, dw, b.lam)[0] for b in decomp.bubbles] for dw in dws]
    )


class TestOrthogonality:
    def test_off_diagonal_decreases_with_ratio(self, mesh):
        offdiags = []
        for ratio in (10.0, 100.0, 1000.0):
            state = bubble_field(mesh, [(0.01, 1), (0.01 * ratio, 1)])
            d = profiles.extract(state, lam_range=(1e-3, 100.0))
            if d.n_bubbles == 2:
                m = gram_matrix(d)
                offdiags.append(abs(m[0, 1]))
        assert len(offdiags) >= 2
        assert all(b < a for a, b in zip(offdiags, offdiags[1:]))

    def test_unit_diagonal(self, mesh):
        state = bubble_field(mesh, [(1e-3, 1), (2.0, -1)])
        d = profiles.extract(state, lam_range=(1e-4, 100.0))
        m = gram_matrix(d)
        assert d.n_bubbles == 2
        assert np.allclose(np.diag(m), 1.0)
        assert np.allclose(m, m.T)


class TestIO:
    def test_roundtrip(self, mesh, tmp_path):
        state = bubble_field(mesh, [(0.37, -1)])
        d = profiles.extract(state, lam_range=(1e-3, 100.0))
        path = tmp_path / "decomp.json"
        profiles.export_json(d, path)
        back = json.loads(path.read_text())
        assert len(back["bubbles"]) == 1
        assert float(back["bubbles"][0]["lam"]) == d.bubbles[0].lam
        assert float(back["total_grad_sq"]) == d.total_grad_sq
