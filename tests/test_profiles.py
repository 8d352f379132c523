"""Multi-bubble extraction, Pythagorean splitting, and orthogonality."""

import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
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
        # 3 greedy searches and 2 back-fit sweeps of 3, each returning
        # correlate_scale's values at its scale; the greedy grid's matrix is
        # formed once and kept for all three greedy searches. A new mesh
        # object, so that no earlier extract's grid is kept for this one
        mesh = RadialMesh.graded(1e-6, 1e3, 60)
        searches, rows = [], []
        best_scale, w_deriv = profiles._best_scale, profiles._w_deriv

        def search(grid, du):
            found = best_scale(grid, du)
            searches.append((du, found))
            return found

        def formed(r, lam):
            rows.append(lam.size)
            return w_deriv(r, lam)

        monkeypatch.setattr(profiles, "_best_scale", search)
        monkeypatch.setattr(profiles, "_w_deriv", formed)
        scales, lam_range = FIELDS[3]
        d = profiles.extract(bubble_field(mesh, scales, noise=1e-3), lam_range=lam_range)
        assert sorted((b.lam, b.iota) for b in d.bubbles) == [
            (pytest.approx(lam, rel=0.01), iota) for lam, iota in scales
        ]
        assert len(searches) == 9
        for du, (lam, corr, coeff) in searches:
            want_corr, want_coeff = profiles.correlate_scale(mesh, du, lam)
            assert abs(corr - want_corr) <= 1e-12
            assert abs(coeff - want_coeff) <= 1e-12 * abs(want_coeff)
        assert rows.count(scale_grid(lam_range).size) == 1
        assert len(rows) == 7  # the greedy grid and one per back-fit search

    def test_grid_built_once_per_mesh_and_range(self, monkeypatch):
        # one bubble, so no back-fit: the greedy grid is the only _w_deriv call
        rows = []
        w_deriv = profiles._w_deriv

        def formed(r, lam):
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
    @given(
        # half-decade slots, each used once, so that no two bubbles cancel
        bubbles=st.lists(st.tuples(st.integers(-6, 3), st.floats(0.0, 0.4), st.sampled_from([-1, 1])),
                         min_size=1, max_size=3, unique_by=lambda b: b[0]),
        noise=st.sampled_from([0.0, 1e-3]),
    )
    def test_warm_grid_equals_cold(self, mesh, bubbles, noise):
        # cold: a new mesh object equal to the fixture's builds the grid;
        # warm: the next extract on that mesh and range reads it back
        scales = [(10.0 ** (k / 2.0 + jitter), iota) for k, jitter, iota in bubbles]
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

    def test_half_amplitude_rejected_by_coeff_window(self, mesh):
        r = mesh.nodes
        u = 0.5 * eval_w(r, GroundStateParams(lam=0.5))
        state = FieldState.from_u(mesh, u, np.zeros_like(r))
        d = profiles.extract(state, lam_range=(1e-3, 100.0))
        assert d.n_bubbles == 0


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
