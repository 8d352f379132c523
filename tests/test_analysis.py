"""Diagnostics: splits, concentration radii, virial series, exponent fits."""

import csv
import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from critwave import analysis, table
from critwave.errors import DegenerateInputError, InvalidParameterError
from critwave.ground_state import GroundStateParams, energy, eval_w, w_constants, w_field
from critwave.mesh import FieldState, RadialMesh, Region
from critwave.radial import FOUR_PI, smoothstep_bump, transition
from critwave import solver


BUMP = {"amp": 0.3, "sigma": 1.0, "center": 3.0}


@pytest.fixture(scope="module")
def bump_run():
    cfg = solver.RunConfig(
        mesh_h=0.02, rmax=10.0, t_end=1.0, family="bump", params=BUMP, output_every=0.05
    )
    return solver.run(cfg)


class TestConcentrationRadii:
    def test_scaling_covariance(self):
        # mu and lambda1 scale linearly with the concentration scale of W
        radii = {}
        for lam in (0.5, 0.25):
            mesh = RadialMesh.uniform(0.01, 100.0)
            state = w_field(mesh, GroundStateParams(lam=lam))
            radii[lam] = analysis.concentration_radii(state)
        assert radii[0.25].mu == pytest.approx(0.5 * radii[0.5].mu, rel=1e-3)
        # nu sees the truncated far tail of W, so covariance is O(lam/rmax)
        assert radii[0.25].nu == pytest.approx(0.5 * radii[0.5].nu, rel=2e-2)

    def test_unattainable_returns_none(self):
        mesh = RadialMesh.uniform(0.05, 10.0)
        tiny = FieldState.from_u(mesh, 1e-3 * np.exp(-mesh.nodes**2), np.zeros(mesh.nodes.size))
        radii = analysis.concentration_radii(tiny)
        assert radii.mu is None and radii.lambda1 is None

    def test_nu_trivial_when_below_half(self):
        mesh = RadialMesh.uniform(0.05, 10.0)
        tiny = FieldState.from_u(mesh, 1e-3 * np.exp(-mesh.nodes**2), np.zeros(mesh.nodes.size))
        assert analysis.concentration_radii(tiny).nu == 0.0


class TestSignProjection:
    def test_sign_tracks_iota(self):
        mesh = RadialMesh.uniform(0.005, 40.0)
        plus = w_field(mesh, GroundStateParams(lam=0.3, iota=1))
        minus = w_field(mesh, GroundStateParams(lam=0.3, iota=-1))
        assert analysis.sign_projection(plus, 0.3) > 0
        assert analysis.sign_projection(minus, 0.3) < 0

    def test_rejects_bad_scale(self):
        mesh = RadialMesh.uniform(0.05, 10.0)
        with pytest.raises(InvalidParameterError):
            analysis.sign_projection(w_field(mesh), 0.0)


class TestVirial:
    def test_rhs_vanishes_on_ground_state(self):
        # kinetic - gradient + potential = 0 for (W, 0), by the stationarity
        # identity; full-space quadrature values
        c = w_constants(3)
        assert abs(0.0 - c["grad_norm_sq"] + c["potential_w"]) < 1e-6

    def test_defect_small_on_smooth_run(self, bump_run):
        vs = analysis.virial_series(bump_run.snapshots)
        assert np.max(vs.z1_defect[2:-2]) < 0.2
        assert np.allclose(vs.Z, 0.5 * vs.z1 + vs.z2)

    def test_needs_three_snapshots(self, bump_run):
        with pytest.raises(InvalidParameterError):
            analysis.virial_series(bump_run.snapshots[:2])


class TestDFunctional:
    def test_zero_on_mesh_consistent_w(self):
        mesh = RadialMesh.uniform(0.02, 15.0)
        state = w_field(mesh)
        ref = energy(state).gradient_sq
        assert analysis.d_functional(state, grad_ref=ref) == pytest.approx(0.0, abs=1e-12)

    def test_default_reference_is_full_space(self):
        mesh = RadialMesh.uniform(0.02, 15.0)
        state = w_field(mesh)
        # truncation makes the mesh gradient fall below the full-space norm
        assert analysis.d_functional(state) < 0.0


class TestGRandTails:
    def test_g_r_series_shapes(self, bump_run):
        g = analysis.g_r_series(bump_run.snapshots, 4.0)
        n = len(bump_run.snapshots)
        assert g.g.shape == g.d.shape == g.defect.shape == (n,)

    def test_rho_tail_monotone_in_radius(self, bump_run):
        # rho(R): the sup over the run of the exterior energy
        r_small = max(analysis.tail_energy(s, 2.0) for s in bump_run.snapshots)
        r_large = max(analysis.tail_energy(s, 6.0) for s in bump_run.snapshots)
        assert r_large <= r_small + 1e-12


class TestSingularPart:
    def test_exterior_agreement_at_restart(self, bump_run):
        split = analysis.singular_part(bump_run, T_est=3.0)
        u0 = bump_run.snapshots[0]
        v0 = split.v_fields[0]
        mask = u0.mesh.nodes > split.cone_radius + split.margin
        assert np.max(np.abs(u0.h[mask] - v0.h[mask])) == 0.0

    def test_rejects_past_t_est(self, bump_run):
        for T_est in (-1.0, np.inf, np.nan):
            with pytest.raises(InvalidParameterError, match="T_est must be finite and exceed the restart time"):
                analysis.singular_part(bump_run, T_est=T_est)

    @pytest.mark.parametrize("changes", [{"nonlinear": False, "params": {**BUMP, "amp": 0.8}}, {"cfl": 0.25}])
    def test_v_evolves_under_the_runs_config(self, changes):
        # v0 cut off with the margin of the run's own dt, then stepped by the
        # run's own equation and time step: an ordinary run of v0 gives the
        # same bits at the same frame times
        cfg = solver.RunConfig(**{
            "mesh_h": 0.02, "rmax": 10.0, "t_end": 1.0, "family": "bump", "params": BUMP, "output_every": 0.1,
            **changes,
        })
        rep = solver.run(cfg)
        split = analysis.singular_part(rep, T_est=2.5)
        u0 = rep.snapshots[0]
        r_cone, margin = 2.5, 2.0 * 0.02 + 2.0 * cfg.cfl * 0.02
        chi = transition(u0.mesh.nodes, r_cone, r_cone + margin)
        ref = solver.run(cfg, initial=FieldState(u0.mesh, 0.0, chi * u0.h, chi * u0.hdot))
        assert split.margin == margin
        assert len(split.v_fields) == len(ref.snapshots) == len(rep.snapshots)
        for v, w in zip(split.v_fields, ref.snapshots):
            assert v.t == w.t
            assert v.h.tobytes() == w.h.tobytes() and v.hdot.tobytes() == w.hdot.tobytes()

    @pytest.mark.parametrize("t0_index", [0, 5])
    def test_frames_at_snapshot_times(self, bump_run, t0_index):
        split = analysis.singular_part(bump_run, T_est=3.0, t0_index=t0_index)
        assert len(split.v_fields) == len(bump_run.snapshots) - t0_index
        for i, v in enumerate(split.v_fields):
            assert v.t == bump_run.snapshots[t0_index + i].t

    def test_restart_at_last_snapshot_makes_no_step(self, bump_run, monkeypatch):
        monkeypatch.setattr(solver, "step", lambda *a: pytest.fail("stepped"))
        last = len(bump_run.snapshots) - 1
        split = analysis.singular_part(bump_run, T_est=3.0, t0_index=last)
        assert len(split.v_fields) == 1 and split.v_fields[0].t == bump_run.snapshots[last].t


class TestConeEnergy:
    def test_vanishes_after_t_est(self, bump_run):
        times, vals = analysis.cone_energy(bump_run.snapshots, T_est=0.5)
        assert np.all(vals[times >= 0.5] == 0.0)
        assert vals[0] > 0.0


class TestFitExponent:
    def test_exact_power_law(self):
        T = 2.0
        ts = np.linspace(0.0, 1.9, 60)
        for nu in (0.0, 0.6, 2.3):
            lam = 0.7 * (T - ts) ** (1.0 + nu)
            fit = analysis.fit_exponent(ts, lam, T)
            assert fit.nu_hat == pytest.approx(nu, abs=1e-6)
            assert fit.r_squared > 1.0 - 1e-12

    def test_constant_series_not_concentrating(self):
        ts = np.linspace(0.0, 1.0, 30)
        fit = analysis.fit_exponent(ts, np.full(30, 0.4), 2.0)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.nu_hat == pytest.approx(-1.0)
        assert not fit.concentrating

    def test_too_few_points(self):
        with pytest.raises(DegenerateInputError):
            analysis.fit_exponent(np.arange(5.0), np.ones(5), 10.0)

    @pytest.mark.parametrize("T", [np.inf, -np.inf, np.nan])
    def test_non_finite_t_est(self, T):
        with pytest.raises(InvalidParameterError, match="T_est must be finite"):
            analysis.fit_exponent(np.linspace(0.0, 1.0, 30), np.full(30, 0.4), T)

    def test_nan_points_dropped(self):
        T = 1.0
        ts = np.linspace(0.0, 0.9, 40)
        lam = (T - ts) ** 2
        lam[::3] = np.nan
        fit = analysis.fit_exponent(ts, lam, T)
        assert fit.nu_hat == pytest.approx(1.0, abs=1e-9)


class TestSeries:
    def test_columns_and_csv(self, bump_run, tmp_path):
        series = analysis.diagnostics_series(bump_run, ball_radii=(2.0,), g_radii=(4.0,))
        assert series.columns[:11] == ["t", "E", "sup_u", "mu", "nu", "lambda1", "f", "z1", "z2", "Z", "d"]
        assert "E_ball_2" in series.columns and "g_4" in series.columns
        out = tmp_path / "series.csv"
        series.to_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == ",".join(series.columns)

    def test_csv_text_held_one_chunk_at_a_time(self, tmp_path):
        # the text of a 4000-row series is made and written a chunk of rows
        # at a time, so writing it takes no more memory than writing one
        # chunk's rows; the bytes are those csv.writer writes for the rows
        rng = np.random.default_rng(0)
        columns = ["t", "E", "sup_u", "mu", "nu", "lambda1", "f", "z1", "z2", "Z", "d"]
        out = tmp_path / "series.csv"

        def peak(rows: int) -> int:
            series = analysis.DiagnosticsSeries(columns, {c: rng.standard_normal(rows) for c in columns})
            tracemalloc.start()
            try:
                series.to_csv(out)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_chunk = peak(table._CHUNK_ROWS)
        series = analysis.DiagnosticsSeries(columns, {c: rng.standard_normal(4000) for c in columns})
        text = io.StringIO(newline="")
        rows = zip(*(series.data[c].tolist() for c in columns))
        csv.writer(text).writerows([columns, *(map(repr, row) for row in rows)])
        assert peak(4000) < 1.1 * one_chunk
        series.to_csv(out)
        assert out.read_bytes() == text.getvalue().encode()

    def test_stationary_w_d_column_near_zero(self):
        cfg = solver.RunConfig(
            mesh_h=0.02, rmax=12.0, t_end=0.5, family="perturbed_w",
            params={"lambda": 1.0, "eps": 0.0}, output_every=0.1,
        )
        rep = solver.run(cfg)
        series = analysis.diagnostics_series(rep)
        assert np.max(np.abs(series.data["d"])) < 1e-2


def reference_diagnostics_series(report, ball_radii=(), g_radii=(), split=None):
    """The multi-pass `diagnostics_series` that the one-pass version
    replaced, kept as its reference: every diagnostic recomputes u, u_t and
    d_r u, and the virial columns come from `virial_series`, or on a run
    too short for it (under 3 snapshots) from each frame's integrals."""
    snaps = report.snapshots
    n = len(snaps)
    cols = ["t", "E", "sup_u", "mu", "nu", "lambda1", "f", "z1", "z2", "Z", "d"]
    data = {c: np.full(n, np.nan) for c in cols}
    data["t"] = report.times.copy()
    data["E"] = report.energies.copy()
    data["sup_u"] = report.sup_history.copy()
    t0 = n if split is None else split.t0_index
    d_ref = energy(w_field(snaps[0].mesh)).gradient_sq if snaps else None
    for i, s in enumerate(snaps):
        a = s if i < t0 else s - split.v_fields[i - t0]
        radii = analysis.concentration_radii(s, a)
        data["mu"][i] = np.nan if radii.mu is None else radii.mu
        data["nu"][i] = np.nan if radii.nu is None else radii.nu
        data["lambda1"][i] = np.nan if radii.lambda1 is None else radii.lambda1
        if radii.lambda1 is not None:
            data["f"][i] = analysis.sign_projection(a, radii.lambda1)
        data["d"][i] = analysis.d_functional(s, grad_ref=d_ref)
    if n >= 3:
        v_snaps = split.v_fields if t0 == 0 else None
        vs = analysis.virial_series(snaps, v_snaps)
        data["z1"], data["z2"], data["Z"] = vs.z1, vs.z2, vs.Z
    else:  # the short case is never split
        for i, s in enumerate(snaps):
            r = s.mesh.nodes
            data["z1"][i] = FOUR_PI * s.mesh.integrate(r * r * s.u() * s.ut())
            data["z2"][i] = FOUR_PI * s.mesh.integrate(r * r * r * s.du_dr() * s.ut())
        data["Z"] = 0.5 * data["z1"] + data["z2"]
    for rho in ball_radii:
        col = f"E_ball_{rho:g}"
        cols.append(col)
        vals = []
        for s in snaps:
            rep = energy(s, Region.ball(min(rho, s.mesh.rmax)))
            vals.append(rep.gradient_sq + rep.kinetic_sq)
        data[col] = np.array(vals)
    for R in g_radii:
        col = f"g_{R:g}"
        cols.append(col)
        g = []
        for s in snaps:
            r = s.mesh.nodes
            g.append(2.0 * FOUR_PI * s.mesh.integrate(r * r * s.u() * s.ut() * smoothstep_bump(r / R)))
        data[col] = np.array(g)
    return cols, data


def reference_to_csv(series, path):
    """The csv.writer loop `DiagnosticsSeries.to_csv` replaced."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(series.columns)
        for i in range(len(series.data[series.columns[0]])):
            w.writerow([repr(float(series.data[c][i])) for c in series.columns])


def _first(report, k):
    return dataclasses.replace(
        report, times=report.times[:k], energies=report.energies[:k],
        sup_history=report.sup_history[:k], snapshots=report.snapshots[:k],
    )


class TestOnePassSeries:
    @pytest.mark.parametrize("case", ["plain", "split_0", "split_5", "two_snapshots"])
    def test_bitwise_equal_to_multi_pass(self, bump_run, case, tmp_path):
        report, split = bump_run, None
        if case.startswith("split"):
            # from index 0, v covers the run and z1/z2 subtract its moments;
            # from index 5 only a is used
            split = analysis.singular_part(bump_run, T_est=3.0, t0_index=int(case[-1]))
        if case == "two_snapshots":
            report = _first(bump_run, 2)
        radii = dict(ball_radii=(1.0, 2.5, 50.0), g_radii=(4.0, 2.0))
        got = analysis.diagnostics_series(report, split=split, **radii)
        cols, want = reference_diagnostics_series(report, split=split, **radii)
        assert got.columns == cols
        for c in cols:
            assert got.data[c].dtype == want[c].dtype and got.data[c].tobytes() == want[c].tobytes(), c
        if case == "two_snapshots":  # each frame's own integrals, as on a longer run
            assert all(np.isfinite(got.data[c]).all() for c in ("z1", "z2", "Z", "g_4", "g_2"))
        a, b = tmp_path / "got.csv", tmp_path / "want.csv"
        got.to_csv(a)
        reference_to_csv(got, b)
        assert a.read_bytes() == b.read_bytes()

    def test_radius_columns(self):
        # a repeated radius (an int and its float, NaN included) keeps one
        # column; distinct radii that format alike are refused, naming both
        balls, gs = analysis.radius_columns((1.0, 2, 2.0), (np.nan, np.nan))
        assert balls == {"E_ball_1": 1.0, "E_ball_2": 2} and list(gs) == ["g_nan"]
        with pytest.raises(InvalidParameterError, match=r"ball radii 2.0000001 and 2.0000002 both name the column "):
            analysis.radius_columns((2.0000001, 2.0000002))
        with pytest.raises(InvalidParameterError, match=r"g radii 4 and 4.000001 both name the column g_4$"):
            analysis.radius_columns((), (4, 4.000001))

    def test_one_gradient_per_snapshot(self, bump_run, monkeypatch):
        calls = []
        gradient = np.gradient
        monkeypatch.setattr(np, "gradient", lambda *a, **k: calls.append(1) or gradient(*a, **k))
        analysis.diagnostics_series(bump_run, ball_radii=(2.0,), g_radii=(4.0,))
        # d_r u once per snapshot, plus the W reference of the d column
        assert len(calls) == len(bump_run.snapshots) + 1
