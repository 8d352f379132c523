"""Diagnostics: splits, concentration radii, virial series, exponent fits."""

import csv
import dataclasses
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critwave import analysis, table
from critwave.errors import DegenerateInputError, InvalidParameterError
from critwave.ground_state import GroundStateParams, _region_run, energy, w_constants, w_field
from critwave.mesh import FieldState, RadialMesh, Region
from critwave.radial import FOUR_PI, gaussian_bump, smoothstep_bump, transition
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
        series = analysis.diagnostics_series(bump_run).data
        defects = virial_defects(series, bump_run.snapshots)
        assert np.max(defects["z1"][2:-2]) < 0.2
        assert np.allclose(series["Z"], 0.5 * series["z1"] + series["z2"])

    @settings(max_examples=12, deadline=None)
    @given(
        amp=st.floats(0.05, 0.6),
        sigma=st.floats(0.5, 1.5),
        center=st.floats(1.0, 4.0),
        h=st.sampled_from([0.04, 0.05, 0.08]),
        nonlinear=st.booleans(),
        frames=st.integers(3, 8),
    )
    def test_series_and_energy_give_the_list_virial_series(self, amp, sigma, center, h, nonlinear, frames):
        # the z columns of the row engine and each frame's energy() give
        # the moments, right-hand sides and defects of the list function
        # that formed them over kept snapshots, bit for bit
        cfg = solver.RunConfig(
            mesh_h=h, rmax=8.0, t_end=0.1 * (frames - 1), nonlinear=nonlinear, family="bump",
            params={"amp": amp, "sigma": sigma, "center": center}, output_every=0.1,
        )
        rep = solver.run(cfg)
        assert len(rep.snapshots) >= 3
        series = analysis.diagnostics_series(rep).data
        want = reference_virial_series(rep.snapshots)
        got = virial_defects(series, rep.snapshots)
        for c in ("z1", "z2", "Z"):
            assert series[c].tobytes() == want[c].tobytes(), c
            assert got[c].tobytes() == want[f"{c}_defect"].tobytes(), c


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
    def test_rho_tail_monotone_in_radius(self, bump_run):
        # rho(R): the sup over the run of the exterior energy
        # int_{|x| >= R} u^2/|x|^2 + u^6 + |grad u|^2 + u_t^2 (the A_R bound);
        # the Hardy integrand u^2/r^2 r^2 dr is u^2 dr
        def tail(s, R):
            region = Region.exterior(R)
            rep = energy(s, region)
            hardy_sq = FOUR_PI * s.mesh.integrate(s.u() ** 2, _region_run(s.mesh, region))
            return hardy_sq + rep.potential + rep.gradient_sq + rep.kinetic_sq

        r_small = max(tail(s, 2.0) for s in bump_run.snapshots)
        r_large = max(tail(s, 6.0) for s in bump_run.snapshots)
        assert r_large <= r_small + 1e-12


def v_fields(report, T_est, t0_index=0):
    """The regular part v at each snapshot's time from t0_index on, as
    `singular_part` passes it to its rows."""
    return analysis.singular_part(report, T_est, t0_index, row=lambda i, u, v: v)


class TestSingularPart:
    def test_exterior_agreement_at_restart(self, bump_run):
        u0 = bump_run.snapshots[0]
        v0 = v_fields(bump_run, T_est=3.0)[0]
        cone_radius, margin = 3.0, 2.0 * 0.02 + 2.0 * bump_run.config.cfl * 0.02
        mask = u0.mesh.nodes > cone_radius + margin
        assert np.max(np.abs(u0.h[mask] - v0.h[mask])) == 0.0

    def test_rejects_past_t_est(self, bump_run):
        for T_est in (-1.0, np.inf, np.nan):
            with pytest.raises(InvalidParameterError, match="T_est must be finite and exceed the restart time"):
                v_fields(bump_run, T_est=T_est)

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
        vs = v_fields(rep, T_est=2.5)
        u0 = rep.snapshots[0]
        r_cone, margin = 2.5, 2.0 * 0.02 + 2.0 * cfg.cfl * 0.02
        chi = transition(u0.mesh.nodes, r_cone, r_cone + margin)
        ref = solver.run(cfg, initial=FieldState(u0.mesh, 0.0, chi * u0.h, chi * u0.hdot))
        assert len(vs) == len(ref.snapshots) == len(rep.snapshots)
        for v, w in zip(vs, ref.snapshots):
            assert v.t == w.t
            assert v.h.tobytes() == w.h.tobytes() and v.hdot.tobytes() == w.hdot.tobytes()

    @pytest.mark.parametrize("t0_index", [0, 5])
    def test_frames_at_snapshot_times(self, bump_run, t0_index):
        vs = v_fields(bump_run, T_est=3.0, t0_index=t0_index)
        assert len(vs) == len(bump_run.snapshots) - t0_index
        for i, v in enumerate(vs):
            assert v.t == bump_run.snapshots[t0_index + i].t

    def test_restart_at_last_snapshot_makes_no_step(self, bump_run, monkeypatch):
        monkeypatch.setattr(solver, "step", lambda *a: pytest.fail("stepped"))
        last = len(bump_run.snapshots) - 1
        vs = v_fields(bump_run, T_est=3.0, t0_index=last)
        assert len(vs) == 1 and vs[0].t == bump_run.snapshots[last].t


class TestConeEnergy:
    def test_vanishes_after_t_est(self, bump_run):
        times, vals = analysis.cone_energy(bump_run.snapshots, T_est=0.5)
        assert np.all(vals[times >= 0.5] == 0.0)
        assert vals[0] > 0.0


def test_nan_region_bound_is_refused():
    # a NaN bound fails every comparison: a NaN ball read as the whole
    # mesh, a NaN exterior as no nodes, and so a NaN cone or leakage edge
    # gave the full-domain energy or no leakage at all
    cfg = solver.RunConfig(mesh_h=0.05, rmax=8.0, t_end=0.5, family="bump", params=BUMP, output_every=0.25)
    rep = solver.run(cfg)
    for call in (
        lambda: energy(rep.snapshots[0], Region.ball(np.nan)),
        lambda: energy(rep.snapshots[0], Region.exterior(np.nan)),
        lambda: analysis.cone_energy(rep.snapshots, T_est=np.nan),
        lambda: solver.finite_speed_check(cfg, gaussian_bump(0.01, 0.2, 1.0), rho=np.nan),
    ):
        with pytest.raises(InvalidParameterError, match="region bounds must not be NaN"):
            call()
    assert Region.full().r1 == np.inf


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

    def test_overflowing_field_has_no_sign_projection(self):
        # a gradient energy that overflows to inf past the origin reaches
        # every threshold at no radius that can be read off: mu, nu and
        # lambda1 are NaN, not 0, and f is NaN, not an error
        mesh = RadialMesh.uniform(0.5, 4.0)
        field = FieldState.from_u(mesh, -1e300 * np.exp(-mesh.nodes**2), np.zeros_like(mesh.nodes))
        with np.errstate(all="ignore"):
            radii = analysis.concentration_radii(field)
            row = analysis.row_function(mesh)(0, field)
        assert all(np.isnan([radii.mu, radii.nu, radii.lambda1]))
        assert all(np.isnan([row["mu"], row["nu"], row["lambda1"], row["f"]]))

    def test_stationary_w_d_column_near_zero(self):
        cfg = solver.RunConfig(
            mesh_h=0.02, rmax=12.0, t_end=0.5, family="perturbed_w",
            params={"lambda": 1.0, "eps": 0.0}, output_every=0.1,
        )
        rep = solver.run(cfg)
        series = analysis.diagnostics_series(rep)
        assert np.max(np.abs(series.data["d"])) < 1e-2


def virial_defects(series, snapshots):
    """|d/dt z - rhs| of the series' z1, z2 and Z columns, with each
    frame's right-hand sides kin - grad + pot (z1) and
    -3/2 kin + 1/2 (grad - pot) (z2) from its `energy`."""
    kin, grad, pot = (np.array(c) for c in zip(*(
        (e.kinetic_sq, e.gradient_sq, e.potential) for e in map(energy, snapshots))))
    z1_rhs = kin - grad + pot
    z2_rhs = -1.5 * kin + 0.5 * (grad - pot)
    rhs = {"z1": z1_rhs, "z2": z2_rhs, "Z": 0.5 * z1_rhs + z2_rhs}
    return {c: np.abs(np.gradient(series[c], series["t"], edge_order=2) - rhs[c]) for c in rhs}


def reference_virial_series(snapshots):
    """The list function `virial_series` that the series columns and
    `energy` replaced, kept as their reference: z1 = int u u_t,
    z2 = int x.grad u u_t, Z = z1/2 + z2 over kept snapshots, with the
    defect of their finite-difference time derivatives against the analytic
    right-hand sides, whose integrals are each snapshot's `energy`."""
    if len(snapshots) < 3:
        raise InvalidParameterError("need at least 3 snapshots")
    times = np.array([s.t for s in snapshots])
    rows = []
    for s in snapshots:
        r, u, ut = s.mesh.nodes, s.u(), s.ut()
        rep = energy(s)
        rows.append((FOUR_PI * s.mesh.integrate(r * r * u * ut), FOUR_PI * s.mesh.integrate(r * r * r * s.du_dr() * ut),
                     rep.kinetic_sq, rep.gradient_sq, rep.potential))
    z1, z2, kin, grad, pot = (np.array(col) for col in zip(*rows))
    Z = 0.5 * z1 + z2
    z1_rhs = kin - grad + pot
    z2_rhs = -1.5 * kin + 0.5 * (grad - pot)
    z1_fd = np.gradient(z1, times, edge_order=2)
    z2_fd = np.gradient(z2, times, edge_order=2)
    Z_fd = np.gradient(Z, times, edge_order=2)
    return {
        "times": times, "z1": z1, "z2": z2, "Z": Z, "z1_rhs": z1_rhs, "z2_rhs": z2_rhs,
        "z1_defect": np.abs(z1_fd - z1_rhs),
        "z2_defect": np.abs(z2_fd - z2_rhs),
        "Z_defect": np.abs(Z_fd - (0.5 * z1_rhs + z2_rhs)),
    }


def reference_diagnostics_series(report, ball_radii=(), g_radii=(), split=None):
    """The multi-pass `diagnostics_series` that the one-pass version
    replaced, kept as its reference: every diagnostic recomputes u, u_t and
    d_r u, and the virial columns come from `reference_virial_series`, or on
    a run too short for it (under 3 snapshots) from each frame's integrals.
    A split is (T_est, t0_index), as `diagnostics_series` takes it."""
    snaps = report.snapshots
    n = len(snaps)
    cols = ["t", "E", "sup_u", "mu", "nu", "lambda1", "f", "z1", "z2", "Z", "d"]
    data = {c: np.full(n, np.nan) for c in cols}
    data["t"] = report.times.copy()
    data["E"] = report.energies.copy()
    data["sup_u"] = np.array([s.sup_u() for s in snaps])
    t0 = n if split is None else split[1]
    regular = None if split is None else v_fields(report, *split)
    d_ref = energy(w_field(snaps[0].mesh)).gradient_sq if snaps else None
    for i, s in enumerate(snaps):
        a = s if i < t0 else s - regular[i - t0]
        radii = analysis.concentration_radii(s, a)
        data["mu"][i] = np.nan if radii.mu is None else radii.mu
        data["nu"][i] = np.nan if radii.nu is None else radii.nu
        data["lambda1"][i] = np.nan if radii.lambda1 is None else radii.lambda1
        if radii.lambda1 is not None:
            data["f"][i] = analysis.sign_projection(a, radii.lambda1)
        data["d"][i] = analysis.d_functional(s, grad_ref=d_ref)
    if n >= 3:
        vs = reference_virial_series(snaps)
        z1, z2 = vs["z1"], vs["z2"]
        if t0 == 0:  # v covers the run: subtract its moments
            vv = reference_virial_series(regular)
            z1, z2 = z1 - vv["z1"], z2 - vv["z2"]
        data["z1"], data["z2"], data["Z"] = z1, z2, 0.5 * z1 + z2
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
        report, times=report.times[:k], energies=report.energies[:k], snapshots=report.snapshots[:k],
    )


class TestOnePassSeries:
    @pytest.mark.parametrize("case", ["plain", "split_0", "split_5", "two_snapshots"])
    def test_bitwise_equal_to_multi_pass(self, bump_run, case, tmp_path):
        report, split = bump_run, None
        if case.startswith("split"):
            # from index 0, v covers the run and z1/z2 subtract its moments;
            # from index 5 only a is used
            split = (3.0, int(case[-1]))
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
        # a repeated radius (an int and its float) keeps one column; distinct
        # radii that format alike are refused, naming both; a radius that is
        # not finite and > 0 is refused, naming its flag
        balls, gs = analysis.radius_columns((1.0, 2, 2.0), (4.0, 4.0))
        assert balls == {"E_ball_1": 1.0, "E_ball_2": 2} and gs == {"g_4": 4.0}
        for bad in (np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, 0):
            with pytest.raises(InvalidParameterError, match=rf"^--ball-radius must be finite and > 0, got {bad!r}$"):
                analysis.radius_columns((1.0, bad), (4.0,))
            with pytest.raises(InvalidParameterError, match=rf"^--g-radius must be finite and > 0, got {bad!r}$"):
                analysis.radius_columns((1.0,), (bad, 4.0))
        with pytest.raises(InvalidParameterError, match=r"ball radii 2.0000001 and 2.0000002 both name the column "):
            analysis.radius_columns((2.0000001, 2.0000002))
        with pytest.raises(InvalidParameterError, match=r"g radii 4 and 4.000001 both name the column g_4$"):
            analysis.radius_columns((), (4, 4.000001))

    def test_one_gradient_per_snapshot(self, bump_run, monkeypatch):
        # FieldState.du_dr applies the mesh's d_r stencil; a frame keeps its result
        calls = []
        du_dr = FieldState.du_dr
        monkeypatch.setattr(FieldState, "du_dr", lambda self: calls.append(1) or du_dr(self))
        analysis.diagnostics_series(bump_run, ball_radii=(2.0,), g_radii=(4.0,))
        # d_r u once per snapshot, plus the W reference of the d column
        assert len(calls) == len(bump_run.snapshots) + 1
