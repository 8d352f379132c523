"""Time-domain solver: configs, stepping, conservation, blow-up handling."""

import csv
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from critwave.errors import InvalidConfigError
from critwave.ground_state import energy
from critwave.mesh import FieldState, RadialMesh
from critwave.radial import gaussian_bump
from critwave import solver


BUMP = {"amp": 0.3, "sigma": 1.0, "center": 3.0}


def _reference_rhs(h, v, r, dr, nonlinear):
    dh = v.copy()
    dv = np.zeros_like(h)
    dv[1:-1] = (h[2:] - 2.0 * h[1:-1] + h[:-2]) / dr**2
    if nonlinear:
        u = h[1:-1] / r[1:-1]
        dv[1:-1] += r[1:-1] * u**5
    dh[0] = 0.0
    dv[0] = 0.0
    dv[-1] = -(3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dr)
    return dh, dv


def reference_step(state, dt, nonlinear=True):
    """The original allocating RK4 step, kept as the reference for `solver.step`."""
    r = state.mesh.nodes
    dr = state.mesh.spacing
    h, v = state.h, state.hdot
    k1h, k1v = _reference_rhs(h, v, r, dr, nonlinear)
    k2h, k2v = _reference_rhs(h + 0.5 * dt * k1h, v + 0.5 * dt * k1v, r, dr, nonlinear)
    k3h, k3v = _reference_rhs(h + 0.5 * dt * k2h, v + 0.5 * dt * k2v, r, dr, nonlinear)
    k4h, k4v = _reference_rhs(h + dt * k3h, v + dt * k3v, r, dr, nonlinear)
    h_new = h + dt / 6.0 * (k1h + 2 * k2h + 2 * k3h + k4h)
    v_new = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    h_new[0] = 0.0
    v_new[0] = 0.0
    return FieldState(state.mesh, state.t + dt, h_new, v_new)


def _rel_diff(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


class TestStep:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(8, 400),
        dr=st.floats(0.02, 0.5),
        cfl=st.floats(0.01, 0.5),
        nonlinear=st.booleans(),
        data=st.data(),
    )
    def test_matches_reference_rk4(self, n, dr, cfl, nonlinear, data):
        mesh = RadialMesh(dr * np.arange(n, dtype=float))
        values = arrays(np.float64, n, elements=st.floats(-1.0, 1.0))
        u, ut = data.draw(values), data.draw(values)
        state = FieldState.from_u(mesh, u, ut, t=data.draw(st.floats(0.0, 10.0)))
        h0, v0 = state.h.copy(), state.hdot.copy()
        got = solver.step(state, cfl * dr, nonlinear)
        want = reference_step(state, cfl * dr, nonlinear)
        assert got.t == want.t
        assert _rel_diff(got.h, want.h) <= 1e-13
        assert _rel_diff(got.hdot, want.hdot) <= 1e-13
        assert np.array_equal(state.h, h0) and np.array_equal(state.hdot, v0)


class TestConfig:
    def test_defaults_valid(self):
        cfg = solver.RunConfig()
        assert cfg.mesh().is_uniform

    def test_cfl_bound(self):
        with pytest.raises(InvalidConfigError):
            solver.RunConfig(cfl=0.6)
        with pytest.raises(InvalidConfigError):
            solver.RunConfig(cfl=0.0)

    def test_json_and_keyvalue_agree(self, tmp_path):
        j = tmp_path / "c.json"
        j.write_text(
            '{"mesh": {"h": 0.05, "rmax": 8.0}, "t_end": 1.5,'
            ' "data": {"family": "bump", "amp": 0.2}}'
        )
        k = tmp_path / "c.cfg"
        k.write_text("mesh.h = 0.05\nmesh.rmax = 8.0\nt_end = 1.5\ndata.family = bump\ndata.amp = 0.2\n")
        assert solver.load_config(j) == solver.load_config(k)

    def test_unknown_key(self):
        with pytest.raises(InvalidConfigError):
            solver.RunConfig.from_dict({"mesh": {"h": 0.1, "rmax": 5.0}, "wrong": 1})

    def test_unknown_family(self):
        cfg = solver.RunConfig(family="nope")
        with pytest.raises(InvalidConfigError):
            solver.make_initial_data(cfg.mesh(), cfg.family, cfg.params)


def reference_save_snapshot(state, path):
    """The csv.writer loop that `solver.save_snapshot` replaced, kept as the
    reference for its bytes."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "u", "ut"])
        for r, u, ut in zip(state.mesh.nodes, state.u(), state.ut()):
            w.writerow([repr(float(r)), repr(float(u)), repr(float(ut))])


# every float class: signed zeros, subnormals, 1e+-300, inf and nan
SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-300, -1e300,
           1.7976931348623157e308, np.inf, -np.inf, np.nan]
ANY_FLOAT = st.sampled_from(SPECIAL) | st.floats()


class TestSnapshots:
    @settings(max_examples=300, deadline=None)
    @given(
        r=st.lists(st.floats(0.0, 1e300, exclude_min=True), min_size=2, max_size=40, unique=True),
        data=st.data(),
    )
    def test_bytes_match_csv_writer(self, r, data):
        nodes = np.array([0.0, *sorted(r)])
        n = nodes.size
        h, hdot = (np.array([0.0, *data.draw(st.lists(ANY_FLOAT, min_size=n - 1, max_size=n - 1))])
                   for _ in range(2))
        state = FieldState(RadialMesh(nodes), 0.0, h, hdot)
        with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
            got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
            solver.save_snapshot(state, got)
            reference_save_snapshot(state, want)
            assert got.read_bytes() == want.read_bytes()

    def test_roundtrip(self, tmp_path):
        mesh = RadialMesh.uniform(0.1, 5.0)
        state = solver.make_initial_data(mesh, "bump", BUMP)
        path = tmp_path / "snap.csv"
        solver.save_snapshot(state, path)
        back = solver.load_snapshot(path)
        assert np.array_equal(back.h, state.h)
        assert np.array_equal(back.hdot, state.hdot)


class TestRun:
    def test_linear_energy_conserved(self):
        cfg = solver.RunConfig(
            mesh_h=0.02, rmax=10.0, t_end=1.0, nonlinear=False, family="bump", params=BUMP
        )
        rep = solver.run(cfg)
        assert rep.outcome == "Completed"
        assert rep.energy_drift < 1e-3

    def test_determinism(self):
        cfg = solver.RunConfig(mesh_h=0.05, rmax=8.0, t_end=0.5, family="bump", params=BUMP)
        a, b = solver.run(cfg), solver.run(cfg)
        assert np.array_equal(a.snapshots[-1].h, b.snapshots[-1].h)
        assert np.array_equal(a.energies, b.energies)

    def test_fine_linspace_mesh_is_uniform(self):
        # 13001 linspace nodes: spacings differ by ~ulp(rmax), above 1e-12 relative
        cfg = solver.RunConfig(mesh_h=0.002, rmax=26.0, t_end=0.005, family="bump", params=BUMP)
        assert cfg.mesh().is_uniform
        rep = solver.run(cfg)
        assert rep.outcome == "Completed"
        assert rep.times[-1] == pytest.approx(0.005, abs=1e-12)

    def test_outflow_absorbs_pulse(self):
        # an outgoing pulse should leave the domain with little reflection
        cfg = solver.RunConfig(
            mesh_h=0.01, rmax=6.0, t_end=12.0, nonlinear=False, family="bump",
            params={"amp": 0.5, "sigma": 0.5, "center": 3.0},
        )
        rep = solver.run(cfg)
        e0 = energy(rep.snapshots[0])
        e1 = energy(rep.snapshots[-1])
        start = 0.5 * (e0.gradient_sq + e0.kinetic_sq)
        end = 0.5 * (e1.gradient_sq + e1.kinetic_sq)
        assert end < 0.02 * start

    def test_blowup_detected(self):
        cfg = solver.RunConfig(
            mesh_h=0.02, rmax=6.0, t_end=5.0, family="near_w",
            params={"delta": 0.1, "lambda": 0.05, "r_cut": 2.0},
        )
        rep = solver.run(cfg)
        assert rep.outcome == "BlowUpDetected"
        assert rep.t_star is not None and 0.0 < rep.t_star < 5.0
        # the last stable state is retained for diagnostics
        assert rep.snapshots[-1].t == pytest.approx(rep.t_star)

    def test_rhs_overflow_before_blowup_warns_nothing(self):
        # the RK stages reach inf before sup|u| crosses the threshold; the
        # inf ends the run as a blow-up, at the t* the overflow warning hid
        cfg = solver.RunConfig.from_dict({
            "mesh": {"h": 0.005, "rmax": 12.0}, "t_end": 20.0, "output": {"every": 0.5},
            "data": {"family": "near_w", "lambda": 1.0, "delta": 0.05},
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solver.run(cfg)
        assert rep.outcome == "BlowUpDetected"
        assert rep.t_star == 2.027499999999968
        assert rep.snapshots[-1].t == rep.t_star

    def test_finite_speed_small_leakage(self):
        cfg = solver.RunConfig(
            mesh_h=0.02, rmax=10.0, t_end=1.5, nonlinear=True, family="bump", params=BUMP
        )
        pert = gaussian_bump(0.05, 0.3, 1.0)
        leak, ts, leaks = solver.finite_speed_check(cfg, pert, rho=2.5)
        assert leak < 1e-4
        assert len(ts) == len(leaks) > 0

    @pytest.mark.parametrize("t0", [0.0, 5.0])
    def test_contamination_compares_durations(self, t0):
        # the run lasts 1.0; the outgoing signal reaches rmax only after 1.32
        cfg = solver.RunConfig(
            mesh_h=0.03, rmax=6.0, t_end=1.0, family="bump",
            params={"amp": 0.1, "sigma": 0.5, "center": 2.0},
        )
        initial = solver.make_initial_data(cfg.mesh(), cfg.family, cfg.params).with_time(t0)
        rep = solver.run(cfg, initial=initial)
        assert rep.contamination_time > 1.3
        assert rep.outcome == "Completed"

    def test_last_step_lands_on_t_end(self, monkeypatch):
        # dt = 0.015 does not divide t_end = 1.0: 67 steps, the last one shortened
        calls = []
        step = solver.step
        monkeypatch.setattr(solver, "step", lambda s, dt, nl: calls.append(dt) or step(s, dt, nl))
        cfg = solver.RunConfig(mesh_h=0.03, rmax=6.0, t_end=1.0, family="bump", params=BUMP)
        initial = solver.make_initial_data(cfg.mesh(), cfg.family, cfg.params).with_time(5.0)
        rep = solver.run(cfg, initial=initial)
        assert len(calls) == 67
        assert 0.0 < calls[-1] < 0.015 and all(dt == 0.015 for dt in calls[:-1])
        assert rep.times[-1] == pytest.approx(6.0, abs=1e-12)
        assert rep.snapshots[-1].t == rep.times[-1]

    def test_times_on_rounded_sums(self, monkeypatch):
        # restarted at a frame of an 8000-step run, frames at later step times
        # of that run: the sums of dt carry rounding (the span is 800 dt to
        # within 1.2e-12), yet each frame lands on its time in 800 steps
        calls = []
        step = solver.step
        monkeypatch.setattr(solver, "step", lambda s, dt, nl: calls.append(dt) or step(s, dt, nl))
        cfg = solver.RunConfig(mesh_h=0.005, rmax=0.1)
        ts = [0.0]
        for _ in range(7200):
            ts.append(ts[-1] + 0.0025)
        zero = np.zeros(cfg.mesh().nodes.size)
        initial = FieldState(cfg.mesh(), ts[6400], zero, zero)
        want = ts[6500:7201:100]
        rep = solver.run(cfg, initial=initial, times=want)
        assert len(calls) == 800
        assert rep.times.tolist() == [ts[6400], *want]
        assert [s.t for s in rep.snapshots] == rep.times.tolist()

    def test_no_times_left_makes_no_step(self, monkeypatch):
        calls = []
        monkeypatch.setattr(solver, "step", lambda *a: calls.append(1))
        cfg = solver.RunConfig(mesh_h=0.03, rmax=6.0, family="bump", params=BUMP)
        rep = solver.run(cfg, times=[])
        assert calls == [] and rep.times.tolist() == [0.0] and rep.config is cfg
