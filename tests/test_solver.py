"""Time-domain solver: configs, stepping, conservation, blow-up handling."""

import csv
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from critwave.errors import InvalidConfigError
from critwave.ground_state import energy
from critwave.mesh import FieldState, RadialMesh
from critwave.radial import gaussian_bump
from critwave import solver, table
from critwave.table import read_columns


BUMP = {"amp": 0.3, "sigma": 1.0, "center": 3.0}


def reference_step(state, dt, nonlinear=True):
    """A textbook allocating drift-kick-drift Verlet step, the reference for
    `solver.step`, with the outer row d_t v = -d_r v advanced by
    Crank-Nicolson on the one-sided second-order stencil."""
    r = state.mesh.nodes
    dr = state.mesh.spacing
    h, v = state.h, state.hdot
    h_half = h + 0.5 * dt * v
    force = np.zeros_like(h)
    force[1:-1] = (h_half[2:] - 2.0 * h_half[1:-1] + h_half[:-2]) / dr**2
    if nonlinear:
        force[1:-1] += r[1:-1] * (h_half[1:-1] / r[1:-1]) ** 5
    v_new = v + dt * force
    v_new[0] = 0.0

    def d_r(w):
        return (3.0 * w[-1] - 4.0 * w[-2] + w[-3]) / (2.0 * dr)

    # v'_N - v_N = -dt/2 (d_r v + d_r v'), where d_r v' is 3 v'_N / (2 dr)
    # plus its terms in the interior's v', solved for v'_N
    rest = (-4.0 * v_new[-2] + v_new[-3]) / (2.0 * dr)
    v_new[-1] = (v[-1] - 0.5 * dt * (d_r(v) + rest)) / (1.0 + 0.75 * dt / dr)
    h_new = h_half + 0.5 * dt * v_new
    h_new[0] = 0.0
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
    def test_matches_reference_verlet(self, n, dr, cfl, nonlinear, data):
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

    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_second_order_in_time(self, nonlinear):
        # one mesh, so the spatial error is common to every run: the final
        # fields at cfl 0.4, 0.2 and 0.1 against cfl 0.025 shrink as dt^2
        def final(cfl):
            cfg = solver.RunConfig(mesh_h=0.02, rmax=10.0, cfl=cfl, t_end=1.0, nonlinear=nonlinear,
                                   family="bump", params=BUMP)
            last = solver.run(cfg).snapshots[-1]
            return np.concatenate((last.h, last.hdot))

        ref = final(0.025)
        errs = [np.max(np.abs(final(cfl) - ref)) for cfl in (0.4, 0.2, 0.1)]
        orders = np.log2(np.divide(errs[:-1], errs[1:]))
        assert np.all(orders >= 1.9), orders


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

    def test_node_count_bound(self):
        # round(rmax / h) + 1 nodes: 10**7 is the most a config may ask for
        solver.RunConfig(mesh_h=1.0, rmax=float(10**7 - 1))
        for h, rmax in ((1.0, float(10**7)), (1e-300, 1.0), (5e-324, 1e308)):
            with pytest.raises(InvalidConfigError, match="mesh.rmax / mesh.h gives more than 10000000 nodes"):
                solver.RunConfig(mesh_h=h, rmax=rmax)

    def test_unknown_family(self):
        cfg = solver.RunConfig(family="nope")
        with pytest.raises(InvalidConfigError):
            solver.make_initial_data(cfg.mesh(), cfg.family, cfg.params)

    @pytest.mark.parametrize("family, params, key", [
        ("csv", {}, "data.path"),
        ("bump", {**BUMP, "amp": "big"}, "data.amp"),
        ("near_w", {"r_cut": [1.0]}, "data.r_cut"),
        ("perturbed_w", {"eps": "small"}, "data.eps"),
        # a key that the family does not read, though another family does
        ("near_w", {"amp": 0.3}, "data.amp is not read"),
    ])
    def test_bad_data_param_names_its_key(self, family, params, key):
        mesh = RadialMesh.uniform(0.1, 5.0)
        with pytest.raises(InvalidConfigError, match=key):
            solver.make_initial_data(mesh, family, params)


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


# JSON values of every type: null, bools, ints too large for a float,
# every float class (NaN and +-inf included), strings, lists and objects
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | ANY_FLOAT
    | st.text(max_size=4) | st.sampled_from(["0.3", "nan", "inf"]),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)
DATA_NUMBER = st.floats(-10.0, 10.0) | st.sampled_from([0.0, 0.5, 1.0, 3.0])
# a value of its own kind for each config key
CONFIG_VALUES = {
    "mesh.h": st.sampled_from([0.25, 0.5]),
    "mesh.rmax": st.sampled_from([4.0, 8.0]),
    "cfl": st.sampled_from([0.25, 0.5]),
    "t_end": st.sampled_from([0.25, 0.5]),
    "nonlinear": st.booleans(),
    "blowup_threshold": st.sampled_from([10.0, 1e6]),
    "output.every": st.sampled_from([0.25, 0.5]),
    "seed": st.integers(0, 99),
    "data.family": st.sampled_from(list(solver.FAMILIES)),
}
DATA_NUMBER_KEYS = sorted({f"data.{k}" for keys in solver.FAMILIES.values() for k in keys} - {"data.path"})
# keys that may draw any JSON value instead
ANY_VALUE_KEYS = sorted([*CONFIG_VALUES, *DATA_NUMBER_KEYS, "data.path", "data.unread", "unknown"])


@st.composite
def configs(draw):
    """A flat config of values of their own kind, data.* numbers only among
    the keys its family reads, with up to three keys set to any JSON value
    (a data key that its family or every family does not read and a key
    that is not a config key among them)."""
    flat = draw(st.fixed_dictionaries({}, optional=CONFIG_VALUES))
    reads = [f"data.{k}" for k in solver.FAMILIES[flat.get("data.family", "bump")]]
    flat.update(draw(st.fixed_dictionaries({}, optional={k: DATA_NUMBER for k in reads if k != "data.path"})))
    for key in draw(st.lists(st.sampled_from(ANY_VALUE_KEYS), max_size=3, unique=True)):
        value = JSON_VALUE
        if key == "data.path":  # a string path names a file to read, not a value to check
            value = value.filter(lambda v: not isinstance(v, str))
        flat[key] = draw(value)
    return flat


TINY_MESH = RadialMesh.uniform(0.5, 4.0)


def build_initial_data(flat: dict, directory) -> FieldState:
    """Write `flat` as a JSON config under `directory`, read it back and
    build its RunConfig and initial data on TINY_MESH."""
    path = Path(directory, "config.json")
    path.write_text(json.dumps(flat))
    cfg = solver.RunConfig.from_dict(solver.read_config(path))
    return solver.make_initial_data(TINY_MESH, cfg.family, cfg.params)


class TestConfigSurface:
    @settings(max_examples=300, deadline=None)
    @given(flat=configs())
    # u finite but h = r u not: the largest float times a bump past r = 1
    @example(flat={"data.center": 1.0, "data.amp": 1.7976931348623157e308})
    def test_builds_or_names_a_key(self, flat):
        with tempfile.TemporaryDirectory() as tmp:
            try:
                state = build_initial_data(flat, tmp)
            except InvalidConfigError as exc:
                read = solver.read_config(Path(tmp, "config.json"))
                assert any(key in str(exc) for key in read), str(exc)
            else:
                assert np.all(np.isfinite(state.h)) and np.all(np.isfinite(state.hdot))


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

    def test_bytes_match_csv_writer_over_chunks(self, tmp_path):
        # more rows than one chunk of text, the r column's cached text included
        mesh = RadialMesh.uniform(1e-3, 6.0)
        assert mesh.nodes.size > 2 * table._CHUNK_ROWS
        state = solver.make_initial_data(mesh, "bump", BUMP)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        solver.save_snapshot(state, got)
        reference_save_snapshot(state, want)
        assert got.read_bytes() == want.read_bytes()

    def test_csv_family_resamples_onto_the_run_mesh(self, tmp_path):
        # a bump run's last snapshot restarts on a finer and a longer mesh:
        # u and u_t interpolated linearly, zero past the snapshot's rmax
        base = solver.run(solver.RunConfig(mesh_h=0.04, rmax=8.0, t_end=0.5, output_every=0.25,
                                           family="bump", params=BUMP))
        path = tmp_path / "snap.csv"
        solver.save_snapshot(base.snapshots[-1], path)
        r, u, ut = read_columns(path, ("r", "u", "ut"))
        cfg = solver.RunConfig(mesh_h=0.03, rmax=10.0, t_end=0.5, output_every=0.25,
                               family="csv", params={"path": str(path)})
        nodes = cfg.mesh().nodes
        state = solver.make_initial_data(cfg.mesh(), cfg.family, cfg.params)
        assert state.h.tobytes() == (nodes * np.interp(nodes, r, u, right=0.0)).tobytes()
        assert state.hdot.tobytes() == (nodes * np.interp(nodes, r, ut, right=0.0)).tobytes()
        assert np.all(state.h[nodes > 8.0] == 0.0)
        rep = solver.run(cfg)
        assert rep.outcome == "Completed" and rep.times[-1] == pytest.approx(0.5, abs=1e-12)

    def test_roundtrip(self, tmp_path):
        mesh = RadialMesh.uniform(0.1, 5.0)
        state = solver.make_initial_data(mesh, "bump", BUMP)
        path = tmp_path / "snap.csv"
        solver.save_snapshot(state, path)
        back = solver.load_snapshot(path)
        assert np.array_equal(back.h, state.h)
        assert np.array_equal(back.hdot, state.hdot)


def scan_verdicts(h, r1, threshold):
    """(max|h| within `solver.run`'s bound, the divide scan's verdict) on h
    over the nodes r = r1 * (0, 1, 2, ...): the divide scan passes where
    sup|h/r| over r > 0 is finite and at most threshold, a NaN making both
    max and min NaN."""
    r = r1 * np.arange(h.size)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        u = h[1:] / r[1:]
        amp = max(u.max(), -u.min())
        within = bool(np.abs(h).max() <= solver._safe_bound(threshold, r1))
    return within, bool(np.isfinite(amp) and amp <= threshold)


THRESHOLDS = st.floats(5e-324, 1.79e308)
FIRST_NODES = st.floats(1e-8, 10.0)


@st.composite
def near_bound_fields(draw, threshold, r1):
    """h(0) = 0 and then, at each node r_i = i r1, a value within a few ulps
    of +-threshold r_i or of +-threshold r_i (1 - 1e-12), +-inf, NaN, a
    subnormal or any float."""
    n = draw(st.integers(2, 12))
    h = np.zeros(n)
    for i in range(1, n):
        with np.errstate(over="ignore", under="ignore"):
            edge = threshold * (r1 * i) * draw(st.sampled_from([1.0, 1.0 - 1e-12]))
            near = edge * (1.0 + draw(st.integers(-4, 4)) * 2.0**-52)
        h[i] = draw(st.sampled_from([1.0, -1.0])) * draw(
            st.just(near) | st.sampled_from([np.inf, np.nan, 5e-324, 2.2e-310, 0.0]) | st.floats())
    return h


class TestBlowUpScan:
    @settings(max_examples=500, deadline=None)
    @given(threshold=THRESHOLDS, r1=FIRST_NODES, data=st.data())
    def test_bound_implies_the_divide_scan(self, threshold, r1, data):
        # a step within the bound is one the divide scan passes, and every
        # other step takes that scan, so run decides as the scan does
        h = data.draw(near_bound_fields(threshold, r1))
        within, scan = scan_verdicts(h, r1, threshold)
        assert (within or scan) == scan
        if not np.all(np.isfinite(h)):
            assert not within

    @pytest.mark.parametrize("threshold, r1, tail, bound, within, scan", [
        # threshold r1 below the smallest normal double: the bound is 0
        (1e-320, 1.0, [5e-324], 0.0, False, True),
        (1e-320, 1.0, [0.0, -0.0], 0.0, True, True),
        (1e-320, 1.0, [1e-319], 0.0, False, False),
        (5e-324, 10.0, [np.inf], 0.0, False, False),
        # threshold r1 overflows: the bound is the largest finite double
        (1.79e308, 10.0, [1.7e308, -1.7e308], sys.float_info.max, True, True),
        (1.79e308, 10.0, [np.inf], sys.float_info.max, False, False),
        (1.79e308, 10.0, [-np.inf], sys.float_info.max, False, False),
        (1.79e308, 10.0, [np.nan], sys.float_info.max, False, False),
    ])
    def test_bound_at_the_ends_of_the_float_range(self, threshold, r1, tail, bound, within, scan):
        assert solver._safe_bound(threshold, r1) == bound
        assert scan_verdicts(np.array([0.0, *tail]), r1, threshold) == (within, scan)


def reference_run(config):
    """`solver.run` with no output `times` or `on_frame`, written as a plain
    loop over `solver.step`, the divide scan and the last-stable-state rule:
    (times, energies, sup_u, frames, outcome, t_star)."""
    state = solver.make_initial_data(config.mesh(), config.family, config.params)
    r = state.mesh.nodes[1:]
    dt = config.cfl * state.mesh.spacing
    n_steps = int(np.ceil((config.t_end - 1e-12) / dt))
    t_final = state.t + config.t_end
    next_out = state.t + config.output_every
    frames, outcome, t_star = [state], "Completed", None
    for i in range(n_steps):
        tau = t_final - state.t if i == n_steps - 1 else dt
        with np.errstate(over="ignore", invalid="ignore"):
            new = solver.step(state, tau, config.nonlinear)
            u = new.h[1:] / r
            amp = max(u.max(), -u.min())
        if not (np.isfinite(amp) and amp <= config.blowup_threshold):
            outcome, t_star = "BlowUpDetected", state.t
            if frames[-1].t < state.t:
                frames.append(state)
            break
        state = new
        if state.t >= next_out - 1e-9 or i == n_steps - 1:
            frames.append(state)
            next_out += config.output_every
    energies = [energy(s).total_energy if config.nonlinear else solver._linear_energy(s) for s in frames]
    return [s.t for s in frames], energies, [s.sup_u() for s in frames], frames, outcome, t_star


class TestRun:
    @pytest.mark.parametrize("params, outcome", [
        ({"nonlinear": True, "family": "bump", "params": BUMP}, "Completed"),
        ({"nonlinear": False, "family": "bump", "params": BUMP}, "Completed"),
        ({"rmax": 15.0, "t_end": 3.0, "family": "near_w", "params": {"delta": 0.1, "lambda": 0.5, "r_cut": 6.0}},
         "BlowUpDetected"),
        # threshold r1 is subnormal, so the bound is 0 and every step takes
        # the divide scan; the first one fails it
        ({"family": "bump", "params": BUMP, "blowup_threshold": 1e-320}, "BlowUpDetected"),
    ])
    def test_equals_a_plain_step_loop(self, params, outcome):
        cfg = solver.RunConfig(**{"mesh_h": 0.05, "rmax": 8.0, "t_end": 1.0, "output_every": 0.25, **params})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solver.run(cfg)
        times, energies, sups, frames, want_outcome, t_star = reference_run(cfg)
        assert rep.times.tolist() == times
        assert rep.energies.tolist() == energies
        assert rep.sup_history.tolist() == sups
        assert len(rep.snapshots) == len(frames)
        for got, want in zip(rep.snapshots, frames):
            assert got.t == want.t
            assert got.h.tobytes() == want.h.tobytes() and got.hdot.tobytes() == want.hdot.tobytes()
        assert (rep.outcome, rep.t_star) == (want_outcome, t_star)
        assert rep.outcome == outcome
        if cfg.blowup_threshold == 1e-320:
            assert rep.t_star == 0.0 and rep.times.tolist() == [0.0]

    def test_on_frame_runs_under_the_callers_error_state(self):
        # the loop ignores overflow in its steps, but not in a frame's callback
        def on_frame(i, state):
            if i == 2:
                np.array([1e308]) * 10.0

        cfg = solver.RunConfig(mesh_h=0.05, rmax=8.0, t_end=1.0, output_every=0.25, family="bump", params=BUMP)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow"):
                solver.run(cfg, on_frame=on_frame)

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

    def test_on_frame_gets_every_frame_and_keeps_none(self):
        # a blow-up run, whose last frame is its last stable state
        cfg = solver.RunConfig(mesh_h=0.05, rmax=15.0, t_end=3.0, output_every=0.25, family="near_w",
                               params={"delta": 0.1, "lambda": 0.5, "r_cut": 6.0})
        kept = solver.run(cfg)
        frames = []
        streamed = solver.run(cfg, on_frame=lambda i, s: frames.append((i, s)))
        assert kept.outcome == "BlowUpDetected" and streamed.snapshots == []
        assert [i for i, _ in frames] == list(range(len(kept.snapshots)))
        for (_, s), k in zip(frames, kept.snapshots):
            assert s.t == k.t and s.h.tobytes() == k.h.tobytes() and s.hdot.tobytes() == k.hdot.tobytes()
        for name in ("times", "energies", "sup_history"):
            assert getattr(streamed, name).tobytes() == getattr(kept, name).tobytes()
        assert (streamed.t_star, streamed.energy_drift) == (kept.t_star, kept.energy_drift)

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
        # near blow-up the force h^5/r^4 can overflow before sup|u| crosses
        # the threshold; the run ends as a blow-up at the pinned t* with no
        # warning (here the last step's sup|u| is ~8e9: finite, past 1e6)
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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_step_is_a_blowup(self, monkeypatch, bad):
        # a step whose h holds inf or NaN, as an overflowed force leaves it,
        # ends the run at the last finite state, with no warning
        step = solver.step

        def overflowing_step(s, dt, nl):
            new = step(s, dt, nl)
            if new.t > 0.1:
                new.h[7] = bad
            return new

        monkeypatch.setattr(solver, "step", overflowing_step)
        cfg = solver.RunConfig(mesh_h=0.03, rmax=6.0, t_end=1.0, family="bump", params=BUMP)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solver.run(cfg)
        assert rep.outcome == "BlowUpDetected"
        assert rep.t_star == pytest.approx(0.09) and rep.snapshots[-1].t == rep.t_star

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
