"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints the measured quantities so a failing run shows the
numbers next to the bound it missed.
"""

import json
import math
import time

import numpy as np
import pytest

from critwave import analysis, dalembert as da, profiles, solver
from critwave.cli import main as cli_main
from critwave.ground_state import (
    EnergyReport,
    GroundStateParams,
    elliptic_residual,
    energy,
    eval_w,
    variational_check,
    w_constants,
    w_field,
    w_profile,
)
from critwave.mesh import FieldState, RadialMesh, Region
from critwave.radial import RadialProfile, gaussian_bump, smoothstep_bump


G = w_constants(3)["grad_norm_sq"]


def test_01_channel_of_energy():
    """1000 seeded random data keep >= 1/2 band energy on one time side."""
    rng = np.random.default_rng(20240901)
    t0 = time.time()
    worst = np.inf
    for _ in range(1000):
        wave = da.build_F(da.random_data(rng))
        rep = da.channel_check(wave, 1.0, 2.5)
        worst = min(worst, rep.min_ratio)
    elapsed = time.time() - t0
    print(f"criterion 1: worst min_ratio={worst:.12f} over 1000 cases in {elapsed:.2f}s")
    assert worst >= 0.5 - 1e-12
    assert elapsed <= 10.0

    # step-velocity data: the ratio is exactly 1/2 once the waves separate
    step = da.RadialData(np.array([0.0, 1.0, 2.0]), np.zeros(3), np.array([0.0, 1.0]))
    wave = da.build_F(step)
    e0 = da.band_energy(wave, 0.0, 1.0, 2.0).value
    for t in (3.0, -3.0, 4.7, -8.0, 20.0):
        ratio = da.band_energy(wave, t, 1.0, 2.0).value / e0
        assert abs(ratio - 0.5) <= 1e-12


def test_02_radial_identities():
    """(d_r(r f))^2 integrals match r^2 f'^2 integrals with boundary term."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = rng.integers(1, 4)
        prof = gaussian_bump(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), rng.uniform(0, 3))
        for _ in range(n - 1):
            prof = prof + gaussian_bump(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), rng.uniform(0, 3))
        for R0 in (0.0, float(rng.uniform(0.2, 3.0))):
            rep = da.exterior_identity_check(prof, R0)
            rel = rep.defect / max(abs(rep.lhs), 1e-30)
            worst = max(worst, rel)
    print(f"criterion 2: worst relative defect={worst:.3e}")
    assert worst <= 1e-8


def test_03_ground_state_constants():
    c = w_constants(3)
    closed = 3.0 * math.sqrt(3.0) * math.pi**2 / 4.0
    print(
        f"criterion 3: grad={c['grad_norm_sq']!r} closed={closed!r} "
        f"pot={c['potential_w']!r} E={c['energy_w']!r}"
    )
    assert abs(c["grad_norm_sq"] - closed) <= 1e-8 * closed
    assert abs(c["energy_w"] - closed / 3.0) <= 1e-8 * closed
    assert abs(c["potential_w"] - c["grad_norm_sq"]) <= 1e-8 * closed


def test_04_variational_predicates():
    """1000 random fields c*W_lam + small bump: no violated implication."""
    rng = np.random.default_rng(7)
    n_hyp = n_below = 0
    for _ in range(1000):
        c = rng.uniform(-1.05, 1.05)
        lam = rng.uniform(0.3, 3.0)
        prof = c * w_profile().scaled(lam) + gaussian_bump(
            rng.uniform(-0.05, 0.05), rng.uniform(0.5, 2.0), rng.uniform(0.0, 3.0)
        )
        rep = variational_check(
            EnergyReport(
                gradient_sq=prof.grad_norm_sq(),
                kinetic_sq=0.0,
                potential=prof.l2p_norm(6),
            )
        )
        if rep.hypothesis_holds:
            n_hyp += 1
            assert rep.bound_holds, "trapping bound violated"
        if rep.below_sobolev_threshold:
            n_below += 1
            assert rep.positivity_holds, "energy positivity violated"
    print(f"criterion 4: 1000 fields, hypothesis held {n_hyp}, below threshold {n_below}")
    assert n_hyp > 0 and n_below > 0  # both implications actually exercised


def test_05_solver_vs_dalembert_oracle():
    """Linear-mode energy-norm error converges at order >= 1.9."""
    t0 = time.time()
    g = gaussian_bump(1.0, 0.8, 3.0)
    errs = {}
    for h in (0.04, 0.02, 0.01):
        cfg = solver.RunConfig(
            mesh_h=h, rmax=12.0, t_end=2.0, nonlinear=False, output_every=2.0,
            family="bump", params={"amp": 1.0, "sigma": 0.8, "center": 3.0},
        )
        rep = solver.run(cfg)
        final = rep.snapshots[-1]
        r = cfg.mesh().nodes
        hf = h * h / 0.04  # oracle projection grid refines faster than h
        fine = np.linspace(0.0, 12.0, int(round(12.0 / hf)) + 1)
        data = da.reduce(g, lambda x: np.zeros_like(np.asarray(x, float)), fine)
        exact = da.evolve(da.build_F(data), final.t)
        f_ex = np.interp(r, exact.knots, exact.f0, right=exact.f0[-1])
        ft_ex = exact.f1[np.clip(np.searchsorted(exact.knots, r) - 1, 0, exact.f1.size - 1)]
        dfe = np.gradient(final.h - f_ex, r, edge_order=2)
        errs[h] = math.sqrt(cfg.mesh().integrate(dfe**2 + (final.hdot - ft_ex) ** 2))
    o1 = math.log2(errs[0.04] / errs[0.02])
    o2 = math.log2(errs[0.02] / errs[0.01])
    elapsed = time.time() - t0
    print(f"criterion 5: errors={errs} orders=({o1:.3f}, {o2:.3f}) in {elapsed:.1f}s")
    assert o1 >= 1.9 and o2 >= 1.9
    assert elapsed <= 60.0


def test_06_conservation_and_finite_speed():
    cfg = solver.RunConfig(
        mesh_h=0.01, rmax=12.0, t_end=2.0, nonlinear=True, family="bump",
        params={"amp": 0.4, "sigma": 2.0, "center": 0.0}, output_every=0.5,
    )
    rep = solver.run(cfg)
    print(f"criterion 6: drift={rep.energy_drift:.3e}")
    assert rep.outcome == "Completed"
    assert rep.energy_drift <= 1e-5

    def pert_u(r):
        r = np.asarray(r, float)
        return 0.05 * np.exp(-((r - 1.0) ** 2) / 0.09) * smoothstep_bump(r / 1.25)

    pert = RadialProfile(pert_u)  # supported in r <= 2.5
    leaks = {}
    for h in (0.04, 0.02, 0.01):
        fcfg = solver.RunConfig(
            mesh_h=h, rmax=10.0, t_end=1.5, nonlinear=True, family="bump",
            params={"amp": 0.3, "sigma": 1.0, "center": 3.0}, output_every=0.25,
        )
        leaks[h], _, _ = solver.finite_speed_check(fcfg, pert, rho=2.5)
    o1 = math.log2(leaks[0.04] / leaks[0.02])
    o2 = math.log2(leaks[0.02] / leaks[0.01])
    print(f"criterion 6: leakage={leaks} orders=({o1:.2f}, {o2:.2f})")
    assert leaks[0.01] <= 1e-12
    assert o1 >= 1.9 and o2 >= 1.9


def test_07_stationarity_of_w():
    res = {}
    drift = {}
    for h in (0.04, 0.02, 0.01):
        mesh = RadialMesh.uniform(h, 10.0)
        W = w_field(mesh)
        res[h] = elliptic_residual(W)
        cfg = solver.RunConfig(mesh_h=h, rmax=10.0, t_end=0.25, output_every=0.25)
        rep = solver.run(cfg, initial=W)
        diff = rep.snapshots[-1] - W.with_time(rep.snapshots[-1].t)
        e = energy(diff)
        drift[h] = math.sqrt(e.gradient_sq + e.kinetic_sq)
    ro = [math.log2(res[a] / res[b]) for a, b in ((0.04, 0.02), (0.02, 0.01))]
    do = [math.log2(drift[a] / drift[b]) for a, b in ((0.04, 0.02), (0.02, 0.01))]
    print(f"criterion 7: residual orders={ro} drift orders={do}")
    assert all(o >= 1.9 for o in ro)
    assert all(o >= 1.9 for o in do)


def test_08_regime_dichotomy():
    # dispersal: slightly below the ground state, energy leaves the ball
    scat = solver.RunConfig(
        mesh_h=0.005, rmax=26.0, t_end=10.0, family="near_w",
        params={"delta": -0.1, "lambda": 0.05, "r_cut": 8.0}, output_every=0.5,
    )
    srep = solver.run(scat)
    e0 = energy(srep.snapshots[0], Region.ball(5.0))
    e1 = energy(srep.snapshots[-1], Region.ball(5.0))
    start = e0.gradient_sq + e0.kinetic_sq
    end = e1.gradient_sq + e1.kinetic_sq
    print(f"criterion 8: dispersal ball-energy ratio={end / start:.4f}")
    assert srep.outcome == "Completed"
    assert end <= 0.10 * start

    # blow-up: slightly above, finite-time concentration
    blow = solver.RunConfig(
        mesh_h=0.005, rmax=12.0, t_end=20.0, family="near_w",
        params={"delta": 0.1, "lambda": 0.05, "r_cut": 8.0}, output_every=0.01,
    )
    brep = solver.run(blow)
    assert brep.outcome == "BlowUpDetected"
    assert brep.t_star is not None and brep.t_star <= 20.0
    _, cone = analysis.cone_energy(brep.snapshots, T_est=brep.t_star + 0.05)
    print(f"criterion 8: t_star={brep.t_star} max cone energy={np.max(cone):.2f} vs {0.5 * G:.2f}")
    assert np.max(cone) >= 0.5 * G


def test_09_virial_identities():
    defects = {}
    for h in (0.04, 0.02, 0.01):
        cfg = solver.RunConfig(
            mesh_h=h, rmax=10.0, t_end=1.0, family="bump",
            params={"amp": 0.3, "sigma": 1.5, "center": 3.0}, output_every=2.5 * h,
        )
        rep = solver.run(cfg)
        # z1, z2 and Z from the series; their right-hand sides from each
        # frame's energy: kin - grad + pot for z1, -3/2 kin + 1/2 (grad - pot) for z2
        series = analysis.diagnostics_series(rep).data
        kin, grad, pot = (np.array(c) for c in zip(*(
            (e.kinetic_sq, e.gradient_sq, e.potential) for e in map(energy, rep.snapshots))))
        z1_rhs = kin - grad + pot
        z2_rhs = -1.5 * kin + 0.5 * (grad - pot)
        defects[h] = max(
            np.max(np.abs(np.gradient(series[c], series["t"], edge_order=2) - rhs)[1:-1])
            for c, rhs in (("z1", z1_rhs), ("z2", z2_rhs), ("Z", 0.5 * z1_rhs + z2_rhs))
        )
    o1 = math.log2(defects[0.04] / defects[0.02])
    o2 = math.log2(defects[0.02] / defects[0.01])
    print(f"criterion 9: defects={defects} orders=({o1:.3f}, {o2:.3f})")
    assert o1 >= 1.9 and o2 >= 1.9

    # on (W, 0): d/dt z1 = kinetic - gradient + potential = 0 - G + G
    c = w_constants(3)
    rhs = 0.0 - c["grad_norm_sq"] + c["potential_w"]
    print(f"criterion 9: z1' rhs on (W,0) = {rhs:.3e}")
    assert abs(rhs) <= 1e-6


def test_10_profile_extraction():
    mesh = RadialMesh.graded(1e-8, 1e6, 48)
    r = mesh.nodes
    n_ok = 0
    worst_defect = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        nb = int(rng.integers(1, 4))
        lams, iotas = [], []
        lam = 10.0 ** rng.uniform(-0.3, 0.3) * 1e-4
        for _ in range(nb):
            lams.append(lam)
            iotas.append(int(rng.choice([-1, 1])))
            lam *= 10.0**4.5 * 10.0 ** rng.uniform(0.0, 0.3)
        u = np.zeros_like(r)
        for l, i in zip(lams, iotas):
            u += eval_w(r, GroundStateParams(lam=l, iota=i))
        u += 1e-3 * np.exp(-((r - 1.0) ** 2))
        state = FieldState.from_u(mesh, u, np.zeros_like(r))
        d = profiles.extract(state, max_bubbles=3, lam_range=(1e-5, 1e5))
        got = sorted((b.lam, b.iota) for b in d.bubbles)
        want = sorted(zip(lams, iotas))
        ok = len(got) == nb and all(
            abs(gl / wl - 1.0) <= 0.01 and gi == wi for (gl, gi), (wl, wi) in zip(got, want)
        )
        rel = profiles.pythagorean_check(d).relative_defect
        worst_defect = max(worst_defect, rel)
        if ok and rel <= 0.02:
            n_ok += 1
    print(f"criterion 10: {n_ok}/100 recovered, worst pythagorean defect={worst_defect:.4f}")
    assert n_ok == 100


def test_11_fit_exponent():
    T = 2.0
    ts = np.linspace(0.0, 1.9, 60)
    for nu in (0.0, 0.5, 1.2, 3.0):
        fit = analysis.fit_exponent(ts, (T - ts) ** (1.0 + nu), T)
        assert abs(fit.nu_hat - nu) <= 1e-6

    nu_true = 0.8
    n_ok = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        lam = (T - ts) ** (1.0 + nu_true) * (1.0 + 0.01 * rng.standard_normal(ts.size))
        fit = analysis.fit_exponent(ts, lam, T)
        if abs(fit.nu_hat - nu_true) <= 0.02:
            n_ok += 1
    print(f"criterion 11: exact laws to 1e-6; noisy MC {n_ok}/100 within 0.02")
    assert n_ok >= 95


def test_12_determinism(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        '{"mesh": {"h": 0.04, "rmax": 8.0}, "t_end": 1.0, "output": {"every": 0.25},'
        ' "data": {"family": "bump", "amp": 0.3, "sigma": 1.0, "center": 3.0}}'
    )
    artifacts = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert cli_main(
            ["dalembert", "check", "--n", "25", "--seed", "5", "--quiet"]
        ) == 0
        snap = out / "snapshots" / "snap_0000.csv"
        assert cli_main(
            ["profiles", str(snap), "--out", str(out / "prof"), "--quiet"]
        ) == 0
        blobs = {
            "series": (out / "series.csv").read_bytes(),
            "report": (out / "report.json").read_bytes(),
            "decomp": (out / "prof" / "decomposition.json").read_bytes(),
        }
        for p in sorted((out / "snapshots").iterdir()):
            blobs[p.name] = p.read_bytes()
        artifacts.append(blobs)
    same = {k: artifacts[0][k] == artifacts[1][k] for k in artifacts[0]}
    print(f"criterion 12: byte-identical={all(same.values())} over {len(same)} artifacts")
    assert all(same.values())
    ha = json.loads((tmp_path / "a" / "manifest.json").read_text())["config_hash"]
    hb = json.loads((tmp_path / "b" / "manifest.json").read_text())["config_hash"]
    assert ha == hb
