"""Command-line interface: exit codes, artifacts, determinism, sweeps."""

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from critwave import cli
from critwave.cli import main
from critwave.ground_state import GroundStateParams, eval_w
from critwave.mesh import FieldState, RadialMesh
from critwave import solver


BUMP_CFG = (
    '{"mesh": {"h": 0.04, "rmax": 8.0}, "t_end": 1.0, "output": {"every": 0.25},'
    ' "data": {"family": "bump", "amp": 0.3, "sigma": 1.0, "center": 3.0}}'
)

NEAR_W_CFG = (
    '{"mesh": {"h": 0.05, "rmax": 15.0}, "t_end": 3.0, "output": {"every": 0.25},'
    ' "data": {"family": "near_w", "delta": %s, "lambda": 0.5, "r_cut": 6.0}}'
)

FAN_OUT_MIN_ROWS = cli._FAN_OUT_MIN_ROWS  # the cpus fixture sets it to 0


def write(path, text):
    path.write_text(text)
    return str(path)


def run_files(run_dir):
    """Bytes of a run's snapshots, series.csv and report.json by relative path."""
    paths = [*sorted((run_dir / "snapshots").iterdir()), run_dir / "series.csv", run_dir / "report.json"]
    return {str(p.relative_to(run_dir)): p.read_bytes() for p in paths}


@pytest.fixture
def cpus(monkeypatch, tmp_path):
    """Set the CPU count the snapshot fan-out sees, with no minimum of rows,
    and log every pool that cli creates: returns (set_cpus, pool_pids)."""
    log = tmp_path / "pools.log"

    class LoggedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            with open(log, "a") as fh:  # a file, so forked workers' pools show too
                fh.write(f"{os.getpid()}\n")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", LoggedPool)
    monkeypatch.setattr(cli, "_FAN_OUT_MIN_ROWS", 0)

    def set_cpus(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))

    def pool_pids():
        return [int(pid) for pid in log.read_text().split()] if log.exists() else []

    return set_cpus, pool_pids


class TestFanOut:
    @pytest.mark.parametrize("rows", [FAN_OUT_MIN_ROWS - 1, FAN_OUT_MIN_ROWS])
    def test_cut_off_and_pool_size(self, monkeypatch, rows):
        # 8 CPUs and 3 indices: this process takes index 0, so a fanned-out
        # call forks 2 workers, not 7
        sizes = []

        class SizedPool(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SizedPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        got = list(cli._fan_out(lambda i: (i * i, os.getpid()), range(3), rows))
        assert [square for square, _ in got] == [0, 1, 4]
        forked = [pid != os.getpid() for _, pid in got]
        if rows < FAN_OUT_MIN_ROWS:
            assert sizes == [] and forked == [False, False, False]
        else:
            assert sizes == [2] and forked == [False, True, True]


class TestSimulate:
    def test_artifacts_and_header(self, tmp_path):
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--g-radius", "4.0", "--quiet"]) == 0
        header = (out / "series.csv").read_text().splitlines()[0]
        assert header == "t,E,sup_u,mu,nu,lambda1,f,z1,z2,Z,d,g_4"
        manifest = json.loads((out / "manifest.json").read_text())
        assert "series.csv" in manifest["files"]
        assert len(manifest["config_hash"]) == 64
        assert (out / "snapshots" / "snap_0000.csv").exists()

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_invalid_config_exit_2(self, tmp_path):
        cfg = write(tmp_path / "c.json", '{"cfl": 0.9}')
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_blowup_report_schema(self, tmp_path):
        cfg = write(tmp_path / "c.json", NEAR_W_CFG % "0.1")
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["outcome"] == "BlowUpDetected"
        assert isinstance(rep["t_star"], float)

    def test_config_hash_pinned(self, tmp_path):
        # a near_w config with data params and a --seed override; the digest
        # is the one the field-by-field hash gave before it came from asdict
        cfg = write(
            tmp_path / "c.json",
            '{"mesh": {"h": 0.05, "rmax": 15.0}, "t_end": 0.2, "output": {"every": 0.1},'
            ' "data": {"family": "near_w", "delta": 0.05, "lambda": 0.5, "r_cut": 6.0}}',
        )
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--seed", "11", "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == (
            "a5c7db90b115bedfa6a2b22b936856926baa0b48f155826abe041ab5a574e7eb"
        )

    def test_determinism(self, tmp_path):
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
            outs.append(out)
        a, b = outs
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        for snap in sorted(p.name for p in (a / "snapshots").iterdir()):
            assert (a / "snapshots" / snap).read_bytes() == (b / "snapshots" / snap).read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        assert ma["config_hash"] == mb["config_hash"]

    def test_same_bytes_on_any_cpu_count(self, tmp_path, cpus):
        # 11 snapshots: 3 CPUs split the 10 after snapshot 0 as 4 + 3 + 3
        set_cpus, pool_pids = cpus
        cfg = write(tmp_path / "c.json", BUMP_CFG.replace('"every": 0.25', '"every": 0.1'))
        runs = {}
        for k in (1, 2, 3):
            set_cpus(k)
            out = tmp_path / f"cpus{k}"
            assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet",
                         "--ball-radius", "2", "--g-radius", "4"]) == 0
            runs[k] = run_files(out)
            assert len(pool_pids()) == k - 1  # one pool per fanned-out simulate
        assert len(runs[1]) == 11 + 2
        assert runs[2] == runs[1] and runs[3] == runs[1]

    def test_small_run_stays_serial(self, tmp_path, cpus, monkeypatch):
        set_cpus, pool_pids = cpus
        set_cpus(2)
        monkeypatch.setattr(cli, "_FAN_OUT_MIN_ROWS", FAN_OUT_MIN_ROWS)
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run"), "--quiet"]) == 0
        assert pool_pids() == []

    def test_out_is_a_file_exit_3(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 3
        assert str(out) in capsys.readouterr().err

    @pytest.mark.parametrize("k", [1, 2])
    def test_snapshot_write_fails_exit_3(self, tmp_path, capsys, cpus, k):
        # 5 snapshots: under 2 CPUs snapshot 4 is a forked writer's
        set_cpus, _ = cpus
        set_cpus(k)
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        blocked = tmp_path / "run" / "snapshots" / "snap_0004.csv"
        blocked.mkdir(parents=True)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run"), "--quiet"]) == 3
        assert str(blocked) in capsys.readouterr().err


class TestDalembert:
    def test_check_ok(self, capsys):
        assert main(["dalembert", "check", "--n", "50", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        worst = float(out.strip().split("=")[-1])
        assert worst >= 0.5 - 1e-12

    def test_check_vacuous(self):
        assert main(["dalembert", "check", "--n", "0", "--quiet"]) == 0

    def test_check_negative_n(self):
        assert main(["dalembert", "check", "--n", "-1", "--quiet"]) == 2

    @pytest.mark.parametrize(
        "band",
        [
            ["--r0", "3"],  # r1 defaults to half the data's support, 2.5 at most
            ["--r0", "-1"],
            ["--r0", "1", "--r1", "0.5"],
            ["--r0", "40", "--r1", "50"],  # outside the data: zero band energy
        ],
    )
    def test_check_bad_band(self, band, capsys):
        assert main(["dalembert", "check", "--n", "3", "--quiet", *band]) == 2
        assert "band" in capsys.readouterr().err

    def test_evolve_roundtrip(self, tmp_path):
        src = tmp_path / "data.csv"
        src.write_text("s,f0,f1\n0.0,0.0,0.0\n1.0,0.5,1.0\n2.0,0.0,0.0\n")
        assert main(["dalembert", "evolve", "--data", str(src), "--t", "1.5",
                     "--out", str(tmp_path), "--quiet"]) == 0
        rows = (tmp_path / "evolved_t1.5.csv").read_text().splitlines()
        assert rows[0] == "s,f0,f1"
        assert len(rows) > 1

    def test_evolve_empty_data(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("s,f0,f1\n")
        assert main(["dalembert", "evolve", "--data", str(src), "--t", "1.0",
                     "--out", str(tmp_path), "--quiet"]) == 0
        # the header line export_csv writes, csv.writer's \r\n included
        assert (tmp_path / "evolved_t1.csv").read_bytes() == b"s,f0,f1\r\n"

    @pytest.mark.parametrize(
        "text",
        [
            "s,f0,f1\n0.0,0.0,0.0\n1.0,abc,1.0\n2.0,0.0,0.0\n",  # non-numeric
            "s,f0,f1\n0.0,0.0,0.0\n1.0,0.5\n2.0,0.0,0.0\n",  # ragged
            "s,f0,f1\n0.0,0.0,1.0\n",  # one knot, no cell
        ],
        ids=["non_numeric", "ragged", "one_row"],
    )
    def test_evolve_malformed_data_exit_2(self, tmp_path, capsys, text):
        src = write(tmp_path / "data.csv", text)
        out = tmp_path / "out"
        assert main(["dalembert", "evolve", "--data", src, "--t", "1.0", "--out", str(out), "--quiet"]) == 2
        assert src in capsys.readouterr().err
        assert not out.exists()


class TestAnalyze:
    def test_stationary_w_d_column(self, tmp_path):
        cfg = write(
            tmp_path / "c.json",
            '{"mesh": {"h": 0.02, "rmax": 12.0}, "t_end": 0.5, "output": {"every": 0.1},'
            ' "data": {"family": "perturbed_w", "lambda": 1.0, "eps": 0.0}}',
        )
        run_dir = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        out = tmp_path / "an"
        assert main(["analyze", str(run_dir), "--out", str(out), "--quiet"]) == 0
        with open(out / "series.csv") as fh:
            rows = list(csv.DictReader(fh))
        d_vals = [abs(float(row["d"])) for row in rows]
        assert max(d_vals) < 1e-2

    def test_not_a_run_dir(self, tmp_path):
        assert main(["analyze", str(tmp_path), "--out", str(tmp_path), "--quiet"]) == 2

    def test_one_mesh_and_simulate_columns(self, tmp_path):
        run_dir = tmp_path / "run"
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        report = cli._load_run_dir(run_dir)
        assert len(report.snapshots) == 5
        assert all(s.mesh is report.snapshots[0].mesh for s in report.snapshots)
        out = tmp_path / "an"
        assert main(["analyze", str(run_dir), "--out", str(out), "--quiet"]) == 0

        def columns(path):
            with open(path, newline="") as fh:
                return [row[1:3] for row in csv.reader(fh)]

        assert columns(out / "series.csv") == columns(run_dir / "series.csv")

    def test_load_equal_on_any_cpu_count(self, tmp_path, cpus):
        set_cpus, pool_pids = cpus
        set_cpus(1)
        run_dir = tmp_path / "run"
        cfg = write(tmp_path / "c.json", BUMP_CFG.replace('"every": 0.25', '"every": 0.1'))
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        reports = []
        for k in (1, 2):
            set_cpus(k)
            reports.append(cli._load_run_dir(run_dir))
        assert len(pool_pids()) == 1  # the load under 2 CPUs forked
        one, two = reports
        assert one.times.tobytes() == two.times.tobytes()
        assert len(one.snapshots) == len(two.snapshots) == 11
        for a, b in zip(one.snapshots, two.snapshots):
            assert a.t == b.t
            assert a.h.tobytes() == b.h.tobytes() and a.hdot.tobytes() == b.hdot.tobytes()
        for rep in reports:
            assert all(s.mesh is rep.snapshots[0].mesh for s in rep.snapshots)

    @pytest.mark.parametrize("damage", ["missing", "malformed", "other_mesh"])
    def test_bad_snapshot_in_workers_half_exit_3(self, tmp_path, capsys, cpus, damage):
        # 5 snapshots: under 2 CPUs snapshot 4 is parsed by a forked worker
        set_cpus, pool_pids = cpus
        set_cpus(1)
        run_dir = tmp_path / "run"
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        snap = run_dir / "snapshots" / "snap_0004.csv"
        if damage == "missing":
            snap.unlink()
        elif damage == "malformed":
            snap.write_text("r,u,ut\n0.0,1.0,0.0\n0.1,abc,0.0\n")
        else:  # well formed, on a coarser mesh than snapshot 0's
            mesh = RadialMesh.uniform(0.05, 8.0)
            solver.save_snapshot(FieldState.from_u(mesh, np.zeros(mesh.nodes.size), np.zeros(mesh.nodes.size)), snap)
        set_cpus(2)
        capsys.readouterr()
        assert main(["analyze", str(run_dir), "--out", str(tmp_path / "an"), "--quiet"]) == 3
        assert str(snap) in capsys.readouterr().err
        assert len(pool_pids()) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_split_v_blowup_exit_3(self, tmp_path, capsys):
        # restarted at t = 0.4, the regular part v takes in the data outside
        # the cone r >= T_est - 0.4 and focuses it at the origin, where v
        # blows up near T_est
        cfg = write(
            tmp_path / "c.json",
            '{"mesh": {"h": 0.02, "rmax": 8.0}, "t_end": 5.0, "output": {"every": 0.1},'
            ' "data": {"family": "near_w", "delta": 0.05, "lambda": 1.0}}',
        )
        run_dir = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        t_star = json.loads((run_dir / "report.json").read_text())["t_star"]
        capsys.readouterr()
        assert main(["analyze", str(run_dir), "--out", str(tmp_path / "an"), "--quiet",
                     "--t-est", repr(t_star + 0.002), "--split-index", "4"]) == 3
        err = capsys.readouterr().err
        assert "restarted at snapshot index 4 (t = 0.4) blew up at t = " in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_linear_split_finishes(self, tmp_path):
        # v is restarted under the run's own linear equation, which cannot
        # blow up; under the nonlinear one it did, at t = 0.33
        cfg = write(
            tmp_path / "c.json",
            '{"mesh": {"h": 0.02, "rmax": 10.0}, "t_end": 1.0, "output": {"every": 0.25}, "nonlinear": false,'
            ' "data": {"family": "bump", "amp": 2.0, "sigma": 1.0, "center": 3.0}}',
        )
        run_dir = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        assert main(["analyze", str(run_dir), "--out", str(tmp_path / "an"), "--quiet",
                     "--t-est", "2.5", "--split-index", "0"]) == 0

    @pytest.mark.parametrize("flags, message", [
        (["--t-est", "2.0", "--split-index", "99"], "--split-index 99 is outside [0, 5)"),
        (["--t-est", "2.0", "--split-index", "-2"], "--split-index -2 is outside [0, 5)"),
        (["--split-index", "0"], "give --split-index with --t-est"),
    ])
    def test_bad_split_index_exit_2(self, tmp_path, capsys, flags, message):
        run_dir = tmp_path / "run"
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["analyze", str(run_dir), "--out", str(tmp_path / "an"), "--quiet", *flags]) == 2
        assert capsys.readouterr().err == f"analyze: {message}\n"

    def test_config_roundtrip(self, tmp_path):
        run_dir = tmp_path / "run"
        cfg = write(tmp_path / "c.json", NEAR_W_CFG % "0.1")
        assert main(["simulate", "--config", cfg, "--seed", "7", "--out", str(run_dir), "--quiet"]) == 0
        config = cli._load_run_dir(run_dir).config
        assert config == solver.RunConfig.from_dict({**json.loads(NEAR_W_CFG % "0.1"), "seed": 7})
        # a run directory from before report.json carried its config
        report = run_dir / "report.json"
        rep = json.loads(report.read_text())
        del rep["config"]
        report.write_text(json.dumps(rep))
        assert cli._load_run_dir(run_dir).config == solver.RunConfig()

    @pytest.mark.parametrize("damage", ["missing", "short", "no_E"])
    def test_bad_series_exit_3(self, tmp_path, capsys, damage):
        run_dir = tmp_path / "run"
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        series = run_dir / "series.csv"
        lines = series.read_text().splitlines(keepends=True)
        if damage == "missing":
            series.unlink()
        elif damage == "short":
            series.write_text("".join(lines[:-1]))
        else:
            series.write_text("".join([lines[0].replace(",E,", ",e,"), *lines[1:]]))
        capsys.readouterr()
        assert main(["analyze", str(run_dir), "--out", str(tmp_path / "an"), "--quiet"]) == 3
        assert str(series) in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"outcome": "Completed"}',
        "not json\n",
        '{"snapshot_times": 5, "outcome": "Completed", "t_star": null}',
        '{"snapshot_times": [0.0], "outcome": "Completed", "t_star": null, "config": null}',
        '{"snapshot_times": [0.0], "outcome": "Completed", "t_star": null, "config": [0.5]}',
        '{"snapshot_times": [0.0], "outcome": "Completed", "t_star": null, "config": {"cfl": 0.9}}',
        '{"snapshot_times": [0.0], "outcome": "Completed", "t_star": null, "config": {"mesh": {"h": 0.04}}}',
    ])
    def test_bad_report_exit_3(self, tmp_path, capsys, text):
        run_dir = tmp_path / "run"
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        report = run_dir / "report.json"
        report.write_text(text)
        capsys.readouterr()
        assert main(["analyze", str(run_dir), "--out", str(tmp_path / "an"), "--quiet"]) == 3
        assert str(report) in capsys.readouterr().err


class TestProfiles:
    def test_two_bubble_snapshot(self, tmp_path):
        mesh = RadialMesh.graded(1e-6, 1e3, 60)
        r = mesh.nodes
        u = eval_w(r, GroundStateParams(lam=1e-3)) + eval_w(r, GroundStateParams(lam=2.0, iota=-1))
        state = FieldState.from_u(mesh, u, np.zeros_like(r))
        snap = tmp_path / "snap.csv"
        solver.save_snapshot(state, snap)
        out = tmp_path / "prof"
        assert main(["profiles", str(snap), "--out", str(out),
                     "--lam-min", "1e-4", "--lam-max", "100", "--quiet"]) == 0
        payload = json.loads((out / "decomposition.json").read_text())
        assert len(payload["bubbles"]) == 2
        iotas = sorted(b["iota"] for b in payload["bubbles"])
        assert iotas == [-1, 1]

    def test_missing_snapshot(self, tmp_path):
        assert main(["profiles", str(tmp_path / "nope.csv"), "--out", str(tmp_path), "--quiet"]) == 2

    @pytest.mark.parametrize("flag", ["--lam-min", "--lam-max"])
    def test_lone_lam_bound_exit_2(self, tmp_path, capsys, flag):
        # one bound alone used to be dropped: the search ran over the default range
        mesh = RadialMesh.graded(1e-6, 1e3, 60)
        state = FieldState.from_u(mesh, eval_w(mesh.nodes, GroundStateParams(lam=1e-3)),
                                  np.zeros_like(mesh.nodes))
        snap = tmp_path / "snap.csv"
        solver.save_snapshot(state, snap)
        out = tmp_path / "prof"
        assert main(["profiles", str(snap), "--out", str(out), flag, "10", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "--lam-min" in err and "--lam-max" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "r,u,ut\n",  # header only
            "r,u,ut\n0.0,1.0,0.0\n0.1,abc,0.0\n0.2,1.0,0.0\n",  # non-numeric
            "r,u,ut\n0.0,1.0,0.0\n0.1,1.0\n0.2,1.0,0.0\n",  # ragged
        ],
        ids=["header_only", "non_numeric", "ragged"],
    )
    def test_malformed_snapshot_exit_2(self, tmp_path, text):
        snap = write(tmp_path / "snap.csv", text)
        assert main(["profiles", snap, "--out", str(tmp_path), "--quiet"]) == 2


class TestSweep:
    def test_delta_grid_outcomes(self, tmp_path):
        cfg = write(tmp_path / "c.json", NEAR_W_CFG % "0.0")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--param", "data.delta=-0.1,0.0,0.1",
                     "--out", str(out), "--jobs", "3", "--quiet"]) == 0
        with open(out / "aggregate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["outcome"] for row in rows] == ["Completed", "Completed", "BlowUpDetected"]
        assert rows[2]["t_star"] != ""

    def test_one_series_per_cell(self, tmp_path, monkeypatch):
        # a blow-up cell's nu_hat reads the series its series.csv was written from
        calls = []
        diagnostics_series = cli.analysis.diagnostics_series

        def counted(report, *args, **kwargs):
            calls.append(report.outcome)
            return diagnostics_series(report, *args, **kwargs)

        monkeypatch.setattr(cli.analysis, "diagnostics_series", counted)
        cfg = write(tmp_path / "c.json", NEAR_W_CFG.replace('"every": 0.25', '"every": 0.05') % "0.0")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--param", "data.delta=0.0,0.1",
                     "--out", str(out), "--quiet"]) == 0
        assert calls == ["Completed", "BlowUpDetected"]
        with open(out / "aggregate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["nu_hat"] == "" and rows[1]["nu_hat"] != ""

    def test_cells_write_serially_in_workers(self, tmp_path, cpus):
        set_cpus, pool_pids = cpus
        set_cpus(2)
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        outs = {}
        for jobs in ("2", "1"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["sweep", "--config", cfg, "--param", "data.amp=0.2,0.3",
                         "--out", str(out), "--jobs", jobs, "--quiet"]) == 0
            outs[jobs] = out
            if jobs == "2":
                assert pool_pids() == [os.getpid()]  # the sweep's pool, none nested in a cell
        assert len(pool_pids()) == 3  # --jobs 1: each cell's snapshots fan out here
        for cell in ("cell_000", "cell_001"):
            assert run_files(outs["2"] / cell) == run_files(outs["1"] / cell)
        assert (outs["2"] / "aggregate.csv").read_bytes() == (outs["1"] / "aggregate.csv").read_bytes()

    def test_bad_param_spec(self, tmp_path):
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["sweep", "--config", cfg, "--param", "oops", "--out", str(tmp_path), "--quiet"]) == 2

    def test_partial_failure_still_aggregates(self, tmp_path):
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        out = tmp_path / "sweep"
        # second cell has an invalid (negative) t_end and fails; sweep still succeeds
        assert main(["sweep", "--config", cfg, "--param", "t_end=0.5,-1.0",
                     "--out", str(out), "--quiet"]) == 0
        with open(out / "aggregate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["outcome"] for row in rows] == ["Completed", "Failed"]
        assert rows[1]["error"] != ""
        assert rows[1]["error"].startswith("InvalidConfigError:")

    def test_non_numeric_param(self, tmp_path):
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--param", "data.family=bump,nope",
                     "--out", str(out), "--quiet"]) == 0
        with open(out / "aggregate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["data.family"], row["outcome"]) for row in rows] == [
            ("bump", "Completed"),
            ("nope", "Failed"),
        ]
        assert rows[1]["error"].startswith("InvalidConfigError:")

    def test_key_value_template(self, tmp_path):
        cfg = write(
            tmp_path / "c.cfg",
            "# bump template\n"
            "mesh.h = 0.04\nmesh.rmax = 8.0\nt_end = 1.0  # overridden below\n"
            "output.every = 0.25\ndata.family = bump\n"
            "data.amp = 0.3\ndata.sigma = 1.0\ndata.center = 3.0\n",
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--param", "data.amp=0.1,0.2", "--param", "t_end=0.5",
                     "--out", str(out), "--quiet"]) == 0
        with open(out / "aggregate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["data.amp"], row["t_end"], row["outcome"]) for row in rows] == [
            ("0.1", "0.5", "Completed"),
            ("0.2", "0.5", "Completed"),
        ]
        for cell in ("cell_000", "cell_001"):
            rep = json.loads((out / cell / "report.json").read_text())
            assert rep["final_time"] == pytest.approx(0.5, abs=1e-12)

    def test_key_value_template_without_equals(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", "mesh.h = 0.04\nmesh.rmax 8.0\n")
        assert main(["sweep", "--config", cfg, "--param", "t_end=0.5",
                     "--out", str(tmp_path / "sweep"), "--quiet"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "c.json", "--jobs", "2"],
        ["dalembert", "check", "--config", "c.json"],
        ["dalembert", "check", "--jobs", "2"],
        ["analyze", "run", "--config", "c.json"],
        ["analyze", "run", "--jobs", "2"],
        ["analyze", "run", "--seed", "1"],
        ["profiles", "snap.csv", "--config", "c.json"],
        ["profiles", "snap.csv", "--jobs", "2"],
        ["profiles", "snap.csv", "--seed", "1"],
        ["sweep", "--config", "c.json", "--seed", "1"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_unread_flags_rejected(argv):
    # each subcommand declares only the flags it reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
