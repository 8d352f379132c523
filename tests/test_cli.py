"""Command-line interface: exit codes, artifacts, determinism, sweeps."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from critwave import analysis, cli, table
from critwave.cli import main
from critwave.ground_state import GroundStateParams, eval_w
from critwave.mesh import FieldState, RadialMesh
from critwave import solver
from critwave.errors import InvalidConfigError
from test_solver import build_initial_data, configs


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


@pytest.fixture(scope="module")
def long_run(tmp_path_factory):
    """A run directory of 401 snapshots on 1601 nodes."""
    tmp = tmp_path_factory.mktemp("long")
    cfg = write(tmp / "c.json", BUMP_CFG.replace('"h": 0.04', '"h": 0.005')
                .replace('"every": 0.25', '"every": 0.0025'))
    assert main(["simulate", "--config", cfg, "--out", str(tmp / "run"), "--quiet"]) == 0
    return tmp / "run"


class TestFanOut:
    @pytest.mark.parametrize("rows", [FAN_OUT_MIN_ROWS - 1, FAN_OUT_MIN_ROWS])
    def test_cut_off_and_pool_size(self, monkeypatch, rows):
        # 8 CPUs and 3 items: this process makes call 0, so a call in
        # parallel forks 2 workers, not 7
        sizes = []

        class SizedPool(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SizedPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        got = cli._in_parallel(lambda j, k: (j, k, os.getpid()), rows, 3)
        forked = [pid != os.getpid() for *_, pid in got]
        if rows < FAN_OUT_MIN_ROWS:
            assert sizes == [] and [(j, k) for j, k, _ in got] == [(0, 1)] and forked == [False]
        else:
            assert sizes == [2] and [(j, k) for j, k, _ in got] == [(0, 3), (1, 3), (2, 3)]
            assert forked == [False, True, True]

    def test_no_pool_inside_a_fan_out(self, monkeypatch):
        # a call made during a fan-out, in this process's own share or in a
        # worker, runs alone in its process: one pool, never nested
        sizes = []

        class SizedPool(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SizedPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))

        def inner(j, k):
            return j, k, [(jj, kk) for jj, kk, _ in cli._in_parallel(lambda *a: (*a, 0), FAN_OUT_MIN_ROWS, 3)]

        got = cli._in_parallel(inner, FAN_OUT_MIN_ROWS, 3)
        assert sizes == [2] and got == [(j, 3, [(0, 1)]) for j in range(3)]
        assert cli._in_parallel(lambda j, k: (j, k), FAN_OUT_MIN_ROWS, 2) == [(0, 2), (1, 2)]  # reset after

    def test_interleaved(self):
        assert cli._interleaved([[0, 3, 6], [1, 4], [2, 5]]) == list(range(7))


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

    def test_invalid_config_exit_2(self, tmp_path):
        cfg = write(tmp_path / "c.json", '{"cfl": 0.9}')
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("text, message", [
        ('"nonlinear": "off"', "nonlinear must be true or false, got 'off'"),
        ('"mesh": {"h": true, "rmax": 8.0}', "mesh.h must be a number, got True"),
        ('"seed": "abc"', "seed must be an integer, got 'abc'"),
        ('"mesh": {"h": "0.1", "rmax": 8.0}', "mesh.h must be a number, got '0.1'"),
        ('"data": {"family": 5}', "data.family must be a string, got 5"),
        # data.* numbers follow the same rule: a bool is never a number, and a
        # string is not read as one
        ('"data": {"family": "near_w", "delta": true}', "data.delta must be a number, got True"),
        ('"data": {"family": "near_w", "lambda": false}', "data.lambda must be a number, got False"),
        ('"data": {"family": "bump", "amp": "0.3"}', "data.amp must be a number, got '0.3'"),
        ('"data": {"family": "bump", "center": "inf"}', "data.center must be a number, got 'inf'"),
    ], ids=["nonlinear_string", "h_bool", "seed_string", "h_string", "family_number", "delta_bool",
            "lambda_bool", "amp_string", "center_string"])
    def test_wrong_type_exit_2(self, tmp_path, capsys, text, message):
        cfg = write(tmp_path / "c.json", '{"t_end": 1.0, %s}' % text)
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"simulate: {message}\n"

    @pytest.mark.parametrize("data, message", [
        ("data.family = csv\n", "data.family = csv needs data.path"),
        ("data.family = bump\ndata.amp = big\n", "data.amp must be a number, got 'big'"),
        ("data.family = nope\n", "data.family must be one of near_w, bump, perturbed_w, csv, got 'nope'"),
        ("data.family = near_w\ndata.lambda = 0\n", "data.lambda must be positive, got 0"),
        ("data.family = bump\ndata.sigma = 0\n", "data.sigma must be positive, got 0"),
        ("data.family = near_w\ndata.r_cut = 0\n", "data.r_cut must be positive, got 0"),
        # a number is not read as a file descriptor
        ("data.family = csv\ndata.path = 7\n", "data.path must be a string, got 7"),
        # sigma**2 underflows to 0, and u0 at the center (r = 0) is 0/0
        ("data.family = bump\ndata.sigma = 1e-300\n",
         "data.family = bump with data.sigma = 1e-300 gives initial data that is not finite"),
        # a typo is not run with the default it was meant to replace
        ("data.family = bump\ndata.amplitude = 0.3\n",
         "data.amplitude is not read by data.family = bump, which reads data.amp, data.sigma, data.center"),
    ], ids=["csv_without_path", "non_numeric_amp", "unknown_family", "zero_lambda", "zero_sigma",
            "zero_r_cut", "path_not_string", "sigma_underflow", "unread_key"])
    def test_bad_initial_data_exit_2(self, tmp_path, capsys, data, message):
        cfg = write(tmp_path / "c.cfg", "mesh.h = 0.04\nmesh.rmax = 8.0\nt_end = 1.0\n" + data)
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"simulate: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ('"blowup_threshold": NaN', "blowup_threshold must be finite, got nan"),
        ('"t_end": NaN', "t_end must be finite, got nan"),
        ('"cfl": NaN', "cfl must be finite, got nan"),
        ('"mesh": {"h": NaN, "rmax": 8.0}', "mesh.h must be finite, got nan"),
        ('"t_end": Infinity', "t_end must be finite, got inf"),
        ('"output": {"every": Infinity}', "output.every must be finite, got inf"),
        ('"data": {"family": "near_w", "delta": NaN}', "data.delta must be finite, got nan"),
        ('"data": {"family": "near_w", "lambda": Infinity}', "data.lambda must be finite, got inf"),
        # an int too large for a float
        ('"t_end": 1%s' % ("0" * 400), "t_end must be finite, got 1%s" % ("0" * 400)),
        ('"data": {"family": "bump", "amp": 1%s}' % ("0" * 400), "data.amp must be finite, got 1%s" % ("0" * 400)),
        # finite keys whose node count round(rmax / h) + 1 is too large to
        # build, or not finite: rmax / h overflows to inf
        ('"mesh": {"h": 1e-300, "rmax": 1.0}',
         "mesh.rmax / mesh.h gives more than 10000000 nodes, got mesh.rmax = 1.0 and mesh.h = 1e-300"),
        ('"mesh": {"h": 5e-324, "rmax": 1e308}',
         "mesh.rmax / mesh.h gives more than 10000000 nodes, got mesh.rmax = 1e+308 and mesh.h = 5e-324"),
        # finite keys asking for more steps ceil(t_end / (cfl h)) than a run may take;
        # in the last, cfl * h underflows to 0.0
        ('"cfl": 1e-300', "t_end / (cfl * mesh.h) gives more than 100000000 steps, "
                          "got t_end = 0.2, cfl = 1e-300 and mesh.h = 0.04"),
        ('"t_end": 1e300', "t_end / (cfl * mesh.h) gives more than 100000000 steps, "
                           "got t_end = 1e+300, cfl = 0.5 and mesh.h = 0.04"),
        ('"mesh": {"h": 1e-30, "rmax": 1e-29}, "cfl": 1e-300',
         "t_end / (cfl * mesh.h) gives more than 100000000 steps, got t_end = 0.2, cfl = 1e-300 and mesh.h = 1e-30"),
    ], ids=["threshold_nan", "t_end_nan", "cfl_nan", "h_nan", "t_end_inf", "every_inf", "delta_nan",
            "lambda_inf", "t_end_huge_int", "amp_huge_int", "mesh_too_large", "mesh_count_overflows",
            "cfl_tiny", "t_end_huge", "step_size_underflows"])
    def test_non_finite_exit_2(self, tmp_path, capsys, text, message):
        # Python's json reads NaN and Infinity
        base = {"mesh": '"mesh": {"h": 0.04, "rmax": 8.0}', "t_end": '"t_end": 0.2'}
        fields = [v for k, v in base.items() if f'"{k}"' not in text]
        cfg = write(tmp_path / "c.json", "{%s}" % ", ".join([*fields, text]))
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"simulate: {message}\n"

    @settings(max_examples=25, deadline=None)
    @given(flat=configs())
    def test_config_runs_or_exits_2(self, flat):
        # the mesh and times are pinned small; every other key is as drawn,
        # and the command exits as building the run in process says it must
        flat = {**flat, "mesh.h": 0.5, "mesh.rmax": 4.0, "cfl": 0.5, "t_end": 0.5, "output.every": 0.5}
        with tempfile.TemporaryDirectory() as tmp:
            try:
                build_initial_data(flat, tmp)
                want = (0, "")
            except InvalidConfigError as exc:
                want = (2, f"simulate: {exc}\n")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["simulate", "--config", str(Path(tmp, "config.json")),
                             "--out", str(Path(tmp, "run")), "--quiet"])
        assert (code, err.getvalue()) == want

    def test_unreadable_csv_data_exit_3(self, tmp_path, capsys):
        snap = write(tmp_path / "snap.csv", "r,u,ut\n0.0,1.0,0.0\n0.1,abc,0.0\n")
        cfg = write(tmp_path / "c.cfg", f"mesh.h = 0.04\nmesh.rmax = 8.0\ndata.family = csv\ndata.path = {snap}\n")
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 3
        assert snap in capsys.readouterr().err

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
        # 11 snapshots: 3 CPUs split them by i mod 3 as 4 + 4 + 3
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

    def test_output_finer_than_a_step(self, tmp_path):
        # a frame at most every step, 50 steps here: the cadence's own frame
        # count t_end / every overflows
        cfg = write(tmp_path / "c.json", BUMP_CFG.replace('"every": 0.25', '"every": 5e-324'))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run"), "--quiet"]) == 0
        assert len(list((tmp_path / "run" / "snapshots").iterdir())) == 51

    def test_small_run_stays_serial(self, tmp_path, cpus, monkeypatch):
        set_cpus, pool_pids = cpus
        set_cpus(2)
        monkeypatch.setattr(cli, "_FAN_OUT_MIN_ROWS", FAN_OUT_MIN_ROWS)
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run"), "--quiet"]) == 0
        assert pool_pids() == []

    @pytest.mark.parametrize("k", [1, 2])
    def test_snapshot_write_fails_exit_3(self, tmp_path, capsys, cpus, k):
        # 5 snapshots: under 2 CPUs the forked writer writes snapshots 1 and 3
        set_cpus, _ = cpus
        set_cpus(k)
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        blocked = tmp_path / "run" / "snapshots" / "snap_0003.csv"
        blocked.mkdir(parents=True)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run"), "--quiet"]) == 3
        assert str(blocked) in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["times", "outcome", "t_star"])
    def test_worker_run_that_differs_exit_3(self, tmp_path, capsys, cpus, monkeypatch, field):
        set_cpus, pool_pids = cpus
        set_cpus(2)
        parent, run = os.getpid(), solver.run

        def replay(config, **kwargs):
            report = run(config, **kwargs)
            if os.getpid() != parent:  # the forked writer's run
                report.times = report.times + 1e-9 if field == "times" else report.times
                report.outcome = "BlowUpDetected" if field == "outcome" else report.outcome
                report.t_star = 0.5 if field == "t_star" else report.t_star
            return report

        monkeypatch.setattr(solver, "run", replay)
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run"), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            f"simulate: the run replayed by snapshot writer 1 of 2 differs from this process's in its {field}\n")
        assert len(pool_pids()) == 1

    @pytest.mark.parametrize("k", [1, 2])
    def test_simulate_peak_memory_is_not_the_runs_frames(self, long_run, cpus, k):
        # every process holds one frame at a time and writes its share of
        # the snapshots as the solve makes them: the peak is one frame's
        # working set and text, on 1601 nodes, plus the series' rows; a
        # report of the run's frames would hold them all
        set_cpus, pool_pids = cpus
        set_cpus(k)
        frames = len(list((long_run / "snapshots").iterdir()))
        frame_bytes = frames * 2 * 1601 * 8
        assert frames >= 400
        out = long_run.parent / f"sim{k}"
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(long_run.parent / "c.json"), "--out", str(out), "--quiet"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pool_pids()) == (k > 1)
        assert run_files(out) == run_files(long_run)
        assert peak < 0.1 * frame_bytes, (peak, frame_bytes)


class TestDalembert:
    def test_check_ok(self, capsys):
        assert main(["dalembert", "check", "--n", "50", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        worst = float(out.strip().split("=")[-1])
        assert worst >= 0.5 - 1e-12

    def test_check_exterior_band(self):
        assert main(["dalembert", "check", "--n", "50", "--seed", "7", "--r1", "inf", "--quiet"]) == 0

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

    def test_evolve_without_data_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dalembert", "evolve", "--t", "1.0", "--out", str(tmp_path), "--quiet"])
        assert exc.value.code == 2
        assert "the following arguments are required: --data" in capsys.readouterr().err

    def test_exit_3_line_names_the_mode(self, tmp_path, capsys):
        data = write(tmp_path / "data.csv", "s,f0,f1\n0.0,0.0,0.0\n1.0,0.5,1.0\n2.0,0.0,0.0\n")
        taken = tmp_path / "taken"
        taken.write_text("")
        capsys.readouterr()
        assert main(["dalembert", "evolve", "--data", data, "--out", str(taken / "x"), "--quiet"]) == 3
        assert capsys.readouterr().err.startswith(f"dalembert evolve: [Errno 20] Not a directory: '{taken}")


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

    @pytest.mark.parametrize("flag, message", [
        ("--ball-radius", "ball radii 2.0000001 and 2.0 both name the column E_ball_2"),
        ("--g-radius", "g radii 2.0000001 and 2.0 both name the column g_2"),
    ])
    def test_radii_of_one_column_exit_2(self, tmp_path, capsys, flag, message):
        # two distinct radii that format alike would write one column for
        # both; an exactly repeated radius keeps its one column
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        colliding = [flag, "2.0000001", flag, "2", "--quiet"]
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "bad"), *colliding]) == 2
        assert capsys.readouterr().err == f"simulate: {message}\n"
        assert not (tmp_path / "bad").exists()
        run_dir = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), flag, "2", flag, "2", "--quiet"]) == 0
        assert main(["analyze", str(run_dir), "--out", str(tmp_path / "an"), *colliding]) == 2
        assert capsys.readouterr().err == f"analyze: {message}\n"
        assert not (tmp_path / "an").exists()
        with open(run_dir / "series.csv") as fh:
            header = next(csv.reader(fh))
        assert header[-1] == message.rsplit(" ", 1)[1] and header.count(header[-1]) == 1

    def test_not_a_run_dir(self, tmp_path):
        assert main(["analyze", str(tmp_path), "--out", str(tmp_path), "--quiet"]) == 2

    def test_one_mesh_and_simulate_columns(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        radii = ["--ball-radius", "2", "--g-radius", "4", "--quiet"]
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), *radii]) == 0
        built = []
        post_init = RadialMesh.__post_init__
        monkeypatch.setattr(RadialMesh, "__post_init__", lambda self: built.append(1) or post_init(self))
        snaps = cli._load_run_dir(run_dir).snapshots
        assert len(built) == 1 and len(snaps) == 5
        assert all(s.mesh is snaps[0].mesh for s in snaps)
        out = tmp_path / "an"
        assert main(["analyze", str(run_dir), "--out", str(out), *radii]) == 0  # 1005 rows: serial
        assert len(built) == 2  # analyze's own load
        assert (out / "series.csv").read_bytes() == (run_dir / "series.csv").read_bytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_series_equals_simulates_on_any_cpu_count(self, tmp_path, cpus, k):
        # on this run, h = r u of the parsed u gives back another u at the
        # origin, and with it another lambda1 on the blow-up frame: analyze
        # reads u as the files hold it. A run of 2 frames, its t_end under
        # the output cadence, has its virial and g_R values from each frame
        set_cpus, pool_pids = cpus
        radii = ["--ball-radius", "1", "--ball-radius", "50", "--g-radius", "4", "--quiet"]
        configs = {"run": NEAR_W_CFG.replace('"every": 0.25', '"every": 0.1') % "0.05",
                   "two_frames": NEAR_W_CFG.replace('"t_end": 3.0', '"t_end": 0.2') % "0.05"}
        for name, text in configs.items():
            set_cpus(1)
            run_dir = tmp_path / name
            cfg = write(tmp_path / f"{name}.json", text)
            assert main(["simulate", "--config", cfg, "--out", str(run_dir), *radii]) == 0
            set_cpus(k)
            out = tmp_path / f"{name}_an"
            assert main(["analyze", str(run_dir), "--out", str(out), *radii]) == 0
            assert (out / "series.csv").read_bytes() == (run_dir / "series.csv").read_bytes()
        assert len(pool_pids()) == 2 * (k > 1)
        with open(tmp_path / "two_frames" / "series.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 and all(np.isfinite(float(row[c])) for row in rows for c in ("z1", "z2", "Z", "g_4"))

    def test_load_equal_on_any_cpu_count(self, tmp_path, cpus):
        # the split's v, made before the fan-out, is read by forked workers
        set_cpus, pool_pids = cpus
        set_cpus(1)
        run_dir = tmp_path / "run"
        cfg = write(tmp_path / "c.json", BUMP_CFG.replace('"every": 0.25', '"every": 0.1'))
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        written = []
        for k in (1, 2):
            set_cpus(k)
            for split in ("0", "3"):
                out = tmp_path / f"an{k}_{split}"
                assert main(["analyze", str(run_dir), "--out", str(out), "--quiet", "--g-radius", "4",
                             "--t-est", "3.0", "--split-index", split]) == 0
                written.append((out / "series.csv").read_bytes())
        assert len(pool_pids()) == 2  # the two analyses under 2 CPUs forked
        assert written[:2] == written[2:]
        assert written[0] != written[1]

    @pytest.mark.parametrize("k", [1, 2])
    def test_peak_memory_is_not_the_runs_frames(self, long_run, cpus, k):
        # every process holds one frame at a time: the peak is one frame's
        # working set, on 1601 nodes, plus the written series' text, on 11
        # columns; a list of the run's frames would hold them all
        set_cpus, pool_pids = cpus
        set_cpus(k)
        frames = len(list((long_run / "snapshots").iterdir()))
        frame_bytes = frames * 2 * 1601 * 8
        assert frames >= 400
        out = long_run.parent / f"an{k}"
        tracemalloc.start()
        try:
            assert main(["analyze", str(long_run), "--out", str(out), "--quiet"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pool_pids()) == (k > 1)
        assert peak < 0.1 * frame_bytes, (peak, frame_bytes)

    @pytest.mark.parametrize("damage", ["missing", "malformed", "other_mesh", "no_origin_row"])
    def test_bad_snapshot_in_workers_half_exit_3(self, tmp_path, capsys, cpus, damage):
        # 5 snapshots: under 2 CPUs snapshot 3 is parsed by a forked worker
        set_cpus, pool_pids = cpus
        set_cpus(1)
        run_dir = tmp_path / "run"
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        snap = run_dir / "snapshots" / "snap_0003.csv"
        if damage == "missing":
            snap.unlink()
        elif damage == "malformed":
            snap.write_text("r,u,ut\n0.0,1.0,0.0\n0.1,abc,0.0\n")
        elif damage == "no_origin_row":
            header, _, *rows = snap.read_bytes().splitlines(keepends=True)
            snap.write_bytes(b"".join([header, *rows]))
        else:  # well formed, on a coarser mesh than snapshot 0's
            mesh = RadialMesh.uniform(0.05, 8.0)
            solver.save_snapshot(FieldState.from_u(mesh, np.zeros(mesh.nodes.size), np.zeros(mesh.nodes.size)), snap)
        set_cpus(2)
        capsys.readouterr()
        assert main(["analyze", str(run_dir), "--out", str(tmp_path / "an"), "--quiet"]) == 3
        assert str(snap) in capsys.readouterr().err
        assert len(pool_pids()) == 1

    def test_fit_json_is_the_fit_of_the_written_series(self, tmp_path):
        cfg = write(tmp_path / "c.json", NEAR_W_CFG.replace('"every": 0.25', '"every": 0.05') % "0.1")
        run_dir = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        t_star = json.loads((run_dir / "report.json").read_text())["t_star"]
        t_est = t_star + 0.01
        out = tmp_path / "an"
        assert main(["analyze", str(run_dir), "--out", str(out), "--quiet", "--t-est", repr(t_est)]) == 0
        t, _, _, _, _, lam1 = table.read_columns(out / "series.csv", ("t", "E", "sup_u", "mu", "nu", "lambda1"))
        fit = analysis.fit_exponent(t, lam1, t_est)
        assert fit.n_points >= 10
        assert json.loads((out / "fit.json").read_text()) == {
            "nu_hat": fit.nu_hat, "slope": fit.slope, "r_squared": fit.r_squared, "n_points": fit.n_points,
        }

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
        (["--t-est", "0.0", "--split-index", "0"], "--t-est 0.0 must exceed the restart time 0.0 of snapshot 0"),
        (["--t-est", "-1.0", "--split-index", "0"], "--t-est -1.0 must exceed the restart time 0.0 of snapshot 0"),
        *((flags, f"--t-est must be finite, got {t_est}")
          for t_est in ("inf", "-inf", "nan")
          for flags in ([f"--t-est={t_est}"], [f"--t-est={t_est}", "--split-index", "0"])),
    ])
    def test_bad_split_index_exit_2(self, tmp_path, capsys, flags, message):
        run_dir = tmp_path / "run"
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["analyze", str(run_dir), "--out", str(tmp_path / "an"), "--quiet", *flags]) == 2
        assert capsys.readouterr().err == f"analyze: {message}\n"
        assert not (tmp_path / "an").exists()

    def test_config_roundtrip(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        cfg = write(tmp_path / "c.json", NEAR_W_CFG % "0.1")
        assert main(["simulate", "--config", cfg, "--seed", "7", "--out", str(run_dir), "--quiet"]) == 0
        config = cli._load_run_dir(run_dir).config
        assert config == solver.RunConfig.from_dict({**json.loads(NEAR_W_CFG % "0.1"), "seed": 7})
        # a run directory from before report.json carried its config: its
        # analysis needs none, but its split evolves v under it
        report = run_dir / "report.json"
        rep = json.loads(report.read_text())
        del rep["config"]
        report.write_text(json.dumps(rep))
        assert cli._load_run_dir(run_dir).config is None
        assert main(["analyze", str(run_dir), "--out", str(tmp_path / "an"), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["analyze", str(run_dir), "--out", str(tmp_path / "split"), "--quiet",
                     "--t-est", "2.5", "--split-index", "0"]) == 3
        assert capsys.readouterr().err == (f"analyze: {report}: no config to evolve the split's "
                                           "regular part under\n")

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

    def test_w_snapshot_without_origin_row(self, tmp_path):
        # load_snapshot puts the r = 0 row back, as a copy of the first row
        mesh = RadialMesh.graded(1e-6, 1e3, 60)
        state = FieldState.from_u(mesh, eval_w(mesh.nodes, GroundStateParams(lam=0.1)), np.zeros_like(mesh.nodes))
        snap = tmp_path / "snap.csv"
        solver.save_snapshot(state, snap)
        header, _, *rows = snap.read_bytes().splitlines(keepends=True)
        snap.write_bytes(b"".join([header, *rows]))
        out = tmp_path / "prof"
        assert main(["profiles", str(snap), "--out", str(out), "--quiet"]) == 0
        assert len(json.loads((out / "decomposition.json").read_text())["bubbles"]) == 1

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
                     "--out", str(out), "--quiet"]) == 0
        with open(out / "aggregate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["outcome"] for row in rows] == ["Completed", "Completed", "BlowUpDetected"]
        assert rows[2]["t_star"] != ""

    def test_one_series_per_cell(self, tmp_path, monkeypatch):
        # a blow-up cell's nu_hat reads the series its series.csv was written from
        calls = []
        assemble_series = cli.analysis.assemble_series

        def counted(report, *args, **kwargs):
            calls.append(report.outcome)
            return assemble_series(report, *args, **kwargs)

        monkeypatch.setattr(cli.analysis, "assemble_series", counted)
        cfg = write(tmp_path / "c.json", NEAR_W_CFG.replace('"every": 0.25', '"every": 0.05') % "0.0")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--param", "data.delta=0.0,0.1",
                     "--out", str(out), "--quiet"]) == 0
        assert calls == ["Completed", "BlowUpDetected"]
        with open(out / "aggregate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["nu_hat"] == "" and rows[1]["nu_hat"] != ""

    def test_cells_write_serially_in_workers(self, tmp_path, cpus, monkeypatch):
        # two cells of 1005 rows: each is under the cut-off and both reach it,
        # so under 2 CPUs the cells are shared out and none forks its own pool
        set_cpus, pool_pids = cpus
        monkeypatch.setattr(cli, "_FAN_OUT_MIN_ROWS", 2 * 1005)
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        outs = {}
        for k in (2, 1):
            set_cpus(k)
            outs[k] = tmp_path / f"cpus{k}"
            assert main(["sweep", "--config", cfg, "--param", "data.amp=0.2,0.3",
                         "--out", str(outs[k]), "--quiet"]) == 0
            assert pool_pids() == [os.getpid()]  # the sweep's pool, none nested in a cell
        for cell in ("cell_000", "cell_001"):
            assert run_files(outs[2] / cell) == run_files(outs[1] / cell)
        assert (outs[2] / "aggregate.csv").read_bytes() == (outs[1] / "aggregate.csv").read_bytes()

    def test_cells_at_the_cut_off_fan_out_their_own_frames(self, tmp_path, cpus, monkeypatch):
        # each of the two cells reaches the cut-off: they run in order in
        # this process, and each shares out its own frames in its own pool
        set_cpus, pool_pids = cpus
        set_cpus(2)
        monkeypatch.setattr(cli, "_FAN_OUT_MIN_ROWS", 1005)
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--param", "data.amp=0.2,0.3", "--out", str(out), "--quiet"]) == 0
        assert pool_pids() == [os.getpid(), os.getpid()]
        cell_cfg = write(tmp_path / "cell.json", BUMP_CFG.replace('"amp": 0.3', '"amp": 0.2'))
        set_cpus(1)
        assert main(["simulate", "--config", cell_cfg, "--out", str(tmp_path / "run"), "--quiet"]) == 0
        assert run_files(out / "cell_000") == run_files(tmp_path / "run")

    def test_cell_is_a_simulate_run_directory(self, tmp_path):
        # cell 0 sets data.amp = 0.2: simulate on that config writes the same
        # files and the same manifest but for its timestamps
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--param", "data.amp=0.2,0.3", "--out", str(out), "--quiet"]) == 0
        cell_cfg = write(tmp_path / "cell.json", BUMP_CFG.replace('"amp": 0.3', '"amp": 0.2'))
        run_dir = tmp_path / "run"
        assert main(["simulate", "--config", cell_cfg, "--out", str(run_dir), "--quiet"]) == 0
        cell = out / "cell_000"
        assert run_files(cell) == run_files(run_dir)
        manifests = [json.loads((d / "manifest.json").read_text()) for d in (cell, run_dir)]
        for m in manifests:
            del m["started"], m["finished"]
        assert manifests[0] == manifests[1]

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

    def test_non_numeric_data_param_recorded(self, tmp_path):
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--param", "data.amp=0.3,big", "--out", str(out), "--quiet"]) == 0
        with open(out / "aggregate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["outcome"] for row in rows] == ["Completed", "Failed"]
        assert rows[1]["error"] == "InvalidConfigError: data.amp must be a number, got 'big'"

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


@pytest.mark.parametrize("command", ["simulate", "analyze", "profiles", "dalembert_evolve", "sweep"])
def test_out_is_a_file_exit_3(tmp_path, capsys, command):
    cfg = write(tmp_path / "c.json", BUMP_CFG)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
    data = write(tmp_path / "data.csv", "s,f0,f1\n0.0,0.0,0.0\n1.0,0.5,1.0\n2.0,0.0,0.0\n")
    argv = {
        "simulate": ["simulate", "--config", cfg],
        "analyze": ["analyze", str(run_dir)],
        "profiles": ["profiles", str(run_dir / "snapshots" / "snap_0000.csv")],
        "dalembert_evolve": ["dalembert", "evolve", "--data", data],
        "sweep": ["sweep", "--config", cfg, "--param", "data.amp=0.2,0.3"],
    }[command]
    out = tmp_path / "taken"
    out.write_text("")
    capsys.readouterr()
    assert main([*argv, "--out", str(out), "--quiet"]) == 3
    assert str(out) in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["missing", "malformed", "directory"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_bad_config_file_exit_2(tmp_path, capsys, command, damage):
    cfg = tmp_path / "c.json"
    if damage == "malformed":
        cfg.write_text('{"mesh": {"h": 0.04,}}')
    elif damage == "directory":
        cfg.mkdir()
    extra = ["--param", "t_end=0.5"] if command == "sweep" else []
    capsys.readouterr()
    assert main([command, "--config", str(cfg), *extra, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"{command}: cannot read config {cfg}: ")
    assert not (tmp_path / "o").exists()


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
        ["sweep", "--config", "c.json", "--jobs", "2"],
        ["dalembert", "evolve", "--data", "d.csv", "--n", "1000", "--r0", "7", "--seed", "3"],
        ["dalembert", "check", "--n", "3", "--t", "99", "--data", "nonexistent.csv"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_unread_flags_rejected(argv):
    # each subcommand declares only the flags it reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


LAM_RANGE = "profiles: need 0 < --lam-min < --lam-max < inf, got "


@pytest.mark.parametrize("argv, message", [
    (["profiles", "SNAP", "--lam-min", "0", "--lam-max", "1"], LAM_RANGE + "0.0 and 1.0"),
    (["profiles", "SNAP", "--lam-min", "2", "--lam-max", "1"], LAM_RANGE + "2.0 and 1.0"),
    (["profiles", "SNAP", "--lam-min", "nan", "--lam-max", "1"], LAM_RANGE + "nan and 1.0"),
    (["profiles", "SNAP", "--lam-min", "1", "--lam-max", "inf"], LAM_RANGE + "1.0 and inf"),
    (["dalembert", "evolve", "--data", "DATA", "--t", "nan"], "dalembert evolve: --t must be finite, got nan"),
    (["dalembert", "evolve", "--data", "DATA", "--t", "inf"], "dalembert evolve: --t must be finite, got inf"),
    (["profiles", "SNAP", "--lam-min", "10"], "profiles: give --lam-min and --lam-max together, or neither"),
    (["profiles", "nothere.csv"], "profiles: [Errno 2] No such file or directory: 'nothere.csv'"),
    (["dalembert", "check", "--n", "-1"], "dalembert check: --n must be >= 0"),
    # --r1 defaults to half the data's support, 2.5 at most
    (["dalembert", "check", "--n", "3", "--r0", "3"], "dalembert check: band needs 0 < r0 < r1 (--r0 3.0, --r1 None)"),
    (["dalembert", "evolve", "--data", "nothere.csv"],
     "dalembert evolve: [Errno 2] No such file or directory: 'nothere.csv'"),
    (["dalembert", "evolve", "--data", "/dev/null"], "dalembert evolve: /dev/null: expected header s,f0,f1"),
    (["analyze", "/"], "analyze: / is not a run directory"),
    (["sweep", "--config", "CONFIG", "--param", "oops"], "sweep: bad --param 'oops' (want key=v1,v2,...)"),
], ids=["lam_min_zero", "lam_min_above_max", "lam_min_nan", "lam_max_inf", "t_nan", "t_inf", "lone_lam_min",
        "snapshot_missing", "n_negative", "band_empty", "data_missing", "data_malformed", "no_report",
        "param_without_equals"])
def test_argument_out_of_range_exit_2(tmp_path, capsys, argv, message):
    # each command gets valid inputs, so only the argument is at fault
    mesh = RadialMesh.graded(1e-6, 1e3, 60)
    snap = tmp_path / "snap.csv"
    solver.save_snapshot(FieldState.from_u(mesh, eval_w(mesh.nodes, GroundStateParams(lam=1e-3)),
                                           np.zeros_like(mesh.nodes)), snap)
    files = {"SNAP": str(snap),
             "DATA": write(tmp_path / "data.csv", "s,f0,f1\n0.0,0.0,0.0\n1.0,0.5,1.0\n2.0,0.0,0.0\n"),
             "CONFIG": write(tmp_path / "c.json", BUMP_CFG)}
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([files.get(a, a) for a in argv] + ["--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


# Imports critwave.cli, checks that no scipy module came with it, then makes
# every scipy import raise, runs each command and prints their exit codes,
# and evaluates the closed-form profile integrals.
NO_SCIPY_SCRIPT = """
import json, sys
from pathlib import Path
import critwave.cli
from critwave import dalembert as da
from critwave.ground_state import energy_of_profile, variational_check, w_profile
from critwave.radial import gaussian_bump
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
sys.modules["scipy"] = None
tmp = Path(sys.argv[1])
(tmp / "blowup.json").write_text(sys.argv[2])
(tmp / "bump.json").write_text(sys.argv[3])
main, run = critwave.cli.main, tmp / "run"
codes = {"simulate": main(["simulate", "--config", str(tmp / "blowup.json"), "--out", str(run), "--quiet"])}
t_est = json.loads((run / "report.json").read_text())["t_star"] + 0.002
last = sorted((run / "snapshots").iterdir())[-1]
codes["analyze"] = main(["analyze", str(run), "--out", str(tmp / "an"), "--t-est", repr(t_est),
                         "--split-index", "15", "--quiet"])
codes["profiles"] = main(["profiles", str(last), "--out", str(tmp / "prof"), "--quiet"])
codes["dalembert"] = main(["dalembert", "check", "--n", "5", "--quiet"])
codes["sweep"] = main(["sweep", "--config", str(tmp / "bump.json"), "--param", "data.amp=0.2,0.3",
                       "--out", str(tmp / "sweep"), "--quiet"])
outcome = json.loads((run / "report.json").read_text())["outcome"]
integrals = {
    "gradient_sq": energy_of_profile(w_profile()).gradient_sq,
    "hypothesis_holds": variational_check(0.9 * w_profile()).hypothesis_holds,
    "identity_defect": da.exterior_identity_check(gaussian_bump(1.3, 0.9, 1.5), 0.5).defect,
}
print(json.dumps({"loaded": loaded, "outcome": outcome, "codes": codes, "integrals": integrals}))
"""


def test_no_run_path_loads_scipy(tmp_path):
    # SciPy is a test dependency only: no command and no profile integral
    # may import it
    blowup = (
        '{"mesh": {"h": 0.02, "rmax": 8.0}, "t_end": 5.0, "output": {"every": 0.1},'
        ' "data": {"family": "near_w", "delta": 0.05, "lambda": 1.0}}'
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path), blowup, BUMP_CFG],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["loaded"] == []
    assert result["outcome"] == "BlowUpDetected"
    assert result["codes"] == dict.fromkeys(["simulate", "analyze", "profiles", "dalembert", "sweep"], 0), proc.stderr
    integrals = result["integrals"]
    assert integrals["gradient_sq"] == pytest.approx(3.0 * np.sqrt(3.0) * np.pi**2 / 4.0, rel=1e-13)
    assert integrals["hypothesis_holds"] is True
    assert integrals["identity_defect"] <= 1e-12
