"""Command-line interface: exit codes, artifacts, determinism, sweeps."""

import contextlib
import csv
import gc
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from critwave import analysis, cli, table
from critwave import dalembert as da
from critwave.cli import main
from critwave.ground_state import GroundStateParams, eval_w
from critwave.mesh import FieldState, RadialMesh
from critwave import solver
from critwave.errors import InvalidConfigError
from critwave.radial import gaussian_bump
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
    """Bytes of a run's snapshots, frames, series.csv and report.json by relative path."""
    paths = [*sorted((run_dir / "snapshots").iterdir()), *sorted((run_dir / "frames").iterdir()),
             run_dir / "series.csv", run_dir / "report.json"]
    return {str(p.relative_to(run_dir)): p.read_bytes() for p in paths}


@pytest.fixture
def fork_pids(monkeypatch, tmp_path):
    """Log every os.fork: returns fork_pids(), the pid that forked each
    worker since its last call, one entry per worker."""
    log, fork = tmp_path / "forks.log", os.fork

    def logged_fork():
        with open(log, "a") as fh:  # a file, so forks in forked workers show too
            fh.write(f"{os.getpid()}\n")
        return fork()

    monkeypatch.setattr(os, "fork", logged_fork)

    def read():
        pids = [int(pid) for pid in log.read_text().split()] if log.exists() else []
        log.unlink(missing_ok=True)
        return pids

    return read


@pytest.fixture
def cpus(monkeypatch, fork_pids):
    """Set the CPU count the snapshot fan-out sees, with no minimum of rows:
    returns (set_cpus, fork_pids)."""
    monkeypatch.setattr(cli, "_FAN_OUT_MIN_ROWS", 0)

    def set_cpus(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))

    return set_cpus, fork_pids


def assert_no_worker_left():
    assert not cli._fanning_out
    with pytest.raises(ChildProcessError):  # this process has no child, running or ended
        os.waitpid(-1, os.WNOHANG)


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
    def test_cut_off_and_pool_size(self, monkeypatch, fork_pids, rows):
        # the frame pass's cut-off counts its run's frames times nodes, here
        # `rows` frames of one node. Under 2 CPUs a pass at the cut-off forks
        # one worker, which reduces the odd frames

        class Frames(list):  # frame i is i
            mesh = SimpleNamespace(nodes=np.zeros(1))

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
        got = cli._frame_pass(Frames(range(rows)), lambda i, frame: (i, frame, os.getpid()))
        assert [(i, frame) for i, frame, _ in got] == [(i, i) for i in range(rows)]
        pids = [pid for *_, pid in got]
        if rows < FAN_OUT_MIN_ROWS:
            assert fork_pids() == [] and set(pids) == {os.getpid()}
        else:
            assert fork_pids() == [os.getpid()] and set(pids[0::2]) == {os.getpid()}
            assert len(set(pids[1::2])) == 1 and os.getpid() not in pids[1::2]

    def test_no_pool_inside_a_fan_out(self, monkeypatch, fork_pids):
        # 8 CPUs and 3 items: this process makes call 0, so a call in
        # parallel forks 2 workers, not 7. A call made during a fan-out, in
        # this process's own share or in a worker, runs alone in its
        # process: every worker is forked here, never nested
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))

        def inner(j, k):
            return j, k, os.getpid(), [(jj, kk) for jj, kk, _ in cli._in_parallel(lambda *a: (*a, 0), 3)]

        got = cli._in_parallel(inner, 3)
        assert [(j, k, calls) for j, k, _, calls in got] == [(j, 3, [(0, 1)]) for j in range(3)]
        assert fork_pids() == [os.getpid()] * 2
        assert [pid != os.getpid() for _, _, pid, _ in got] == [False, True, True]
        assert cli._in_parallel(lambda j, k: (j, k), 2) == [(0, 2), (1, 2)]  # reset after
        assert cli._in_parallel(lambda j, k: (j, k), 1) == [(0, 1)]  # one item: no worker
        assert fork_pids() == [os.getpid()]
        assert_no_worker_left()

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_own_share_failure_kills_the_workers(self, monkeypatch, error):
        # this process's share fails at once while worker 1's would take a
        # minute: the failure is raised within seconds, and no worker is left
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))

        def share(j, k):
            if j == 0:
                raise error("share 0")
            time.sleep(60)
            return j

        start = time.monotonic()
        with pytest.raises(error, match="share 0"):
            cli._in_parallel(share, 2)
        assert time.monotonic() - start < 10
        assert_no_worker_left()

    @pytest.mark.parametrize("end, status", [(lambda: os.kill(os.getpid(), signal.SIGKILL), signal.SIGKILL),
                                             (lambda: os._exit(0), 0)], ids=["sigkill", "exit_0"])
    def test_worker_that_sends_no_result(self, monkeypatch, end, status):
        # a worker killed by a signal, or leaving by os._exit in its share,
        # is an OSError naming the worker and its wait status, so main
        # exits 3 on it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))

        def share(j, k):
            if j == 1:
                end()
            return j

        with pytest.raises(ChildProcessError, match=rf"^worker 1 ended without sending its result "
                                                    rf"\(wait status {int(status)}\)$"):
            cli._in_parallel(share, 3)
        assert_no_worker_left()

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
        ('"mesh": {"h": "0.1", "rmax": 8.0}', "mesh.h must be a number, got '0.1'"),
        ('"data": {"family": 5}', "data.family must be a string, got 5"),
        # data.* numbers follow the same rule: a bool is never a number, and a
        # string is not read as one
        ('"data": {"family": "near_w", "delta": true}', "data.delta must be a number, got True"),
        ('"data": {"family": "near_w", "lambda": false}', "data.lambda must be a number, got False"),
        ('"data": {"family": "bump", "amp": "0.3"}', "data.amp must be a number, got '0.3'"),
        ('"data": {"family": "bump", "center": "inf"}', "data.center must be a number, got 'inf'"),
    ], ids=["nonlinear_string", "h_bool", "h_string", "family_number", "delta_bool",
            "lambda_bool", "amp_string", "center_string"])
    def test_wrong_type_exit_2(self, tmp_path, capsys, text, message):
        cfg = write(tmp_path / "c.json", '{"t_end": 1.0, %s}' % text)
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"simulate: {message}\n"

    @pytest.mark.parametrize("data, message", [
        ({"data.family": "csv"}, "data.family = csv needs data.path"),
        ({"data.family": "bump", "data.amp": "big"}, "data.amp must be a number, got 'big'"),
        ({"data.family": "nope"}, "data.family must be one of near_w, bump, perturbed_w, csv, got 'nope'"),
        ({"data.family": "near_w", "data.lambda": 0}, "data.lambda must be positive, got 0"),
        ({"data.family": "bump", "data.sigma": 0}, "data.sigma must be positive, got 0"),
        ({"data.family": "near_w", "data.r_cut": 0}, "data.r_cut must be positive, got 0"),
        # a number is not read as a file descriptor
        ({"data.family": "csv", "data.path": 7}, "data.path must be a string, got 7"),
        # sigma**2 underflows to 0, and u0 at the center (r = 0) is 0/0
        ({"data.family": "bump", "data.sigma": 1e-300},
         "data.family = bump with data.sigma = 1e-300 gives initial data that is not finite"),
        # a typo is not run with the default it was meant to replace
        ({"data.family": "bump", "data.amplitude": 0.3},
         "data.amplitude is not read by data.family = bump, which reads data.amp, data.sigma, data.center"),
    ], ids=["csv_without_path", "non_numeric_amp", "unknown_family", "zero_lambda", "zero_sigma",
            "zero_r_cut", "path_not_string", "sigma_underflow", "unread_key"])
    def test_bad_initial_data_exit_2(self, tmp_path, capsys, data, message):
        cfg = write(tmp_path / "c.json", json.dumps({"mesh.h": 0.04, "mesh.rmax": 8.0, "t_end": 1.0, **data}))
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"simulate: {message}\n"
        # refused before anything is written, the data that are not finite too
        assert not (tmp_path / "o").exists()

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
        cfg = write(tmp_path / "c.json",
                    json.dumps({"mesh.h": 0.04, "mesh.rmax": 8.0, "data.family": "csv", "data.path": snap}))
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
        # a near_w config with data params; the digest is of its RunConfig
        # fields by asdict
        cfg = write(
            tmp_path / "c.json",
            '{"mesh": {"h": 0.05, "rmax": 15.0}, "t_end": 0.2, "output": {"every": 0.1},'
            ' "data": {"family": "near_w", "delta": 0.05, "lambda": 0.5, "r_cut": 6.0}}',
        )
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == (
            "0197fbea79120cb373a6c7aff5f49455ace615aba5bc0da50cc5d256d7f3ae5e"
        )

    @pytest.mark.parametrize("k", [1, 2])
    def test_one_mesh(self, tmp_path, cpus, monkeypatch, k):
        # the solve, its frames and their rows share the one mesh that the
        # initial data is built on, with or without workers (which inherit it)
        set_cpus, _ = cpus
        set_cpus(k)
        built = []
        post_init = RadialMesh.__post_init__

        def counted(mesh):
            post_init(mesh)
            built.append(mesh.nodes.size)

        monkeypatch.setattr(RadialMesh, "__post_init__", counted)
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run"), "--quiet"]) == 0
        assert built == [201]

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

    def test_snapshot_r_text_lives_with_its_mesh(self, tmp_path, monkeypatch):
        # the 31 snapshots of 501 rows format r once, and its text goes with
        # the run's mesh once simulate returns
        refs, formatted = [], []
        build, format_column = solver.RunConfig.mesh, solver.format_column

        def mesh(config):
            m = build(config)
            refs.append(weakref.ref(m))
            return m

        monkeypatch.setattr(solver.RunConfig, "mesh", mesh)
        monkeypatch.setattr(solver, "format_column", lambda values: formatted.append(1) or format_column(values))
        cfg = write(tmp_path / "c.json", '{"mesh": {"h": 0.02, "rmax": 10.0}, "t_end": 3.0, "output": {"every": 0.1},'
                    ' "nonlinear": false, "data": {"family": "bump", "amp": 2.0, "sigma": 1.0, "center": 3.0}}')
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run"), "--quiet"]) == 0
        assert len(list((tmp_path / "run" / "snapshots").iterdir())) == 31 and len(formatted) == 1
        gc.collect()
        assert len(refs) == 1 and refs[0]() is None  # and so is its entry in solver._R_COLUMNS

    def test_same_bytes_on_any_cpu_count(self, tmp_path, cpus):
        # 11 snapshots: 3 CPUs split them by i mod 3 as 4 + 4 + 3
        set_cpus, fork_pids = cpus
        cfg = write(tmp_path / "c.json", BUMP_CFG.replace('"every": 0.25', '"every": 0.1'))
        runs = {}
        for k in (1, 2, 3):
            set_cpus(k)
            out = tmp_path / f"cpus{k}"
            assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet",
                         "--ball-radius", "2", "--g-radius", "4"]) == 0
            runs[k] = run_files(out)
            assert fork_pids() == [os.getpid()] * (k - 1)  # k - 1 workers per fanned-out simulate
        assert len(runs[1]) == 11 + 11 + 2  # snapshots, frames, series and report
        assert runs[2] == runs[1] and runs[3] == runs[1]

    def test_output_finer_than_a_step(self, tmp_path):
        # a frame at most every step, 50 steps here: the cadence's own frame
        # count t_end / every overflows
        cfg = write(tmp_path / "c.json", BUMP_CFG.replace('"every": 0.25', '"every": 5e-324'))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run"), "--quiet"]) == 0
        assert len(list((tmp_path / "run" / "snapshots").iterdir())) == 51

    def test_small_run_stays_serial(self, tmp_path, cpus, monkeypatch):
        set_cpus, fork_pids = cpus
        set_cpus(2)
        monkeypatch.setattr(cli, "_FAN_OUT_MIN_ROWS", FAN_OUT_MIN_ROWS)
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run"), "--quiet"]) == 0
        assert fork_pids() == []

    def test_one_solve_on_any_cpu_count(self, tmp_path, cpus, monkeypatch):
        # the frame pass reads the solve's frames back: no process replays it
        set_cpus, fork_pids = cpus
        log, run = tmp_path / "runs.log", solver.run

        def logged(config, **kwargs):
            with open(log, "a") as fh:  # a file, so forked workers' runs show too
                fh.write(f"{os.getpid()}\n")
            return run(config, **kwargs)

        monkeypatch.setattr(solver, "run", logged)
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        for k in (1, 2, 3):
            set_cpus(k)
            log.unlink(missing_ok=True)
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / f"cpus{k}"), "--quiet"]) == 0
            assert log.read_text() == f"{os.getpid()}\n"
            assert fork_pids() == [os.getpid()] * (k - 1)

    def test_blowup_before_t_end_stays_serial(self, tmp_path, cpus, monkeypatch):
        # counted to t_end, the run would have 1001 frames of 301 nodes; it
        # blows up after about 20, under the cut-off, so its frame pass
        # stays in this process
        set_cpus, fork_pids = cpus
        monkeypatch.setattr(cli, "_FAN_OUT_MIN_ROWS", FAN_OUT_MIN_ROWS)
        cfg = write(tmp_path / "c.json", NEAR_W_CFG.replace('"t_end": 3.0', '"t_end": 50.0')
                    .replace('"every": 0.25', '"every": 0.05') % "0.1")
        runs = {}
        for k in (2, 1):
            set_cpus(k)
            out = tmp_path / f"cpus{k}"
            assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
            runs[k] = run_files(out)
        assert 1001 * 301 >= FAN_OUT_MIN_ROWS > len(list((tmp_path / "cpus1" / "snapshots").iterdir())) * 301
        assert json.loads(runs[1]["report.json"])["outcome"] == "BlowUpDetected"
        assert fork_pids() == []
        assert runs[2] == runs[1]

    @pytest.mark.parametrize("k", [1, 2])
    def test_snapshot_write_fails_exit_3(self, tmp_path, capsys, cpus, k):
        # 5 frames: the solve writes every frame's .npy file in this process,
        # and under 2 CPUs the forked writer writes snapshots 1 and 3
        set_cpus, _ = cpus
        set_cpus(k)
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        for name in ("snapshots/snap_0003.csv", "frames/frame_0003.npy"):
            out = tmp_path / name.partition("/")[0]
            blocked = out / name
            blocked.mkdir(parents=True)
            capsys.readouterr()
            assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 3
            assert str(blocked) in capsys.readouterr().err

    def test_dead_worker_exit_3(self, tmp_path, capsys, cpus, monkeypatch):
        # 5 frames: under 2 CPUs the forked writer of snapshots 1 and 3 is
        # killed before it writes one, and simulate exits 3 naming it
        set_cpus, fork_pids = cpus
        set_cpus(2)
        parent, save_snapshot = os.getpid(), solver.save_snapshot

        def killed_in_a_worker(state, path):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            save_snapshot(state, path)

        monkeypatch.setattr(solver, "save_snapshot", killed_in_a_worker)
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run"), "--quiet"]) == 3
        message = f"worker 1 ended without sending its result (wait status {int(signal.SIGKILL)})"
        assert capsys.readouterr().err == f"simulate: {message}\n"
        assert fork_pids() == [parent]
        assert_no_worker_left()

    @pytest.mark.parametrize("k", [1, 2])
    def test_simulate_peak_memory_is_not_the_runs_frames(self, long_run, cpus, k):
        # the solve holds one frame at a time, and each process of the frame
        # pass reads back and writes its share of the snapshots one at a
        # time: the peak is one frame's working set and text, on 1601 nodes,
        # plus the series' rows; a report of the run's frames would hold
        # them all
        set_cpus, fork_pids = cpus
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
        assert fork_pids() == [os.getpid()] * (k > 1)
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

    def test_evolve_far_time_exact(self, tmp_path):
        # at t = 1000 the breakpoint merge leaves the unit cells alone: the pulse is exact
        src = write(tmp_path / "data.csv", "s,f0,f1\n0,0,0\n1,0.5,1\n2,0,0\n")
        assert main(["dalembert", "evolve", "--data", src, "--t", "1000", "--out", str(tmp_path), "--quiet"]) == 0
        rows = (tmp_path / "evolved_t1000.csv").read_text().splitlines()
        assert rows == ["s,f0,f1", "0.0,0.0,0.0", "998.0,0.0,-0.25", "999.0,0.25,-0.25",
                        "1000.0,0.5,-0.25", "1001.0,0.75,0.75", "1002.0,0.0,0.0"]

    def test_evolve_graded_data(self, tmp_path):
        # breakpoints 48 per decade from 1e-8 to 1e6 evolve at t = 0 and 1,
        # with the data's energy
        data = da.reduce(gaussian_bump(1.0, 0.8, 3.0), lambda r: 0.3 * np.exp(-((np.asarray(r) - 2.0) ** 2)),
                         RadialMesh.graded(1e-8, 1e6, 48).nodes)
        src = tmp_path / "graded.csv"
        da.export_csv(data, src)
        energy = da.build_F(da.import_csv(src)).total_energy()
        for t in ("0", "1"):
            assert main(["dalembert", "evolve", "--data", str(src), "--t", t, "--out", str(tmp_path), "--quiet"]) == 0
            moved = da.import_csv(tmp_path / f"evolved_t{t}.csv")
            assert da.build_F(moved).total_energy() == pytest.approx(energy, rel=1e-12)

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
            "s,f0,f1\n0,0,0\nnan,0.5,1\n2,0,0\n",  # NaN fails the order check's comparisons
            "s,f0,f1\n0,0,0\n1,0.5,1\ninf,0,0\n",
            "s,f0,f1\n0,0,0\n1,nan,1\n2,0,0\n",
        ],
        ids=["non_numeric", "ragged", "one_row", "nan_knot", "inf_last_knot", "nan_f0"],
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
        # both; an exactly repeated radius keeps its one column. A radius
        # that is not finite and > 0 exits 2 as well, naming its flag
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        for bad in ("nan", "inf", "-inf", "0", "-1"):
            for cmd, target in (("simulate", ["--config", cfg]), ("analyze", [str(tmp_path)])):
                assert main([cmd, *target, "--out", str(tmp_path / "bad"), flag, "2", f"{flag}={bad}", "--quiet"]) == 2
                assert capsys.readouterr().err == f"{cmd}: {flag} must be finite and > 0, got {float(bad)!r}\n"
                assert not (tmp_path / "bad").exists()
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

    def test_sup_u_comes_from_the_frames(self, tmp_path):
        # analyze reads only t and E back from series.csv: with the sup_u
        # column zeroed, it writes the series it writes on the intact run
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        run_dir, zeroed = tmp_path / "run", tmp_path / "zeroed"
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        shutil.copytree(run_dir, zeroed)
        series = zeroed / "series.csv"
        header, *lines = series.read_text().splitlines()
        rows = [line.split(",") for line in lines]
        for row in rows:
            row[2] = "0.0"
        series.write_bytes("".join(line + "\r\n" for line in [header, *map(",".join, rows)]).encode())
        assert not table.read_columns(series, ("t", "E", "sup_u"))[2].any()
        for flags in ([], ["--t-est", "3.0", "--split-index", "0"]):
            written = []
            for name in (run_dir, zeroed):
                out = tmp_path / f"{name.name}_an{len(flags)}"
                assert main(["analyze", str(name), "--out", str(out), "--quiet", *flags]) == 0
                written.append((out / "series.csv").read_bytes())
            assert written[0] == written[1]
        assert written[0] != (run_dir / "series.csv").read_bytes()  # the split's rows are a = u - v's

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
        assert len(built) == 2  # analyze builds a mesh of its own from report.json's config, and only that one
        assert (out / "series.csv").read_bytes() == (run_dir / "series.csv").read_bytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_series_equals_simulates_on_any_cpu_count(self, tmp_path, cpus, k):
        # analyze reads the solver's own h and hdot, so its rows are
        # simulate's on the blow-up frame too. A run of 2 frames, its t_end
        # under the output cadence, has its virial and g_R values from each
        # frame
        set_cpus, fork_pids = cpus
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
            frames = len(list((run_dir / "frames").iterdir()))
            assert fork_pids() == [os.getpid()] * (min(k, frames) - 1)  # a worker per CPU or frame, after the first
        with open(tmp_path / "two_frames" / "series.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 and all(np.isfinite(float(row[c])) for row in rows for c in ("z1", "z2", "Z", "g_4"))

    def test_load_equal_on_any_cpu_count(self, tmp_path, cpus):
        # the frames before the split index are shared out, and the split's
        # rows are formed in this process as v is stepped: a split at index
        # 0 has no frames before it, and forks no worker
        set_cpus, fork_pids = cpus
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
        assert fork_pids() == [os.getpid()]  # the analysis split at index 3 under 2 CPUs forked
        assert written[:2] == written[2:]
        assert written[0] != written[1]

    @pytest.mark.parametrize("k, split", [pytest.param(k, split, id=str(k) if split is None else f"{k}-split{split}")
                                          for split in (None, "0", "200") for k in (1, 2)])
    def test_peak_memory_is_not_the_runs_frames(self, long_run, cpus, k, split):
        # every process holds one frame at a time, and with a split one
        # frame of v beside it: the peak is one frame's working set, on 1601
        # nodes, plus the written series' text, on 11 columns; a list of the
        # run's frames, or of v's, would hold them all
        set_cpus, fork_pids = cpus
        set_cpus(k)
        frames = len(list((long_run / "snapshots").iterdir()))
        frame_bytes = frames * 2 * 1601 * 8
        assert frames >= 400
        out = long_run.parent / f"an{k}_{split}"
        flags = [] if split is None else ["--t-est", "3.0", "--split-index", split]
        tracemalloc.start()
        try:
            assert main(["analyze", str(long_run), "--out", str(out), "--quiet", *flags]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the frames before a split are shared out; a split at 0 has none
        assert fork_pids() == [os.getpid()] * (k > 1 and split != "0")
        assert peak < 0.1 * frame_bytes, (peak, frame_bytes)

    @pytest.mark.parametrize("damage", ["missing", "malformed", "npz", "bad_zip", "other_mesh", "no_origin_row",
                                        "nonzero_origin", "trailing", "fortran", "truncated", "int64"])
    def test_bad_snapshot_in_workers_half_exit_3(self, tmp_path, capsys, cpus, damage):
        # 5 frames: under 2 CPUs frame 3 is read by a forked worker
        set_cpus, fork_pids = cpus
        set_cpus(1)
        run_dir = tmp_path / "run"
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        frame = run_dir / "frames" / "frame_0003.npy"
        h, hdot = np.load(frame)
        if damage == "missing":
            frame.unlink()
        elif damage == "malformed":  # the frame's snapshot CSV in its place
            frame.write_bytes((run_dir / "snapshots" / "snap_0003.csv").read_bytes())
        elif damage == "npz":  # np.load opens a zip archive whatever its name
            with open(frame, "wb") as fh:
                np.savez(fh, h=h, hdot=hdot)
        elif damage == "bad_zip":  # a zip's magic bytes and no archive
            frame.write_bytes(b"PK\x03\x04" + frame.read_bytes())
        elif damage == "other_mesh":  # a coarser mesh than the run's
            np.save(frame, np.zeros((2, RadialMesh.uniform(0.05, 8.0).nodes.size)))
        elif damage == "no_origin_row":
            np.save(frame, np.stack((h[1:], hdot[1:])))
        elif damage == "trailing":  # the frame's bytes, then 8 more
            frame.write_bytes(frame.read_bytes() + bytes(8))
        elif damage == "fortran":  # the same (2, nodes) values, stored column by column
            np.save(frame, np.asfortranarray(np.stack((h, hdot))))
        elif damage == "truncated":  # the last float cut off
            frame.write_bytes(frame.read_bytes()[:-8])
        elif damage == "int64":  # the frame's own data bytes, under another dtype
            np.save(frame, np.stack((h, hdot)).view(np.int64))
        else:  # hdot(0) = 1
            np.save(frame, np.stack((h, hdot + (np.arange(h.size) == 0))))
        set_cpus(2)
        capsys.readouterr()
        assert main(["analyze", str(run_dir), "--out", str(tmp_path / "an"), "--quiet"]) == 3
        assert str(frame) in capsys.readouterr().err
        assert fork_pids() == [os.getpid()]
        assert_no_worker_left()

    def test_run_without_frames_exit_3(self, tmp_path, capsys):
        # a run directory written before simulate wrote frames/
        run_dir = tmp_path / "run"
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        shutil.rmtree(run_dir / "frames")
        assert main(["analyze", str(run_dir), "--out", str(tmp_path / "an"), "--quiet"]) == 3
        assert str(run_dir / "frames" / "frame_0000.npy") in capsys.readouterr().err
        assert not (tmp_path / "an").exists()

    @pytest.mark.parametrize("nodes", [3, 2401, 10**7 + 1])
    def test_frame_header_is_np_saves(self, nodes):
        # a frame is read as the bytes np.save writes: its header, formed
        # once per run, must be np.save's own for a (2, nodes) float64
        # array, on meshes up to one node past the 10**7 a config allows
        class Header(Exception):
            pass

        class Sink:  # np.save writes the header in one call, then the data
            def write(self, data):
                raise Header(bytes(data))

        with pytest.raises(Header) as written:
            np.save(Sink(), np.broadcast_to(0.0, (2, nodes)))
        mesh = SimpleNamespace(nodes=SimpleNamespace(size=nodes))  # no 10**7-node mesh is built
        assert cli._RunFrames(Path("frames"), [], mesh).header == written.value.args[0]

    def test_frames_are_the_solvers_states(self, tmp_path):
        cfg = write(tmp_path / "c.json", NEAR_W_CFG.replace('"every": 0.25', '"every": 0.1') % "0.05")
        run_dir = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        loaded = cli._load_run_dir(run_dir).snapshots
        solved = solver.run(solver.load_config(cfg)).snapshots
        assert len(loaded) == len(solved) > 10
        n = loaded.mesh.nodes.size
        for i, state in enumerate(solved):
            frame = loaded[i]
            assert frame.t == state.t
            assert frame.h.tobytes() == state.h.tobytes() and frame.hdot.tobytes() == state.hdot.tobytes()
            # the frame holds its own 2 n floats, no more
            assert frame.h.base is frame.hdot.base and frame.h.base.nbytes == 2 * n * 8

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
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        config = cli._load_run_dir(run_dir).config
        assert config == solver.RunConfig.from_dict(json.loads(NEAR_W_CFG % "0.1"))
        # the frames are on the config's mesh, and the split evolves v under
        # it: a report without its config is malformed, with a split or not
        report = run_dir / "report.json"
        rep = json.loads(report.read_text())
        del rep["config"]
        report.write_text(json.dumps(rep))
        for name, flags in (("an", []), ("split", ["--t-est", "2.5", "--split-index", "0"])):
            capsys.readouterr()
            assert main(["analyze", str(run_dir), "--out", str(tmp_path / name), "--quiet", *flags]) == 3
            assert capsys.readouterr().err == f"analyze: {report}: malformed report (KeyError('config'))\n"
            assert not (tmp_path / name).exists()

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

    @pytest.mark.parametrize("change", [
        pytest.param(lambda ts: ["99.0"] * len(ts), id="every_t"),
        pytest.param(lambda ts: [*ts[:3], "99.0", *ts[4:]], id="one_t"),
        pytest.param(lambda ts: [*ts[:-1], repr(float(np.nextafter(float(ts[-1]), np.inf)))], id="last_t_one_ulp"),
    ])
    def test_series_times_not_the_reports_exit_3(self, tmp_path, capsys, change):
        # series.csv's t column must be report.json's snapshot_times, or
        # analyze would write the report's times beside that file's E
        run_dir = tmp_path / "run"
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        series = run_dir / "series.csv"
        header, *rows = series.read_text().splitlines(keepends=True)
        times = change([row.partition(",")[0] for row in rows])
        series.write_text("".join([header, *(t + "," + row.partition(",")[2] for t, row in zip(times, rows))]))
        capsys.readouterr()
        assert main(["analyze", str(run_dir), "--out", str(tmp_path / "an"), "--quiet"]) == 3
        assert capsys.readouterr().err == f"analyze: {series}: its t column is not report.json's snapshot_times\n"
        assert not (tmp_path / "an").exists()

    @pytest.mark.parametrize("text", [
        '{"outcome": "Completed"}',
        "not json\n",
        '{"snapshot_times": 5, "outcome": "Completed", "t_star": null}',
        *('{"snapshot_times": [0.0], "outcome": "Completed", "t_star": null, "contamination_time": 0.0,'
          f' "energy_drift": 0.0, "config": {config}}}'
          for config in ("null", "[0.5]", '{"cfl": 0.9}', '{"mesh": {"h": 0.04}}')),
        # the run's own report with snapshot times that no run writes
        pytest.param(lambda times: [*times[:-1], float("nan")], id="nan_last_time"),
        pytest.param(lambda times: [*times[:3], times[4], times[3]], id="swapped_times"),
    ])
    def test_bad_report_exit_3(self, tmp_path, capsys, text):
        run_dir = tmp_path / "run"
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        report = run_dir / "report.json"
        if callable(text):
            rep = json.loads(report.read_text())
            text = json.dumps({**rep, "snapshot_times": text(rep["snapshot_times"])})
        report.write_text(text)
        # with a split too, which would restart v from these times
        for flags in ([], ["--t-est", "2.0", "--split-index", "3"]):
            capsys.readouterr()
            assert main(["analyze", str(run_dir), "--out", str(tmp_path / "an"), "--quiet", *flags]) == 3
            assert f"analyze: {report}: malformed report (" in capsys.readouterr().err
            assert not (tmp_path / "an").exists()

    @pytest.mark.parametrize("key", ["contamination_time", "energy_drift"])
    def test_report_without_key_exit_3(self, tmp_path, capsys, key):
        # every report.json that simulate writes has the key
        run_dir = tmp_path / "run"
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        report = run_dir / "report.json"
        rep = json.loads(report.read_text())
        del rep[key]
        report.write_text(json.dumps(rep))
        capsys.readouterr()
        assert main(["analyze", str(run_dir), "--out", str(tmp_path / "an"), "--quiet"]) == 3
        assert capsys.readouterr().err == f"analyze: {report}: malformed report ({KeyError(key)!r})\n"

    def test_report_with_seed_exit_3(self, tmp_path, capsys):
        # a config's fields hold no seed, so a report written with one is malformed
        run_dir = tmp_path / "run"
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        report = run_dir / "report.json"
        rep = json.loads(report.read_text())
        rep["config"]["seed"] = None
        report.write_text(json.dumps(rep))
        capsys.readouterr()
        assert main(["analyze", str(run_dir), "--out", str(tmp_path / "an"), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"analyze: {report}: malformed report (TypeError(") and "'seed'" in err

    def test_report_with_unread_data_key_exit_3(self, tmp_path, capsys):
        # report.json's config is checked whole, its data.* keys too, as
        # simulate's config file is
        run_dir = tmp_path / "run"
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
        report = run_dir / "report.json"
        rep = json.loads(report.read_text())
        rep["config"]["params"]["amplitude"] = 0.3
        report.write_text(json.dumps(rep))
        capsys.readouterr()
        assert main(["analyze", str(run_dir), "--out", str(tmp_path / "an"), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"analyze: {report}: malformed report (") and "data.amplitude is not read" in err
        assert not (tmp_path / "an").exists()


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

    @pytest.mark.parametrize("n", [-1, 0])
    def test_max_bubbles_below_one_exit_2(self, tmp_path, capsys, n):
        # such a count used to exit 0 with an empty decomposition
        mesh = RadialMesh.graded(1e-6, 1e3, 60)
        snap = tmp_path / "snap.csv"
        solver.save_snapshot(FieldState.from_u(mesh, eval_w(mesh.nodes, GroundStateParams(lam=0.1)),
                                                np.zeros_like(mesh.nodes)), snap)
        out = tmp_path / "prof"
        assert main(["profiles", str(snap), "--out", str(out), "--max-bubbles", str(n), "--quiet"]) == 2
        assert capsys.readouterr().err == f"profiles: --max-bubbles must be >= 1, got {n}\n"
        assert not out.exists()

    def test_coarse_snapshot_without_range_exit_2(self, tmp_path, capsys):
        # on 21 uniform nodes to r = 10 the default scale range is empty; it
        # used to exit 3. A range on the command line makes the same file work
        mesh = RadialMesh.uniform(0.5, 10.0)
        snap = tmp_path / "snap.csv"
        solver.save_snapshot(FieldState.from_u(mesh, eval_w(mesh.nodes), np.zeros_like(mesh.nodes)), snap)
        out = tmp_path / "prof"
        assert main(["profiles", str(snap), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"profiles: {snap}: ") and "--lam-min" in err and "--lam-max" in err
        assert not out.exists()
        assert main(["profiles", str(snap), "--out", str(out), "--lam-min", "0.5", "--lam-max", "3", "--quiet"]) == 0
        assert len(json.loads((out / "decomposition.json").read_text())["bubbles"]) == 1

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

    def test_one_series_per_cell(self, tmp_path, cpus, monkeypatch):
        # a blow-up cell's nu_hat reads the series its series.csv was written
        # from; on one CPU both cells run in this process, where calls count
        set_cpus, _ = cpus
        set_cpus(1)
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

    def test_cells_write_serially_in_workers(self, tmp_path, cpus):
        # two cells, with no cut-off for a frame pass: under 2 CPUs the cells
        # are shared out and none forks a worker of its own
        set_cpus, fork_pids = cpus
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        outs = {}
        for k in (2, 1):
            set_cpus(k)
            outs[k] = tmp_path / f"cpus{k}"
            assert main(["sweep", "--config", cfg, "--param", "data.amp=0.2,0.3",
                         "--out", str(outs[k]), "--quiet"]) == 0
            assert fork_pids() == [os.getpid()] * (k - 1)  # the sweep's worker, none forked in a cell
        for cell in ("cell_000", "cell_001"):
            assert run_files(outs[2] / cell) == run_files(outs[1] / cell)
        assert (outs[2] / "aggregate.csv").read_bytes() == (outs[1] / "aggregate.csv").read_bytes()

    @pytest.mark.parametrize("min_rows", [1005, FAN_OUT_MIN_ROWS])
    def test_cells_shared_out_at_any_size(self, tmp_path, cpus, monkeypatch, min_rows):
        # two cells of 1005 rows each, at the cut-off or far under it: under
        # 2 CPUs the sweep shares them out, and no cell forks a worker of its own
        set_cpus, fork_pids = cpus
        set_cpus(2)
        monkeypatch.setattr(cli, "_FAN_OUT_MIN_ROWS", min_rows)
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--param", "data.amp=0.2,0.3", "--out", str(out), "--quiet"]) == 0
        assert fork_pids() == [os.getpid()]
        cell_cfg = write(tmp_path / "cell.json", BUMP_CFG.replace('"amp": 0.3', '"amp": 0.2'))
        set_cpus(1)
        assert main(["simulate", "--config", cell_cfg, "--out", str(tmp_path / "run"), "--quiet"]) == 0
        assert run_files(out / "cell_000") == run_files(tmp_path / "run")

    def test_lone_cell_shares_out_its_frames(self, tmp_path, cpus):
        # a sweep of one cell runs it in this process, and its frame pass
        # shares out the frames
        set_cpus, fork_pids = cpus
        set_cpus(2)
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--param", "data.amp=0.2", "--out", str(out), "--quiet"]) == 0
        assert fork_pids() == [os.getpid()]
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

    def test_param_key_given_twice_exit_2(self, tmp_path, capsys):
        # the later values would replace the earlier in every cell
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--param", "data.amp=1,2", "--param", "data.sigma=1",
                     "--param", "data.amp=3", "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == "sweep: --param data.amp given twice\n"
        assert not out.exists()

    def test_template_with_unread_key_exit_2(self, tmp_path, capsys):
        # the template is checked whole, as simulate's config is, before any
        # cell runs or anything is written
        cfg = write(tmp_path / "c.json", BUMP_CFG.replace('"amp": 0.3', '"amplitude": 0.3'))
        out = tmp_path / "sweep"
        capsys.readouterr()
        assert main(["sweep", "--config", cfg, "--param", "data.center=1,2", "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == ("sweep: data.amplitude is not read by data.family = bump, "
                                           "which reads data.amp, data.sigma, data.center\n")
        assert not out.exists()

    def test_cell_with_data_not_finite_writes_no_directory(self, tmp_path):
        # sigma**2 underflows to 0: the cell fails before it writes anything
        cfg = write(tmp_path / "c.json", BUMP_CFG)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--param", "data.sigma=1.0,1e-300", "--out", str(out), "--quiet"]) == 0
        with open(out / "aggregate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["outcome"] for row in rows] == ["Completed", "Failed"]
        assert rows[1]["error"].endswith("gives initial data that is not finite")
        assert (out / "cell_000").is_dir() and not (out / "cell_001").exists()

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

    def test_dotted_template(self, tmp_path):
        cfg = write(tmp_path / "c.json", json.dumps({
            "mesh.h": 0.04, "mesh.rmax": 8.0, "t_end": 1.0, "output.every": 0.25, "data.family": "bump",
            "data.amp": 0.3, "data.sigma": 1.0, "data.center": 3.0,
        }))
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


# a config file's damage: its text, and the end of the one stderr line it
# gives where that is not the reader's own
BAD_CONFIG_FILES = {
    "missing": (None, None),
    "malformed": ('{"mesh": {"h": 0.04,}}', None),
    "directory": (None, None),
    # the one config syntax is a JSON object: key = value lines are refused
    "key_value": ("mesh.h = 0.04\nmesh.rmax = 8.0\ndata.family = bump\n", "Expecting value: line 1 column 1 (char 0)"),
    "array": ("[1]", "not a JSON object"),
    "empty_array": ("[]", "not a JSON object"),
    "number": ("0.5", "not a JSON object"),
    "string": ('"mesh.h = 0.04"', "not a JSON object"),
    "null": ("null", "not a JSON object"),
}


@pytest.mark.parametrize("damage", list(BAD_CONFIG_FILES))
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_bad_config_file_exit_2(tmp_path, capsys, command, damage):
    cfg = tmp_path / "c.json"
    text, reason = BAD_CONFIG_FILES[damage]
    if text is not None:
        cfg.write_text(text)
    elif damage == "directory":
        cfg.mkdir()
    extra = ["--param", "t_end=0.5"] if command == "sweep" else []
    capsys.readouterr()
    assert main([command, "--config", str(cfg), *extra, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{command}: cannot read config {cfg}: ") and err.count("\n") == 1
    assert reason is None or err == f"{command}: cannot read config {cfg}: {reason}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_seed_key_exit_2(tmp_path, capsys, command):
    # no code reads a seed, so the config has no such key
    cfg = write(tmp_path / "c.json", BUMP_CFG[:-1] + ', "seed": 11}')
    extra = ["--param", "t_end=0.5"] if command == "sweep" else []
    capsys.readouterr()
    assert main([command, "--config", cfg, *extra, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err == f"{command}: unknown config key: seed\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "c.json", "--jobs", "2"],
        ["simulate", "--config", "c.json", "--seed", "7"],
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
def test_unread_flags_rejected(capsys, argv):
    # each subcommand declares only the flags it reads; argparse names the
    # first it does not take after its usage line
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("usage: ")
    assert err[1].startswith("critwave: error: unrecognized arguments: ") and argv[-2] in err[1]


LAM_RANGE = "profiles: need 0 < --lam-min < --lam-max < inf, got "


@pytest.mark.parametrize("argv, message", [
    (["profiles", "SNAP", "--lam-min", "0", "--lam-max", "1"], LAM_RANGE + "0.0 and 1.0"),
    (["profiles", "SNAP", "--lam-min", "2", "--lam-max", "1"], LAM_RANGE + "2.0 and 1.0"),
    (["profiles", "SNAP", "--lam-min", "nan", "--lam-max", "1"], LAM_RANGE + "nan and 1.0"),
    (["profiles", "SNAP", "--lam-min", "1", "--lam-max", "inf"], LAM_RANGE + "1.0 and inf"),
    (["dalembert", "evolve", "--data", "DATA", "--t", "nan"], "dalembert evolve: --t must be finite, got nan"),
    (["dalembert", "evolve", "--data", "DATA", "--t", "inf"], "dalembert evolve: --t must be finite, got inf"),
    # the 1e-12 breakpoint merge at |t| = 1e15 would drop the data's unit cells
    (["dalembert", "evolve", "--data", "DATA", "--t=-1e15"],
     "dalembert evolve: --t: |t| = 1e+15 merges breakpoints up to 1e+03 apart at |r| = 2, "
     "half the data's cell 1 there or more"),
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
], ids=["lam_min_zero", "lam_min_above_max", "lam_min_nan", "lam_max_inf", "t_nan", "t_inf", "t_far", "lone_lam_min",
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


def src_env():
    """The environment with the tested critwave first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_import_loads_no_process_pool():
    # _in_parallel forks its workers itself: the CLI loads neither
    # multiprocessing nor concurrent.futures
    script = ("import sys, critwave.cli; "
              "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path), blowup, BUMP_CFG],
        capture_output=True, text=True, env=src_env(), timeout=300,
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
