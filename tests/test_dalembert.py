"""Exact piecewise solutions of the free radial wave equation."""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critwave import dalembert as da
from critwave.errors import DegenerateInputError, InvalidDataError
from critwave.radial import gaussian_bump
from critwave.ground_state import w_profile
from test_solver import ANY_FLOAT


def step_velocity_data():
    """u0 = 0 and unit 1d velocity on the cell [1, 2]."""
    return da.RadialData(
        knots=np.array([0.0, 1.0, 2.0]),
        f0=np.zeros(3),
        f1=np.array([0.0, 1.0]),
    )


class TestBuildEvolve:
    def test_initial_data_reproduced(self):
        rng = np.random.default_rng(3)
        data = da.random_data(rng)
        wave = da.build_F(data)
        back = da.evolve(wave, 0.0)
        assert np.allclose(np.interp(data.knots, back.knots, back.f0), data.f0, atol=1e-12)

    def test_semigroup(self):
        rng = np.random.default_rng(5)
        data = da.random_data(rng)
        wave = da.build_F(data)
        once = da.evolve(wave, 1.7)
        twice = da.evolve(da.build_F(da.evolve(wave, 0.9)), 0.8)
        grid = np.linspace(0.0, 10.0, 500)
        a = np.interp(grid, once.knots, once.f0)
        b = np.interp(grid, twice.knots, twice.f0)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_energy_conserved(self):
        rng = np.random.default_rng(11)
        data = da.random_data(rng)
        wave = da.build_F(data)
        e0 = wave.total_energy()
        for t in (0.5, 2.0, 7.5):
            moved = da.build_F(da.evolve(wave, t))
            assert moved.total_energy() == pytest.approx(e0, rel=1e-12)

    def test_origin_reflection(self):
        # f(t, 0) = F(t) - F(t) = 0 for all t
        rng = np.random.default_rng(2)
        wave = da.build_F(da.random_data(rng))
        for t in (0.3, 1.1, 4.0):
            moved = da.evolve(wave, t)
            assert moved.f0[0] == 0.0


class TestChannels:
    def test_step_velocity_exact_half(self):
        wave = da.build_F(step_velocity_data())
        e0 = da.band_energy(wave, 0.0, 1.0, 2.0).value
        for t in (3.0, -3.0, 5.5, -10.0):
            ratio = da.band_energy(wave, t, 1.0, 2.0).value / e0
            assert ratio == pytest.approx(0.5, abs=1e-12)

    def test_step_velocity_report(self):
        rep = da.channel_check(da.build_F(step_velocity_data()), 1.0, 2.0)
        assert rep.side == "Both"
        assert rep.min_ratio == pytest.approx(0.5, abs=1e-12)

    def test_exact_min_matches_dense_grid(self):
        rng = np.random.default_rng(17)
        wave = da.build_F(da.random_data(rng))
        exact = da.channel_check(wave, 1.0, 2.5)
        grid = da.channel_check(wave, 1.0, 2.5, t_grid=np.linspace(-30, 30, 4001))
        assert grid.min_ratio_plus >= exact.min_ratio_plus - 1e-12
        assert grid.min_ratio_minus >= exact.min_ratio_minus - 1e-12

    def test_zero_band_raises(self):
        wave = da.build_F(step_velocity_data())
        with pytest.raises(DegenerateInputError):
            da.channel_check(wave, 50.0, 60.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_half_energy_retention_property(self, seed):
        rng = np.random.default_rng(seed)
        wave = da.build_F(da.random_data(rng))
        rep = da.channel_check(wave, 1.0, 2.5)
        assert rep.min_ratio >= 0.5 - 1e-12
        assert rep.min_ratio <= 1.0 + 1e-12


class TestExteriorIdentity:
    @pytest.mark.parametrize("R0", [0.0, 0.5, 2.0])
    def test_gaussian(self, R0):
        rep = da.exterior_identity_check(gaussian_bump(1.3, 0.9, 1.5), R0)
        assert rep.defect <= 1e-8 * max(1.0, abs(rep.lhs))

    def test_ground_state(self):
        rep = da.exterior_identity_check(w_profile(), 1.0)
        assert rep.defect <= 1e-8 * abs(rep.lhs)
        assert rep.boundary_term > 0.0


def annulus_energy(data, center, half_width):
    """Energy int (d_r f)^2 + (d_t f)^2 dr of a piecewise pair over |r - center| <= half_width.

    Both derivatives are constant on each cell, so the clipped cell sum is exact.
    """
    k = data.knots
    density = (np.diff(data.f0) / np.diff(k)) ** 2 + data.f1**2
    lo = np.maximum(k[:-1], center - half_width)
    hi = np.minimum(k[1:], center + half_width)
    return float(np.sum(density * np.clip(hi - lo, 0.0, None)))


class TestHuygens:
    def test_fraction_monotone_to_one(self):
        # strong Huygens: at t = 20 the evolved energy sits in |r - t| <= 5
        rng = np.random.default_rng(23)
        wave = da.build_F(da.random_data(rng))
        t = 20.0
        moved = da.evolve(wave, t)
        total = wave.total_energy()
        f = [annulus_energy(moved, t, R) / total for R in (1.0, 3.0, 6.0, 30.0)]
        assert all(b >= a - 1e-12 for a, b in zip(f, f[1:]))
        assert f[-2] == pytest.approx(1.0, abs=1e-12)
        assert f[-1] == pytest.approx(1.0, abs=1e-12)


def reference_export_csv(data, path):
    """The csv.writer loop that `export_csv` replaced, kept as the
    reference for its bytes."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "f0", "f1"])
        f1 = np.concatenate((data.f1, [0.0]))
        for s, a, b in zip(data.knots, data.f0, f1):
            w.writerow([repr(float(s)), repr(float(a)), repr(float(b))])


class TestIO:
    @settings(max_examples=300, deadline=None)
    @given(
        s=st.lists(st.floats(0.0, 1e300, exclude_min=True), min_size=1, max_size=40, unique=True),
        data=st.data(),
    )
    def test_bytes_match_csv_writer(self, s, data):
        knots = np.array([0.0, *sorted(s)])
        f0 = np.array([0.0, *data.draw(st.lists(ANY_FLOAT, min_size=knots.size - 1, max_size=knots.size - 1))])
        f1 = np.array(data.draw(st.lists(ANY_FLOAT, min_size=knots.size - 1, max_size=knots.size - 1)))
        radial = da.RadialData(knots, f0, f1)
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
            da.export_csv(radial, got)
            reference_export_csv(radial, want)
            assert got.read_bytes() == want.read_bytes()

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(29)
        data = da.random_data(rng)
        path = tmp_path / "data.csv"
        da.export_csv(data, path)
        back = da.import_csv(path)
        assert np.array_equal(back.knots, data.knots)
        assert np.array_equal(back.f0, data.f0)
        assert np.array_equal(back.f1, data.f1)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InvalidDataError):
            da.import_csv(path)

    def test_header_only_reads_as_no_data(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("s,f0,f1\n")
        assert da.import_csv(path) is None
        da.export_csv(None, path)
        assert path.read_bytes() == b"s,f0,f1\r\n"

    @pytest.mark.parametrize("knots", [[], [0.0]])
    def test_fewer_than_two_knots(self, knots):
        # one knot has no cell, so F' would have none to evaluate
        with pytest.raises(InvalidDataError, match="two or more"):
            da.RadialData(np.array(knots), np.zeros(len(knots)), np.zeros(0))

    def test_reduce_from_profile(self):
        grid = np.linspace(0.0, 6.0, 61)
        data = da.reduce(gaussian_bump(1.0, 0.8, 3.0), lambda r: np.zeros_like(np.asarray(r, float)), grid)
        assert data.knots[0] == 0.0
        assert data.f0[0] == 0.0
