"""Exact piecewise solutions of the free radial wave equation."""

import csv
import functools
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critwave import dalembert as da
from critwave.errors import DegenerateInputError, InvalidDataError, InvalidParameterError
from critwave.radial import gaussian_bump
from critwave.ground_state import w_profile
from critwave.mesh import RadialMesh
from test_solver import ANY_FLOAT


def graded_bump():
    """A Gaussian bump and a velocity bump reduced onto RadialMesh.graded(1e-8, 1e6, 48)'s nodes."""
    return da.reduce(gaussian_bump(1.0, 0.8, 3.0), lambda r: 0.3 * np.exp(-((np.asarray(r) - 2.0) ** 2)),
                     RadialMesh.graded(1e-8, 1e6, 48).nodes)


def step_velocity_data():
    """u0 = 0 and unit 1d velocity on the cell [1, 2]."""
    return da.RadialData(
        knots=np.array([0.0, 1.0, 2.0]),
        f0=np.zeros(3),
        f1=np.array([0.0, 1.0]),
    )


def pulse_data():
    """f0 a hat of height 1/2 on [0, 2] and unit 1d velocity on [1, 2]."""
    return da.RadialData(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 0.0]), np.array([0.0, 1.0]))


class TestBuildEvolve:
    def test_far_time_exact_until_the_merge_reaches_a_cell(self):
        wave = da.build_F(pulse_data())
        moved = da.evolve(wave, 1000.0)
        assert moved.knots.tolist() == [0.0, 998.0, 999.0, 1000.0, 1001.0, 1002.0]
        assert moved.f0.tolist() == [0.0, 0.0, 0.25, 0.5, 0.75, 0.0]
        assert da.build_F(moved).total_energy() == wave.total_energy()
        # a tolerance 1e-12 * (|t| + 2) of half the unit cell or more would merge the pulse away
        for t in (5e11, -5e11, 1e15, 1e17):
            with pytest.raises(InvalidParameterError, match="at [|]r[|] = 2, half the data's cell 1 there"):
                da.evolve(wave, t)
        assert da.evolve(wave, 4.9e11).knots.size == 6

    def test_graded_data_evolves(self):
        # knots 48 per decade from 1e-8 to 1e6: the smallest cell, 4.9e-10,
        # is far below 1e-12 of the support, and each cell meets the merge
        # tolerance at its own |s| + |t|
        data = graded_bump()
        wave = da.build_F(data)
        back = da.evolve(wave, 0.0)
        assert back.knots.tobytes() == data.knots.tobytes()
        assert np.max(np.abs(back.f0 - data.f0)) <= 1e-14 and np.max(np.abs(back.f1 - data.f1)) <= 1e-14
        for t in (1.0, -1.0, 200.0):
            moved = da.evolve(wave, t)
            assert da.build_F(moved).total_energy() == pytest.approx(wave.total_energy(), rel=1e-12)
        # from |t| = 1e3, 1e-12 * (|t| + 4.2e-8) reaches half the cell at 4.2e-8
        with pytest.raises(InvalidParameterError, match="half the data's cell 1.98e-09 there"):
            da.evolve(wave, 1e3)

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
        # every ratio on a side is at least that side's minimum, and equals it
        # once the moving window has left the support
        rng = np.random.default_rng(17)
        wave = da.build_F(da.random_data(rng))
        rep = da.channel_check(wave, 1.0, 2.5)
        e0 = da.band_energy(wave, 0.0, 1.0, 2.5).value
        far = wave.support_radius + 2.5
        for t in np.linspace(-30.0, 30.0, 4001):
            ratio = da.band_energy(wave, t, 1.0, 2.5).value / e0
            for on_side, mn in ((t >= 0, rep.min_ratio_plus), (t <= 0, rep.min_ratio_minus)):
                if on_side:
                    assert ratio >= mn - 1e-12
                    if abs(t) >= far:
                        assert ratio == pytest.approx(mn, abs=1e-12)

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


def reference_int_dF_sq(wave, a, b):
    """The integral of F'^2 over [a, b], summed cell by cell with np.sum:
    the reference for `int_dF_sq`."""
    if b <= a:
        return 0.0
    lengths = np.clip(np.minimum(wave.s[1:], b) - np.maximum(wave.s[:-1], a), 0.0, None)
    return float(np.sum(wave.dF**2 * lengths))


def reference_build_F(data):
    """`build_F` as np.diff, np.concatenate and np.sum built it: the
    reference for its bytes."""
    k = data.knots
    dk = np.diff(k)
    slopes = np.diff(data.f0) / dk
    pos = 0.5 * slopes + 0.5 * data.f1
    neg = (0.5 * slopes - 0.5 * data.f1)[::-1]
    s = np.concatenate((-k[:0:-1], k))
    dF = np.concatenate((neg, pos))
    f1_int = float(np.sum(data.f1 * dk))
    F_left = -0.5 * data.f0[-1] + 0.5 * f1_int
    return da.OneDWaveData(s, dF, F_left)


def reference_dF_at(wave, x):
    """F' at x, the cell index clipped and masked: the reference for `dF_at`."""
    idx = np.searchsorted(wave.s, x, side="right") - 1
    inside = (idx >= 0) & (idx < wave.dF.size)
    return np.where(inside, wave.dF[np.clip(idx, 0, wave.dF.size - 1)], 0.0)


def reference_evolve(wave, t):
    """`evolve` with np.unique over every candidate knot, F_knots formed
    for each F evaluation and `reference_dF_at`: the reference for its bytes.
    Its merge drops a knot k within 1e-12 * max(1, |t|, k) of the one before."""
    s = wave.s
    cand = np.concatenate((s - t, t - s, [0.0]))
    knots = np.unique(cand[cand >= 0.0])
    if knots.size > 1:
        tol = 1e-12 * np.maximum(knots[1:], max(1.0, abs(t)))
        knots = knots[np.concatenate(([True], np.diff(knots) > tol))]
    if knots[0] != 0.0:
        knots = np.concatenate(([0.0], knots))
    f = wave.F(t + knots) - wave.F(t - knots)
    f[0] = 0.0
    mid = 0.5 * (knots[1:] + knots[:-1])
    ft = reference_dF_at(wave, t + mid) - reference_dF_at(wave, t - mid)
    return da.RadialData(knots, f, ft)


def reference_channel_check(wave, r0, r1):
    """The minimum over every knot-crossing window on each time half-line,
    one scalar integral at a time: the direct reference for the closed-form
    reports of `channel_check`."""
    sq = functools.partial(reference_int_dF_sq, wave)

    def side_min(sign):
        s, t_far = wave.s, wave.support_radius + r1 + 1.0
        if sign > 0:
            const = sq(-r1, -r0)
            ts = np.concatenate(((s - r0) / 2.0, (s - r1) / 2.0, [0.0, t_far]))
            moving = min(sq(2 * t + r0, 2 * t + r1) for t in ts[ts >= 0.0])
        else:
            const = sq(r0, r1)
            ts = np.concatenate(((s + r1) / 2.0, (s + r0) / 2.0, [0.0, -t_far]))
            moving = min(sq(2 * t - r1, 2 * t - r0) for t in ts[ts <= 0.0])
        return 2.0 * (const + moving)

    e0 = 2.0 * (sq(r0, r1) + sq(-r1, -r0))
    if e0 <= 0.0:
        return None
    plus, minus = side_min(+1) / e0, side_min(-1) / e0
    thresh = 0.5 - 1e-12
    side = "Both" if min(plus, minus) >= thresh else ("Plus" if plus >= minus else "Minus")
    return da.ChannelReport(side, max(plus, minus), plus, minus)


BANDS = [(1.0, 2.5), (1.0, np.inf), (0.2, 0.21), (3.0, 9.0)]


class TestWindowSweep:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_knots=st.integers(1, 24))
    def test_reports_equal_scalar_reference(self, seed, n_knots):
        wave = da.build_F(da.random_data(np.random.default_rng(seed), n_knots=n_knots))
        for r0, r1 in BANDS:
            want = reference_channel_check(wave, r0, r1)
            if want is None:
                with pytest.raises(DegenerateInputError):
                    da.channel_check(wave, r0, r1)
                continue
            got = da.channel_check(wave, r0, r1)
            assert got == want
            assert all(type(x) is float for x in (got.min_ratio, got.min_ratio_plus, got.min_ratio_minus))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_int_dF_sq_elementwise(self, seed):
        rng = np.random.default_rng(seed)
        wave = da.build_F(da.random_data(rng))
        a = rng.uniform(-8.0, 8.0)
        windows = [(a, a), (a, a - 1.0), (a, np.inf), (-np.inf, a), (-np.inf, np.inf)]
        for x, y in windows:
            got = wave.int_dF_sq(x, y)
            assert type(got) is float
            assert got == reference_int_dF_sq(wave, x, y)
        assert wave.int_dF_sq(a, a) == wave.int_dF_sq(a, a - 1.0) == 0.0

    def test_fine_reduced_datum_spans_blocks(self):
        grid = np.linspace(0.0, 8.0, 3001)
        data = da.reduce(gaussian_bump(1.0, 0.8, 3.0), lambda r: 0.3 * np.exp(-((r - 2.0) ** 2)), grid)
        wave = da.build_F(data)
        assert da.channel_check(wave, 1.0, 2.5) == reference_channel_check(wave, 1.0, 2.5)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_exterior_half_energy_retention(self, seed):
        # the free-wave exterior channel r > 1 + |t|: at least half on one side
        wave = da.build_F(da.random_data(np.random.default_rng(seed)))
        assert da.channel_check(wave, 1.0, np.inf).min_ratio >= 0.5 - 1e-12


@functools.cache
def acceptance_bump():
    """Acceptance 5's finest oracle datum: a Gaussian bump on 4801 knots."""
    fine = np.linspace(0.0, 12.0, int(round(12.0 / 0.0025)) + 1)
    return da.reduce(gaussian_bump(1.0, 0.8, 3.0), lambda x: np.zeros_like(np.asarray(x, float)), fine)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestEngineBytes:
    """`build_F` and `evolve` write the same bytes as the references."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_knots=st.integers(0, 24), data=st.data())
    def test_bytes_equal_reference(self, seed, n_knots, data):
        # n_knots == 0 stands for acceptance 5's bump
        rng = np.random.default_rng(seed)
        radial = acceptance_bump() if n_knots == 0 else da.random_data(rng, n_knots=n_knots)
        wave, want = da.build_F(radial), reference_build_F(radial)
        assert same_bytes(wave.s, want.s) and same_bytes(wave.dF, want.dF)
        assert same_bytes(wave.F_left, want.F_left) and type(wave.F_left) is type(want.F_left)
        knot, support = float(rng.choice(radial.knots)), float(radial.knots[-1])
        t = data.draw(
            st.sampled_from([0.0, -0.0, knot, -knot])
            | st.floats(-2.0 * support, 2.0 * support)
            | st.builds(lambda sign, d: sign * (support + d), st.sampled_from([1.0, -1.0]), st.floats(0.0, 1e6))
        )
        # each cell [a, b] of the data against 1e-12 * max(1, |t| + b), twice over
        if np.any(np.diff(radial.knots) <= 2e-12 * np.maximum(radial.knots[1:] + abs(t), 1.0)):
            with pytest.raises(InvalidParameterError):
                da.evolve(wave, t)
            return
        got, ref = da.evolve(wave, t), reference_evolve(want, t)
        assert same_bytes(got.knots, ref.knots)
        assert same_bytes(got.f0, ref.f0)
        assert same_bytes(got.f1, ref.f1)

    @pytest.mark.parametrize("t", [0.0, -0.0, 2.0, -2.0, 3.0, 12.0, -12.5, 1e6])
    def test_acceptance_bump(self, t):
        wave = da.build_F(acceptance_bump())
        got, ref = da.evolve(wave, t), reference_evolve(wave, t)
        assert all(same_bytes(a, b) for a, b in zip((got.knots, got.f0, got.f1), (ref.knots, ref.f0, ref.f1)))


def traced_peak(fn, *args):
    """fn(*args) and the peak of traced memory during the call above its start, in bytes."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    out = fn(*args)
    return out, tracemalloc.get_traced_memory()[1] - start


class TestMemory:
    def test_traced_peaks_on_the_finest_oracle_rung(self):
        # the oracle ladder's finest rung: 76801 knots, so 153601 breakpoints of F
        data = da.reduce(gaussian_bump(1.0, 0.8, 3.0), lambda x: np.zeros_like(np.asarray(x, float)),
                         np.linspace(0.0, 12.0, 76801))
        tracemalloc.start()
        try:
            wave, build_peak = traced_peak(da.build_F, data)
            moved, evolve_peak = traced_peak(da.evolve, wave, 4.0)
        finally:
            tracemalloc.stop()
        # build_F's one temporary is the cell widths, less than one knot array
        assert build_peak <= wave.s.nbytes + wave.dF.nbytes + data.knots.nbytes + 2**14
        # evolve holds F at the breakpoints, one array of len(s), and eight
        # blocks of temporaries beyond its output
        out = moved.knots.nbytes + moved.f0.nbytes + moved.f1.nbytes
        assert evolve_peak <= out + wave.s.nbytes + 8 * da._BLOCK * 8


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


# RadialData holds finite values only
FINITE_FLOAT = ANY_FLOAT.filter(math.isfinite)


class TestIO:
    @settings(max_examples=300, deadline=None)
    @given(
        s=st.lists(st.floats(0.0, 1e300, exclude_min=True), min_size=1, max_size=40, unique=True),
        data=st.data(),
    )
    def test_bytes_match_csv_writer(self, s, data):
        knots = np.array([0.0, *sorted(s)])
        f0 = np.array([0.0, *data.draw(st.lists(FINITE_FLOAT, min_size=knots.size - 1, max_size=knots.size - 1))])
        f1 = np.array(data.draw(st.lists(FINITE_FLOAT, min_size=knots.size - 1, max_size=knots.size - 1)))
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

    @pytest.mark.parametrize("knots, f0, f1, message", [
        ([0.0, np.nan, 2.0], [0.0, 0.5, 0.0], [1.0, 0.0], "knots must be finite"),
        ([0.0, 1.0, np.inf], [0.0, 0.5, 0.0], [1.0, 0.0], "knots must be finite"),
        ([0.0, 1.0, 2.0], [0.0, np.nan, 0.0], [1.0, 0.0], "f0 must be finite"),
        ([0.0, 1.0, 2.0], [0.0, 0.5, 0.0], [1.0, -np.inf], "f1 must be finite"),
    ], ids=["nan_knot", "inf_last_knot", "nan_f0", "inf_f1"])
    def test_non_finite_refused(self, knots, f0, f1, message):
        # NaN fails every comparison, so the order check alone lets it through
        with pytest.raises(InvalidDataError) as exc:
            da.RadialData(np.array(knots), np.array(f0), np.array(f1))
        assert str(exc.value) == message

    def test_reduce_from_profile(self):
        grid = np.linspace(0.0, 6.0, 61)
        data = da.reduce(gaussian_bump(1.0, 0.8, 3.0), lambda r: np.zeros_like(np.asarray(r, float)), grid)
        assert data.knots[0] == 0.0
        assert data.f0[0] == 0.0
