"""Exact scale covariance of the solver and its diagnostics.

If u solves d_t^2 u = Laplacian u + u^5, so does lam^{-1/2} u(t / lam, r / lam),
with the same energy. On a uniform mesh the scheme inherits this bit for bit
at lam = 4^k: h = r u scales by 2^k and hdot by 2^-k, while r, the spacing,
dt and t scale by 4^k, and multiplying by a power of 2 rounds nothing. So a
run of a config scaled by 4^k reproduces every frame and time, and its
energies to the rounding of the libm pows in them. So does the split's
regular part v, restarted at a snapshot from data cut off at a radius
and margin that scale alike.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critwave import analysis, solver
from critwave.errors import DegenerateInputError
from critwave.ground_state import _gradient_kinetic, w_constants, w_exterior_grad, w_field

# config keys that are lengths or times, scaled by 4^k; data.amp and the
# blow-up threshold (values of u) scale by 2^-k, and every other key is
# scale-free
LENGTHS = {"mesh.h", "mesh.rmax", "t_end", "output.every", "data.lambda", "data.r_cut", "data.sigma",
           "data.center"}
AMPLITUDES = {"data.amp", "blowup_threshold"}

# series columns by the power of 4 they scale by: lengths and times 1,
# sup_u -1/2; E_ball_<rho> is an energy (power 0) and g_<R> scales as z1.
# E, f and d are checked apart (see the test)
POWERS = {"t": 1.0, "sup_u": -0.5, "mu": 1.0, "nu": 1.0, "lambda1": 1.0, "z1": 1.0, "z2": 1.0, "Z": 1.0}


def scaled(flat: dict, k: int) -> dict:
    """The flat config `flat` scaled by lam = 4^k, key by key."""
    return {key: value * 4.0**k if key in LENGTHS else value * 2.0**-k if key in AMPLITUDES else value
            for key, value in flat.items()}


# every length of the data is set, so that no unscaled default is read.
# The bump's sigma^2 and the W term's lam^{-1/2} are libm pows of Python
# floats, which are not always correctly rounded (pow(4 lam, -1/2) differs
# from pow(lam, -1/2) / 2 for about 6 in 10^4 uniform lam, and
# pow(1.4999999999999998 / 4, 2) from pow(1.4999999999999998, 2) / 16), so
# sigma is drawn from eighths, whose squares are exact, and lambda from
# powers of 4
BUMP_DATA = {"data.amp": st.floats(0.05, 3.0), "data.sigma": st.integers(4, 12).map(lambda n: n / 8),
             "data.center": st.floats(0.0, 3.0)}
DATA = {
    "bump": st.fixed_dictionaries(BUMP_DATA),
    "near_w": st.fixed_dictionaries({"data.delta": st.floats(-0.2, 0.2), "data.lambda": st.sampled_from([0.25, 1.0]),
                                     "data.r_cut": st.floats(1.0, 3.0)}),
    "perturbed_w": st.fixed_dictionaries({"data.lambda": st.sampled_from([0.25, 1.0]),
                                          "data.eps": st.floats(-1.0, 1.0), **BUMP_DATA}),
}


@st.composite
def tiny_runs(draw):
    """A flat config of a run on a few dozen nodes, its family's data drawn
    on both sides of blow-up."""
    family = draw(st.sampled_from(sorted(DATA)))
    return {
        "mesh.h": draw(st.sampled_from([0.1, 0.125, 0.2])),
        "mesh.rmax": draw(st.sampled_from([6.0, 8.0])),
        "cfl": draw(st.sampled_from([0.3, 0.5])),
        "t_end": 3.0,
        "output.every": draw(st.sampled_from([0.25, 0.5])),
        "nonlinear": draw(st.booleans()),
        "blowup_threshold": draw(st.sampled_from([20.0, 1e3])),
        "data.family": family,
        **draw(DATA[family]),
    }


def run_and_series(flat: dict, ball: float, g: float):
    report = solver.run(solver.RunConfig.from_dict(flat))
    return report, analysis.diagnostics_series(report, (ball,), (g,))


def assert_series_scaled(series_a, series_b, k: int) -> None:
    """Column by column, in series order, series_b is series_a scaled by
    4^k at each column's power (E, f and d aside; the radius columns' names
    differ); f to the rounding of the libm pow in it."""
    assert len(series_b.columns) == len(series_a.columns)
    for name_a, name_b in zip(series_a.columns, series_b.columns):
        if name_a in ("E", "f", "d"):
            continue
        power = 0.0 if name_a.startswith("E_ball_") else 1.0 if name_a.startswith("g_") else POWERS[name_a]
        assert np.array_equal(series_b.data[name_b], series_a.data[name_a] * 4.0**(k * power), equal_nan=True), name_a

    # f pairs a with W at scale lambda1, whose lambda1^{-3/2} is a libm pow
    assert np.allclose(series_b.data["f"], series_a.data["f"], rtol=1e-12, atol=1e-12, equal_nan=True)


BLOWUP = {"mesh.h": 0.1, "mesh.rmax": 6.0, "cfl": 0.5, "t_end": 3.0, "output.every": 0.25, "nonlinear": True,
          "blowup_threshold": 20.0, "data.family": "bump", "data.amp": 3.0, "data.sigma": 1.0, "data.center": 1.0}


@settings(max_examples=200, deadline=None)
@given(flat=tiny_runs(), k=st.sampled_from([-1, 1]), ball=st.sampled_from([1.0, 2.5]), g=st.sampled_from([2.0, 4.0]))
@example(flat=BLOWUP, k=1, ball=1.0, g=2.0)
@example(flat={**BLOWUP, "data.amp": 0.3}, k=-1, ball=2.5, g=4.0)
def test_scaled_run_is_the_run_scaled(flat, k, ball, g):
    a, series_a = run_and_series(flat, ball, g)
    b, series_b = run_and_series(scaled(flat, k), ball * 4.0**k, g * 4.0**k)

    assert b.outcome == a.outcome
    assert b.t_star == (None if a.t_star is None else a.t_star * 4.0**k)
    assert np.array_equal(b.times, a.times * 4.0**k)
    assert len(b.snapshots) == len(a.snapshots)
    assert np.array_equal(b.snapshots[0].mesh.nodes, a.snapshots[0].mesh.nodes * 4.0**k)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert np.array_equal(sb.h, sa.h * 2.0**k) and np.array_equal(sb.hdot, sa.hdot * 2.0**-k)
        assert _gradient_kinetic(sb) == _gradient_kinetic(sa)
    # the energy's potential term integrates u**6, a libm pow at each node,
    # whose (2^-k u)^6 differs from 2^-6k u^6 at about 1 node in 10^6: E,
    # the drift and f (below) are the same to that pow's rounding
    assert np.allclose(b.energies, a.energies, rtol=1e-13, atol=1e-13)
    assert b.energy_drift == pytest.approx(a.energy_drift, rel=1e-9, abs=1e-12)
    # the support test is relative to each field's own max
    assert b.contamination_time == a.contamination_time * 4.0**k

    assert_series_scaled(series_a, series_b, k)  # E is the energies above

    # d's reference is W's gradient norm on the run's own mesh: on run A's
    # frames, d under run B's reference is run B's d. That reference is
    # |grad W|^2 - w_exterior_grad(rmax) to the mesh's quadrature error, so
    # the same field reads a d higher by 4 w_exterior_grad(rmax) than under
    # the full-space norm
    mesh = b.snapshots[0].mesh
    ref = _gradient_kinetic(w_field(mesh))[0]
    assert ref == pytest.approx(w_constants()["grad_norm_sq"] - w_exterior_grad(mesh.rmax), rel=0.02)
    assert np.array_equal(series_b.data["d"], [analysis.d_functional(s, grad_ref=ref) for s in a.snapshots])


def split_series(report, ball: float, g: float, T_est: float, index: int):
    """The series of `report` split at (T_est, index), or the time at which
    the split's regular part v blows up."""
    t_stars = []

    def run(*args, **kwargs):
        v_run = solver.run(*args, **kwargs)
        t_stars.append(v_run.t_star)
        return v_run

    with mock.patch.object(analysis, "run", run):
        try:
            return analysis.diagnostics_series(report, (ball,), (g,), split=(T_est, index))
        except DegenerateInputError:
            return t_stars[0]


@settings(max_examples=100, deadline=None)
@given(flat=tiny_runs(), k=st.sampled_from([-1, 1]), ball=st.sampled_from([1.0, 2.5]), g=st.sampled_from([2.0, 4.0]),
       at=st.floats(0.0, 1.0), reach=st.floats(0.05, 4.0))
# v blows up, at t = 1.25, before u does
@example(flat={**BLOWUP, "mesh.rmax": 8.0, "data.amp": 1.0, "data.center": 2.0}, k=1, ball=1.0, g=2.0, at=0.0, reach=1.0)
@example(flat={**BLOWUP, "data.amp": 0.3}, k=-1, ball=2.5, g=4.0, at=0.5, reach=1.0)
def test_scaled_split_is_the_split_scaled(flat, k, ball, g, at, reach):
    # the split at snapshot `index`, T_est `reach` after it: its cut-off
    # radius T_est - t0, margin 2 dr + 2 cfl dr and cut-off ratio
    # (r - a) / (b - a) scale exactly, so v's frames do, and a = u - v
    a = solver.run(solver.RunConfig.from_dict(flat))
    b = solver.run(solver.RunConfig.from_dict(scaled(flat, k)))
    index = min(int(at * a.times.size), a.times.size - 1)
    T_est = a.times[index] + reach
    split_a = split_series(a, ball, g, T_est, index)
    split_b = split_series(b, ball * 4.0**k, g * 4.0**k, T_est * 4.0**k, index)
    if isinstance(split_a, float):  # v blew up, in both runs
        assert split_b == split_a * 4.0**k
    else:
        assert_series_scaled(split_a, split_b, k)
