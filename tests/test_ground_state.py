"""Ground state, meshes, energy functionals, and variational predicates."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from critwave.errors import InvalidParameterError, OutOfDomainError
from critwave.ground_state import (
    GroundStateParams,
    elliptic_residual,
    energy,
    _gradient_kinetic,
    _w_deriv,
    _w_deriv_log_jet,
    energy_of_profile,
    eval_w,
    eval_w_deriv,
    variational_check,
    w_constants,
    w_exterior_grad,
    w_field,
    w_profile,
)
from critwave import mesh as mesh_module
from critwave.mesh import FieldState, RadialMesh, Region
from critwave import radial
from critwave.radial import FOUR_PI, gaussian_bump, half_line_integral

# ----------------------------------------------------------------- references
# The earlier general-dimension formulas (evaluated at N = 3) and the earlier
# energy(), which integrated a region on a sub-mesh of its nodes with the
# Simpson/trapezoid choice made on that sub-mesh.


def _reference_eval_w(r, lam, iota, N=3):
    r = np.asarray(r, dtype=float)
    p = (N - 2) / 2.0
    val = iota * lam**-p * (1.0 + (r / lam) ** 2 / (N * (N - 2))) ** -p
    return val if val.ndim else float(val)


def _reference_eval_w_deriv(r, lam, iota, N=3):
    r = np.asarray(r, dtype=float)
    p = (N - 2) / 2.0
    rho = r / lam
    val = (
        iota
        * lam ** (-p - 1)
        * (-2.0 * p * rho / (N * (N - 2)))
        * (1.0 + rho**2 / (N * (N - 2))) ** (-p - 1)
    )
    return val if val.ndim else float(val)


def _mp_grad_tail(radius):
    """4 pi int_radius^inf r^2 W'(r)^2 dr at 40 digits, by mpmath's own quadrature."""
    with mpmath.workdps(40):
        r0 = mpmath.mpf(radius)
        f = lambda r: r**4 / 9 / (1 + r**2 / 3) ** 3
        return 4 * mpmath.pi * mpmath.quad(f, [r0, r0 + 1, mpmath.inf])


def _mp_potential():
    """4 pi int_0^inf r^2 W(r)^6 dr at 40 digits."""
    with mpmath.workdps(40):
        return 4 * mpmath.pi * mpmath.quad(lambda r: r**2 / (1 + r**2 / 3) ** 3, [0, 1, mpmath.inf])


def _ulps(got, want):
    """|got - want| in units in the last place of float(want)."""
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(got) - want) / math.ulp(float(want)))


def _reference_integrate(mesh, values, run=slice(None)):
    """The earlier integrate(): scipy's simpson(dx=) on uniform meshes, np.trapezoid otherwise."""
    from scipy.integrate import simpson

    values, nodes = np.asarray(values, dtype=float)[run], mesh.nodes[run]
    if values.size < 2:
        return 0.0
    if mesh.is_uniform:
        return float(simpson(values, dx=mesh.spacing))
    return float(np.trapezoid(values, nodes))


def _reference_energy(field, region):
    """(gradient_sq, kinetic_sq, potential, hardy_sq) as the sub-mesh energy() gave them."""
    from scipy.integrate import simpson

    r0, r1 = region.clip(field.mesh)
    r = field.mesh.nodes
    u, ut, dur = field.u(), field.ut(), field.du_dr()
    mask = (r >= r0 - 1e-12) & (r <= r1 + 1e-12)
    sub = r[mask]
    d = np.diff(sub)
    uniform = d.size > 0 and np.allclose(d, d[0], rtol=1e-12, atol=0.0)

    def integ(vals):
        v = vals[mask]
        if sub.size < 2:
            return 0.0
        if uniform:
            return float(simpson(v, x=sub))
        return float(np.trapezoid(v, sub))

    return tuple(FOUR_PI * integ(f) for f in (r * r * dur**2, r * r * ut**2, r * r * u**6, u * u))


def _four_integral_energy(field, region):
    """(gradient_sq, kinetic_sq, potential, hardy_sq) as energy() gave them
    when it formed all four integrals itself, before `_gradient_kinetic`."""
    mesh = field.mesh
    r0, r1 = region.clip(mesh)
    r = mesh.nodes
    u = field.u()
    ut = field.ut()
    dur = field.du_dr()
    run = slice(np.searchsorted(r, r0 - 1e-12), np.searchsorted(r, r1 + 1e-12, side="right"))
    return (
        FOUR_PI * mesh.integrate(r * r * dur**2, run),
        FOUR_PI * mesh.integrate(r * r * ut**2, run),
        FOUR_PI * mesh.integrate(r * r * u**6, run),
        FOUR_PI * mesh.integrate(u * u, run),
    )


class TestMesh:
    def test_uniform_nodes(self):
        mesh = RadialMesh.uniform(0.1, 2.0)
        assert mesh.nodes[0] == 0.0
        assert mesh.is_uniform
        assert mesh.spacing == pytest.approx(0.1)
        assert mesh.rmax == pytest.approx(2.0)

    def test_graded_nodes(self):
        mesh = RadialMesh.graded(1e-3, 10.0, 20)
        assert mesh.nodes[0] == 0.0
        assert not mesh.is_uniform
        with pytest.raises(InvalidParameterError):
            mesh.spacing

    def test_bad_meshes(self):
        with pytest.raises(InvalidParameterError):
            RadialMesh(np.array([0.1, 0.2, 0.3]))  # no origin
        with pytest.raises(InvalidParameterError):
            RadialMesh(np.array([0.0, 0.2, 0.2]))  # not strictly increasing
        with pytest.raises(InvalidParameterError):
            RadialMesh.uniform(-0.1, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["uniform", "graded", "perturbed"]),
        n=st.integers(3, 400),
        h=st.floats(1e-3, 1.0),
        rel=st.sampled_from([1e-15, 1e-13, 5e-12, 1e-9, 1e-3, -1e-3]),
        data=st.data(),
    )
    def test_spacing_matches_allclose_definition(self, kind, n, h, rel, data):
        nodes = h * np.arange(n, dtype=float)
        if kind == "graded":
            nodes = RadialMesh.graded(h, h * n, n).nodes
        elif kind == "perturbed":
            j = data.draw(st.integers(1, n - 1))
            nodes[j] += rel * h
        mesh = RadialMesh(nodes)
        d = np.diff(mesh.nodes)
        uniform = bool(np.allclose(d, d[0], rtol=1e-12, atol=0.0))
        assert mesh.is_uniform is uniform
        if uniform:
            assert mesh.spacing == float(d[0])
        else:
            with pytest.raises(InvalidParameterError):
                mesh.spacing

    @settings(max_examples=60, deadline=None)
    @given(
        graded=st.booleans(),
        n=st.integers(3, 300),
        h=st.floats(1e-3, 1.0),
        ppd=st.integers(5, 120),
        scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e200]),
        seed=st.integers(0, 2**32 - 1),
        where=st.floats(0.0, 1.0),
    )
    def test_integrate_matches_reference(self, graded, n, h, ppd, scale, seed, where):
        # every run of 0..size nodes, so on uniform meshes every Simpson
        # length 2..300; the weights are positive, so sum |w f| is the
        # reference rule applied to |f|
        mesh = RadialMesh.graded(h, h * n, ppd) if graded else RadialMesh(h * np.arange(n, dtype=float))
        assert mesh.is_uniform is not graded
        size = mesh.nodes.size
        values = scale * np.random.default_rng(seed).standard_normal(size)
        tol = 16.0 * np.finfo(float).eps
        got, want = mesh.integrate(values), _reference_integrate(mesh, values)
        assert abs(got - want) <= tol * _reference_integrate(mesh, np.abs(values))
        for m in range(size + 1):
            start = int(where * (size - m))
            run = slice(start, start + m)
            got, want = mesh.integrate(values, run), _reference_integrate(mesh, values, run)
            assert abs(got - want) <= tol * _reference_integrate(mesh, np.abs(values), run)

    def test_weights_read_only(self):
        mesh = RadialMesh.uniform(0.25, 2.0)
        assert mesh.weights @ np.ones(mesh.nodes.size) == pytest.approx(2.0, rel=1e-15)
        with pytest.raises(ValueError):
            mesh.weights[0] = 1.0

    def test_simpson_exact_on_cubic(self):
        mesh = RadialMesh.uniform(0.25, 2.0)
        r = mesh.nodes
        assert mesh.integrate(r**3) == pytest.approx(2.0**4 / 4.0, rel=1e-14)

    def test_cumulative_matches_trapezoid(self):
        mesh = RadialMesh.uniform(0.1, 1.0)
        vals = np.sin(mesh.nodes)
        cum = mesh.cumulative(vals)
        assert cum[0] == 0.0
        assert cum[-1] == pytest.approx(np.trapezoid(vals, mesh.nodes), rel=1e-14)

    def test_region_clip(self):
        mesh = RadialMesh.uniform(0.1, 2.0)
        assert Region.ball(1.0).clip(mesh) == (0.0, 1.0)
        assert Region.exterior(1.0).clip(mesh) == (1.0, 2.0)
        with pytest.raises(OutOfDomainError):
            Region.ball(5.0).clip(mesh)


class TestFieldState:
    def test_origin_constraint(self):
        mesh = RadialMesh.uniform(0.1, 1.0)
        bad = np.ones(mesh.nodes.size)
        with pytest.raises(InvalidParameterError):
            FieldState(mesh, 0.0, bad, np.zeros_like(bad))

    def test_u_roundtrip(self):
        mesh = RadialMesh.uniform(0.01, 3.0)
        u = np.cos(mesh.nodes)
        state = FieldState.from_u(mesh, u, np.zeros_like(u))
        assert np.max(np.abs(state.u()[1:] - u[1:])) < 1e-14
        # origin value from the one-sided limit of h/r
        assert state.u()[0] == pytest.approx(1.0, abs=1e-3)

    def test_rescale_preserves_energy(self):
        mesh = RadialMesh.uniform(0.005, 30.0)
        u = np.exp(-((mesh.nodes - 3.0) ** 2))
        state = FieldState.from_u(mesh, u, np.zeros_like(u))
        # u -> lam^{-1/2} u(r/lam) leaves |grad u|^2 invariant
        lam = 2.0
        scaled = lam**-0.5 * np.interp(mesh.nodes / lam, mesh.nodes, u)
        e0 = energy(state).gradient_sq
        e2 = energy(FieldState.from_u(mesh, scaled, np.zeros_like(u))).gradient_sq
        assert e2 == pytest.approx(e0, rel=1e-3)


class TestGroundState:
    def test_w_at_origin(self):
        assert eval_w(0.0) == pytest.approx(1.0)

    def test_scaling_relation(self):
        p = GroundStateParams(lam=0.5)
        r = np.linspace(0.0, 5.0, 40)
        expected = 0.5**-0.5 * eval_w(r / 0.5)
        assert np.allclose(eval_w(r, p), expected, rtol=1e-14)

    def test_deriv_matches_fd(self):
        r = np.linspace(0.1, 5.0, 30)
        e = 1e-6
        fd = (eval_w(r + e) - eval_w(r - e)) / (2 * e)
        assert np.allclose(eval_w_deriv(r), fd, atol=1e-8)

    @pytest.mark.parametrize("lam", [1e-4, 0.37, 1.0, 25.0, 1e4])
    def test_log_jet_matches_complex_step(self, lam):
        # d/dx f(x) = Im f(x + i h) / h to rounding for h far below the
        # real part: the jet's d_x and d_xx against its d and d_x
        r = np.concatenate(([0.0], np.geomspace(1e-6, 1e6, 400)))
        d, d_x, d_xx = _w_deriv_log_jet(r, lam)
        assert np.array_equal(d, _w_deriv(r, lam))
        h = 1e-30
        _, d_x_step, _ = _w_deriv_log_jet(r, np.exp(np.log(lam) + 1j * h))
        scale = lam**-1.5
        assert np.max(np.abs(_w_deriv(r, np.exp(np.log(lam) + 1j * h)).imag / h - d_x)) <= 1e-13 * scale
        assert np.max(np.abs(d_x_step.imag / h - d_xx)) <= 1e-13 * scale

    def test_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            GroundStateParams(lam=0.0)
        with pytest.raises(InvalidParameterError):
            GroundStateParams(iota=2)

    def test_grad_norm_closed_form(self):
        # int |grad W|^2 = 3 sqrt(3) pi^2 / 4 in dimension 3
        c = w_constants(3)
        assert c["grad_norm_sq"] == pytest.approx(3.0 * np.sqrt(3.0) * np.pi**2 / 4.0, rel=1e-12)

    def test_pohozaev(self):
        c = w_constants(3)
        assert c["potential_w"] == pytest.approx(c["grad_norm_sq"], rel=1e-10)
        assert c["energy_w"] == pytest.approx(c["grad_norm_sq"] / 3.0, rel=1e-12)
        assert c["sobolev_threshold"] == pytest.approx(np.sqrt(3.0) * c["grad_norm_sq"], rel=1e-12)

    def test_exterior_grad_limits(self):
        c = w_constants(3)
        assert w_exterior_grad(0.0) == pytest.approx(c["grad_norm_sq"], rel=1e-10)
        # far tail ~ 12 pi / R since W ~ sqrt(3)/r, to 1e-15 against mpmath
        for radius in (200.0, 1e6):
            want = _mp_grad_tail(radius)
            assert abs(w_exterior_grad(radius) - want) <= 1e-15 * want

    def test_exterior_grad_decreasing(self):
        # below r ~ 1e-2 the tail moves by less than its rounding (it is flat to O(r^5))
        radii = np.geomspace(1e-2, 1e6, 400)
        assert np.all(np.diff([w_exterior_grad(r) for r in radii]) < 0.0)

    @pytest.mark.parametrize("radius", [-1.0, -1e-300, np.inf, -np.inf, np.nan])
    def test_exterior_grad_bad_radius(self, radius):
        with pytest.raises(InvalidParameterError):
            w_exterior_grad(radius)

    def test_constants_fresh_dict(self):
        c = w_constants(3)
        want = dict(c)
        c["grad_norm_sq"] = 0.0
        assert w_constants(3) == want

    def test_elliptic_residual_small(self):
        mesh = RadialMesh.uniform(0.01, 10.0)
        assert elliptic_residual(w_field(mesh)) < 1e-4


class TestHalfLineRule:
    """`half_line_integral` and the profile norms against W's closed forms."""

    GRAD_W = 3.0 * math.sqrt(3.0) * math.pi**2 / 4.0

    def test_w_norms(self):
        w = w_profile()
        for got, want in ((w.grad_norm_sq(), self.GRAD_W), (w.l2p_norm(6), self.GRAD_W),
                          (w.hardy_sq(), 2.0 * math.sqrt(3.0) * math.pi**2)):
            assert abs(got - want) <= 1e-13 * want

    # past a = 3 the map's length L = a grows with the lower limit
    @pytest.mark.parametrize("radius", [0.5, 1.0, 3.0, 10.0, 30.0, 1e3, 1e4, 1e5, 1e6])
    def test_exterior_grad(self, radius):
        du = w_profile().du
        got = FOUR_PI * half_line_integral(lambda r: r * r * du(r) ** 2, radius)
        want = w_exterior_grad(radius)
        assert abs(got - want) <= 1e-13 * want

    @settings(max_examples=50, deadline=None)
    @given(lam=st.floats(0.3, 3.0))
    def test_scaled_w_grad_norm(self, lam):
        assert abs(w_profile().scaled(lam).grad_norm_sq() - self.GRAD_W) <= 1e-13 * self.GRAD_W

    def test_cli_import_builds_no_rule(self):
        # building the rule costs about 13 ms, so the CLI's import must not
        script = ("import critwave.cli, critwave.radial as radial; "
                  "print(radial._half_line_rule.cache_info().currsize)")
        src = str(Path(radial.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"]


class TestEnergy:
    def test_mesh_energy_matches_quadrature(self):
        mesh = RadialMesh.uniform(0.005, 40.0)
        rep = energy(w_field(mesh))
        prof = energy_of_profile(w_profile())
        # differences are dominated by the truncated tail ~ 12 pi / rmax
        assert rep.gradient_sq == pytest.approx(prof.gradient_sq - w_exterior_grad(40.0), rel=1e-4)
        assert rep.potential == pytest.approx(prof.potential, rel=1e-3)

    def test_region_additivity(self):
        mesh = RadialMesh.uniform(0.01, 8.0)
        state = w_field(mesh)
        full = energy(state).gradient_sq
        inner = energy(state, Region.ball(3.0)).gradient_sq
        outer = energy(state, Region.exterior(3.0)).gradient_sq
        assert inner + outer == pytest.approx(full, rel=1e-6)

    def test_regions_of_fewer_than_two_nodes_vanish(self):
        mesh = RadialMesh.uniform(0.1, 4.0)
        state = w_field(mesh)
        r = mesh.nodes
        for region in (Region.ball(0.03), Region.annulus(r[3] + 0.03, r[3] + 0.07),
                       Region.annulus(r[3] - 0.03, r[3] + 0.03), Region.exterior(r[-1] - 0.03)):
            rep = energy(state, region)
            assert (rep.gradient_sq, rep.kinetic_sq, rep.potential, rep.hardy_sq) == (0.0,) * 4

    def test_whole_mesh_integrals_use_stored_weights(self, monkeypatch):
        # a region that selects every node reads the mesh's weights; a ball
        # builds the weights of its own run for each integral
        mesh = RadialMesh.uniform(0.01, 8.0)
        state = w_field(mesh)
        rebuilt = mesh_module._weights(mesh.nodes, mesh.spacing)
        calls = []
        weights = mesh_module._weights
        monkeypatch.setattr(mesh_module, "_weights", lambda *a: calls.append(1) or weights(*a))
        counts = {}
        for fn in (energy, _gradient_kinetic):
            for region in (Region.full(), Region.ball(3.0)):
                calls.clear()
                fn(state, region)
                counts[fn.__name__, region.r1] = len(calls)
        assert counts == {("energy", np.inf): 0, ("energy", 3.0): 4,
                          ("_gradient_kinetic", np.inf): 0, ("_gradient_kinetic", 3.0): 2}
        # the stored weights are the rebuilt ones, bit for bit
        assert mesh.weights.tobytes() == rebuilt.tobytes()
        values = state.h**2
        assert mesh.integrate(values, slice(0, mesh.nodes.size)) == float(rebuilt @ values)

    def test_static_energy_of_w(self):
        prof = energy_of_profile(w_profile())
        e = 0.5 * prof.gradient_sq - prof.potential / 6.0
        assert e == pytest.approx(w_constants(3)["energy_w"], rel=1e-10)


class TestVariational:
    def test_w_itself_is_boundary_case(self):
        rep = variational_check(w_profile())
        assert rep.hypothesis_holds
        assert rep.bound_holds
        assert rep.below_sobolev_threshold
        assert rep.positivity_holds

    def test_small_multiple_of_w(self):
        rep = variational_check(0.9 * w_profile())
        assert rep.hypothesis_holds
        assert rep.bound_holds and rep.positivity_holds

    def test_large_field_skips_implications(self):
        rep = variational_check(3.0 * w_profile())
        assert not rep.hypothesis_holds
        assert rep.bound_holds is None
        assert not rep.below_sobolev_threshold
        assert rep.positivity_holds is None

    @settings(max_examples=25, deadline=None)
    @given(
        c=st.floats(-1.05, 1.05),
        lam=st.floats(0.3, 3.0),
        amp=st.floats(-0.05, 0.05),
        center=st.floats(0.0, 3.0),
    )
    def test_no_violated_implication(self, c, lam, amp, center):
        prof = c * w_profile().scaled(lam) + gaussian_bump(amp, 1.0, center)
        rep = variational_check(prof)
        if rep.hypothesis_holds:
            assert rep.bound_holds
        if rep.below_sobolev_threshold:
            assert rep.positivity_holds


class TestAgainstReference:
    """The N = 3 formulas and the run-based region quadrature against the references."""

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.one_of(
            st.floats(0.0, 1e8),
            st.lists(st.floats(0.0, 1e8), min_size=1, max_size=20).map(np.array),
        ),
        lam=st.floats(1e-6, 1e6),
        iota=st.sampled_from([-1, 1]),
    )
    def test_w_and_deriv_bitwise(self, r, lam, iota):
        p = GroundStateParams(lam=lam, iota=iota)
        for new, ref in ((eval_w, _reference_eval_w), (eval_w_deriv, _reference_eval_w_deriv)):
            got, want = new(r, p), ref(r, lam, iota)
            assert type(got) is type(want)
            assert np.array_equal(got, want)

    def test_constants_match_mpmath(self):
        c = w_constants(3)
        assert _ulps(c["grad_norm_sq"], _mp_grad_tail(0)) <= 1.0
        assert _ulps(c["potential_w"], _mp_potential()) <= 1.0
        assert abs(w_exterior_grad(0.0) - c["grad_norm_sq"]) <= math.ulp(c["grad_norm_sq"])

    @settings(max_examples=50, deadline=None)
    @given(radius=st.one_of(st.sampled_from([0.0, 1.0, 1e6]), st.floats(0.0, 1e6)))
    def test_exterior_grad_matches_mpmath(self, radius):
        want = _mp_grad_tail(radius)
        assert abs(w_exterior_grad(radius) - want) <= 1e-15 * want

    def test_other_dimensions_rejected(self):
        for N in (2, 4, 5):
            with pytest.raises(InvalidParameterError):
                w_constants(N)

    @settings(max_examples=150, deadline=None)
    @given(
        graded=st.booleans(),
        n=st.integers(3, 1500),
        h=st.floats(0.002, 0.1),
        ppd=st.integers(5, 120),
        lam=st.floats(0.05, 5.0),
        amp=st.floats(-1.0, 1.0),
        center=st.floats(0.0, 5.0),
        kind=st.sampled_from(["full", "ball", "annulus", "exterior"]),
        data=st.data(),
    )
    def test_region_energies_match(self, graded, n, h, ppd, lam, amp, center, kind, data):
        mesh = RadialMesh.graded(h, h * n, ppd) if graded else RadialMesh.uniform(h, h * n)
        r = mesh.nodes
        u = eval_w(r, GroundStateParams(lam=lam)) + amp * np.exp(-((r - center) ** 2))
        ut = amp * r * np.exp(-(r**2))
        field = FieldState.from_u(mesh, u, ut)

        def edge(k):
            # node k, moved by less than the snapping tolerance or by a
            # fraction of the next cell
            off = data.draw(st.sampled_from([0.0, 5e-13, -5e-13, 0.3, 0.7]))
            return max(r[k] + (off if abs(off) < 1e-3 else off * (r[k + 1] - r[k])), 0.0)

        k = data.draw(st.integers(0, r.size - 2))
        if kind == "full":
            region = Region.full()
        elif kind == "ball":
            region = Region.ball(edge(k))
        elif kind == "exterior":
            region = Region.exterior(edge(k))
        else:
            # the same or the next cell gives runs of 0, 1 or 2 nodes
            last = r.size - 2
            k2 = data.draw(st.one_of(st.just(k), st.just(min(k + 1, last)), st.integers(k, last)))
            a, b = sorted((edge(k), edge(k2)))
            assume(a < b)
            region = Region.annulus(a, b)
        rep = energy(field, region)
        got = (rep.gradient_sq, rep.kinetic_sq, rep.potential, rep.hardy_sq)
        # bit for bit against the four-integral energy(), and so the pair
        assert np.array(got).tobytes() == np.array(_four_integral_energy(field, region)).tobytes()
        assert np.array(_gradient_kinetic(field, region)).tobytes() == np.array(got[:2]).tobytes()
        for g, want in zip(got, _reference_energy(field, region)):
            # relative to 1e-12; below the smallest normal float the last
            # bits are gone, so relative error is measured against it there
            assert abs(g - want) <= 1e-12 * max(abs(want), np.finfo(float).tiny)
