"""Ground state, meshes, energy functionals, and variational predicates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critwave.errors import InvalidParameterError, OutOfDomainError
from critwave.ground_state import (
    GroundStateParams,
    elliptic_residual,
    energy,
    energy_of_profile,
    eval_w,
    eval_w_deriv,
    variational_check,
    w_constants,
    w_exterior_grad,
    w_field,
    w_profile,
)
from critwave.mesh import FieldState, RadialMesh, Region, rescale_field
from critwave.radial import gaussian_bump


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
        # the origin-free sub-mesh that energy() integrates regions on, too
        for mesh in (RadialMesh(nodes), RadialMesh.subgrid(nodes[1:])):
            d = np.diff(mesh.nodes)
            uniform = bool(np.allclose(d, d[0], rtol=1e-12, atol=0.0))
            assert mesh.is_uniform is uniform
            if uniform:
                assert mesh.spacing == float(d[0])
            else:
                with pytest.raises(InvalidParameterError):
                    mesh.spacing

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
        e0 = energy(state).gradient_sq
        e2 = energy(rescale_field(state, 2.0)).gradient_sq
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

    def test_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            GroundStateParams(N=2)
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
        # far tail ~ 12 pi / R since W ~ sqrt(3)/r
        assert w_exterior_grad(200.0) == pytest.approx(12.0 * np.pi / 200.0, rel=0.02)

    def test_elliptic_residual_small(self):
        mesh = RadialMesh.uniform(0.01, 10.0)
        assert elliptic_residual(w_field(mesh)) < 1e-4


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
