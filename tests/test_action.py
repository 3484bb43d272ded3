import importlib
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers_geometry import (
    reference_rebased,
    scalar_canonical_current,
    scalar_cone_pair,
    scalar_el_residual,
)

from wfvar.action import (
    _G7,
    _K15,
    _MAX_CELLS,
    _NODES,
    _REL_TARGET,
    _integrate,
    action,
    canonical_current,
    coupling,
    el_residual,
    frechet_directional,
    interaction_density,
    lagrangian_position_partial,
    pullback_mesh,
)
from wfvar.core import (
    BoundaryData,
    PackedChain,
    ParticleParams,
    Perturbation,
    PiecewiseTrajectory,
    Segment,
    Side,
    add_perturbation,
    cross,
    fd_node_velocities,
    hermite_trajectory,
    polygonal_from_vertices,
    vec3,
)
from wfvar.errors import (CollisionError, ContractError, ConvergenceError, DomainError,
                          SuperluminalError)
from wfvar.farfield import lw_far
from wfvar.lightcone import Branch, cone_crossings, cone_pair, cone_time, cone_times, lw_fields
from wfvar.momentum import energy_current, momentum_current

POS = ParticleParams(mass=1.0, charge=1.0)
NEG = ParticleParams(mass=1.0, charge=-1.0)


def static_traj(x, particle=NEG, t0=-50.0, t1=50.0):
    coeffs = np.array([[x[0]], [x[1]], [x[2]]], dtype=float)
    return PiecewiseTrajectory.from_segments((Segment(t0, t1, coeffs),), particle)


def static_pair(d, span=50.0):
    return static_traj([0, 0, 0], POS, -span, span), static_traj([d, 0, 0], NEG, -span, span)


class TestInteractionDensity:
    def test_static_pair_d2(self):
        t1, t2 = static_pair(2.0)
        x1, v1, _ = t1.state(0.0)
        adv = cone_time(t2, (0.0, x1), Branch.ADVANCED)
        ret = cone_time(t2, (0.0, x1), Branch.RETARDED)
        val = interaction_density((x1, v1), adv, ret, m1=1.0, kappa=1.0)
        assert abs(val - (-0.5)) < 1e-14

    def test_static_pair_d1_vanishes(self):
        t1, t2 = static_pair(1.0)
        x1, v1, _ = t1.state(0.0)
        adv = cone_time(t2, (0.0, x1), Branch.ADVANCED)
        ret = cone_time(t2, (0.0, x1), Branch.RETARDED)
        assert abs(interaction_density((x1, v1), adv, ret)) < 1e-14

    def test_free_particle_limit(self):
        t1 = static_traj([0, 0, 0], POS)
        t2 = static_traj([1e9, 0, 0], NEG, -3e9, 3e9)
        x1, v1, _ = t1.state(0.0)
        adv = cone_time(t2, (0.0, x1), Branch.ADVANCED)
        ret = cone_time(t2, (0.0, x1), Branch.RETARDED)
        assert abs(interaction_density((x1, v1), adv, ret, m1=1.0) + 1.0) < 2e-9

    def test_collision_cutoff(self):
        t1, t2 = static_pair(2.0)
        x1, v1, _ = t1.state(0.0)
        adv = cone_time(t2, (0.0, x1), Branch.ADVANCED)
        ret = cone_time(t2, (0.0, x1), Branch.RETARDED)
        squeezed = type(adv)(t_k=adv.t_k, r=1e-12, n_hat=adv.n_hat, v=adv.v,
                             a=adv.a, dilation=adv.dilation, side=adv.side,
                             branch=adv.branch)
        with pytest.raises(CollisionError):
            interaction_density((x1, v1), squeezed, ret)


    @pytest.mark.parametrize("v1", [[1.0, 0, 0], [[0.1, 0, 0], [0, 0.8, -0.8]]],
                             ids=["speed-1", "rows"])
    def test_superluminal_velocity_raises(self, v1):
        t1, t2 = static_pair(2.0)
        x1 = t1.position(0.0)
        adv = cone_time(t2, (0.0, x1), Branch.ADVANCED)
        ret = cone_time(t2, (0.0, x1), Branch.RETARDED)
        with pytest.raises(SuperluminalError):
            interaction_density((x1, v1), adv, ret)


class TestAction:
    def test_static_pair_window4(self):
        t1, t2 = static_pair(2.0)
        val = action(t1, t2, BoundaryData(0.0, 4.0))
        assert abs(val - (-2.0)) < 1e-10 * 2.0

    def test_zero_length_window_returns_constant(self):
        t1, t2 = static_pair(2.0)
        bd = BoundaryData(1.0, 1.0, k2=0.625)
        assert action(t1, t2, bd) == 0.625

    def test_static_pair_d1_window7(self):
        t1, t2 = static_pair(1.0)
        val = action(t1, t2, BoundaryData(-3.0, 4.0))
        assert abs(val) < 1e-11

    def test_k2_offset(self):
        t1, t2 = static_pair(2.0)
        bd = BoundaryData(0.0, 4.0, k2=1.5)
        val = action(t1, t2, bd)
        assert abs(val - (-0.5)) < 1e-10

    def test_spurious_break_does_not_move_the_integral(self):
        t1, t2 = static_pair(2.0)
        split = PiecewiseTrajectory.from_segments(
            (reference_rebased(t1.segments[0], -50.0, 1.7),
             reference_rebased(t1.segments[0], 1.7, 50.0)),
            POS,
        )
        bd = BoundaryData(0.0, 4.0)
        assert abs(action(split, t2, bd) - action(t1, t2, bd)) < 1e-12

    def test_mesh_refinement_stability(self):
        # moving pair with a partner break pulled back into the window
        t1 = polygonal_from_vertices(
            [(-40.0, [0, -4, 0]), (0.0, [0, 0, 0]), (40.0, [0, 4.8, 0])], POS
        )
        t2 = polygonal_from_vertices(
            [(-40.0, [3, 2, 0]), (1.0, [3, -2.1, 0]), (40.0, [3, 1.8, 0])], NEG
        )
        bd = BoundaryData(-2.0, 5.0)
        base = action(t1, t2, bd)
        mesh = pullback_mesh(t1, t2, *bd.window(1))
        mids = [0.5 * (a + b) for a, b in zip(mesh, mesh[1:])]
        refined_t1 = t1
        for m in mids:
            seg = refined_t1.segment_at(m)
            parts = []
            for s in refined_t1.segments:
                if s is seg:
                    parts.extend([reference_rebased(s, s.t_start, m),
                                  reference_rebased(s, m, s.t_end)])
                else:
                    parts.append(s)
            refined_t1 = PiecewiseTrajectory.from_segments(tuple(parts), POS)
        refined = action(refined_t1, t2, bd)
        assert abs(refined - base) < 1e-10 * max(1.0, abs(base))

    def test_pullback_mesh_contains_partner_break_images(self):
        t1, _ = static_pair(2.0)
        t2 = polygonal_from_vertices(
            [(-50.0, [2, 0, 0]), (1.0, [2, 0, 0]), (50.0, [2, 4.9, 0])], NEG
        )
        mesh = pullback_mesh(t1, t2, -6.0, 6.0)
        # retarded image crosses the break at t1 = 1 + 2, advanced at t1 = 1 - 2
        assert any(abs(p - 3.0) < 1e-9 for p in mesh)
        assert any(abs(p + 1.0) < 1e-9 for p in mesh)

    @pytest.mark.parametrize("d", [1e-3, 1e-6])
    def test_near_collision_flyby_closed_form(self, d):
        # x1 = (0.3 t, 0, 0) passes a static partner at distance d: both
        # cones see the partner at r = sqrt(0.09 t^2 + d^2), so the density
        # is -sqrt(1 - 0.09) + 1/r with kappa = 1
        t1 = polygonal_from_vertices([(-5.0, [-1.5, 0, 0]), (5.0, [1.5, 0, 0])], POS)
        t2 = static_traj([0.0, d, 0.0])
        val = action(t1, t2, BoundaryData(-1.0, 1.0))
        exact = -2.0 * np.sqrt(1.0 - 0.09) + (2.0 / 0.3) * np.arcsinh(0.3 / d)
        assert abs(val - exact) <= 1e-10 * abs(exact)

    def test_collision_flyby_raises(self):
        t1 = polygonal_from_vertices([(-5.0, [-1.5, 0, 0]), (5.0, [1.5, 0, 0])], POS)
        t2 = static_traj([0.0, 1e-10, 0.0])
        with pytest.raises(CollisionError):
            action(t1, t2, BoundaryData(-1.0, 1.0))

    def test_window_end_on_a_partner_with_junctions_raises(self):
        # trajectory 1 leaves the partner's position at the window start:
        # `cone_crossings` judges only domain exits and finds the crossings,
        # and the integrand's lane solves report the collision
        t2 = polygonal_from_vertices([(t, [0, 0, 0]) for t in (-40.0, 0.5, 1.5, 40.0)], NEG)
        t1 = polygonal_from_vertices([(0.0, [0, 0, 0]), (4.0, [2.0, 0, 0])], POS)
        assert len(cone_crossings(t1, t2, 0.0, 4.0)) == 4
        with pytest.raises(CollisionError):
            action(t1, t2, BoundaryData(0.0, 4.0))

    def test_reversed_window_rejected(self):
        with pytest.raises(DomainError):
            BoundaryData(2.0, 1.0)

    @pytest.mark.parametrize("width", [1e-13, 5e-13, 1e-12, 2e-12])
    def test_a_window_within_the_mesh_merge_width_keeps_its_cell(self, width):
        # the mesh merges points within 1e-12 max(1, |a|, |b|); a window that
        # short once kept only its end, and the quadrature raised ValueError
        t1, t2 = static_pair(2.0)
        bd = BoundaryData(0.0, width)
        assert pullback_mesh(t1, t2, 0.0, width) == [0.0, width]
        assert action(t1, t2, bd) == pytest.approx(-0.5 * width, rel=1e-12)
        # d(1/r)/dx1 is 0.25 along the separation; the tent's area is width / 2
        b = Perturbation.tent(0.0, 0.5 * width, width, [1.0, 0.0, 0.0])
        assert frechet_directional(t1, t2, bd, b) == pytest.approx(0.125 * width, rel=1e-12)


def fd_directional(t1, t2, bd, b, eps=1e-5):
    plus = action(add_perturbation(t1, b, eps), t2, bd)
    minus = action(add_perturbation(t1, b, -eps), t2, bd)
    return (plus - minus) / (2 * eps)


class TestFrechet:
    def test_null_perturbation(self):
        t1, t2 = static_pair(2.0)
        b = Perturbation.tent(0.5, 2.0, 3.5, [0, 0, 0])
        bd = BoundaryData(0.0, 4.0)
        assert frechet_directional(t1, t2, bd, b) == pytest.approx(0.0, abs=1e-14)

    def test_static_pair_tent_along_separation(self):
        t1, t2 = static_pair(2.0)
        bd = BoundaryData(0.0, 4.0)
        b = Perturbation.tent(0.5, 2.0, 3.5, [0.3, 0, 0])
        val = frechet_directional(t1, t2, bd, b)
        ref = fd_directional(t1, t2, bd, b)
        assert abs(val - ref) < max(1e-8, 1e-6 * abs(val))

    def test_static_pair_tent_orthogonal_is_zero(self):
        t1, t2 = static_pair(2.0)
        bd = BoundaryData(0.0, 4.0)
        b = Perturbation.tent(0.5, 2.0, 3.5, [0, 0.3, 0])
        assert abs(frechet_directional(t1, t2, bd, b)) < 1e-10

    def test_moving_pair_matches_finite_difference(self):
        t1 = polygonal_from_vertices(
            [(-40.0, [0, -8, 0]), (0.5, [0, 0.1, 0]), (40.0, [0, 7, 0])], POS
        )
        t2 = polygonal_from_vertices(
            [(-40.0, [2.5, 4, 0]), (-1.0, [2.5, -0.1, 0]), (40.0, [2.5, -4, 0])], NEG
        )
        bd = BoundaryData(-2.0, 4.0)
        b = Perturbation.from_nodes(
            [-2.0, -0.5, 1.0, 2.5, 4.0],
            [vec3(0, 0, 0), vec3(0.05, -0.02, 0.01), vec3(-0.03, 0.04, 0.0),
             vec3(0.02, 0.01, -0.03), vec3(0, 0, 0)],
        )
        val = frechet_directional(t1, t2, bd, b)
        ref = fd_directional(t1, t2, bd, b)
        assert abs(val - ref) < max(1e-8, 1e-6 * abs(val))

    def test_endpoint_violation_raises(self):
        t1, t2 = static_pair(2.0)
        bd = BoundaryData(0.0, 4.0)
        b = Perturbation.tent(0.0, 2.0, 5.0, [0.1, 0, 0])  # nonzero at t=4
        with pytest.raises(ContractError):
            frechet_directional(t1, t2, bd, b)

    def test_free_particle_stationarity(self):
        t1 = polygonal_from_vertices([(-5.0, [-1.5, 0, 0]), (5.0, [1.5, 0, 0])], POS)
        t2 = static_traj([1e6, 0, 0], NEG, -3e6, 3e6)
        bd = BoundaryData(-4.0, 4.0)
        b = Perturbation.tent(-4.0, 0.0, 4.0, [0.02, 0.05, -0.01])
        assert abs(frechet_directional(t1, t2, bd, b)) < 1e-8


def crossing_pair():
    """Polygonal pair whose partner breaks inside the window [-2, 4], so
    crossing-jump terms of both branches enter the first variation."""
    t1 = polygonal_from_vertices(
        [(-40.0, [0, -8, 0]), (0.5, [0, 0.1, 0]), (40.0, [0, 7, 0])], POS)
    t2 = polygonal_from_vertices(
        [(-40.0, [2.5, 4, 0]), (-1.0, [2.5, -0.1, 0]), (5.5, [2.5, -0.9, 0.2]),
         (40.0, [2.5, -4, 0])], NEG)
    return t1, t2


class TestFrechetSequence:
    """`frechet_directional` along a sequence of fields given as one bundle
    on one knot vector, against one call per field."""

    NODES = [-2.0, -0.5, 1.0, 2.5, 4.0]

    @pytest.mark.parametrize("partner", ["static", "breaking"])
    def test_matches_the_per_field_calls(self, partner):
        t1, t2 = crossing_pair()
        if partner == "static":
            t2 = static_traj([2.5, 0.3, 0.0], NEG)
        bd = BoundaryData(-2.0, 4.0)
        assert (len(cone_crossings(t1, t2, -2.0, 4.0)) > 0) == (partner == "breaking")
        values = 0.05 * np.random.default_rng(4).uniform(-1.0, 1.0, (len(self.NODES), 6, 3))
        values[[0, -1]] = 0.0
        slopes = fd_node_velocities(self.NODES, values)
        bundle = PackedChain.hermite(self.NODES, values, slopes)
        each = np.array([frechet_directional(t1, t2, bd, Perturbation.from_nodes(
            self.NODES, values[:, c], slopes[:, c])) for c in range(6)])
        got = frechet_directional(t1, t2, bd, bundle)
        assert got.shape == (6,)
        assert np.abs(got - each).max() <= 1e-12 * np.abs(each).max()

    def test_an_empty_sequence_gives_no_values(self):
        t1, t2 = crossing_pair()
        empty = np.zeros((len(self.NODES), 0, 3))
        values = frechet_directional(t1, t2, BoundaryData(-2.0, 4.0),
                                     PackedChain.hermite(self.NODES, empty, empty))
        assert values.shape == (0,)

    def test_a_bundle_without_a_field_axis_is_rejected(self):
        t1, t2 = crossing_pair()
        flat = PackedChain.hermite([-2.0, 1.0, 4.0], np.zeros((3, 3)), np.ones((3, 3)))
        with pytest.raises(DomainError, match=r"\(nseg, C, 3, K\) rows, got \(2, 3, 4\)"):
            frechet_directional(t1, t2, BoundaryData(-2.0, 4.0), flat)


class TestElResidual:
    def test_static_pair_d2(self):
        t1, t2 = static_pair(2.0)
        res = el_residual(t1, t2, 0.5)
        assert abs(np.linalg.norm(res) - 0.25) < 1e-9
        assert abs(res[1]) < 1e-10 and abs(res[2]) < 1e-10

    def test_static_pair_d4(self):
        t1, t2 = static_pair(4.0)
        res = el_residual(t1, t2, 0.0)
        assert abs(np.linalg.norm(res) - 0.0625) < 1e-9

    def test_effectively_free_uniform_motion(self):
        t1 = polygonal_from_vertices([(-5.0, [0, 0, 0]), (5.0, [3.0, 0, 0])], POS)
        t2 = static_traj([1e6, 0, 0], NEG, -3e6, 3e6)
        res = el_residual(t1, t2, 1.2)
        assert np.linalg.norm(res) < 1e-10

    def test_one_sided_at_breaking_point(self):
        t1 = polygonal_from_vertices(
            [(-20.0, [0, -6, 0]), (0.0, [0, 0, 0]), (20.0, [0, 6, 0])], POS
        )
        t2 = static_traj([3, 0, 0], NEG)
        left = el_residual(t1, t2, 0.0, Side.LEFT)
        right = el_residual(t1, t2, 0.0, Side.RIGHT)
        for r in (left, right):
            assert np.all(np.isfinite(r))
        # same uniform velocity both sides here, so the residuals agree
        assert_allclose(left, right, atol=1e-8)

    def test_velocity_partial_is_exact_gamma_v_for_far_partner(self):
        t1 = polygonal_from_vertices([(-5.0, [0, 0, 0]), (5.0, [0, 0, 3.0])], POS)
        t2 = static_traj([1e6, 0, 0], NEG, -3e6, 3e6)
        p = momentum_current(t1, t2, 0.0)
        v = 0.3
        gamma = 1.0 / np.sqrt(1.0 - v * v)
        assert_allclose(p, [0, 0, gamma * v], atol=1e-9)


def circle_orbit(radius, omega, phase, particle, span=30.0, dt=0.4):
    times = np.arange(-span, span + 0.5 * dt, dt)
    xs = [radius * vec3(np.cos(omega * t + phase), np.sin(omega * t + phase), 0) for t in times]
    vs = [radius * omega * vec3(-np.sin(omega * t + phase), np.cos(omega * t + phase), 0)
          for t in times]
    return hermite_trajectory(times, xs, vs, particle)


def accelerating_pairs():
    """The circle pair, and a speed-0.78 circle of charge 1 against a
    polygon of charge -1 and against the same polygon of charge -0.37."""
    heavy = ParticleParams(mass=2.3, charge=1.0)
    circles = (circle_orbit(0.4, 0.5, 0.0, POS), circle_orbit(0.4, 0.5, np.pi, NEG))
    ts = np.linspace(-30.0, 30.0, 31)
    offsets = np.random.default_rng(5).uniform(-0.3, 0.3, size=(len(ts), 3))
    vertices = [(t, vec3(3.0, 0.1 * t, 0.0) + o) for t, o in zip(ts, offsets)]
    fast = circle_orbit(1.2, 0.65, 0.3, heavy)  # speed 0.78
    return [circles, *((fast, polygonal_from_vertices(vertices, ParticleParams(0.6, q)))
                       for q in (-1.0, -0.37))]


class TestClosedFormElResidual:
    @pytest.mark.parametrize("pair", range(3))
    def test_matches_central_difference_of_the_momentum(self, pair):
        t1, t2 = accelerating_pairs()[pair]
        h = 1e-3
        for t in (-2.3, -0.52, 0.61, 1.77, 2.95):
            # the stencil stays on one smooth piece of the momentum
            assert cone_crossings(t1, t2, t - 2 * h, t + 2 * h) == []
            assert not any(abs(j - t) <= 2 * h for j in t1.junction_times())
            mom = {k: momentum_current(t1, t2, t + k * h) for k in (-2, -1, 1, 2)}
            dmom = (mom[-2] - 8 * mom[-1] + 8 * mom[1] - mom[2]) / (12 * h)
            ref = dmom - lagrangian_position_partial(t1, t2, t)
            assert_allclose(el_residual(t1, t2, t), ref, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("pair, min_jump", [(0, 1e-5), (1, 1e-3)])
    def test_one_sided_limits_at_cone_crossings(self, pair, min_jump):
        # the partner's acceleration (circle) or velocity (polygon) jumps
        # where a cone image crosses its junction, and so does the residual
        t1, t2 = accelerating_pairs()[pair]
        crossings = cone_crossings(t1, t2, -3.0, 3.0)
        assert crossings
        for tc, _, _ in crossings:
            left = el_residual(t1, t2, tc, Side.LEFT)
            right = el_residual(t1, t2, tc, Side.RIGHT)
            assert_allclose(left, el_residual(t1, t2, tc - 1e-7), rtol=0.0, atol=1e-5)
            assert_allclose(right, el_residual(t1, t2, tc + 1e-7), rtol=0.0, atol=1e-5)
            assert np.linalg.norm(left - right) > min_jump

    @pytest.mark.parametrize("d", [1e-3, 1e-6])
    def test_near_collision_flyby_closed_form(self, d):
        # uniform x1 = (0.3 t, 0, 0) past a static partner: the momentum is
        # constant, so the residual is -dL/dx1 = kappa (x1 - x2) / r^3
        t1 = polygonal_from_vertices([(-5.0, [-1.5, 0, 0]), (5.0, [1.5, 0, 0])], POS)
        t2 = static_traj([0.0, d, 0.0])
        for t in (0.0, 1e-4, -0.37):
            sep = vec3(0.3 * t, -d, 0.0)
            exact = sep / np.linalg.norm(sep) ** 3
            res = el_residual(t1, t2, t)
            assert np.linalg.norm(res - exact) <= 1e-10 * np.linalg.norm(exact)

    def test_collision_flyby_raises(self):
        t1 = polygonal_from_vertices([(-5.0, [-1.5, 0, 0]), (5.0, [1.5, 0, 0])], POS)
        t2 = static_traj([0.0, 1e-10, 0.0])
        with pytest.raises(CollisionError):
            el_residual(t1, t2, 0.0)


class TestLegendreTransform:
    @pytest.mark.parametrize("pair", [1, 2], ids=["default-kappa", "kappa-0.37"])
    def test_energy_current_is_v_dot_p_minus_l(self, pair):
        t1, t2 = accelerating_pairs()[pair]
        k = coupling(t1, t2)
        hits = [tc for tc, _, _ in cone_crossings(t1, t2, -3.0, 3.0)]
        assert hits
        for t in (-2.3, -0.52, 0.61, 1.77, 2.95, *hits):
            for side in (Side.LEFT, Side.RIGHT):
                x1, v1, _ = t1.state(t, side)
                lag = interaction_density((x1, v1), *scalar_cone_pair(t2, t, x1, side),
                                          m1=t1.particle.mass, kappa=k)
                p = momentum_current(t1, t2, t, side)
                e = energy_current(t1, t2, t, side)
                assert abs(e - (float(v1 @ p) - lag)) <= 1e-14


# -- the batched action against a scalar reference -----------------------------

def recursive_quadrature(f, mesh, rel_target=1e-11):
    """Gauss-Kronrod 7-15 with recursive interval halving on a scalar
    integrand, one node at a time: a cell's value is its K15 sum, and it
    halves while |K15 - G7| exceeds its tolerance.  (total, cells, deepest
    level)."""
    tree = {"cells": 0, "depth": 0}

    def cell(a, b, tol, depth):
        tree["cells"] += 1
        tree["depth"] = max(tree["depth"], depth)
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        values = [f(mid + half * u) for u in _NODES.tolist()]
        k15, g7 = (half * float(np.dot(w, values)) for w in (_K15, _G7))
        if abs(k15 - g7) <= tol or depth >= 30:
            return k15
        return cell(a, mid, 0.5 * tol, depth + 1) + cell(mid, b, 0.5 * tol, depth + 1)

    rough = sum((b - a) * abs(f(0.5 * (a + b))) for a, b in zip(mesh, mesh[1:]))
    scale, width = max(rough, 1.0), mesh[-1] - mesh[0]
    total = sum(cell(a, b, rel_target * scale * max((b - a) / width, 1e-3), 0)
                for a, b in zip(mesh, mesh[1:]))
    return total, tree["cells"], tree["depth"]


def scalar_density(traj1, partner, kappa):
    """The action integrand one time at a time: a state, a scalar cone pair
    and `interaction_density`."""
    def f(t):
        x1, v1, _ = traj1.state(t)
        return interaction_density((x1, v1), *scalar_cone_pair(partner, t, x1),
                                   m1=traj1.particle.mass, kappa=kappa)
    return f


def batched_density(traj1, partner, kappa):
    def f(ts):
        state = traj1.evaluate(ts), traj1.evaluate(ts, 1)
        adv, ret = (cone_times(partner, ts, state[0], b) for b in (Branch.ADVANCED, Branch.RETARDED))
        return interaction_density(state, adv, ret, m1=traj1.particle.mass, kappa=kappa)
    return f


def cell_tree(f):
    """`f` with a record of its call sizes, and a reader of the cell tree
    `_integrate` evaluated through it: each call is one level, with 15
    nodes per cell.  The reader gives (cells, deepest level)."""
    sizes = []

    def counted(ts):
        sizes.append(ts.size)
        return f(ts)

    return counted, lambda: (sum(sizes) // _NODES.size, len(sizes) - 1)


def bench_polygon_pair(rng):
    """Polygonal pair with breaks near -6, -2, 2 and 6, within 0.5 of
    (-1.5, 0, 0) and (1.5, 0, 0)."""
    base = np.array([-40.0, -20.0, -6.0, -2.0, 2.0, 6.0, 20.0, 40.0])
    out = []
    for center, particle in (((-1.5, 0.0, 0.0), POS), ((1.5, 0.0, 0.0), NEG)):
        times = base.copy()
        times[1:-1] += rng.uniform(-0.5, 0.5, base.size - 2)
        dirs = rng.normal(size=(base.size, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        xs = np.asarray(center) + dirs * 0.5 * rng.uniform(0.0, 1.0, (base.size, 1)) ** (1 / 3)
        out.append(polygonal_from_vertices(list(zip(times, xs)), particle))
    return out


def regression_pairs():
    """(trajectory 1, trajectory 2, boundary) of the circle,
    polygon and smoke pairs and of the static-pair acceptance case."""
    circles = (circle_orbit(0.4, 0.5, 0.3, POS, span=50.0, dt=0.5),
               circle_orbit(-0.4, 0.5, 0.3, NEG, span=50.0, dt=0.5))
    smoke = static_pair(2.0)
    return {
        "circle": (*circles, BoundaryData(-1.0, 1.0)),
        "polygon": (*bench_polygon_pair(np.random.default_rng(3)), BoundaryData(-4.0, 4.0)),
        "smoke": (*smoke, BoundaryData(-2.0, 2.0)),
        "static": (*smoke, BoundaryData(-2.0, 2.0, history2=smoke[1], k2=0.25)),
    }


class TestBatchedAction:
    @pytest.mark.parametrize("name", ["circle", "polygon", "smoke", "static"])
    def test_matches_the_scalar_reference_on_the_same_cell_tree(self, name):
        traj1, traj2, boundary = regression_pairs()[name]
        views = [(traj1, traj2, boundary)]
        if boundary.history2 is None:
            views.append((traj2, traj1, boundary))
        for mover, partner, bd in views:
            value = action(mover, partner, bd)
            kappa = coupling(mover, partner)
            full = partner if bd.history2 is None else bd.history2
            mesh = pullback_mesh(mover, full, *bd.window(1))
            ref, cells, depth = recursive_quadrature(scalar_density(mover, full, kappa), mesh)
            assert abs(value - (bd.k2 + ref)) <= 1e-13 * abs(value)
            f, tree = cell_tree(batched_density(mover, full, kappa))
            assert bd.k2 + _integrate(f, mesh) == value
            assert tree() == (cells, depth)

    def test_deep_cell_tree_matches_the_recursion(self):
        # the near-collision flyby halves its cells 20 levels deep
        v, gap = 0.3, 1e-6
        t1 = polygonal_from_vertices([(-5.0, [-5 * v, 0, 0]), (5.0, [5 * v, 0, 0])], POS)
        t2 = static_traj([0.0, gap, 0.0])
        mesh = pullback_mesh(t1, t2, -1.0, 1.0)
        ref, cells, depth = recursive_quadrature(scalar_density(t1, t2, 1.0), mesh)
        f, tree = cell_tree(batched_density(t1, t2, 1.0))
        total = _integrate(f, mesh)
        assert tree() == (cells, depth)
        assert depth > 10
        assert abs(total - ref) <= 1e-13 * abs(ref)
        # a static partner at distance r gives 1/r: the integral of
        # 1 / sqrt((v t)^2 + gap^2) over [-1, 1] is (2/v) asinh(v/gap)
        exact = -2.0 * np.sqrt(1.0 - v * v) + (2.0 / v) * np.arcsinh(v / gap)
        assert abs(total - exact) <= _REL_TARGET * abs(exact)


# -- batched per-point partials against the scalar references -----------------

def partial_pairs():
    """(trajectory 1, partner) of the circle pair, the polygon pair,
    the speed-0.78 Hermite circle against a polygon, a static partner and a
    partner 1e6 away."""
    circles, _fast, fast_vs_polygon = accelerating_pairs()
    mover = polygonal_from_vertices(
        [(-5.0, [-1.5, 0.2, 0.0]), (0.0, [0.0, 0.0, 0.1]), (5.0, [1.5, 0.0, 0.0])], POS)
    return {
        "circle": circles,
        "polygon": bench_polygon_pair(np.random.default_rng(3)),
        "hermite-vs-polygon": fast_vs_polygon,
        "static": (mover, static_traj([0.5, 2.0, 0.0])),
        "far": (mover, static_traj([1e6, 0.0, 0.0], NEG, -3e6, 3e6)),
    }


def partial_times(traj1, partner):
    """A grid on [-3, 3], trajectory 1's junctions there, and the times whose
    cone images land on a partner junction."""
    crossings = [t for t, _, _ in cone_crossings(traj1, partner, -3.0, 3.0)]
    junctions = [t for t in traj1.junction_times() if -3.0 < t < 3.0]
    return np.array(sorted({*np.linspace(-3.0, 3.0, 13).tolist(), *junctions, *crossings}))


def assert_close(batched, ref):
    """Within 1e-12 of the reference's largest component."""
    ref = np.asarray(ref)
    assert np.abs(batched - ref).max() <= 1e-12 * np.abs(ref).max()


class TestBatchedPartials:
    @pytest.mark.parametrize("name", ["circle", "polygon", "hermite-vs-polygon", "static", "far"])
    def test_lanes_match_the_scalar_references(self, name):
        traj1, partner = partial_pairs()[name]
        ts = partial_times(traj1, partner)
        if name in ("circle", "polygon", "hermite-vs-polygon"):
            assert len(cone_crossings(traj1, partner, -3.0, 3.0)) > 0
        k = coupling(traj1, partner)
        for side in Side:
            p, e = canonical_current(traj1, partner, ts, side)
            d_dx = lagrangian_position_partial(traj1, partner, ts, side)
            res = el_residual(traj1, partner, ts, side)
            assert d_dx.shape == p.shape == res.shape == (ts.size, 3) and e.shape == ts.shape
            for i, t in enumerate(ts.tolist()):
                ref = scalar_canonical_current(traj1, partner, t, side, k)
                for lane, want in zip((d_dx[i], p[i], e[i]), ref):
                    assert_close(lane, want)
                assert_close(res[i], scalar_el_residual(traj1, partner, t, side))

    def test_a_float_time_gives_one_row(self):
        traj1, partner = partial_pairs()["polygon"]
        ts = partial_times(traj1, partner)
        rows = canonical_current(traj1, partner, ts, Side.LEFT)
        for i in (0, ts.size // 2):
            one = canonical_current(traj1, partner, float(ts[i]), Side.LEFT)
            assert one[0].shape == (3,) and np.ndim(one[1]) == 0
            for lane, row in zip(one, rows):
                assert np.array_equal(lane, row[i])
            assert np.array_equal(el_residual(traj1, partner, float(ts[i]), Side.LEFT),
                                  el_residual(traj1, partner, ts, Side.LEFT)[i])

    def test_first_variation_matches_the_scalar_reference(self):
        # partner breaks inside the window, so crossing-jump terms of both
        # branches enter
        t1 = polygonal_from_vertices(
            [(-40.0, [0, -8, 0]), (0.5, [0, 0.1, 0]), (40.0, [0, 7, 0])], POS)
        t2 = polygonal_from_vertices(
            [(-40.0, [2.5, 4, 0]), (-1.0, [2.5, -0.1, 0]), (5.5, [2.5, -0.9, 0.2]),
             (40.0, [2.5, -4, 0])], NEG)
        b = Perturbation.from_nodes(
            [-2.0, -0.5, 1.0, 2.5, 4.0],
            [vec3(0, 0, 0), vec3(0.05, -0.02, 0.01), vec3(-0.03, 0.04, 0.0),
             vec3(0.02, 0.01, -0.03), vec3(0, 0, 0)])
        bd = BoundaryData(-2.0, 4.0)
        k = coupling(t1, t2)

        def integrand(t):
            d_dx, p, _ = scalar_canonical_current(t1, t2, t, Side.RIGHT, k)
            return float(d_dx @ b.value(t) + p @ b.derivative(t))

        crossings = cone_crossings(t1, t2, -2.0, 4.0)
        assert {branch for _, _, branch in crossings} == set(Branch)
        mesh = pullback_mesh(t1, t2, -2.0, 4.0, extra=b.junction_times(), crossings=crossings)
        ref = recursive_quadrature(integrand, mesh)[0]
        for tc, _, branch in crossings:
            x1, v1, _ = t1.state(tc)
            dens = {side: interaction_density((x1, v1), *scalar_cone_pair(t2, tc, x1, side),
                                              m1=t1.particle.mass, kappa=k) for side in Side}
            s = -branch.sign
            n = cone_time(t2, (tc, x1), branch).n_hat
            ref += (dens[Side.LEFT] - dens[Side.RIGHT]) * (
                -s * float(n @ b.value(tc)) / (1.0 + s * float(n @ v1)))
        value = frechet_directional(t1, t2, bd, b)
        assert abs(value - ref) <= 1e-12 * abs(ref)


def helix(radius, omega, pitch, phase, particle, span=30.0, dt=0.4):
    times = np.arange(-span, span + 0.5 * dt, dt)
    angle = omega * times + phase
    xs = np.stack([radius * np.cos(angle), radius * np.sin(angle), pitch * times], axis=1)
    vs = np.stack([-radius * omega * np.sin(angle), radius * omega * np.cos(angle),
                   np.full_like(times, pitch)], axis=1)
    return hermite_trajectory(times, xs, vs, particle)


def helical_pair(charge2=-0.6):
    """Two helices about the z axis with charges +1 and `charge2`."""
    weak = ParticleParams(mass=1.7, charge=charge2)
    return helix(0.5, 0.6, 0.1, 0.0, POS), helix(0.7, -0.4, -0.2, 1.0, weak)


class TestLienardWiechertField:
    @pytest.mark.parametrize("charge2", [-0.6, -0.37])
    def test_lorentz_residual_matches_the_closed_form(self, charge2):
        # unequal charges, at two partner charges, tell q1 q2 = -kappa and the
        # half-advanced plus half-retarded weights apart
        traj1, traj2 = helical_pair(charge2)
        crossings = [t for t, _, _ in cone_crossings(traj1, traj2, -3.0, 3.0)]
        assert crossings
        ts = np.array(sorted({*np.linspace(-3.0, 3.0, 7).tolist(), *crossings}))
        rows = {side: el_residual(traj1, traj2, ts, side) for side in Side}
        for side, res in rows.items():
            for i, t in enumerate(ts.tolist()):
                assert_close(res[i], scalar_el_residual(traj1, traj2, t, side))
        # the partner's acceleration jumps across each crossing, and so does
        # the residual
        at = np.isin(ts, crossings)
        assert (np.abs(rows[Side.LEFT] - rows[Side.RIGHT])[at].max(axis=1) > 1e-6).all()

    @pytest.mark.parametrize("branch", list(Branch))
    def test_far_limit_is_lw_far(self, branch):
        # at (t, R n) the near field approaches `lw_far` with a relative gap
        # of order 1/R: the velocity term and the far-cone linearization
        traj = helical_pair()[0]
        n = vec3(0.3, -0.5, 0.8) / np.linalg.norm([0.3, -0.5, 0.8])
        gaps = []
        for R in (1e2, 1e3, 1e4):
            t = 0.7 + branch.sign * R  # cone times near 0.7 on either branch
            sol = cone_times(traj, np.array([t]), (R * n)[None], branch)
            e, b = lw_fields(sol, traj.particle.charge)
            assert_allclose(b, branch.sign * cross(sol.n_hat, e), rtol=0,
                            atol=1e-15 * np.abs(e).max())
            e_far, b_far = lw_far(traj, t, n, R, branch)
            gaps.append([np.linalg.norm(f[0] - g) / np.linalg.norm(g)
                         for f, g in ((e, e_far), (b, b_far))])
        gaps = np.array(gaps)
        assert (gaps[0] < 0.1).all()
        ratios = gaps[:-1] / gaps[1:]
        assert ((ratios > 5.0) & (ratios < 20.0)).all(), gaps

    def test_uniform_motion_gives_the_boosted_coulomb_field(self):
        # both branches give the field of the present position, with B = v x E
        v = vec3(0.6, -0.2, 0.3)
        traj = polygonal_from_vertices([(-50.0, -50.0 * v), (50.0, 50.0 * v)], NEG)
        t, x = 1.3, vec3(2.0, -1.0, 0.5)
        d = x - t * v
        want = -(1.0 - v @ v) * d / ((d @ d) * (1.0 - v @ v) + (d @ v) ** 2) ** 1.5
        for sol in cone_pair(traj, t, x):
            e, b = lw_fields(sol, -1.0)
            assert_allclose(e, want, rtol=1e-13, atol=0)
            assert_allclose(b, cross(v, want), rtol=1e-12, atol=1e-15)


class TestQuadratureBudget:
    def test_oscillatory_integrand_spends_the_budget_quickly(self):
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="budget") as err:
            _integrate(lambda t: np.sin(1e6 * t), [0.0, 1.0])
        assert "gap" in str(err.value)
        assert time.perf_counter() - start < 5.0

    def test_a_budget_stop_names_its_interval(self):
        # only [0.5, 0.75] keeps halving; the integrand oscillates too fast there
        with pytest.raises(ConvergenceError, match="budget") as err:
            _integrate(lambda t: np.where((t > 0.5) & (t < 0.75), np.sin(1e9 * t), 0.0),
                       [0.0, 0.5, 0.75, 1.0])
        a, b = (float(x) for x in str(err.value).split("[")[1].split("]")[0].split(","))
        assert 0.5 <= a < b <= 0.75

    def test_one_column_spends_the_budget(self):
        # the smooth column closes at once; the other keeps [0.5, 0.75] halving
        def f(t):
            fast = np.where((t > 0.5) & (t < 0.75), np.sin(1e9 * t), 0.0)
            return np.stack([np.cos(t), fast], axis=1)

        with pytest.raises(ConvergenceError, match="budget") as err:
            _integrate(f, [0.0, 0.5, 0.75, 1.0])
        a, b = (float(x) for x in str(err.value).split("[")[1].split("]")[0].split(","))
        assert 0.5 <= a < b <= 0.75

    @pytest.mark.parametrize("columns", [1, 2])
    def test_a_jump_stalls_at_level_30(self, columns):
        def f(t):
            step = np.where(t > 1.0 / 3.0, 1.0, 0.0)
            return step if columns == 1 else np.stack([np.cos(t), step], axis=1)

        f, tree = cell_tree(f)
        with pytest.raises(ConvergenceError, match="stalled") as err:
            _integrate(f, [0.0, 1.0])
        a, b = (float(x) for x in str(err.value).split("[")[1].split("]")[0].split(","))
        assert a < 1.0 / 3.0 < b and b - a == 2.0 ** -30
        assert tree()[0] < 100  # only the cell around the jump keeps halving

    @pytest.mark.parametrize("columns", ["kinked", "smooth"])
    def test_each_column_is_its_scalar_integral_on_the_same_cell_tree(self, columns):
        rng = np.random.default_rng(9)
        if columns == "kinked":
            # power-of-two multiples of one kinked function share its cell tree
            cols = [lambda t, c=c: c * (np.abs(t - 0.3141) ** 1.5 + np.sin(7.0 * t))
                    for c in (1.0, -2.0, 4.0, 0.5, 8.0)]
        else:
            # slow waves that every mesh cell integrates at level 0
            cols = [lambda t, w=w, p=p, c=c: c * np.sin(w * t + p) for w, p, c in
                    zip(rng.uniform(0.1, 2.0, 12), rng.uniform(0, 6, 12),
                        10.0 ** rng.uniform(-3, 3, 12))]
        mesh = [-1.0, -0.6, 0.0, 0.7, 1.0]
        f, tree = cell_tree(lambda t: np.stack([col(t) for col in cols], axis=1))
        values = _integrate(f, mesh)
        assert values.shape == (len(cols),)
        assert (tree()[1] > 0) == (columns == "kinked")
        for col, value in zip(cols, values.tolist()):
            g, col_tree = cell_tree(col)
            assert _integrate(g, mesh) == value
            assert col_tree() == tree()

    def test_the_centre_node_is_the_cell_midpoint(self):
        # level 0's centre nodes are the mesh-cell midpoints bit for bit, so
        # they give each column's rough scale
        assert _NODES.size == 15
        assert _NODES[7] == 0.0 and not np.signbit(_NODES[7])

    @pytest.mark.parametrize("weights, degree", [("K15", 22), ("G7", 13)])
    def test_the_rules_are_exact_up_to_their_degree(self, weights, degree):
        w = {"K15": _K15, "G7": _G7}[weights]
        for d in range(degree + 1):
            want = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(float(w @ _NODES ** d) - want) <= 1e-15
        # and not beyond it
        assert abs(float(w @ _NODES ** (degree + 2)) - 2.0 / (degree + 3)) > 1e-12

    def test_g7_is_gauss_legendre_7_on_the_odd_nodes(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        assert (_G7[0::2] == 0.0).all()
        assert_allclose(_NODES[1::2], nodes, rtol=0, atol=1e-15)
        assert_allclose(_G7[1::2], weights, rtol=0, atol=1e-15)

    def test_one_integrand_call_per_level(self):
        def f(t):
            return np.abs(t - 0.3141) ** 1.5 + np.sin(7.0 * t)

        mesh = [-1.0, -0.6, 0.0, 0.7, 1.0]
        ref, _cells, depth = recursive_quadrature(f, mesh)
        sizes = []

        def counted(ts):
            sizes.append(ts.size)
            return f(ts)

        total = _integrate(counted, mesh)
        assert depth > 0
        assert len(sizes) == depth + 1
        assert sizes[0] == 15 * (len(mesh) - 1)
        assert abs(total - ref) <= 1e-13 * abs(ref)

    def test_action_and_first_variation_stay_far_inside_the_budget(self, monkeypatch):
        module = importlib.import_module("wfvar.action")
        halved = []

        def counted(f, mesh):
            f, tree = cell_tree(f)
            out = _integrate(f, mesh)
            halved.append(tree()[0] - (len(mesh) - 1))
            return out

        monkeypatch.setattr(module, "_integrate", counted)
        # the deepest cell trees of this file: near-collision flybys and a
        # first variation across partner breaks
        t1 = polygonal_from_vertices([(-5.0, [-1.5, 0, 0]), (5.0, [1.5, 0, 0])], POS)
        for d in (1e-3, 1e-6):
            action(t1, static_traj([0.0, d, 0.0]), BoundaryData(-1.0, 1.0))
        t1 = polygonal_from_vertices(
            [(-40.0, [0, -8, 0]), (0.5, [0, 0.1, 0]), (40.0, [0, 7, 0])], POS)
        t2 = polygonal_from_vertices(
            [(-40.0, [2.5, 4, 0]), (-1.0, [2.5, -0.1, 0]), (40.0, [2.5, -4, 0])], NEG)
        b = Perturbation.tent(-2.0, 1.0, 4.0, [0.05, -0.02, 0.01])
        frechet_directional(t1, t2, BoundaryData(-2.0, 4.0), b)
        assert len(halved) == 3 and max(halved) <= _MAX_CELLS // 100
