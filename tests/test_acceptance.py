"""End-to-end acceptance checks, one per shipped capability.

Each test pins the tolerance and, where stated, the runtime budget of one
headline guarantee: radiation-free polygonal pairs, hand-valued actions,
closed-form cone times, dual-route far fields, exact first variations,
current continuity at breaks, rigidity of the rotation-free velocity
relation, partner reconstruction round trips, radiating positive controls
with the classical dipole power, and minimizer fixed-point plus descent
behavior.
"""

import math
import time

import numpy as np
from numpy.testing import assert_allclose

from helpers_geometry import static_traj, uniform_cone_roots, uniform_traj
from wfvar.action import action, frechet_directional
from wfvar.core import (
    BoundaryData,
    ParticleParams,
    Perturbation,
    add_perturbation,
    hermite_trajectory,
    polygonal_from_vertices,
    vec3,
)
from wfvar.farfield import b_via_second_derivative, gah_residual, lw_far, sphere_flux
from wfvar.lightcone import Branch, cone_time
from wfvar.momentum import break_residuals, post_jump_velocity
from wfvar.optimizer import discretize, minimize
from wfvar.shortrange import SeparationFamilyParams, fibonacci_sphere, construct_partner, rigidity_check

POS = ParticleParams(mass=1.0, charge=1.0)
NEG = ParticleParams(mass=1.0, charge=-1.0)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_polygonal(rng, particle, n_vertices=6, ball=2.0, span=40.0):
    """Vertices in a small ball with generous time spacing keeps speeds low."""
    times = np.concatenate(
        [[-span], np.sort(rng.uniform(-span + 8.0, span - 8.0, n_vertices - 2)), [span]]
    )
    while np.min(np.diff(times)) < 6.0:
        times = np.concatenate(
            [[-span], np.sort(rng.uniform(-span + 8.0, span - 8.0, n_vertices - 2)), [span]]
        )
    while True:
        xs = rng.uniform(-ball, ball, size=(n_vertices, 3))
        speeds = np.linalg.norm(np.diff(xs, axis=0), axis=1) / np.diff(times)
        if speeds.max() <= 0.8:
            break
    return polygonal_from_vertices(list(zip(times, xs)), particle)


def circle_traj(omega, rho, span, dt, orientation, particle):
    times = np.arange(-span, span + 0.5 * dt, dt)
    xs = orientation * rho * np.stack(
        [np.cos(omega * times), np.sin(omega * times), 0.0 * times], axis=1
    )
    vs = orientation * rho * omega * np.stack(
        [-np.sin(omega * times), np.cos(omega * times), 0.0 * times], axis=1
    )
    return hermite_trajectory(times, xs, vs, particle)


def test_random_polygonal_pair_is_radiation_free_off_kink_cones():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    traj1 = random_polygonal(rng, POS)
    traj2 = random_polygonal(rng, NEG)
    directions = fibonacci_sphere(32)
    times = np.linspace(-5.0, 5.0, 200)
    defined = 0
    worst = 0.0
    for t in times:
        for n in directions:
            g = gah_residual(traj1, traj2, float(t), n)
            if g is None:
                continue
            defined += 1
            worst = max(worst, float(np.linalg.norm(g)))
    total = len(times) * len(directions)
    assert defined > 0.95 * total
    assert worst < 1e-10  # charges are unit, so the bound is 1e-10 * q
    assert time.perf_counter() - start < 30.0


def test_static_pair_action_value():
    start = time.perf_counter()
    traj1 = static_traj([0.0, 0.0, 0.0], particle=POS)
    traj2 = static_traj([2.0, 0.0, 0.0], particle=NEG)
    boundary = BoundaryData(-2.0, 2.0, history2=traj2, k2=0.0)
    value = action(traj1, traj2, boundary)
    assert abs(value - (-2.0)) < 1e-10 * 2.0
    assert time.perf_counter() - start < 1.0


def test_cone_times_match_closed_form_for_uniform_motion():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        x0 = rng.uniform(-5.0, 5.0, 3)
        v = rng.uniform(0.0, 0.8) * random_unit(rng)
        traj = uniform_traj(x0, v)
        event_t = float(rng.uniform(-3.0, 3.0))
        event_x = rng.uniform(-5.0, 5.0, 3)
        t_ret, t_adv = uniform_cone_roots(x0, v, event_t, event_x)
        sol_ret = cone_time(traj, (event_t, event_x), Branch.RETARDED)
        sol_adv = cone_time(traj, (event_t, event_x), Branch.ADVANCED)
        assert abs(sol_ret.t_k - t_ret) < 1e-12
        assert abs(sol_adv.t_k - t_adv) < 1e-12
    assert time.perf_counter() - start < 1.0


def test_magnetic_field_routes_agree():
    rng = np.random.default_rng(7)
    times = np.linspace(-60.0, 60.0, 241)
    xs = np.stack(
        [
            0.6 * np.sin(0.25 * times),
            0.5 * np.cos(0.20 * times),
            0.3 * np.sin(0.15 * times + 0.7),
        ],
        axis=1,
    )
    vs = np.stack(
        [
            0.15 * np.cos(0.25 * times),
            -0.10 * np.sin(0.20 * times),
            0.045 * np.cos(0.15 * times + 0.7),
        ],
        axis=1,
    )
    traj = hermite_trajectory(times, xs, vs, POS)
    worst = 0.0
    for i in range(500):
        t = float(rng.uniform(-8.0, 8.0))
        n = random_unit(rng)
        radius = float(rng.uniform(5.0, 40.0))
        branch = Branch.RETARDED if i % 2 == 0 else Branch.ADVANCED
        _, b_field = lw_far(traj, t, n, radius, branch)
        b_alt = b_via_second_derivative(traj, t, n, radius, branch)
        worst = max(worst, float(np.linalg.norm(b_field - b_alt)))
    assert worst < 1e-10


def test_directional_derivative_matches_finite_difference():
    traj1 = polygonal_from_vertices(
        [(-40.0, [0, -8, 0]), (0.5, [0, 0.1, 0]), (40.0, [0, 7, 0])], POS
    )
    traj2 = polygonal_from_vertices(
        [(-40.0, [2.5, 4, 0]), (-1.0, [2.5, -0.1, 0]), (40.0, [2.5, -4, 0])], NEG
    )
    boundary = BoundaryData(-2.0, 4.0)
    node_times = [-2.0, -0.5, 1.0, 2.5, 4.0]
    rng = np.random.default_rng(99)
    eps = 2e-5
    for _ in range(20):
        values = [vec3(0, 0, 0)]
        values += [vec3(*rng.uniform(-0.05, 0.05, 3)) for _ in range(3)]
        values += [vec3(0, 0, 0)]
        b = Perturbation.from_nodes(node_times, values)
        val = frechet_directional(traj1, traj2, boundary, b)
        plus = action(add_perturbation(traj1, b, eps), traj2, boundary)
        minus = action(add_perturbation(traj1, b, -eps), traj2, boundary)
        ref = (plus - minus) / (2.0 * eps)
        assert abs(ref) > 1e-6  # the draw scale keeps the check non-vacuous
        assert abs(val - ref) < 1e-6 * abs(ref)


def test_momentum_continuity_at_breaks():
    # smooth orbits: every junction carries residuals at rounding level
    traj1 = circle_traj(0.5, 0.4, 5.0, 0.1, 1.0, POS)
    traj2 = circle_traj(0.5, 0.4, 12.0, 0.1, -1.0, NEG)
    residuals = break_residuals(traj1, traj2)
    assert len(residuals) > 50
    worst = max(max(np.linalg.norm(r.dp), abs(r.de)) for r in residuals)
    assert worst < 1e-12

    # an engineered velocity jump: the solved post velocity closes the currents
    tau, x2_tau = 2.0, vec3(2.0, 0.0, 0.0)
    u_minus = vec3(0.0, 0.3, 0.0)
    u_plus = vec3(0.2, -0.1, 0.1)
    partner = polygonal_from_vertices(
        [(-40.0, x2_tau - 42.0 * u_minus), (tau, x2_tau),
         (40.0, x2_tau + 38.0 * u_plus)],
        NEG,
    )
    v_pre = vec3(0.25, 0.15, 0.0)
    n = vec3(-1.0, 0.0, 0.0)
    r = 2.0
    c = (u_plus / (2 * r * (1.0 + n @ u_plus))
         - u_minus / (2 * r * (1.0 + n @ u_minus)))
    e = (1.0 / (2 * r * (1.0 + n @ u_plus))
         - 1.0 / (2 * r * (1.0 + n @ u_minus)))
    gamma = 1.0 / math.sqrt(1.0 - v_pre @ v_pre)
    mass = (c @ c - e * e) / (2.0 * (gamma * e - gamma * v_pre @ c))
    straight = polygonal_from_vertices(
        [(-40.0, -40.0 * v_pre), (0.0, [0, 0, 0]), (40.0, 40.0 * v_pre)],
        ParticleParams(mass=mass, charge=1.0),
    )
    v_post = post_jump_velocity(straight, partner, 0.0, v_pre)
    assert np.linalg.norm(v_post - v_pre) > 1e-3
    jumped = polygonal_from_vertices(
        [(-40.0, -40.0 * v_pre), (0.0, [0, 0, 0]), (40.0, 40.0 * v_post)],
        ParticleParams(mass=mass, charge=1.0),
    )
    (res,) = break_residuals(jumped, partner)
    assert max(np.linalg.norm(res.dp), abs(res.de)) < 1e-10

    # with continuous delayed terms the post velocity is the pre velocity
    far = static_traj([1.0e6, 0.0, 0.0], particle=NEG, t0=-4.0e6, t1=4.0e6)
    v_same = post_jump_velocity(straight, far, 0.0, v_pre)
    assert np.linalg.norm(v_same - v_pre) < 1e-10


def test_rigidity_of_rotation_free_velocity_relation():
    rng = np.random.default_rng(77)
    for i in range(100):
        directions = [random_unit(rng) for _ in range(8)]
        v1 = rng.uniform(0.0, 0.7) * random_unit(rng)
        if i % 2 == 0:
            v2 = v1.copy()
        else:
            v2 = rng.uniform(0.0, 0.7) * random_unit(rng)
        report = rigidity_check(v1, v2, directions)
        gap = float(np.linalg.norm(v1 - v2))
        if gap == 0.0:
            assert report.max_violation < 1e-12
        else:
            assert report.max_violation > 1e-3 * gap


def test_partner_round_trip_is_consistent_and_non_radiating():
    u_minus = vec3(0.0, -0.2, 0.0)
    u_plus = vec3(0.15, 0.1, 0.0)
    traj2 = polygonal_from_vertices(
        [(-60.0, -60.0 * u_minus), (0.0, [0, 0, 0]), (60.0, 60.0 * u_plus)], NEG
    )
    q1 = vec3(0.0, 1.5, 0.0)
    w = vec3(0.1, 0.0, 0.05)
    family = SeparationFamilyParams.from_linear_pieces(
        (-40.0, 0.0, 40.0),
        [(q1, w, vec3(0, 0, 0), u_minus), (q1, w, vec3(0, 0, 0), u_plus)],
    )
    recovered, report = construct_partner(
        traj2, family, fibonacci_sphere(8), np.linspace(-8.0, 8.0, 33)
    )
    assert report.max_spread < 1e-6
    for t in (-6.0, -1.3, 0.4, 5.0):
        assert_allclose(recovered.position(t), q1 + t * w, atol=1e-6)

    defined = 0
    total = 0
    # offset the grid so no sample sits exactly on the kink cone set, which
    # the guard band rightly excludes (the bound only holds almost everywhere)
    for t in np.linspace(-3.0, 3.0, 9) + 0.123:
        for n in fibonacci_sphere(16):
            total += 1
            g = gah_residual(recovered, traj2, float(t), n)
            if g is None:
                continue
            defined += 1
            assert float(np.linalg.norm(g)) < 1e-8
    assert defined > 0.9 * total

    for t in np.linspace(-1.8, 1.8, 10):
        flux = sphere_flux(recovered, traj2, float(t), 3.0)
        assert abs(flux) < 1e-8  # unit charges: bound is 1e-8 * q^2


def test_circular_orbit_radiates_and_larmor_power_matches():
    omega, rho = 0.5, 0.4
    traj1 = circle_traj(omega, rho, 10.0, 0.1, 1.0, POS)
    traj2 = circle_traj(omega, rho, 10.0, 0.1, -1.0, NEG)
    n = vec3(0.3, -0.5, 0.8)
    n = n / np.linalg.norm(n)
    g = gah_residual(traj1, traj2, 0.2, n)
    assert g is not None
    assert float(np.linalg.norm(g)) > 0.01 * omega**2 * rho

    slow_omega, slow_rho, radius = 0.1, 0.2, 20.0
    lone = circle_traj(slow_omega, slow_rho, 25.0, 0.5, 1.0, POS)
    accel = slow_rho * slow_omega**2
    larmor = (2.0 / 3.0) * accel**2
    flux = sphere_flux(lone, None, 0.0, radius, retarded_only=True)
    assert abs(abs(flux) - larmor) < 0.05 * larmor


def test_minimizer_fixed_point_and_descent():
    start = time.perf_counter()
    far = 2.5e6
    w = vec3(0.3, 0.1, 0.0)
    traj1 = uniform_traj([0.0, 0.0, 0.0], w, -far, far)
    traj2 = static_traj([1.0e6, 0.0, 0.0], particle=NEG, t0=-far, t1=far)
    boundary = BoundaryData(-1.0, 1.0, history1=traj1, history2=traj2)
    opts = {"gtol": 1e-10, "max_iter": 40, "break_tol": 1e-7}

    # a two-segment encoding of the exact solution stays put
    init = discretize(boundary, (traj1, traj2), 3, break_times=([0.0], []))
    refined1, refined2, report = minimize(boundary, init, opts)
    assert report.converged
    sample_times = np.linspace(-1.0, 1.0, 9)
    for t in sample_times:
        assert np.linalg.norm(refined1.position(t) - t * w) < 1e-8
        assert np.linalg.norm(refined2.position(t) - vec3(1.0e6, 0, 0)) < 1e-8

    # a perturbed start descends monotonically back to it
    shaken = init.theta.copy()
    shaken[3:6] += [0.02, -0.015, 0.01]   # interior node of particle 1
    shaken[9:12] += [0.004, 0.0, -0.003]  # one-sided velocity at the break
    moved1, _moved2, moved_report = minimize(
        boundary, init.with_theta(shaken), opts
    )
    assert moved_report.descent_log
    for _k, before, after in moved_report.descent_log:
        assert after <= before + 1e-12
    assert moved_report.converged
    assert moved_report.max_el < 1e-6
    for t in sample_times:
        assert np.linalg.norm(moved1.position(t) - t * w) < 1e-6
    assert time.perf_counter() - start < 300.0
