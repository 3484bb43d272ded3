"""Schild's circular orbits as an exact interacting reference.

Charges +1 and -1 of mass 1 on opposite circles at speed v = 0.3 solve the
half-advanced, half-retarded equations exactly (A. Schild, Phys. Rev. 131,
2762, 1963).  Their Hermite encodings (`helpers_geometry.schild_pair`) keep
only the cubic cells' discretization error, which falls at second order in
the cell width h r.
"""

import dataclasses
import math

import numpy as np
import pytest

from helpers_geometry import schild_force, schild_lag, schild_pair, schild_radius
from wfvar.action import el_residual
from wfvar.core import BoundaryData
from wfvar.farfield import gah_residuals, sphere_flux
from wfvar.optimizer import discretize, minimize, verify

V = 0.3
R_ORBIT = schild_radius(V)


def scalar_schild_forces(v: float) -> tuple:
    """(radial, tangential, theta) of the force on charge +1 of the
    unit-radius pair at t = 0, by a route that shares nothing with
    `schild_force`: the retarded time of charge -1 by bisection on its cone
    condition, the Lienard-Wiechert fields as vectors, and the advanced
    fields as the retarded fields of the time-reversed history with B
    negated.  The radial force is counted positive inward."""
    x1, v1 = np.array([1.0, 0.0, 0.0]), np.array([0.0, v, 0.0])

    def retarded_fields(sense: float) -> tuple:
        """Fields at (0, x1) of charge -1 on x(t) = -(cos wt, sin wt, 0),
        w = sense v; sense -1 is the time-reversed history."""
        w = sense * v

        def pos(t):
            return -np.array([math.cos(w * t), math.sin(w * t), 0.0])

        lo, hi = -4.0, 0.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if -mid - np.linalg.norm(x1 - pos(mid)) > 0.0:
                lo = mid
            else:
                hi = mid
        t = lo
        beta = w * np.array([math.sin(w * t), -math.cos(w * t), 0.0])
        acc = w * w * np.array([math.cos(w * t), math.sin(w * t), 0.0])
        sep = x1 - pos(t)
        dist = np.linalg.norm(sep)
        n = sep / dist
        k = 1.0 - n @ beta
        e = -((n - beta) * (1.0 - beta @ beta) / (k**3 * dist**2)
              + np.cross(n, np.cross(n - beta, acc)) / (k**3 * dist))
        return e, np.cross(n, e), -w * t

    e_ret, b_ret, theta = retarded_fields(1.0)
    e_adv, b_rev, _ = retarded_fields(-1.0)
    force = 0.5 * (e_ret + np.cross(v1, b_ret)) + 0.5 * (e_adv + np.cross(v1, -b_rev))
    return -force[0], force[1], theta


@pytest.mark.parametrize("v", [0.1, 0.3, 0.5, 0.8])
def test_closed_form_matches_a_scalar_route(v):
    radial, tangential, theta = scalar_schild_forces(v)
    assert abs(schild_lag(v) - theta) <= 1e-12
    assert abs(schild_force(v) - radial) <= 1e-12
    assert abs(tangential) <= 1e-12


def test_closed_form_values():
    # f(v) and r(v) as an independent scalar route measured them
    for v, f, r in [(0.1, 0.24887, 24.762), (0.3, 0.24652, 2.61295), (0.5, 0.26168, 0.90648)]:
        assert schild_force(v) == pytest.approx(f, abs=5e-6)
        assert schild_radius(v) == pytest.approx(r, rel=5e-6)
    assert schild_force(0.0) == 0.25  # Coulomb at distance 2
    assert schild_lag(V) * R_ORBIT / V == pytest.approx(5.0, abs=0.02)  # the cone lag


def max_el(pair, ts) -> float:
    return max(float(np.linalg.norm(el_residual(a, b, ts), axis=1).max())
               for a, b in (pair, pair[::-1]))


def test_el_residual_falls_at_second_order():
    # dense samples on [-2r, 2r] find each encoding's worst point; 201 of
    # them read 1.1e-5, 1.6e-6, 3.8e-7 and 1.7e-7, under-sampling fine cells
    ts = np.linspace(-2.0 * R_ORBIT, 2.0 * R_ORBIT, 2001)
    errors = [max_el(schild_pair(V, h), ts) for h in (0.2, 0.1, 0.05, 0.025)]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(3.5 < q < 4.5 for q in ratios), ratios
    kinetic = V * V / (math.sqrt(1.0 - V * V) * R_ORBIT)  # m gamma v^2 / r = 3.6e-2
    assert errors[-1] < 1e-5 * kinetic
    # a circle 1% too wide at the same speed is no solution: its residual,
    # about 1% of the kinetic scale, stays put under refinement
    wrong = [max_el(schild_pair(V, h, radius=1.01 * R_ORBIT), ts) for h in (0.05, 0.025)]
    assert all(3e-4 < e < 4e-4 for e in wrong), wrong
    assert abs(wrong[0] / wrong[1] - 1.0) < 0.05


@pytest.fixture(scope="module")
def fine_pair():
    return schild_pair(V, 0.025)


def test_verify_reads_a_solution(fine_pair):
    # at h = 0.05 it reads 6.9e-7, too close to the 1e-6 gate to test there
    report = verify(*fine_pair, BoundaryData(-1.0, 1.0))
    assert report.max_el < 1e-6
    assert report.break_residuals == ()
    assert report.converged


def test_net_flux_vanishes_while_each_charge_radiates(fine_pair):
    # the pair is time-symmetric, so its net generalized Poynting flux is
    # zero; the retarded fields alone carry -3.2e-3, millions of times the
    # remainder, which is the sphere mesh's quadrature error
    net = sphere_flux(*fine_pair, [0.0, 1.0, 2.0], 20.0)
    assert np.abs(net).max() <= 1e-9
    retarded = sphere_flux(*fine_pair, [0.0, 1.0, 2.0], 20.0, retarded_only=True)
    assert (retarded < -1e-3).all()


def test_gah_residual_is_nonzero(fine_pair):
    # without breaks the orbit radiates in the retarded sense: the gah
    # residual reaches 0.09 where a non-radiating pair reads 0
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((200, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    residuals, defined = gah_residuals(*fine_pair, 0.0, dirs)
    assert defined.all()
    assert 0.085 < float(np.linalg.norm(residuals, axis=1).max()) < 0.095


def test_minimize_approaches_the_circles_at_third_order():
    # from a start 1e-3 off the encoded pair, on a window whose cones leave
    # both windows: the largest distance to the exact positions falls from
    # 2.5e-4 (3 nodes) to 2.3e-5 (5 nodes), near third order, while
    # `max_el`, 4.5e-3 and 2.5e-3, falls at first order and stays above
    # `el_tol`, so `converged` is not asserted
    pair = schild_pair(V, 0.2)
    boundary = BoundaryData(-1.0, 1.0, history1=pair[0], history2=pair[1])
    ts = np.linspace(-1.0, 1.0, 201)
    phase = (V / R_ORBIT) * ts
    circle = R_ORBIT * np.stack([np.cos(phase), np.sin(phase), 0.0 * phase], axis=1)
    distances, el = [], []
    for n in (3, 5):
        init = discretize(boundary, pair, n)
        noise = 1e-3 * np.random.default_rng(0).normal(size=init.theta.shape)
        *trajs, report = minimize(boundary, dataclasses.replace(init, theta=init.theta + noise),
                                  {"max_iter": 200})
        distances.append(max(float(np.linalg.norm(traj.evaluate(ts) - sign * circle,
                                                  axis=1).max())
                             for traj, sign in zip(trajs, (1.0, -1.0))))
        el.append(report.max_el)
    assert distances[1] < 5e-5, distances
    assert distances[0] / distances[1] > 6.0, distances
    assert el[0] / el[1] < 2.5, el
