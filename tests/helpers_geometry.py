"""Shared fixtures: simple trajectories, closed-form cone-time oracles and
scalar references for the batched paths."""

import math

import numpy as np

from wfvar.action import coupling
from wfvar.core import ParticleParams, PiecewiseTrajectory, Segment, Side, _shift_row, vec3
from wfvar.errors import CollisionError, InsufficientHistoryError
from wfvar.lightcone import COLLISION_R, Branch, cone_time

DEFAULT = ParticleParams(mass=1.0, charge=1.0)


def segment_from_global(t0, t1, global_rows, particle=None):
    """Segment whose position is the given polynomial in absolute time t."""
    rows = [_shift_row(r, t0) for r in global_rows]  # t = u + t0
    k = max(len(r) for r in rows)
    coeffs = np.zeros((3, k))
    for i, r in enumerate(rows):
        coeffs[i, : len(r)] = r
    return Segment(t0, t1, coeffs)


def static_traj(x, t0=-300.0, t1=300.0, particle=DEFAULT):
    coeffs = np.array([[x[0]], [x[1]], [x[2]]], dtype=float)
    return PiecewiseTrajectory((Segment(t0, t1, coeffs),), particle)


def uniform_traj(x0, v, t0=-300.0, t1=300.0, particle=DEFAULT):
    seg = segment_from_global(t0, t1, [[x0[i], v[i]] for i in range(3)])
    return PiecewiseTrajectory((seg,), particle)


def uniform_cone_roots(x0, v, event_t, event_x):
    """Closed-form cone times for straight-line motion x(t) = x0 + v t.

    Squaring t - t_k = +/- |y - x0 - v t_k| gives a quadratic in t_k whose
    smaller root is the retarded time and larger root the advanced time.
    """
    w = vec3(event_x) - vec3(x0)
    v = vec3(v)
    a = 1.0 - v @ v
    b = 2.0 * (w @ v - event_t)
    c = -(w @ w - event_t**2)
    disc = np.sqrt(b * b - 4 * a * c)
    roots = sorted([(-b - disc) / (2 * a), (-b + disc) / (2 * a)])
    return roots[0], roots[1]


def scalar_far_cone_time(traj, t, n, R, branch=Branch.RETARDED):
    """Reference far cone time: one scalar root of (t - t_k) - s (R - n.x(t_k))
    per call, by a doubling bracket and Newton with bisection fallback and
    one polishing step, each step reading one segment through `Segment.at`.

    Outside the domain x is held at its end value.  A root at most 1e-9
    max(1, |t_k|) past a domain end returns that end; one farther out raises
    InsufficientHistoryError.
    """
    n, t, R, s = vec3(n), float(t), float(R), branch.sign
    lo, hi = traj.t_start, traj.t_end
    scale = max(1.0, abs(t) + R)

    def residual(t_k):
        tc = min(max(t_k, lo), hi)
        return (t - t_k) - s * (R - float(n @ traj.segment_at(tc).at(tc)))

    def slope(t_k):
        if not lo <= t_k <= hi:
            return -1.0
        return -1.0 + s * float(n @ traj.segment_at(t_k).at(t_k, 1))

    t_k = t - s * R
    g = residual(t_k)
    step = max(abs(g), 1e-3 * max(1.0, abs(t_k)))
    a = b = t_k
    while g != 0.0 and (residual(a) > 0.0) == (residual(b) > 0.0):
        a, b = (a, b + step) if g > 0.0 else (a - step, b)
        step *= 2.0
    for _ in range(200):
        g = residual(t_k)
        step = t_k - g / slope(t_k)
        if abs(g) <= 1e-13 * scale:
            # one polishing Newton step, kept inside the bracket
            t_k = step if a < step < b else t_k
            break
        a, b = (t_k, b) if g > 0.0 else (a, t_k)
        t_k = step if a < step < b else 0.5 * (a + b)
    assert abs(residual(t_k)) <= 1e-12 * scale
    slack = 1e-9 * max(1.0, abs(t_k))
    if t_k < lo - slack or t_k > hi + slack:
        raise InsufficientHistoryError(f"far cone time {t_k} outside [{lo}, {hi}]")
    return min(max(t_k, lo), hi)


# -- scalar references for the per-point partials -------------------------------

def scalar_cone_pair(traj, t, x, side=Side.RIGHT):
    """Advanced and retarded solutions of the event (t, x), one scalar
    `cone_time` per branch, with the collision cutoff."""
    pair = tuple(cone_time(traj, (t, x), branch, side=side)
                 for branch in (Branch.ADVANCED, Branch.RETARDED))
    for sol in pair:
        if sol.r < COLLISION_R:
            raise CollisionError(f"cone distance {sol.r} below {COLLISION_R} at t={t}")
    return pair


def scalar_branch_sums(pair):
    """(W, w): V / (2 r rho) and 1 / (2 r rho) summed over a scalar pair."""
    W, w = np.zeros(3), 0.0
    for sol in pair:
        denom = 2.0 * sol.r * sol.doppler
        W += sol.v / denom
        w += 1.0 / denom
    return W, w


def scalar_branch_partials(v1, sol):
    """dF/dx1 of one branch's F = (1 - v1.V) / (2 r rho), through the cone
    time, r and n, at one point."""
    s = -sol.branch.sign
    n, V, A, r = sol.n_hat, sol.v, sol.a, sol.r
    rho = sol.doppler
    N = 1.0 - float(v1 @ V)
    grad_t2 = (s / rho) * n
    grad_r = n / rho
    grad_rho = (s * V / r - (float(V @ V) + s * float(n @ V)) * n / (rho * r)
                + float(n @ A) * n / rho)
    grad_N = -float(v1 @ A) * grad_t2
    return grad_N / (2.0 * r * rho) - N * (rho * grad_r + r * grad_rho) / (2.0 * r * r * rho * rho)


def scalar_canonical_current(traj1, partner, t, side, kappa):
    """(dL/dx1, dL/dv1, v1.p - L) at one time from a state and a scalar pair."""
    x1, v1, _ = traj1.state(t, side)
    pair = scalar_cone_pair(partner, t, x1, side)
    W, w = scalar_branch_sums(pair)
    m_gamma = traj1.particle.mass / math.sqrt(1.0 - float(v1 @ v1))
    d_dx = sum(kappa * scalar_branch_partials(v1, sol) for sol in pair)
    return d_dx, m_gamma * v1 - kappa * W, m_gamma - kappa * w


def scalar_el_residual(traj1, traj2, t, side=Side.RIGHT, kappa=None):
    """d/dt (dL/dv1) - dL/dx1 at one time, by exact algebra in the state and
    a scalar pair (see `wfvar.action.el_residual`)."""
    k = coupling(traj1, traj2, kappa)
    x1, v1, a1 = traj1.state(t, side)
    g2 = 1.0 / (1.0 - float(v1 @ v1))
    res = traj1.particle.mass * math.sqrt(g2) * (a1 + g2 * float(v1 @ a1) * v1)
    for sol in scalar_cone_pair(traj2, t, x1, side):
        s = -sol.branch.sign
        n, V, A, r = sol.n_hat, sol.v, sol.a, sol.r
        rho = sol.doppler
        dt2 = (1.0 + s * float(n @ v1)) / rho
        dr = float(n @ v1) - float(n @ V) * dt2
        dn = (v1 - V * dt2 - n * dr) / r
        drho = s * (float(dn @ V) + float(n @ A) * dt2)
        d_field = A * dt2 / (2.0 * r * rho) - V * (rho * dr + r * drho) / (2.0 * r * r * rho * rho)
        res = res - k * (d_field + scalar_branch_partials(v1, sol))
    return res
