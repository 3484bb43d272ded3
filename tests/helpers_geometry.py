"""Shared fixtures: simple trajectories, closed-form cone-time oracles and
scalar references for the batched paths."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

from wfvar.action import coupling
from wfvar.core import (
    ParticleParams,
    PiecewiseTrajectory,
    Segment,
    SegmentChain,
    Side,
    cross,
    hermite_trajectory,
    vec3,
)
from wfvar.errors import (
    CollisionError,
    ConvergenceError,
    DomainError,
    InsufficientHistoryError,
)
from wfvar.lightcone import (
    COLLISION_R,
    Branch,
    cone_time,
    cone_times,
    far_cone_times,
    lw_radiation,
)
from wfvar.shortrange import _separation

DEFAULT = ParticleParams(mass=1.0, charge=1.0)


def reference_shift_row(row, delta: float) -> list:
    """Ascending coefficients in w of p(w + delta), for ascending coefficients of p.

    Horner steps acc <- acc * (w + delta) + c on plain floats, done the way
    numpy's ``Polynomial(row)(Polynomial([delta, 1]))`` does them, so the
    result is bit-identical to that composition: every product sum starts
    from 0.0 (which turns -0.0 into 0.0) and trailing zeros are trimmed.
    """
    delta = float(delta) + 0.0
    row = [float(c) for c in row]
    acc = [row[-1] + 0.0]
    for c in reversed(row[:-1]):
        nxt = [0.0 + acc[0] * delta]
        nxt += [0.0 + acc[k] * delta + acc[k - 1] for k in range(1, len(acc))]
        nxt.append(0.0 + acc[-1])
        nxt[0] = c + nxt[0]
        while len(nxt) > 1 and nxt[-1] == 0.0:
            nxt.pop()
        acc = nxt
    return acc


def reference_poly_shift(coeffs, delta: float) -> np.ndarray:
    """(3, K) rows re-expanded so that p(u) becomes p(w + delta), one row at a
    time, padded back to K; a zero delta copies the rows."""
    if delta == 0.0:
        return coeffs.copy()
    out = np.zeros_like(coeffs)
    for i, row in enumerate(coeffs.tolist()):
        c = reference_shift_row(row, delta)
        out[i, : len(c)] = c
    return out


def segment_from_global(t0, t1, global_rows, particle=None):
    """Segment whose position is the given polynomial in absolute time t."""
    rows = [reference_shift_row(r, t0) for r in global_rows]  # t = u + t0
    k = max(len(r) for r in rows)
    coeffs = np.zeros((3, k))
    for i, r in enumerate(rows):
        coeffs[i, : len(r)] = r
    return Segment(t0, t1, coeffs)


def static_traj(x, t0=-300.0, t1=300.0, particle=DEFAULT):
    coeffs = np.array([[x[0]], [x[1]], [x[2]]], dtype=float)
    return PiecewiseTrajectory.from_segments((Segment(t0, t1, coeffs),), particle)


def uniform_traj(x0, v, t0=-300.0, t1=300.0, particle=DEFAULT):
    seg = segment_from_global(t0, t1, [[x0[i], v[i]] for i in range(3)])
    return PiecewiseTrajectory.from_segments((seg,), particle)


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


def scalar_far_field(traj, t, n, R, branch=Branch.RETARDED):
    """Reference far electric field of one charge at (t, R n): the scalar
    far cone time, the velocity and acceleration of its cell there by
    `Segment.at`, then `lw_radiation` at r = R."""
    t_k = scalar_far_cone_time(traj, t, n, R, branch)
    seg = traj.segment_at(t_k)
    v, a = np.array(seg.at(t_k, 1)), np.array(seg.at(t_k, 2))
    return lw_radiation(traj.particle.charge, vec3(n), R, v, a, branch)


# -- Schild's circular orbits ----------------------------------------------------
#
# Two charges +1 and -1 of mass 1 (kappa = 1) on diametrically opposite
# circles x_k(t) = +/- r (cos wt, sin wt, 0) at speed v = r w solve the
# half-advanced, half-retarded equations exactly (A. Schild, Phys. Rev. 131,
# 2762, 1963).  Positions and times scale with r, so the unit-radius pair
# (w = v) fixes everything.

def schild_lag(v: float) -> float:
    """The cone lag angle theta = w tau of Schild's pair at speed v, the root
    of theta = 2 v cos(theta / 2) on either branch, by fixed-point iteration:
    the map's slope v sin(theta / 2) stays below 1 for v < 1."""
    theta = 0.0
    for _ in range(200):
        theta = 2.0 * v * math.cos(0.5 * theta)
    return theta


def schild_force(v: float) -> float:
    """f(v): the attractive radial Lorentz force on either charge of the
    unit-radius pair, half advanced plus half retarded, written out in
    theta = `schild_lag(v)`, c = cos(theta / 2), s = sin(theta / 2), the
    Doppler factor g = 1 + v s of both branches and the cone distance 2c:

        f = [c A (1 + v^2 + 2 v s) + v^2 g (v s - cos theta) / (2c)] / g^3,
        A = (1 - v^2) / (4 c^2) + v^2 / 2.

    Both branches give the same radial force, and their tangential forces
    cancel.  At v = 0 it is the Coulomb force 1/4 at distance 2."""
    theta = schild_lag(v)
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    g = 1.0 + v * s
    big_a = (1.0 - v * v) / (4.0 * c * c) + 0.5 * v * v
    return (c * big_a * (1.0 + v * v + 2.0 * v * s)
            + v * v * g * (v * s - math.cos(theta)) / (2.0 * c)) / g**3


def schild_radius(v: float) -> float:
    """The orbit radius at speed v: m gamma v^2 / r = kappa f(v) / r^2, with
    m = kappa = 1."""
    return schild_force(v) * math.sqrt(1.0 - v * v) / (v * v)


def schild_pair(v: float, h: float, radius: float | None = None) -> tuple:
    """Hermite encoding of Schild's pair at speed v: charge +1 on
    r (cos wt, sin wt, 0) and charge -1 opposite it, w = v / r, with exact
    node positions and velocities on uniform cells about h r wide over
    [-(12 r + 4), 12 r + 4].  `radius` replaces r = `schild_radius(v)`, at
    the same speed, to give a pair that is not a solution."""
    r = schild_radius(v) if radius is None else radius
    span = 12.0 * r + 4.0
    times = np.linspace(-span, span, int(round(2.0 * span / (h * r))) + 1)
    phase = (v / r) * times
    e = np.stack([np.cos(phase), np.sin(phase), 0.0 * phase], axis=1)
    e_perp = np.stack([-np.sin(phase), np.cos(phase), 0.0 * phase], axis=1)
    return tuple(hermite_trajectory(times, sign * r * e, sign * v * e_perp,
                                    ParticleParams(mass=1.0, charge=sign))
                 for sign in (1.0, -1.0))


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


def reference_cone_crossings(traj1, partner, a, b):
    """The per-branch form of `cone_crossings`: one `cone_times` solve per
    branch's junction events, retarded images first, keeping t1 in (a, b)."""
    out = []
    junctions = partner.junction_times()
    if not junctions or b <= a:
        return out
    for branch, other in ((Branch.RETARDED, Branch.ADVANCED), (Branch.ADVANCED, Branch.RETARDED)):
        lo2, hi2 = (cone_time(partner, (t, traj1.position(t)), branch).t_k for t in (a, b))
        taus = np.array([tau for tau in junctions if lo2 < tau < hi2])
        if taus.size:
            t1 = cone_times(traj1, taus, partner.evaluate(taus), other).t_k
            out += [(t, tau, branch) for t, tau in zip(t1.tolist(), taus.tolist()) if a < t < b]
    return out


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


def scalar_el_residual(traj1, traj2, t, side=Side.RIGHT):
    """d/dt (dL/dv1) - dL/dx1 at one time, by exact algebra in the state and
    a scalar pair (see `wfvar.action.el_residual`)."""
    k = coupling(traj1, traj2)
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


# -- per-segment references for the array trajectory builder ---------------------

def reference_hermite_coeffs(t0, t1, x0, v0, x1, v1):
    """(3, 4) cubic-Hermite coefficients of one cell, one segment at a time,
    with the powers of h taken on floats."""
    x0, v0, x1, v1 = (np.asarray(a, dtype=float).reshape(3) for a in (x0, v0, x1, v1))
    h = t1 - t0
    c2 = 3.0 * (x1 - x0) / h**2 - (2.0 * v0 + v1) / h
    c3 = 2.0 * (x0 - x1) / h**3 + (v0 + v1) / h**2
    return np.column_stack([x0, v0, c2, c3])


def reference_linear_coeffs(t0, t1, x0, x1):
    """(3, 2) coefficients of the straight piece from x0 at t0 to x1 at t1."""
    x0, x1 = np.asarray(x0, dtype=float), np.asarray(x1, dtype=float)
    return np.column_stack([x0, (x1 - x0) / (t1 - t0)])


def reference_rows(coeffs):
    """Position, velocity and acceleration rows of (3, K) coefficients as
    float tuples, one row at a time, as ``npoly.polyder`` forms them: the
    derivative of a constant row is its constant times 0."""
    def derivative(row, m):
        if m >= len(row):
            return (row[0] * 0,)
        for _ in range(m):
            row = tuple(j * row[j] for j in range(1, len(row)))
        return row

    rows = [tuple(row) for row in np.asarray(coeffs, dtype=float).tolist()]
    return tuple(tuple(derivative(row, m) for row in rows) for m in range(3))


def bits(values) -> bytes:
    """The bytes of float data, which tell -0.0 from 0.0."""
    return np.asarray(values, dtype=float).tobytes()


def assert_segments_match(chain, knots, coeffs):
    """The chain's segments carry `knots` and the (3, K) blocks `coeffs` bit
    for bit, their float rows are `reference_rows` of those blocks, and the
    chain's packed rows are those `SegmentChain.from_segments` makes from its
    segments."""
    segs = chain.segments
    assert len(segs) == len(coeffs) == len(knots) - 1
    for seg, t0, t1, c in zip(segs, knots, knots[1:], coeffs):
        assert (seg.t_start, seg.t_end) == (t0, t1)
        assert bits(seg.coeffs) == bits(c)
        want = reference_rows(c)
        assert seg._rows == want
        for got_m, want_m in zip(seg._rows, want):
            assert all(isinstance(row, tuple) for row in got_m)
            assert bits(got_m) == bits(want_m)
    packed, fresh = chain.packed, SegmentChain.from_segments(segs).packed
    assert bits(packed.knots) == bits(fresh.knots) == bits(knots)
    assert bits(packed.knot_positions) == bits(fresh.knot_positions)
    for m in range(3):
        assert bits(packed.rows[m]) == bits(fresh.rows[m])


def reference_fd_velocities(times, values):
    """Node derivatives of the parabola through each node's 3-point stencil,
    one node at a time (the chord slope for two nodes)."""
    n = len(times)
    if n == 2:
        v = (values[1] - values[0]) / (times[1] - times[0])
        return [v, v]
    out = []
    for i in range(n):
        j = min(max(i - 1, 0), n - 3)
        t0, t1, t2, t = times[j], times[j + 1], times[j + 2], times[i]
        y0, y1, y2 = values[j], values[j + 1], values[j + 2]
        out.append(y0 * (2 * t - t1 - t2) / ((t0 - t1) * (t0 - t2))
                   + y1 * (2 * t - t0 - t2) / ((t1 - t0) * (t1 - t2))
                   + y2 * (2 * t - t0 - t1) / ((t2 - t0) * (t2 - t1)))
    return out


# -- per-segment references for the chain splice and perturbation ----------------

def reference_rebased(seg, a, b):
    """One `Segment` holding the polynomial of ``seg`` on [a, b]."""
    return Segment(a, b, reference_poly_shift(seg.coeffs, a - seg.t_start))


def reference_add_perturbation(traj, pert, eps):
    """`wfvar.core.add_perturbation`, one `Segment` per cell of the merged
    knots."""
    pts = {traj.t_start, traj.t_end, pert.t_start, pert.t_end}
    pts.update(traj.junction_times())
    pts.update(pert.junction_times())
    mesh = sorted(p for p in pts if traj.t_start <= p <= traj.t_end)
    segs = []
    for a, b in zip(mesh, mesh[1:]):
        base = reference_rebased(traj.segment_at(0.5 * (a + b)), a, b)
        c = base.coeffs
        if pert.t_start <= a and b <= pert.t_end:
            ps = pert.segment_at(0.5 * (a + b))
            pc = reference_poly_shift(ps.coeffs, a - ps.t_start)
            k = max(c.shape[1], pc.shape[1])
            cc = np.zeros((3, k))
            cc[:, : c.shape[1]] = c
            cc[:, : pc.shape[1]] += eps * pc
            c = cc
        segs.append(Segment(a, b, c))
    return PiecewiseTrajectory.from_segments(tuple(segs), traj.particle)


def reference_merge_history(traj, history):
    """`wfvar.core.merge_history` on segment tuples, under traj's particle:
    the cells of `history` outside traj's span, cut at its ends, around
    traj's cells."""
    a, b = traj.t_start, traj.t_end
    if not (history.t_start <= a and b <= history.t_end
            or history.t_end == a or b == history.t_start):
        raise DomainError("history neither contains nor abuts the trajectory")
    segs = []
    for s in history.segments:
        if s.t_end <= a:
            segs.append(s)
        elif s.t_start < a:
            segs.append(reference_rebased(s, s.t_start, a))
    segs.extend(traj.segments)
    for s in history.segments:
        if s.t_start >= b:
            segs.append(s)
        elif s.t_end > b:
            segs.append(reference_rebased(s, b, s.t_end))
    return PiecewiseTrajectory.from_segments(tuple(segs), traj.particle)


# -- sequential reference for the partner reconstruction --------------------------

def reference_candidates(traj2, params, n_grid, t1, x1):
    """Every direction's reconstruction of x1(t1) at one grid time, with the
    partner's cone times and the L_sigma rows."""
    t = t1 - (n_grid * x1).sum(axis=1)
    t2 = far_cone_times(traj2, t, n_grid, 0.0, Branch.RETARDED)
    separation, l_vecs = _separation(params, t, n_grid, t1 - t2)
    return traj2.evaluate(t2) + separation, t2, l_vecs


def reference_solve_position(traj2, params, n_grid, t1, x0):
    """Least-squares position at one grid time by Newton from x0."""
    x = vec3(x0).copy()
    for _ in range(60):
        cands, t2, l_vecs = reference_candidates(traj2, params, n_grid, t1, x)
        v2 = traj2.evaluate(t2, 1)
        doppler = 1.0 - (n_grid * v2).sum(axis=1)
        drhs_dt = (v2 - n_grid) / doppler[:, None] - cross(n_grid, l_vecs)
        res = (x - cands).reshape(-1)
        jac = (np.eye(3) + drhs_dt[:, :, None] * n_grid[:, None, :]).reshape(-1, 3)
        delta, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        x = x + delta
        scale = max(1.0, float(np.linalg.norm(x)))
        if float(np.linalg.norm(delta)) < 1e-13 * scale:
            return x
    raise ConvergenceError(f"partner position solve stalled at t1={t1}")


def reference_construct_partner(traj2, params, n_grid, t1_grid):
    """Positions and spreads of `wfvar.shortrange.construct_partner`, one
    grid time at a time, each Newton solve started from the previous grid
    time's position."""
    n_grid = np.asarray(n_grid, dtype=float)
    n_grid = n_grid / np.linalg.norm(n_grid, axis=1)[:, None]
    t1s = np.asarray(t1_grid, dtype=float)
    positions = np.empty((t1s.size, 3))
    spreads = np.empty(t1s.size)
    x_guess = traj2.position(t1s[0])
    for i, t1 in enumerate(t1s):
        x = reference_solve_position(traj2, params, n_grid, t1, x_guess)
        cands = reference_candidates(traj2, params, n_grid, t1, x)[0]
        positions[i] = cands.mean(axis=0)
        spreads[i] = float(np.linalg.norm(cands - positions[i], axis=1).max())
        x_guess = x
    return positions, spreads


def reference_latlong_mesh(n_theta=17, n_phi=35) -> tuple:
    """(directions, weights) of `wfvar.farfield.latlong_mesh`, built point by
    point."""
    nodes, wts = np.polynomial.legendre.leggauss(n_theta)
    dirs = []
    weights = []
    for ct, w in zip(nodes, wts):
        st = np.sqrt(max(0.0, 1.0 - ct * ct))
        for j in range(n_phi):
            phi = 2.0 * np.pi * (j + 0.5) / n_phi
            dirs.append([st * np.cos(phi), st * np.sin(phi), ct])
            weights.append(w / (2.0 * n_phi))
    return np.array(dirs), np.array(weights)


def bench_workloads(monkeypatch):
    """The benchmark's scenario builder, `bench/workloads.py`, imported
    without installing it (its own `workloads` import resolves to it)."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    return workloads
