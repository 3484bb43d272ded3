"""Advanced/retarded light-cone conditions and their large-R limit.

For an event (t, x) and a world line x_k(.), the cone times solve

    t_k = t -/+ |x - x_k(t_k)|        (- retarded, + advanced)

which has exactly one root per branch when the world line is subluminal.
The far-field variant keeps the n.x_k term in the time relation while the
amplitude treats distances as the sphere radius R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import PiecewiseTrajectory, Side, Vec3, vec3
from .errors import (
    CollisionError,
    ConeSolveError,
    ConvergenceError,
    DomainError,
    InsufficientHistoryError,
)

__all__ = ["Branch", "COLLISION_R", "ConeSolution", "cone_crossings", "cone_pair", "cone_time",
           "far_cone_time", "far_cone_times", "influence_interval"]

_MAX_ITER = 100
_EPS = np.finfo(float).eps

#: cone distances below this are a collision of the two charges
COLLISION_R = 1e-9


def _cone_tol(t: float, t_k: float, r: float, tight: bool) -> float:
    """Accepted residual: 1e-12 absolute (scaled by the event time) plus the
    floating-point noise floor of forming (t - t_k) - r at large separations.
    `tight` gives the stricter target at which refinement stops."""
    if tight:
        return 1e-13 * max(1.0, abs(t)) + 25.0 * _EPS * (abs(t_k) + abs(r))
    return 1e-12 * max(1.0, abs(t)) + 100.0 * _EPS * (abs(t_k) + abs(r))


class Branch(Enum):
    RETARDED = "retarded"
    ADVANCED = "advanced"

    @property
    def sign(self) -> int:
        """+1 for retarded (t_k = t - r), -1 for advanced (t_k = t + r)."""
        return 1 if self is Branch.RETARDED else -1


@dataclass(frozen=True)
class ConeSolution:
    """Delayed (or advanced) partner data on one branch of the light cone."""

    t_k: float
    r: float
    n_hat: Vec3
    v: Vec3
    a: Vec3
    dilation: float
    side: Side
    branch: Branch

    @property
    def doppler(self) -> float:
        """1 -/+ n.v, the factor whose reciprocal is the dilation."""
        return 1.0 / self.dilation


def _monotone_root(residual, slope, tol, lo, hi, c, gc, step, event, branch) -> tuple:
    """Root of a strictly decreasing residual on [lo, hi], and the last
    residual evaluated there.

    `residual(s)` returns (g, aux), `slope(s, aux)` is dg/ds (NaN where it
    is undefined) and `tol(s, aux, tight)` the accepted residual (`tight`:
    the target at which refinement stops).  A bracket grows from c, whose
    residual is gc, by steps that start at `step` and double, clamped to
    [lo, hi].  Newton steps from the bracket's secant point then fall back
    to bisection whenever they leave the bracket (Numerical Recipes'
    rtsafe).  A bracket end whose residual is exactly zero is the root.  A
    domain end whose residual is within tolerance but of the wrong sign
    (the root lies just past it) is returned; a root farther out raises
    InsufficientHistoryError.  Each loop runs at most _MAX_ITER times and
    raises ConeSolveError, carrying `event` and `branch`, when that is
    spent.  The search needs far fewer steps on finite input: a cone
    residual's slope lies in [-2, -(1 - |v|)], so the root lies within
    |gc| / (1 - |v|) of c, and every caller's first step is at least about
    |gc|.
    """
    if gc == 0.0:
        return c, gc
    up = gc > 0.0
    s, gs = c, gc
    for _ in range(_MAX_ITER):
        end = hi if up else lo
        if s == end:
            gs, aux = residual(end)
            if abs(gs) > tol(end, aux, False):
                raise InsufficientHistoryError(
                    f"{branch.value} cone of event t={event[0]} exits the domain "
                    f"[{lo}, {hi}] on the {'late' if up else 'early'} side"
                )
            return end, gs
        nxt = min(s + step, hi) if up else max(s - step, lo)
        gn, _ = residual(nxt)
        if gn == 0.0:
            return nxt, gn
        if (gn < 0.0) is up:
            break
        s, gs = nxt, gn
        step *= 2.0
    else:
        raise ConeSolveError(
            f"no bracket for the {branch.value} cone root of event t={event[0]} "
            f"after {_MAX_ITER} steps", event, branch)
    a, ga, b, gb = (s, gs, nxt, gn) if up else (nxt, gn, s, gs)

    # A Newton step may land on a closed end of the bracket the search
    # found, once per end: the search never tested those ends against the
    # acceptance threshold.
    untested = {a, b}
    # clipped: rounding may carry the secant point past an end
    t_k = min(max(a + ga * (b - a) / (ga - gb), a), b)
    for _ in range(_MAX_ITER):
        g, aux = residual(t_k)
        if abs(g) <= tol(t_k, aux, True):
            # One polishing step: the accepted residual divided by a small
            # slope (fast receding motion) can still move the root by more
            # than 1e-12, while a final Newton update leaves only evaluation
            # noise.  Keep the bracket as a safety net.
            polished = t_k - g / slope(t_k, aux)
            return (polished if a < polished < b else t_k), g
        if g > 0.0:
            untested.discard(a)
            a = t_k
        else:
            untested.discard(b)
            b = t_k
        t_next = t_k - g / slope(t_k, aux)
        if not (a < t_next < b or t_next in untested):
            t_next = 0.5 * (a + b)
        if t_next == t_k:
            return t_k, g
        t_k = t_next
    g, aux = residual(t_k)
    if abs(g) <= tol(t_k, aux, False):
        return t_k, g
    raise ConeSolveError(
        f"{branch.value} cone root of event t={event[0]} did not converge: "
        f"residual {g:.3g} after {_MAX_ITER} iterations", event, branch)


def _scalar_cone(traj: PiecewiseTrajectory, t: float, x: Vec3, sign: int) -> tuple:
    """Residual, slope and tolerance of the cone condition of event (t, x),
    on plain floats.

    Times must lie in the trajectory domain.  The residual looks up the
    right-sided segment once per time and hands it to the slope with the
    distance; both evaluate it by Horner on its cached rows
    (`Segment.at`), so no evaluation goes through numpy.
    """
    x0, x1, x2 = (float(c) for c in x)

    def residual(t_k: float) -> tuple:
        """g(t_k) = (t - t_k) - sign*r, with (distance vector, r, segment)."""
        seg = traj.segment_at(t_k)
        px, py, pz = seg.at(t_k)
        d = (x0 - px, x1 - py, x2 - pz)
        r = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        return (t - t_k) - sign * r, (d, r, seg)

    def slope(t_k: float, aux: tuple) -> float:
        """dg/dt_k = -1 + sign * n.v with the right-sided velocity, in
        (-2, 0); NaN at r = 0, where n is undefined."""
        d, r, seg = aux
        if r == 0.0:
            return math.nan
        vx, vy, vz = seg.at(t_k, 1)
        return -1.0 + sign * (d[0] * vx + d[1] * vy + d[2] * vz) / r

    def tol(t_k: float, aux: tuple, tight: bool) -> float:
        return _cone_tol(t, t_k, aux[1], tight)

    return residual, slope, tol


def cone_time(traj: PiecewiseTrajectory, event, branch: Branch,
              side: Side = Side.RIGHT) -> ConeSolution:
    """Solve the light-cone condition of `event` onto `traj`.

    `event` is a (time, position) pair.  The root is bracketed by geometric
    expansion from the event time and then polished by Newton steps that fall
    back to bisection whenever they leave the bracket; g is strictly monotone
    for subluminal motion, so the bracket is guaranteed once the domain
    contains the root.  A bracket end whose residual is exactly zero is the
    root (a static partner's first step lands there).  `side` picks the
    one-sided partner data when t_k lands exactly on a junction (Right unless
    a one-sided limit is wanted).
    """
    t, x = float(event[0]), vec3(event[1])
    residual, slope, tol = _scalar_cone(traj, t, x, branch.sign)
    lo, hi = traj.t_start, traj.t_end
    c = min(max(t, lo), hi)
    gc, (_, rc, _) = residual(c)
    t_k, _ = _monotone_root(residual, slope, tol, lo, hi, c, gc,
                            max(rc, 1e-3, 1e-3 * abs(t)), (t, x), branch)
    return _solution_at(traj, residual, t, branch, t_k, side)


def _solution_at(traj, residual, t, branch: Branch, t_k: float, side: Side) -> ConeSolution:
    sign = branch.sign
    # snap to an exact junction when the root lands on one (up to root noise),
    # so that one-sided evaluation through `side` is meaningful; keep the
    # converged root if the junction itself violates the residual contract
    for j in traj.adjacent_junctions(t_k):
        if j != t_k and abs(j - t_k) < 1e-9 * max(1.0, abs(t_k)):
            gj, (_, rj, _) = residual(j)
            if abs(gj) <= _cone_tol(t, j, rj, False):
                t_k = j
            break
    g, (d, r, _) = residual(t_k)
    if abs(g) > _cone_tol(t, t_k, r, False):
        raise ConvergenceError(f"cone residual {g:.3g} exceeds tolerance at t_k={t_k}")
    if r == 0.0:
        raise CollisionError(f"event at t={t} touches the trajectory (r = 0)")
    n_hat = np.array(d) / r
    seg = traj.segment_at(t_k, side)
    v, a_vec = np.array(seg.at(t_k, 1)), np.array(seg.at(t_k, 2))
    doppler = 1.0 - sign * float(n_hat @ v)  # retarded: 1 - n.v, advanced: 1 + n.v
    return ConeSolution(
        t_k=t_k,
        r=r,
        n_hat=n_hat,
        v=v,
        a=a_vec,
        dilation=1.0 / doppler,
        side=side,
        branch=branch,
    )


def cone_pair(traj: PiecewiseTrajectory, t: float, x, side: Side = Side.RIGHT) -> tuple:
    """Advanced and retarded cone solutions of event (t, x) onto `traj`.

    Raises CollisionError when a cone distance falls below COLLISION_R.
    """
    pair = []
    for branch in (Branch.ADVANCED, Branch.RETARDED):
        sol = cone_time(traj, (t, x), branch, side=side)
        if sol.r < COLLISION_R:
            raise CollisionError(f"cone distance {sol.r} below {COLLISION_R} at t={t}")
        pair.append(sol)
    return tuple(pair)


def cone_crossings(traj1: PiecewiseTrajectory, partner: PiecewiseTrajectory,
                   a: float, b: float) -> list:
    """Times in (a, b) where a cone image of trajectory 1 crosses a partner
    junction, as (t1, tau, branch) triples.

    Both cone maps are strictly increasing in t1, so each crossing is the
    root of tau - t_k(t1) on [a, b], whose slope follows from differentiating
    the cone condition: dt_k/dt1 = (1 - s n.v1) / (1 - s n.V).
    """
    out = []
    partner_junctions = partner.junction_times()
    if not partner_junctions or b <= a:
        return out
    for branch in (Branch.RETARDED, Branch.ADVANCED):
        sign = branch.sign

        def image(t1):
            """Cone solution of the event x1(t1), with trajectory 1's segment."""
            seg = traj1.segment_at(t1)
            return cone_time(partner, (t1, np.array(seg.at(t1))), branch), seg

        lo2, hi2 = image(a)[0].t_k, image(b)[0].t_k
        for tau in partner_junctions:
            if not lo2 < tau < hi2:
                continue

            def residual(t1):
                sol, seg = image(t1)
                return tau - sol.t_k, (sol, seg)

            def slope(t1, aux):
                sol, seg = aux
                v1 = np.array(seg.at(t1, 1))
                return -(1.0 - sign * float(sol.n_hat @ v1)) * sol.dilation

            def tol(t1, aux, tight):
                sol = aux[0]
                return _cone_tol(tau, sol.t_k, sol.r, tight)

            t1, _ = _monotone_root(residual, slope, tol, a, b, a, tau - lo2, math.inf,
                                   (tau, partner.position(tau)), branch)
            out.append((float(t1), tau, branch))
    return out


def far_cone_time(traj: PiecewiseTrajectory, t: float, n, R: float,
                  branch: Branch = Branch.RETARDED) -> float:
    """Cone time in the large-R limit: t_k = t - R + n.x(t_k) (retarded).

    The advanced analog flips both signs, t_k = t + R - n.x(t_k).  R = 0 is
    allowed and turns `t` into the R-subtracted sphere time used for
    direction scans.  The residual (t - t_k) - s (R - n.x(t_k)) is the cone
    residual with R - n.x in place of r, solved by the same bracketed Newton.
    Outside the domain x is held at its end value, which keeps the residual
    monotone; a root at most 1e-9 max(1, |t_k|) outside the domain returns
    that domain end, and one farther out raises InsufficientHistoryError.
    """
    n = vec3(n)
    if abs(float(np.linalg.norm(n)) - 1.0) > 1e-9:
        raise DomainError(f"direction must be a unit vector, |n| = {np.linalg.norm(n)}")
    if R < 0.0:
        raise DomainError("R must be nonnegative")
    t, R = float(t), float(R)
    sign = branch.sign
    lo, hi = traj.t_start, traj.t_end
    n0, n1, n2 = (float(c) for c in n)
    scale = max(1.0, abs(t) + R)

    def residual(t_k):
        """The residual, with the segment it read x from."""
        tc = min(max(t_k, lo), hi)
        seg = traj.segment_at(tc)
        px, py, pz = seg.at(tc)
        return (t - t_k) - sign * (R - (n0 * px + n1 * py + n2 * pz)), seg

    def slope(t_k, seg):
        if not lo <= t_k <= hi:
            return -1.0
        vx, vy, vz = seg.at(t_k, 1)
        return -1.0 + sign * (n0 * vx + n1 * vy + n2 * vz)

    def tol(t_k, _, tight):
        return (1e-13 if tight else 1e-12) * scale

    c = t - sign * R
    gc, _ = residual(c)
    t_k, g = _monotone_root(residual, slope, tol, -math.inf, math.inf, c, gc,
                            max(abs(gc), 1e-3 * max(1.0, abs(c))), (t, n, R), branch)
    if abs(g) > 1e-12 * scale:
        raise ConvergenceError(f"far cone residual {g:.3g} at t_k={t_k}")
    slack = 1e-9 * max(1.0, abs(t_k))
    if t_k < lo - slack or t_k > hi + slack:
        raise InsufficientHistoryError(
            f"far cone time {t_k} outside trajectory domain [{lo}, {hi}]"
        )
    return float(min(max(t_k, lo), hi))


def far_cone_times(traj: PiecewiseTrajectory, t, dirs, R: float,
                   branch: Branch = Branch.RETARDED) -> np.ndarray:
    """`far_cone_time` for many lanes at once: event times `t` (a float or
    (M,)) with unit directions `dirs` ((M, 3)), all at radius R.

    The residual is monotone, so its values at the chain's knots bracket
    each lane's root between two adjacent knots; a vectorized binary search
    finds them in O(M log nseg).  A root outside the domain, where x is held
    at its end value, has slope -1 and is solved in closed form, with
    `far_cone_time`'s 1e-9 slack.  Inside a segment, Newton steps fall back
    to bisection, with `far_cone_time`'s tolerances and _MAX_ITER budget.
    Errors match `far_cone_time`'s, for the first failing lane.
    """
    dirs = np.asarray(dirs, dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != 3:
        raise DomainError(f"directions must have shape (M, 3), got {dirs.shape}")
    if not np.all(np.isfinite(dirs)):
        raise DomainError("non-finite direction components")
    off_unit = np.abs(np.linalg.norm(dirs, axis=1) - 1.0) > 1e-9
    if off_unit.any():
        raise DomainError(f"direction must be a unit vector, |n| = "
                          f"{np.linalg.norm(dirs[off_unit][0])}")
    if R < 0.0:
        raise DomainError("R must be nonnegative")
    R = float(R)
    t = np.broadcast_to(np.asarray(t, dtype=float), dirs.shape[:1])
    sign = branch.sign
    n0, n1, n2 = dirs[:, 0], dirs[:, 1], dirs[:, 2]

    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        lane = bad[0]
        raise ConeSolveError(f"{branch.value} far cone of event t={t[lane]} has no "
                             f"finite residual", (float(t[lane]), dirs[lane], R), branch)
    scale = np.maximum(1.0, np.abs(t) + R)
    packed = traj.packed
    knots, xk = packed.knots, packed.knot_positions
    last = knots.size - 1
    every = slice(None)

    def residual(lanes, t_k, x):
        """far_cone_time's residual of `lanes` at times t_k, positions x."""
        nx = n0[lanes] * x[:, 0] + n1[lanes] * x[:, 1] + n2[lanes] * x[:, 2]
        return (t[lanes] - t_k) - sign * (R - nx)

    # k: the first knot whose residual is <= 0 (last + 1 if none is)
    k = np.zeros(t.shape, dtype=np.intp)
    hi = np.full(t.shape, last + 1)
    while (k < hi).any():
        mid = np.minimum((k + hi) // 2, last)
        above = residual(every, knots[mid], xk[mid]) > 0.0
        k, hi = np.where((k < hi) & above, mid + 1, k), np.where((k < hi) & ~above, mid, hi)
    gk = residual(every, knots[np.minimum(k, last)], xk[np.minimum(k, last)])
    on_knot = (k <= last) & (gk == 0.0)
    t_k = knots[np.minimum(k, last)]

    # outside the domain x is held at its end value, so the slope is -1 and
    # the residual at t_k = 0 is the root
    for lanes, j in (np.flatnonzero((k == 0) & ~on_knot), 0), (np.flatnonzero(k > last), last):
        root = residual(lanes, 0.0, xk[j:j + 1])
        slack = 1e-9 * np.maximum(1.0, np.abs(root))
        exits = (root < knots[0] - slack) | (root > knots[-1] + slack)
        if exits.any():
            raise InsufficientHistoryError(
                f"far cone time {root[exits][0]} outside trajectory domain "
                f"[{knots[0]}, {knots[-1]}]")
        t_k[lanes] = knots[j]

    # inside segment k - 1: Newton from the secant point, bisection whenever
    # a step leaves the bracket; lanes drop out as they finish
    lanes = np.flatnonzero((k >= 1) & (k <= last) & ~on_knot)
    seg = k[lanes] - 1
    a, b = knots[seg], knots[seg + 1]
    ga, gb = residual(lanes, a, xk[seg]), gk[lanes]
    s = np.minimum(np.maximum(a + ga * (b - a) / (ga - gb), a), b)
    for _ in range(_MAX_ITER):
        if not lanes.size:
            break
        g = residual(lanes, s, packed.at(seg, s))
        v = packed.at(seg, s, 1)
        step = s - g / (-1.0 + sign * (n0[lanes] * v[:, 0] + n1[lanes] * v[:, 1]
                                       + n2[lanes] * v[:, 2]))
        done = np.abs(g) <= 1e-13 * scale[lanes]
        # one polishing step, kept inside the bracket (see _monotone_root)
        t_k[lanes[done]] = np.where((a < step) & (step < b), step, s)[done]
        a, b = np.where(g > 0.0, s, a), np.where(g > 0.0, b, s)
        step = np.where((a < step) & (step < b), step, 0.5 * (a + b))
        stalled = ~done & (step == s)
        off = stalled & (np.abs(g) > 1e-12 * scale[lanes])
        if off.any():
            raise ConvergenceError(f"far cone residual {g[off][0]:.3g} at t_k={s[off][0]}")
        t_k[lanes[stalled]] = s[stalled]
        keep = ~(done | stalled)
        lanes, seg, a, b, s = lanes[keep], seg[keep], a[keep], b[keep], step[keep]
    if lanes.size:
        g = residual(lanes, s, packed.at(seg, s))
        off = np.abs(g) > 1e-12 * scale[lanes]
        if off.any():
            lane = lanes[off][0]
            raise ConeSolveError(
                f"{branch.value} far cone root of event t={t[lane]} did not converge: "
                f"residual {g[off][0]:.3g} after {_MAX_ITER} iterations",
                (float(t[lane]), dirs[lane], R), branch)
        t_k[lanes] = s
    return t_k


def influence_interval(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
                       t2: float) -> tuple:
    """Times on trajectory 1 whose light cones touch the event t2 on trajectory 2.

    Returns (retarded cone time, advanced cone time) of (t2, x2(t2)) onto
    trajectory 1; every t1 in between interacts with the given partner point
    through neither cone, and the endpoints through exactly one.
    """
    event = (t2, traj2.position(t2))
    lo = cone_time(traj1, event, Branch.RETARDED).t_k
    hi = cone_time(traj1, event, Branch.ADVANCED).t_k
    return (lo, hi)
