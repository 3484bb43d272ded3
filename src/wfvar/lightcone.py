"""Advanced/retarded light-cone conditions and their large-R limit.

For an event (t, x) and a world line x_k(.), the cone times solve

    t_k = t -/+ |x - x_k(t_k)|        (- retarded, + advanced)

which has exactly one root per branch when the world line is subluminal.
The far-field variant keeps the n.x_k term in the time relation while the
amplitude treats distances as the sphere radius R; of the Lienard-Wiechert
fields `lw_fields` of a cone solution, only the radiation term `lw_radiation` stays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import PiecewiseTrajectory, Side, Vec3, cross, vec3
from .errors import (
    CollisionError,
    ConeSolveError,
    ConvergenceError,
    DomainError,
    InsufficientHistoryError,
)

__all__ = ["Branch", "COLLISION_R", "ConeSolution", "cone_crossings", "cone_pair", "cone_pairs",
           "cone_time", "cone_times", "far_cone_time", "far_cone_times", "influence_interval",
           "lw_fields", "lw_radiation", "normalized_directions", "unit_directions"]

_MAX_ITER = 100
_EPS = np.finfo(float).eps
#: a cell's rounding floor per unit of its `PackedChain.bounds`: about the
#: rounding of a position read on the cell, which no residual there can
#: beat, so a lane that would raise is accepted within the floor
_FLOOR = 100.0 * _EPS

#: cone distances below this are a collision of the two charges
COLLISION_R = 1e-9


def _cone_tol(t, t_k, r, tight: bool, maximum=max):
    """Accepted residual: 1e-12 absolute (scaled by the event time) plus the
    floating-point noise floor of forming (t - t_k) - r at large separations.
    `tight` gives the stricter target at which refinement stops.  Floats by
    default; arrays with `maximum=np.maximum`."""
    if tight:
        return 1e-13 * maximum(1.0, abs(t)) + 25.0 * _EPS * (abs(t_k) + abs(r))
    return 1e-12 * maximum(1.0, abs(t)) + 100.0 * _EPS * (abs(t_k) + abs(r))


def _cone_span(t, rc, rho, sign, maximum=max) -> tuple:
    """Times (lo, hi) that bracket the first knot whose cone residual is
    <= 0, for an event at time t a distance rc from the centre of the
    partner's knot hull `PackedChain.hull` of radius rho.  Every knot
    distance lies in [max(0, rc - rho), rc + rho], so a knot before both
    t - s (rc + rho) and t - s max(0, rc - rho), s the branch sign, has a
    residual > 0, and one at or past both has a residual <= 0.  Widened by
    1e-9 (1 + |t| + rc + rho), far above the rounding of the residuals.
    Floats by default; arrays with `maximum=np.maximum`."""
    far = rc + rho
    a, b = t - sign * far, t - sign * maximum(rc - rho, 0.0)  # a <= b when retarded
    margin = 1e-9 * (1.0 + abs(t) + far)
    return -maximum(-a, -b) - margin, maximum(a, b) + margin


class Branch(Enum):
    RETARDED = "retarded"
    ADVANCED = "advanced"

    @property
    def sign(self) -> int:
        """+1 for retarded (t_k = t - r), -1 for advanced (t_k = t + r)."""
        return 1 if self is Branch.RETARDED else -1


@dataclass(frozen=True)
class ConeSolution:
    """Delayed (or advanced) partner data on one branch of the light cone;
    `cone_times` fills every field but side and branch with one row per
    event, or with scalars and (3,) rows for one event at a float time."""

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


def cone_time(traj: PiecewiseTrajectory, event, branch: Branch,
              side: Side = Side.RIGHT) -> ConeSolution:
    """Solve the light-cone condition of `event` onto `traj`: one lane of
    `cone_times` on plain floats, with the same fields bit for bit.

    `event` is a (time, position) pair.  The residual g(t_k) = (t - t_k) -
    s r, s the branch sign, is strictly decreasing for subluminal motion.
    A binary search on the knot residuals, each computed once and started
    inside `_cone_span`'s knot-hull bracket, finds the first knot k whose
    residual is <= 0; inside segment k - 1 the root is refined as in
    `_lane_roots`, and the junction snap, domain-end rule, COLLISION_R
    cutoff and Doppler sum follow `cone_times` in its operation order, and
    so do the exception types.  `side` picks the one-sided V and A where
    t_k lands on a junction.  Every position and velocity is one
    `Segment.at` call; a one-lane `cone_times` gives the same result at
    many times the cost.
    """
    t, x = float(event[0]), vec3(event[1])
    if not math.isfinite(t):
        raise ConeSolveError(f"{branch.value} cone of event t={t} has no finite residual",
                             (t, x), branch)
    x0, x1, x2 = x.tolist()
    sign = branch.sign
    segs = traj.segments
    last = len(segs)

    def residual(t_k: float, seg) -> tuple:
        """(t - t_k) - sign*r at the position of `seg`, with (distance vector, r)."""
        px, py, pz = seg.at(t_k)
        d = (x0 - px, x1 - py, x2 - pz)
        r = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        return (t - t_k) - sign * r, d, r

    def knot_residual(j: int) -> float:
        seg = segs[min(j, last - 1)]
        return residual(seg.t_start if j < last else seg.t_end, seg)[0]

    # first knot whose residual is <= 0 (last + 1 if none is), searched
    # inside the knot-hull bracket; ga and gb keep the residuals of knots
    # k - 1 and k
    c, rho = traj.packed.hull
    c0, c1, c2 = c.tolist()
    rc = math.sqrt((x0 - c0) ** 2 + (x1 - c1) ** 2 + (x2 - c2) ** 2)
    k, hi = traj.packed.knots.searchsorted(_cone_span(t, rc, rho, sign)).tolist()
    ga = gb = None
    while k < hi:
        mid = (k + hi) // 2
        g = knot_residual(mid)
        if g > 0.0:
            k, ga = mid + 1, g
        else:
            hi, gb = mid, g
    # knots the search skipped, where the bracket started on them
    if k <= last and gb is None:
        gb = knot_residual(k)
    if ga is None and k >= 1 and (k > last or gb != 0.0):
        ga = knot_residual(k - 1)
    gk = gb if k <= last else ga
    t_k = segs[k].t_start if k < last else traj.t_end

    if 1 <= k <= last and gk != 0.0:
        seg = segs[k - 1]
        a, b = seg.t_start, seg.t_end
        s = min(max(a + ga * (b - a) / (ga - gb), a), b)
        for _ in range(_MAX_ITER):
            g, d, r = residual(s, seg)
            vx, vy, vz = seg.at(s, 1)
            nv = (d[0] * vx + d[1] * vy + d[2] * vz) / r if r > 0.0 else math.nan
            slope = -1.0 + sign * nv
            step = s - g / slope
            if abs(g) <= _cone_tol(t, s, r, True):
                t_k = step if a < step < b else s  # one polishing step
                break
            a, b = (s, b) if g > 0.0 else (a, s)
            if not a < step < b:
                step = 0.5 * (a + b)
            if step == s:
                if (abs(g) > _cone_tol(t, s, r, False)
                        and abs(g) > _FLOOR * traj.packed.bounds(k - 1)):
                    raise ConvergenceError(f"cone residual {g:.3g} at t_k={s}")
                t_k = s
                break
            s = step
        else:
            g, _, r = residual(s, seg)
            if (abs(g) > _cone_tol(t, s, r, False)
                    and abs(g) > _FLOOR * traj.packed.bounds(k - 1)):
                raise ConeSolveError(
                    f"{branch.value} cone root of event t={t} did not converge: "
                    f"residual {g:.3g} after {_MAX_ITER} iterations", (t, x), branch)
            t_k = s

    # the junction snap of `cone_times`
    j, near = traj.nearest_junctions(t_k, 1e-9 * max(1.0, abs(t_k)))
    j = float(j)
    if near and j != t_k:
        gj, _, rj = residual(j, traj.segment_at(j))
        if abs(gj) <= _cone_tol(t, j, rj, False):
            t_k = j

    index = int(traj.segment_indices(t_k))
    g, d, r = residual(t_k, segs[index])
    if abs(g) > _cone_tol(t, t_k, r, False):
        if (k == 0 and gk != 0.0) or k > last:
            raise InsufficientHistoryError(
                f"{branch.value} cone of event t={t} exits the domain "
                f"[{traj.t_start}, {traj.t_end}]")
        if abs(g) > _FLOOR * traj.packed.bounds(index):
            raise ConvergenceError(f"cone residual {g:.3g} exceeds tolerance at t_k={t_k}")
    if r < COLLISION_R:
        raise CollisionError(f"cone distance {r} below {COLLISION_R} at t={t}")
    n0, n1, n2 = d[0] / r, d[1] / r, d[2] / r
    seg = segs[index] if side is Side.RIGHT else traj.segment_at(t_k, side)
    v = seg.at(t_k, 1)
    doppler = 1.0 - sign * (n0 * v[0] + n1 * v[1] + n2 * v[2])
    return ConeSolution(t_k=t_k, r=r, n_hat=np.array([n0, n1, n2]), v=np.array(v),
                        a=np.array(seg.at(t_k, 2)), dilation=1.0 / doppler,
                        side=side, branch=branch)


def cone_pair(traj: PiecewiseTrajectory, t, x, side: Side = Side.RIGHT) -> tuple:
    """Advanced and retarded cone solutions of the events (t, x) onto `traj`,
    for one float time and a (3,) position or for (M,) times and (M, 3)
    positions: both branches in one lane solve, each equal to `cone_times`
    on its branch.  One block of `cone_pairs`.

    Raises CollisionError when a cone distance falls below COLLISION_R.
    """
    return cone_pairs(traj, ((t, x, side),))[0]


def cone_pairs(traj: PiecewiseTrajectory, events) -> list:
    """`cone_pair` of every (t, x, side) block of `events` in one lane solve,
    as one (advanced, retarded) pair per block: the two sides of a break
    take one solve.  Errors are those of one `cone_pair` call per block in
    order, with `_cone_solutions`' one difference."""
    sols = _cone_solutions(traj, [(branch, t, x, side) for t, x, side in events
                                  for branch in (Branch.ADVANCED, Branch.RETARDED)])
    return list(zip(sols[0::2], sols[1::2]))


def cone_crossings(traj1: PiecewiseTrajectory, partner: PiecewiseTrajectory,
                   a: float, b: float) -> list:
    """Times in (a, b) where a cone image of trajectory 1 crosses a partner
    junction, as (t1, tau, branch) triples.

    Both cone maps are strictly increasing in t1, so a junction tau is
    crossed exactly when its cone residual (t - tau) - s |x1(t) - x2(tau)|,
    s the branch sign, is below -`_cone_tol` at t = a and above it at t = b
    (within it, `cone_times` snaps the image onto tau); at the partner's
    domain ends the same residuals raise `cone_times`'
    InsufficientHistoryError.  The crossing time solves t1 = tau + s r, the
    other branch's cone condition of (tau, x2(tau)) onto trajectory 1, so
    one lane solve finds the crossings of both branches.  Only domain exits
    are judged: a window end within COLLISION_R of the partner is reported
    by the integrand's lane solves, not here.
    """
    knots, xk = partner.packed.knots, partner.packed.knot_positions
    if knots.size < 3 or b <= a:
        return []
    ts = np.array([[a], [b]])
    d = np.array([traj1.position(a), traj1.position(b)])[:, None] - xk
    r = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2])
    tol = _cone_tol(ts, knots, r, False, np.maximum)
    blocks, branches = [], []
    for branch, other in ((Branch.RETARDED, Branch.ADVANCED), (Branch.ADVANCED, Branch.RETARDED)):
        g = (ts - knots) - branch.sign * r  # (2, knots): at t = a, then at t = b
        exits = (g[:, 0] < -tol[:, 0]) | (g[:, -1] > tol[:, -1])
        if exits.any():
            raise InsufficientHistoryError(
                f"{branch.value} cone of event t={ts[exits.argmax(), 0]} exits the domain "
                f"[{knots[0]}, {knots[-1]}]")
        # past the exit check, neither domain end is crossed
        crossed = np.flatnonzero((g[0] < -tol[0]) & (g[1] > tol[1]))
        if crossed.size:
            blocks.append((other, knots[crossed], xk[crossed], Side.RIGHT))
            branches.append(branch)
    sols = _cone_solutions(traj1, blocks) if blocks else []
    return [(t, tau, branch) for sol, (_, taus, _, _), branch in zip(sols, blocks, branches)
            for t, tau in zip(sol.t_k.tolist(), taus.tolist()) if a < t < b]


def far_cone_time(traj: PiecewiseTrajectory, t: float, n, R: float,
                  branch: Branch = Branch.RETARDED) -> float:
    """Cone time in the large-R limit: t_k = t - R + n.x(t_k) (retarded).

    The advanced analog flips both signs, t_k = t + R - n.x(t_k).  R = 0 is
    allowed and turns `t` into the R-subtracted sphere time used for
    direction scans.  The residual (t - t_k) - s (R - n.x(t_k)) is the cone
    residual with R - n.x in place of r.  Outside the domain x is held at
    its end value, which keeps the residual monotone; a root at most 1e-9
    max(1, |t_k|) outside the domain returns that domain end, and one
    farther out raises InsufficientHistoryError.  One lane of
    `far_cone_times`.
    """
    return float(far_cone_times(traj, float(t), unit_directions(n)[None], R, branch)[0])


def _lane_roots(packed, t, span, residual, slope, tol, what: str, event) -> tuple:
    """Roots of strictly decreasing residuals on a packed chain, one lane
    per event time in `t`, as (t_k, k, g_k).

    `residual(lanes, t_k, x)` returns the residuals of `lanes` at times t_k
    and chain positions x, with data `aux` read by `slope(lanes, aux, v)`
    (dg/dt_k at velocities v, NaN where undefined) and `tol(lanes, t_k,
    aux, tight)`.  A vectorized binary search on the knot residuals finds
    k, the first knot whose residual is <= 0 (knots.size if none is).
    `span()` gives each lane's (lo, hi) times, which bound k by the knot
    hull: every knot before lo has a residual > 0 and the first one at or
    past hi has one <= 0, so each lane's search runs between those two
    knots only; k is the same as a search over every knot, which a span
    of (-inf, inf) gives.  A
    lane with 1 <= k <= last and a nonzero residual g_k at knot k is solved
    inside segment k - 1: Newton from the secant point, bisection whenever
    a step leaves the bracket, one polishing step and the _MAX_ITER budget;
    a lane that stalls or spends the budget must meet `tol` or its cell's
    rounding floor, `_FLOOR` times its `PackedChain.bounds`.  Every other
    lane keeps knot min(k, last): its root, or the domain end its root lies
    past.  `event(lane)` is the (event, Branch) pair a ConeSolveError of
    that lane names: a non-finite event time raises one for the first such
    lane before any search, and before `span` is called.  `cone_time` is
    the same loop on floats, step for step, from the same bracket.
    """
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        at, branch = event(bad[0])
        raise ConeSolveError(f"{branch.value} {what} of event t={t[bad[0]]} has no "
                             f"finite residual", at, branch)
    knots, xk = packed.knots, packed.knot_positions
    last = knots.size - 1
    every = slice(None)
    lo, hi = span()
    k, hi = np.searchsorted(knots, lo), np.searchsorted(knots, hi)
    del lo
    while (live := k < hi).any():
        mid = np.minimum((k + hi) // 2, last)
        above = residual(every, knots[mid], xk[mid])[0] > 0.0
        k, hi = np.where(live & above, mid + 1, k), np.where(live & ~above, mid, hi)
        del mid, above
    del hi, live
    at_knot = np.minimum(k, last)
    gk = residual(every, knots[at_knot], xk[at_knot])[0]
    t_k = knots[at_knot]
    del at_knot

    # inside segment k - 1; lanes drop out as they finish
    lanes = np.flatnonzero((k >= 1) & (k <= last) & (gk != 0.0))
    seg = k[lanes] - 1
    a, b = knots[seg], knots[seg + 1]
    ga, gb = residual(lanes, a, xk[seg])[0], gk[lanes]
    s = np.minimum(np.maximum(a + ga * (b - a) / (ga - gb), a), b)
    del ga, gb
    for _ in range(_MAX_ITER):
        if not lanes.size:
            break
        g, aux = residual(lanes, s, packed.at(seg, s))
        step = s - g / slope(lanes, aux, packed.at(seg, s, 1))
        done = np.abs(g) <= tol(lanes, s, aux, True)
        # one polishing step, kept inside the bracket
        t_k[lanes[done]] = np.where((a < step) & (step < b), step, s)[done]
        a, b = np.where(g > 0.0, s, a), np.where(g > 0.0, b, s)
        step = np.where((a < step) & (step < b), step, 0.5 * (a + b))
        stalled = ~done & (step == s)
        if stalled.any():
            off = stalled & (np.abs(g) > tol(lanes, s, aux, False))
            if off.any():
                off &= np.abs(g) > _FLOOR * packed.bounds(seg)
            if off.any():
                raise ConvergenceError(f"{what} residual {g[off][0]:.3g} at t_k={s[off][0]}")
            t_k[lanes[stalled]] = s[stalled]
        keep = ~(done | stalled)
        if not keep.all():
            lanes, seg, a, b, step = lanes[keep], seg[keep], a[keep], b[keep], step[keep]
        s = step
    if lanes.size:
        g, aux = residual(lanes, s, packed.at(seg, s))
        off = np.abs(g) > tol(lanes, s, aux, False)
        if off.any():
            off &= np.abs(g) > _FLOOR * packed.bounds(seg)
        if off.any():
            at, branch = event(lanes[off][0])
            raise ConeSolveError(
                f"{branch.value} {what} root of event t={at[0]} did not converge: "
                f"residual {g[off][0]:.3g} after {_MAX_ITER} iterations", at, branch)
        t_k[lanes] = s
    return t_k, k, gk


def cone_times(traj: PiecewiseTrajectory, ts, xs, branch: Branch,
               side: Side = Side.RIGHT) -> ConeSolution:
    """Cone solutions of M events at once: times `ts` ((M,)) and positions
    `xs` ((M, 3)), as one ConeSolution whose fields are arrays (t_k, r and
    dilation (M,); n_hat, v and a (M, 3)).  A float time and a (3,)
    position give scalar fields and (3,) rows.  `side` picks the one-sided
    V and A where a root lands on a junction.

    Each lane is bracketed between two knots of the chain, by a search
    that starts inside the `_cone_span` of the chain's knot hull, and
    solved by Newton with bisection (`_lane_roots`) under the `_cone_tol`
    tolerances, each widened to its cell's rounding floor (`_FLOOR`) where
    a lane would otherwise fail to converge, and the _MAX_ITER budget.  A root past a
    domain end returns that end when the end's residual is within tolerance
    and raises InsufficientHistoryError otherwise; a root within 1e-9
    max(1, |t_k|) of a junction snaps to it when the junction's residual is
    within tolerance; a cone distance below COLLISION_R raises
    CollisionError.  Errors are raised for the first failing lane.  Each
    lane equals `cone_time` of its event bit for bit.
    """
    return _cone_solutions(traj, ((branch, ts, xs, side),))[0]


def _cone_solutions(traj: PiecewiseTrajectory, blocks) -> list:
    """`cone_times` of every (branch, ts, xs, side) block of `blocks` in one
    lane solve, as one ConeSolution per block.

    Each lane carries its block's branch sign, which only ever multiplies
    by +-1.0, and its block's side, which picks its one-sided V and A, so
    every lane is bit for bit the `cone_times` lane of its event.  Errors
    are those of one `cone_times` call per block in order: a non-finite
    position or event time (the first such lane, with its branch) before
    any solve, then each block's tolerance and domain-exit check and its
    COLLISION_R check.  One difference: when lanes of two
    blocks fail inside the root loop, the error may name a lane of a later
    block where the calls in order named one of an earlier block.
    """
    shapes = [np.shape(ts) for _, ts, _, _ in blocks]
    ts = [np.asarray(t, dtype=float).reshape(-1) for _, t, _, _ in blocks]
    xs = [np.asarray(x, dtype=float) for _, _, x, _ in blocks]
    for t, x in zip(ts, xs):
        if x.size != 3 * t.size:
            raise DomainError(f"events need one (3,) position per time: got shape "
                              f"{x.shape} for {t.size} times")
    xs = np.concatenate([x.reshape(t.size, 3) for t, x in zip(ts, xs)])
    sizes = [t.size for t in ts]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    ts = np.concatenate(ts)
    if not np.all(np.isfinite(xs)):
        raise DomainError("non-finite event positions")
    sign = np.repeat([float(branch.sign) for branch, _, _, _ in blocks], sizes)

    def event(lane):
        return (float(ts[lane]), xs[lane]), blocks[np.searchsorted(ends, lane, "right")][0]

    def residual(lanes, t_k, x):
        """(t - t_k) - sign*r, with (distance vectors, r)."""
        d = xs[lanes] - x
        r = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])
        return (ts[lanes] - t_k) - sign[lanes] * r, (d, r)

    def slope(lanes, aux, v):
        d, r = aux
        with np.errstate(divide="ignore", invalid="ignore"):
            nv = (d[:, 0] * v[:, 0] + d[:, 1] * v[:, 1] + d[:, 2] * v[:, 2]) / r
        return np.where(r > 0.0, -1.0 + sign[lanes] * nv, math.nan)

    def tol(lanes, t_k, aux, tight):
        return _cone_tol(ts[lanes], t_k, aux[1], tight, np.maximum)

    packed = traj.packed

    def span():
        c, rho = packed.hull
        d = xs - c
        rc = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])
        return _cone_span(ts, rc, rho, sign, np.maximum)

    t_k, k, gk = _lane_roots(packed, ts, span, residual, slope, tol, "cone", event)
    # past a domain end, t_k already holds that end
    exits = ((k == 0) & (gk != 0.0)) | (k >= packed.knots.size)

    # snap to the junction before t_k if it is within 1e-9, else to the one
    # at or after it, if that is
    j, near = traj.nearest_junctions(t_k, 1e-9 * np.maximum(1.0, np.abs(t_k)))
    lanes = np.flatnonzero(near & (j != t_k))
    if lanes.size:
        j = j[lanes]
        gj, aux = residual(lanes, j, traj.evaluate(j))
        snap = np.abs(gj) <= tol(lanes, j, aux, False)
        t_k[lanes[snap]] = j[snap]

    index = traj.segment_indices(t_k)
    g, (d, r) = residual(slice(None), t_k, packed.at(index, t_k))
    off = np.abs(g) > tol(slice(None), t_k, (d, r), False)
    if off.any():  # a lane left in the domain also passes within its cell's floor
        off &= exits | (np.abs(g) > _FLOOR * packed.bounds(index))
    close = r < COLLISION_R
    failed = np.flatnonzero(off | close)
    if failed.size:
        # the first block with a failing lane, its tolerance check first
        block = np.searchsorted(ends, failed[0], "right")
        lanes = np.arange(starts[block], ends[block])
        branch = blocks[block][0]
        if off[lanes].any():
            lane = lanes[off[lanes]][0]
            if exits[lane]:
                raise InsufficientHistoryError(
                    f"{branch.value} cone of event t={ts[lane]} exits the domain "
                    f"[{packed.knots[0]}, {packed.knots[-1]}]")
            raise ConvergenceError(f"cone residual {g[lane]:.3g} exceeds tolerance "
                                   f"at t_k={t_k[lane]}")
        lane = lanes[close[lanes]][0]
        raise CollisionError(f"cone distance {r[lane]} below {COLLISION_R} at t={ts[lane]}")
    n_hat = d / r[:, None]
    for block, (*_, side) in enumerate(blocks):
        if side is Side.LEFT:  # the RIGHT index serves every RIGHT lane
            lanes = slice(starts[block], ends[block])
            index[lanes] = traj.segment_indices(t_k[lanes], side)
    v = packed.at(index, t_k, 1)
    doppler = 1.0 - sign * (n_hat[:, 0] * v[:, 0] + n_hat[:, 1] * v[:, 1]
                            + n_hat[:, 2] * v[:, 2])
    a = packed.at(index, t_k, 2)
    dilation = 1.0 / doppler

    def rows(field, block):  # the block's lanes, back to the shape of its `ts`
        lanes = field[starts[block]:ends[block]]
        return lanes.reshape(shapes[block] + field.shape[1:])[()]

    return [ConeSolution(t_k=rows(t_k, i), r=rows(r, i), n_hat=rows(n_hat, i), v=rows(v, i),
                         a=rows(a, i), dilation=rows(dilation, i), side=side, branch=branch)
            for i, (branch, _, _, side) in enumerate(blocks)]


def lw_radiation(q, n, r, v, a, branch: Branch):
    """Radiation term of charge q's electric field at distance r (a float or
    (..., 1) column) in direction n from a source point with velocity v and
    acceleration a, per (..., 3) row; the advanced branch is the time reflection."""
    s = float(branch.sign)  # +1 retarded, -1 advanced
    g = np.asarray(1.0 - s * (n * v).sum(axis=-1))[..., None]
    return (q / r) * cross(n, cross(n - s * v, a)) / g**3


def lw_fields(sol: ConeSolution, q) -> tuple:
    """Lienard-Wiechert (E, B) of charge q at the event of `sol`, as (3,) or
    (M, 3) rows: E = q (n - s V)(1 - V^2) / (g^3 r^2) + `lw_radiation`, with s
    the branch sign and g = 1 - s n.V, and B = s n x E."""
    s, n, v = float(sol.branch.sign), sol.n_hat, sol.v
    r, g = np.asarray(sol.r)[..., None], np.asarray(sol.doppler)[..., None]
    near = q * (1.0 - (v * v).sum(axis=-1, keepdims=True)) / (g**3 * r * r)
    e = near * (n - s * v) + lw_radiation(q, n, r, v, sol.a, sol.branch)
    return e, s * cross(n, e)


def unit_directions(dirs) -> np.ndarray:
    """A (3,) direction or (M, 3) direction rows as a float array of the
    same shape, every entry finite and every row with |n| within 1e-9 of 1:
    the one direction rule, the far-cone solve's; DomainError otherwise."""
    dirs = np.asarray(dirs, dtype=float)
    if dirs.ndim not in (1, 2) or dirs.shape[-1] != 3:
        raise DomainError(f"directions must have shape (3,) or (M, 3), got {dirs.shape}")
    norms = np.sqrt((dirs * dirs).sum(axis=-1))
    unit = np.abs(norms - 1.0) <= 1e-9  # false for a NaN or infinite entry too
    if not unit.all():
        if not np.isfinite(dirs).all():
            raise DomainError("non-finite direction components")
        raise DomainError(f"direction must be a unit vector, |n| = {norms[~unit][0]}")
    return dirs


def normalized_directions(rows) -> np.ndarray:
    """Direction rows over their norms, checked by `unit_directions`: the one
    normalization of given directions.  A row whose sum of squares over- or
    underflows is first divided by its largest |entry|; the others keep
    ``np.linalg.norm``'s quotient.  A zero or non-finite row is a DomainError."""
    rows = np.asarray(rows, dtype=float)
    if not np.isfinite(rows).all():
        raise DomainError("non-finite direction components")
    largest = np.abs(rows).max(axis=-1, keepdims=True, initial=0.0)
    if not largest.all():
        raise DomainError("direction vectors must be nonzero")
    with np.errstate(over="ignore", under="ignore"):
        sq = (rows * rows).sum(axis=-1, keepdims=True)
    rows = rows / np.where((sq == np.inf) | (sq < np.finfo(float).tiny), largest, 1.0)
    return unit_directions(rows / np.sqrt((rows * rows).sum(axis=-1, keepdims=True)))


def far_cone_times(traj: PiecewiseTrajectory, t, dirs, R: float,
                   branch: Branch = Branch.RETARDED) -> np.ndarray:
    """`far_cone_time` for many lanes at once: event times `t` (a float or
    (M,)) with unit directions `dirs` ((M, 3)), all at radius R.

    Each lane is bracketed between two knots, by a search that starts
    inside the knot hull's bound on n.x, n.C -/+ rho widened by 1e-9
    (max(1, |t| + R) + |C|_1 + 2 rho), which covers both rounding and an
    |n| up to 1e-9 past 1, and solved inside a segment by `_lane_roots`,
    with `far_cone_time`'s tolerances and _MAX_ITER budget.  A root outside
    the domain, where x is held at its end value, has slope -1 and is
    solved in closed form, with `far_cone_time`'s 1e-9 slack.  Errors
    match `far_cone_time`'s, for the first failing lane.
    """
    dirs = unit_directions(dirs)
    if dirs.ndim != 2:
        raise DomainError(f"directions must have shape (M, 3), got {dirs.shape}")
    if not (math.isfinite(R) and R >= 0.0):
        raise DomainError(f"R must be finite and nonnegative, got {R}")
    R = float(R)
    t = np.asarray(t, dtype=float)
    if t.ndim > 1 or t.size not in (1, dirs.shape[0]):
        raise DomainError(f"event times of shape {t.shape} do not match "
                          f"{dirs.shape[0]} directions")
    t = np.broadcast_to(t, dirs.shape[:1])
    sign = branch.sign
    n0, n1, n2 = dirs[:, 0], dirs[:, 1], dirs[:, 2]

    def event(lane):
        return (float(t[lane]), dirs[lane], R), branch

    scale = np.maximum(1.0, np.abs(t) + R)

    def residual(lanes, t_k, x):
        """far_cone_time's residual of `lanes` at times t_k, positions x."""
        nx = n0[lanes] * x[:, 0] + n1[lanes] * x[:, 1] + n2[lanes] * x[:, 2]
        return (t[lanes] - t_k) - sign * (R - nx), None

    def slope(lanes, _, v):
        return -1.0 + sign * (n0[lanes] * v[:, 0] + n1[lanes] * v[:, 1] + n2[lanes] * v[:, 2])

    def tol(lanes, _t_k, _, tight):
        return (1e-13 if tight else 1e-12) * scale[lanes]

    packed = traj.packed
    knots, last = packed.knots, packed.knots.size - 1

    def span():
        # a knot's residual is (t - t_k) - s (R - n.x), with n.x within
        # |n| rho of n.C
        c, rho = packed.hull
        mid = t - sign * (R - (n0 * c[0] + n1 * c[1] + n2 * c[2]))
        half = rho + 1e-9 * (scale + np.abs(c).sum() + 2.0 * rho)
        return mid - half, mid + half

    t_k, k, gk = _lane_roots(packed, t, span, residual, slope, tol, "far cone", event)
    # outside the domain x is held at its end value, so the slope is -1 and
    # the residual at t_k = 0 is the root
    for lanes, j in (np.flatnonzero((k == 0) & (gk != 0.0)), 0), (np.flatnonzero(k > last), last):
        root = residual(lanes, 0.0, packed.knot_positions[j:j + 1])[0]
        slack = 1e-9 * np.maximum(1.0, np.abs(root))
        exits = (root < knots[0] - slack) | (root > knots[-1] + slack)
        if exits.any():
            raise InsufficientHistoryError(
                f"far cone time {root[exits][0]} outside trajectory domain "
                f"[{knots[0]}, {knots[-1]}]")
    return t_k


def influence_interval(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
                       t2: float) -> tuple:
    """Times on trajectory 1 whose light cones touch the event t2 on trajectory 2.

    Returns (retarded cone time, advanced cone time) of (t2, x2(t2)) onto
    trajectory 1; every t1 in between interacts with the given partner point
    through neither cone, and the endpoints through exactly one.
    """
    advanced, retarded = cone_pair(traj1, t2, traj2.position(t2))
    return (float(retarded.t_k), float(advanced.t_k))
