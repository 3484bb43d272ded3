"""Discretized boundary-value minimization of the delayed two-body action.

A trajectory pair is encoded as node positions on a fixed time grid plus two
one-sided velocities per declared breaking point; window endpoints stay
pinned to the boundary set.  Decoding builds cubic Hermite cells whose node
velocities come from parabolic finite differences within each smooth run, so
the map from the flat coordinate vector to trajectories is affine and every
coordinate direction corresponds to an explicit displacement field.

Minimization alternates between the particles: each block performs damped
BFGS descent on that particle's one-sided action with the partner frozen,
with the directional derivatives evaluated by the exact first-variation
integral rather than differencing the objective.  A converged report means
both block gradients dropped below tolerance and the result passes the same
residual checks `verify` applies to any candidate pair: Euler-Lagrange
residuals on a per-segment Chebyshev grid, and momentum/energy continuity at
every velocity jump.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .action import action, el_residual, frechet_directional
from .core import (
    BoundaryData,
    PackedChain,
    ParticleParams,
    PiecewiseTrajectory,
    Side,
    as_count,
    fd_node_velocities,
    hermite_trajectory,
    json_number,
    merge_history,
    vec3,
)
from .errors import ConfigError, DomainError, SuperluminalError
from .momentum import break_residuals

_VELOCITY_JUMP_TOL = 1e-12
#: default tolerances of the EL and break residuals, for `verify` and its records
_EL_TOL, _BREAK_TOL = 1e-6, 1e-8


@dataclass(frozen=True)
class ParticleLayout:
    """Fixed node grid of one particle: times, break markers, pinned ends."""

    times: np.ndarray
    break_mask: np.ndarray  # bool per node; True only at interior breaks
    x_start: np.ndarray
    x_end: np.ndarray
    particle: ParticleParams

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        mask = np.asarray(self.break_mask, dtype=bool)
        if times.ndim != 1 or times.size < 2 or not np.all(np.diff(times) > 0):
            raise DomainError("node times must be strictly increasing, >= 2 nodes")
        if mask.shape != times.shape or mask[0] or mask[-1]:
            raise DomainError("break mask must match nodes and spare the endpoints")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "break_mask", mask)
        object.__setattr__(self, "x_start", vec3(self.x_start))
        object.__setattr__(self, "x_end", vec3(self.x_end))

    @property
    def n_interior(self) -> int:
        return self.times.size - 2

    @property
    def break_indices(self) -> np.ndarray:
        return np.flatnonzero(self.break_mask)

    def size(self, free_break_times: bool) -> int:
        nb = int(self.break_mask.sum())
        return 3 * self.n_interior + 6 * nb + (nb if free_break_times else 0)


@dataclass(frozen=True)
class DecisionVector:
    """Flat free coordinates of both particles over their node layouts.

    Per particle the block is: interior node positions in node order, then
    (v_minus, v_plus) per breaking point, then the breaking times themselves
    when those are freed.
    """

    layouts: tuple
    theta: np.ndarray
    free_break_times: bool = False

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        want = sum(lay.size(self.free_break_times) for lay in self.layouts)
        if theta.shape != (want,):
            raise DomainError(f"theta must have shape ({want},), got {theta.shape}")
        object.__setattr__(self, "theta", theta)

    def block_slice(self, k: int) -> slice:
        """Coordinate range of particle k (1 or 2)."""
        n1 = self.layouts[0].size(self.free_break_times)
        if k == 1:
            return slice(0, n1)
        return slice(n1, n1 + self.layouts[1].size(self.free_break_times))

    def with_theta(self, theta) -> "DecisionVector":
        return DecisionVector(self.layouts, theta, self.free_break_times)


class _UnorderedTimes(DomainError):
    """Freed breaking times that leave the node order: an infeasible trial."""


def _unpack_block(layout: ParticleLayout, block: np.ndarray,
                  free_break_times: bool):
    n_int = layout.n_interior
    nb = int(layout.break_mask.sum())
    pos = block[: 3 * n_int].reshape(n_int, 3)
    vels = block[3 * n_int: 3 * n_int + 6 * nb].reshape(nb, 2, 3)
    times = layout.times.copy()
    if free_break_times and nb:
        times[layout.break_indices] = block[3 * n_int + 6 * nb:]
        if not np.all(np.diff(times) > 0):
            raise _UnorderedTimes("freed breaking times must keep nodes ordered")
    positions = np.vstack([layout.x_start, pos, layout.x_end])
    return times, positions, vels


def _node_velocities(layout: ParticleLayout, times, positions, break_vels):
    """Two one-sided velocities per node of (n, ..., 3) positions: finite
    differences within runs, the (nb, 2, ..., 3) break velocities at breaks."""
    vel_l = np.empty_like(positions)
    vel_r = np.empty_like(positions)
    bounds = [0, *layout.break_indices.tolist(), times.size - 1]
    for a, b in zip(bounds, bounds[1:]):
        fd = fd_node_velocities(times[a: b + 1], positions[a: b + 1])
        vel_l[a: b + 1] = fd
        vel_r[a: b + 1] = fd
    vel_l[layout.break_indices] = break_vels[:, 0]
    vel_r[layout.break_indices] = break_vels[:, 1]
    return vel_l, vel_r


def _decode_particle(layout: ParticleLayout, block: np.ndarray,
                     free_break_times: bool) -> PiecewiseTrajectory:
    times, positions, break_vels = _unpack_block(layout, block, free_break_times)
    vel_l, vel_r = _node_velocities(layout, times, positions, break_vels)
    return hermite_trajectory(times, positions, vel_r, layout.particle,
                              left_velocities=vel_l)


def decode(dv: DecisionVector):
    """Trajectory pair encoded by the decision vector."""
    return tuple(
        _decode_particle(dv.layouts[i], dv.theta[dv.block_slice(i + 1)],
                         dv.free_break_times)
        for i in (0, 1)
    )


def _true_breaks(traj: PiecewiseTrajectory):
    """Junctions with an actual velocity jump, not mere segment seams."""
    taus = np.array(traj.junction_times())
    jumps = traj.evaluate(taus, 1, Side.RIGHT) - traj.evaluate(taus, 1, Side.LEFT)
    return taus[np.linalg.norm(jumps, axis=1) > _VELOCITY_JUMP_TOL].tolist()


def discretize(boundary: BoundaryData, trajs, n_nodes: int,
               break_times=None, free_break_times: bool = False) -> DecisionVector:
    """Encode a trajectory pair on per-segment uniform node grids.

    `n_nodes` is the node count per smooth segment (breaks delimit
    segments); `break_times` optionally pins the breaking points per
    particle, defaulting to the trajectories' own velocity jumps inside the
    open window.  The encoding is exact at nodes: decode reproduces node
    positions and one-sided break velocities bit-for-bit.
    """
    n_nodes = as_count(n_nodes, 2, "nodes per segment")
    layouts = []
    blocks = []
    for k in (1, 2):
        traj = trajs[k - 1]
        a, b = boundary.window(k)
        if break_times is None:
            breaks = [t for t in _true_breaks(traj) if a < t < b]
        else:
            breaks = sorted(float(t) for t in break_times[k - 1])
            if any(not a < t < b for t in breaks):
                raise DomainError("breaking times must lie inside the open window")
        edges = [a, *breaks, b]
        times = []
        for lo, hi in zip(edges, edges[1:]):
            times.extend(np.linspace(lo, hi, n_nodes)[:-1])
        times = np.array([*times, b])
        mask = np.isin(times, breaks)
        layout = ParticleLayout(times, mask, traj.position(a), traj.position(b),
                                traj.particle)
        vels = [traj.evaluate(times[mask], 1, side) for side in (Side.LEFT, Side.RIGHT)]
        chunks = [traj.evaluate(times[1:-1]).ravel(), np.stack(vels, axis=1).ravel()]
        if free_break_times:
            chunks.append(times[mask])
        blocks.append(np.concatenate(chunks))
        layouts.append(layout)
    return DecisionVector(tuple(layouts), np.concatenate(blocks), free_break_times)


def _primary_view(boundary: BoundaryData, k: int) -> BoundaryData:
    """The boundary set with particle k in the variable role: the boundary
    itself for k = 1, else particle 2's window with the histories swapped."""
    if k == 1:
        return boundary
    return BoundaryData(*boundary.window(2), history1=boundary.history2,
                        history2=boundary.history1, k2=0.0)


def one_sided_actions(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
                      boundary: BoundaryData, kappa: float | None) -> tuple:
    """(action of particle 1, action of particle 2), each with its partner
    frozen; their sum is the total action of the pair."""
    trajs = (traj1, traj2)
    return tuple(action(trajs[k - 1], trajs[2 - k], _primary_view(boundary, k), kappa=kappa)
                 for k in (1, 2))


def _basis_fields(layout: ParticleLayout, times: np.ndarray) -> PackedChain:
    """The displacement fields of the C position and velocity coordinates on
    the node times, as one bundle: decode is affine, and its linear part
    applied to the identity gives every field at once.  Freed time
    coordinates are not included (their trial actions are differenced)."""
    eye, n_int = np.eye(layout.size(free_break_times=False)), layout.n_interior
    positions = np.zeros((n_int + 2, eye.shape[0], 3))  # the pinned ends stay zero
    positions[1:-1] = eye[: 3 * n_int].reshape(n_int, 3, -1).transpose(0, 2, 1)
    break_vels = eye[3 * n_int:].reshape(-1, 2, 3, eye.shape[0]).transpose(0, 1, 3, 2)
    vel_l, vel_r = _node_velocities(layout, times, positions, break_vels)
    return PackedChain.hermite(times, positions, vel_r, vel_l)


@dataclass(frozen=True)
class MinimizerReport:
    """Residual diagnostics of a candidate or minimized trajectory pair."""

    action: float
    el_max1: tuple  # max |EL residual| per segment of particle 1
    el_max2: tuple
    break_residuals: tuple  # BreakResidual at velocity jumps, particle 1 then 2
    iterations: int
    converged: bool
    el_tol: float = _EL_TOL
    break_tol: float = _BREAK_TOL
    descent_log: tuple = ()  # (particle, action before, action after) per step

    @property
    def max_el(self) -> float:
        return max((*self.el_max1, *self.el_max2), default=0.0)

    @property
    def max_break(self) -> float:
        return max(
            (max(float(np.linalg.norm(r.dp)), abs(r.de)) for r in self.break_residuals),
            default=0.0,
        )

    @property
    def residuals_ok(self) -> bool:
        return self.max_el < self.el_tol and self.max_break < self.break_tol


def _chebyshev_points(a, b, n: int) -> np.ndarray:
    """(m, n): n Chebyshev points inside each of the m cells [a, b]."""
    a, b, j = a[:, None], b[:, None], np.arange(n)
    return 0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * (2 * j + 1) / (2 * n))


def verify(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
           boundary: BoundaryData, n_points: int = 9,
           el_tol: float = _EL_TOL, break_tol: float = _BREAK_TOL,
           kappa: float | None = None) -> MinimizerReport:
    """Residual check of both critical-point conditions over the windows.

    Euler-Lagrange residuals are sampled on a Chebyshev grid inside every
    segment overlapping the window; momentum and energy continuity is
    evaluated at every genuine velocity jump.  `converged` reports whether
    both maxima beat their tolerances.
    """
    n_points = as_count(n_points, 1, "n_points")
    trajs, el_max, breaks = (traj1, traj2), [], []
    for k in (1, 2):
        view, traj = _primary_view(boundary, k), trajs[k - 1]
        partner = merge_history(trajs[2 - k], view.history2)
        a, b = view.window(1)
        lo, hi = np.maximum(traj.packed.knots[:-1], a), np.minimum(traj.packed.knots[1:], b)
        keep = hi - lo > 1e-12 * max(1.0, abs(a), abs(b))
        ts = _chebyshev_points(lo[keep], hi[keep], n_points).reshape(-1)
        res = np.linalg.norm(el_residual(traj, partner, ts, kappa=kappa), axis=1)
        el_max.append(tuple(res.reshape(-1, n_points).max(axis=1).tolist()))
        breaks += break_residuals(traj, partner, kappa,
                                  times=[tau for tau in _true_breaks(traj) if a < tau < b])
    s1, s2 = one_sided_actions(traj1, traj2, boundary, kappa)
    report = MinimizerReport(
        action=s1 + s2,
        el_max1=el_max[0],
        el_max2=el_max[1],
        break_residuals=tuple(breaks),
        iterations=0,
        converged=False,
        el_tol=el_tol,
        break_tol=break_tol,
    )
    return replace(report, converged=report.residuals_ok)


@dataclass
class MinimizeOptions:
    gtol: float = 1e-8
    max_iter: int = 40
    el_tol: float = _EL_TOL
    break_tol: float = _BREAK_TOL


def _normalize_options(opts) -> MinimizeOptions:
    if opts is None:
        opts = MinimizeOptions()
    elif isinstance(opts, dict):
        unknown = set(opts) - set(MinimizeOptions.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown minimizer options: {sorted(unknown)}")
        opts = MinimizeOptions(**opts)
    elif not isinstance(opts, MinimizeOptions):
        raise ConfigError(f"options must be a dict or MinimizeOptions, got {type(opts)}")
    for name in ("gtol", "el_tol", "break_tol"):
        try:
            json_number(getattr(opts, name))
        except ValueError as exc:
            raise ConfigError(f"minimizer option {name}: {exc}") from exc
    return replace(opts, max_iter=as_count(opts.max_iter, 0, "max_iter"))


def _bfgs(h: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """BFGS update of the inverse Hessian `h` by the step `s` and the
    gradient change `y`; `h` itself where the curvature y.s is too small."""
    ys = float(y @ s)
    if ys > 1e-10 * np.linalg.norm(y) * np.linalg.norm(s):
        rho = 1.0 / ys
        v = np.eye(len(s)) - rho * np.outer(s, y)
        h = v @ h @ v.T + rho * np.outer(s, s)
    return h


def _block_gradient(traj: PiecewiseTrajectory, partner: PiecewiseTrajectory,
                    view: BoundaryData, layout: ParticleLayout, block: np.ndarray,
                    trial, kappa=None) -> np.ndarray:
    """Gradient of the one-sided action of `traj`, decoded from `block`:
    one first variation over the basis fields on its node times, and central
    differences of `trial(block)`'s action for freed breaking times."""
    basis = _basis_fields(layout, traj.packed.knots)
    count = basis.rows[0].shape[1]
    g = np.empty(len(block))
    g[:count] = frechet_directional(traj, partner, view, basis, kappa=kappa)
    for j in range(count, len(block)):  # freed breaking times
        h = 1e-6 * max(1.0, abs(block[j]))
        g[j] = 0.0
        for sign in (1.0, -1.0):
            bumped = block.copy()
            bumped[j] += sign * h
            g[j] += sign * trial(bumped)[1] / (2.0 * h)
    return g


def minimize(boundary: BoundaryData, init: DecisionVector, opts=None,
             kappa: float | None = None):
    """Alternating per-particle descent to a critical point of the action.

    Each outer iteration takes one damped BFGS step per particle on that
    particle's one-sided action (partner frozen), using the exact first
    variation for the gradient.  Steps must pass an Armijo decrease test;
    infeasible trials (superluminal, or freed breaking times out of node
    order) are rejected by shrinking the step.  Convergence requires both
    block gradients below `gtol`; the returned report adds the standard
    residual verification of the final pair.
    """
    options = _normalize_options(opts)
    trajs = list(decode(init))  # feasibility gate: raises on superluminal encoding
    views = [_primary_view(boundary, k) for k in (1, 2)]
    blocks = [init.theta[init.block_slice(k)] for k in (1, 2)]
    hs = [np.eye(block.size) for block in blocks]  # inverse Hessian per block
    last = [None, None]  # (gradient, step) of each block's last accepted step

    def trial(i: int, block: np.ndarray) -> tuple:
        """Particle i + 1 at `block`, and its action against the frozen partner."""
        traj = _decode_particle(init.layouts[i], block, init.free_break_times)
        return traj, action(traj, trajs[1 - i], views[i], kappa=kappa)

    log, converged, iterations = [], False, 0
    for iterations in range(1, options.max_iter + 1):
        grad_ok, moved = True, False
        for i, block in enumerate(blocks):
            if not block.size:
                continue
            g = _block_gradient(trajs[i], trajs[1 - i], views[i], init.layouts[i], block,
                                partial(trial, i), kappa=kappa)
            if last[i] is not None:
                hs[i] = _bfgs(hs[i], last[i][1], g - last[i][0])
                last[i] = None
            if float(np.abs(g).max()) < options.gtol:
                continue
            grad_ok = False
            p = -hs[i] @ g
            if float(p @ g) >= 0.0:  # lost curvature; fall back to steepest descent
                hs[i], p = np.eye(block.size), -g
            f0 = action(trajs[i], trajs[1 - i], views[i], kappa=kappa)
            slope = float(g @ p)
            alpha = 1.0
            for _ in range(30):
                step = alpha * p
                try:
                    traj, f_trial = trial(i, block + step)
                except (SuperluminalError, _UnorderedTimes):
                    alpha *= 0.5  # infeasible iterate; shrink the step
                    continue
                if f_trial <= f0 + 1e-4 * alpha * slope:
                    break
                alpha *= 0.5
            else:
                continue  # line-search failure: report non-converged later
            blocks[i], trajs[i], last[i] = block + step, traj, (g, step)
            log.append((i + 1, f0, f_trial))
            moved = True
        if grad_ok:
            converged = True
            break
        if not moved:
            break  # both line searches failed; stop with converged=False
    report = verify(*trajs, boundary, el_tol=options.el_tol,
                    break_tol=options.break_tol, kappa=kappa)
    report = replace(report, iterations=iterations,
                     converged=converged and report.residuals_ok,
                     descent_log=tuple(log))
    return (*trajs, report)
