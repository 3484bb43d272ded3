"""Delayed action functional, its directional derivative, and EL residuals.

The interaction couples each point of trajectory 1 to the two points where
its light cones cross trajectory 2.  The integrand is

    L = -m1 sqrt(1 - v1^2)
        + kappa * [ (1 - v1.v2+) / (2 r+ (1 + n+.v2+))
                  + (1 - v1.v2-) / (2 r- (1 - n-.v2-)) ]

with kappa = -(q1 q2), so the attractive opposite-unit-charge case has
kappa = +1.  The quadrature mesh is split at every breaking point of the
integrated trajectory and at every pullback of a partner breaking point
through either cone map, which keeps the integrand smooth on each cell.
"""

from __future__ import annotations

import numpy as np

from .core import (BoundaryData, PackedChain, Perturbation, PiecewiseTrajectory, Side,
                   cross, subluminal)
from .errors import CollisionError, ConvergenceError, DomainError
from .lightcone import COLLISION_R, ConeSolution, cone_crossings, cone_pair, cone_pairs, lw_fields

__all__ = [
    "interaction_density",
    "action",
    "frechet_directional",
    "el_residual",
    "lagrangian_position_partial",
    "branch_sums",
    "canonical_current",
    "canonical_currents",
    "coupling",
    "pullback_mesh",
]

# Gauss-Kronrod 7-15 on [-1, 1] (QUADPACK qk15), outermost first: Kronrod nodes, K15
# weights and G7 weights, 0 where only K15 has a node; the 15 _NODES ascend, centre 0.0
_QK15 = np.array([
    (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
     0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0),
    (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
     0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782),
    (0, 0.1294849661688697, 0, 0.27970539148927664, 0, 0.3818300505051189, 0, 0.4179591836734694)])
_NODES, _K15, _G7 = np.hstack([[[-1.0], [1.0], [1.0]] * _QK15[:, :-1], _QK15[:, ::-1]])
#: cells one integral may evaluate below its mesh cells, by halving
_MAX_CELLS = 10_000
#: an integral's error target per unit of its rough scale, the larger of 1
#: and the sum of |f(midpoint)| times the width of each mesh cell
_REL_TARGET = 1e-11


def coupling(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory) -> float:
    """Interaction strength kappa = -(q1 q2), the one place it is formed."""
    return -traj1.particle.charge * traj2.particle.charge


def interaction_density(state1, cone_adv: ConeSolution, cone_ret: ConeSolution,
                        m1: float = 1.0, kappa: float = 1.0):
    """Integrand of the delayed action at one point of trajectory 1, or at M
    points from (M, 3) state rows and the array-valued solutions of
    `cone_pair`."""
    v1 = np.asarray(state1[1], dtype=float)
    subluminal(v1)
    total = -m1 * np.sqrt(1.0 - np.sum(v1 * v1, axis=-1))
    for sol in (cone_adv, cone_ret):
        if np.any(sol.r < COLLISION_R):
            raise CollisionError(f"cone distance {np.min(sol.r)} below collision cutoff")
        rho = sol.doppler  # 1 + n.v (advanced) or 1 - n.v (retarded)
        total = total + kappa * (1.0 - np.sum(v1 * sol.v, axis=-1)) / (2.0 * sol.r * rho)
    return total


def _dot(a, b):
    """Row-wise dot products of (..., 3) arrays, as (..., 1) columns."""
    return np.sum(a * b, axis=-1, keepdims=True)


def branch_sums(pair) -> tuple:
    """(W, w): the sums of V / (2 r rho) and 1 / (2 r rho) over the branches
    of a `cone_pair`, as (..., 3) rows and (...) values.  Neither depends on
    v1, so dL/dv1 = m g v1 - kappa W and v1.dL/dv1 - L = m g - kappa w."""
    W = w = 0.0
    for sol in pair:
        denom = 2.0 * sol.r * sol.doppler
        W = W + sol.v / denom[..., None]
        w = w + 1.0 / denom
    return W, w


def _branch_partials(v1, sol: ConeSolution):
    """Gradient in x1 at fixed t1 and v1 of one branch's contribution
    F = (1 - v1.V) / (2 r rho), as (..., 3) rows.

    The x1 dependence runs through the cone time t2(x1) as well as r and n;
    all three are eliminated with the implicit-function rule on the cone
    condition, which leaves polynomial expressions in the delayed data.
    """
    s, n, V, A = -sol.branch.sign, sol.n_hat, sol.v, sol.a  # s = +1 advanced, -1 retarded
    r, rho = sol.r[..., None], sol.doppler[..., None]  # columns; rho = 1 + s n.V
    N = 1.0 - _dot(v1, V)
    grad_t2 = (s / rho) * n
    grad_r = n / rho
    grad_rho = (s * V / r - (_dot(V, V) + s * _dot(n, V)) * n / (rho * r)
                + _dot(n, A) * n / rho)
    grad_N = -_dot(v1, A) * grad_t2
    return (grad_N / (2.0 * r * rho)
            - N * (rho * grad_r + r * grad_rho) / (2.0 * r * r * rho * rho))


def _local_currents(traj1: PiecewiseTrajectory, partner: PiecewiseTrajectory,
                    t, sides, kappa: float) -> list:
    """(v1, the cone pair, p, e) at time t of trajectory 1 on each of `sides`:
    `canonical_current` with the velocity and cone pair that dL/dx1 is
    formed from.  Each side reads its own state, and the cone pairs of all
    sides come from one lane solve."""
    states = [(traj1.evaluate(t, 0, side), traj1.evaluate(t, 1, side)) for side in sides]
    pairs = cone_pairs(partner, [(t, x1, side) for (x1, _), side in zip(states, sides)])
    currents = []
    for (_, v1), pair in zip(states, pairs):
        W, w = branch_sums(pair)
        m_gamma = traj1.particle.mass * (1.0 / np.sqrt(1.0 - np.sum(v1 * v1, axis=-1)))
        currents.append((v1, pair, m_gamma[..., None] * v1 - kappa * W, m_gamma - kappa * w))
    return currents


def canonical_currents(traj1: PiecewiseTrajectory, partner: PiecewiseTrajectory, t, sides) -> list:
    """`canonical_current` on each of `sides`, as one (p, e) per side, with
    the cone pairs of all sides from one lane solve."""
    return [c[2:] for c in _local_currents(traj1, partner, t, sides, coupling(traj1, partner))]


def canonical_current(traj1: PiecewiseTrajectory, partner: PiecewiseTrajectory,
                      t, side: Side = Side.RIGHT) -> tuple:
    """(p = dL/dv1, e = v1.p - L) at time t of trajectory 1, one-sided by
    `side`, from one state and one cone pair.  p and e are the momentum and
    energy currents: (3,) rows and a scalar e at a float time, (M, 3) rows
    and (M,) values at (M,) times."""
    return canonical_currents(traj1, partner, t, (side,))[0]


def lagrangian_position_partial(traj1, partner, t: float, side: Side = Side.RIGHT):
    """dL/dx1 with the implicit cone-time dependence included."""
    k = coupling(traj1, partner)
    v1, pair, _, _ = _local_currents(traj1, partner, t, (side,), k)[0]
    return sum(k * _branch_partials(v1, sol) for sol in pair)


def pullback_mesh(traj1: PiecewiseTrajectory, partner: PiecewiseTrajectory,
                  a: float, b: float, extra=(), crossings=None) -> list:
    """Smoothness mesh on [a, b]: trajectory-1 junctions plus the pullbacks
    of partner junctions through either cone map."""
    pts = {a, b}
    pts.update(j for j in traj1.junction_times() if a < j < b)
    pts.update(p for p in extra if a < p < b)
    if crossings is None:
        crossings = cone_crossings(traj1, partner, a, b)
    pts.update(t1 for t1, _, _ in crossings)
    mesh = sorted(pts)
    out = [mesh[0]]
    scale = max(1.0, abs(a), abs(b))
    for p in mesh[1:]:
        if p - out[-1] > 1e-12 * scale:
            out.append(p)
    if len(out) > 1:
        out[-1] = b
    elif b > a:  # a window shorter than the merge width keeps its one cell
        out.append(b)
    return out


def _integrate(f, mesh):
    """Integral over the cells of `mesh` of a vector integrand `f`: (N,)
    times to (N,) values give a float, to (N, C) rows the (C,) column sums.

    Level by level, one call of f evaluates the 15 Gauss-Kronrod nodes of
    every open cell; level 0's centre nodes, at 0.0, are the mesh-cell
    midpoints and set each column's absolute scale.  A cell's value is its
    K15 sum.  It is done when its gap |K15 - G7|, G7 on its odd nodes, is
    within every column's tolerance; else its halves open on the next level
    with half its tolerances each, and their values sum to its own, as in a
    recursive halving, each column as in its scalar integral.  A level-30
    cell is accepted unless a gap exceeds 1000 times its tolerance.  Stalling
    at level 30, or halving past _MAX_CELLS cells, raises ConvergenceError.
    """
    a, b = np.array(mesh[:-1], dtype=float), np.array(mesh[1:], dtype=float)
    levels, cells, budget = [], 0, a.size + _MAX_CELLS
    for depth in range(31):
        if cells + a.size > budget:  # a holds the halves of the open cells
            worst = np.argmax(gap[open_].max(axis=1))
            raise ConvergenceError(
                f"quadrature spent its {_MAX_CELLS}-cell budget: [{a[2 * worst]}, "
                f"{b[2 * worst + 1]}] still has gap {gap[open_][worst].max():.3g}")
        cells += a.size
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        out = f((mid[:, None] + half[:, None] * _NODES).ravel())
        rows = np.ascontiguousarray(out.reshape(a.size, 15, -1).transpose(0, 2, 1))
        if not depth:
            rough = [sum(col) for col in ((b - a)[:, None] * np.abs(rows[..., 7])).T.tolist()]
            tol = (_REL_TARGET * np.maximum(rough, 1.0)
                   * np.maximum((b - a) / (mesh[-1] - mesh[0]), 1e-3)[:, None])
        value = half[:, None] * (rows * _K15).sum(axis=-1)
        gap = np.abs(value - half[:, None] * (rows * _G7).sum(axis=-1))
        open_ = ~(gap <= tol).all(axis=1)
        if depth == 30:
            stalled = np.flatnonzero((gap > 1000 * tol).any(axis=1))
            if stalled.size:
                i = stalled[0]
                raise ConvergenceError(
                    f"quadrature stalled on [{a[i]}, {b[i]}]: gap {gap[i].max():.3g}")
            open_[:] = False
        levels.append((value, open_))
        if not open_.any():
            break
        a, mid, b = a[open_], mid[open_], b[open_]
        a, b = np.column_stack([a, mid]).ravel(), np.column_stack([mid, b]).ravel()
        tol = np.repeat(0.5 * tol[open_], 2, axis=0)
    total, _ = levels.pop()  # the last level closes every cell
    for value, open_ in reversed(levels):
        value[open_] = total[0::2] + total[1::2]
        total = value
    totals = [sum(col) for col in total.T.tolist()]
    return totals[0] if out.ndim == 1 else np.array(totals)


def action(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
           boundary: BoundaryData) -> float:
    """Boundary constant ``boundary.k2`` plus the delayed interaction integral
    over trajectory 1's window, ``boundary.window(1)``; a zero-length window
    gives the constant alone.  The partner `traj2` must cover every cone time
    the window touches, else InsufficientHistoryError."""
    a, b = boundary.window(1)
    if a == b:
        return boundary.k2
    k = coupling(traj1, traj2)
    m1 = traj1.particle.mass

    def density(ts):
        state = traj1.evaluate(ts), traj1.evaluate(ts, 1)
        return interaction_density(state, *cone_pair(traj2, ts, state[0]), m1=m1, kappa=k)

    mesh = pullback_mesh(traj1, traj2, a, b)
    return boundary.k2 + _integrate(density, mesh)


def frechet_directional(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
                        boundary: BoundaryData, b):
    """Directional derivative of the action along an admissible displacement
    `b` over trajectory 1's window, ``boundary.window(1)``: a float along a
    `Perturbation`, (C,) values along a bundle of C fields on one knot vector
    (a `PackedChain` with (nseg, C, 3, K) rows, as `PackedChain.hermite`
    makes), from one mesh, one `cone_crossings`, and per quadrature level one
    current, one searchsorted and one Horner per order."""
    single = isinstance(b, Perturbation)
    field = PackedChain(b.packed.knots, tuple(r[:, None] for r in b.packed.rows)) if single else b
    if field.rows[0].ndim != 4:
        raise DomainError(f"a field bundle needs (nseg, C, 3, K) rows, got {field.rows[0].shape}")
    lo, hi = boundary.window(1)
    field.check_admissible(lo, hi)
    (start, end), count = field.knots[[0, -1]].tolist(), field.rows[0].shape[1]
    lo, hi = max(lo, start), min(hi, end)
    if hi <= lo or not count:  # no field, or its support misses the window
        return 0.0 if single else np.zeros(count)
    k = coupling(traj1, traj2)

    def integrand(ts):
        v1, pair, p, _ = _local_currents(traj1, traj2, ts, (Side.RIGHT,), k)[0]
        d_dx = sum(k * _branch_partials(v1, sol) for sol in pair)
        i = np.searchsorted(field.knots[1:-1], ts, side="right")  # (N,) cells
        return (_dot(d_dx[:, None], field.at(i, ts))
                + _dot(p[:, None], field.at(i, ts, 1)))[..., 0]

    crossings = cone_crossings(traj1, traj2, lo, hi)
    mesh = pullback_mesh(traj1, traj2, lo, hi, crossings=crossings,
                         extra=field.knots[1:-1].tolist())
    totals = _integrate(integrand, mesh).tolist()
    if crossings:
        # Where a cone image crosses a partner breaking point, the delayed
        # velocity jumps and the integrand is discontinuous; perturbing the
        # trajectory moves that crossing, so the derivative picks up the jump
        # of the integrand times the crossing's rate of travel.
        t1 = np.array([t for t, _tau, _branch in crossings])
        x1, v1 = traj1.evaluate(t1), traj1.evaluate(t1, 1)
        left, right = cone_pairs(traj2, ((t1, x1, Side.LEFT), (t1, x1, Side.RIGHT)))
        m1 = traj1.particle.mass
        jump = (interaction_density((x1, v1), *left, m1=m1, kappa=k)
                - interaction_density((x1, v1), *right, m1=m1, kappa=k))
        # s = +1 on an advanced crossing, -1 on a retarded one; the cone
        # direction does not depend on the side
        s = np.array([[-branch.sign] for _t, _tau, branch in crossings])
        adv, ret = right
        n_hat = np.where(s > 0, adv.n_hat, ret.n_hat)
        b1 = field.at(np.searchsorted(field.knots[1:-1], t1, side="right"), t1)  # (ncross, C, 3)
        dcross = -s * _dot(n_hat[:, None], b1)[..., 0] / (1.0 + s * _dot(n_hat, v1))
        jumps = jump[:, None] * dcross
        totals = [sum(col, total) for col, total in zip(jumps.T.tolist(), totals)]
    return totals[0] if single else np.array(totals)


def el_residual(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
                t, side: Side = Side.RIGHT):
    """d/dt (dL/dv1) - dL/dx1, one-sided, zero on exact piecewise solutions.

    It is the Lorentz residual m d(gamma v1)/dt - q1 (E + v1 x B), with E and B
    half the advanced plus half the retarded `lw_fields` of trajectory 2 and
    q1 q2 = -kappa, read from one state and one cone pair taken on `side`;
    at breaking points and cone crossings the result is the limit from that
    side.  A float time gives a (3,) row, (M,) times give (M, 3) rows.
    """
    k = coupling(traj1, traj2)
    x1, v1, a1 = (traj1.evaluate(t, order, side) for order in range(3))
    g2 = 1.0 / (1.0 - _dot(v1, v1))
    res = traj1.particle.mass * np.sqrt(g2) * (a1 + g2 * _dot(v1, a1) * v1)
    for sol in cone_pair(traj2, t, x1, side):
        e, b = lw_fields(sol, -k)
        res -= 0.5 * (e + cross(v1, b))
    return res
