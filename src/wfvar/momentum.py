"""Momentum and energy currents at trajectory points and across velocity jumps.

A minimizer with breaking points must carry continuous currents

    p = m g(v1) v1 - kappa * [ v2-/(2 r- (1 - n-.v2-)) + v2+/(2 r+ (1 + n+.v2+)) ]
    e = m g(v1)    - kappa * [  1/(2 r- (1 - n-.v2-)) +  1/(2 r+ (1 + n+.v2+)) ]

(g = Lorentz factor) across each jump.  Near a break whose cone image lands
exactly on a partner junction, the delayed data is evaluated one-sided,
matching the Side of the limit being taken; the cone maps preserve time
orientation, so Left limits pair with Left partner data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import coupling
from .core import PiecewiseTrajectory, Side, Vec3, vec3
from .errors import InfeasibleJumpError, SuperluminalError
from .lightcone import cone_pair

__all__ = [
    "BreakResidual",
    "momentum_current",
    "energy_current",
    "break_residual",
    "break_residuals",
    "post_jump_velocity",
]

@dataclass(frozen=True)
class BreakResidual:
    """Current jumps at one breaking time; both vanish for minimizers."""

    t: float
    dp: Vec3
    de: float


def _partner_sums(traj2, t, x1, side):
    """(W, w): the partner's vector and scalar interaction sums over branches."""
    W = np.zeros(3)
    w = 0.0
    for sol in cone_pair(traj2, t, x1, side):
        rho = 1.0 / sol.dilation
        W += sol.v / (2.0 * sol.r * rho)
        w += 1.0 / (2.0 * sol.r * rho)
    return W, w


def _currents(traj1, traj2, t, side, kappa):
    x1, v1, _ = traj1.state(t, side)
    v1sq = float(v1 @ v1)
    gamma = 1.0 / math.sqrt(1.0 - v1sq)
    W, w = _partner_sums(traj2, t, x1, side)
    m = traj1.particle.mass
    return m * gamma * v1 - kappa * W, m * gamma - kappa * w


def momentum_current(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
                     t: float, side: Side = Side.RIGHT,
                     kappa: float | None = None) -> Vec3:
    """Space part of the one-sided current at time t."""
    k = coupling(traj1, traj2, kappa)
    return _currents(traj1, traj2, t, side, k)[0]


def energy_current(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
                   t: float, side: Side = Side.RIGHT,
                   kappa: float | None = None) -> float:
    """Time part of the one-sided current at time t."""
    k = coupling(traj1, traj2, kappa)
    return _currents(traj1, traj2, t, side, k)[1]


def break_residual(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
                   t: float, kappa: float | None = None) -> BreakResidual:
    """Current jumps (Right minus Left) at time t of trajectory 1."""
    k = coupling(traj1, traj2, kappa)
    p_r, e_r = _currents(traj1, traj2, t, Side.RIGHT, k)
    p_l, e_l = _currents(traj1, traj2, t, Side.LEFT, k)
    return BreakResidual(t=t, dp=p_r - p_l, de=float(e_r - e_l))


def break_residuals(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
                    kappa: float | None = None) -> list:
    """Current jumps (Right minus Left) at every junction of trajectory 1."""
    return [break_residual(traj1, traj2, l_sigma, kappa)
            for l_sigma in traj1.junction_times()]


def _mass_shell_residual(m, v, p_star, e_star):
    """4-vector residual of the continuity system at candidate velocity v."""
    v = np.asarray(v, dtype=float)
    gamma = 1.0 / math.sqrt(1.0 - float(v @ v))
    return np.concatenate([m * gamma * v - p_star, [m * gamma - e_star]])


def post_jump_velocity(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
                       t_break: float, v_pre, kappa: float | None = None) -> Vec3:
    """Velocity after the break that keeps both currents continuous.

    Continuity pins m*gamma(v_post)*v_post and m*gamma(v_post) separately, an
    overdetermined 4-in-3 system solved by damped Gauss-Newton started from
    v_pre.  When the delayed terms are continuous across the break the system
    reduces to continuity of (gamma*v, gamma) and returns v_pre itself.
    """
    v_pre = vec3(v_pre)
    pre_sq = float(v_pre @ v_pre)
    if pre_sq >= 1.0:
        raise SuperluminalError(f"|v_pre| = {math.sqrt(pre_sq):.6g} >= 1")
    k = coupling(traj1, traj2, kappa)
    m = traj1.particle.mass
    x1 = traj1.position(t_break)
    W_plus, w_plus = _partner_sums(traj2, t_break, x1, Side.RIGHT)
    W_minus, w_minus = _partner_sums(traj2, t_break, x1, Side.LEFT)
    gamma_pre = 1.0 / math.sqrt(1.0 - pre_sq)
    p_star = m * gamma_pre * v_pre + k * (W_plus - W_minus)
    e_star = m * gamma_pre + k * (w_plus - w_minus)

    v = v_pre.copy()
    lam = 0.0
    cost = float(np.sum(_mass_shell_residual(m, v, p_star, e_star) ** 2))
    for _ in range(80):
        res = _mass_shell_residual(m, v, p_star, e_star)
        if np.linalg.norm(res) < 1e-14 * max(1.0, abs(e_star)):
            break
        gamma = 1.0 / math.sqrt(1.0 - float(v @ v))
        jac = np.zeros((4, 3))
        jac[:3, :] = m * gamma * (np.eye(3) + gamma * gamma * np.outer(v, v))
        jac[3, :] = m * gamma**3 * v
        grad = jac.T @ res
        if np.linalg.norm(grad) < 1e-16 * max(1.0, abs(e_star)):
            break
        h = jac.T @ jac
        stepped = False
        for _damp in range(40):
            try:
                delta = np.linalg.solve(h + lam * np.eye(3), -grad)
            except np.linalg.LinAlgError:
                lam = max(10.0 * lam, 1e-8)
                continue
            cand = v + delta
            if float(cand @ cand) < 1.0:
                cand_cost = float(
                    np.sum(_mass_shell_residual(m, cand, p_star, e_star) ** 2)
                )
                if cand_cost < cost:
                    v, cost = cand, cand_cost
                    lam *= 0.25
                    stepped = True
                    break
            lam = max(10.0 * lam, 1e-8)
        if not stepped:
            break

    residual = float(np.linalg.norm(_mass_shell_residual(m, v, p_star, e_star)))
    if residual > 1e-6:
        raise InfeasibleJumpError(
            f"no post-jump velocity keeps the currents continuous at "
            f"t={t_break}: best residual {residual:.3g}"
        )
    if float(v @ v) >= 1.0:
        raise SuperluminalError("post-jump velocity reached the light cone")
    return v
