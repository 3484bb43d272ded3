"""Momentum and energy currents at trajectory points and across velocity jumps.

A minimizer with breaking points must carry continuous currents

    p = dL/dv1 = m g(v1) v1 - kappa W,      e = v1.p - L = m g(v1) - kappa w

(g = Lorentz factor) across each jump, with (W, w) the `action.branch_sums`
that the first variation reads too.  Near a break whose cone image lands
exactly on a partner junction, the delayed data is evaluated one-sided,
matching the Side of the limit being taken; the cone maps preserve time
orientation, so Left limits pair with Left partner data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import branch_sums, canonical_current, canonical_currents, coupling
from .core import PiecewiseTrajectory, Side, Vec3, subluminal
from .errors import InfeasibleJumpError
from .lightcone import cone_pairs

__all__ = [
    "BreakResidual",
    "momentum_current",
    "energy_current",
    "break_residual",
    "break_residuals",
    "post_jump_velocity",
]

MASS_SHELL_TOL = 1e-6  # accepted |sqrt(e*^2 - |p*|^2) - m| / max(1, e*)


@dataclass(frozen=True)
class BreakResidual:
    """Current jumps at one breaking time; both vanish for minimizers."""

    t: float
    dp: Vec3
    de: float


def momentum_current(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
                     t: float, side: Side = Side.RIGHT) -> Vec3:
    """Space part of the one-sided current at time t."""
    return canonical_current(traj1, traj2, t, side)[0]


def energy_current(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
                   t: float, side: Side = Side.RIGHT) -> float:
    """Time part of the one-sided current at time t."""
    return canonical_current(traj1, traj2, t, side)[1]


def break_residual(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
                   t: float) -> BreakResidual:
    """Current jumps (Right minus Left) at time t of trajectory 1."""
    return break_residuals(traj1, traj2, times=[t])[0]


def break_residuals(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory, times=None) -> list:
    """Current jumps (Right minus Left) at each of `times` of trajectory 1,
    by default at every junction, from one batched current per side, with
    both sides' cone pairs from one lane solve."""
    ts = np.array(traj1.junction_times() if times is None else times, dtype=float)
    if not ts.size:
        return []
    (p_r, e_r), (p_l, e_l) = canonical_currents(traj1, traj2, ts, (Side.RIGHT, Side.LEFT))
    return [BreakResidual(t=t, dp=dp, de=de)
            for t, dp, de in zip(ts.tolist(), p_r - p_l, (e_r - e_l).tolist())]


def post_jump_velocity(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
                       t_break: float, v_pre) -> Vec3:
    """Velocity after the break that keeps both currents continuous.

    Continuity pins m g(v_post) v_post = p* = m g(v_pre) v_pre + kappa (W+ - W-)
    and m g(v_post) = e* = m g(v_pre) + kappa (w+ - w-), with the Right (+)
    and Left (-) branch sums at the break, so v_post = p*/e* in closed form.
    The four equations are consistent only on the mass shell
    e*^2 - |p*|^2 = m^2; a defect beyond MASS_SHELL_TOL * max(1, e*) raises
    InfeasibleJumpError.
    """
    v_pre = subluminal(v_pre)
    pre_sq = float(v_pre @ v_pre)
    k = coupling(traj1, traj2)
    m = traj1.particle.mass
    x1 = traj1.position(t_break)
    plus, minus = cone_pairs(traj2, ((t_break, x1, Side.RIGHT), (t_break, x1, Side.LEFT)))
    W_plus, w_plus = branch_sums(plus)
    W_minus, w_minus = branch_sums(minus)
    gamma_pre = 1.0 / math.sqrt(1.0 - pre_sq)
    p_star = m * gamma_pre * v_pre + k * (W_plus - W_minus)
    e_star = m * gamma_pre + k * (w_plus - w_minus)
    shell = e_star * e_star - float(p_star @ p_star)
    if (e_star <= 0.0 or shell <= 0.0
            or abs(math.sqrt(shell) - m) > MASS_SHELL_TOL * max(1.0, e_star)):
        raise InfeasibleJumpError(
            f"no post-jump velocity keeps the currents continuous at t={t_break}: "
            f"e* = {e_star:.6g}, e*^2 - |p*|^2 = {shell:.6g}, mass {m:.6g}")
    return p_star / e_star
