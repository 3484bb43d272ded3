import importlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers_geometry import (
    scalar_branch_sums,
    scalar_cone_pair,
    static_traj,
    uniform_cone_roots,
    uniform_traj,
)

from wfvar.action import lagrangian_position_partial
from wfvar.core import ParticleParams, Side, polygonal_from_vertices, vec3
from wfvar.errors import InfeasibleJumpError, SuperluminalError
from wfvar.lightcone import Branch, cone_time
from wfvar.momentum import break_residuals, energy_current, momentum_current, post_jump_velocity

POS = ParticleParams(mass=1.0, charge=1.0)
NEG = ParticleParams(mass=1.0, charge=-1.0)


def far_partner(distance=1.0e6):
    span = 2.0 * distance
    return static_traj([distance, 0, 0], t0=-span, t1=span, particle=NEG)


class TestCurrents:
    def test_momentum_effectively_free(self):
        traj1 = uniform_traj([0, 0, 0], [0.6, 0, 0], particle=POS)
        p = momentum_current(traj1, far_partner(), 0.0)
        # gamma = 1.25 and the static far partner contributes nothing to W
        assert_allclose(p, [0.75, 0, 0], atol=1e-9)

    def test_energy_static_pair(self):
        traj1 = static_traj([0, 0, 0], particle=POS)
        traj2 = static_traj([2, 0, 0], particle=NEG)
        e = energy_current(traj1, traj2, 0.0)
        # kappa = 1, both branches at r = 2: e = 1 - (1/4 + 1/4)
        assert abs(e - 0.5) < 1e-12
        assert_allclose(momentum_current(traj1, traj2, 0.0), 0.0, atol=1e-12)

    def test_energy_effectively_free(self):
        traj1 = uniform_traj([0, 0, 0], [0.6, 0, 0], particle=POS)
        e = energy_current(traj1, far_partner(1.0e7), 0.0)
        assert abs(e - 1.25) < 1e-6

    def test_energy_uncoupled_is_rest_energy(self):
        traj1 = static_traj([0, 0, 0], particle=ParticleParams(mass=1.7, charge=1.0))
        e = energy_current(traj1, static_traj([3, 0, 0], particle=NEG), 0.0, kappa=0.0)
        assert e == 1.7

    def test_break_residual_free_polygonal(self):
        traj1 = polygonal_from_vertices(
            [(-50.0, [-30, 0, 0]), (0.0, [0, 0, 0]), (50.0, [0, 30, 0])], POS
        )
        (res,) = break_residuals(traj1, far_partner())
        assert res.t == 0.0
        assert_allclose(res.dp, [-0.75, 0.75, 0], atol=1e-9)
        assert abs(res.de) < 1e-12


class TestSideConsistency:
    def make_pair(self):
        # Straight-line motions written with a spurious interior vertex each,
        # so every one-sided quantity must agree with its other side.
        traj1 = polygonal_from_vertices(
            [(-50.0, [-15, 0, 0]), (1.0, [0.3, 0, 0]), (50.0, [15, 0, 0])], POS
        )
        traj2 = polygonal_from_vertices(
            [(-50.0, [0, -12.5, 3]), (2.0, [0, 0.5, 3]), (50.0, [0, 12.5, 3])], NEG
        )
        return traj1, traj2

    def test_spurious_break_keeps_currents_continuous(self):
        traj1, traj2 = self.make_pair()
        (res,) = break_residuals(traj1, traj2)
        assert np.linalg.norm(res.dp) < 1e-12
        assert abs(res.de) < 1e-12

    def test_continuity_when_cone_hits_partner_junction(self):
        # Pick t1 whose advanced image lands exactly on the partner's vertex;
        # the side-tagged cone data must coincide there because the vertex is
        # spurious.
        traj1, traj2 = self.make_pair()
        event = (2.0, traj2.position(2.0))
        t1 = cone_time(traj1, event, Branch.RETARDED).t_k
        p_l = momentum_current(traj1, traj2, t1, side=Side.LEFT)
        p_r = momentum_current(traj1, traj2, t1, side=Side.RIGHT)
        assert np.linalg.norm(p_r - p_l) < 1e-12
        e_l = energy_current(traj1, traj2, t1, side=Side.LEFT)
        e_r = energy_current(traj1, traj2, t1, side=Side.RIGHT)
        assert abs(e_r - e_l) < 1e-12

    def test_currents_form_no_position_partial(self, monkeypatch):
        # dL/dx1 is formed only where it is read: break residuals and the
        # currents take p and e alone
        module = importlib.import_module("wfvar.action")
        calls = []

        def counted(*args, _original=module._branch_partials):
            calls.append(1)
            return _original(*args)

        monkeypatch.setattr(module, "_branch_partials", counted)
        traj1, traj2 = self.make_pair()
        assert len(break_residuals(traj1, traj2)) == 1
        momentum_current(traj1, traj2, 0.5)
        energy_current(traj1, traj2, 0.5)
        assert calls == []
        lagrangian_position_partial(traj1, traj2, 0.5)
        assert len(calls) == 2  # one per cone branch


def engineered_jump_instance():
    """A pair whose continuity system is solvable in closed form.

    The partner has one vertex at (tau, x2_tau) placed so the advanced cone
    of the break event (0, origin) hits it exactly (r = 2, n = (-1, 0, 0)).
    Only the advanced branch then differs between sides, so the delayed sums
    are explicit, and the mass that makes the jump exactly solvable follows
    from the mass-shell identity:

        (m a + e)^2 - |m A + c|^2 = m^2  with  |A|^2 = a^2 - 1
        =>  m = (|c|^2 - e^2) / (2 (a e - A.c))

    where A = gamma_pre v_pre, a = gamma_pre, c = kappa (W+ - W-) and
    e = kappa (w+ - w-).
    """
    tau = 2.0
    x2_tau = vec3([2.0, 0.0, 0.0])
    u_minus = vec3([0.0, 0.3, 0.0])
    u_plus = vec3([0.2, -0.1, 0.1])
    traj2 = polygonal_from_vertices(
        [
            (-40.0, x2_tau - 42.0 * u_minus),
            (tau, x2_tau),
            (40.0, x2_tau + 38.0 * u_plus),
        ],
        NEG,
    )
    v_pre = vec3([0.25, 0.15, 0.0])

    n = vec3([-1.0, 0.0, 0.0])
    r = 2.0
    rho_minus = 1.0 + n @ u_minus
    rho_plus = 1.0 + n @ u_plus
    c = u_plus / (2 * r * rho_plus) - u_minus / (2 * r * rho_minus)
    e = 1.0 / (2 * r * rho_plus) - 1.0 / (2 * r * rho_minus)

    gamma_pre = 1.0 / math.sqrt(1.0 - v_pre @ v_pre)
    big_a = gamma_pre * v_pre
    mass = (c @ c - e * e) / (2.0 * (gamma_pre * e - big_a @ c))
    assert mass > 0
    v_post = (mass * big_a + c) / (mass * gamma_pre + e)
    assert np.linalg.norm(v_post) < 1.0

    traj1 = polygonal_from_vertices(
        [(-40.0, -40.0 * v_pre), (0.0, [0, 0, 0]), (40.0, 40.0 * v_post)],
        ParticleParams(mass=mass, charge=1.0),
    )
    return traj1, traj2, v_pre, v_post, mass


class TestPostJumpVelocity:
    def test_far_partner_returns_v_pre(self):
        traj1 = polygonal_from_vertices(
            [(-50.0, [30, 0, 0]), (0.0, [0, 0, 0]), (50.0, [0, 30, 0])], POS
        )
        v = post_jump_velocity(traj1, far_partner(), 0.0, [-0.6, 0, 0])
        assert_allclose(v, [-0.6, 0, 0], atol=1e-14)

    def test_rest_stays_at_rest(self):
        traj1 = static_traj([0, 0, 0], particle=POS)
        v = post_jump_velocity(traj1, far_partner(), 0.0, [0, 0, 0])
        assert_allclose(v, 0.0, atol=1e-14)

    def test_engineered_jump_matches_closed_form(self):
        traj1, traj2, v_pre, v_post, _mass = engineered_jump_instance()
        solved = post_jump_velocity(traj1, traj2, 0.0, v_pre)
        assert_allclose(solved, v_post, rtol=0, atol=1e-10)

    def test_engineered_jump_substitution_closes_residuals(self):
        traj1, traj2, _v_pre, _v_post, _mass = engineered_jump_instance()
        (res,) = break_residuals(traj1, traj2)
        assert np.linalg.norm(res.dp) < 1e-10
        assert abs(res.de) < 1e-10

    def test_retarded_oracle_consistency(self):
        # The retarded branch of the engineered instance lies on the straight
        # pre-vertex piece, so the closed-form root must agree with the solver.
        traj1, traj2, _v_pre, _v_post, _mass = engineered_jump_instance()
        x2_0 = traj2.position(0.0)
        t_ret, _ = uniform_cone_roots(x2_0, [0.0, 0.3, 0.0], 0.0, [0, 0, 0])
        sol = cone_time(traj2, (0.0, vec3([0.0, 0.0, 0.0])), Branch.RETARDED)
        assert abs(sol.t_k - t_ret) < 1e-12

    def test_wrong_mass_is_infeasible(self):
        traj1, traj2, v_pre, _v_post, mass = engineered_jump_instance()
        heavy = polygonal_from_vertices(
            [(-40.0, -40.0 * v_pre), (0.0, [0, 0, 0]), (40.0, 40.0 * v_pre)],
            ParticleParams(mass=mass + 0.5, charge=1.0),
        )
        with pytest.raises(InfeasibleJumpError):
            post_jump_velocity(heavy, traj2, 0.0, v_pre)

    def test_superluminal_v_pre_rejected(self):
        traj1 = static_traj([0, 0, 0], particle=POS)
        with pytest.raises(SuperluminalError):
            post_jump_velocity(traj1, far_partner(), 0.0, [1.0, 0, 0])


class TestJumpFeasibility:
    """The closed form p*/e* is accepted only on the mass shell."""

    @staticmethod
    def off_shell(rel):
        _traj1, traj2, v_pre, v_post, mass = engineered_jump_instance()
        traj1 = polygonal_from_vertices(
            [(-40.0, -40.0 * v_pre), (0.0, [0, 0, 0]), (40.0, 40.0 * v_post)],
            ParticleParams(mass=mass * (1.0 + rel), charge=1.0),
        )
        return traj1, traj2, v_pre, v_post

    def test_tiny_mass_defect_is_accepted(self):
        traj1, traj2, v_pre, v_post = self.off_shell(1e-9)
        solved = post_jump_velocity(traj1, traj2, 0.0, v_pre)
        assert_allclose(solved, v_post, rtol=0, atol=1e-9)

    def test_one_percent_mass_defect_is_infeasible(self):
        traj1, traj2, v_pre, _v_post = self.off_shell(1e-2)
        with pytest.raises(InfeasibleJumpError):
            post_jump_velocity(traj1, traj2, 0.0, v_pre)

    def test_spacelike_currents_are_infeasible(self):
        traj1, traj2, v_pre, _v_post, mass = engineered_jump_instance()
        kappa = 3.0
        x1 = traj1.position(0.0)
        (W_p, w_p), (W_m, w_m) = (scalar_branch_sums(scalar_cone_pair(traj2, 0.0, x1, side))
                                  for side in (Side.RIGHT, Side.LEFT))
        gamma_pre = 1.0 / math.sqrt(1.0 - v_pre @ v_pre)
        p_star = mass * gamma_pre * v_pre + kappa * (W_p - W_m)
        e_star = mass * gamma_pre + kappa * (w_p - w_m)
        assert 0.0 < e_star and e_star**2 <= p_star @ p_star  # no real mass
        with pytest.raises(InfeasibleJumpError):
            post_jump_velocity(traj1, traj2, 0.0, v_pre, kappa=kappa)
