import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers_geometry import (
    assert_segments_match,
    reference_hermite_coeffs,
    static_traj,
    uniform_traj,
)

from wfvar.core import (
    BoundaryData,
    ParticleParams,
    Side,
    hermite_trajectory,
    polygonal_from_vertices,
    vec3,
)
from wfvar.errors import ConfigError, DomainError, SuperluminalError
from wfvar.momentum import break_residuals
from wfvar.optimizer import (
    DecisionVector,
    MinimizeOptions,
    MinimizerReport,
    _basis_fields,
    _node_velocities,
    _unpack_block,
    decode,
    discretize,
    minimize,
    verify,
)

POS = ParticleParams(mass=1.0, charge=1.0)
NEG = ParticleParams(mass=1.0, charge=-1.0)
FAR = 1.0e6


def far_boundary(w=(0.3, 0.1, 0.0), t0=-1.0, t1=1.0):
    """Effectively-free pair: straight worldline plus a distant static partner."""
    traj1 = uniform_traj([0, 0, 0], w, t0=-2.5 * FAR, t1=2.5 * FAR)
    traj2 = static_traj([FAR, 0, 0], t0=-2.5 * FAR, t1=2.5 * FAR, particle=NEG)
    boundary = BoundaryData(t0, t1, history1=traj1, history2=traj2)
    return boundary, traj1, traj2


def coupled_boundary():
    """The interacting pair: opposite unit charges, particle 1 through the
    origin at v = (0, 0.3, 0), particle 2 starting 4 away at -v, straight
    histories on [-60, 60], window [-1, 1]."""
    v, start = vec3(0.0, 0.3, 0.0), vec3(4.0, 0.0, 0.0)
    traj1 = polygonal_from_vertices([(-60.0, -60.0 * v), (60.0, 60.0 * v)], POS)
    traj2 = polygonal_from_vertices([(-60.0, start + 60.0 * v), (60.0, start - 60.0 * v)], NEG)
    return BoundaryData(-1.0, 1.0, history1=traj1, history2=traj2), traj1, traj2


def circle_pair(omega=0.5, rho=0.4, span=10.0, dt=0.1):
    times = np.arange(-span, span + 0.5 * dt, dt)
    xs = np.stack(
        [rho * np.cos(omega * times), rho * np.sin(omega * times), 0 * times], axis=1
    )
    vs = np.stack(
        [-rho * omega * np.sin(omega * times),
         rho * omega * np.cos(omega * times), 0 * times], axis=1
    )
    return (hermite_trajectory(times, xs, vs, POS),
            hermite_trajectory(times, -xs, -vs, NEG))


def reference_cells(times, positions, vel_r, vel_l, lo, hi):
    """Hermite cells lo..hi of the node data, one segment at a time."""
    return [reference_hermite_coeffs(times[i], times[i + 1], positions[i], vel_r[i],
                                     positions[i + 1], vel_l[i + 1]) for i in range(lo, hi + 1)]


class TestArrayDecode:
    """decode gives the cells that one `Segment` per cell gives, bit for bit,
    on non-uniform node grids with breaks; the basis bundle holds one field
    per coordinate over the whole node grid, with zero cells where it does
    not move the trajectory, and each field is the difference of decode's
    node data at a unit coordinate offset."""

    def test_decode_and_basis_fields_match_per_segment_cells(self):
        rng = np.random.default_rng(12)
        boundary, traj1, traj2 = far_boundary()
        base = discretize(boundary, (traj1, traj2), 4, break_times=([0.25], [-0.3]),
                          free_break_times=True)
        for _ in range(3):
            theta = base.theta + 0.02 * rng.uniform(-1.0, 1.0, base.theta.size)
            dv = base.with_theta(theta)
            for k, traj in zip((1, 2), decode(dv)):
                layout, block = dv.layouts[k - 1], dv.theta[dv.block_slice(k)]
                times, positions, break_vels = _unpack_block(layout, block, True)
                vel_l, vel_r = _node_velocities(layout, times, positions, break_vels)
                n = times.size - 1
                assert_segments_match(traj, times.tolist(),
                                      reference_cells(times, positions, vel_r, vel_l, 0, n - 1))
                fields = _basis_fields(layout, times)
                count = layout.size(free_break_times=False)
                assert np.array_equal(fields.knots, times)
                assert fields.rows[0].shape == (n, count, 3, 4)
                for j in range(count):
                    bumped = block.copy()
                    bumped[j] += 1.0
                    _, pos_b, vels_b = _unpack_block(layout, bumped, True)
                    vl_b, vr_b = _node_velocities(layout, times, pos_b, vels_b)
                    dpos, dvl, dvr = pos_b - positions, vl_b - vel_l, vr_b - vel_r
                    # the differencing oracle carries the rounding of block + 1,
                    # up to an ulp of the block's largest entry (particle 2 sits 1e6 away)
                    want = np.array(reference_cells(times, dpos, dvr, dvl, 0, n - 1))
                    scale = max(1.0, np.abs(block).max()) * np.abs(want).max()
                    assert_allclose(fields.rows[0][:, j], want, rtol=0, atol=1e-13 * scale)


class TestDiscretize:
    def test_static_pair_four_nodes(self):
        traj1 = static_traj([0, 0, 0])
        traj2 = static_traj([2.0, 0, 0], particle=NEG)
        boundary = BoundaryData(-1.5, 1.5)
        dv = discretize(boundary, (traj1, traj2), 4)
        for lay in dv.layouts:
            assert_allclose(lay.times, np.linspace(-1.5, 1.5, 4))
            assert not lay.break_mask.any()
        assert dv.theta.shape == (12,)  # 2 interior nodes x 3 coords x 2 particles
        assert_allclose(dv.layouts[0].x_start, [0, 0, 0])
        assert_allclose(dv.layouts[1].x_end, [2, 0, 0])
        d1, d2 = decode(dv)
        for t in np.linspace(-1.5, 1.5, 4):
            assert_allclose(d1.position(t), [0, 0, 0], atol=1e-15)
            assert_allclose(d2.position(t), [2, 0, 0], atol=1e-15)

    def test_break_carries_one_sided_velocities(self):
        v_pre, v_post = vec3(0.2, -0.1, 0.0), vec3(-0.1, 0.25, 0.1)
        vertex = vec3(0.3, 0.1, -0.2)
        traj1 = polygonal_from_vertices(
            [(-5.0, vertex - 5.4 * v_pre), (0.4, vertex), (5.0, vertex + 4.6 * v_post)],
            POS,
        )
        traj2 = static_traj([FAR, 0, 0], t0=-2.5 * FAR, t1=2.5 * FAR, particle=NEG)
        boundary = BoundaryData(-1.5, 1.5, history1=traj1, history2=traj2)
        dv = discretize(boundary, (traj1, traj2), 3)
        lay = dv.layouts[0]
        assert lay.break_mask.sum() == 1
        assert lay.times[lay.break_mask][0] == 0.4
        # block layout: 3 interior positions, then v_minus and v_plus
        assert dv.block_slice(1).stop - dv.block_slice(1).start == 15
        d1, _ = decode(dv)
        assert_allclose(d1.velocity(0.4, Side.LEFT), v_pre, atol=1e-12)
        assert_allclose(d1.velocity(0.4, Side.RIGHT), v_post, atol=1e-12)
        for t in lay.times:
            assert_allclose(d1.position(t), traj1.position(t), atol=1e-12)

    def test_encode_decode_round_trip_random(self):
        rng = np.random.default_rng(5)
        boundary, traj1, traj2 = far_boundary()
        base = discretize(boundary, (traj1, traj2),
                          3, break_times=([0.25], []))
        for _ in range(5):
            theta = base.theta.copy()
            sl = base.block_slice(1)
            theta[sl] += 0.05 * rng.uniform(-1, 1, sl.stop - sl.start)
            dv = base.with_theta(theta)
            redone = discretize(boundary, decode(dv), 3, break_times=([0.25], []))
            assert_allclose(redone.theta, dv.theta, atol=1e-12)

    def test_bad_inputs(self):
        boundary, traj1, traj2 = far_boundary()
        with pytest.raises(ConfigError):
            discretize(boundary, (traj1, traj2), 1)
        with pytest.raises(ConfigError):
            discretize(boundary, (traj1, traj2), 2.7)
        with pytest.raises(DomainError):
            discretize(boundary, (traj1, traj2), 3, break_times=([2.5], []))


class TestVerify:
    def test_effectively_free_pair(self):
        boundary, traj1, traj2 = far_boundary()
        report = verify(traj1, traj2, boundary)
        assert report.max_el < 1e-9
        assert report.break_residuals == ()
        assert report.converged

    def test_static_pair_hand_residual(self):
        traj1 = static_traj([0, 0, 0])
        traj2 = static_traj([2.0, 0, 0], particle=NEG)
        report = verify(traj1, traj2, BoundaryData(-2.0, 2.0))
        # coupling 1, separation 2: the static pair misses the field pull
        # by exactly 1/r^2 / 2 summed over both cone branches = 0.25
        assert abs(report.max_el - 0.25) < 1e-9
        assert not report.converged

    @pytest.mark.parametrize("span", [(-300.0, 300.0), (5.0, 300.0)], ids=["contains", "abuts"])
    def test_partner_history_takes_the_window_trajectorys_charge(self, span):
        # the same static pair, particle 2's window trajectory inside or
        # before a history of charge -2: kappa is still 1, as in `action`
        traj1 = static_traj([0, 0, 0])
        traj2 = static_traj([2.0, 0, 0], t0=-5.0, t1=5.0, particle=NEG)
        history2 = static_traj([2.0, 0, 0], *span, particle=ParticleParams(1.0, -2.0))
        report = verify(traj1, traj2, BoundaryData(-2.0, 2.0, history2=history2))
        assert abs(report.max_el - 0.25) < 1e-9

    def test_smooth_orbit_has_no_breaks(self):
        traj1, traj2 = circle_pair()
        report = verify(traj1, traj2, BoundaryData(-1.0, 1.0))
        assert report.break_residuals == ()

    def test_polygonal_breaks_reported(self):
        v_pre, v_post = vec3(0.3, 0, 0), vec3(0, 0.3, 0)
        traj1 = polygonal_from_vertices(
            [(-50.0, -50.0 * v_pre), (0.0, [0, 0, 0]), (50.0, 50.0 * v_post)], POS
        )
        traj2 = static_traj([2.0, 0, 0], particle=NEG)
        boundary = BoundaryData(-1.0, 1.0)
        report = verify(traj1, traj2, boundary)
        assert len(report.break_residuals) == 1
        ref = [r for r in break_residuals(traj1, traj2) if r.t == 0.0][0]
        assert_allclose(report.break_residuals[0].dp, ref.dp, atol=1e-14)
        assert abs(report.break_residuals[0].de - ref.de) < 1e-14
        assert report.max_break > 1e-3

    def test_bad_point_count(self):
        boundary, traj1, traj2 = far_boundary()
        for n_points in (0, 2.0, True):
            with pytest.raises(ConfigError):
                verify(traj1, traj2, boundary, n_points=n_points)


class TestMinimize:
    def test_exact_solution_is_fixed_point(self):
        boundary, traj1, traj2 = far_boundary()
        init = discretize(boundary, (traj1, traj2), 3)
        d1, d2, report = minimize(boundary, init)
        assert report.converged
        assert report.iterations <= 2
        assert report.descent_log == ()
        assert report.max_el < 1e-9
        for t in init.layouts[0].times:
            assert_allclose(d1.position(t), traj1.position(t), atol=1e-8)

    def test_descent_recovers_straight_line(self):
        boundary, traj1, traj2 = far_boundary()
        init = discretize(boundary, (traj1, traj2), 3)
        theta = init.theta.copy()
        sl = init.block_slice(1)
        theta[sl.start: sl.start + 3] += [0.08, -0.05, 0.03]
        d1, d2, report = minimize(boundary, init.with_theta(theta),
                                  {"gtol": 1e-8, "max_iter": 30})
        assert report.converged
        for k, before, after in report.descent_log:
            assert after <= before + 1e-12
        assert report.descent_log  # at least one accepted step
        for t in np.linspace(-1.0, 1.0, 9):
            assert_allclose(d1.position(t), traj1.position(t), atol=1e-6)
        assert report.max_el < 1e-6

    @pytest.mark.parametrize("setup", ["far", "coupled"])
    def test_gradient_matches_difference_quotient(self, setup):
        from wfvar.action import action
        from wfvar.optimizer import _block_gradient, _primary_view

        if setup == "far":
            boundary, traj1, traj2 = far_boundary()
            init = discretize(boundary, (traj1, traj2), 3)
            coordinates = range(3)
        else:
            # every position and both one-sided velocities at the break
            boundary, traj1, traj2 = coupled_boundary()
            init = discretize(boundary, (traj1, traj2), 3, break_times=([0.0], [0.0]))
            coordinates = range(init.block_slice(1).stop)
            assert len(coordinates) == 15
        theta = init.theta.copy()
        sl = init.block_slice(1)
        theta[sl.start: sl.start + 3] += [0.08, -0.05, 0.03]
        dv = init.with_theta(theta)
        bd = _primary_view(boundary, 1)

        def objective(vec, k):
            trajs = decode(vec)
            return action(trajs[k - 1], trajs[2 - k], bd)

        g = _block_gradient(*decode(dv), bd, dv.layouts[0], dv.theta[sl], None)
        h = 1e-4
        for j in coordinates:
            tp, tm = dv.theta.copy(), dv.theta.copy()
            tp[sl.start + j] += h
            tm[sl.start + j] -= h
            fd = (objective(dv.with_theta(tp), 1)
                  - objective(dv.with_theta(tm), 1)) / (2 * h)
            assert abs(g[j] - fd) < 1e-5 * max(1.0, abs(g[j]))

    def test_infeasible_init_rejected(self):
        boundary, traj1, traj2 = far_boundary()
        init = discretize(boundary, (traj1, traj2), 3)
        theta = init.theta.copy()
        theta[0] += 5.0  # chord speed to the pinned endpoint exceeds 1
        with pytest.raises(SuperluminalError):
            minimize(boundary, init.with_theta(theta))

    def test_unknown_option_rejected(self):
        boundary, traj1, traj2 = far_boundary()
        init = discretize(boundary, (traj1, traj2), 3)
        with pytest.raises(ConfigError):
            minimize(boundary, init, {"tol": 1e-8})

    @pytest.mark.parametrize("opts", [
        {"max_iter": 2.5}, MinimizeOptions(max_iter=2.5), {"max_iter": True},
        {"max_iter": -1}, MinimizeOptions(max_iter=-1), {"gtol": math.nan},
        MinimizeOptions(gtol=math.inf), {"el_tol": math.nan}, {"break_tol": -math.inf},
    ], ids=["max-iter-fraction", "options-max-iter-fraction", "max-iter-true",
            "max-iter-negative", "options-max-iter-negative", "gtol-nan", "options-gtol-inf",
            "el-tol-nan", "break-tol-infinite"])
    def test_malformed_option_rejected(self, opts):
        # counts follow the CLI's integer rule and tolerances must be finite,
        # in every form the options come in
        boundary, traj1, traj2 = far_boundary()
        init = discretize(boundary, (traj1, traj2), 3)
        with pytest.raises(ConfigError):
            minimize(boundary, init, opts)

    def test_free_break_time_coordinates(self):
        v_pre, v_post = vec3(0.10, 0.02, 0.0), vec3(0.16, -0.03, 0.0)
        traj1 = polygonal_from_vertices(
            [(-2.5 * FAR, 2.5 * FAR * -v_pre), (0.0, [0, 0, 0]),
             (2.5 * FAR, 2.5 * FAR * v_post)],
            POS,
        )
        traj2 = static_traj([FAR, 0, 0], t0=-2.5 * FAR, t1=2.5 * FAR, particle=NEG)
        boundary = BoundaryData(-1.0, 1.0, history1=traj1, history2=traj2)
        init = discretize(boundary, (traj1, traj2), 3, free_break_times=True)
        lay = init.layouts[0]
        assert lay.break_mask.sum() == 1
        sl = init.block_slice(1)
        assert sl.stop - sl.start == 9 + 6 + 1  # positions, two velocities, time
        assert init.theta[sl][-1] == 0.0
        d1, _ = decode(init)
        assert_allclose(d1.velocity(0.0, Side.LEFT), v_pre, atol=1e-12)
        _, _, report = minimize(boundary, init, {"max_iter": 2, "gtol": 1e-10})
        for k, before, after in report.descent_log:
            assert after <= before + 1e-12


def kinked_pair(v_after):
    """Particle 1 at rest until t = 0, then at (v_after, 0, 0); particle 2
    static 3 away; window [-1, 1]."""
    traj1 = polygonal_from_vertices([(-50.0, [0, 0, 0]), (0.0, [0, 0, 0]),
                                     (50.0, [50.0 * v_after, 0, 0])], POS)
    traj2 = static_traj([3.0, 0, 0], t0=-50.0, t1=50.0, particle=NEG)
    return BoundaryData(-1.0, 1.0, history1=traj1, history2=traj2), traj1, traj2


class TestBlockSteps:
    @pytest.mark.parametrize("n_nodes, v_after", [(2, 0.9), (3, 0.9), (6, 0.9), (6, 0.6)])
    def test_unordered_break_time_trial_shrinks_the_step(self, n_nodes, v_after):
        # a full step moves the freed break time past a neighbouring node;
        # the line search halves it as it halves a superluminal trial
        boundary, traj1, traj2 = kinked_pair(v_after)
        init = discretize(boundary, (traj1, traj2), n_nodes, break_times=([0.0], []),
                          free_break_times=True)
        _, _, report = minimize(boundary, init, {"max_iter": 5})
        assert report.descent_log
        for k, before, after in report.descent_log:
            assert after <= before + 1e-12

    def test_a_block_step_decodes_only_its_own_block(self, monkeypatch):
        # the pair is decoded once, by the feasibility gate; after that every
        # trial (line search and freed-time differences) decodes its own
        # block and reads the partner as it stands
        from wfvar import optimizer

        boundary, traj1, traj2 = kinked_pair(0.3)
        init = discretize(boundary, (traj1, traj2), 3, break_times=([0.0], [0.0]),
                          free_break_times=True)
        theta = init.theta.copy()
        theta[:3] += [0.03, -0.02, 0.01]
        sl = init.block_slice(2)
        theta[sl.start: sl.start + 3] += [-0.02, 0.01, 0.0]
        events = []
        decode_pair, decode_particle, one_action = (
            optimizer.decode, optimizer._decode_particle, optimizer.action)

        def counted_decode(dv):
            events.append(("decode",))
            return decode_pair(dv)

        def counted_decode_particle(layout, block, free):
            traj = decode_particle(layout, block, free)  # an infeasible trial raises here
            events.append(("particle", 1 if layout is init.layouts[0] else 2))
            return traj

        def counted_action(traj, partner, view, **kwargs):
            events.append(("action", 1 if view is boundary else 2))
            return one_action(traj, partner, view, **kwargs)

        monkeypatch.setattr(optimizer, "decode", counted_decode)
        monkeypatch.setattr(optimizer, "_decode_particle", counted_decode_particle)
        monkeypatch.setattr(optimizer, "action", counted_action)
        _, _, report = minimize(boundary, init.with_theta(theta), {"max_iter": 2})
        assert {k for k, _, _ in report.descent_log} == {1, 2}
        assert events[:3] == [("decode",), ("particle", 1), ("particle", 2)]
        assert ("decode",) not in events[3:]
        for at, event in enumerate(events[3:], start=3):
            if event[0] == "particle":
                assert events[at + 1] == ("action", event[1]), events[at - 2: at + 2]
        decodes = [event[1] for event in events if event[0] == "particle"]
        assert decodes.count(1) > 2 and decodes.count(2) > 2


class TestOnePassGradient:
    @pytest.mark.parametrize("n_nodes", [3, 5, 9])
    def test_block_gradient_solves_at_most_twice_the_lanes_of_one_action(
            self, n_nodes, monkeypatch):
        from wfvar import lightcone
        from wfvar.action import action
        from wfvar.optimizer import _block_gradient, _primary_view

        # every lane solve of `cone_times`, `cone_pair` and `cone_crossings`
        # goes through `_cone_solutions`
        lanes = []
        cone_solutions, cone_time = lightcone._cone_solutions, lightcone.cone_time

        def counted_cone_solutions(traj, blocks, *args, **kwargs):
            lanes.extend(np.size(ts) for _, ts, *_ in blocks)
            return cone_solutions(traj, blocks, *args, **kwargs)

        def counted_cone_time(*args, **kwargs):
            lanes.append(1)
            return cone_time(*args, **kwargs)

        monkeypatch.setattr(lightcone, "_cone_solutions", counted_cone_solutions)
        monkeypatch.setattr(lightcone, "cone_time", counted_cone_time)
        boundary, traj1, traj2 = coupled_boundary()
        dv = discretize(boundary, (traj1, traj2), n_nodes)
        trajs = decode(dv)
        action(*trajs, _primary_view(boundary, 1))
        one_action = sum(lanes)
        lanes.clear()
        g = _block_gradient(*trajs, _primary_view(boundary, 1), dv.layouts[0],
                            dv.theta[dv.block_slice(1)], None)
        assert g.shape == (3 * (n_nodes - 2),)
        assert 0 < sum(lanes) <= 2 * one_action
