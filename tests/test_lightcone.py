import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers_geometry import DEFAULT as P
from helpers_geometry import (
    bench_workloads,
    reference_cone_crossings,
    scalar_far_cone_time,
    segment_from_global,
    static_traj,
    uniform_cone_roots,
    uniform_traj,
)

from wfvar import cli, farfield, lightcone, shortrange
from wfvar.core import (
    PackedChain,
    PiecewiseTrajectory,
    Segment,
    Side,
    hermite_trajectory,
    polygonal_from_vertices,
    vec3,
)
from wfvar.errors import (CollisionError, ConeSolveError, ConvergenceError, DomainError,
                          InsufficientHistoryError)
from wfvar.lightcone import (
    Branch,
    cone_crossings,
    cone_pair,
    cone_time,
    cone_times,
    far_cone_time,
    far_cone_times,
    influence_interval,
    unit_directions,
)


def check_residual(sol, event_t, event_x, traj):
    r = np.linalg.norm(vec3(event_x) - traj.position(sol.t_k))
    res = (event_t - sol.t_k) - sol.branch.sign * r
    assert abs(res) < 1e-12 * max(1.0, abs(event_t))


class TestConeTime:
    def test_static_retarded(self):
        traj = static_traj([0, 0, 0])
        sol = cone_time(traj, (10.0, [5, 0, 0]), Branch.RETARDED)
        assert abs(sol.t_k - 5.0) < 1e-12
        assert abs(sol.r - 5.0) < 1e-12
        assert_allclose(sol.n_hat, [1, 0, 0], atol=1e-14)
        assert abs(sol.dilation - 1.0) < 1e-14
        check_residual(sol, 10.0, [5, 0, 0], traj)

    def test_static_advanced(self):
        sol = cone_time(static_traj([0, 0, 0]), (10.0, [5, 0, 0]), Branch.ADVANCED)
        assert abs(sol.t_k - 15.0) < 1e-12

    def test_static_partner_roots_need_no_bisection(self, monkeypatch):
        evals = []
        at = Segment.at

        def counted_at(seg, t, order=0):
            evals.append(order)
            return at(seg, t, order)

        monkeypatch.setattr(Segment, "at", counted_at)
        # r = 5 exactly: the first bracket step lands on the root itself
        traj = static_traj([1.0, -2.0, 0.5])
        for t in (10.0, -7.25, 0.0):
            for branch, expect in [(Branch.RETARDED, t - 5.0), (Branch.ADVANCED, t + 5.0)]:
                evals.clear()
                sol = cone_time(traj, (t, [4.0, 2.0, 0.5]), branch)
                assert sol.t_k == expect
                assert sol.r == 5.0
                assert evals.count(0) <= 4  # bisection would need dozens
        # in general the first step lands within rounding of the root, and a
        # Newton step then lands on that bracket end
        rng = np.random.default_rng(11)
        for _ in range(200):
            x0, x = rng.uniform(-5.0, 5.0, 3), rng.uniform(-5.0, 5.0, 3)
            t, r = float(rng.uniform(-3.0, 3.0)), float(np.linalg.norm(x - x0))
            for branch in Branch:
                evals.clear()
                sol = cone_time(static_traj(x0), (t, x), branch)
                assert abs(sol.t_k - (t - branch.sign * r)) < 1e-12
                assert evals.count(0) <= 8

    def test_uniform_motion_against_closed_form(self):
        traj = uniform_traj([0, 0, 0], [0.5, 0, 0])
        sol = cone_time(traj, (0.0, [10, 0, 0]), Branch.RETARDED)
        t_ret, t_adv = uniform_cone_roots([0, 0, 0], [0.5, 0, 0], 0.0, [10, 0, 0])
        assert abs(t_ret + 20.0) < 1e-10  # hand value
        assert abs(sol.t_k - t_ret) < 1e-12
        assert abs(sol.r - 20.0) < 1e-11
        adv = cone_time(traj, (0.0, [10, 0, 0]), Branch.ADVANCED)
        assert abs(adv.t_k - t_adv) < 1e-12

    @given(
        st.floats(-0.7, 0.7), st.floats(-0.5, 0.5), st.floats(-5.0, 5.0),
        st.floats(1.0, 20.0), st.floats(-10.0, 10.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_uniform_motion(self, vx, vy, t_e, yd, yx):
        v = [vx, vy, 0.1 * vx * vy]
        if np.linalg.norm(v) >= 0.95:
            return
        traj = uniform_traj([0.3, -0.2, 0.1], v)
        event = (t_e, [yx, yd, 0.5])
        t_ret, t_adv = uniform_cone_roots([0.3, -0.2, 0.1], v, t_e, event[1])
        for branch, expect in [(Branch.RETARDED, t_ret), (Branch.ADVANCED, t_adv)]:
            sol = cone_time(traj, event, branch)
            assert abs(sol.t_k - expect) < 1e-10 * max(1.0, abs(expect))
            check_residual(sol, *event, traj)
            assert abs(np.linalg.norm(sol.n_hat) - 1.0) < 1e-12
            assert sol.dilation > 0.0

    def test_newton_matches_pure_bisection(self):
        traj = uniform_traj([0, 0, 0], [0.5, 0, 0])
        event = (0.0, vec3(10, 2, -1))
        sol = cone_time(traj, event, Branch.RETARDED)

        def g(t_k):
            return (event[0] - t_k) - np.linalg.norm(event[1] - traj.position(t_k))

        a, b = -300.0, 0.0
        for _ in range(100):
            m = 0.5 * (a + b)
            if g(m) > 0:
                a = m
            else:
                b = m
        assert abs(sol.t_k - 0.5 * (a + b)) < 1e-10

    def test_dilation_matches_numerical_derivative(self):
        # x(t) = (0.05 t^2, 0.1 t, 0) in absolute time
        seg = segment_from_global(-6.0, 6.0, [[0, 0, 0.05], [0, 0.1], [0]])
        traj = PiecewiseTrajectory.from_segments((seg,), P)
        event_x = vec3(3, 1, 0)
        for branch in Branch:
            sol = cone_time(traj, (1.0, event_x), branch)
            h = 1e-5
            tp = cone_time(traj, (1.0 + h, event_x), branch).t_k
            tm = cone_time(traj, (1.0 - h, event_x), branch).t_k
            assert abs(sol.dilation - (tp - tm) / (2 * h)) < 1e-6

    def test_branch_symmetry_for_even_trajectory(self):
        # even trajectory x(-t) = x(t)
        seg = segment_from_global(-6.0, 6.0, [[0, 0, 0.05], [0], [0]])
        traj = PiecewiseTrajectory.from_segments((seg,), P)
        y = vec3(3, 1, 0)
        adv = cone_time(traj, (1.0, y), Branch.ADVANCED).t_k
        ret = cone_time(traj, (-1.0, y), Branch.RETARDED).t_k
        assert abs(adv + ret) < 1e-11

    def test_side_selects_one_sided_data_at_junction(self):
        traj = polygonal_from_vertices(
            [(-2.0, [0, 0, 0]), (0.0, [0, 0, 0]), (2.0, [1.0, 0, 0])], P
        )
        event = (2.0, [0, 2, 0])
        right = cone_time(traj, event, Branch.RETARDED)
        left = cone_time(traj, event, Branch.RETARDED, side=Side.LEFT)
        assert abs(right.t_k) < 1e-12 and abs(left.t_k) < 1e-12
        assert_allclose(right.v, [0.5, 0, 0], atol=1e-12)
        assert_allclose(left.v, [0, 0, 0], atol=1e-12)
        assert right.side is Side.RIGHT and left.side is Side.LEFT

    def test_root_within_tolerance_past_the_domain_end_returns_that_end(self):
        # the bracket search accepts the domain end; both its residuals then
        # have one sign and the bracket is that single point
        traj = static_traj([0, 0, 0], t0=0.0, t1=5.0)
        late = cone_time(traj, (10.0000000000001, [5, 0, 0]), Branch.RETARDED)
        assert late.t_k == 5.0
        early = cone_time(traj, (-5.0000000000001, [5, 0, 0]), Branch.ADVANCED)
        assert early.t_k == 0.0
        traj = uniform_traj([0, 0, 0], [0.5, 0, 0], t0=0.0, t1=5.0)
        for event, branch, end in [((7.5000000000001, [5, 0, 0]), Branch.RETARDED, 5.0),
                                   ((-5.0000000000001, [5, 0, 0]), Branch.ADVANCED, 0.0)]:
            assert cone_time(traj, event, branch).t_k == end

    def test_insufficient_history(self):
        traj = static_traj([0, 0, 0], t0=0.0, t1=1.0)
        with pytest.raises(InsufficientHistoryError):
            cone_time(traj, (10.0, [5, 0, 0]), Branch.RETARDED)
        with pytest.raises(InsufficientHistoryError):
            cone_time(traj, (-10.0, [5, 0, 0]), Branch.ADVANCED)


class TestFarConeTime:
    def test_static_at_origin(self):
        assert abs(far_cone_time(static_traj([0, 0, 0]), 0.0, [1, 0, 0], 100.0) + 100.0) < 1e-12

    def test_static_offset_along_n(self):
        t_k = far_cone_time(static_traj([3, 0, 0]), 0.0, [1, 0, 0], 100.0)
        assert abs(t_k + 97.0) < 1e-12

    def test_uniform_motion_linear_fixed_point(self):
        traj = uniform_traj([0, 0, 0], [0.5, 0, 0])
        t_k = far_cone_time(traj, 0.0, [1, 0, 0], 100.0)
        assert abs(t_k + 200.0) < 1e-10

    def test_advanced_branch(self):
        # t_k = t + R - n.x(t_k); static offset gives t_k = 100 - 3
        t_k = far_cone_time(static_traj([3, 0, 0]), 0.0, [1, 0, 0], 100.0,
                            branch=Branch.ADVANCED)
        assert abs(t_k - 97.0) < 1e-12

    def test_zero_radius_gives_sphere_time(self):
        # R-subtracted observation time: t_k = tau + n.x(t_k)
        t_k = far_cone_time(static_traj([3, 0, 0]), 0.0, [1, 0, 0], 0.0)
        assert abs(t_k - 3.0) < 1e-12

    def test_requires_unit_direction(self):
        with pytest.raises(DomainError):
            far_cone_time(static_traj([0, 0, 0]), 0.0, [1, 1, 0], 100.0)

    @pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf, -1.0],
                             ids=["nan", "inf", "minus-inf", "negative"])
    def test_radius_must_be_finite_and_nonnegative(self, R):
        # a NaN radius once returned the domain start as the cone time
        traj = uniform_traj([0, 0, 0], [0.5, 0, 0])
        with pytest.raises(DomainError, match="finite and nonnegative"):
            far_cone_time(traj, 0.0, [1, 0, 0], R)
        with pytest.raises(DomainError, match="finite and nonnegative"):
            far_cone_times(traj, [0.0, 1.0], np.eye(3)[:2], R)

    def test_domain_exit(self):
        with pytest.raises(InsufficientHistoryError):
            far_cone_time(static_traj([0, 0, 0], t0=-50.0, t1=50.0), 0.0,
                          [1, 0, 0], 100.0)

    @pytest.mark.parametrize("branch", list(Branch))
    def test_root_just_past_the_domain_end(self, branch):
        # t_k = t - s R for a static charge at the origin; slack is 1e-9 here
        traj = static_traj([0, 0, 0], t0=-1.0, t1=1.0)
        s = branch.sign
        for end in (-1.0, 1.0):
            past = 1.0 if end > 0 else -1.0
            t = end + s * 100.0 + past * 5e-10
            assert far_cone_time(traj, t, [1, 0, 0], 100.0, branch) == end
            with pytest.raises(InsufficientHistoryError):
                far_cone_time(traj, end + s * 100.0 + past * 1e-6, [1, 0, 0], 100.0, branch)

    def test_newton_cycle_across_junctions(self, monkeypatch):
        # along n the slope 1 - n.v of the far residual is 1.8 on |t_k| < 1
        # and 0.2 outside, so plain Newton from t = 8 cycles between +8 and
        # -8; the knot bracket [-1, 1] holds the root, so Newton inside it
        # needs a step or two, each one position and one velocity lookup
        traj = polygonal_from_vertices([(-20.0, [-22.4, 0, 0]), (-1.0, [-7.2, 0, 0]),
                                        (1.0, [-8.8, 0, 0]), (20.0, [6.4, 0, 0])], P)
        evals = []
        at = PackedChain.at

        def counted_at(chain, index, ts, order=0):
            evals.append(order)
            return at(chain, index, ts, order)

        monkeypatch.setattr(PackedChain, "at", counted_at)
        t_k = far_cone_time(traj, 8.0, [1, 0, 0], 0.0)
        assert abs(t_k) < 1e-12
        assert 1 <= len(evals) <= 5
        assert abs(scalar_far_cone_time(traj, 8.0, [1, 0, 0], 0.0)) < 1e-12


class TestInfluenceInterval:
    def test_static_pair_d2(self):
        t1 = static_traj([0, 0, 0])
        t2 = static_traj([2, 0, 0])
        lo, hi = influence_interval(t1, t2, 0.0)
        assert abs(lo + 2.0) < 1e-12 and abs(hi - 2.0) < 1e-12

    def test_static_pair_d5_offset_event(self):
        t1 = static_traj([0, 0, 0])
        t2 = static_traj([5, 0, 0])
        lo, hi = influence_interval(t1, t2, 3.0)
        assert abs(lo + 2.0) < 1e-12 and abs(hi - 8.0) < 1e-12

    def test_comoving_pair_width_is_gamma_scaled(self):
        d = 2.0
        t1 = uniform_traj([0, 0, 0], [0.6, 0, 0])
        t2 = uniform_traj([0, d, 0], [0.6, 0, 0])
        lo, hi = influence_interval(t1, t2, 0.0)
        assert abs((hi - lo) - 2.5 * d) < 1e-10
        ret = cone_time(t1, (0.0, t2.position(0.0)), Branch.RETARDED)
        adv = cone_time(t1, (0.0, t2.position(0.0)), Branch.ADVANCED)
        assert abs(lo - ret.t_k) < 1e-14 and abs(hi - adv.t_k) < 1e-14


def test_cone_time_evaluations_on_a_long_chain(monkeypatch):
    # a binary search on 201 knot residuals, a few Newton steps inside the
    # bracketing segment and one final residual
    partner = circle(0.4, 0.5, math.pi, span=40.0)
    mover = circle(0.4, 0.5, 0.0, span=40.0)
    assert len(partner.segments) == 200
    evals = []
    at = Segment.at

    def counted_at(seg, t, order=0):
        evals.append(order)
        return at(seg, t, order)

    monkeypatch.setattr(Segment, "at", counted_at)
    counts = []
    for t in np.linspace(-30.0, 30.0, 61):
        x = mover.position(t)
        for branch in Branch:
            evals.clear()
            cone_time(partner, (t, x), branch)
            counts.append(evals.count(0))
    assert max(counts) <= 12  # measured: at most 12, mean 11.7


def test_nan_event_time_spends_the_budget():
    traj = static_traj([0, 0, 0])
    with pytest.raises(ConeSolveError) as err:
        cone_time(traj, (math.nan, [1, 0, 0]), Branch.ADVANCED)
    assert err.value.branch is Branch.ADVANCED
    assert math.isnan(err.value.event[0])
    with pytest.raises(ConeSolveError):
        far_cone_time(traj, math.nan, [1, 0, 0], 10.0)


# -- property tests of the shared root finder ----------------------------------

component = st.floats(-0.5, 0.5)
triple = st.tuples(component, component, component)


@st.composite
def trajectories(draw, min_segments=1):
    """Polygonal or cubic-Hermite trajectories with speeds below 0.87."""
    n = draw(st.integers(min_segments, 4))
    times = np.cumsum([draw(st.floats(-5.0, 5.0))]
                      + [draw(st.floats(0.25, 3.0)) for _ in range(n)])
    chords = [np.array(draw(triple)) for _ in range(n)]
    points = np.cumsum([np.array(draw(triple))]
                       + [h * w for h, w in zip(np.diff(times), chords)], axis=0)
    if draw(st.booleans()):
        return polygonal_from_vertices(list(zip(times, points)), P)
    # Hermite speed is at most 1.5 |chord| + |v0| + |v1|: scale both down
    velocities = [0.3 * np.array(draw(triple)) for _ in range(n + 1)]
    return hermite_trajectory(times, 0.3 * points, velocities, P)


def unit(draw):
    z, phi = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.0, 2.0 * math.pi))
    rho = math.sqrt(1.0 - z * z)
    return vec3(rho * math.cos(phi), rho * math.sin(phi), z)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_cone_roots_on_junctions_and_domain_ends(data):
    traj = data.draw(trajectories())
    tau = data.draw(st.sampled_from([traj.t_start, traj.t_end] + traj.junction_times()))
    branch = data.draw(st.sampled_from(list(Branch)))
    r = data.draw(st.floats(0.1, 5.0))
    x = traj.position(tau) + r * unit(data.draw)
    t = tau + branch.sign * r
    for side in Side:
        sol = cone_time(traj, (t, x), branch, side=side)
        check_residual(sol, t, x, traj)
        assert abs(sol.t_k - tau) <= 1e-12 * max(1.0, abs(tau))
        if tau in traj.junction_times():
            assert sol.t_k == tau  # snapped, so the one-sided data is exact
            assert np.array_equal(sol.v, traj.velocity(tau, side))
            assert np.array_equal(sol.a, traj.acceleration(tau, side))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_far_cone_roots_on_junctions_and_domain_ends(data):
    traj = data.draw(trajectories())
    tau = data.draw(st.sampled_from([traj.t_start, traj.t_end] + traj.junction_times()))
    branch = data.draw(st.sampled_from(list(Branch)))
    n = unit(data.draw)
    R = data.draw(st.sampled_from([0.0, 1.0, 1e3]))
    t = tau + branch.sign * (R - float(n @ traj.position(tau)))
    t_k = far_cone_time(traj, t, n, R, branch)
    assert traj.t_start <= t_k <= traj.t_end
    g = (t - t_k) - branch.sign * (R - float(n @ traj.position(t_k)))
    assert abs(g) <= 1e-12 * max(1.0, abs(t) + R)
    assert abs(t_k - tau) <= 1e-12 * max(1.0, abs(t) + R)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_batched_far_cone_lanes_match_the_scalar_solve(data):
    # every lane's root sits on a junction or a domain end, where the
    # batched solve switches between its knot bracket and its closed form
    traj = data.draw(trajectories())
    knots = [traj.t_start, traj.t_end] + traj.junction_times()
    branch = data.draw(st.sampled_from(list(Branch)))
    R = data.draw(st.sampled_from([0.0, 1.0, 1e3]))
    lanes = data.draw(st.integers(1, 6))
    dirs = np.array([unit(data.draw) for _ in range(lanes)])
    taus = [data.draw(st.sampled_from(knots)) for _ in range(lanes)]
    t = np.array([tau + branch.sign * (R - float(n @ traj.position(tau)))
                  for tau, n in zip(taus, dirs)])
    batched = far_cone_times(traj, t, dirs, R, branch)
    for i in range(lanes):
        scale = max(1.0, abs(t[i]) + R)
        assert traj.t_start <= batched[i] <= traj.t_end
        assert abs(batched[i] - scalar_far_cone_time(traj, t[i], dirs[i], R, branch)) <= 1e-12 * scale
        assert abs(batched[i] - taus[i]) <= 1e-12 * scale


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_packed_evaluation_is_bit_identical_to_segment_at(data):
    traj = data.draw(trajectories())
    interior = [data.draw(st.floats(traj.t_start, traj.t_end)) for _ in range(4)]
    times = np.array([traj.t_start, traj.t_end] + traj.junction_times() + interior)
    for side in Side:
        for order in range(3):
            packed = traj.evaluate(times, order, side)
            scalar = [traj.segment_at(t, side).at(t, order) for t in times]
            assert np.array_equal(bits(packed), bits(scalar))


class TestBatchedFarConeErrors:
    def test_nan_lane_spends_the_budget_with_its_branch(self):
        traj = static_traj([0, 0, 0])
        dirs = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        for branch in Branch:
            with pytest.raises(ConeSolveError) as err:
                far_cone_times(traj, np.array([0.0, math.nan, 1.0]), dirs, 10.0, branch)
            assert err.value.branch is branch
            assert math.isnan(err.value.event[0])

    @pytest.mark.parametrize("branch", list(Branch))
    def test_root_past_the_slack_raises(self, branch):
        traj = static_traj([0, 0, 0], t0=-1.0, t1=1.0)
        s = branch.sign
        dirs = np.array([[1.0, 0, 0], [1.0, 0, 0]])
        for end in (-1.0, 1.0):
            past = 1.0 if end > 0 else -1.0
            inside = end + s * 100.0
            t_k = far_cone_times(traj, [inside, inside + past * 5e-10], dirs, 100.0, branch)
            assert list(t_k) == [end, end]
            with pytest.raises(InsufficientHistoryError):
                far_cone_times(traj, [inside, inside + past * 1e-6], dirs, 100.0, branch)

    def test_non_unit_lane_raises(self):
        dirs = np.array([[1.0, 0, 0], [1.0, 1.0, 0]])
        with pytest.raises(DomainError):
            far_cone_times(static_traj([0, 0, 0]), 0.0, dirs, 100.0)

    def test_one_direction_or_rows_keep_their_shape(self):
        rows = np.eye(3)
        assert unit_directions(rows) is rows
        assert unit_directions([0, 0, 1]).tolist() == [0.0, 0.0, 1.0]
        # the batched solve still takes (M, 3) rows only
        with pytest.raises(DomainError, match=r"shape \(M, 3\)"):
            far_cone_times(static_traj([0, 0, 0]), 0.0, np.array([1.0, 0, 0]), 100.0)

    @pytest.mark.parametrize("ts", [[0.0, 1.0, 2.0], [[0.0], [1.0]], []],
                             ids=["three-times", "column", "no-times"])
    def test_event_times_must_match_the_directions(self, ts):
        with pytest.raises(DomainError, match="do not match 2 directions"):
            far_cone_times(static_traj([0, 0, 0]), ts, np.eye(3)[:2], 100.0)

    @pytest.mark.parametrize("ts", [0.0, [0.0], [0.0, 1.0]], ids=["float", "one", "two"])
    def test_broadcast_event_times_still_solve(self, ts):
        t_k = far_cone_times(static_traj([0, 0, 0]), ts, np.eye(3)[:2], 100.0)
        assert t_k.shape == (2,)

    def test_newton_cycle_across_junctions(self):
        # the lane of TestFarConeTime.test_newton_cycle_across_junctions
        traj = polygonal_from_vertices([(-20.0, [-22.4, 0, 0]), (-1.0, [-7.2, 0, 0]),
                                        (1.0, [-8.8, 0, 0]), (20.0, [6.4, 0, 0])], P)
        t_k = far_cone_times(traj, [8.0, 5.0], np.array([[1.0, 0, 0], [1.0, 0, 0]]), 0.0)
        assert abs(t_k[0]) < 1e-12
        assert abs(t_k[1] - scalar_far_cone_time(traj, 5.0, [1, 0, 0], 0.0)) < 1e-12


def slow_polygon(draw, times, offset):
    """Polygonal trajectory through `times` with speeds below 0.26."""
    slow = st.floats(-0.15, 0.15)
    points = [vec3(offset)]
    for h in np.diff(times):
        points.append(points[-1] + h * vec3([draw(slow) for _ in range(3)]))
    return polygonal_from_vertices(list(zip(times, points)), P)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_cone_crossing_roots_hit_the_partner_junction(data):
    # partner within 5.8 of the origin and trajectory 1 within 2.1 of
    # (0, 8, 0) over every time a cone reaches: no collision, and the
    # partner junctions in [-6, 6] fall inside the window's images
    junctions = sorted(data.draw(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=4, unique=True)))
    partner = slow_polygon(data.draw, [-40.0] + junctions + [40.0], [0, 0, 0])
    t1s = sorted(data.draw(st.lists(st.floats(-8.0, 8.0), min_size=2, max_size=5, unique=True)))
    traj1 = slow_polygon(data.draw, t1s, [0, 8, 0])
    a, b = traj1.t_start, traj1.t_end
    crossings = cone_crossings(traj1, partner, a, b)
    for branch, other in ((Branch.RETARDED, Branch.ADVANCED), (Branch.ADVANCED, Branch.RETARDED)):
        lo = cone_time(partner, (a, traj1.position(a)), branch).t_k
        hi = cone_time(partner, (b, traj1.position(b)), branch).t_k
        found = [(t1, tau) for t1, tau, br in crossings if br is branch]
        # a junction between the images whose crossing time rounds onto a
        # window end is no crossing inside (a, b)
        assert [tau for _, tau in found] == [
            tau for tau in junctions if lo < tau < hi
            and a < cone_time(traj1, (tau, partner.position(tau)), other).t_k < b]
        for t1, tau in found:
            assert a < t1 < b
            image = cone_time(partner, (t1, traj1.position(t1)), branch).t_k
            assert abs(image - tau) <= 1e-12


def test_a_crossing_on_the_window_start_is_dropped():
    # the partner junction at 2.2e-309 lies just past 0, the advanced image
    # of t1 = -8, so its crossing time rounds to -8, the window start
    partner = polygonal_from_vertices([(-40.0, [0, 0, 0]), (0.0, [0, 0, 0]),
                                       (2.2e-309, [0, 0, 0]), (40.0, [0, 0, 0])], P)
    traj1 = polygonal_from_vertices([(-8.0, [0, 8, 0]), (0.0, [0, 8, 0])], P)
    assert cone_time(partner, (-8.0, traj1.position(-8.0)), Branch.ADVANCED).t_k == 0.0
    assert cone_crossings(traj1, partner, -8.0, 0.0) == []


@pytest.mark.parametrize("history, message", [
    ((-3.0, 10.0), r"retarded cone of event t=-2\.0 exits the domain \[-3\.0, 10\.0\]"),
    ((-10.0, 3.0), r"advanced cone of event t=2\.0 exits the domain \[-10\.0, 3\.0\]"),
])
def test_a_window_end_image_past_the_partner_history_raises(history, message):
    # trajectory 1 at rest 4 from the partner on [-2, 2]: the retarded image
    # of t1 = -2 is about -6 and the advanced image of t1 = 2 about 6
    partner = polygonal_from_vertices([(history[0], [0, 0, 0]), (0.0, [0.1, 0, 0]),
                                       (history[1], [0, 0, 0])], P)
    traj1 = polygonal_from_vertices([(-2.0, [0, 4, 0]), (2.0, [0, 4, 0])], P)
    with pytest.raises(InsufficientHistoryError, match=f"^{message}$"):
        cone_crossings(traj1, partner, -2.0, 2.0)


# -- batched near-cone lanes against the scalar solve --------------------------

FIELDS = ("t_k", "r", "n_hat", "v", "a", "dilation")


def assert_same_fields(one, other):
    """Two cone solutions with bit-identical fields, signed zeros included."""
    for name in FIELDS:
        assert np.array_equal(bits(getattr(one, name)), bits(getattr(other, name))), name
    assert one.side is other.side and one.branch is other.branch


def assert_lanes_match_cone_time(traj, ts, xs, branch, side=Side.RIGHT):
    """Every lane of `cone_times` against the float `cone_time` of its event,
    both taken on `side`: t_k, r, n_hat, V, A and the dilation bit for bit."""
    batched = cone_times(traj, ts, xs, branch, side)
    assert batched.side is side and batched.branch is branch
    for i, (t, x) in enumerate(zip(ts, xs)):
        sol = cone_time(traj, (t, x), branch, side=side)
        for name in FIELDS:
            assert np.array_equal(bits(getattr(batched, name)[i]), bits(getattr(sol, name))), name
    return batched


def outcome(solve):
    """The solution, or the type of the exception the solve raised."""
    try:
        return solve()
    except Exception as exc:  # the type is the outcome
        return type(exc)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_float_and_lane_forms_agree_bit_for_bit(data):
    # roots on knots, just off them, anywhere in or past the domain and
    # close to the trajectory; both forms give the same fields or raise the
    # same exception type
    traj = data.draw(trajectories())
    knots = [traj.t_start, traj.t_end] + traj.junction_times()
    branch = data.draw(st.sampled_from(list(Branch)))
    side = data.draw(st.sampled_from(list(Side)))
    tau = data.draw(st.one_of(
        st.sampled_from(knots),
        st.builds(lambda k, e: k + e, st.sampled_from(knots),
                  st.sampled_from([-1e-9, -1e-12, -1e-15, 1e-15, 1e-12, 1e-9])),
        st.floats(traj.t_start - 3.0, traj.t_end + 3.0)))
    r = data.draw(st.one_of(st.floats(0.0, 5.0), st.sampled_from([1e-10, 2e-9])))
    at = min(max(tau, traj.t_start), traj.t_end)
    x = traj.position(at) + r * unit(data.draw)
    t = tau + branch.sign * r
    one = outcome(lambda: cone_time(traj, (t, x), branch, side))
    lane = outcome(lambda: cone_times(traj, t, x, branch, side))
    if isinstance(one, type) or isinstance(lane, type):
        assert one is lane
    else:
        assert_same_fields(one, lane)


def circle(radius, omega, phase, span=30.0, dt=0.4):
    times = np.arange(-span, span + 0.5 * dt, dt)
    angles = omega * times + phase
    xs = radius * np.stack([np.cos(angles), np.sin(angles), 0.0 * angles], axis=1)
    vs = radius * omega * np.stack([-np.sin(angles), np.cos(angles), 0.0 * angles], axis=1)
    return hermite_trajectory(times, xs, vs, P)


class TestBatchedConeTimes:
    @pytest.mark.parametrize("branch", list(Branch))
    def test_circle_pair_lanes(self, branch):
        partner = circle(0.4, 0.5, math.pi)
        mover = circle(0.4, 0.5, 0.0)
        ts = np.linspace(-3.0, 3.0, 241)
        assert_lanes_match_cone_time(partner, ts, mover.evaluate(ts), branch)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_polygonal_pair_lanes(self, data):
        junctions = sorted(data.draw(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=5,
                                              unique=True)))
        partner = slow_polygon(data.draw, [-40.0] + junctions + [40.0], [0, 0, 0])
        mover = slow_polygon(data.draw, [-10.0, 0.0, 10.0], [0, 3, 0])
        ts = np.array(data.draw(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=12)))
        for branch in Branch:
            assert_lanes_match_cone_time(partner, ts, mover.evaluate(ts), branch)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_roots_on_junctions_and_domain_ends(self, data):
        # the snap rule: a root on a junction is that junction exactly, with
        # the partner data of the requested side
        traj = data.draw(trajectories())
        knots = [traj.t_start, traj.t_end] + traj.junction_times()
        branch = data.draw(st.sampled_from(list(Branch)))
        side = data.draw(st.sampled_from(list(Side)))
        lanes = data.draw(st.integers(1, 6))
        taus = [data.draw(st.sampled_from(knots)) for _ in range(lanes)]
        rs = [data.draw(st.floats(0.1, 5.0)) for _ in range(lanes)]
        xs = np.array([traj.position(tau) + r * unit(data.draw) for tau, r in zip(taus, rs)])
        ts = np.array([tau + branch.sign * r for tau, r in zip(taus, rs)])
        batched = assert_lanes_match_cone_time(traj, ts, xs, branch, side)
        for i, tau in enumerate(taus):
            assert abs(batched.t_k[i] - tau) <= 1e-12 * max(1.0, abs(tau))
            if tau in traj.junction_times():
                assert batched.t_k[i] == tau
                assert np.array_equal(batched.v[i], traj.velocity(tau, side))
                assert np.array_equal(batched.a[i], traj.acceleration(tau, side))

    def test_a_float_event_gives_scalar_fields(self):
        traj = circle(0.4, 0.5, math.pi)
        t, x = 0.3, np.array([0.1, 2.0, -0.2])
        for side in Side:
            pair = cone_pair(traj, t, x, side)
            for branch, sol in zip((Branch.ADVANCED, Branch.RETARDED), pair):
                lanes = cone_times(traj, np.array([t]), x[None, :], branch, side)
                assert sol.branch is branch and sol.side is side
                for name in ("t_k", "r", "dilation", "n_hat", "v", "a"):
                    one = getattr(sol, name)
                    assert np.shape(one) == np.shape(getattr(lanes, name))[1:]
                    assert np.array_equal(one, getattr(lanes, name)[0])

    def test_static_partner_lanes_land_on_the_root(self):
        # r = 5 exactly, so the scalar search's first bracket end is the root
        traj = static_traj([1.0, -2.0, 0.5])
        ts = np.array([10.0, -7.25, 0.0])
        xs = np.tile([4.0, 2.0, 0.5], (3, 1))
        for branch in Branch:
            batched = assert_lanes_match_cone_time(traj, ts, xs, branch)
            assert_allclose(batched.t_k, ts - branch.sign * 5.0, rtol=0.0, atol=1e-14)
            assert np.all(batched.r == 5.0)

    def test_partner_a_million_away(self):
        partner = uniform_traj([1e6, 0.0, 0.0], [0.0, 0.3, 0.0], -3e6, 3e6)
        mover = uniform_traj([0.0, 0.0, 0.0], [0.2, 0.1, 0.0])
        ts = np.linspace(-4.0, 4.0, 17)
        for branch in Branch:
            batched = assert_lanes_match_cone_time(partner, ts, mover.evaluate(ts), branch)
            assert np.all(np.abs(batched.r - 1.05e6) < 0.1e6)

    @pytest.mark.parametrize("branch", list(Branch))
    def test_domain_end_roots_within_tolerance_and_past_it(self, branch):
        # static charge at the origin on [0, 5], events at distance 5: the
        # root is t - 5 s, and 1e-13 past an end is inside the 1e-12 tolerance
        traj = static_traj([0, 0, 0], t0=0.0, t1=5.0)
        xs = np.tile([5.0, 0.0, 0.0], (2, 1))
        for end in (0.0, 5.0):
            past = 1.0 if end > 0.0 else -1.0
            t = end + branch.sign * 5.0
            batched = assert_lanes_match_cone_time(
                traj, np.array([t, t + past * 1e-13]), xs, branch)
            assert list(batched.t_k) == [end, end]
            with pytest.raises(InsufficientHistoryError):
                cone_times(traj, np.array([t, t + past * 1e-6]), xs, branch)

    def test_nan_event_time_raises_cone_solve_error(self):
        traj = static_traj([0, 0, 0])
        xs = np.tile([1.0, 0.0, 0.0], (3, 1))
        for branch in Branch:
            with pytest.raises(ConeSolveError) as err:
                cone_times(traj, np.array([0.0, math.nan, 1.0]), xs, branch)
            assert err.value.branch is branch
            assert math.isnan(err.value.event[0])

    @pytest.mark.parametrize("xs", [np.zeros(3), np.zeros((3, 3)), np.zeros(7)],
                             ids=["one-row", "three-rows", "seven-numbers"])
    def test_positions_must_match_the_times(self, xs):
        traj = static_traj([5.0, 0, 0])
        with pytest.raises(DomainError, match="one \\(3,\\) position per time"):
            cone_times(traj, [0.0, 1.0], xs, Branch.RETARDED)
        with pytest.raises(DomainError, match="one \\(3,\\) position per time"):
            cone_pair(traj, [0.0, 1.0], xs)

    def test_flat_positions_of_two_events_still_solve(self):
        traj = static_traj([5.0, 0, 0])
        flat = cone_times(traj, [0.0, 1.0], np.zeros(6), Branch.RETARDED)
        rows = cone_times(traj, [0.0, 1.0], np.zeros((2, 3)), Branch.RETARDED)
        assert flat.t_k.tobytes() == rows.t_k.tobytes()

    def test_collision_lane_raises(self):
        traj = uniform_traj([0, 0, 0], [0.3, 0, 0])
        ts = np.array([0.0, 1.0, 2.0])
        xs = np.array([[0.0, 2.0, 0.0], traj.position(1.0) + [0.0, 1e-10, 0.0], [0.0, 2.0, 0.0]])
        for branch in Branch:
            with pytest.raises(CollisionError):
                cone_times(traj, ts, xs, branch)
            with pytest.raises(CollisionError):  # 1e-10 away, below COLLISION_R
                cone_time(traj, (ts[1], xs[1]), branch)


@pytest.mark.parametrize("budget", [0, 1])
def test_a_spent_root_budget_raises_with_its_event(monkeypatch, budget):
    # every cone solver stops after _MAX_ITER Newton steps with a
    # ConeSolveError that names the event and branch; the float and lane
    # forms stop at the same iterate, so they report the same residual
    partner = circle(0.4, 0.5, math.pi, dt=0.5)
    mover = circle(0.4, 0.5, 0.0, dt=0.5)
    monkeypatch.setattr(lightcone, "_MAX_ITER", budget)
    t, n, R = 0.3, unit_directions([0.6, 0.0, 0.8]), 6.0
    x = mover.position(t)

    def residual(err) -> str:
        return str(err.value).split("residual ")[1].split(" after")[0]

    for branch in Branch:
        with pytest.raises(ConeSolveError) as one:
            cone_time(partner, (t, x), branch)
        with pytest.raises(ConeSolveError) as lanes:
            cone_times(partner, np.array([t]), x[None], branch)
        for err in (one, lanes):
            assert err.value.branch is branch
            assert err.value.event[0] == t and np.array_equal(err.value.event[1], x)
        assert residual(one) == residual(lanes)
        assert f"after {budget} iterations" in str(one.value)
        with pytest.raises(ConeSolveError) as far:
            far_cone_times(partner, t, n[None], R, branch)
        assert far.value.branch is branch
        assert far.value.event[0] == t and far.value.event[2] == R
        assert np.array_equal(far.value.event[1], n)


@pytest.mark.parametrize("branch", list(Branch))
def test_an_unspent_root_budget_accepts_the_start_alike(monkeypatch, branch):
    # with no Newton step allowed, a static partner's secant start is its
    # root: the float form accepts it in its `for ... else`, the lanes after
    # their loop, and both give the same root, bit for bit
    monkeypatch.setattr(lightcone, "_MAX_ITER", 0)
    traj = static_traj([0.3, -1.2, 0.5])
    ts = np.array([-7.25, 0.0, 0.1, 42.0])
    xs = np.array([[2.0, 0.0, 0.0], [0.3, 4.0, -1.0], [-5.0, 1.0, 2.5], [0.3, -1.2, 9.0]])
    sol = assert_lanes_match_cone_time(traj, ts, xs, branch)
    r = np.linalg.norm(xs - traj.position(0.0), axis=1)
    assert_allclose(sol.t_k, ts - branch.sign * r, rtol=0, atol=1e-13)
    assert not np.isin(sol.t_k, traj.packed.knots).any()


class TestConeRoundingFloorStall:
    # a Hermite partner near x = 1e6 reads its positions to about 1e-10, so
    # the advanced root of this event sits on a rounding step of the
    # residual: Newton with bisection stalls between adjacent floats at a
    # residual above the 1e-12 tolerance and below the cell's rounding floor
    event = (-2.98, np.array([1e6 + 1.0, 0.5, 0.0]))

    def partner(self):
        times = np.arange(-10.0, 10.01, 0.5)
        v = np.array([0.5, 0.1, 0.0])
        xs = np.array([1e6, 0.0, 0.0]) + times[:, None] * v
        return hermite_trajectory(times, xs, np.tile(v, (times.size, 1)), P)

    def test_without_the_floor_both_forms_stall_alike(self, monkeypatch):
        monkeypatch.setattr(lightcone, "_FLOOR", 0.0)
        traj, (t, x) = self.partner(), self.event
        with pytest.raises(ConvergenceError) as one:
            cone_time(traj, (t, x), Branch.ADVANCED)
        with pytest.raises(ConvergenceError) as lanes:
            cone_times(traj, np.array([t]), x[None], Branch.ADVANCED)
        for err in (one, lanes):
            assert type(err.value) is ConvergenceError
            assert str(err.value).startswith("cone residual ")
        assert str(one.value) == str(lanes.value)
        residual = float(str(one.value).split()[2])
        assert 1e-12 < abs(residual) < lightcone._EPS * 100.0 * 1e6

    def test_with_the_floor_both_forms_accept_the_same_root(self):
        traj, (t, x) = self.partner(), self.event
        sol = assert_lanes_match_cone_time(traj, np.array([t]), x[None], Branch.ADVANCED)
        r = np.linalg.norm(x - traj.position(sol.t_k[0]))
        assert abs((t - sol.t_k[0]) + r) < 1e-9


# -- both branches of a pair in one lane solve -----------------------------------

class TestLongCellRoundingFloor:
    # reading x(t_k) on a cell 6e6 long rounds by about |v| |u| eps ~ 1e-10,
    # above the 1e-12 tolerances of lanes near t = 0; those lanes pass
    # within their cell's rounding floor instead of raising
    x0, v = np.array([1e3, 0.0, 0.0]), np.array([0.1, -0.2, 0.05])

    def lanes(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(-50.0, 50.0, 2000)
        n = rng.standard_normal((2000, 3))
        n /= np.linalg.norm(n, axis=1)[:, None]
        x = self.x0 + rng.uniform(-1e3, 1e3, (2000, 3))
        return uniform_traj(self.x0, self.v, t0=-3e6, t1=3e6), t, n, x

    def test_far_roots(self):
        traj, t, n, _ = self.lanes()
        for branch in Branch:
            want = (t + branch.sign * (n @ self.x0)) / (1.0 - branch.sign * (n @ self.v))
            assert_allclose(far_cone_times(traj, t, n, 0.0, branch), want, rtol=1e-9)

    @pytest.mark.parametrize("branch", list(Branch))
    def test_near_roots(self, branch):
        traj, t, _, x = self.lanes()
        batched = assert_lanes_match_cone_time(traj, t, x, branch)
        want = [uniform_cone_roots(self.x0, self.v, ti, xi)[branch is Branch.ADVANCED]
                for ti, xi in zip(t, x)]
        assert_allclose(batched.t_k, want, rtol=1e-9)


def per_branch_pair(traj, ts, xs, side):
    """`cone_pair` as one `cone_times` call per branch."""
    return tuple(cone_times(traj, ts, xs, branch, side)
                 for branch in (Branch.ADVANCED, Branch.RETARDED))


def assert_pair_is_cone_time(pair, traj, ts, xs, side):
    """Every lane of both branches of `pair` against the float `cone_time`
    of its event on `side`, bit for bit."""
    for sol, branch in zip(pair, (Branch.ADVANCED, Branch.RETARDED)):
        assert sol.branch is branch and sol.side is side
        for i, (t, x) in enumerate(zip(ts, xs)):
            one = cone_time(traj, (t, x), branch, side=side)
            for name in FIELDS:
                assert np.array_equal(bits(getattr(sol, name)[i]), bits(getattr(one, name))), name


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_cone_pair_lanes_are_cone_time_bit_for_bit(data):
    # each event has the root of one branch on a knot, just off one, or
    # anywhere in or past the domain; on both sides every lane of both
    # branches is the float `cone_time` of its event, and a pair that
    # fails raises what the per-branch calls raise
    traj = data.draw(trajectories())
    knots = [traj.t_start, traj.t_end] + traj.junction_times()
    ts, xs = [], []
    for _ in range(data.draw(st.integers(1, 3))):
        tau = data.draw(st.one_of(
            st.sampled_from(knots),
            st.builds(lambda k, e: k + e, st.sampled_from(knots),
                      st.sampled_from([-1e-9, -1e-12, -1e-15, 1e-15, 1e-12, 1e-9])),
            st.floats(traj.t_start - 0.5, traj.t_end + 0.5)))
        r = data.draw(st.sampled_from([0.01, 0.1, 0.2, 0.5, 1.0, 1e-10]))
        at = min(max(tau, traj.t_start), traj.t_end)
        xs.append(traj.position(at) + r * unit(data.draw))
        ts.append(tau + data.draw(st.sampled_from(list(Branch))).sign * r)
    ts, xs = np.array(ts), np.array(xs)
    for side in Side:
        pair = outcome(lambda: cone_pair(traj, ts, xs, side))
        expected = outcome(lambda: per_branch_pair(traj, ts, xs, side))
        if isinstance(pair, type) or isinstance(expected, type):
            assert pair is expected
        else:
            assert_pair_is_cone_time(pair, traj, ts, xs, side)


def crossing_bits(crossings):
    return [(float.hex(t), float.hex(tau), branch) for t, tau, branch in crossings]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_cone_crossings_match_the_per_branch_form(data):
    # the set-up of test_cone_crossing_roots_hit_the_partner_junction, on
    # windows that start and end on knots of trajectory 1 or anywhere in it
    junctions = sorted(data.draw(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=4,
                                          unique=True)))
    partner = slow_polygon(data.draw, [-40.0] + junctions + [40.0], [0, 0, 0])
    t1s = sorted(data.draw(st.lists(st.floats(-8.0, 8.0), min_size=2, max_size=5, unique=True)))
    traj1 = slow_polygon(data.draw, t1s, [0, 8, 0])
    ends = st.one_of(st.sampled_from(t1s), st.floats(traj1.t_start, traj1.t_end))
    a, b = data.draw(ends), data.draw(ends)
    assert crossing_bits(cone_crossings(traj1, partner, a, b)) == crossing_bits(
        reference_cone_crossings(traj1, partner, a, b))


# -- the knot-hull bracket against a search over every knot --------------------

def full_span_oracle(monkeypatch) -> tuple:
    """From now on, run every `_lane_roots` call a second time with the span
    (-inf, inf), a search over every knot.  Returns the lane counts of the
    calls and the list of calls whose (t_k, k, g_k), or whose exception
    type, differ from the full search's."""
    calls, mismatches = [], []
    lane_roots = lightcone._lane_roots

    def checked(packed, t, span, *args):
        def every_knot():
            return np.full(t.shape, -np.inf), np.full(t.shape, np.inf)

        calls.append(t.size)
        want = outcome(lambda: lane_roots(packed, t, every_knot, *args))
        try:
            got = lane_roots(packed, t, span, *args)
        except Exception as exc:
            if want is not type(exc):
                mismatches.append((t, want, exc))
            raise
        if isinstance(want, type) or any(bits(a).tobytes() != bits(b).tobytes()
                                         for a, b in zip(got, want)):
            mismatches.append((t, want, got))
        return got

    monkeypatch.setattr(lightcone, "_lane_roots", checked)
    return calls, mismatches


def assert_brackets_match_the_full_search(solve):
    """Run `solve()` under `full_span_oracle`: at least one lane solve, and
    every one with the knot of a search over every knot."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls, mismatches = full_span_oracle(monkeypatch)
        outcome(solve)
    assert calls and mismatches == []


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_the_hull_bracket_finds_the_knot_of_the_full_search(data):
    # polygonal and Hermite partners, both branches, near and far cones,
    # with roots on knots, just off them, or anywhere in or past the domain
    traj = data.draw(trajectories())
    knots = [traj.t_start, traj.t_end] + traj.junction_times()
    branch = data.draw(st.sampled_from(list(Branch)))
    lanes = data.draw(st.integers(1, 6))
    taus = np.array([data.draw(st.one_of(
        st.sampled_from(knots),
        st.builds(lambda k, e: k + e, st.sampled_from(knots),
                  st.sampled_from([-1e-9, -1e-15, 1e-15, 1e-9])),
        st.floats(traj.t_start - 3.0, traj.t_end + 3.0))) for _ in range(lanes)])
    at = np.clip(taus, traj.t_start, traj.t_end)
    dirs = np.array([unit(data.draw) for _ in range(lanes)])
    r = np.array([data.draw(st.floats(0.0, 5.0)) for _ in range(lanes)])
    xs = traj.evaluate(at) + r[:, None] * dirs
    assert_brackets_match_the_full_search(
        lambda: cone_times(traj, taus + branch.sign * r, xs, branch))
    R = data.draw(st.sampled_from([0.0, 1.0, 1e3]))
    t = taus + branch.sign * (R - (dirs * traj.evaluate(at)).sum(axis=1))
    assert_brackets_match_the_full_search(lambda: far_cone_times(traj, t, dirs, R, branch))


def shifted(traj, offset):
    """`traj` moved by `offset`, through the array builder."""
    knots = traj.packed.knots
    return hermite_trajectory(knots, traj.evaluate(knots) + offset, traj.evaluate(knots, 1), P)


def unit_rows(rng, count: int) -> np.ndarray:
    rows = rng.standard_normal((count, 3))
    return rows / np.linalg.norm(rows, axis=1)[:, None]


class TestHullBracketEdges:
    @pytest.mark.parametrize("branch", list(Branch))
    def test_static_partner_roots_on_its_knots(self, branch):
        # rho = 0: every knot sits on the hull's centre, so each bracket is
        # one time, widened by the margin; roots on the knots and a hair
        # either side of them
        x = np.array([1.5, -0.5, 2.0])
        partner = polygonal_from_vertices([(float(t), x) for t in range(-8, 9)], P)
        assert partner.packed.hull[1] == 0.0
        rng = np.random.default_rng(7)
        dirs, r = unit_rows(rng, 60), rng.uniform(0.3, 7.0, 60)
        taus = np.repeat(np.arange(-6.0, 6.0), 5) + np.tile([0.0, 1e-15, -1e-15, 1e-12, 0.0], 12)
        assert_brackets_match_the_full_search(
            lambda: cone_times(partner, taus + branch.sign * r, x + r[:, None] * dirs, branch))
        for R in (0.0, 7.5):
            t = taus + branch.sign * (R - dirs @ x)
            assert_brackets_match_the_full_search(
                lambda: far_cone_times(partner, t, dirs, R, branch))

    def test_a_partner_a_million_away(self):
        # junctions about the cone images of events near t = 0 at the origin
        times = [-3e6, -1e6 - 5.0, -1e6, -1e6 + 5.0, 1e6 - 5.0, 1e6, 1e6 + 5.0, 3e6]
        rng = np.random.default_rng(8)
        points = 1e6 * np.array([1.0, 0.0, 0.0]) + rng.uniform(-1.0, 1.0, (len(times), 3))
        partner = polygonal_from_vertices(list(zip(times, points)), P)
        ts = np.linspace(-4.0, 4.0, 33)
        xs = rng.uniform(-2.0, 2.0, (33, 3))
        for branch in Branch:
            assert_brackets_match_the_full_search(lambda: cone_times(partner, ts, xs, branch))
            assert_brackets_match_the_full_search(
                lambda: far_cone_times(partner, ts, unit_rows(rng, 33), 1e6, branch))

    def test_coordinates_near_a_million(self):
        offset = np.array([1e6, -1e6, 1e6])
        partner = shifted(circle(0.4, 0.5, math.pi), offset)
        ts = np.linspace(-3.0, 3.0, 61)
        xs = shifted(circle(0.4, 0.5, 0.0), offset).evaluate(ts)
        dirs = unit_rows(np.random.default_rng(9), 61)
        for branch in Branch:
            assert_brackets_match_the_full_search(lambda: cone_times(partner, ts, xs, branch))
            assert_brackets_match_the_full_search(
                lambda: far_cone_times(partner, ts, dirs, 5.0, branch))

    @pytest.mark.parametrize("excess", [0.999e-9, -0.999e-9])
    @pytest.mark.parametrize("branch", list(Branch))
    def test_directions_up_to_1e9_off_unit_length(self, branch, excess):
        # the partner's knot at t = 1000 sits at 1000 s x, on the hull's
        # edge; with n = (1 + excess) x, R = 0 and t = -0.5e-6, that knot's
        # residual is t + 1000 excess, +-0.5e-6, just past the bound C.n +- rho
        # when |n| > 1, while |t| + R is too small for the margin's own
        # scale to cover it.  Random lanes besides
        edge = branch.sign * np.array([1000.0, 0.0, 0.0])
        partner = polygonal_from_vertices([(-3000.0, -edge), (1000.0, edge), (5000.0, -edge)], P)
        assert partner.packed.hull[1] == 1000.0
        dirs = (1.0 + excess) * np.vstack([[1.0, 0.0, 0.0],
                                           unit_rows(np.random.default_rng(10), 40)])
        t = np.concatenate([[-0.5e-6], np.linspace(-2000.0, 2000.0, 40)])
        assert_brackets_match_the_full_search(
            lambda: far_cone_times(partner, t, dirs, 0.0, branch))


def count_lane_solves(monkeypatch) -> list:
    """The lane counts of every `_lane_roots` call from now on."""
    calls = []
    lane_roots = lightcone._lane_roots

    def counted(packed, t, *args):
        calls.append(t.size)
        return lane_roots(packed, t, *args)

    monkeypatch.setattr(lightcone, "_lane_roots", counted)
    return calls


def count_knot_passes(monkeypatch) -> list:
    """The lane counts of every knot-residual pass from now on: each call
    of a residual handed to `_lane_roots` whose lanes are a slice, every
    lane at once, which is one search round or the final g_k."""
    passes = []
    lane_roots = lightcone._lane_roots

    def counted(packed, t, span, residual, *args):
        def counted_residual(lanes, *rest):
            if isinstance(lanes, slice):
                passes.append(t.size)
            return residual(lanes, *rest)

        return lane_roots(packed, t, span, counted_residual, *args)

    monkeypatch.setattr(lightcone, "_lane_roots", counted)
    return passes


def bench_pass_lane_solves(monkeypatch, tmp_path, workload: str, counter=count_lane_solves):
    """What `counter` collects over one seed-1 pass of a benchmark workload,
    by default the lane counts of its lane solves, every output gated."""
    jobs = bench_workloads(monkeypatch).build(workload, 1, tmp_path)
    calls = counter(monkeypatch)
    for job in jobs:
        assert cli.run(job.command, job.dir / job.scenario, quiet=True) == 0
        assert job.gate() is None
    return calls


class TestOneLaneSolvePerPair:
    @pytest.mark.parametrize("side", list(Side))
    def test_circle_pair_lanes(self, side):
        partner = circle(0.4, 0.5, math.pi)
        ts = np.linspace(-3.0, 3.0, 61)
        xs = circle(0.4, 0.5, 0.0).evaluate(ts)
        assert_pair_is_cone_time(cone_pair(partner, ts, xs, side), partner, ts, xs, side)

    def test_nan_event_time_names_the_advanced_branch(self):
        traj = static_traj([0, 0, 0])
        xs = np.tile([1.0, 0.0, 0.0], (3, 1))
        with pytest.raises(ConeSolveError) as err:
            cone_pair(traj, np.array([0.0, math.nan, 1.0]), xs)
        assert err.value.branch is Branch.ADVANCED
        assert math.isnan(err.value.event[0])

    def test_blocks_are_checked_in_order(self):
        # static charge at the origin on [0, 5]; lane 0 is 1e-10 from it, a
        # collision on both branches, and lane 1's root leaves the domain on
        # one branch only.  Each branch alone raises its tolerance error
        # before its collision, so the pair raises what the first branch
        # raises: a collision when the retarded cone exits, the exit when
        # the advanced one does
        traj = static_traj([0, 0, 0], t0=0.0, t1=5.0)
        xs = np.array([[1e-10, 0.0, 0.0], [3.0, 0.0, 0.0]])
        for ts, exits, first in (([2.0, 1.0], Branch.RETARDED, CollisionError),
                                 ([2.0, 4.0], Branch.ADVANCED, InsufficientHistoryError)):
            ts = np.array(ts)
            with pytest.raises(InsufficientHistoryError):
                cone_times(traj, ts, xs, exits)
            with pytest.raises(first):
                per_branch_pair(traj, ts, xs, Side.RIGHT)
            with pytest.raises(first):
                cone_pair(traj, ts, xs)

    def test_one_lane_solve_per_pair_and_per_crossing_search(self, monkeypatch):
        calls = count_lane_solves(monkeypatch)
        partner = circle(0.4, 0.5, math.pi)
        ts = np.linspace(-3.0, 3.0, 9)
        cone_pair(partner, ts, circle(0.4, 0.5, 0.0).evaluate(ts))
        cone_pair(partner, 0.3, np.array([0.1, 2.0, -0.2]))
        assert calls == [18, 2]
        # junctions at -1, 0 and 1, trajectory 1 about 8 away: on (-10, 10)
        # both cone images cross all three
        calls.clear()
        kinked = polygonal_from_vertices([(-40.0, [0, 0, 0]), (-1.0, [0.1, 0, 0]),
                                          (0.0, [0.0, 0.1, 0]), (1.0, [0, 0, 0]),
                                          (40.0, [0, 0, 0])], P)
        mover = static_traj([0.0, 8.0, 0.0])
        crossings = cone_crossings(mover, kinked, -10.0, 10.0)
        assert sorted({branch for _, _, branch in crossings}, key=str) == sorted(Branch, key=str)
        assert calls == [6]
        assert cone_crossings(mover, kinked, -0.5, 0.5) == [] and calls == [6]

    def test_a_check_pass_makes_56_lane_solves(self, monkeypatch, tmp_path):
        # 168 lane solves when each branch was its own solve, 84 while each
        # integral's scale took a rough pass of its own, 60 while each side
        # of a break took its own solve
        calls = bench_pass_lane_solves(monkeypatch, tmp_path, "check")
        assert len(calls) == 56
        assert max(calls) == 1080

    @pytest.mark.parametrize("workload, passes", [("check", 116), ("refine", 5),
                                                  ("radiation", 44)])
    def test_knot_residual_passes_of_a_bench_pass(self, monkeypatch, tmp_path, workload,
                                                  passes):
        # 328, 20 and 80 while every lane's search ran over every knot
        counts = bench_pass_lane_solves(monkeypatch, tmp_path, workload, count_knot_passes)
        assert len(counts) == passes

    def test_a_refine_pass_makes_5_lane_solves(self, monkeypatch, tmp_path):
        # 8 while each integral's scale took a rough pass of its own
        assert len(bench_pass_lane_solves(monkeypatch, tmp_path, "refine")) == 5

    def test_a_radiation_pass_makes_14_far_cone_passes(self, monkeypatch, tmp_path):
        # 30 while `flux` took one `sphere_flux` call per time; the passes
        # solve as many lanes as before
        calls = []
        far_cone_times = lightcone.far_cone_times

        def counted(traj, t, dirs, *args):
            calls.append(len(dirs))
            return far_cone_times(traj, t, dirs, *args)

        for module in (farfield, shortrange):
            monkeypatch.setattr(module, "far_cone_times", counted)
        lanes = bench_pass_lane_solves(monkeypatch, tmp_path, "radiation")
        assert len(calls) == 14 and sum(calls) == 22067
        assert lanes == calls
