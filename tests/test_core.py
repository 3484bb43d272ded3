import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from numpy.testing import assert_allclose

from helpers_geometry import segment_from_global
from wfvar.core import (
    BoundaryData,
    ParticleParams,
    Perturbation,
    PiecewiseTrajectory,
    Segment,
    Side,
    add_perturbation,
    cross,
    hermite_trajectory,
    load_trajectory,
    polygonal_from_vertices,
    replace_window,
    save_trajectory,
    trajectory_from_dict,
    trajectory_to_dict,
    validate,
    vec3,
)
from wfvar.errors import ConfigError, ContractError, DomainError, SuperluminalError

ELECTRON = ParticleParams(mass=1.0, charge=-1.0)
PROTON = ParticleParams(mass=1836.0, charge=1.0)


def cubic_x3():
    # x(t) = (t^3, 0, 0) on [0, 0.5]
    coeffs = np.zeros((3, 4))
    coeffs[0, 3] = 1.0
    return PiecewiseTrajectory((Segment(0.0, 0.5, coeffs),), ELECTRON)


def polyroots_max_speed(seg) -> float:
    """Max speed over the eigenvalue roots of d|v|^2/du: the endpoints and
    the real parts of the numerically real roots, clipped into [0, h]."""
    h = seg.t_end - seg.t_start
    vel = npoly.polyder(seg.coeffs, axis=1)
    s2 = [0.0]
    for row in vel:
        s2 = npoly.polyadd(s2, npoly.polymul(row, row))
    ds2 = npoly.polyder(s2)
    us = [0.0, h] + [min(max(r.real, 0.0), h) for r in npoly.polyroots(ds2)
                     if abs(r.imag) <= 1e-6 * max(1.0, abs(r))]
    return max(float(np.linalg.norm(npoly.polyval(u, vel.T))) for u in us)


def dense_max_speed(seg, n=20001) -> float:
    u = np.linspace(0.0, seg.t_end - seg.t_start, n)
    vel = npoly.polyval(u, npoly.polyder(seg.coeffs, axis=1).T)
    return float(np.sqrt((vel ** 2).sum(axis=0)).max())


class TestClosedFormMaxSpeed:
    def test_random_cubics_match_the_eigenvalue_roots(self):
        rng = np.random.default_rng(31)
        for trial in range(3000):
            h = float(rng.choice([1e-3, 0.1, 1.0, 7.0]))
            coeffs = rng.normal(size=(3, 4))
            # exact, tiny and small cubic terms
            coeffs[:, 3] *= (1.0, 0.0, 1e-9, 1e-17, 1e-5)[trial % 5]
            seg = Segment(0.0, h, coeffs, check_speed=False)
            ref = polyroots_max_speed(seg)
            assert abs(seg.max_speed() - ref) <= 1e-12 * ref
            if trial < 200:
                assert seg.max_speed() >= dense_max_speed(seg) * (1.0 - 1e-15)

    def test_degenerate_segments(self):
        linear = Segment(0.0, 2.0, np.array([[0.0, 0.3], [1.0, -0.4], [0.0, 0.0]]))
        assert linear.max_speed() == 0.5
        # quadratic position in a cubic row: c3 = 0, interior minimum only
        quadratic = Segment(0.0, 2.0, np.array([[0.0, -0.3, 0.2, 0.0], [0.0, 0.1, 0.0, 0.0],
                                                [0.0, 0.0, 0.0, 0.0]]))
        # triple root: v = (0.6 (t - 0.4)^2, 0.1, 0), |v|^2 has an inflection
        triple = segment_from_global(-0.5, 1.5, [[0.0, 0.096, -0.24, 0.2], [0.0, 0.1], [0.0]])
        # double root at t = 0: with gamma and eps as below, d|v|^2/dt is
        # 2 alpha t^2 (2 alpha t + 3 beta)
        alpha, beta, delta = 0.5, 0.2, 0.3
        gamma = -(beta**2 + delta**2) / (2 * alpha)
        eps = -beta * gamma / delta
        double = segment_from_global(-0.3, 0.7, [[0.0, gamma, beta / 2, alpha / 3],
                                                 [0.0, eps, delta / 2], [0.0]])
        for seg in (linear, quadratic, triple, double):
            ref = polyroots_max_speed(seg)
            assert abs(seg.max_speed() - ref) <= 1e-12 * ref
            assert seg.max_speed() >= dense_max_speed(seg) * (1.0 - 1e-15)
        # the interior peak of a symmetric bump, at the double root's partner
        bump = Segment.hermite(0.0, 1.0, [0, 0, 0], [0, 0, 0], [0.6, 0, 0], [0, 0, 0])
        assert abs(bump.max_speed() - 0.9) < 1e-15


class TestSegment:
    def test_cubic_state(self):
        traj = cubic_x3()
        x, v, a = traj.state(0.5, Side.LEFT)
        assert_allclose(x, [0.125, 0.0, 0.0])
        assert_allclose(v, [0.75, 0.0, 0.0])
        assert_allclose(a, [3.0, 0.0, 0.0])

    def test_segment_rejects_superluminal(self):
        with pytest.raises(SuperluminalError):
            Segment(0.0, 1.0, np.array([[0.0, 1.5], [0, 0], [0, 0]]))

    def test_check_speed_off_allows_fast_polynomials(self):
        seg = Segment(0.0, 1.0, np.array([[0.0, 5.0], [0, 0], [0, 0]]),
                      check_speed=False)
        assert seg.max_speed() == 5.0

    def test_hermite_interpolates_endpoint_data(self):
        x0, v0 = vec3(0.1, -0.2, 0.0), vec3(0.3, 0.0, 0.1)
        x1, v1 = vec3(0.0, 0.4, -0.1), vec3(-0.2, 0.1, 0.0)
        seg = Segment.hermite(1.0, 3.0, x0, v0, x1, v1)
        assert_allclose(seg.position(1.0), x0, atol=1e-15)
        assert_allclose(seg.velocity(1.0), v0, atol=1e-15)
        assert_allclose(seg.position(3.0), x1, atol=1e-14)
        assert_allclose(seg.velocity(3.0), v1, atol=1e-14)

    def test_max_speed_finds_interior_peak(self):
        # v(t) = 3.6 t (1 - t) peaks at 0.9, between the sample points
        seg = Segment.hermite(0.0, 1.0, [0, 0, 0], [0, 0, 0], [0.6, 0, 0], [0, 0, 0])
        assert abs(seg.max_speed() - 0.9) < 1e-12

    def test_evaluation_is_bit_identical_to_polyval(self):
        # reference: numpy's polyval on derivative rows formed per call
        rng = np.random.default_rng(8)
        for k in range(1, 6):
            for _ in range(40):
                c = rng.normal(size=(3, k)) * rng.choice([1e-3, 1.0, 1e3])
                c[rng.integers(3), rng.integers(k)] = -0.0
                t0, h = float(rng.normal(0.0, 10.0)), float(rng.uniform(0.1, 5.0))
                seg = Segment(t0, t0 + h, c, check_speed=False)
                ts = [t0, t0 + h, t0 + h * rng.random(), t0 - 1e-12]
                for order, ev in enumerate((seg.position, seg.velocity, seg.acceleration)):
                    rows = npoly.polyder(c.T, order)
                    for t in ts:
                        want = npoly.polyval(np.asarray(t) - t0, rows)
                        assert ev(t).tobytes() == want.tobytes()
                        assert ev(t).tobytes() == np.array(seg.at(t, order)).tobytes()

    def test_rebased_is_same_polynomial(self):
        seg = Segment(0.0, 2.0, np.array([[1.0, 0.2, -0.05], [0, 0.1, 0.0],
                                          [0.5, 0.0, 0.02]]))
        sub = seg.rebased(0.5, 1.5)
        for t in np.linspace(0.5, 1.5, 7):
            assert_allclose(sub.position(t), seg.position(t), atol=1e-14)
            assert_allclose(sub.velocity(t), seg.velocity(t), atol=1e-14)


class TestPolygonal:
    def test_one_sided_velocity_at_vertex(self):
        traj = polygonal_from_vertices(
            [(0.0, [0, 0, 0]), (1.0, [0.5, 0, 0]), (2.0, [0, 0, 0])], ELECTRON
        )
        assert_allclose(traj.velocity(1.0, Side.LEFT), [0.5, 0, 0])
        assert_allclose(traj.velocity(1.0, Side.RIGHT), [-0.5, 0, 0])
        # the default at a junction is the right limit
        assert_allclose(traj.velocity(1.0), [-0.5, 0, 0])

    def test_superluminal_chord_rejected(self):
        with pytest.raises(SuperluminalError):
            polygonal_from_vertices([(0.0, [0, 0, 0]), (1.0, [1.0, 0.5, 0])], ELECTRON)

    def test_nonmonotonic_times_rejected(self):
        with pytest.raises(DomainError):
            polygonal_from_vertices(
                [(0.0, [0, 0, 0]), (1.0, [0.1, 0, 0]), (1.0, [0.2, 0, 0])], ELECTRON
            )

    def test_outside_domain_raises(self):
        traj = polygonal_from_vertices([(0.0, [0, 0, 0]), (1.0, [0.5, 0, 0])], ELECTRON)
        with pytest.raises(DomainError):
            traj.position(2.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(-0.28, 0.28), st.floats(-0.28, 0.28), st.floats(-0.28, 0.28)
            ),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_vertices_reproduced_and_subluminal(self, points):
        vertices = [(float(i), p) for i, p in enumerate(points)]
        traj = polygonal_from_vertices(vertices, ELECTRON)
        assert traj.max_speed() < 1.0
        for t, p in vertices[:-1]:
            assert_allclose(traj.position(t, Side.RIGHT), p, atol=1e-15)
        t_last, p_last = vertices[-1]
        assert_allclose(traj.position(t_last, Side.LEFT), p_last, atol=1e-13)
        report = validate(traj)
        assert report.ok


@st.composite
def segment_chains(draw):
    """A random polygonal trajectory or a random piecewise-linear perturbation."""
    n = draw(st.integers(1, 5))
    times = [draw(st.floats(-200.0, 200.0))]
    for gap in draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n)):
        times.append(times[-1] + gap)
    points = [np.zeros(3)]
    for t0, t1 in zip(times, times[1:]):
        v = draw(st.tuples(*[st.floats(-0.5, 0.5)] * 3))
        points.append(points[-1] + (t1 - t0) * np.array(v))
    if draw(st.booleans()):
        return polygonal_from_vertices(list(zip(times, points)), ELECTRON)
    return Perturbation(tuple(
        Segment.linear(t0, t1, x0, x1, check_speed=False)
        for t0, t1, x0, x1 in zip(times, times[1:], points, points[1:])))


def scanned_segment(chain, t, side):
    """segment_at's contract by a linear scan; None where it must raise."""
    segs = chain.segments
    slack = 1e-9 * max(1.0, abs(t))
    if t < segs[0].t_start - slack or t > segs[-1].t_end + slack:
        return None
    if t <= segs[0].t_start:
        return segs[0]
    if t >= segs[-1].t_end:
        return segs[-1]
    for s in segs:
        if (s.t_start <= t < s.t_end) if side is Side.RIGHT else (s.t_start < t <= s.t_end):
            return s


@given(segment_chains())
@settings(max_examples=80, deadline=None)
def test_segment_lookup_matches_a_linear_scan(chain):
    for tau in [chain.t_start, *chain.junction_times(), chain.t_end]:
        for k in (0.0, 0.5, -0.5, 2.0, -2.0):
            t = tau + k * 1e-9 * max(1.0, abs(tau))
            for side in Side:
                want = scanned_segment(chain, t, side)
                if want is None:
                    with pytest.raises(DomainError):
                        chain.segment_at(t, side)
                    with pytest.raises(DomainError):
                        chain.segment_indices([chain.t_start, t], side)
                else:
                    assert chain.segment_at(t, side) is want
                    index = chain.segment_indices([t], side)[0]
                    assert chain.segments[index] is want


def test_cross_is_bit_identical_to_numpy():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(100_000, 3)), rng.normal(size=(100_000, 3))
    a[::7] = 0.0  # signed zeros take the same path
    b[::5] *= -0.0
    for x, y in ((a, b), (a[0], b), (a, b[0]), (a[3], b[3])):
        got, want = cross(x, y), np.cross(x, y)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestValidation:
    def test_gap_rejected_by_strict_constructor(self):
        a = Segment.linear(0.0, 1.0, [0, 0, 0], [0.1, 0, 0])
        b = Segment.linear(1.0, 2.0, [0.1 + 1e-3, 0, 0], [0.2, 0, 0])
        with pytest.raises(DomainError):
            PiecewiseTrajectory((a, b), ELECTRON)

    def test_gap_reported_by_validate(self):
        a = Segment.linear(0.0, 1.0, [0, 0, 0], [0.1, 0, 0])
        b = Segment.linear(1.0, 2.0, [0.1 + 1e-3, 0, 0], [0.2, 0, 0])
        traj = PiecewiseTrajectory((a, b), ELECTRON, strict=False)
        report = validate(traj)
        assert not report.ok
        (t_junction, gap), = report.continuity_defects
        assert t_junction == 1.0
        assert abs(gap - 1e-3) < 1e-12

    def test_max_speed_matches_dense_sampling(self):
        traj = hermite_trajectory(
            [0.0, 0.7, 2.0],
            [vec3(0, 0, 0), vec3(0.2, -0.1, 0.05), vec3(-0.1, 0.3, 0.0)],
            [vec3(0.1, 0, 0), vec3(-0.3, 0.2, 0.1), vec3(0, 0, -0.2)],
            ELECTRON,
        )
        ts = np.linspace(0.0, 2.0, 200001)
        dense = 0.0
        for seg in traj.segments:
            u = ts[(ts >= seg.t_start) & (ts <= seg.t_end)] - seg.t_start
            vel = npoly.polyval(u, npoly.polyder(seg.coeffs.T))
            dense = max(dense, float(np.sqrt((vel ** 2).sum(axis=0)).max()))
        assert abs(validate(traj).max_speed - dense) < 1e-9


class TestParticleParams:
    def test_rejects_nonpositive_mass(self):
        with pytest.raises(DomainError):
            ParticleParams(mass=0.0, charge=1.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            ELECTRON.mass = 2.0


class TestBoundaryData:
    def test_windows_default_to_shared_interval(self):
        bd = BoundaryData(start_time=-1.0, end_time=4.0, k2=0.25)
        assert bd.window(1) == (-1.0, 4.0)
        assert bd.window(2) == (-1.0, 4.0)

    def test_staggered_partner_window(self):
        bd = BoundaryData(0.0, 10.0, window2=(2.0, 8.0))
        assert bd.window(2) == (2.0, 8.0)

    def test_rejects_reversed_window(self):
        with pytest.raises(DomainError):
            BoundaryData(start_time=1.0, end_time=0.0)


class TestPerturbation:
    def test_tent_shape(self):
        b = Perturbation.tent(0.0, 1.0, 2.0, [0.0, 0.3, 0.0])
        assert_allclose(b.value(0.0), [0, 0, 0], atol=1e-15)
        assert_allclose(b.value(1.0), [0, 0.3, 0], atol=1e-15)
        assert_allclose(b.value(2.0, Side.LEFT), [0, 0, 0], atol=1e-15)
        assert_allclose(b.derivative(0.5), [0, 0.3, 0])
        assert_allclose(b.derivative(1.5), [0, -0.3, 0])

    def test_admissibility_contract(self):
        b = Perturbation.tent(0.0, 1.0, 2.0, [0.1, 0, 0])
        b.check_admissible(0.0, 2.0)
        # zero-extension outside the support is fine on a wider window
        b.check_admissible(-1.0, 3.0)
        with pytest.raises(ContractError):
            b.check_admissible(0.0, 1.5)  # b(1.5) != 0 at a window endpoint
        ragged = Perturbation.from_nodes(
            [0.0, 1.0], [vec3(0, 0, 0), vec3(0.2, 0, 0)]
        )
        with pytest.raises(ContractError):
            # nonzero at its own domain edge inside the window: the
            # zero-extension would tear the trajectory
            ragged.check_admissible(-1.0, 3.0)

    def test_from_nodes_reproduces_quadratic_derivatives(self):
        times = [0.0, 0.5, 1.25, 2.0]
        quad = lambda t: vec3(t * t, -0.5 * t * t + t, 0.0)
        dquad = lambda t: vec3(2 * t, -t + 1.0, 0.0)
        b = Perturbation.from_nodes(times, [quad(t) for t in times])
        for t in times:
            assert_allclose(b.value(t), quad(t), atol=1e-14)
        for t in [0.1, 0.6, 1.9]:
            assert_allclose(b.derivative(t), dquad(t), atol=1e-13)

    def test_add_perturbation_displaces_interior_only(self):
        traj = polygonal_from_vertices(
            [(0.0, [0, 0, 0]), (2.0, [0.4, 0, 0]), (4.0, [0, 0, 0])], ELECTRON
        )
        b = Perturbation.tent(1.0, 2.5, 3.0, [0, 0, 0.2])
        eps = 0.125
        moved = add_perturbation(traj, b, eps)
        assert_allclose(moved.position(0.5), traj.position(0.5), atol=1e-15)
        assert_allclose(moved.position(3.5), traj.position(3.5), atol=1e-15)
        assert_allclose(
            moved.position(2.5), traj.position(2.5) + eps * vec3(0, 0, 0.2),
            atol=1e-14,
        )
        # breakpoints of both the base and the bump survive in the mesh
        junctions = set(np.round(moved.junction_times(), 12))
        assert {1.0, 2.0, 2.5, 3.0} <= junctions


class TestWindowSplice:
    def test_replace_window_round_trip(self):
        traj = hermite_trajectory(
            [0.0, 1.0, 2.0, 3.0],
            [vec3(0, 0, 0), vec3(0.2, 0, 0), vec3(0.1, 0.1, 0), vec3(0, 0.2, 0)],
            [vec3(0.2, 0, 0)] * 4,
            ELECTRON,
        )
        inner = PiecewiseTrajectory(
            tuple(s for s in traj.segments if 1.0 <= s.t_start and s.t_end <= 2.0),
            ELECTRON,
        )
        back = replace_window(traj, inner, (1.0, 2.0))
        for t in np.linspace(0.0, 3.0, 17):
            assert_allclose(back.position(t), traj.position(t), atol=1e-14)

    def test_replace_window_rejects_discontinuous_splice(self):
        traj = polygonal_from_vertices([(0.0, [0, 0, 0]), (4.0, [0.4, 0, 0])], ELECTRON)
        bad = polygonal_from_vertices([(1.0, [1, 0, 0]), (2.0, [1.1, 0, 0])], ELECTRON)
        with pytest.raises(DomainError):
            replace_window(traj, bad, (1.0, 2.0))


class TestJsonExchange:
    def test_round_trip_is_exact(self, tmp_path):
        traj = hermite_trajectory(
            [0.0, 1.3, 2.0],
            [vec3(0, 0, 0), vec3(0.17, -0.3, 0.02), vec3(0.4, 0, 0)],
            [vec3(0.1, 0.05, 0), vec3(0.2, 0, 0), vec3(-0.1, 0.3, 0.01)],
            PROTON,
        )
        path = tmp_path / "traj.json"
        save_trajectory(traj, path)
        loaded = load_trajectory(path)
        assert loaded.particle == traj.particle
        assert len(loaded.segments) == len(traj.segments)
        for a, b in zip(loaded.segments, traj.segments):
            assert a.t_start == b.t_start and a.t_end == b.t_end
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_malformed_record_raises_config_error(self):
        with pytest.raises(ConfigError):
            trajectory_from_dict({"particle": {"mass": 1.0}})
        good = trajectory_to_dict(
            polygonal_from_vertices([(0.0, [0, 0, 0]), (1.0, [0.1, 0, 0])], ELECTRON)
        )
        bad = json.loads(json.dumps(good))
        bad["segments"][0]["kind"] = "spline"
        with pytest.raises(ConfigError):
            trajectory_from_dict(bad)
