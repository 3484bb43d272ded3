import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from numpy.testing import assert_allclose

from helpers_geometry import (
    assert_segments_match,
    bits,
    reference_hermite_coeffs,
    reference_fd_velocities,
    reference_linear_coeffs,
    reference_rows,
    segment_from_global,
)
from wfvar import core
from wfvar.core import (
    BoundaryData,
    PackedChain,
    ParticleParams,
    Perturbation,
    PiecewiseTrajectory,
    Segment,
    Side,
    add_perturbation,
    cross,
    hermite_trajectory,
    load_trajectory,
    merge_history,
    polygonal_from_vertices,
    save_trajectory,
    subluminal,
    trajectory_from_dict,
    trajectory_to_dict,
    vec3,
)
from wfvar.errors import ConfigError, ContractError, DomainError, SuperluminalError

ELECTRON = ParticleParams(mass=1.0, charge=-1.0)
PROTON = ParticleParams(mass=1836.0, charge=1.0)


def cubic_x3():
    # x(t) = (t^3, 0, 0) on [0, 0.5]
    coeffs = np.zeros((3, 4))
    coeffs[0, 3] = 1.0
    return PiecewiseTrajectory.from_segments((Segment(0.0, 0.5, coeffs),), ELECTRON)


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


def builder_verdict(seg) -> str | None:
    """The trajectory rule's speed verdict on one segment, built from its
    knots and coefficients: its error message, or None when it passes."""
    try:
        PiecewiseTrajectory([seg.t_start, seg.t_end], seg.coeffs[None], ELECTRON)
    except SuperluminalError as exc:
        return str(exc)
    return None


def exact_verdict(seg) -> str | None:
    """The verdict of `Segment.max_speed` alone, in the same words."""
    speed = seg.max_speed()
    if speed < 1.0:
        return None
    return f"segment [{seg.t_start}, {seg.t_end}] reaches speed {speed:.6g} >= 1"


class TestClosedFormMaxSpeed:
    def test_random_cubics_match_the_eigenvalue_roots(self):
        rng = np.random.default_rng(31)
        for trial in range(3000):
            h = float(rng.choice([1e-3, 0.1, 1.0, 7.0]))
            coeffs = rng.normal(size=(3, 4))
            # exact, tiny and small cubic terms
            coeffs[:, 3] *= (1.0, 0.0, 1e-9, 1e-17, 1e-5)[trial % 5]
            seg = Segment(0.0, h, coeffs)
            ref = polyroots_max_speed(seg)
            assert abs(seg.max_speed() - ref) <= 1e-12 * ref
            if trial < 200:
                assert seg.max_speed() >= dense_max_speed(seg) * (1.0 - 1e-15)
            # the builder's verdict, here and rescaled to a peak speed near 1
            assert builder_verdict(seg) == exact_verdict(seg)
            factor = (0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-12, 1.5)[trial // 5 % 5]
            rescaled = coeffs.copy()
            rescaled[:, 1:] *= factor / seg.max_speed()
            rescaled = Segment(0.0, h, rescaled)
            assert builder_verdict(rescaled) == exact_verdict(rescaled)

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
            # the builder's verdicts at peak speeds around 1
            for factor in (0.999999, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.000001):
                c = seg.coeffs.copy()
                c[:, 1:] *= factor / seg.max_speed()
                scaled = Segment(seg.t_start, seg.t_end, c)
                assert builder_verdict(scaled) == exact_verdict(scaled)
        # the interior peak of a symmetric bump, at the double root's partner
        bump = Segment.hermite(0.0, 1.0, [0, 0, 0], [0, 0, 0], [0.6, 0, 0], [0, 0, 0])
        assert abs(bump.max_speed() - 0.9) < 1e-15

    def test_hermite_bump_with_resting_ends(self):
        # v(s) = 6 x s (1 - s): 0 at both nodes and 1.5 x in the middle
        rest = np.zeros((2, 3))
        for x in (0.6, 0.66, 0.67, 0.7):
            nodes = [[0.0, 0.0, 0.0], [x, 0.0, 0.0]]
            seg = Segment.hermite(0.0, 1.0, nodes[0], rest[0], nodes[1], rest[1])
            want = exact_verdict(seg)
            assert (want is None) == (x < 2.0 / 3.0)
            try:
                got = None
                hermite_trajectory([0.0, 1.0], nodes, rest, ELECTRON)
            except SuperluminalError as exc:
                got = str(exc)
            assert got == want


def circle_nodes(n=200, omega=0.5, rho=0.4, t0=-10.0):
    times = t0 + 0.1 * np.arange(n + 1)
    ang = omega * times
    xs = rho * np.stack([np.cos(ang), np.sin(ang), 0.0 * ang], axis=1)
    vs = rho * omega * np.stack([-np.sin(ang), np.cos(ang), 0.0 * ang], axis=1)
    return times.tolist(), xs.tolist(), vs.tolist()


def random_nodes(rng, n):
    """Non-uniform times and subluminal node data with negative coordinates."""
    times = np.cumsum(np.concatenate([[rng.uniform(-50.0, 50.0)],
                                      10.0 ** rng.uniform(-3.0, 1.0, n)]))
    xs = np.cumsum(rng.uniform(-0.2, 0.2, (n + 1, 3)) * np.r_[1.0, np.diff(times)][:, None],
                   axis=0) - rng.uniform(0.0, 5.0, 3)
    vs = rng.uniform(-0.2, 0.2, (n + 1, 3))
    return times, xs, vs


class TestArrayBuilder:
    """Every bulk constructor gives the segments that one `Segment` per cell
    gives, bit for bit."""

    def test_hermite_trajectory_matches_per_segment_cells(self):
        rng = np.random.default_rng(17)
        pow_lanes = 0
        for _ in range(60):
            times, xs, vs = random_nodes(rng, int(rng.integers(1, 12)))
            h = np.diff(times)
            pow_lanes += int(np.sum(h**3 != np.array([u**3 for u in h.tolist()])))
            traj = hermite_trajectory(times, xs, vs, ELECTRON)
            want = [reference_hermite_coeffs(times[i], times[i + 1], xs[i], vs[i], xs[i + 1],
                                             vs[i + 1]) for i in range(h.size)]
            assert_segments_match(traj, times.tolist(), want)
        assert pow_lanes > 0  # numpy's array power differs on these steps

    def test_circle_matches_per_segment_cells(self):
        times, xs, vs = circle_nodes()
        traj = hermite_trajectory(times, xs, vs, ELECTRON)
        want = [reference_hermite_coeffs(times[i], times[i + 1], xs[i], vs[i], xs[i + 1],
                                         vs[i + 1]) for i in range(200)]
        assert_segments_match(traj, times, want)

    def test_polygonal_matches_per_segment_pieces(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            times, xs, _ = random_nodes(rng, int(rng.integers(1, 8)))
            xs[:, 2] = -0.0  # a -0.0 position row: its derivative rows are -0.0 too
            traj = polygonal_from_vertices(list(zip(times, xs)), ELECTRON)
            want = [reference_linear_coeffs(times[i], times[i + 1], xs[i], xs[i + 1])
                    for i in range(len(times) - 1)]
            assert_segments_match(traj, times.tolist(), want)
            assert np.signbit(traj.packed.rows[2][..., 0]).any()

    def test_from_nodes_matches_per_segment_cells(self):
        rng = np.random.default_rng(9)
        for trial in range(40):
            times, xs, vs = random_nodes(rng, int(rng.integers(1, 9)))
            left = vs + rng.uniform(-0.1, 0.1, vs.shape)
            if trial % 3 == 0:
                b = Perturbation.from_nodes(times, xs)
                vs = left = reference_fd_velocities(times.tolist(), list(xs))
                assert bits(core.fd_node_velocities(times, xs)) == bits(vs)
            elif trial % 3 == 1:
                b = Perturbation.from_nodes(times, xs, vs)
                left = vs
            else:  # a bundle of one field, with left velocities, as a chain
                packed = PackedChain.hermite(times, xs[:, None], vs[:, None], left[:, None])
                b = Perturbation(packed.knots, packed.rows[0][:, 0])
            want = [reference_hermite_coeffs(times[i], times[i + 1], xs[i], vs[i], xs[i + 1],
                                             left[i + 1]) for i in range(len(times) - 1)]
            assert_segments_match(b, times.tolist(), want)

    def test_node_rows_must_match_the_times(self):
        times = [0.0, 1.0, 2.0]
        with pytest.raises(DomainError, match="positions"):
            hermite_trajectory(times, np.zeros((5, 3)), np.zeros((4, 3)), ELECTRON)
        with pytest.raises(DomainError, match="velocities"):
            hermite_trajectory(times, np.zeros((3, 3)), np.zeros((4, 3)), ELECTRON)
        with pytest.raises(DomainError, match="positions"):
            hermite_trajectory(times, np.zeros((3, 2)), np.zeros((3, 3)), ELECTRON)
        with pytest.raises(DomainError, match="left velocities"):
            hermite_trajectory(times, np.zeros((3, 3)), np.zeros((3, 3)), ELECTRON,
                               left_velocities=np.zeros((2, 3)))
        with pytest.raises(DomainError, match="positions"):
            Perturbation.from_nodes(times, np.zeros((2, 3)), np.zeros((3, 3)))

    def test_times_and_coefficients_are_checked_once_per_chain(self):
        with pytest.raises(DomainError, match=r"t_start < t_end, got \[1.0, 1.0\]"):
            hermite_trajectory([0.0, 1.0, 1.0], np.zeros((3, 3)), np.zeros((3, 3)), ELECTRON)
        with pytest.raises(DomainError, match="finite"):
            hermite_trajectory([0.0, np.inf], np.zeros((2, 3)), np.zeros((2, 3)), ELECTRON)
        with pytest.raises(DomainError, match="finite"):
            hermite_trajectory([0.0, 1.0], [[0.0, 0.0, np.nan], [0.0, 0.0, 0.0]],
                               np.zeros((2, 3)), ELECTRON)
        with pytest.raises(DomainError, match="at least one segment"):
            hermite_trajectory([0.0], np.zeros((1, 3)), np.zeros((1, 3)), ELECTRON)

    def test_strict_gap_rule_reads_the_packed_knots(self):
        times, xs, vs = circle_nodes(20)
        coeffs = core._hermite_cells(times, xs, vs)[1].copy()
        coeffs[7, 1, 0] += 1e-6  # tear the chain at its 8th knot
        with pytest.raises(DomainError, match=f"position gap 1e-06 at junction t={times[7]}"):
            PiecewiseTrajectory(times, coeffs, ELECTRON)
        torn = core.SegmentChain(times, coeffs)  # no gap rule
        gaps = torn.packed.junction_gaps()
        torn_at = np.flatnonzero(gaps > 1e-9)
        assert torn.knots[torn_at + 1].tolist() == [times[7], times[8]]
        assert (abs(gaps[torn_at] - 1e-6) < 1e-15).all()


class CallCounts:
    """Counts the calls of class attributes that the builder must not make."""

    NAMES = ((Segment, "__post_init__"), (Segment, "max_speed"), (Segment, "hermite"),
             (Segment, "linear"))

    def __init__(self, monkeypatch):
        self.counts = {}
        for owner, name in self.NAMES:
            key = f"{owner.__name__}.{name}"
            self.counts[key] = 0
            original = owner.__dict__[name]
            func = original.__func__ if isinstance(original, classmethod) else original

            def counted(*args, _func=func, _key=key, **kwargs):
                self.counts[_key] += 1
                return _func(*args, **kwargs)

            wrapped = classmethod(counted) if isinstance(original, classmethod) else counted
            monkeypatch.setattr(owner, name, wrapped)

    def assert_none(self):
        assert self.counts == dict.fromkeys(self.counts, 0)


class TestBulkConstructionCounts:
    def test_circle_build_and_first_evaluate(self, monkeypatch):
        times, xs, vs = circle_nodes()
        calls = CallCounts(monkeypatch)
        traj = hermite_trajectory(times, xs, vs, ELECTRON)
        traj.evaluate(np.linspace(-10.0, 10.0, 7))
        traj.evaluate(np.linspace(-10.0, 10.0, 7), 1, Side.LEFT)
        assert traj.coeffs.shape == (200, 3, 4) and "segments" not in traj.__dict__
        calls.assert_none()
        assert len(traj.segments) == 200  # made on this first read
        assert calls.counts["Segment.__post_init__"] == 200

    def test_every_bulk_constructor(self, monkeypatch):
        from wfvar.optimizer import _basis_fields, decode, discretize

        traj = hermite_trajectory(*circle_nodes(), ELECTRON)
        partner = polygonal_from_vertices([(-10.0, [2.0, 0.0, 0.0]), (0.0, [2.1, 0.0, 0.0]),
                                           (10.0, [2.0, 0.1, 0.0])], PROTON)
        dv = discretize(BoundaryData(-1.0, 1.0), (traj, partner), 4, break_times=([0.0], []))
        calls = CallCounts(monkeypatch)
        polygonal_from_vertices([(0.0, [0, 0, 0]), (1.0, [0.5, 0, 0]), (2.0, [0, 0, 0])],
                                ELECTRON)
        Perturbation.from_nodes([0.0, 0.5, 1.25, 2.0], np.ones((4, 3)))
        decoded = decode(dv)

        def no_chain(*args, **kwargs):
            raise AssertionError("the basis bundle builds no chain")

        monkeypatch.setattr(core.SegmentChain, "__post_init__", no_chain)
        fields = _basis_fields(dv.layouts[0], dv.layouts[0].times)
        assert len(decoded) == 2 and isinstance(fields, PackedChain)
        assert fields.rows[0].shape[:2] == (len(dv.layouts[0].times) - 1,
                                            dv.block_slice(1).stop)
        calls.assert_none()


def check_circle():
    """The 200-cell Hermite circle of the benchmark's `check` circle pair."""
    times = np.arange(-50.0, 50.25, 0.5)
    ang = 0.5 * times
    xs = 0.4 * np.stack([np.cos(ang), np.sin(ang), 0.0 * ang], axis=1)
    vs = 0.2 * np.stack([-np.sin(ang), np.cos(ang), 0.0 * ang], axis=1)
    return hermite_trajectory(times, xs, vs, ELECTRON)


def filled(chain) -> list:
    """Indices of the segments whose float rows have been made."""
    return [i for i, seg in enumerate(chain.segments) if "_rows" in seg.__dict__]


class TestRowsOnFirstScalarRead:
    """A segment keeps its coefficients only; its float rows are made the
    first time the scalar path reads it."""

    def test_building_a_chain_forms_no_float_rows(self):
        traj = check_circle()
        pert = Perturbation.from_nodes([0.0, 0.5, 1.25, 2.0], -np.ones((4, 3)))
        seg = Segment(0.0, 1.0, [[1.0, 0.5], [-2.0, 0.0], [0.0, 0.1]])
        chain = PiecewiseTrajectory.from_segments(
            (seg, Segment(1.0, 2.0, [[1.5], [-2.0], [0.1]])), PROTON)
        assert len(traj.segments) == 200
        for built in (traj, pert, chain):
            built.evaluate([0.25, 1.0], 1)
            assert filled(built) == []
        assert seg._rows == reference_rows(seg.coeffs)
        assert filled(chain) == []  # the chain's views are not the given segments
        assert chain.segments[0]._rows == reference_rows(seg.coeffs)
        assert filled(chain) == [0]

    def test_one_cone_time_fills_only_the_cells_it_reads(self):
        from wfvar.lightcone import Branch, cone_time

        traj = check_circle()
        n = len(traj.segments)
        sol = cone_time(traj, (0.3, [3.0, 0.5, 0.0]), Branch.RETARDED)
        cells = filled(traj)
        assert traj.segment_indices(sol.t_k) in cells
        assert 0 < len(cells) <= math.log2(n) + 3

    def test_packed_rows_of_mixed_degrees_are_the_array_builders(self):
        # padded, a degree-0 cell with c < 0 gets the velocity row +0.0,
        # where its own derivative row, c * 0, is -0.0
        coeffs = [[[-2.0], [0.5], [-0.0]],
                  [[-2.0, 0.1], [0.5, -0.3], [0.0, -0.0]],
                  [[-1.9, 0.2, -0.01, 0.003], [0.2, 0.0, 0.02, -0.004], [0.0, 0.1, -0.0, 0.0]]]
        knots = [-1.0, 0.0, 1.0, 2.5]
        segs = tuple(Segment(a, b, c) for a, b, c in zip(knots, knots[1:], coeffs))
        padded = np.zeros((3, 3, 4))
        for i, c in enumerate(coeffs):
            padded[i, :, : len(c[0])] = c
        built = core.SegmentChain(knots, padded)
        chain = core.SegmentChain.from_segments(segs)
        packed, of = built.packed, chain.packed
        assert np.array_equal(of.knots, packed.knots)
        for m in range(3):
            assert of.rows[m].shape == packed.rows[m].shape
            assert np.array_equal(of.rows[m], packed.rows[m])
        assert np.signbit(segs[0]._rows[1][0][0]) and not np.signbit(of.rows[1][0, 0, 0])
        ts = np.array(knots + [-0.5, 0.25, 1.75])
        for side in Side:
            for order in range(3):
                want = built.evaluate(ts, order, side)
                assert np.array_equal(chain.evaluate(ts, order, side), want)


def built_chains() -> dict:
    """A chain from each builder, by the builder's name."""
    from wfvar.optimizer import decode, discretize

    traj = hermite_trajectory(*circle_nodes(), ELECTRON)
    partner = polygonal_from_vertices([(-10.0, [2.0, 0.0, 0.0]), (0.0, [2.1, 0.0, 0.0]),
                                       (10.0, [2.0, 0.1, 0.0])], PROTON)
    window = polygonal_from_vertices(
        list(zip([-1.0, 0.5, 1.0], partner.evaluate([-1.0, 0.5, 1.0]))), PROTON)
    tent = Perturbation.tent(-1.0, 0.5, 1.0, [0.01, 0.0, 0.0])
    dv = discretize(BoundaryData(-1.0, 1.0), (traj, partner), 4)
    return {
        "hermite_trajectory": traj,
        "polygonal_from_vertices": partner,
        "merge_history": merge_history(window, partner),
        "add_perturbation": add_perturbation(partner, tent, 0.5),
        "Perturbation.tent": tent,
        "Perturbation.from_nodes": Perturbation.from_nodes([0.0, 0.5, 1.25], np.ones((3, 3))),
        "decode": decode(dv)[0],
    }


class TestSegmentViews:
    """A chain stores its knots and coefficients; its `Segment` views are made
    on their first read."""

    def test_no_builder_makes_the_views(self):
        for name, chain in built_chains().items():
            assert "segments" not in chain.__dict__, name
            assert not chain.knots.flags.writeable and not chain.coeffs.flags.writeable, name
            assert chain.coeffs.flags.c_contiguous, name  # the layout the cell gathers read

    def test_a_second_read_returns_the_same_tuple(self):
        traj = mixed_chain()
        segs = traj.segments
        assert traj.segments is segs and len(segs) == 3
        for seg, t0, t1, c in zip(segs, traj.knots, traj.knots[1:], traj.coeffs):
            assert (seg.t_start, seg.t_end) == (t0, t1) and bits(seg.coeffs) == bits(c)

    def test_segment_at_returns_a_view_of_the_chain(self):
        traj = mixed_chain()  # junctions at 0.7 and 2.0
        for t, side, i in ((0.0, Side.RIGHT, 0), (0.7, Side.LEFT, 0), (0.7, Side.RIGHT, 1),
                           (2.0, Side.RIGHT, 2), (2.5, Side.LEFT, 2)):
            assert traj.segment_at(t, side) is traj.segments[i]

    def test_the_exact_speed_check_makes_one_segment_per_flagged_cell(self, monkeypatch):
        made = []
        post_init = Segment.__post_init__

        def counted(seg):
            made.append((seg.t_start, seg.t_end))
            post_init(seg)

        monkeypatch.setattr(Segment, "__post_init__", counted)
        # the middle cell, a resting bump of peak speed 0.9, has the bound 7.2
        traj = hermite_trajectory([0.0, 1.0, 2.0, 3.0],
                                  [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.7, 0.0, 0.0],
                                   [0.8, 0.0, 0.0]],
                                  [[0.1, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                   [0.1, 0.0, 0.0]], ELECTRON,
                                  left_velocities=[[0.1, 0.0, 0.0], [0.1, 0.0, 0.0],
                                                   [0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
        assert made == [(1.0, 2.0)]
        assert "segments" not in traj.__dict__


class TestFromSegments:
    def test_segments_must_abut(self):
        a = Segment.linear(0.0, 1.0, [0, 0, 0], [0.1, 0, 0])
        b = Segment.linear(1.5, 2.0, [0.1, 0, 0], [0.2, 0, 0])
        with pytest.raises(DomainError, match="segments must abut exactly: 1.0 != 1.5"):
            PiecewiseTrajectory.from_segments((a, b), ELECTRON)
        with pytest.raises(DomainError, match="PiecewiseTrajectory needs at least one segment"):
            PiecewiseTrajectory.from_segments((), ELECTRON)
        with pytest.raises(DomainError, match="Perturbation needs at least one segment"):
            Perturbation.from_segments([])

    def test_mixed_degrees_evaluate_as_the_given_segments(self):
        segs = (Segment(-1.0, 0.0, [[-2.0], [0.5], [-0.0]]),
                Segment(0.0, 1.0, [[-2.0, 0.1], [0.5, -0.3], [0.0, -0.0]]),
                Segment(1.0, 2.5, [[-1.9, 0.2, -0.01, 0.003], [0.2, -0.3, 0.02, -0.004],
                                   [0.0, 0.1, -0.0, 0.0]]))
        chain = core.SegmentChain.from_segments(segs)
        assert chain.coeffs.shape == (3, 3, 4)
        for seg in segs:
            ts = [seg.t_start, 0.3 * seg.t_start + 0.7 * seg.t_end, seg.t_end]
            side = [Side.RIGHT, Side.RIGHT, Side.LEFT]
            for order in range(3):
                for t, sd in zip(ts, side):
                    assert bits(chain.evaluate(t, order, sd)) == bits(seg.at(t, order))


class TestIdentity:
    def test_chains_and_segments_compare_and_hash_by_identity(self):
        vertices = [(0.0, [0, 0, 0]), (1.0, [0.5, 0, 0]), (2.0, [0, 0, 0])]
        a = polygonal_from_vertices(vertices, ELECTRON)
        b = polygonal_from_vertices(vertices, ELECTRON)
        tent = Perturbation.tent(0.0, 1.0, 2.0, [0.1, 0, 0])
        pairs = [(a, b), (a.segments[0], b.segments[0]), (a.packed, b.packed),
                 (core.SegmentChain(a.knots, a.coeffs), core.SegmentChain(a.knots, a.coeffs)),
                 (tent, Perturbation.tent(0.0, 1.0, 2.0, [0.1, 0, 0])),
                 (Segment(0.0, 1.0, np.ones((3, 2))), Segment(0.0, 1.0, np.ones((3, 2))))]
        for x, y in pairs:
            assert x == x and x != y and not x == y
            assert len({x, y, x}) == 2 and hash(x) == hash(x)


@pytest.mark.parametrize("times, rows", [([0.0], 1), ([0.0, 1.0, 2.0], 2), ([0.0, 1.0], 3)],
                         ids=["one-node", "fewer-rows", "more-rows"])
def test_node_velocities_need_two_times_and_one_row_per_time(times, rows):
    values = np.ones((rows, 3))
    for call in (lambda: core.fd_node_velocities(times, values),
                 lambda: Perturbation.from_nodes(times, values)):
        with pytest.raises(DomainError, match=rf"one \(3,\) row per time, at least two: "
                                              rf"got shape \({rows}, 3\) for {len(times)} times"):
            call()


class TestRepeatedKnots:
    """A builder given two equal times raises the cell rule's DomainError and
    lets no numpy warning out first."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", [
        lambda: hermite_trajectory([0.0, 0.0, 1.0], np.zeros((3, 3)), np.zeros((3, 3)),
                                   ELECTRON),
        lambda: polygonal_from_vertices([(0.0, [0, 0, 0]), (0.0, [0.1, 0, 0]),
                                         (1.0, [0.2, 0, 0])], ELECTRON),
        lambda: Segment.linear(0.0, 0.0, [0, 0, 0], [0.1, 0, 0]),
        lambda: Segment.hermite(0.0, 0.0, [0, 0, 0], [0, 0, 0], [0.1, 0, 0], [0, 0, 0]),
        lambda: Perturbation.tent(0.0, 0.0, 1.0, [0.1, 0, 0]),
        lambda: Perturbation.from_nodes([0.0, 0.0, 1.0], np.ones((3, 3))),
        lambda: Perturbation.from_nodes([0.0, 0.0, 1.0], np.ones((3, 3)), np.ones((3, 3))),
    ], ids=["hermite-trajectory", "polygonal", "segment-linear", "segment-hermite", "tent",
            "from-nodes", "from-nodes-velocities"])
    def test_builder_raises_without_a_warning(self, build):
        with pytest.raises(DomainError, match=r"t_start < t_end, got \[0.0, 0.0\]"):
            build()


class TestSegment:
    def test_cubic_state(self):
        traj = cubic_x3()
        x, v, a = traj.state(0.5, Side.LEFT)
        assert_allclose(x, [0.125, 0.0, 0.0])
        assert_allclose(v, [0.75, 0.0, 0.0])
        assert_allclose(a, [3.0, 0.0, 0.0])

    def test_segment_rejects_superluminal(self):
        # the trajectory judges its segments' speed, a segment alone does not
        seg = Segment(0.0, 1.0, np.array([[0.0, 1.5], [0, 0], [0, 0]]))
        with pytest.raises(SuperluminalError, match=r"segment \[0.0, 1.0\] reaches speed 1.5 >= 1"):
            PiecewiseTrajectory.from_segments((seg,), ELECTRON)

    def test_fast_polynomials_are_plain_cells(self):
        seg = Segment(0.0, 1.0, np.array([[0.0, 5.0], [0, 0], [0, 0]]))
        assert seg.max_speed() == 5.0
        assert core.SegmentChain.from_segments((seg,)).max_speed() == 5.0

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
                seg = Segment(t0, t0 + h, c)
                ts = [t0, t0 + h, t0 + h * rng.random(), t0 - 1e-12]
                for order, ev in enumerate((seg.position, seg.velocity, seg.acceleration)):
                    rows = npoly.polyder(c.T, order)
                    for t in ts:
                        want = npoly.polyval(np.asarray(t) - t0, rows)
                        assert ev(t).tobytes() == want.tobytes()
                        assert ev(t).tobytes() == np.array(seg.at(t, order)).tobytes()

    @pytest.mark.parametrize("order", [-1, -2, 3, True, False, 1.0, 1.5, "1", None])
    @pytest.mark.parametrize("evaluator", ["evaluate", "packed", "segment"])
    def test_derivative_order_must_be_0_1_or_2(self, evaluator, order):
        # a negative order once indexed the rows from the end, and True read as 1
        traj = cubic_x3()
        call = {"evaluate": lambda: traj.evaluate(0.25, order),
                "packed": lambda: traj.packed.at(0, 0.25, order),
                "segment": lambda: traj.segments[0].at(0.25, order)}[evaluator]
        with pytest.raises(DomainError, match="derivative order"):
            call()

    def test_numpy_integer_orders_keep_their_bits(self):
        traj = cubic_x3()
        for order in range(3):
            want = traj.evaluate(0.25, order).tobytes()
            assert traj.evaluate(0.25, np.int64(order)).tobytes() == want
            assert np.array(traj.segments[0].at(0.25, np.int64(order))).tobytes() == want


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
        with pytest.raises(SuperluminalError, match=r"segment \[0.0, 1.0\] reaches speed 1.11803"):
            polygonal_from_vertices([(0.0, [0, 0, 0]), (1.0, [1.0, 0.5, 0])], ELECTRON)

    def test_nonmonotonic_times_rejected(self):
        with pytest.raises(DomainError):
            polygonal_from_vertices(
                [(0.0, [0, 0, 0]), (1.0, [0.1, 0, 0]), (1.0, [0.2, 0, 0])], ELECTRON
            )
        # every time-order defect comes before any speed defect
        with pytest.raises(DomainError, match=r"t_start < t_end, got \[1.0, 1.0\]"):
            polygonal_from_vertices(
                [(0.0, [0, 0, 0]), (1.0, [2.0, 0, 0]), (1.0, [2.1, 0, 0])], ELECTRON
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
    return Perturbation.from_segments(tuple(
        Segment.linear(t0, t1, x0, x1)
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
            PiecewiseTrajectory.from_segments((a, b), ELECTRON)

    def test_gap_reported_by_the_junction_gaps(self):
        a = Segment.linear(0.0, 1.0, [0, 0, 0], [0.1, 0, 0])
        b = Segment.linear(1.0, 2.0, [0.1 + 1e-3, 0, 0], [0.2, 0, 0])
        traj = core.SegmentChain.from_segments((a, b))  # a chain without the gap rule
        (gap,) = traj.packed.junction_gaps()
        assert traj.junction_times() == [1.0]
        assert abs(gap - 1e-3) < 1e-12

    def test_the_constructor_gap_rule_scales_with_the_position(self):
        # 1e-4 is within 1e-9 max(1, max |x|) = 1e-3 of a chain near x = 1e6
        a = Segment.linear(0.0, 1.0, [1e6, 0, 0], [1e6 + 0.1, 0, 0])
        b = Segment.linear(1.0, 2.0, [1e6 + 0.1 + 1e-4, 0, 0], [1e6 + 0.2, 0, 0])
        traj = PiecewiseTrajectory.from_segments((a, b), ELECTRON)
        (gap,) = traj.packed.junction_gaps()
        assert 9e-5 < gap <= traj.packed.gap_tol()

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
        assert abs(traj.max_speed() - dense) < 1e-9

    @pytest.mark.parametrize("kind", ["hermite", "polygonal", "fast cells"])
    def test_max_speed_screen_keeps_the_all_cells_result(self, kind, monkeypatch):
        # only the cells whose bound reaches the largest knot speed take the
        # exact solve, and the maximum is the all-cells one bit for bit
        rng = np.random.default_rng(["hermite", "polygonal", "fast cells"].index(kind))
        post_init, made, cells = Segment.__post_init__, [], 0

        def counted(seg):
            made.append(seg)
            post_init(seg)

        for _ in range(20):
            n = int(rng.integers(2, 60))
            times = np.cumsum(rng.uniform(0.05, 2.0, n))
            dirs = rng.normal(size=(n, 3))
            vel = dirs * rng.uniform(0.0, 0.45, (n, 1)) / np.linalg.norm(dirs, axis=1)[:, None]
            steps = np.r_[np.zeros((1, 3)), 0.5 * (vel[1:] + vel[:-1]) * np.diff(times)[:, None]]
            if kind == "hermite":
                chain = hermite_trajectory(times, np.cumsum(steps, axis=0), vel, ELECTRON)
            elif kind == "polygonal":
                chain = polygonal_from_vertices(list(zip(times, np.cumsum(steps, axis=0))),
                                                ELECTRON)
            else:  # a bare chain of quartic cells, far from subluminal
                chain = core.SegmentChain(times, rng.normal(size=(n - 1, 3, 5)))
            want = max(seg.max_speed() for seg in chain.segments)
            monkeypatch.setattr(Segment, "__post_init__", counted)
            assert chain.max_speed() == want
            monkeypatch.undo()
            cells += n - 1
        assert len(made) < cells
        if kind == "polygonal":  # a line's bound is its speed: one cell per chain
            assert len(made) == 20


def mixed_chain():
    """A cubic cell, a line and a resting cell, with junctions at 0.7 and 2."""
    return hermite_trajectory(
        [0.0, 0.7, 2.0, 2.5],
        [vec3(0, 0, 0), vec3(0.2, -0.1, 0.05), vec3(-0.1, 0.3, 0.0), vec3(-0.1, 0.3, 0.0)],
        [vec3(0.1, 0, 0), vec3(-0.3, 0.2, 0.1), vec3(0, 0, 0), vec3(0, 0, 0)],
        ELECTRON,
    )


class TestCellBounds:
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_horner_sum_of_row_norms(self, order):
        traj = mixed_chain()
        bounds = traj.packed.bounds(slice(None), order)
        for i, seg in enumerate(traj.segments):
            rows = npoly.polyder(seg.coeffs.T, order) if order else seg.coeffs.T
            h = seg.t_end - seg.t_start
            norms = np.sqrt((rows * rows).sum(axis=1))
            assert bounds[i] == pytest.approx(float(norms @ h ** np.arange(norms.size)),
                                              rel=1e-15)
            # a bound on the row's values over the cell
            u = np.linspace(0.0, h, 101)
            values = np.array([seg.at(t, order) for t in (seg.t_start + u).tolist()])
            assert np.sqrt((values * values).sum(axis=1)).max() <= bounds[i] * (1 + 1e-15)

    def test_one_cell_an_index_array_and_a_slice_agree(self):
        packed = mixed_chain().packed
        every = packed.bounds(slice(None))
        assert bits([packed.bounds(k) for k in range(3)]) == bits(every)
        assert bits(packed.bounds(np.array([2, 0]))) == bits(every[[2, 0]])


class TestNearestJunctions:
    def test_before_within_width_else_at_or_after(self):
        traj = mixed_chain()  # junctions at 0.7 and 2.0
        ts = np.array([0.0, 0.68, 0.7, 0.705, 1.0, 1.995, 2.0, 2.005, 2.5])
        j, near = traj.nearest_junctions(ts, 0.01)
        assert j.tolist() == [0.7, 0.7, 0.7, 0.7, 2.0, 2.0, 2.0, 2.0, 2.0]
        assert near.tolist() == [False, False, True, True, False, True, True, True, False]

    def test_a_width_per_time(self):
        traj = mixed_chain()
        j, near = traj.nearest_junctions([0.75, 0.75, 1.95], [0.01, 0.1, 0.1])
        assert j.tolist() == [2.0, 0.7, 2.0]
        assert near.tolist() == [False, True, True]

    def test_no_junctions_is_never_near(self):
        line = polygonal_from_vertices([(0.0, [0, 0, 0]), (1.0, [0.1, 0, 0])], ELECTRON)
        j, near = line.nearest_junctions([0.0, 0.5, 1.0], 10.0)
        assert j.tolist() == [0.0, 0.5, 1.0]
        assert not near.any()


class TestParticleParams:
    def test_rejects_nonpositive_mass(self):
        with pytest.raises(DomainError):
            ParticleParams(mass=0.0, charge=1.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            ELECTRON.mass = 2.0


class TestSubluminal:
    def test_vectors_and_rows_come_back_as_float_arrays(self):
        assert subluminal([0.5, 0, 0]).tolist() == [0.5, 0.0, 0.0]
        for one in ([[0.5, 0.0, 0.25]], [[0.5], [0.0], [0.25]]):  # read as vec3 reads it
            assert subluminal(one).tolist() == [0.5, 0.0, 0.25]
        rows = np.array([[0.1, 0.2, 0.3], [0.0, 0.0, -0.99]])
        assert subluminal(rows) is rows
        assert subluminal(np.zeros((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("v", [[1.0, 0, 0], [0, -0.8, 0.8], [[0, 0, 0.5], [2.0, 0, 0]]],
                             ids=["speed-1", "vector", "rows"])
    def test_a_speed_of_one_or_more_is_superluminal(self, v):
        with pytest.raises(SuperluminalError):
            subluminal(v)

    @pytest.mark.parametrize("v", [[0.1, 0.2], [[0.1, 0, 0, 0]], np.zeros((2, 3, 3)),
                                   [np.nan, 0, 0], [[0, 0, 0], [0, np.inf, 0]]],
                             ids=["two", "four-column", "three-axes", "nan", "inf-row"])
    def test_a_bad_shape_or_entry_is_a_domain_error(self, v):
        with pytest.raises(DomainError):
            subluminal(v)


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

    @pytest.mark.parametrize("window2", [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0),
                                         (0.0, math.inf), (1.0, 0.0)],
                             ids=["start-nan", "end-nan", "start-inf", "end-inf", "reversed"])
    def test_rejects_non_finite_or_reversed_partner_window(self, window2):
        with pytest.raises(DomainError):
            BoundaryData(0.0, 1.0, window2=window2)


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
    def test_merge_history_round_trip(self):
        traj = hermite_trajectory(
            [0.0, 1.0, 2.0, 3.0],
            [vec3(0, 0, 0), vec3(0.2, 0, 0), vec3(0.1, 0.1, 0), vec3(0, 0.2, 0)],
            [vec3(0.2, 0, 0)] * 4,
            ELECTRON,
        )
        inner = PiecewiseTrajectory.from_segments(
            tuple(s for s in traj.segments if 1.0 <= s.t_start and s.t_end <= 2.0),
            ELECTRON,
        )
        back = merge_history(inner, traj)
        for t in np.linspace(0.0, 3.0, 17):
            assert_allclose(back.position(t), traj.position(t), atol=1e-14)

    def test_merge_history_rejects_discontinuous_splice(self):
        traj = polygonal_from_vertices([(0.0, [0, 0, 0]), (4.0, [0.4, 0, 0])], ELECTRON)
        bad = polygonal_from_vertices([(1.0, [1, 0, 0]), (2.0, [1.1, 0, 0])], ELECTRON)
        with pytest.raises(DomainError):
            merge_history(bad, traj)


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

    def test_truncated_files_raise_config_error(self, tmp_path):
        from wfvar.shortrange import SeparationFamilyParams, load_family, save_family

        traj = polygonal_from_vertices([(0.0, [0, 0, 0]), (1.0, [0.1, 0, 0])], ELECTRON)
        family = SeparationFamilyParams.from_harmonic_tables(
            (-1.0, 1.0), np.ones((1, 3, 25)), np.zeros((1, 3, 25)))
        for record, save, load in ((traj, save_trajectory, load_trajectory),
                                   (family, save_family, load_family)):
            path = tmp_path / "record.json"
            save(record, path)
            text = path.read_text()
            # cut in half, bytes that are not UTF-8, an integer past Python's
            # 4,300-digit limit
            for bad in (text[: len(text) // 2].encode(), b"\xff\xfe{}",
                        ("[" + "1" * 5000 + "]").encode()):
                path.write_bytes(bad)
                with pytest.raises(ConfigError, match="not valid JSON"):
                    load(path)

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

    @pytest.mark.parametrize("where, value", [
        ("coeff", True), ("coeff", "0.1"), ("coeff", math.nan), ("coeff", 10**400),
        ("t1", False), ("t1", "1"), ("t1", math.inf), ("row", [0.0]),
    ], ids=["coeff-bool", "coeff-text", "coeff-nan", "coeff-huge", "time-bool",
            "time-text", "time-inf", "ragged-row"])
    def test_malformed_numbers_raise_config_error(self, where, value):
        record = trajectory_to_dict(
            polygonal_from_vertices([(0.0, [0, 0, 0]), (1.0, [0.1, 0, 0])], ELECTRON))
        segment = record["segments"][0]
        if where == "coeff":
            segment["coeffs"][0][1] = value
        elif where == "row":
            segment["coeffs"][1] = value
        else:
            segment[where] = value
        with pytest.raises(ConfigError):
            trajectory_from_dict(record)
