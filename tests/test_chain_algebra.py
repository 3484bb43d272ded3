"""Chain splice and perturbation (`merge_history`, `add_perturbation`,
`Perturbation.tent`) against their per-segment references in `helpers_geometry`: the same knots, the same values of every
order on both sides of every knot and at every midpoint, bit for bit, and
the same exception types."""

import numpy as np
import pytest

from helpers_geometry import (
    bits,
    reference_add_perturbation,
    reference_linear_coeffs,
    reference_merge_history,
)
from wfvar.core import (
    ParticleParams,
    Perturbation,
    PiecewiseTrajectory,
    Segment,
    Side,
    add_perturbation,
    hermite_trajectory,
    merge_history,
    polygonal_from_vertices,
)
from wfvar.errors import DomainError, SuperluminalError

P = ParticleParams(mass=1.0, charge=-1.0)


def outcome(build, *args):
    """The trajectory ``build(*args)`` makes, or the type of what it raises."""
    try:
        return build(*args)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc)


def assert_same_chain(got, want):
    assert not isinstance(want, type), want
    assert got.particle == want.particle
    knots = got.packed.knots
    assert bits(knots) == bits([s.t_start for s in want.segments] + [want.t_end])
    ts = np.concatenate([knots, 0.5 * (knots[:-1] + knots[1:])])
    for order in range(3):
        for side in Side:
            assert bits(got.evaluate(ts, order, side)) == bits(want.evaluate(ts, order, side))
    # the float path reads each segment's own rows, padded wider than the reference's
    for g, w in zip(got.segments, want.segments):
        for t in (g.t_start, 0.5 * (g.t_start + g.t_end), g.t_end):
            for order in range(3):
                assert bits(g.at(t, order)) == bits(w.at(t, order))


def assert_matches_reference(new, reference, *args):
    got, want = outcome(new, *args), outcome(reference, *args)
    if isinstance(want, type):
        assert got is want
    else:
        assert_same_chain(got, want)


def polygonal(times, w=(0.3, 0.1, 0.0), bend=0.0):
    """A polygonal line through times, velocity w, bent by `bend` in y at
    every other vertex."""
    w = np.asarray(w, dtype=float)
    return polygonal_from_vertices(
        [(t, t * w + [0.0, bend * (i % 2), 0.0]) for i, t in enumerate(times)], P)


def hermite(times, w=(0.3, 0.1, 0.0), kink=None):
    """The Hermite line through times at velocity w; `kink` adds a velocity
    jump at the interior nodes."""
    w = np.asarray(w, dtype=float)
    positions = [t * w for t in times]
    velocities = [w + [0.0, 0.0, 0.05 * i] for i in range(len(times))]
    left = None if kink is None else [v + kink for v in velocities]
    return hermite_trajectory(times, positions, velocities, P, left)


def refine_shapes():
    """The polygonal histories and the Hermite window (break at 0) of the
    `refine` benchmark job, rotated."""
    far = 2.5e6
    rot = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))[0]
    w = rot @ [0.3, 0.1, 0.0]
    history = polygonal_from_vertices([(-far, -far * w), (far, far * w)], P)
    window = hermite_trajectory([-1.0, 0.0, 1.0], [-w, 0 * w, w], [w] * 3, P,
                                [w, 0.9 * w, w])
    return history, window


SPLICES = {
    "window-inside-one-cell": (polygonal([-50.0, 50.0]), hermite([-1.0, 0.0, 1.0])),
    "window-ends-on-knots": (polygonal([-6.0, -1.0, 0.5, 1.0, 3.0]),
                             hermite([-1.0, -0.2, 1.0], kink=[0.01, 0.0, 0.0])),
    "window-ends-inside-cells": (hermite([-6.0, -1.5, 0.25, 2.0, 5.0]),
                                 polygonal([-1.0, 0.0, 1.0])),
    "refine": refine_shapes(),
}


@pytest.mark.parametrize("name", SPLICES)
def test_splice_matches_reference(name):
    history, window = SPLICES[name]
    assert_matches_reference(merge_history, reference_merge_history, window, history)


def test_mixed_degree_history_abutting_either_side():
    window = hermite([-1.0, 0.0, 1.0], kink=[0.0, 0.02, 0.0])
    for history in (polygonal([-9.0, -4.0, -1.0]), polygonal([1.0, 3.0, 8.0])):
        assert_matches_reference(merge_history, reference_merge_history, window, history)
        assert_matches_reference(merge_history, reference_merge_history, history, window)


def test_merged_chain_takes_the_window_trajectorys_particle():
    window = hermite([-1.0, 0.0, 1.0])
    heavier = ParticleParams(mass=3.0, charge=-2.0)
    for times in ([-5.0, 0.5, 5.0], [1.0, 3.0, 8.0]):  # contains, abuts
        history = polygonal_from_vertices([(t, t * np.array([0.3, 0.1, 0.0])) for t in times],
                                          heavier)
        assert merge_history(window, history).particle == window.particle


def test_splice_keeps_negative_zero_coefficients_of_unshifted_cells():
    before = np.array([[-0.0, 0.1], [2.0, -0.0], [-0.0, -0.0]])
    after = np.array([[0.3, -0.0], [2.0, 0.05], [-0.0, -0.0]])
    history = PiecewiseTrajectory.from_segments(
        (Segment(-4.0, -1.0, before), Segment(-1.0, 3.0, after)), P)
    # the cell left of the window keeps its rows; the one right of it shifts
    window = PiecewiseTrajectory.from_segments((Segment(-1.0, 1.0, after),), P)
    assert_matches_reference(merge_history, reference_merge_history, window, history)
    spliced = merge_history(window, history)
    assert bits(spliced.segments[0].coeffs) == bits(before)


def test_torn_and_misplaced_splices_raise_like_the_reference():
    history = polygonal([-5.0, 5.0])
    cases = [
        (history, polygonal([-1.0, 1.0], bend=0.5)),  # position gap
        # a left part that ends early, a right part that starts late, with no
        # position gap to give them away
        (polygonal([0.0, 1.0], w=0), polygonal([2.0, 3.0], w=0)),
        (polygonal([2.5, 9.0], w=0), polygonal([0.0, 2.0], w=0)),
    ]
    for full, part in cases:
        assert outcome(reference_merge_history, part, full) is DomainError
        assert outcome(merge_history, part, full) is DomainError
    for history in (polygonal([-7.0, 0.0]), polygonal([-9.0, -2.0])):  # overlaps, apart
        assert outcome(merge_history, hermite([-1.0, 1.0]), history) is DomainError
    assert merge_history(full, None) is full
    assert merge_history(full, full) is full


PERTURBED = {
    "inside": (polygonal([0.0, 2.0, 4.0], bend=0.2), Perturbation.tent(1.0, 2.5, 3.0, [0, 0, 0.2])),
    "past-both-ends": (hermite([0.0, 1.0, 2.5, 4.0]),
                       Perturbation.tent(-3.0, 2.0, 6.0, [0.1, -0.05, 0.02])),
    "past-the-end": (polygonal([-1.0, 0.5, 1.0]), Perturbation.from_nodes(
        [0.0, 0.7, 2.0], [[0.0, 0.0, 0.0], [0.02, 0.01, 0.0], [0.0, 0.0, 0.0]])),
    "shared-knots": (hermite([-1.0, 0.0, 1.0], kink=[0.0, 0.0, 0.03]),
                     Perturbation.from_nodes([-1.0, -0.5, 0.0, 1.0],
                                             [[0.0] * 3, [0.01, 0.0, 0.0], [0.0, 0.02, 0.0],
                                              [0.0] * 3])),
    "outside": (polygonal([0.0, 1.0]), Perturbation.tent(2.0, 3.0, 4.0, [0.1, 0.0, 0.0])),
}


@pytest.mark.parametrize("name", PERTURBED)
@pytest.mark.parametrize("eps", [0.125, -0.3, 0.0])
def test_add_perturbation_matches_reference(name, eps):
    traj, pert = PERTURBED[name]
    assert_matches_reference(add_perturbation, reference_add_perturbation, traj, pert, eps)


def test_superluminal_sum_raises_like_the_reference():
    traj, pert = PERTURBED["inside"]
    for eps in (5.0, -5.0):
        assert outcome(reference_add_perturbation, traj, pert, eps) is SuperluminalError
        assert outcome(add_perturbation, traj, pert, eps) is SuperluminalError


def test_tent_is_two_linear_segments():
    b = Perturbation.tent(-1.0, 0.25, 2.0, [0.1, -0.0, 0.3])
    amp = np.array([0.1, -0.0, 0.3])
    assert bits(b.packed.knots) == bits([-1.0, 0.25, 2.0])
    assert bits(b.packed.rows[0]) == bits([reference_linear_coeffs(-1.0, 0.25, np.zeros(3), amp),
                                           reference_linear_coeffs(0.25, 2.0, amp, np.zeros(3))])
    with pytest.raises(DomainError):
        Perturbation.tent(0.0, 0.0, 1.0, [0.1, 0.0, 0.0])


def test_splice_and_perturbation_build_no_segment_one_at_a_time(monkeypatch):
    history, window = refine_shapes()
    pert = Perturbation.from_nodes([-1.0, 0.0, 1.0], [[0.0] * 3, [0.01, 0.0, 0.0], [0.0] * 3])
    segments = 0
    post_init = Segment.__post_init__

    def counted_post_init(self):
        nonlocal segments
        segments += 1
        post_init(self)

    monkeypatch.setattr(Segment, "__post_init__", counted_post_init)
    merged = merge_history(window, history)
    moved = add_perturbation(merged, pert, 1e-3)
    moved.evaluate([-0.5, 0.5])
    assert segments == 0
    assert merged.coeffs.shape[0] == 4 and moved.coeffs.shape[0] == 4
    reference_add_perturbation(reference_merge_history(window, history), pert, 1e-3)
    assert segments > 0  # the counter counts
