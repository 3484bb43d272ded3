"""Horner re-expansion of polynomial rows against numpy's ``Polynomial``
composition: the per-row reference (`segment_from_global`,
`reference_poly_shift`) and the array form ``wfvar.core._shift_cells`` must
build exactly the coefficients that the composition builds."""

import numpy as np
import pytest

from helpers_geometry import reference_poly_shift, segment_from_global, uniform_traj
from wfvar.core import _shift_cells


def composed_coeffs(t0, global_rows):
    """Reference: rows re-expanded in u = t - t0 by numpy's composition."""
    shift = np.polynomial.Polynomial([t0, 1.0])
    rows = [np.polynomial.Polynomial(r)(shift).coef for r in global_rows]
    k = max(len(r) for r in rows)
    coeffs = np.zeros((3, k))
    for i, r in enumerate(rows):
        coeffs[i, : len(r)] = r
    return coeffs


def assert_bit_identical(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # also tells -0.0 from 0.0


def padded(rows, k):
    """Ragged coefficient rows as a (3, k) array, zeros at the high end."""
    coeffs = np.zeros((3, k))
    for i, r in enumerate(rows):
        coeffs[i, : len(r)] = r
    return coeffs


def assert_cells_match_composition(cases):
    """`_shift_cells` re-bases every (t0, rows) case in one call, one cell per
    case padded to a common width: each cell is the composition padded to
    that width, or its own rows where t0 == 0."""
    k = max(len(r) for _, rows in cases for r in rows)
    coeffs = np.array([padded(rows, k) for _, rows in cases])
    got = _shift_cells(coeffs, [t0 for t0, _ in cases])
    for cell, c, (t0, rows) in zip(got, coeffs, cases):
        assert_bit_identical(cell, c if t0 == 0.0 else padded(composed_coeffs(t0, rows), k))


@pytest.mark.parametrize("t0", [-300.0, -6.0, -1.0, -0.0, 0.0, 0.75, 5.0])
def test_fixed_rows_match_composition(t0):
    rows_sets = [
        [[0, 0, 1e-4], [0, 0.1], [0]],
        [[0, 0, 1e-4], [0], [0]],
        [[0, 0.4], [1, 0], [0, -0.2]],
        [[1.5, -0.25, 0.0], [-0.0, 0.3, 0.0], [2.0, 0.0]],  # top coefficients 0
        [[0.0], [-0.0], [3.0]],
        [[-0.0, 0.0, 0.0], [0, 0], [-1.0, 0.5, -1e-4]],
    ]
    for rows in rows_sets:
        assert_bit_identical(segment_from_global(t0, t0 + 1.0, rows).coeffs,
                             composed_coeffs(t0, rows))
    assert_cells_match_composition([(t0, rows) for rows in rows_sets])


def test_rows_of_the_suite_match_composition():
    cases = [
        (-6.0, 6.0, [[0, 0, 0.05], [0, 0.1], [0]]),
        (-6.0, 6.0, [[0, 0, 0.05], [0], [0]]),
        (-5.0, 5.0, [[0, 0.4], [1, 0], [0, -0.2]]),
        (-1.0, 1.0, [[0.1, 0.2, 0.3], [0, 0, -0.1], [0.05]]),
    ]
    for t0, t1, rows in cases:
        assert_bit_identical(segment_from_global(t0, t1, rows).coeffs,
                             composed_coeffs(t0, rows))
    assert_cells_match_composition([(t0, rows) for t0, _, rows in cases])


def test_random_rows_of_degree_up_to_two_match_composition():
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(600):
        t0 = float(rng.choice([rng.uniform(-300.0, 300.0), rng.normal(), -300.0, 0.0]))
        rows = []
        for _ in range(3):
            # scaled so that the speed stays below 1 on [t0, t0 + 1]
            row = [0.1 * rng.normal() / (1.0 + abs(t0)) ** k
                   for k in range(int(rng.integers(1, 4)))]
            if rng.random() < 0.3:
                row[-1] = float(rng.choice([0.0, -0.0]))
            if rng.random() < 0.2:
                row[0] = -0.0
            rows.append(row)
        assert_bit_identical(segment_from_global(t0, t0 + 1.0, rows).coeffs,
                             composed_coeffs(t0, rows))
        cases.append((t0, rows))
    assert_cells_match_composition(cases)


def test_uniform_draws_of_the_cone_acceptance_test_match_composition():
    # the draw sequence of the closed-form cone acceptance test
    rng = np.random.default_rng(1234)
    cases = []
    for _ in range(1000):
        x0 = rng.uniform(-5.0, 5.0, 3)
        speed = rng.uniform(0.0, 0.8)
        w = rng.normal(size=3)
        v = speed * (w / np.linalg.norm(w))
        rows = [[x0[i], v[i]] for i in range(3)]
        assert_bit_identical(uniform_traj(x0, v).segments[0].coeffs,
                             composed_coeffs(-300.0, rows))
        cases.append((-300.0, rows))
        rng.uniform(-3.0, 3.0)
        rng.uniform(-5.0, 5.0, 3)
    assert_cells_match_composition(cases)


def test_poly_shift_matches_composition():
    # segment re-basing: (3, K) rows of degree up to 4, padded back to K, one
    # block at a time by the reference and padded to width 5 in one
    # `_shift_cells` call
    rng = np.random.default_rng(7)
    blocks, deltas, wants = [], [], []
    for _ in range(300):
        k = int(rng.integers(1, 6))
        coeffs = rng.normal(size=(3, k))
        coeffs[rng.random(size=(3, k)) < 0.2] = float(rng.choice([0.0, -0.0]))
        delta = float(rng.choice([rng.uniform(-10.0, 10.0), -300.0, 1e-9]))
        want = np.zeros_like(coeffs)
        shift = np.polynomial.Polynomial([delta, 1.0])
        for i in range(3):
            c = np.polynomial.Polynomial(coeffs[i])(shift).coef
            want[i, : len(c)] = c
        assert_bit_identical(reference_poly_shift(coeffs, delta), want)
        blocks.append(padded(coeffs, 5))
        deltas.append(delta)
        wants.append(padded(want, 5))
    assert_bit_identical(_shift_cells(np.array(blocks), deltas), np.array(wants))


def test_zero_delta_keeps_the_cell_and_a_nonzero_one_clears_negative_zeros():
    coeffs = np.array([[[-0.0, 0.5], [1.0, -0.0], [-0.0, -0.0]]] * 3)
    got = _shift_cells(coeffs, [0.0, -0.0, 2.0])
    assert_bit_identical(got[:2], coeffs[:2])
    assert_bit_identical(got[2], np.array([[1.0, 0.5], [1.0, 0.0], [0.0, 0.0]]))
    constant = np.array([[[-0.0], [1.0], [-0.0]]])
    assert_bit_identical(_shift_cells(constant, [2.0]), np.array([[[0.0], [1.0], [0.0]]]))
    assert _shift_cells(np.zeros((0, 3, 4)), []).shape == (0, 3, 4)
