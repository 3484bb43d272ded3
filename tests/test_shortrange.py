import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers_geometry import (
    bench_workloads,
    reference_construct_partner,
    scalar_far_cone_time,
    static_traj,
    uniform_traj,
)

from wfvar import cli
from wfvar.core import ParticleParams, polygonal_from_vertices, vec3
from wfvar.errors import (
    ConfigError,
    ContractError,
    ConvergenceError,
    DomainError,
    InconsistentParamsError,
    InsufficientHistoryError,
    InsufficientSamplingError,
    SuperluminalError,
)
from wfvar.farfield import gah_residual, latlong_mesh
from wfvar import lightcone
from wfvar.lightcone import Branch, unit_directions
from wfvar import shortrange
from wfvar.shortrange import (
    _real_sph_basis,
    SeparationFamilyParams,
    fibonacci_sphere,
    construct_partner,
    enforce_continuity,
    k12,
    load_family,
    params_from_dict,
    params_to_dict,
    rigidity_check,
    save_family,
    separation_family,
    sewing_chain,
)

NEG = ParticleParams(mass=1.0, charge=-1.0)


def unit(v):
    v = vec3(v)
    return v / np.linalg.norm(v)


def cone_directions(axis, count=8, half_angle=0.6):
    axis = unit(axis)
    seed = vec3(1.0, 0.0, 0.0) if abs(axis[0]) < 0.9 else vec3(0.0, 1.0, 0.0)
    e1 = unit(np.cross(axis, seed))
    e2 = np.cross(axis, e1)
    phis = 2.0 * np.pi * np.arange(count) / count
    return [
        np.cos(half_angle) * axis
        + np.sin(half_angle) * (np.cos(p) * e1 + np.sin(p) * e2)
        for p in phis
    ]


class TestK12:
    def test_hand_values(self):
        n = [1.0, 0.0, 0.0]
        assert abs(k12([0, 0, 0], [0.5, 0, 0], n) - (-1.0)) < 1e-14
        assert abs(k12([-0.5, 0, 0], [0, 0, 0], n) - (-1.0 / 3.0)) < 1e-14

    @given(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6), st.floats(-0.5, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_antisymmetric_and_zero_on_equal(self, vx, vy, nz):
        v = [vx, vy, 0.2]
        n = unit([0.3, -0.8, nz + 0.1])
        assert k12(v, v, n) == 0.0
        w = [vy, 0.1, vx]
        assert abs(k12(v, w, n) + k12(w, v, n)) < 1e-14


def constant_family(d_vec, l_vec, t_edges=(-10.0, 10.0)):
    return SeparationFamilyParams.from_callables(
        t_edges,
        [lambda n: np.asarray(d_vec, dtype=float)],
        [lambda n: np.asarray(l_vec, dtype=float)],
    )


class TestSeparationFamily:
    def test_static_member(self):
        params = constant_family([0.0, 1.5, 0.0], [0.0, 0.0, 0.0])
        sep = separation_family(params, 0.3, [1.0, 0.0, 0.0], 0.0)
        assert_allclose(sep, [0.0, 1.5, 0.0], atol=1e-15)
        sep = separation_family(params, -2.0, [1.0, 0.0, 0.0], 0.25)
        assert_allclose(sep, [0.25, 1.5, 0.0], atol=1e-15)

    def test_rotation_term_hand_value(self):
        params = constant_family([1.0, 2.0, 0.0], [0.0, 0.0, 0.5], (0.0, 10.0))
        sep = separation_family(params, 2.0, [1.0, 0.0, 0.0], 0.1)
        # projection drops the x-offset; -2 * x_hat x (0,0,0.5) = (0,1,0)
        assert_allclose(sep, [0.1, 3.0, 0.0], atol=1e-14)

    def test_outside_domain(self):
        params = constant_family([0.0, 1.0, 0.0], [0.0, 0.0, 0.0], (0.0, 10.0))
        for t in (-5.0, 10.5):
            with pytest.raises(DomainError):
                separation_family(params, t, [1.0, 0.0, 0.0], 0.0)

    def test_edges_must_increase(self):
        with pytest.raises(DomainError):
            constant_family([0, 1, 0], [0, 0, 0], (1.0, 1.0))
        with pytest.raises(DomainError):
            SeparationFamilyParams.from_callables(
                (0.0, 1.0, 2.0), [lambda n: n], [lambda n: n]
            )

    def test_validate_rejects_non_transverse_raw_maps(self):
        params = SeparationFamilyParams.from_callables(
            (-1.0, 1.0),
            [lambda n: n],
            [lambda n: np.zeros(3)],
            project=False,
        )
        with pytest.raises(ContractError):
            params.validate()

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_harmonic_backend_is_transverse(self, ax, ay, az):
        raw = vec3(ax + 0.1, ay - 0.2, az + 0.3)
        if np.linalg.norm(raw) < 1e-3:
            return
        n = unit(raw)
        rng = np.random.default_rng(7)
        tables = rng.normal(size=(2, 3, 25))
        params = SeparationFamilyParams.from_harmonic_tables(
            (-5.0, 5.0), [tables[0]], [tables[1]]
        )
        d = params.d_sigma(0, n)
        l_vec = params.l_sigma(0, n)
        assert abs(n @ d) < 1e-12
        assert abs(n @ l_vec) < 1e-12
        params.validate()

    def test_linear_backend_matches_cone_solved_separation(self):
        p1, v1 = vec3(0.0, 1.5, 0.0), vec3(0.1, 0.0, 0.05)
        p2, v2 = vec3(0.2, -0.3, 0.0), vec3(0.0, -0.2, 0.1)
        edge = 0.7
        params = SeparationFamilyParams.from_linear_pieces(
            (edge, edge + 5.0), [(p1, v1, p2, v2)]
        )
        traj1 = uniform_traj(p1, v1)
        traj2 = uniform_traj(p2, v2)
        for n in cone_directions([0.3, 1.0, -0.4], count=5):
            t1 = scalar_far_cone_time(traj1, edge, n, 0.0, Branch.RETARDED)
            t2 = scalar_far_cone_time(traj2, edge, n, 0.0, Branch.RETARDED)
            sep = traj1.position(t1) - traj2.position(t2)
            expect = sep - (t1 - t2) * n
            assert_allclose(params.d_sigma(0, n), expect, atol=1e-12)
            assert abs(n @ params.d_sigma(0, n)) < 1e-13
            lhs = v1 / (1 - n @ v1) - v2 / (1 - n @ v2)
            assert_allclose(params.l_sigma(0, n), np.cross(n, lhs), atol=1e-14)

    def test_linear_backend_rejects_superluminal_pieces(self):
        with pytest.raises(SuperluminalError):
            SeparationFamilyParams.from_linear_pieces(
                (0.0, 1.0), [([0, 0, 0], [1.0, 0.2, 0], [0, 0, 0], [0, 0, 0])]
            )

    def test_continuity_adjustment(self):
        rng = np.random.default_rng(11)
        params = SeparationFamilyParams.from_harmonic_tables(
            (-2.0, 0.5, 3.0),
            rng.normal(size=(2, 3, 25)),
            0.3 * rng.normal(size=(2, 3, 25)),
        )
        adjusted = enforce_continuity(params)
        edge, dt12 = 0.5, 0.33
        for n in cone_directions([1.0, -0.5, 0.8], count=4):
            left = (
                adjusted.d_sigma(0, n)
                + dt12 * n
                - (edge - (-2.0)) * np.cross(n, adjusted.l_sigma(0, n))
            )
            right = separation_family(adjusted, edge, n, dt12)
            assert_allclose(left, right, atol=1e-12)


def reference_map(maps, project, sigma, n):
    """One map at one direction, projected by hand."""
    raw = np.broadcast_to(maps[sigma](n[None]), (1, 3))[0]
    return raw - np.dot(n, raw) * n if project else raw


def reference_separation(params, t, n, dt12):
    """`separation_family` at one time and direction, from the raw maps."""
    edges = params.t_edges
    sigma = min(int(np.searchsorted(edges, t, side="right")) - 1, params.n_intervals - 1)
    d = reference_map(params.d_raw, params.project, sigma, n)
    l_vec = reference_map(params.l_raw, params.project, sigma, n)
    return d + dt12 * n - (t - edges[sigma]) * np.cross(n, l_vec)


def row_families():
    rng = np.random.default_rng(5)
    edges = (-2.0, 0.5, 3.0)
    harmonic = SeparationFamilyParams.from_harmonic_tables(
        edges, rng.normal(size=(2, 3, 25)), 0.3 * rng.normal(size=(2, 3, 25)))
    linear = SeparationFamilyParams.from_linear_pieces(edges, [
        ([0, 1.5, 0], [0.1, 0, 0.05], [0.2, -0.3, 0], [0, -0.2, 0.1]),
        ([0, 1.5, 0], [0.1, 0, 0.05], [0.2, -0.3, 0], [0.15, 0.1, 0]),
    ])
    callable_family = SeparationFamilyParams.from_callables(
        edges,
        [lambda n: np.sin(3.0 * n) + n[:, ::-1] ** 2, lambda n: [0.0, 1.5, 0.0]],
        [lambda n: np.cos(n) * 0.2, lambda n: np.cross(n, [0.1, -0.2, 0.3])],
    )
    return {"linear": linear, "harmonic": harmonic, "callable": callable_family,
            "continuity": enforce_continuity(harmonic)}


FAMILIES = row_families()


def construct_two_interval_partner(grid_size=5):
    """Run `construct_partner` on the two-interval linear family of
    `partner_setups` over `grid_size` grid times in [-2, 2]; returns the
    family."""
    traj2, params, directions, _ = partner_setups()["linear"]
    construct_partner(traj2, params, directions, np.linspace(-2.0, 2.0, grid_size))
    return params


def newton_rounds(monkeypatch, grid_size):
    """Newton rounds of the two-interval partner over `grid_size` grid
    times, from its least-squares solves: one per open grid time per round."""
    solves = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        solves.append(1)
        return lstsq(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "lstsq", counted)
        construct_two_interval_partner(grid_size)
    assert len(solves) % grid_size == 0  # every grid time takes every round
    return len(solves) // grid_size


class TestDirectionRows:
    """Each row form against a per-row reference loop."""

    rows = np.array([unit(r) for r in np.random.default_rng(9).normal(size=(12, 3))])

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_maps_match_per_row_reference(self, name):
        params = FAMILIES[name]
        sigmas = np.arange(self.rows.shape[0]) % params.n_intervals
        for at, maps in ((params.d_sigma, params.d_raw), (params.l_sigma, params.l_raw)):
            for sigma in range(params.n_intervals):
                got = at(sigma, self.rows)
                assert got.shape == self.rows.shape
                ref = [reference_map(maps, params.project, sigma, n) for n in self.rows]
                assert_allclose(got, ref, rtol=0.0, atol=1e-13)
                assert_allclose(at(sigma, self.rows[3]), ref[3], rtol=0.0, atol=1e-13)
            # one interval per row, grouped by interval
            ref = [at(s, n) for s, n in zip(sigmas.tolist(), self.rows)]
            assert_allclose(at(sigmas, self.rows), ref, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_sphere_times_straddling_an_edge(self, name):
        params = FAMILIES[name]
        m = self.rows.shape[0]
        # rows on both sides of the inner edge, one exactly on it and one on
        # the last edge, which belongs to the last interval
        t = 0.5 + np.linspace(-0.3, 0.3, m)
        t[0], t[-1] = 0.5, 3.0
        dt12 = np.linspace(-0.2, 0.4, m)
        assert params.interval_index(t).tolist() == [1] + [0] * 5 + [1] * 6
        got = separation_family(params, t, self.rows, dt12)
        ref = [reference_separation(params, ti, n, d)
               for ti, n, d in zip(t, self.rows, dt12)]
        assert_allclose(got, ref, rtol=0.0, atol=1e-13)
        # a float time with rows, and times with one direction
        assert_allclose(separation_family(params, 1.0, self.rows, 0.1),
                        [reference_separation(params, 1.0, n, 0.1) for n in self.rows],
                        rtol=0.0, atol=1e-13)
        assert_allclose(separation_family(params, t, self.rows[2], dt12),
                        [reference_separation(params, ti, self.rows[2], d)
                         for ti, d in zip(t, dt12)], rtol=0.0, atol=1e-13)

    def test_one_row_returns_the_scalar_forms(self):
        params = FAMILIES["linear"]
        n = self.rows[0]
        assert type(params.interval_index(1.0)) is int
        sep = separation_family(params, 1.0, n, 0.2)
        assert sep.shape == (3,)
        assert_allclose(sep, reference_separation(params, 1.0, n, 0.2), rtol=0.0, atol=1e-14)
        assert isinstance(k12([0.1, 0, 0], [0, 0.2, 0], n), float)

    def test_callables_receive_rows(self):
        shapes = []

        def d_map(n):
            shapes.append(n.shape)
            return np.zeros_like(n)

        params = SeparationFamilyParams.from_callables(
            (0.0, 1.0, 2.0), [d_map, d_map], [lambda n: np.zeros(3)] * 2)
        separation_family(params, np.array([0.2, 1.5, 0.7]), self.rows[:3], 0.0)
        separation_family(params, 0.2, self.rows[0], 0.0)
        assert shapes == [(2, 3), (1, 3), (1, 3)]

    def test_k12_and_rigidity_rows_match_the_per_direction_formula(self):
        rng = np.random.default_rng(17)
        v1, v2 = 0.5 * rng.uniform(-1, 1, 3), 0.5 * rng.uniform(-1, 1, 3)
        got = k12(v1, v2, self.rows)
        ref = [1.0 / (1.0 - np.dot(n, v1)) - 1.0 / (1.0 - np.dot(n, v2)) for n in self.rows]
        assert_allclose(got, ref, rtol=1e-15, atol=0.0)
        report = rigidity_check(v1, v2, self.rows)
        for n, k, viol in zip(self.rows, report.k_values, report.violations):
            lhs = v1 / (1.0 - np.dot(n, v1)) - v2 / (1.0 - np.dot(n, v2))
            assert abs(k - np.dot(n, lhs)) < 1e-15
            assert abs(viol - np.linalg.norm(lhs - np.dot(n, lhs) * n)) < 1e-15

    def test_non_finite_map_output_or_direction_is_a_domain_error(self):
        params = SeparationFamilyParams.from_callables(
            (0.0, 1.0, 2.0),
            [lambda n: np.zeros_like(n), lambda n: np.where(n[:, :1] > 0, np.nan, n)],
            [lambda n: np.zeros(3)] * 2)
        t = np.array([0.5, 1.5])
        rows = np.array([[-1.0, 0, 0], [1.0, 0, 0]])
        with pytest.raises(DomainError):
            separation_family(params, t, rows, 0.0)
        with pytest.raises(DomainError):
            params.d_sigma(1, rows)
        separation_family(params, t, rows[::-1], 0.0)  # the NaN row is in interval 0
        with pytest.raises(DomainError):
            separation_family(params, t, [[np.nan, 0, 1], [0, 0, 1]], 0.0)
        with pytest.raises(DomainError):
            k12([0.1, 0, 0], [0, 0, 0], [np.inf, 0, 0])

    @pytest.mark.parametrize("t", [[0.5, 3.5], [-2.1, 1.0], [0.5, np.nan]])
    def test_array_times_outside_the_domain(self, t):
        params = FAMILIES["callable"]  # domain [-2, 3]
        with pytest.raises(DomainError):
            params.interval_index(np.array(t))
        with pytest.raises(DomainError):
            separation_family(params, np.array(t), self.rows[:2], 0.0)

    def test_validate_errors(self):
        nan_map = SeparationFamilyParams.from_callables(
            (-1.0, 1.0), [lambda n: np.full_like(n, np.nan)], [lambda n: np.zeros(3)])
        with pytest.raises(ContractError, match="D_0 not finite"):
            nan_map.validate()
        radial_l = SeparationFamilyParams.from_callables(
            (-1.0, 0.0, 1.0), [lambda n: np.zeros(3)] * 2, [lambda n: 0.0 * n, lambda n: n],
            project=False)
        with pytest.raises(ContractError, match="n.L_1 = 1 violates"):
            radial_l.validate()
        for params in FAMILIES.values():
            params.validate()

    @pytest.mark.parametrize("offset", [1e5, 1e6])
    def test_far_apart_transverse_families_validate(self, offset):
        # projection leaves rounding of about eps |D| in n.D, which once
        # failed an absolute 1e-12 bound (7.28e-12 at 1e5, 5.82e-11 at 1e6)
        family = SeparationFamilyParams.from_linear_pieces(
            (-1.0, 1.0), [([0, 0, 0], [0.1, 0, 0], [offset, 0, 0], [-0.1, 0, 0])])
        ns = fibonacci_sphere(32)
        assert np.abs((ns * family.d_sigma(0, ns)).sum(axis=1)).max() > 1e-12
        family.validate()
        # the bound scales with |D|, so a far-out radial map still fails
        radial = SeparationFamilyParams.from_callables(
            (-1.0, 1.0), [lambda n: offset * n], [lambda n: np.zeros(3)], project=False)
        with pytest.raises(ContractError, match="n.D_0 = .* violates"):
            radial.validate()

    def test_construct_partner_makes_one_family_call_per_candidate_pass(self, monkeypatch):
        # `_separation` is `separation_family` with the L rows it read; the
        # grid times share their candidate passes, one per Newton round and
        # one for the final candidates, whatever the grid size
        rounds = newton_rounds(monkeypatch, 5)
        assert rounds == newton_rounds(monkeypatch, 17)
        counts = {}
        candidates, family = shortrange._candidates, shortrange._separation

        def count(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(shortrange, "_candidates", count("candidates", candidates))
        monkeypatch.setattr(shortrange, "_separation", count("family", family))
        for grid_size in (5, 17):
            counts.update(candidates=0, family=0)
            construct_two_interval_partner(grid_size)
            assert counts["candidates"] == rounds + 1
            assert counts["family"] == counts["candidates"]

    def test_construct_partner_reads_the_l_rows_once_per_candidate_pass(self, monkeypatch):
        # the position solve takes its L rows from the candidates' family
        # call; `l_sigma` and `_separation` both read them through `_evaluate`
        rounds = newton_rounds(monkeypatch, 5)
        counts = {}
        candidates, evaluate = shortrange._candidates, SeparationFamilyParams._evaluate

        def counted_candidates(*args):
            counts["candidates"] += 1
            return candidates(*args)

        def counted_evaluate(self, maps, sigma, n):
            counts["l_sigma"] += maps is self.l_raw
            return evaluate(self, maps, sigma, n)

        monkeypatch.setattr(shortrange, "_candidates", counted_candidates)
        monkeypatch.setattr(SeparationFamilyParams, "_evaluate", counted_evaluate)
        for grid_size in (5, 17):
            counts.update(candidates=0, l_sigma=0)
            params = construct_two_interval_partner(grid_size)
            assert counts["candidates"] == rounds + 1
            # `validate` reads each L_sigma once before the solve
            assert counts["l_sigma"] == counts["candidates"] + params.n_intervals


class TestRealHarmonics:
    def test_orthonormal_on_latlong_mesh(self):
        # the default mesh integrates degree 8 products exactly
        mesh = latlong_mesh()
        basis = np.array([_real_sph_basis(n, 4) for n in mesh.directions])
        gram = 4.0 * np.pi * (basis.T * mesh.weights) @ basis
        assert_allclose(gram, np.eye(25), rtol=0.0, atol=1e-13)

    def test_matches_scipy_lpmv(self):
        special = pytest.importorskip("scipy.special")
        lmax = 8
        rng = np.random.default_rng(11)
        dirs = [unit(d) for d in rng.normal(size=(40, 3))] + [vec3(0, 0, 1), vec3(0, 0, -1)]
        for n in dirs:
            ct, phi = n[2], np.arctan2(n[1], n[0])
            ref = []
            for l in range(lmax + 1):
                for m in range(-l, l + 1):
                    am = abs(m)
                    norm = np.sqrt((2 * l + 1) / (4 * np.pi) * math.factorial(l - am)
                                   / math.factorial(l + am))
                    p = norm * special.lpmv(am, l, ct)
                    if m > 0:
                        p *= np.sqrt(2.0) * np.cos(m * phi)
                    elif m < 0:
                        p *= np.sqrt(2.0) * np.sin(am * phi)
                    ref.append(p)
            assert_allclose(_real_sph_basis(n, lmax), ref, rtol=0.0, atol=1e-13)


class TestFamilySerialization:
    def test_harmonic_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        params = SeparationFamilyParams.from_harmonic_tables(
            (-1.0, 0.0, 2.0),
            rng.normal(size=(2, 3, 25)),
            rng.normal(size=(2, 3, 25)),
        )
        path = tmp_path / "family.json"
        save_family(params, path)
        loaded = load_family(path)
        assert loaded.kind == "harmonic"
        assert_allclose(loaded.t_edges, params.t_edges)
        for n in cone_directions([0.2, 0.9, -0.1], count=4):
            for sigma in range(2):
                assert_allclose(loaded.d_sigma(sigma, n), params.d_sigma(sigma, n))
                assert_allclose(loaded.l_sigma(sigma, n), params.l_sigma(sigma, n))

    def test_linear_round_trip(self):
        params = SeparationFamilyParams.from_linear_pieces(
            (-4.0, 0.0, 4.0),
            [
                ([0, 1.5, 0], [0.1, 0, 0.05], [0, 0, 0], [0, -0.2, 0]),
                ([0, 1.5, 0], [0.1, 0, 0.05], [0, 0, 0], [0.15, 0.1, 0]),
            ],
        )
        loaded = params_from_dict(params_to_dict(params))
        n = unit([0.4, -1.0, 0.3])
        for sigma in range(2):
            assert_allclose(loaded.d_sigma(sigma, n), params.d_sigma(sigma, n))
            assert_allclose(loaded.l_sigma(sigma, n), params.l_sigma(sigma, n))

    def test_interval_schema_keys(self):
        rng = np.random.default_rng(4)
        params = SeparationFamilyParams.from_harmonic_tables(
            (0.0, 1.0), [rng.normal(size=(3, 25))], [rng.normal(size=(3, 25))]
        )
        data = params_to_dict(params)
        assert set(data["intervals"][0]) == {"t_edge", "D_coeffs", "L_coeffs"}

    def test_callable_kind_not_serializable(self):
        params = constant_family([0, 1, 0], [0, 0, 0])
        with pytest.raises(ConfigError):
            params_to_dict(params)

    def test_malformed_dicts(self):
        good = {
            "kind": "harmonic",
            "t_start": 0.0,
            "intervals": [
                {"t_edge": 1.0, "D_coeffs": np.zeros((3, 25)).tolist(),
                 "L_coeffs": np.zeros((3, 25)).tolist()}
            ],
        }
        params_from_dict(good)  # sanity: the template itself parses
        for breakage in (
            lambda d: d.pop("kind"),
            lambda d: d.update(kind="spline"),
            lambda d: d.update(intervals=[]),
            lambda d: d["intervals"][0].pop("D_coeffs"),
            lambda d: d["intervals"][0].update(t_edge=-1.0),
        ):
            bad = json.loads(json.dumps(good))
            breakage(bad)
            with pytest.raises(ConfigError):
                params_from_dict(bad)

    @pytest.mark.parametrize("value", [True, "0.5", math.nan, 10**400, "ragged"],
                             ids=["bool", "text", "nan", "huge", "ragged"])
    @pytest.mark.parametrize("kind", ["harmonic", "linear"])
    def test_malformed_numbers_raise_config_error(self, kind, value):
        if kind == "harmonic":
            interval = {"t_edge": 1.0, "D_coeffs": np.zeros((3, 25)).tolist(),
                        "L_coeffs": np.zeros((3, 25)).tolist()}
            row = interval["L_coeffs"][1]
        else:
            interval = {"t_edge": 1.0, "p1": [0.0, 1.5, 0.0], "v1": [0.1, 0.0, 0.0],
                        "p2": [0.0, 0.0, 0.0], "v2": [0.0, -0.2, 0.0]}
            row = interval["v2"]
        if value == "ragged":
            row.pop()
        else:
            row[1] = value
        with pytest.raises(ConfigError):
            params_from_dict({"kind": kind, "t_start": 0.0, "intervals": [interval]})

    @pytest.mark.parametrize("lmax", [-1, None])
    def test_lmax_is_a_count(self, lmax):
        data = {"kind": "harmonic", "t_start": 0.0, "lmax": lmax, "intervals": [
            {"t_edge": 1.0, "D_coeffs": [[0.0]] * 3, "L_coeffs": [[0.0]] * 3}]}
        with pytest.raises(ConfigError, match="lmax"):
            params_from_dict(data)

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_family(path)


class TestRigidity:
    def test_equal_velocities_no_violation(self):
        report = rigidity_check(
            [0.3, 0, 0], [0.3, 0, 0],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        )
        assert report.max_violation == 0.0

    def test_crossed_velocities_violate(self):
        report = rigidity_check(
            [0.3, 0, 0], [0, 0.3, 0],
            cone_directions([1.0, 1.0, 1.0], count=8),
        )
        assert report.max_violation > 0.05
        assert report.violations.shape == (8,)
        assert report.k_values.shape == (8,)

    def test_coplanar_directions_rejected(self):
        with pytest.raises(InsufficientSamplingError):
            rigidity_check(
                [0.1, 0, 0], [0, 0.1, 0],
                [[1, 0, 0], [0, 1, 0], [-1, 0, 0], unit([1, 1, 0])],
            )
        with pytest.raises(InsufficientSamplingError):
            rigidity_check([0.1, 0, 0], [0, 0.1, 0], [[1, 0, 0], [0, 1, 0]])

    def test_violation_scales_with_velocity_difference(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            v1 = 0.6 * rng.uniform(-1, 1, 3)
            v2 = 0.6 * rng.uniform(-1, 1, 3)
            if np.linalg.norm(v1 - v2) < 1e-3:
                continue
            ns = [unit(rng.normal(size=3)) for _ in range(8)]
            report = rigidity_check(v1, v2, ns)
            assert report.max_violation > 1e-3 * np.linalg.norm(v1 - v2)


def linear_family():
    return SeparationFamilyParams.from_linear_pieces(
        (-10.0, 10.0), [([0, 0, 0], [0.1, 0, 0], [0, 0, 0], [0.2, 0, 0])])


class TestKinematicInputs:
    """Every direction is a finite unit row and every given velocity a
    finite one with speed below 1, whichever function reads it."""

    @pytest.mark.parametrize("bad", [[2.0, 0, 0], [0, 0.5, 0], [0, 0, 1 + 2e-9],
                                     [np.nan, 0, 1], [0, -np.inf, 0]],
                             ids=["long", "short", "just-long", "nan", "inf"])
    def test_directions_must_be_finite_unit_rows(self, bad):
        rows = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], bad])
        params = linear_family()
        for use in (lambda n: rigidity_check([0.1, 0, 0], [0.2, 0, 0], n),
                    lambda n: k12([0.1, 0, 0], [0.2, 0, 0], n),
                    lambda n: separation_family(params, 0.5, n, 0.0),
                    lambda n: params.d_sigma(0, n),
                    lambda n: params.l_sigma(0, n)):
            for n in (rows, bad):
                with pytest.raises(DomainError):
                    use(n)

    def test_mended_direction_defects(self):
        # each of these once returned a number for a non-unit direction
        v1, v2 = [0.1, 0, 0], [0.2, 0, 0]
        assert rigidity_check(v1, v2, np.eye(3)).max_violation == pytest.approx(0.1)
        assert k12(v1, v2, [1.0, 0, 0]) == pytest.approx(-0.1388888888888889)
        with pytest.raises(DomainError):
            rigidity_check(v1, v2, 2 * np.eye(3))
        with pytest.raises(DomainError):
            k12(v1, v2, [2.0, 0, 0])
        with pytest.raises(DomainError):
            separation_family(linear_family(), 0.0, [0, 0, 2.0], 0.0)

    @pytest.mark.parametrize("fast", [[1.0, 0, 0], [2.0, 0, 0], [0, -0.8, 0.8]],
                             ids=["speed-1", "speed-2", "speed-1.13"])
    def test_speeds_of_one_or_more_are_superluminal(self, fast):
        still = [0.0, 0.0, 0.0]
        for v1, v2 in ((fast, still), (still, fast)):
            for use in (lambda: k12(v1, v2, [1.0, 0, 0]),
                        lambda: k12(v1, v2, [0, 1.0, 0]),
                        lambda: rigidity_check(v1, v2, np.eye(3)),
                        lambda: SeparationFamilyParams.from_linear_pieces(
                            (0.0, 1.0), [(still, v1, still, v2)])):
                with pytest.raises(SuperluminalError):
                    use()

    @pytest.mark.parametrize("bad", [[np.nan, 0, 0], [0.1, 0.2]], ids=["nan", "two"])
    def test_a_bad_velocity_is_a_domain_error(self, bad):
        with pytest.raises(DomainError):
            k12(bad, [0, 0, 0], [1.0, 0, 0])
        with pytest.raises(DomainError):
            rigidity_check([0, 0, 0], bad, np.eye(3))


    def test_partner_rejects_an_infinite_row_before_dividing(self):
        # inf / inf once warned before the DomainError
        traj2, params, grid, t1s = partner_setups()["static"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite direction components"):
                construct_partner(traj2, params, np.vstack([grid, [np.inf, 0, 0]]), t1s)

    def test_one_direction_check_per_candidate_pass(self, monkeypatch):
        # the far-cone solve checks the rows; `_separation` trusts them
        checked = []

        def counted(dirs):
            checked.append(np.shape(dirs))
            return unit_directions(dirs)

        monkeypatch.setattr(shortrange, "unit_directions", counted)
        monkeypatch.setattr(lightcone, "unit_directions", counted)
        traj2, params, _, _ = partner_setups()["static"]
        t1s = np.linspace(-2.0, 2.0, 5)
        shortrange._candidates(traj2, params, fibonacci_sphere(32), t1s,
                               np.tile([0.0, 1.5, 0.0], (5, 1)))
        assert checked == [(160, 3)]


class TestSewingChain:
    def test_static_forward(self):
        traj1 = static_traj([0, 0, 0])
        traj2 = static_traj([2.0, 0, 0], particle=NEG)
        chain = sewing_chain(traj1, traj2, (2, 0.0), "forward", 3)
        assert [p for p, _ in chain.entries] == [1, 2, 1]
        assert_allclose(chain.times(), [2.0, 4.0, 6.0], atol=1e-10)
        assert not chain.truncated

    def test_static_backward(self):
        traj1 = static_traj([0, 0, 0])
        traj2 = static_traj([2.0, 0, 0], particle=NEG)
        chain = sewing_chain(traj1, traj2, (2, 0.0), "backward", 2)
        assert [p for p, _ in chain.entries] == [1, 2]
        assert_allclose(chain.times(), [-2.0, -4.0], atol=1e-10)

    def test_zero_count(self):
        traj = static_traj([0, 0, 0])
        chain = sewing_chain(traj, static_traj([2, 0, 0]), (2, 0.0), "forward", 0)
        assert chain.entries == ()
        assert not chain.truncated

    def test_truncation_at_domain_exit(self):
        traj1 = static_traj([0, 0, 0], t0=-5.0, t1=5.0)
        traj2 = static_traj([2.0, 0, 0], particle=NEG)
        chain = sewing_chain(traj1, traj2, (2, 0.0), "forward", 5)
        assert chain.truncated
        assert_allclose(chain.times(), [2.0, 4.0], atol=1e-10)

    def test_cone_residual_invariant_moving_pair(self):
        traj1 = uniform_traj([0, 0, 0], [0.2, 0.1, 0])
        traj2 = uniform_traj([3.0, 0, 0], [-0.1, 0.25, 0], particle=NEG)
        trajs = {1: traj1, 2: traj2}
        chain = sewing_chain(traj1, traj2, (1, -1.0), "forward", 6)
        assert len(chain.entries) == 6
        prev = (1, -1.0)
        for cur in chain.entries:
            dt = cur[1] - prev[1]
            r = np.linalg.norm(
                trajs[cur[0]].position(cur[1]) - trajs[prev[0]].position(prev[1])
            )
            assert dt > 0
            assert abs(dt - r) < 1e-10
            prev = cur

    def test_bad_arguments(self):
        traj = static_traj([0, 0, 0])
        with pytest.raises(ConfigError):
            sewing_chain(traj, traj, (1, 0.0), "sideways", 1)
        with pytest.raises(DomainError):
            sewing_chain(traj, traj, (3, 0.0), "forward", 1)

    @pytest.mark.parametrize("count", [2.7, True, -1, "2"])
    def test_bad_counts(self, count):
        # int() would run 2.7 as 2 steps and True as 1
        traj1 = static_traj([0, 0, 0])
        traj2 = static_traj([2.0, 0, 0], particle=NEG)
        with pytest.raises(ConfigError):
            sewing_chain(traj1, traj2, (2, 0.0), "forward", count)

    def test_numpy_integer_count(self):
        traj1 = static_traj([0, 0, 0])
        traj2 = static_traj([2.0, 0, 0], particle=NEG)
        chain = sewing_chain(traj1, traj2, (2, 0.0), "forward", np.int64(2))
        assert len(chain.entries) == 2


class TestConstructPartner:
    def test_static_fixed_point(self):
        traj2 = static_traj([0, 0, 0], particle=NEG)
        params = constant_family([0.0, 1.5, 0.0], [0.0, 0.0, 0.0], (-50.0, 50.0))
        n_grid = cone_directions([0.3, -0.7, 1.0], count=6) + [
            vec3(1.0, 0, 0), vec3(0, 1.0, 0),
        ]
        traj1, report = construct_partner(
            traj2, params, n_grid, np.linspace(-3.0, 3.0, 7)
        )
        assert report.max_spread < 1e-12
        assert_allclose(report.positions, np.tile([0.0, 1.5, 0.0], (7, 1)),
                        atol=1e-12)
        assert_allclose(traj1.position(1.234), [0.0, 1.5, 0.0], atol=1e-12)
        assert_allclose(traj1.velocity(-2.5), np.zeros(3), atol=1e-12)
        assert traj1.particle.charge == 1.0

    def test_polygonal_round_trip(self):
        q1, w = vec3(0.0, 1.5, 0.0), vec3(0.1, 0.0, 0.05)
        u_minus, u_plus = vec3(0.0, -0.2, 0.0), vec3(0.15, 0.1, 0.0)
        traj2 = polygonal_from_vertices(
            [(-60.0, -60.0 * u_minus), (0.0, [0, 0, 0]), (60.0, 60.0 * u_plus)],
            NEG,
        )
        # the breaking event sits at the origin, so its sphere time is 0 for
        # every direction and two intervals with edge 0 describe the family
        params = SeparationFamilyParams.from_linear_pieces(
            (-40.0, 0.0, 40.0),
            [(q1, w, [0, 0, 0], u_minus), (q1, w, [0, 0, 0], u_plus)],
        )
        t1_grid = np.linspace(-4.0, 4.0, 17)
        rec, report = construct_partner(
            traj2, params, cone_directions([0.5, 1.0, -0.3], count=10), t1_grid
        )
        assert report.max_spread < 1e-6
        assert_allclose(report.positions, q1 + np.outer(t1_grid, w), atol=1e-9)
        assert_allclose(rec.position(1.7), q1 + 1.7 * w, atol=1e-9)
        assert_allclose(rec.velocity(-0.3), w, atol=1e-8)
        for n in ([0.0, 0.0, 1.0], [0.6, -0.8, 0.0]):
            res = gah_residual(rec, traj2, 0.5, n)
            assert res is not None
            assert np.linalg.norm(res) < 1e-8

    def test_inconsistent_params_raise_with_report(self):
        traj2 = static_traj([0, 0, 0], particle=NEG)
        d_tab = np.zeros((3, 25))
        d_tab[1, 0] = 5.0  # constant y-offset
        d_tab[0, 2] = 1.0  # degree-1 mode, direction-dependent offset
        params = SeparationFamilyParams.from_harmonic_tables(
            (-50.0, 50.0), [d_tab], [np.zeros((3, 25))]
        )
        with pytest.raises(InconsistentParamsError) as err:
            construct_partner(
                traj2, params,
                cone_directions([1.0, 0.2, 0.4], count=8),
                np.linspace(-2.0, 2.0, 5),
            )
        assert err.value.report is not None
        assert err.value.report.max_spread > 1e-6

    def test_coplanar_grid_rejected(self):
        traj2 = static_traj([0, 0, 0], particle=NEG)
        params = constant_family([0, 1.5, 0], [0, 0, 0], (-50.0, 50.0))
        grid = [[1.0, 0, 0], [0, 1.0, 0], unit([1.0, 1.0, 0.0])]
        with pytest.raises(InsufficientSamplingError):
            construct_partner(traj2, params, grid, np.linspace(-1, 1, 3))

    @pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0]])
    def test_zero_or_non_finite_direction_rejected(self, bad):
        traj2 = static_traj([0, 0, 0], particle=NEG)
        params = constant_family([0, 1.5, 0], [0, 0, 0], (-50.0, 50.0))
        grid = [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], bad]
        with pytest.raises(DomainError):
            construct_partner(traj2, params, grid, np.linspace(-1, 1, 3))

    def test_rows_past_the_square_root_of_the_float_range_are_normalized(self):
        # a plain sum of squares overflows (1e308) or underflows (1e-200);
        # such rows are scaled by their largest entry before the norm
        traj2 = static_traj([0, 0, 0], particle=NEG)
        params = constant_family([0, 1.5, 0], [0, 0, 0], (-50.0, 50.0))
        plain = [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
        extreme = plain[:3] + [[1e308, 1e308, 0.0], [0.0, 1e-200, 1e-200]]
        t1s = np.linspace(-1, 1, 3)
        want, want_report = construct_partner(traj2, params, plain, t1s)
        got, report = construct_partner(traj2, params, extreme, t1s)
        assert np.array_equal(report.positions, want_report.positions)
        assert np.array_equal(got.evaluate(t1s), want.evaluate(t1s))

    def test_non_transverse_params_rejected(self):
        traj2 = static_traj([0, 0, 0], particle=NEG)
        params = SeparationFamilyParams.from_callables(
            (-50.0, 50.0), [lambda n: n], [lambda n: np.zeros(3)],
            project=False,
        )
        with pytest.raises(ContractError):
            construct_partner(
                traj2, params, cone_directions([1, 1, 1], count=6),
                np.linspace(-1, 1, 3),
            )

    def test_family_domain_exceeded(self):
        # the batched solve raises where the sequential reference does
        traj2 = static_traj([0, 0, 0], particle=NEG)
        params = constant_family([0, 1.5, 0], [0, 0, 0], (-1.0, 1.0))
        for solve in (construct_partner, reference_construct_partner):
            with pytest.raises(DomainError, match="outside the family domain"):
                solve(traj2, params, cone_directions([1, 1, 1], count=6),
                      np.linspace(-4.0, 4.0, 5))


def partner_setups() -> dict:
    """(traj2, family, directions, grid times) of five partner solves."""
    linear = SeparationFamilyParams.from_linear_pieces(
        (-40.0, 0.0, 40.0),
        [([0, 1.5, 0], [0.1, 0, 0.05], [0, 0, 0], [0, -0.2, 0]),
         ([0, 1.5, 0], [0.1, 0, 0.05], [0, 0, 0], [0.15, 0.1, 0])])
    kinked = polygonal_from_vertices(
        [(-60.0, [0, 12.0, 0]), (0.0, [0, 0, 0]), (60.0, [9.0, 6.0, 0])], NEG)
    rng = np.random.default_rng(3)
    d_tabs = 0.02 * rng.normal(size=(2, 3, 25))
    d_tabs[:, 1, 0] += 5.0
    harmonic = SeparationFamilyParams.from_harmonic_tables(
        (-50.0, 0.5, 50.0), d_tabs, 0.02 * rng.normal(size=(2, 3, 25)))
    static_grid = cone_directions([0.3, -0.7, 1.0], count=6) + [vec3(1, 0, 0), vec3(0, 1, 0)]
    return {
        "linear": (kinked, linear, cone_directions([0.5, 1.0, -0.3], count=10),
                   np.linspace(-4.0, 4.0, 17)),
        "static": (static_traj([0, 0, 0], particle=NEG),
                   constant_family([0, 1.5, 0], [0, 0, 0], (-50.0, 50.0)), static_grid,
                   np.linspace(-3.0, 3.0, 7)),
        # an inconsistent family: the report is the result
        "harmonic": (uniform_traj([0.5, 0, 0], [0.1, -0.2, 0.05], particle=NEG), harmonic,
                     fibonacci_sphere(12), np.linspace(-3.0, 3.0, 9)),
        # grid times 80 apart on a partner at speed 0.5: one start shared by
        # all grid times, x2(-40), puts t1 = 40's first trial cones at
        # t2 = 120, past the partner's history
        "moving": (uniform_traj([0, 0, 0], [0.5, 0, 0], t0=-60.0, t1=60.0, particle=NEG),
                   constant_family([0, 1.5, 0], [0, 0, 0], (-100.0, 100.0)), static_grid,
                   np.linspace(-40.0, 40.0, 9)),
        # the pair 1e6 from the sphere's centre: sphere times near +-1e6
        "far": (static_traj([1e6, 0, 0], t0=-3e6, t1=3e6, particle=NEG),
                constant_family([0, 1.5, 0], [0, 0, 0], (-3e6, 3e6)), static_grid,
                np.linspace(-3.0, 3.0, 7)),
    }


class TestBatchedPartner:
    """`construct_partner` against the sequential per-grid-time reference."""

    @pytest.mark.parametrize("name", sorted(partner_setups()))
    def test_matches_sequential_reference(self, name):
        traj2, params, grid, t1s = partner_setups()[name]
        _, report = construct_partner(traj2, params, grid, t1s, spread_tol=math.inf)
        positions, spreads = reference_construct_partner(traj2, params, grid, t1s)
        assert_allclose(report.positions, positions, rtol=0.0, atol=1e-12)
        assert_allclose(report.spreads, spreads, rtol=0.0, atol=1e-12)

    def test_cone_exit_is_insufficient_history(self):
        # the partner's history ends at 2.5: the cones of t1 = 5 and 6 leave
        # it whatever the trial position, those of t1 <= 0 never do; each
        # grid time starts at x2 = 0, so its first sphere times are t1
        _, params, grid, _ = partner_setups()["static"]
        traj2 = static_traj([0, 0, 0], t0=-10.0, t1=2.5, particle=NEG)
        t1s = np.array([-3.0, -2.0, -1.0, 0.0, 5.0, 6.0])
        with pytest.raises(InsufficientHistoryError, match=r"^far cone time 5\.0 outside"):
            construct_partner(traj2, params, grid, t1s)
        with pytest.raises(InsufficientHistoryError, match="outside trajectory domain"):
            reference_construct_partner(traj2, params, grid, t1s)

    def test_first_grid_time_outside_the_partner_is_a_domain_error(self):
        traj2, params, grid, _ = partner_setups()["moving"]
        for t1s in ([-70.0, -40.0, 0.0], [61.0, 62.0]):
            for solve in (construct_partner, reference_construct_partner):
                with pytest.raises(DomainError, match=f"^time {t1s[0]} outside domain"):
                    solve(traj2, params, grid, np.array(t1s))

    def test_round_budget_names_an_unsettled_grid_time(self, monkeypatch):
        # the candidates of t1 = 0.5 jump by 1e-3 every pass, so its Newton
        # step never shrinks while every other grid time settles
        candidates, passes = shortrange._candidates, []

        def unsettled(traj2, params, n_grid, t1s, x1s):
            cands, t2, l_vecs = candidates(traj2, params, n_grid, t1s, x1s)
            passes.append(t1s.size)
            cands[t1s == 0.5] += (-1.0) ** len(passes) * 1e-3
            return cands, t2, l_vecs

        monkeypatch.setattr(shortrange, "_candidates", unsettled)
        traj2, params, grid, _ = partner_setups()["static"]
        with pytest.raises(ConvergenceError, match=r"stalled at t1=0\.5$"):
            construct_partner(traj2, params, grid, np.linspace(-1.0, 1.0, 5))
        assert len(passes) == 60
        assert passes[-1] == 1

    def test_bench_partner_job_makes_three_far_cone_passes(self, monkeypatch, tmp_path):
        # the benchmark's seed-1 `construct-partner` job: 33 grid times of 8
        # directions, solved in 2 Newton rounds and a final pass; one
        # grid time at a time it took 99 passes of 8 lanes
        jobs = bench_workloads(monkeypatch).build("radiation", 1, tmp_path)
        job = next(job for job in jobs if job.command == "construct-partner")
        far_cone_times, lanes = shortrange.far_cone_times, []

        def counted(traj, t, dirs, *args):
            lanes.append(len(dirs))
            return far_cone_times(traj, t, dirs, *args)

        monkeypatch.setattr(shortrange, "far_cone_times", counted)
        assert cli.run(job.command, job.dir / job.scenario, quiet=True) == 0
        assert job.gate() is None
        assert lanes == [33 * 8] * 3
