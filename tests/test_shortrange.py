import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers_geometry import scalar_far_cone_time, static_traj, uniform_traj

from wfvar.core import ParticleParams, polygonal_from_vertices, vec3
from wfvar.errors import (
    ConfigError,
    ContractError,
    DomainError,
    InconsistentParamsError,
    InsufficientSamplingError,
    SuperluminalError,
)
from wfvar.farfield import gah_residual, latlong_mesh
from wfvar.lightcone import Branch
from wfvar import shortrange
from wfvar.shortrange import (
    _real_sph_basis,
    SeparationFamilyParams,
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


def construct_two_interval_partner():
    """Run `construct_partner` on a two-interval linear family; returns the
    family."""
    params = SeparationFamilyParams.from_linear_pieces(
        (-40.0, 0.0, 40.0),
        [([0, 1.5, 0], [0.1, 0, 0.05], [0, 0, 0], [0, -0.2, 0]),
         ([0, 1.5, 0], [0.1, 0, 0.05], [0, 0, 0], [0.15, 0.1, 0])])
    traj2 = polygonal_from_vertices(
        [(-60.0, [0, 12.0, 0]), (0.0, [0, 0, 0]), (60.0, [9.0, 6.0, 0])], NEG)
    construct_partner(traj2, params, cone_directions([0.5, 1.0, -0.3], count=10),
                      np.linspace(-2.0, 2.0, 5))
    return params


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

    def test_construct_partner_makes_one_family_call_per_candidate_pass(self, monkeypatch):
        # `_separation` is `separation_family` with the L rows it read
        counts = {"candidates": 0, "family": 0}
        candidates, family = shortrange._candidates, shortrange._separation

        def count(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(shortrange, "_candidates", count("candidates", candidates))
        monkeypatch.setattr(shortrange, "_separation", count("family", family))
        construct_two_interval_partner()
        assert counts["candidates"] > 5
        assert counts["family"] == counts["candidates"]

    def test_construct_partner_reads_the_l_rows_once_per_candidate_pass(self, monkeypatch):
        # the position solve takes its L rows from the candidates' family call
        counts = {"candidates": 0, "l_sigma": 0}
        candidates, l_sigma = shortrange._candidates, SeparationFamilyParams.l_sigma

        def counted_candidates(*args):
            counts["candidates"] += 1
            return candidates(*args)

        def counted_l_sigma(self, sigma, n):
            counts["l_sigma"] += 1
            return l_sigma(self, sigma, n)

        monkeypatch.setattr(shortrange, "_candidates", counted_candidates)
        monkeypatch.setattr(SeparationFamilyParams, "l_sigma", counted_l_sigma)
        params = construct_two_interval_partner()
        assert counts["candidates"] > 5
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
                [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0.5, 0.5, 0]],
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
        traj2 = static_traj([0, 0, 0], particle=NEG)
        params = constant_family([0, 1.5, 0], [0, 0, 0], (-1.0, 1.0))
        with pytest.raises(DomainError):
            construct_partner(
                traj2, params, cone_directions([1, 1, 1], count=6),
                np.linspace(-4.0, 4.0, 5),
            )
