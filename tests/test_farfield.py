import csv
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers_geometry import (
    bits,
    reference_latlong_mesh,
    scalar_far_cone_time,
    scalar_far_field,
    segment_from_global,
    static_traj,
)

from wfvar import farfield
from wfvar.core import ParticleParams, PiecewiseTrajectory, hermite_trajectory, polygonal_from_vertices, vec3
from wfvar.errors import CoverageError, DomainError, InsufficientHistoryError
from wfvar.farfield import (
    FarFieldSample,
    SphereMesh,
    b_via_second_derivative,
    field_map,
    gah_residual,
    gah_residuals,
    latlong_mesh,
    lw_far,
    poynting_flux,
    sphere_flux,
    wf_far,
    write_field_csv,
)
from wfvar.lightcone import Branch, far_cone_time

POS = ParticleParams(mass=1.0, charge=1.0)
NEG = ParticleParams(mass=1.0, charge=-1.0)


def quadratic_charge(half_accel=1.0, span=0.4, particle=POS):
    # x(t) = half_accel * t^2 along x, so a = 2*half_accel and v(0) = 0
    return PiecewiseTrajectory.from_segments(
        (segment_from_global(-span, span, [[0, 0, half_accel], [0], [0]]),), particle
    )


def cubic_charge(particle=POS):
    rows = 0.6 * np.array(
        [
            [0.1, 0.3, -0.2, 0.05],
            [-0.2, 0.1, 0.15, -0.08],
            [0.05, -0.25, 0.1, 0.02],
        ]
    )
    return PiecewiseTrajectory.from_segments((segment_from_global(-1.0, 1.0, rows),), particle)


def circle_pair(omega=0.5, rho=0.4, span=10.0, dt=0.1):
    """Antipodal pair on a circle, sampled onto Hermite cells."""
    times = np.arange(-span, span + 0.5 * dt, dt)
    xs = np.stack(
        [rho * np.cos(omega * times), rho * np.sin(omega * times), 0 * times], axis=1
    )
    vs = np.stack(
        [
            -rho * omega * np.sin(omega * times),
            rho * omega * np.cos(omega * times),
            0 * times,
        ],
        axis=1,
    )
    traj1 = hermite_trajectory(times, xs, vs, POS)
    traj2 = hermite_trajectory(times, -xs, -vs, NEG)
    return traj1, traj2


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestLwFar:
    def test_hand_value(self):
        traj = quadratic_charge()
        e, b = lw_far(traj, 10.0, [0, 0, 1], 10.0)
        assert_allclose(e, [-0.2, 0, 0], atol=1e-12)
        assert_allclose(b, [0, -0.2, 0], atol=1e-12)

    def test_static_charge_has_no_radiation(self):
        traj = static_traj([0.3, -0.1, 0.2], particle=POS)
        for branch in Branch:
            e, b = lw_far(traj, 50.0, [1, 0, 0], 40.0, branch)
            assert_allclose(e, 0.0, atol=1e-15)
            assert_allclose(b, 0.0, atol=1e-15)

    def test_polygonal_interior_has_no_radiation(self):
        traj = polygonal_from_vertices(
            [(-20.0, [0, 0, 0]), (0.0, [1, 2, 0]), (20.0, [0, 0, 1])], POS
        )
        e, b = lw_far(traj, 35.0, [0, 1, 0], 30.0)
        assert_allclose(e, 0.0, atol=1e-15)
        assert_allclose(b, 0.0, atol=1e-15)

    def test_advanced_hand_value(self):
        traj = quadratic_charge()
        e, b = lw_far(traj, -10.0, [0, 0, 1], 10.0, Branch.ADVANCED)
        assert_allclose(e, [-0.2, 0, 0], atol=1e-12)
        assert_allclose(b, [0, 0.2, 0], atol=1e-12)

    def test_rejects_bad_inputs(self):
        traj = quadratic_charge()
        with pytest.raises(DomainError):
            lw_far(traj, 10.0, [0, 0, 2], 10.0)
        with pytest.raises(DomainError):
            lw_far(traj, 10.0, [0, 0, 1], -1.0)


RADIUS_CALLS = {
    "lw_far": lambda a, b, R: lw_far(a, 50.0, [1, 0, 0], R),
    "b_via_second_derivative": lambda a, b, R: b_via_second_derivative(a, 50.0, [1, 0, 0], R),
    "wf_far": lambda a, b, R: wf_far(a, b, 50.0, [1, 0, 0], R),
    "field_map": lambda a, b, R: field_map(a, b, 50.0, R, latlong_mesh(3, 4)),
    "sphere_flux": lambda a, b, R: sphere_flux(a, b, 50.0, R, latlong_mesh(3, 4)),
}


@pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf, 0.0, -1.0],
                         ids=["nan", "inf", "minus-inf", "zero", "negative"])
@pytest.mark.parametrize("name", sorted(RADIUS_CALLS))
def test_sphere_radius_must_be_finite_and_positive(name, R):
    # a non-finite radius once gave zero fields, or a NaN flux
    pair = static_traj([0, 0, 0], particle=POS), static_traj([1, 0, 0], particle=NEG)
    with pytest.raises(DomainError, match="sphere radius"):
        RADIUS_CALLS[name](*pair, R)


class TestSecondDerivativeRoute:
    def test_matches_lw_far_on_random_samples(self):
        # Small radius keeps both cone times inside the one-segment domain;
        # the two routes are algebraically identical at any R.
        traj = cubic_charge()
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = random_unit(rng)
            t = rng.uniform(-0.1, 0.1)
            for branch in Branch:
                _, b_lw = lw_far(traj, t, n, 0.45, branch)
                b_d2 = b_via_second_derivative(traj, t, n, 0.45, branch)
                assert np.linalg.norm(b_lw - b_d2) < 1e-10

    def test_uniform_motion_gives_zero(self):
        traj = PiecewiseTrajectory.from_segments(
            (segment_from_global(-5.0, 5.0, [[0, 0.4], [1, 0], [0, -0.2]]),), POS
        )
        b = b_via_second_derivative(traj, 100.0, [0, 0, 1], 100.0)
        assert_allclose(b, 0.0, atol=1e-15)


class TestWfFar:
    def test_static_pair_all_zero(self):
        s1 = static_traj([0, 0, 0], particle=POS)
        s2 = static_traj([1, 0, 0], particle=NEG)
        sample = wf_far(s1, s2, 30.0, [0, 0, 1], 25.0)
        assert sample.defined
        for f in (sample.E_ret, sample.E_adv, sample.E, sample.B):
            assert_allclose(f, 0.0, atol=1e-15)

    def test_opposite_charges_on_one_trajectory_cancel(self):
        t1 = cubic_charge(POS)
        t2 = cubic_charge(NEG)
        sample = wf_far(t1, t2, 0.0, [0, 1, 0], 0.45)
        assert_allclose(sample.E_ret, 0.0, atol=1e-15)
        assert_allclose(sample.E_adv, 0.0, atol=1e-15)

    def test_transversality_and_reconstruction(self):
        traj1, traj2 = circle_pair()
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = random_unit(rng)
            sample = wf_far(traj1, traj2, rng.uniform(-1, 1), n, 8.0)
            assert abs(n @ sample.E_ret) < 1e-10
            assert_allclose(sample.B_ret, np.cross(n, sample.E_ret), atol=1e-12)
            assert_allclose(sample.E_ret, -np.cross(n, sample.B_ret), atol=1e-10)

    def test_circular_pair_radiates(self):
        traj1, traj2 = circle_pair()
        n = vec3([0.3, -0.5, 0.8])
        n = n / np.linalg.norm(n)
        sample = wf_far(traj1, traj2, 0.2, n, 8.0)
        assert np.linalg.norm(sample.E_ret) > 1e-6

    def test_combined_fields_are_the_half_sums(self):
        # each branch's B sums `lw_far` over the charges, the combined B is
        # half the retarded plus half the advanced one, and the Poynting flux
        # is its inward radial component -n.(E x B)
        traj1, traj2 = circle_pair()
        n = vec3([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
        sample = wf_far(traj1, traj2, 0.2, n, 8.0)
        for branch, got in ((Branch.RETARDED, sample.B_ret), (Branch.ADVANCED, sample.B_adv)):
            want = sum(lw_far(traj, 0.2, n, 8.0, branch)[1] for traj in (traj1, traj2))
            assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
        half = 0.5 * (sample.B_ret + sample.B_adv)
        assert np.abs(half).max() > 1e-3
        assert_allclose(sample.B, half, rtol=0, atol=1e-15 * np.abs(half).max())
        assert_allclose(sample.E, 0.5 * (sample.E_ret + sample.E_adv), rtol=0, atol=0)
        flux = poynting_flux(sample.E_adv, sample.E_ret)
        assert abs(flux) > 1e-6
        assert abs(flux + n @ np.cross(sample.E, sample.B)) <= 1e-12 * abs(flux)

    def test_guard_band_monotonicity(self):
        traj1 = polygonal_from_vertices(
            [(-120.0, [-6, 0, 0]), (0.0, [0, 0, 0]), (120.0, [0, 6, 0])], POS
        )
        traj2 = static_traj([0, 2, 0], particle=NEG)
        # n orthogonal to both motions: the retarded cone time is exactly
        # t - R, which lands 0.03 after the vertex.
        args = (traj1, traj2, 50.03, [0, 0, 1], 50.0)
        tight = wf_far(*args, guard=1e-9)
        loose = wf_far(*args, guard=0.1)
        assert tight.defined and not loose.defined
        assert_allclose(loose.E, tight.E, atol=0)
        assert_allclose(loose.B_ret, tight.B_ret, atol=0)


class TestGahResidual:
    def test_polygonal_pair_vanishes_off_the_vertices(self):
        traj1 = polygonal_from_vertices(
            [(-30.0, [-2, 0, 0]), (-1.0, [0.4, 0.3, 0]), (1.0, [-0.2, 0.5, 0.1]),
             (2.0, [0, 0, 0]), (30.0, [1, -1, 0.5])], POS
        )
        traj2 = polygonal_from_vertices(
            [(-30.0, [0, -1, 2]), (0.5, [0.2, 0.4, 2.3]), (30.0, [-1, 0.5, 2])], NEG
        )
        res = gah_residual(traj1, traj2, 5.2, [0.6, 0.8, 0])
        assert res is not None
        assert np.linalg.norm(res) < 1e-10

    def test_identical_trajectories_cancel(self):
        res = gah_residual(cubic_charge(POS), cubic_charge(NEG), 0.3, [0, 0, 1])
        assert_allclose(res, 0.0, atol=1e-15)

    def test_vertex_cone_image_is_undefined(self):
        traj1 = polygonal_from_vertices(
            [(-20.0, [-4, 0, 0]), (2.0, [0.4, 0, 0]), (20.0, [0.4, 3.6, 0])], POS
        )
        traj2 = static_traj([0, 1, 0], particle=NEG)
        # motions lie in the z = 0 plane, so with n = z the sphere time is t
        assert gah_residual(traj1, traj2, 2.0, [0, 0, 1]) is None
        off = gah_residual(traj1, traj2, 2.5, [0, 0, 1])
        assert np.linalg.norm(off) < 1e-10

    def test_circular_pair_does_not_satisfy_gah(self):
        traj1, traj2 = circle_pair(omega=0.5, rho=0.4)
        # t picked between interpolation nodes, which are breaking times
        res = gah_residual(traj1, traj2, 0.043, [0, 0, 1])
        # antipodal accelerations add up; scale is 2 q omega^2 rho
        assert np.linalg.norm(res) > 0.01 * 0.5**2 * 0.4


class TestPoyntingFlux:
    def test_time_symmetric_cancels(self):
        assert poynting_flux([0.1, 0.2, 0], [0.2, -0.1, 0]) == 0.0

    def test_hand_values(self):
        assert abs(poynting_flux([0, 0, 0], [0.2, 0, 0]) + 0.01) < 1e-15
        assert abs(poynting_flux([0, 0.2, 0], [0, 0, 0]) - 0.01) < 1e-15


class TestSphereMesh:
    def test_weights_and_low_moments(self):
        mesh = latlong_mesh()
        assert len(mesh) == 17 * 35
        assert abs(mesh.weights.sum() - 1.0) < 1e-13
        mean_n = mesh.weights @ mesh.directions
        assert_allclose(mean_n, 0.0, atol=1e-14)
        mean_nz2 = mesh.weights @ mesh.directions[:, 2] ** 2
        assert abs(mean_nz2 - 1.0 / 3.0) < 1e-13

    @pytest.mark.parametrize("size", [(), (1, 1), (3, 4), (6, 9), (24, 61)])
    def test_mesh_matches_the_point_by_point_build(self, size):
        mesh = latlong_mesh(*size)
        directions, weights = reference_latlong_mesh(*size)
        assert mesh.directions.shape == directions.shape
        assert bits(mesh.directions) == bits(directions)
        assert bits(mesh.weights) == bits(weights)

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            SphereMesh(np.zeros((4, 2)), np.full(4, 0.25))

    def test_empty_mesh_rejected(self):
        with pytest.raises(DomainError):
            SphereMesh(np.zeros((0, 3)), np.zeros(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.25])
    def test_weights_must_be_finite_and_positive(self, bad):
        mesh = latlong_mesh(3, 4)
        weights = mesh.weights.copy()
        weights[5] = bad
        with pytest.raises(DomainError):
            SphereMesh(mesh.directions, weights)
        with pytest.raises(DomainError):
            SphereMesh(mesh.directions, -mesh.weights)

    def test_directions_must_be_unit_vectors(self):
        mesh = latlong_mesh(3, 4)
        for scale in (1.0 + 1e-6, 0.5):
            dirs = mesh.directions.copy()
            dirs[2] *= scale
            with pytest.raises(DomainError):
                SphereMesh(dirs, mesh.weights)
        dirs = mesh.directions.copy()
        dirs[0, 0] = np.nan
        with pytest.raises(DomainError):
            SphereMesh(dirs, mesh.weights)

    @pytest.mark.parametrize("excess, accepted", [(7.5e-10, True), (2e-9, False)])
    def test_one_unit_rule_for_solver_fields_and_mesh(self, excess, accepted):
        # |n| - 1 = 7.5e-10 is within the solver's 1e-9, though |n|^2 - 1 is not
        n = np.array([1.0 + excess, 0.0, 0.0])
        traj = quadratic_charge(half_accel=0.05, span=5.0)
        verdicts = []
        partner = static_traj([0, 3.0, 0], particle=NEG)
        for use in (lambda: far_cone_time(traj, 0.0, n, 1.0),
                    lambda: lw_far(traj, 0.0, n, 1.0),
                    lambda: b_via_second_derivative(traj, 0.0, n, 1.0),
                    lambda: wf_far(traj, partner, 0.0, n, 1.0),
                    lambda: gah_residual(traj, partner, 0.0, n),
                    lambda: SphereMesh(n[None], np.ones(1))):
            try:
                use()
                verdicts.append(True)
            except DomainError:
                verdicts.append(False)
        assert verdicts == [accepted] * 6

    @pytest.mark.parametrize("n", [[0.0, 0, 0], [0, 2.0, 0], [np.nan, 0, 1], [0, np.inf, 0],
                                   [1.0, 0], np.eye(3)[:2]],
                             ids=["zero", "long", "nan", "inf", "two", "rows"])
    def test_fields_reject_bad_directions(self, n):
        traj = quadratic_charge(half_accel=0.05, span=5.0)
        partner = static_traj([0, 3.0, 0], particle=NEG)
        for use in (lambda: lw_far(traj, 0.0, n, 1.0),
                    lambda: b_via_second_derivative(traj, 0.0, n, 1.0),
                    lambda: wf_far(traj, partner, 0.0, n, 1.0),
                    lambda: gah_residual(traj, partner, 0.0, n)):
            with pytest.raises(DomainError):
                use()


class TestSphereFlux:
    def test_static_pair_is_zero(self):
        s1 = static_traj([0, 0, 0], particle=POS)
        s2 = static_traj([1, 0, 0], particle=NEG)
        assert sphere_flux(s1, s2, 40.0, 30.0) == 0.0

    def test_polygonal_pair_is_zero_almost_everywhere(self):
        traj1 = polygonal_from_vertices(
            [(-150.0, [-2, 0, 0]), (-1.0, [0.4, 0.3, 0]), (1.0, [-0.2, 0.5, 0.1]),
             (2.0, [0, 0, 0]), (150.0, [1, -1, 0.5])], POS
        )
        traj2 = polygonal_from_vertices(
            [(-150.0, [0, -1, 2]), (0.5, [0.2, 0.4, 2.3]), (150.0, [-1, 0.5, 2])], NEG
        )
        for t in (-1.0, 0.0, 1.5):
            assert abs(sphere_flux(traj1, traj2, t, 50.0)) < 1e-8

    def test_retarded_only_matches_dipole_power(self):
        accel = 0.06
        traj = quadratic_charge(half_accel=accel / 2, span=0.45)
        flux = sphere_flux(traj, None, 100.0, 100.0, retarded_only=True)
        larmor = (2.0 / 3.0) * accel**2
        assert flux < 0
        assert abs(-flux - larmor) < 0.05 * larmor

    def test_guard_coverage_error(self):
        traj1 = polygonal_from_vertices(
            [(-120.0, [-6, 0, 0]), (0.0, [0, 0, 0]), (120.0, [0, 6, 0])], POS
        )
        traj2 = static_traj([0, 2, 0], particle=NEG)
        with pytest.raises(CoverageError):
            sphere_flux(traj1, traj2, 50.0, 49.0, guard=1e6)

    @pytest.mark.parametrize("case", ["circle pair", "given mesh", "lone charge"])
    def test_times_give_their_float_calls_bit_for_bit(self, case):
        traj1, traj2 = circle_pair()
        times = np.array([0.3, -1.1, 0.3, 2.0])
        args, kwargs = (traj1, traj2, times, 6.0), {}
        if case == "given mesh":
            kwargs = {"mesh": latlong_mesh(5, 7)}
        elif case == "lone charge":
            args = (quadratic_charge(half_accel=0.03, span=0.45), None, 100.0 + 0.01 * times, 100.0)
            kwargs = {"retarded_only": True}
        fluxes = sphere_flux(*args, **kwargs)
        assert fluxes.shape == times.shape
        floats = [sphere_flux(*args[:2], float(t), args[3], **kwargs) for t in args[2]]
        assert all(type(f) is float for f in floats)
        assert bits(fluxes) == bits(floats)
        assert np.all(fluxes != 0.0)

    def test_one_time_passes_the_mesh_rows_as_they_are(self, monkeypatch):
        traj1, traj2 = circle_pair()
        mesh = latlong_mesh(5, 7)
        seen = []
        far_cone_times = farfield.far_cone_times

        def recorded(traj, t, dirs, *args):
            seen.append(dirs is mesh.directions)
            return far_cone_times(traj, t, dirs, *args)

        monkeypatch.setattr(farfield, "far_cone_times", recorded)
        one = sphere_flux(traj1, traj2, 0.3, 6.0, mesh=mesh)
        assert bits(sphere_flux(traj1, traj2, np.array([0.3]), 6.0, mesh=mesh)) == bits([one])
        assert seen == [True] * 8
        sphere_flux(traj1, traj2, np.array([0.3, 0.3]), 6.0, mesh=mesh)
        assert seen[8:] == [False] * 4

    def test_the_first_thin_time_raises_and_is_named(self):
        # the kink at t = 0 takes every retarded cone of t = R = 49 into the
        # unit guard band; t = 48.5 is thin too, t = 59 is covered
        traj1 = polygonal_from_vertices(
            [(-120.0, [-6, 0, 0]), (0.0, [0, 0, 0]), (120.0, [0, 6, 0])], POS
        )
        traj2 = static_traj([0, 2, 0], particle=NEG)
        assert math.isfinite(sphere_flux(traj1, traj2, 59.0, 49.0, guard=1.0))
        with pytest.raises(CoverageError, match="at t = 48.5 fall"):
            sphere_flux(traj1, traj2, 48.5, 49.0, guard=1.0)
        with pytest.raises(CoverageError, match="at t = 49.0 fall"):
            sphere_flux(traj1, traj2, np.array([59.0, 49.0, 48.5]), 49.0, guard=1.0)

    def test_a_far_cone_exit_keeps_its_class(self):
        traj1, traj2 = circle_pair()
        with pytest.raises(InsufficientHistoryError):
            sphere_flux(traj1, traj2, np.array([0.0, 20.0]), 6.0)

    def test_times_must_be_a_float_or_one_axis(self):
        traj1, traj2 = circle_pair()
        assert sphere_flux(traj1, traj2, np.array([]), 6.0).shape == (0,)
        with pytest.raises(DomainError, match="float or \\(T,\\)"):
            sphere_flux(traj1, traj2, np.zeros((2, 1)), 6.0)


class TestBatchedAgainstPerDirectionLoops:
    """The array kernel against per-direction scalar routes: `scalar_far_field`
    and `b_via_second_derivative`, with their far cone times from the scalar
    reference solve."""

    @pytest.fixture(autouse=True)
    def scalar_far_cones(self, monkeypatch):
        monkeypatch.setattr(farfield, "far_cone_time", scalar_far_cone_time)

    def test_field_map_sums_lw_far_per_charge(self):
        traj1, traj2 = circle_pair()
        mesh = latlong_mesh(5, 7)
        samples = field_map(traj1, traj2, 0.3, 6.0, mesh=mesh)
        scale = max(np.abs(s.E_ret).max() for s in samples)
        for sample, n in zip(samples, mesh.directions):
            assert sample.defined
            for branch, got in ((Branch.RETARDED, sample.E_ret), (Branch.ADVANCED, sample.E_adv)):
                want = sum(scalar_far_field(traj, 0.3, n, 6.0, branch) for traj in (traj1, traj2))
                assert_allclose(got, want, rtol=0, atol=1e-13 * scale)

    def test_sphere_flux_matches_a_per_direction_loop(self):
        traj1, traj2 = cubic_charge(POS), quadratic_charge(0.3, span=1.0, particle=NEG)
        mesh = latlong_mesh(6, 9)
        R, t = 0.3, 0.05
        total = 0.0
        for n, w in zip(mesh.directions, mesh.weights):
            e = {b: sum(scalar_far_field(tr, t, n, R, b) for tr in (traj1, traj2)) for b in Branch}
            total += w * poynting_flux(e[Branch.ADVANCED], e[Branch.RETARDED])
        want = R * R * total / mesh.weights.sum()
        got = sphere_flux(traj1, traj2, t, R, mesh=mesh)
        assert abs(want) > 1e-3
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_gah_residuals_match_the_second_derivative_route(self):
        # gah(t, n) = R (B1 + B2) at observation time t + R, where both
        # retarded cone times equal the R-subtracted ones
        traj1, traj2 = circle_pair()
        rng = np.random.default_rng(3)
        dirs = np.array([random_unit(rng) for _ in range(24)])
        times = rng.uniform(-2.0, 2.0, 24)
        res, defined = gah_residuals(traj1, traj2, times, dirs)
        for t, n, g, ok in zip(times, dirs, res, defined):
            near = any(abs(t_k - j) < 1e-9
                       for traj in (traj1, traj2)
                       for t_k in [scalar_far_cone_time(traj, t, n, 0.0)]
                       for j in traj.junction_times())
            assert ok == (not near)
            want = sum(b_via_second_derivative(traj, t + 1.0, n, 1.0) for traj in (traj1, traj2))
            assert_allclose(g, want, rtol=0, atol=1e-12)
            single = gah_residual(traj1, traj2, t, n)
            assert np.array_equal(single, g)

    def test_gah_residuals_flag_the_vertex_cone_lane(self):
        traj1 = polygonal_from_vertices(
            [(-20.0, [-4, 0, 0]), (2.0, [0.4, 0, 0]), (20.0, [0.4, 3.6, 0])], POS
        )
        traj2 = static_traj([0, 1, 0], particle=NEG)
        dirs = np.array([[0.0, 0.0, 1.0]] * 3)
        res, defined = gah_residuals(traj1, traj2, [2.5, 2.0, 3.0], dirs)
        assert defined.tolist() == [True, False, True]
        assert np.abs(res[defined]).max() < 1e-10


class TestCsvExport:
    def test_round_trip(self, tmp_path):
        s1 = static_traj([0, 0, 0], particle=POS)
        s2 = static_traj([1, 0, 0], particle=NEG)
        samples = field_map(s1, s2, 30.0, 25.0, mesh=latlong_mesh(3, 4))
        path = tmp_path / "fields.csv"
        write_field_csv(samples, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "nx", "ny", "nz", "Ex", "Ey", "Ez", "Bx", "By", "Bz", "defined"]
        assert len(rows) == 1 + 12
        assert all(r[-1] == "1" for r in rows[1:])
        assert float(rows[1][0]) == 30.0

    def test_bytes(self, tmp_path):
        # bare newlines, as in every CLI report, and the 17-digit floats
        s1 = static_traj([0, 0, 0], particle=POS)
        s2 = static_traj([1, 0, 0], particle=NEG)
        samples = field_map(s1, s2, 30.0, 25.0, mesh=latlong_mesh(1, 2))
        path = tmp_path / "fields.csv"
        write_field_csv(samples, path)
        assert path.read_bytes() == (
            b"t,nx,ny,nz,Ex,Ey,Ez,Bx,By,Bz,defined\n"
            b"30,6.123233995736766e-17,1,0,0,0,0,0,0,0,1\n"
            b"30,-1.8369701987210297e-16,-1,0,0,0,0,0,0,0,1\n")
