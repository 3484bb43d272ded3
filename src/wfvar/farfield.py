"""Radiation far fields of piecewise-smooth charge pairs.

Fields are evaluated in the far-field limit on a sphere of radius R much
larger than the orbit, where the light-cone condition linearizes to
t_k = t -+ R +- n.x(t_k).  Everything here is per unit charge-squared in
Heaviside-like units with c = 1; the sphere-averaged flux of the combined
field reproduces the classical dipole power for a slow retarded-only source.

Breaking points make the fields one-sided along the cone images of the
breaking times.  Samples whose cone time falls within a guard band of a
breaking time are flagged undefined rather than raising, since they form a
measure-zero set that surface integrals may skip.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import PiecewiseTrajectory, Vec3, cross, vec3
from .errors import CoverageError, DomainError
from .lightcone import Branch, far_cone_time, far_cone_times, unit_directions

GUARD_BAND = 1e-9
_BOTH_BRANCHES = (Branch.RETARDED, Branch.ADVANCED)


def _unit(n) -> Vec3:
    return unit_directions(vec3(n)[None])[0]


def _dot(a, b):
    """Row-wise dot product of (..., 3) arrays."""
    return (a * b).sum(axis=-1)


def _near_break(traj: PiecewiseTrajectory, t_k: np.ndarray, guard: float) -> np.ndarray:
    """Whether a junction lies within `guard` of each time t_k; only the two
    junctions around a time can be the nearest."""
    junctions = traj.packed.knots[1:-1]
    if not junctions.size:
        return np.zeros(t_k.shape, dtype=bool)
    i = np.searchsorted(junctions, t_k)
    below = junctions[np.maximum(i - 1, 0)]
    above = junctions[np.minimum(i, junctions.size - 1)]
    return (np.abs(t_k - below) < guard) | (np.abs(t_k - above) < guard)


def _far_kinematics(traj, t, n, R, branch):
    """Far cone time with the right-sided velocity and acceleration there."""
    t_k = far_cone_time(traj, t, n, R, branch)
    return t_k, traj.evaluate(t_k, 1), traj.evaluate(t_k, 2)


def _lw_field(q, n, R, v, a, branch):
    """One charge's far electric field, per (..., 3) row; the advanced branch
    is the time reflection."""
    s = float(branch.sign)  # +1 retarded, -1 advanced
    g = np.asarray(1.0 - s * _dot(n, v))[..., None]
    return (q / R) * cross(n, cross(n - s * v, a)) / g**3


def _second_derivative(n, v, a, branch):
    """d^2/dt^2 x(t_k(t)) per (..., 3) row (see `b_via_second_derivative`)."""
    s = float(branch.sign)
    g = np.asarray(1.0 - s * _dot(n, v))[..., None]
    return a / g**2 + s * _dot(n, a)[..., None] * v / g**3


def lw_far(traj: PiecewiseTrajectory, t: float, n, R: float,
           branch: Branch = Branch.RETARDED) -> tuple:
    """Far electric and magnetic field of one charge at (t, R n)."""
    n = _unit(n)
    if R <= 0.0:
        raise DomainError("sphere radius must be positive")
    _, v, a = _far_kinematics(traj, t, n, R, branch)
    e = _lw_field(traj.particle.charge, n, R, v, a, branch)
    return e, float(branch.sign) * cross(n, e)


def b_via_second_derivative(traj: PiecewiseTrajectory, t: float, n, R: float,
                            branch: Branch = Branch.RETARDED) -> Vec3:
    """Far magnetic field through the second time derivative of the cone image.

    Writing x_k(t_k(t)) as a function of observation time and differentiating
    the cone condition twice gives

        d^2/dt^2 x(t_k) = a/g^2 + s (n.a) v / g^3,   g = 1 - s n.v,

    and B = -s (q n / R) x d^2/dt^2 x(t_k).  This is an independent route to
    the same field and is kept as a cross check.
    """
    n = _unit(n)
    if R <= 0.0:
        raise DomainError("sphere radius must be positive")
    _, v, a = _far_kinematics(traj, t, n, R, branch)
    s = float(branch.sign)
    return -s * (traj.particle.charge / R) * cross(n, _second_derivative(n, v, a, branch))


@dataclass(frozen=True)
class FarFieldSample:
    """Combined two-charge far fields at one sphere point.

    `defined` is False when any contributing cone time lies within the guard
    band of a breaking time; the field values are then one-sided limits.
    """

    t: float
    n: Vec3
    R: float
    E_ret: Vec3
    B_ret: Vec3
    E_adv: Vec3
    B_adv: Vec3
    E: Vec3
    B: Vec3
    defined: bool


def _branch_totals(trajs, t, dirs, R, guard, branches=_BOTH_BRANCHES, field=_lw_field):
    """Per-lane sums of `field` over the given charges, one (M, 3) array per
    branch, and the lanes' guard flags.

    Lane i is the event time t (or t[i]) in direction dirs[i]; every charge
    and branch solves all lanes in one `far_cone_times` pass.
    """
    totals = {branch: np.zeros(dirs.shape) for branch in branches}
    defined = np.ones(dirs.shape[0], dtype=bool)
    for traj in trajs:
        for branch in branches:
            t_k = far_cone_times(traj, t, dirs, R, branch)
            defined &= ~_near_break(traj, t_k, guard)
            v, a = traj.evaluate(t_k, 1), traj.evaluate(t_k, 2)
            totals[branch] += field(traj.particle.charge, dirs, R, v, a, branch)
    return totals, defined


def _gah_field(q, n, R, v, a, branch):
    """One charge's share of the gah residual: q d^2/dt^2 x(t_k)."""
    return q * _second_derivative(n, v, a, branch)


def _samples(t, dirs, R, totals, defined) -> list:
    e_ret, e_adv = totals[Branch.RETARDED], totals[Branch.ADVANCED]
    b_ret, b_adv = cross(dirs, e_ret), cross(dirs, e_adv)
    e_tot = 0.5 * (e_adv + e_ret)
    b_tot = 0.5 * b_adv - 0.5 * b_ret
    return [FarFieldSample(t=t, n=dirs[i], R=R, E_ret=e_ret[i], B_ret=b_ret[i],
                           E_adv=e_adv[i], B_adv=-b_adv[i], E=e_tot[i], B=b_tot[i],
                           defined=bool(defined[i]))
            for i in range(dirs.shape[0])]


def wf_far(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory, t: float,
           n, R: float, guard: float = GUARD_BAND) -> FarFieldSample:
    """Half-advanced plus half-retarded fields of both charges at (t, R n)."""
    dirs = _unit(n)[None]
    if R <= 0.0:
        raise DomainError("sphere radius must be positive")
    totals, defined = _branch_totals((traj1, traj2), t, dirs, R, guard)
    return _samples(t, dirs, R, totals, defined)[0]


def gah_residuals(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
                  t, dirs, guard: float = GUARD_BAND) -> tuple:
    """`gah_residual` for many lanes at once: sphere times `t` (a float or
    (M,)) with unit directions `dirs` ((M, 3)).

    Returns the (M, 3) residuals and the (M,) flags of the lanes where both
    retarded cone times stay out of every guard band; the residual of an
    undefined lane is a one-sided value and carries no meaning.
    """
    dirs = unit_directions(dirs)
    totals, defined = _branch_totals((traj1, traj2), t, dirs, 0.0, guard,
                                     (Branch.RETARDED,), field=_gah_field)
    return -cross(dirs, totals[Branch.RETARDED]), defined


def gah_residual(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
                 t: float, n, guard: float = GUARD_BAND):
    """Total retarded far magnetic field with the 1/R factored out.

    Evaluated at the R-subtracted sphere time, so the result depends only on
    (t, n).  Returns None when either retarded cone time falls in the guard
    band of a breaking time; vanishing almost everywhere characterizes
    non-radiating pairs.
    """
    residuals, defined = gah_residuals(traj1, traj2, t, _unit(n)[None], guard)
    return residuals[0] if defined[0] else None


def poynting_flux(E_adv, E_ret):
    """Radial component of the generalized Poynting vector, per (..., 3) row."""
    E_adv = np.asarray(E_adv, dtype=float)
    E_ret = np.asarray(E_ret, dtype=float)
    return 0.25 * (_dot(E_adv, E_adv) - _dot(E_ret, E_ret))


@dataclass(frozen=True)
class SphereMesh:
    """Direction set with mean-one quadrature weights (sum(w) = 1).

    Raises DomainError unless there is at least one direction, every
    direction is a unit vector and every weight is finite and positive.
    """

    directions: np.ndarray  # (M, 3) unit rows
    weights: np.ndarray  # (M,), positive, summing to 1

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if d.ndim != 2 or d.shape[1] != 3 or w.shape != (d.shape[0],):
            raise DomainError("mesh needs (M, 3) directions and (M,) weights")
        if not d.shape[0]:
            raise DomainError("mesh needs at least one direction")
        if not np.all(np.isfinite(w) & (w > 0.0)):
            raise DomainError("mesh weights must be finite and positive")
        object.__setattr__(self, "directions", unit_directions(d))
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return self.directions.shape[0]


def latlong_mesh(n_theta: int = 17, n_phi: int = 35) -> SphereMesh:
    """Gauss-Legendre nodes in cos(theta) crossed with uniform longitudes.

    Integrates spherical harmonics exactly to high degree, so smooth
    direction dependence converges fast; the default has 595 points.
    """
    nodes, wts = np.polynomial.legendre.leggauss(n_theta)
    dirs = []
    weights = []
    for ct, w in zip(nodes, wts):
        st = np.sqrt(max(0.0, 1.0 - ct * ct))
        for j in range(n_phi):
            phi = 2.0 * np.pi * (j + 0.5) / n_phi
            dirs.append([st * np.cos(phi), st * np.sin(phi), ct])
            weights.append(w / (2.0 * n_phi))
    return SphereMesh(np.array(dirs), np.array(weights))


def field_map(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory, t: float,
              R: float, mesh: SphereMesh | None = None,
              guard: float = GUARD_BAND) -> list:
    """Far-field samples over a whole direction mesh at one time."""
    mesh = latlong_mesh() if mesh is None else mesh
    if R <= 0.0:
        raise DomainError("sphere radius must be positive")
    totals, defined = _branch_totals((traj1, traj2), t, mesh.directions, R, guard)
    return _samples(t, mesh.directions, R, totals, defined)


def sphere_flux(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory | None,
                t: float, R: float, mesh: SphereMesh | None = None,
                retarded_only: bool = False, guard: float = GUARD_BAND) -> float:
    """Surface integral of the generalized Poynting flux at radius R.

    Undefined samples are skipped and the quadrature renormalized by the
    covered weight, which is safe because they form a measure-zero set.  With
    `retarded_only` the advanced fields are dropped and the integrand becomes
    -|E_ret|^2, whose magnitude reduces to the classical dipole power for a
    slow source; the sign still marks outflow as negative.  Pass traj2=None
    for a single isolated charge.
    """
    mesh = latlong_mesh() if mesh is None else mesh
    if R <= 0.0:
        raise DomainError("sphere radius must be positive")
    trajs = (traj1,) if traj2 is None else (traj1, traj2)
    branches = (Branch.RETARDED,) if retarded_only else _BOTH_BRANCHES
    totals, defined = _branch_totals(trajs, t, mesh.directions, R, guard, branches)
    e_ret = totals[Branch.RETARDED]
    if retarded_only:
        values = -_dot(e_ret, e_ret)
    else:
        values = poynting_flux(totals[Branch.ADVANCED], e_ret)
    skipped = len(mesh) - int(defined.sum())
    if skipped > 0.10 * len(mesh):
        raise CoverageError(
            f"{skipped} of {len(mesh)} sphere samples fall in guard bands"
        )
    w = mesh.weights[defined]
    return R * R * float(w @ values[defined]) / float(w.sum())


def write_field_csv(samples, path) -> None:
    """Field map as CSV with one row per sample; `defined` is 0 or 1."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t", "nx", "ny", "nz", "Ex", "Ey", "Ez", "Bx", "By", "Bz", "defined"]
        )
        for s in samples:
            row = [s.t, *s.n, *s.E, *s.B]
            writer.writerow(["%.17g" % x for x in row] + [int(s.defined)])
