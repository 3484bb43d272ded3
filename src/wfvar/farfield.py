"""Radiation far fields of piecewise-smooth charge pairs.

Fields are evaluated in the far-field limit on a sphere of radius R much
larger than the orbit, where the light-cone condition linearizes to
t_k = t -+ R +- n.x(t_k), and one charge's field is `lightcone.lw_radiation`
at r = R.  Everything here is per unit charge-squared in Heaviside-like
units with c = 1; the sphere-averaged flux of the combined field reproduces
the classical dipole power for a slow retarded-only source.

Breaking points make the fields one-sided along the cone images of the
breaking times.  Samples whose cone time falls within a guard band of a
breaking time are flagged undefined rather than raising, since they form a
measure-zero set that surface integrals may skip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PiecewiseTrajectory, Vec3, cross
from .errors import CoverageError, DomainError
from .lightcone import Branch, far_cone_time, far_cone_times, lw_radiation, unit_directions

GUARD_BAND = 1e-9
_BOTH_BRANCHES = (Branch.RETARDED, Branch.ADVANCED)


def _radius(R) -> None:
    """The one sphere-radius rule: R finite and positive, else DomainError."""
    if not (math.isfinite(R) and R > 0.0):
        raise DomainError(f"sphere radius must be finite and positive, got {R}")


def _dot(a, b):
    """Row-wise dot product of (..., 3) arrays."""
    return (a * b).sum(axis=-1)


def lw_far(traj: PiecewiseTrajectory, t: float, n, R: float,
           branch: Branch = Branch.RETARDED) -> tuple:
    """Far electric and magnetic field of one charge at (t, R n): the one
    lane of `_branch_totals` for that charge, branch and direction."""
    n = unit_directions(n)
    _radius(R)
    totals, _ = _branch_totals((traj,), float(t), n[None], R, R, GUARD_BAND, (branch,))
    e = totals[branch][0]
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
    n = unit_directions(n)
    _radius(R)
    t_k = far_cone_time(traj, t, n, R, branch)
    v, a = traj.evaluate(t_k, 1), traj.evaluate(t_k, 2)
    s = float(branch.sign)
    g = 1.0 - s * _dot(n, v)
    second = a / g**2 + s * _dot(n, a) * v / g**3
    return -s * (traj.particle.charge / R) * cross(n, second)


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


def _branch_totals(trajs, t, dirs, R, r, guard, branches=_BOTH_BRANCHES):
    """The one far-field path: per-lane sums of `lw_radiation` at distance r
    over the given charges, one (M, 3) array per branch, and the lanes' guard
    flags.  Lane i is the event time t (or t[i]) in direction dirs[i]; every
    charge and branch solves all lanes in one `far_cone_times` pass at radius
    R.  Fields and fluxes read r = R, the gah residual r = 1 with R = 0.
    """
    totals = {branch: np.zeros(dirs.shape) for branch in branches}
    defined = np.ones(dirs.shape[0], dtype=bool)
    for traj in trajs:
        for branch in branches:
            t_k = far_cone_times(traj, t, dirs, R, branch)
            defined &= ~traj.nearest_junctions(t_k, guard)[1]
            v, a = traj.evaluate(t_k, 1), traj.evaluate(t_k, 2)
            totals[branch] += lw_radiation(traj.particle.charge, dirs, r, v, a, branch)
    return totals, defined


def _samples(t, dirs, R, totals, defined) -> list:
    e_ret, e_adv = totals[Branch.RETARDED], totals[Branch.ADVANCED]
    b_ret, b_adv = cross(dirs, e_ret), cross(dirs, e_adv)
    e_tot = 0.5 * (e_adv + e_ret)
    b_tot = 0.5 * b_ret - 0.5 * b_adv
    return [FarFieldSample(t=t, n=dirs[i], R=R, E_ret=e_ret[i], B_ret=b_ret[i],
                           E_adv=e_adv[i], B_adv=-b_adv[i], E=e_tot[i], B=b_tot[i],
                           defined=bool(defined[i]))
            for i in range(dirs.shape[0])]


def wf_far(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory, t: float,
           n, R: float, guard: float = GUARD_BAND) -> FarFieldSample:
    """Half-advanced plus half-retarded fields of both charges at (t, R n)."""
    dirs = unit_directions(n)[None]
    _radius(R)
    totals, defined = _branch_totals((traj1, traj2), t, dirs, R, R, guard)
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
    totals, defined = _branch_totals((traj1, traj2), t, dirs, 0.0, 1.0, guard,
                                     (Branch.RETARDED,))
    return cross(dirs, totals[Branch.RETARDED]), defined


def gah_residual(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
                 t: float, n, guard: float = GUARD_BAND):
    """Total retarded far magnetic field with the 1/R factored out.

    Evaluated at the R-subtracted sphere time, so the result depends only on
    (t, n).  Returns None when either retarded cone time falls in the guard
    band of a breaking time; vanishing almost everywhere characterizes
    non-radiating pairs.
    """
    residuals, defined = gah_residuals(traj1, traj2, t, unit_directions(n)[None], guard)
    return residuals[0] if defined[0] else None


def poynting_flux(E_adv, E_ret):
    """-n.(E x B), the inward radial generalized Poynting flux, per (..., 3) row."""
    E_adv = np.asarray(E_adv, dtype=float)
    E_ret = np.asarray(E_ret, dtype=float)
    return 0.25 * (_dot(E_adv, E_adv) - _dot(E_ret, E_ret))


@dataclass(frozen=True)
class SphereMesh:
    """Direction set with positive quadrature weights; `sphere_flux` divides
    by the covered weight, so only the weights' ratios matter.

    Raises DomainError unless there is at least one direction, every
    direction is a unit vector and every weight is finite and positive.
    """

    directions: np.ndarray  # (M, 3) unit rows
    weights: np.ndarray  # (M,), positive

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
    st = np.sqrt(np.maximum(0.0, 1.0 - nodes * nodes))
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    dirs = np.stack([np.outer(st, np.cos(phi)), np.outer(st, np.sin(phi)),
                     np.repeat(nodes, n_phi).reshape(n_theta, n_phi)], axis=2)
    return SphereMesh(dirs.reshape(-1, 3), np.repeat(wts / (2.0 * n_phi), n_phi))


def field_map(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory, t: float,
              R: float, mesh: SphereMesh | None = None,
              guard: float = GUARD_BAND) -> list:
    """Far-field samples over a whole direction mesh at one time, on the
    sphere of radius R centred at the origin (see `sphere_flux`)."""
    mesh = latlong_mesh() if mesh is None else mesh
    _radius(R)
    totals, defined = _branch_totals((traj1, traj2), t, mesh.directions, R, R, guard)
    return _samples(t, mesh.directions, R, totals, defined)


def sphere_flux(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory | None,
                t, R: float, mesh: SphereMesh | None = None,
                retarded_only: bool = False, guard: float = GUARD_BAND):
    """Surface integral of the generalized Poynting flux at radius R, at one
    time `t` (a float, giving a float) or at (T,) times (giving (T,) fluxes).

    Undefined samples are skipped and the quadrature renormalized by the
    covered weight, which is safe because they form a measure-zero set.  With
    `retarded_only` the advanced fields are dropped and the integrand becomes
    -|E_ret|^2, whose magnitude reduces to the classical dipole power for a
    slow source; the sign still marks outflow as negative.  Pass traj2=None
    for a single isolated charge.

    All T x M (time, direction) lanes, time-major, go through one far-cone
    pass, so each time's flux is bit for bit its own float call's; one time
    passes the mesh's direction rows as they are.  The
    first time, in the given order, that skips more than 10% of the mesh
    raises CoverageError.  A far-cone error comes before any CoverageError
    and names the first failing lane of the whole pass, which may be a
    later time than a per-time loop's.

    The sphere is centred at the origin, so for a pair a distance d from it
    each history must reach from about t - (R + d) to t + (R + d): a pair
    moved about 1e3 away, with histories of a few hundred time units,
    raises InsufficientHistoryError.
    """
    mesh = latlong_mesh() if mesh is None else mesh
    _radius(R)
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise DomainError(f"sphere times must be a float or (T,), got shape {times.shape}")
    times = times.reshape(-1)
    trajs = (traj1,) if traj2 is None else (traj1, traj2)
    branches = (Branch.RETARDED,) if retarded_only else _BOTH_BRANCHES
    if times.size == 1:  # the mesh rows as they are, every lane at the one time
        lane_times, dirs = times, mesh.directions
    else:
        lane_times, dirs = np.repeat(times, len(mesh)), np.tile(mesh.directions, (times.size, 1))
    totals, defined = _branch_totals(trajs, lane_times, dirs, R, R, guard, branches)
    e_ret = totals[Branch.RETARDED]
    if retarded_only:
        values = -_dot(e_ret, e_ret)
    else:
        values = poynting_flux(totals[Branch.ADVANCED], e_ret)
    values, defined = (a.reshape(times.size, len(mesh)) for a in (values, defined))
    fluxes = []
    for time, row, covered in zip(times.tolist(), values, defined):
        skipped = len(mesh) - int(covered.sum())
        if skipped > 0.10 * len(mesh):
            raise CoverageError(f"{skipped} of {len(mesh)} sphere samples at t = {time!r} "
                                "fall in guard bands")
        w = mesh.weights[covered]
        fluxes.append(R * R * float(w @ row[covered]) / float(w.sum()))
    return fluxes[0] if np.ndim(t) == 0 else np.array(fluxes)


def write_field_csv(samples, path) -> None:
    """Field map as CSV, one line per sample ended by a bare newline as in
    every CLI report; floats print at 17 significant digits, `defined` as 0
    or 1."""
    line = ",".join(["%.17g"] * 11) + "\n"
    with open(path, "w") as fh:
        fh.write("t,nx,ny,nz,Ex,Ey,Ez,Bx,By,Bz,defined\n")
        fh.writelines(line % (s.t, *s.n, *s.E, *s.B, s.defined) for s in samples)
