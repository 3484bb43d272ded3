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

from .core import PiecewiseTrajectory, Vec3, vec3
from .errors import CoverageError, DomainError
from .lightcone import Branch, far_cone_time

GUARD_BAND = 1e-9


def _unit(n) -> Vec3:
    n = vec3(n)
    if abs(float(n @ n) - 1.0) > 1e-9:
        raise DomainError(f"direction must be a unit vector, got |n|^2 = {n @ n}")
    return n


def _near_break(traj: PiecewiseTrajectory, t_k: float, guard: float) -> bool:
    """Whether a junction lies within `guard` of t_k; only the two junctions
    around t_k can be the nearest."""
    return any(abs(t_k - l) < guard for l in traj.adjacent_junctions(t_k))


def _far_kinematics(traj, t, n, R, branch):
    """Far cone time with the right-sided velocity and acceleration there."""
    t_k = far_cone_time(traj, t, n, R, branch)
    seg = traj.segment_at(t_k)
    return t_k, np.array(seg.at(t_k, 1)), np.array(seg.at(t_k, 2))


def _lw_field(q, n, R, v, a, branch):
    """One charge's far electric field; the advanced branch is the time
    reflection."""
    s = float(branch.sign)  # +1 retarded, -1 advanced
    g = 1.0 - s * float(n @ v)
    return (q / R) * np.cross(n, np.cross(n - s * v, a)) / g**3


def lw_far(traj: PiecewiseTrajectory, t: float, n, R: float,
           branch: Branch = Branch.RETARDED) -> tuple:
    """Far electric and magnetic field of one charge at (t, R n)."""
    n = _unit(n)
    if R <= 0.0:
        raise DomainError("sphere radius must be positive")
    _, v, a = _far_kinematics(traj, t, n, R, branch)
    e = _lw_field(traj.particle.charge, n, R, v, a, branch)
    return e, float(branch.sign) * np.cross(n, e)


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
    g = 1.0 - s * float(n @ v)
    d2 = a / g**2 + s * float(n @ a) * v / g**3
    return -s * (traj.particle.charge / R) * np.cross(n, d2)


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


def _branch_totals(trajs, t, n, R, guard, branches=(Branch.RETARDED, Branch.ADVANCED)):
    """Summed E per branch over the given charges, plus the guard flag."""
    e_ret = np.zeros(3)
    e_adv = np.zeros(3)
    defined = True
    for traj in trajs:
        for branch in branches:
            t_k, v, a = _far_kinematics(traj, t, n, R, branch)
            if _near_break(traj, t_k, guard):
                defined = False
            e = _lw_field(traj.particle.charge, n, R, v, a, branch)
            if branch is Branch.RETARDED:
                e_ret += e
            else:
                e_adv += e
    return e_ret, e_adv, defined


def wf_far(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory, t: float,
           n, R: float, guard: float = GUARD_BAND) -> FarFieldSample:
    """Half-advanced plus half-retarded fields of both charges at (t, R n)."""
    n = _unit(n)
    if R <= 0.0:
        raise DomainError("sphere radius must be positive")
    e_ret, e_adv, defined = _branch_totals((traj1, traj2), t, n, R, guard)
    return FarFieldSample(
        t=t, n=n, R=R,
        E_ret=e_ret, B_ret=np.cross(n, e_ret),
        E_adv=e_adv, B_adv=-np.cross(n, e_adv),
        E=0.5 * (e_adv + e_ret),
        B=0.5 * np.cross(n, e_adv) - 0.5 * np.cross(n, e_ret),
        defined=defined,
    )


def gah_residual(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
                 t: float, n, guard: float = GUARD_BAND):
    """Total retarded far magnetic field with the 1/R factored out.

    Evaluated at the R-subtracted sphere time, so the result depends only on
    (t, n).  Returns None when either retarded cone time falls in the guard
    band of a breaking time; vanishing almost everywhere characterizes
    non-radiating pairs.
    """
    n = _unit(n)
    total = np.zeros(3)
    for traj in (traj1, traj2):
        t_k, v, a = _far_kinematics(traj, t, n, 0.0, Branch.RETARDED)
        if _near_break(traj, t_k, guard):
            return None
        g = 1.0 - float(n @ v)
        d2 = a / g**2 + float(n @ a) * v / g**3
        total += traj.particle.charge * d2
    return -np.cross(n, total)


def poynting_flux(E_adv, E_ret) -> float:
    """Radial component of the generalized Poynting vector."""
    E_adv = vec3(E_adv)
    E_ret = vec3(E_ret)
    return 0.25 * (float(E_adv @ E_adv) - float(E_ret @ E_ret))


@dataclass(frozen=True)
class SphereMesh:
    """Direction set with mean-one quadrature weights (sum(w) = 1)."""

    directions: np.ndarray  # (M, 3) unit rows
    weights: np.ndarray  # (M,), positive, summing to 1

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if d.ndim != 2 or d.shape[1] != 3 or w.shape != (d.shape[0],):
            raise DomainError("mesh needs (M, 3) directions and (M,) weights")
        object.__setattr__(self, "directions", d)
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
    return [wf_far(traj1, traj2, t, n, R, guard=guard) for n in mesh.directions]


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

    branches = (Branch.RETARDED,) if retarded_only else (Branch.RETARDED, Branch.ADVANCED)

    covered = 0.0
    total = 0.0
    skipped = 0
    for n, w in zip(mesh.directions, mesh.weights):
        e_ret, e_adv, defined = _branch_totals(trajs, t, n, R, guard, branches=branches)
        if not defined:
            skipped += 1
            continue
        value = -float(e_ret @ e_ret) if retarded_only else poynting_flux(e_adv, e_ret)
        covered += w
        total += w * value
    if skipped > 0.10 * len(mesh):
        raise CoverageError(
            f"{skipped} of {len(mesh)} sphere samples fall in guard bands"
        )
    return R * R * total / covered


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
