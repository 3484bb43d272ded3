"""Trajectory representation with breaking points and one-sided evaluation.

Positions are piecewise-polynomial maps from time to R^3 (natural units,
c = 1).  A trajectory is continuous everywhere; velocity and acceleration
may jump at the junctions between segments (breaking points).  Evaluation
at a junction is one-sided and defaults to the right limit.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigError, ContractError, DomainError, SuperluminalError

__all__ = [
    "Vec3",
    "vec3",
    "cross",
    "Side",
    "ParticleParams",
    "Segment",
    "SegmentChain",
    "PackedChain",
    "PiecewiseTrajectory",
    "ValidationReport",
    "BoundaryData",
    "Perturbation",
    "polygonal_from_vertices",
    "hermite_trajectory",
    "validate",
    "fd_node_velocities",
    "add_perturbation",
    "replace_window",
    "merge_history",
    "json_number",
    "trajectory_to_dict",
    "trajectory_from_dict",
    "save_trajectory",
    "load_trajectory",
]

# A Vec3 is a plain float64 numpy array of shape (3,).
Vec3 = np.ndarray

#: absolute slack, relative to max(1, |t|), accepted when a time sits on a
#: domain edge; cone roots are only accurate to ~1e-12 themselves.
_EDGE_SLACK = 1e-9


def vec3(x, y=None, z=None) -> Vec3:
    """Build a finite (3,) float vector from components or any 3-iterable."""
    if y is None and z is None:
        v = np.asarray(x, dtype=float).reshape(3)
    else:
        v = np.array([x, y, z], dtype=float)
    if not np.all(np.isfinite(v)):
        raise DomainError(f"non-finite vector components: {v}")
    return v


def cross(a, b) -> np.ndarray:
    """Cross product of (..., 3) float arrays, broadcast against each other.

    Written out by components in ``np.cross``'s operation order, so it is
    bit-identical to it (signed zeros included) without its axis handling.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


class Side(Enum):
    """Which one-sided limit to take at a breaking point."""

    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class ParticleParams:
    """Mass and charge of one particle (c = 1 units)."""

    mass: float
    charge: float

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise DomainError(f"mass must be positive and finite, got {self.mass}")
        if not math.isfinite(self.charge):
            raise DomainError(f"charge must be finite, got {self.charge}")


def _shift_row(row, delta: float) -> list:
    """Ascending coefficients in w of p(w + delta), for ascending coefficients of p.

    Horner steps acc <- acc * (w + delta) + c on plain floats, done the way
    numpy's ``Polynomial(row)(Polynomial([delta, 1]))`` does them, so the
    result is bit-identical to that composition: every product sum starts
    from 0.0 (which turns -0.0 into 0.0) and trailing zeros are trimmed.
    """
    delta = float(delta) + 0.0
    row = [float(c) for c in row]
    acc = [row[-1] + 0.0]
    for c in reversed(row[:-1]):
        nxt = [0.0 + acc[0] * delta]
        nxt += [0.0 + acc[k] * delta + acc[k - 1] for k in range(1, len(acc))]
        nxt.append(0.0 + acc[-1])
        nxt[0] = c + nxt[0]
        while len(nxt) > 1 and nxt[-1] == 0.0:
            nxt.pop()
        acc = nxt
    return acc


def _poly_shift(coeffs: np.ndarray, delta: float) -> np.ndarray:
    """Re-expand polynomial rows so that p(u) becomes p(w + delta).

    ``coeffs`` has shape (3, K), ascending powers.  Used to re-base a segment
    onto a different local time origin.
    """
    if delta == 0.0:
        return coeffs.copy()
    out = np.zeros_like(coeffs)
    for i, row in enumerate(coeffs.tolist()):
        c = _shift_row(row, delta)
        out[i, : len(c)] = c
    return out


def _polyder_row(row: tuple, m: int) -> tuple:
    """m-th derivative of ascending coefficients, as ``npoly.polyder`` forms it."""
    if m >= len(row):
        return (row[0] * 0,)
    for _ in range(m):
        row = tuple(j * row[j] for j in range(1, len(row)))
    return row


def _cubic_roots(q) -> list:
    """Candidate real roots of the polynomial with ascending coefficients q
    (degree at most 3), in closed form: the real roots and the real part of
    a complex pair.  A cubic term at most 1e-8 of the largest coefficient is
    dropped; that moves the roots in [0, 1] by about 1e-8, which moves a
    stationary value of a polynomial only at second order.
    """
    d, c, b, a = (list(q) + [0.0] * 4)[:4]
    big = max(abs(a), abs(b), abs(c), abs(d))
    if big == 0.0:
        return []
    d, c, b, a = d / big, c / big, b / big, a / big
    if abs(a) > 1e-8:
        # depressed cubic t^3 + p t + r in t = s + B / 3
        B, C, D = b / a, c / a, d / a
        p, r, shift = C - B * B / 3.0, 2.0 * B**3 / 27.0 - B * C / 3.0 + D, -B / 3.0
        disc = 0.25 * r * r + p**3 / 27.0
        if disc >= 0.0:  # one real root (Cardano) and a complex pair
            u = math.cbrt(-0.5 * r - math.copysign(math.sqrt(disc), r))
            v = -p / (3.0 * u) if u else 0.0
            roots = [u + v + shift, -0.5 * (u + v) + shift]
        else:  # three real roots (trigonometric form)
            m = 2.0 * math.sqrt(-p / 3.0)
            phi = math.acos(max(-1.0, min(1.0, 3.0 * r / (p * m)))) / 3.0
            roots = [m * math.cos(phi - 2.0 * math.pi * i / 3.0) + shift for i in range(3)]
    elif b != 0.0:  # quadratic: its vertex and its roots, in the stable form
        roots, disc = [-0.5 * c / b], c * c - 4.0 * b * d
        if disc >= 0.0:
            w = -0.5 * (c + math.copysign(math.sqrt(disc), c))
            roots += [w / b, d / w] if w else [0.0]
    else:
        roots = [-d / c] if c else []
    return roots


@dataclass(frozen=True)
class Segment:
    """One smooth polynomial piece of a trajectory.

    The position on [t_start, t_end] is ``sum_k coeffs[:, k] * (t - t_start)**k``.
    Speed must stay below 1 on the whole closed interval unless
    ``check_speed=False`` (used internally for perturbations, which are
    displacements rather than world lines).
    """

    t_start: float
    t_end: float
    coeffs: np.ndarray  # shape (3, K), ascending powers of (t - t_start)
    check_speed: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise DomainError("segment times must be finite")
        if not self.t_start < self.t_end:
            raise DomainError(
                f"segment needs t_start < t_end, got [{self.t_start}, {self.t_end}]"
            )
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if c.shape[0] != 3 or c.shape[1] < 1:
            raise DomainError(f"segment coeffs must have shape (3, K>=1), got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise DomainError("segment coefficients must be finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        # position, velocity and acceleration rows as float tuples, ascending
        # powers; every evaluation reads these
        rows = tuple(tuple(row) for row in c.tolist())
        object.__setattr__(self, "_rows", tuple(
            tuple(_polyder_row(row, m) for row in rows) for m in range(3)))
        if self.check_speed and self.max_speed() >= 1.0:
            raise SuperluminalError(
                f"segment [{self.t_start}, {self.t_end}] reaches speed "
                f"{self.max_speed():.6g} >= 1"
            )

    # -- construction helpers -------------------------------------------------

    @classmethod
    def linear(cls, t0: float, t1: float, x0, x1, check_speed: bool = True) -> "Segment":
        x0 = vec3(x0)
        x1 = vec3(x1)
        v = (x1 - x0) / (t1 - t0)
        return cls(t0, t1, np.column_stack([x0, v]), check_speed=check_speed)

    @classmethod
    def hermite(cls, t0: float, t1: float, x0, v0, x1, v1, check_speed: bool = True) -> "Segment":
        """Cubic interpolating endpoint positions and one-sided velocities."""
        x0, v0, x1, v1 = vec3(x0), vec3(v0), vec3(x1), vec3(v1)
        h = t1 - t0
        c2 = 3.0 * (x1 - x0) / h**2 - (2.0 * v0 + v1) / h
        c3 = 2.0 * (x0 - x1) / h**3 + (v0 + v1) / h**2
        return cls(t0, t1, np.column_stack([x0, v0, c2, c3]), check_speed=check_speed)

    # -- evaluation ------------------------------------------------------------

    def at(self, t: float, order: int = 0) -> list:
        """Position (order 0), velocity (1) or acceleration (2) at a float
        time, as a list of three floats."""
        return self._local(t - self.t_start, order)

    def _local(self, u: float, order: int) -> list:
        """Horner at local time u, in ``npoly.polyval``'s operation order."""
        out = []
        for row in self._rows[order]:
            acc = row[-1] + u * 0
            for c in row[-2::-1]:
                acc = c + acc * u
            out.append(acc)
        return out

    def position(self, t: float) -> Vec3:
        return np.array(self.at(float(t)))

    def velocity(self, t: float) -> Vec3:
        return np.array(self.at(float(t), 1))

    def acceleration(self, t: float) -> Vec3:
        return np.array(self.at(float(t), 2))

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    def max_speed(self) -> float:
        """Exact max |dx/dt| over the segment.

        |v|^2 is a polynomial, so its maximum on [0, h] sits at an endpoint or
        at a real stationary point; the candidates are clipped into [0, h].
        Up to cubic position rows the stationary points are the roots of a
        cubic, found in closed form; higher degrees go through an eigenvalue
        solve.  Extra candidates never lower the maximum.
        """
        vel = self._rows[1]
        h = self.t_end - self.t_start
        us = [0.0, h]
        if len(vel[0]) > 1:
            cols = list(zip(*vel))  # the velocity's coefficient vectors
            s2 = [0.0] * (2 * len(cols) - 1)
            for i, a in enumerate(cols):
                for j, b in enumerate(cols):
                    s2[i + j] += a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
            ds2 = _polyder_row(tuple(s2), 1)
            if len(ds2) <= 4:
                # in s = u / h, whose candidates belong to [0, 1]
                roots = _cubic_roots([c * h**k for k, c in enumerate(ds2)])
                us += [min(max(r, 0.0), 1.0) * h for r in roots]
            else:
                us += [min(max(r.real, 0.0), h) for r in npoly.polyroots(ds2)
                       if abs(r.imag) <= 1e-6 * max(1.0, abs(r))]
        speeds = []
        for u in set(us):
            vx, vy, vz = self._local(u, 1)
            speeds.append(math.sqrt(vx * vx + vy * vy + vz * vz))
        return max(speeds)

    def rebased(self, a: float, b: float, check_speed: bool | None = None) -> "Segment":
        """The same polynomial restricted to [a, b] ⊆ [t_start, t_end]."""
        if a < self.t_start - 1e-12 or b > self.t_end + 1e-12:
            raise DomainError(f"[{a}, {b}] not inside segment [{self.t_start}, {self.t_end}]")
        cs = self.check_speed if check_speed is None else check_speed
        return Segment(a, b, _poly_shift(self.coeffs, a - self.t_start), check_speed=cs)


def _junction_gaps(segs) -> list:
    """(junction time, |position gap|) at each junction of a segment chain."""
    return [(a.t_end, math.dist(a.at(a.t_end), b.at(b.t_start))) for a, b in zip(segs, segs[1:])]


@dataclass(frozen=True)
class PackedChain:
    """A segment chain as arrays, for evaluating many times at once.

    ``rows[m]`` holds the order-m (position, velocity, acceleration) rows of
    every segment as an (nseg, 3, K_m) array, ascending powers, padded with
    zeros at the high end; the padding leaves Horner's result bit for bit
    unchanged.
    """

    knots: np.ndarray  # (nseg + 1,): every segment start, then the chain's end
    rows: tuple  # three (nseg, 3, K_m) arrays
    knot_positions: np.ndarray  # (nseg + 1, 3): right-sided position at each knot

    @classmethod
    def of(cls, segments) -> "PackedChain":
        knots = np.array([s.t_start for s in segments] + [segments[-1].t_end])
        rows = []
        for m in range(3):
            k = max(len(s._rows[m][0]) for s in segments)
            packed = np.zeros((len(segments), 3, k))
            for i, s in enumerate(segments):
                packed[i, :, : len(s._rows[m][0])] = s._rows[m]
            rows.append(packed)
        chain = cls(knots, tuple(rows), None)
        index = np.minimum(np.arange(knots.size), len(segments) - 1)
        object.__setattr__(chain, "knot_positions", chain.at(index, knots))
        return chain

    def at(self, index, ts, order: int = 0) -> np.ndarray:
        """(..., 3) values of segments ``index`` at times ``ts`` (both of one
        shape, (M,) or scalar), by Horner in ``Segment.at``'s operation
        order: each lane is bit-identical to ``Segment.at``."""
        c = self.rows[order][index]
        u = (np.asarray(ts, dtype=float) - self.knots[index])[..., None]
        acc = c[..., -1] + u * 0
        for k in range(c.shape[-1] - 2, -1, -1):
            acc = c[..., k] + acc * u
        return acc


@dataclass(frozen=True)
class SegmentChain:
    """An ordered chain of exactly abutting segments on [t_start, t_end].

    The one place that answers which segment governs a time, and from which
    side at a junction.
    """

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise DomainError(f"{type(self).__name__} needs at least one segment")
        for a, b in zip(segs, segs[1:]):
            if b.t_start != a.t_end:
                raise DomainError(
                    f"segments must abut exactly: {a.t_end} != {b.t_start}"
                )
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "t_start", segs[0].t_start)
        object.__setattr__(self, "t_end", segs[-1].t_end)
        object.__setattr__(self, "_junctions", [s.t_start for s in segs[1:]])

    def junction_times(self) -> list:
        """Interior junction times (candidate breaking points)."""
        return list(self._junctions)

    def segment_at(self, t: float, side: Side = Side.RIGHT) -> Segment:
        """The segment governing time t: at a junction, the one starting
        there (RIGHT) or the one ending there (LEFT).

        A time within _EDGE_SLACK * max(1, |t|) outside the domain gets the
        end segment; one farther out raises DomainError.
        """
        if not self.t_start <= t <= self.t_end:
            slack = _EDGE_SLACK * max(1.0, abs(t))
            if t < self.t_start - slack or t > self.t_end + slack:
                raise DomainError(
                    f"time {t} outside domain [{self.t_start}, {self.t_end}]")
        find = bisect_right if side is Side.RIGHT else bisect_left
        return self.segments[find(self._junctions, t)]

    @property
    def packed(self) -> PackedChain:
        """The chain's array layout, built on first use."""
        packed = self.__dict__.get("_packed")
        if packed is None:
            packed = PackedChain.of(self.segments)
            object.__setattr__(self, "_packed", packed)
        return packed

    def segment_indices(self, ts, side: Side = Side.RIGHT) -> np.ndarray:
        """Indices of the segments governing each of the times ``ts``, by
        `segment_at`'s rule, edge slack and DomainError included."""
        ts = np.asarray(ts, dtype=float)
        outside = (ts < self.t_start) | (ts > self.t_end)
        if outside.any():
            slack = _EDGE_SLACK * np.maximum(1.0, np.abs(ts))
            far = (ts < self.t_start - slack) | (ts > self.t_end + slack)
            if far.any():
                raise DomainError(f"time {ts[far][0]} outside domain "
                                  f"[{self.t_start}, {self.t_end}]")
        junctions = self.packed.knots[1:-1]
        return np.searchsorted(junctions, ts, side=side.value)

    def evaluate(self, ts, order: int = 0, side: Side = Side.RIGHT) -> np.ndarray:
        """Position (order 0), velocity (1) or acceleration (2) at each of the
        times ``ts`` ((M,)), as an (M, 3) array, or at one time as a (3,)
        row; lane i is bit-identical to ``segment_at(ts[i], side).at(ts[i],
        order)``."""
        ts = np.asarray(ts, dtype=float)
        return self.packed.at(self.segment_indices(ts, side), ts, order)


@dataclass(frozen=True)
class PiecewiseTrajectory(SegmentChain):
    """A continuous chain of segments plus the particle it describes."""

    particle: ParticleParams
    strict: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.strict:
            segs = self.segments
            scale = max(1.0, *(abs(row[0]) for s in segs for row in s._rows[0]))
            for t, gap in _junction_gaps(segs):
                if gap > 1e-9 * scale:
                    raise DomainError(f"position gap {gap:.3g} at junction t={t}")

    def position(self, t: float, side: Side = Side.RIGHT) -> Vec3:
        return self.segment_at(t, side).position(t)

    def velocity(self, t: float, side: Side = Side.RIGHT) -> Vec3:
        return self.segment_at(t, side).velocity(t)

    def acceleration(self, t: float, side: Side = Side.RIGHT) -> Vec3:
        return self.segment_at(t, side).acceleration(t)

    def state(self, t: float, side: Side = Side.RIGHT):
        seg = self.segment_at(t, side)
        return seg.position(t), seg.velocity(t), seg.acceleration(t)

    def max_speed(self) -> float:
        return max(s.max_speed() for s in self.segments)


def polygonal_from_vertices(vertices, particle: ParticleParams) -> PiecewiseTrajectory:
    """Piecewise-constant-velocity trajectory through (time, position) vertices.

    Raises SuperluminalError if any chord speed reaches 1 and DomainError for
    non-increasing times.
    """
    verts = [(float(t), vec3(x)) for t, x in vertices]
    if len(verts) < 2:
        raise DomainError("need at least two vertices")
    segs = []
    for (t0, x0), (t1, x1) in zip(verts, verts[1:]):
        if not t1 > t0:
            raise DomainError(f"vertex times must increase strictly: {t0} -> {t1}")
        speed = float(np.linalg.norm(x1 - x0)) / (t1 - t0)
        if speed >= 1.0:
            raise SuperluminalError(f"chord speed {speed:.6g} >= 1 on [{t0}, {t1}]")
        segs.append(Segment.linear(t0, t1, x0, x1))
    return PiecewiseTrajectory(tuple(segs), particle)


def hermite_trajectory(times, positions, velocities, particle: ParticleParams,
                       strict: bool = True) -> PiecewiseTrajectory:
    """C^1 cubic-Hermite trajectory through nodes with prescribed velocities."""
    times = [float(t) for t in times]
    segs = []
    for i in range(len(times) - 1):
        segs.append(
            Segment.hermite(times[i], times[i + 1], positions[i], velocities[i],
                            positions[i + 1], velocities[i + 1])
        )
    return PiecewiseTrajectory(tuple(segs), particle, strict=strict)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of trajectory validation; failures are reported, never raised."""

    max_speed: float
    continuity_defects: tuple  # of (junction time, |gap|)
    times_monotonic: bool
    continuity_tol: float = 1e-9

    @property
    def ok(self) -> bool:
        return (
            self.times_monotonic
            and self.max_speed < 1.0
            and all(g <= self.continuity_tol for _, g in self.continuity_defects)
        )


def validate(traj: PiecewiseTrajectory) -> ValidationReport:
    """Report max speed, per-junction continuity defects, and time ordering."""
    segs = traj.segments
    monotonic = all(s.t_start < s.t_end for s in segs) and all(
        b.t_start >= a.t_end for a, b in zip(segs, segs[1:])
    )
    return ValidationReport(
        max_speed=traj.max_speed(),
        continuity_defects=tuple(_junction_gaps(segs)),
        times_monotonic=monotonic,
    )


@dataclass(frozen=True)
class BoundaryData:
    """Boundary set of the variational problem.

    ``start_time``/``end_time`` delimit the variable window of particle 1;
    ``window2`` is the (possibly cone-staggered) variable window of particle 2
    and defaults to the same interval.  ``history1``/``history2`` optionally
    carry the frozen continuation of each trajectory outside its window; they
    may be omitted when the trajectories passed around already cover every
    cone time touched by the windows.  ``k2`` is the additive action constant
    contributed by the frozen partner arc.
    """

    start_time: float
    end_time: float
    history1: PiecewiseTrajectory | None = None
    history2: PiecewiseTrajectory | None = None
    k2: float = 0.0
    window2: tuple | None = None

    def __post_init__(self):
        if not (math.isfinite(self.start_time) and math.isfinite(self.end_time)):
            raise DomainError("window times must be finite")
        if self.end_time < self.start_time:
            raise DomainError("end_time must be >= start_time")
        if not math.isfinite(self.k2):
            raise DomainError("K2 must be finite")
        if self.window2 is not None:
            a, b = self.window2
            if b < a:
                raise DomainError("window2 end must be >= start")
            object.__setattr__(self, "window2", (float(a), float(b)))

    def window(self, k: int) -> tuple:
        """Variable window of particle k (1 or 2)."""
        if k == 1 or self.window2 is None:
            return (self.start_time, self.end_time)
        return self.window2


@dataclass(frozen=True)
class Perturbation(SegmentChain):
    """Piecewise-polynomial displacement field b(t) on a window.

    Admissible variations vanish at both window endpoints; that contract is
    checked where it matters (the directional derivative), not at
    construction, so general displacement fields remain expressible.
    """

    def value(self, t: float, side: Side = Side.RIGHT) -> Vec3:
        return self.segment_at(t, side).position(t)

    def derivative(self, t: float, side: Side = Side.RIGHT) -> Vec3:
        return self.segment_at(t, side).velocity(t)

    def check_admissible(self, t0: float, t1: float, tol: float = 1e-12) -> None:
        """Raise unless the zero-extension of b is continuous on [t0, t1] and
        vanishes at both window endpoints.

        b is treated as identically zero outside its own domain, so the
        displacement must also vanish at any domain edge interior to the
        window; otherwise the extension would tear the trajectory.
        """
        if self.t_start >= t1 or self.t_end <= t0:
            return  # zero on the whole window
        checkpoints = [t for t in (t0, t1) if self.t_start <= t <= self.t_end]
        checkpoints += [t for t in (self.t_start, self.t_end) if t0 < t < t1]
        for t in checkpoints:
            mag = float(np.linalg.norm(self.value(t)))
            if mag > tol:
                raise ContractError(f"perturbation must vanish at t={t}, |b|={mag:.3g}")

    @classmethod
    def tent(cls, t0: float, t_peak: float, t1: float, amplitude) -> "Perturbation":
        """Piecewise-linear bump: 0 at t0 and t1, `amplitude` at t_peak."""
        amp = vec3(amplitude)
        zero = np.zeros(3)
        return cls((
            Segment.linear(t0, t_peak, zero, amp, check_speed=False),
            Segment.linear(t_peak, t1, amp, zero, check_speed=False),
        ))

    @classmethod
    def from_nodes(cls, times, values, velocities=None) -> "Perturbation":
        """Cubic-Hermite displacement through nodes (velocities default to
        parabolic finite differences)."""
        times = [float(t) for t in times]
        vals = [vec3(v) for v in values]
        if velocities is None:
            velocities = fd_node_velocities(times, vals)
        segs = []
        for i in range(len(times) - 1):
            segs.append(
                Segment.hermite(times[i], times[i + 1], vals[i], velocities[i],
                                vals[i + 1], velocities[i + 1], check_speed=False)
            )
        return cls(tuple(segs))


def fd_node_velocities(times, values):
    """Node derivative estimates exact for quadratic data (3-point stencils)."""
    n = len(times)
    if n == 2:
        v = (values[1] - values[0]) / (times[1] - times[0])
        return [v, v]
    out = []
    for i in range(n):
        if i == 0:
            j = 0
        elif i == n - 1:
            j = n - 3
        else:
            j = i - 1
        t0, t1, t2 = times[j], times[j + 1], times[j + 2]
        y0, y1, y2 = values[j], values[j + 1], values[j + 2]
        t = times[i]
        # derivative of the parabola through the three nodes
        out.append(
            y0 * (2 * t - t1 - t2) / ((t0 - t1) * (t0 - t2))
            + y1 * (2 * t - t0 - t2) / ((t1 - t0) * (t1 - t2))
            + y2 * (2 * t - t0 - t1) / ((t2 - t0) * (t2 - t1))
        )
    return out


def _merged_breakpoints(traj: PiecewiseTrajectory, pert: Perturbation):
    pts = {traj.t_start, traj.t_end, pert.t_start, pert.t_end}
    pts.update(traj.junction_times())
    pts.update(pert.junction_times())
    lo, hi = traj.t_start, traj.t_end
    return sorted(p for p in pts if lo <= p <= hi)


def add_perturbation(traj: PiecewiseTrajectory, pert: Perturbation,
                     eps: float) -> PiecewiseTrajectory:
    """The trajectory displaced by eps * b(t) (b treated as 0 outside its domain)."""
    mesh = _merged_breakpoints(traj, pert)
    segs = []
    for a, b in zip(mesh, mesh[1:]):
        base = traj.segment_at(0.5 * (a + b)).rebased(a, b, check_speed=False)
        c = base.coeffs
        if pert.t_start <= a and b <= pert.t_end:
            ps = pert.segment_at(0.5 * (a + b))
            pc = _poly_shift(ps.coeffs, a - ps.t_start)
            k = max(c.shape[1], pc.shape[1])
            cc = np.zeros((3, k))
            cc[:, : c.shape[1]] = c
            cc[:, : pc.shape[1]] += eps * pc
            c = cc
        segs.append(Segment(a, b, c))
    return PiecewiseTrajectory(tuple(segs), traj.particle)


def replace_window(full: PiecewiseTrajectory, window_part: PiecewiseTrajectory,
                   window: tuple) -> PiecewiseTrajectory:
    """Splice a re-solved window into a frozen trajectory.

    Keeps ``full`` outside [window[0], window[1]] and uses ``window_part``
    inside; position continuity at the seams is enforced by the trajectory
    constructor.
    """
    a, b = float(window[0]), float(window[1])
    if window_part.t_start != a or window_part.t_end != b:
        raise DomainError("window part must span the window exactly")
    segs = []
    for s in full.segments:
        if s.t_end <= a:
            segs.append(s)
        elif s.t_start < a:
            segs.append(s.rebased(s.t_start, a))
    segs.extend(window_part.segments)
    for s in full.segments:
        if s.t_start >= b:
            segs.append(s)
        elif s.t_end > b:
            segs.append(s.rebased(b, s.t_end))
    return PiecewiseTrajectory(tuple(segs), full.particle)


def merge_history(traj: PiecewiseTrajectory,
                  history: PiecewiseTrajectory | None) -> PiecewiseTrajectory:
    """Extend a window trajectory with its frozen continuation, if any; a
    trajectory that is its own history is returned as it is."""
    if history is None or history is traj:
        return traj
    if history.t_start <= traj.t_start and traj.t_end <= history.t_end:
        return replace_window(history, traj, (traj.t_start, traj.t_end))
    if history.t_end == traj.t_start:
        return PiecewiseTrajectory(history.segments + traj.segments, traj.particle)
    if traj.t_end == history.t_start:
        return PiecewiseTrajectory(traj.segments + history.segments, traj.particle)
    raise DomainError(
        f"history [{history.t_start}, {history.t_end}] neither contains nor "
        f"abuts the trajectory [{traj.t_start}, {traj.t_end}]"
    )


# -- JSON exchange format -----------------------------------------------------

def json_number(value) -> float:
    """A JSON number as a float.  Booleans, which ``float`` would take as 0
    or 1, strings, which it would parse, and integers too large for a float
    raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("integer too large for a float") from None


def trajectory_to_dict(traj: PiecewiseTrajectory) -> dict:
    """Exchange form: coefficients ascending in the segment-local time t - t0."""
    return {
        "particle": {"mass": traj.particle.mass, "charge": traj.particle.charge},
        "segments": [
            {
                "t0": s.t_start,
                "t1": s.t_end,
                "kind": "polynomial",
                "coeffs": [list(map(float, row)) for row in s.coeffs],
            }
            for s in traj.segments
        ],
    }


def trajectory_from_dict(d: dict) -> PiecewiseTrajectory:
    try:
        particle = ParticleParams(json_number(d["particle"]["mass"]),
                                  json_number(d["particle"]["charge"]))
        segs = []
        for sd in d["segments"]:
            if not isinstance(sd, dict):
                raise ConfigError(f"segment record must be a JSON object, got {sd!r}")
            if sd.get("kind", "polynomial") != "polynomial":
                raise ConfigError(f"unsupported segment kind {sd.get('kind')!r}")
            coeffs = [[json_number(c) for c in row] for row in sd["coeffs"]]
            segs.append(Segment(json_number(sd["t0"]), json_number(sd["t1"]), coeffs))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed trajectory record: {exc}") from exc
    return PiecewiseTrajectory(tuple(segs), particle)


def save_trajectory(traj: PiecewiseTrajectory, path) -> None:
    with open(path, "w") as fh:
        json.dump(trajectory_to_dict(traj), fh, indent=1)
        fh.write("\n")


def load_trajectory(path) -> PiecewiseTrajectory:
    with open(path) as fh:
        return trajectory_from_dict(json.load(fh))
