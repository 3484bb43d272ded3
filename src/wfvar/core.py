"""Trajectory representation with breaking points and one-sided evaluation.

Positions are piecewise-polynomial maps from time to R^3 (natural units,
c = 1).  A trajectory is continuous everywhere; velocity and acceleration
may jump at the junctions between segments (breaking points).  Evaluation
at a junction is one-sided and defaults to the right limit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigError, ContractError, DomainError, SuperluminalError

__all__ = [
    "Vec3",
    "vec3",
    "subluminal",
    "cross",
    "Side",
    "ParticleParams",
    "Segment",
    "SegmentChain",
    "PackedChain",
    "PiecewiseTrajectory",
    "BoundaryData",
    "Perturbation",
    "polygonal_from_vertices",
    "hermite_trajectory",
    "fd_node_velocities",
    "add_perturbation",
    "merge_history",
    "json_number",
    "json_numbers",
    "read_json",
    "time_window",
    "as_count",
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


def subluminal(v) -> np.ndarray:
    """A velocity as finite floats with every speed |v| < 1: three entries
    make one (3,) vector, read as `vec3` reads one, and (M, 3) rows are M
    velocities.  A speed of 1 or more raises SuperluminalError, a bad shape
    or a non-finite entry DomainError; the one check of a given velocity."""
    v = np.asarray(v, dtype=float)
    if v.size == 3:
        v = v.reshape(3)
    elif v.ndim != 2 or v.shape[1] != 3:
        raise DomainError(f"velocities must have shape (3,) or (M, 3), got {v.shape}")
    speed_sq = (v * v).sum(axis=-1)
    if not (speed_sq < 1.0).all():  # a NaN or infinite entry fails it too
        if not np.isfinite(v).all():
            raise DomainError(f"non-finite velocity components: {v}")
        raise SuperluminalError(f"velocity reaches speed {math.sqrt(speed_sq.max()):.6g} >= 1")
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


def _shift_cells(coeffs, deltas) -> np.ndarray:
    """Ascending coefficients in w of p_i(w + deltas[i]) for the (n, 3, K)
    ascending coefficients of each cell's p_i, by Horner steps in numpy's
    ``Polynomial(row)(Polynomial([delta, 1]))`` order: each row is that
    composition padded with zeros, bit for bit (every product sum starts
    from 0.0, which turns -0.0 into 0.0).  A cell with delta == 0 is kept."""
    out = np.array(coeffs, dtype=float)
    moved = np.flatnonzero(deltas)
    c, d = out[moved], np.asarray(deltas, dtype=float)[moved, None, None] + 0.0
    acc = np.zeros_like(c)
    acc[..., 0] = c[..., -1] + 0.0
    for k in range(c.shape[-1] - 2, -1, -1):
        nxt = 0.0 + acc * d
        nxt[..., 1:] += acc[..., :-1]
        nxt[..., 0] = c[..., k] + nxt[..., 0]
        acc = nxt
    out[moved] = acc
    return out


def _cell_rows(coeffs) -> tuple:
    """Position, velocity and acceleration rows of (..., 3, K) ascending
    coefficients, as ``npoly.polyder`` forms them: a constant's derivative is
    the constant times 0."""
    rows = [coeffs]
    for m in (1, 2):
        rows.append(rows[-1][..., 1:] * np.arange(1, rows[-1].shape[-1])
                    if m < coeffs.shape[-1] else coeffs[..., :1] * 0)
    return tuple(rows)


def _order(order) -> int:
    """A derivative order: the integer 0, 1 or 2 (a bool is not), else
    DomainError."""
    if (type(order) is int or isinstance(order, np.integer)) and 0 <= order <= 2:
        return order
    raise DomainError(f"derivative order must be 0, 1 or 2, got {order!r}")


def _cells(knots, coeffs) -> tuple:
    """Read-only C-order copies of the knots (n+1,) and coefficients
    (n, 3, K) of n cells, under the one validation rule of every cell:
    finite knots in increasing order and finite coefficients.  Speed is a
    world-line rule, judged by `PiecewiseTrajectory`."""
    knots, coeffs = np.array(knots, dtype=float), np.array(coeffs, dtype=float, order="C")
    if not np.isfinite(knots).all():
        raise DomainError("segment times must be finite")
    bad = np.flatnonzero(~(knots[:-1] < knots[1:]))
    if bad.size:
        a, b = knots[bad[0] : bad[0] + 2].tolist()
        raise DomainError(f"segment needs t_start < t_end, got [{a}, {b}]")
    if not np.isfinite(coeffs).all():
        raise DomainError("segment coefficients must be finite")
    knots.setflags(write=False)
    coeffs.setflags(write=False)
    return knots, coeffs


@dataclass(frozen=True, eq=False)
class Segment:
    """One smooth polynomial piece of a trajectory.

    The position on [t_start, t_end] is ``sum_k coeffs[:, k] * (t - t_start)**k``.
    A segment is a plain polynomial cell, of a world line or of a
    displacement field alike; `PiecewiseTrajectory` judges its speed.  It
    compares and hashes by identity.
    """

    t_start: float
    t_end: float
    coeffs: np.ndarray  # shape (3, K), ascending powers of (t - t_start)

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if c.shape[0] != 3 or c.shape[1] < 1:
            raise DomainError(f"segment coeffs must have shape (3, K>=1), got {c.shape}")
        object.__setattr__(self, "coeffs", _cells([self.t_start, self.t_end], c[None])[1][0])

    # -- construction helpers -------------------------------------------------

    @classmethod
    def linear(cls, t0: float, t1: float, x0, x1) -> "Segment":
        x0 = vec3(x0)
        x1 = vec3(x1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v = (x1 - x0) / (t1 - t0)
        return cls(t0, t1, np.column_stack([x0, v]))

    @classmethod
    def hermite(cls, t0: float, t1: float, x0, v0, x1, v1) -> "Segment":
        """Cubic interpolating endpoint positions and one-sided velocities."""
        _, c = _hermite_cells([t0, t1], [vec3(x0), vec3(x1)], [vec3(v0), vec3(v1)])
        return cls(t0, t1, c[0])

    # -- evaluation ------------------------------------------------------------

    @cached_property
    def _rows(self) -> tuple:
        """`_cell_rows` as float tuples, made on the first scalar read."""
        return tuple(tuple(map(tuple, r.tolist())) for r in _cell_rows(self.coeffs))

    def at(self, t: float, order: int = 0) -> list:
        """Position (order 0), velocity (1) or acceleration (2) at a float
        time, as a list of three floats; any other order raises DomainError."""
        return self._local(t - self.t_start, _order(order))

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

    def max_speed(self) -> float:
        """Exact max |dx/dt| over the segment.

        |v|^2 is a polynomial, so its maximum on [0, h] sits at an endpoint or
        at a real stationary point, a root of d|v|^2/du from an eigenvalue
        solve; the candidates are clipped into [0, h].  Extra candidates
        never lower the maximum.
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
            ds2 = [j * s2[j] for j in range(1, len(s2))]
            us += [min(max(r.real, 0.0), h) for r in npoly.polyroots(ds2)
                   if abs(r.imag) <= 1e-6 * max(1.0, abs(r))]
        speeds = []
        for u in set(us):
            vx, vy, vz = self._local(u, 1)
            speeds.append(math.sqrt(vx * vx + vy * vy + vz * vz))
        return max(speeds)


@dataclass(frozen=True, eq=False)
class PackedChain:
    """A segment chain as arrays, for evaluating many times at once.

    ``rows[m]`` holds the order-m (position, velocity, acceleration) rows of
    every segment as an (nseg, 3, K_m) array, ascending powers, padded with
    zeros at the high end; the padding leaves Horner's result bit for bit
    unchanged.
    """

    knots: np.ndarray  # (nseg + 1,): every segment start, then the chain's end
    rows: tuple  # three (nseg, 3, K_m) arrays

    @cached_property
    def ends(self) -> np.ndarray:
        """(2, nseg, 3): every segment's position at its start and at its end."""
        n = self.knots.size - 1
        index = np.arange(2 * n) % n
        return self.at(index, np.concatenate([self.knots[:-1], self.knots[1:]])).reshape(2, n, 3)

    @cached_property
    def knot_positions(self) -> np.ndarray:
        """(nseg + 1, 3): the right-sided position at each knot."""
        return np.concatenate([self.ends[0], self.ends[1, -1:]])

    @cached_property
    def hull(self) -> tuple:
        """(C, rho): a ball holding every knot position, centred on their
        bounding box, with rho the largest knot distance from C."""
        xk = self.knot_positions
        centre = 0.5 * (xk.min(axis=0) + xk.max(axis=0))
        d = xk - centre
        return centre, float(np.sqrt((d * d).sum(axis=1)).max())

    @classmethod
    def hermite(cls, times, positions, velocities, left_velocities=None) -> "PackedChain":
        """The cubic-Hermite cells of `hermite_trajectory`, without segments:
        (n, ..., 3) node rows give (nseg, ..., 3, K) cell rows, so (n, C, 3)
        rows make a bundle of C fields on one knot vector."""
        knots, coeffs = _hermite_cells(times, positions, velocities, left_velocities)
        return cls(knots, _cell_rows(coeffs))

    def bounds(self, cells, order: int = 0) -> np.ndarray:
        """sum_k |c_k| h^k of the order-`order` rows c of cells `cells` (an
        index, an index array or a slice), h each cell's width: a bound on
        |x|, |v| or |a| over each cell."""
        c = self.rows[_order(order)][cells]
        sq = c * c
        norms = np.sqrt(sq[..., 0, :] + sq[..., 1, :] + sq[..., 2, :])
        h = (self.knots[1:] - self.knots[:-1])[cells]
        bound = norms[..., -1]
        for k in range(norms.shape[-1] - 2, -1, -1):  # by Horner
            bound = norms[..., k] + bound * h
        return bound

    def junction_gaps(self) -> np.ndarray:
        """|position gap| at each interior knot: the left limit against the
        right one."""
        gap = self.ends[1, :-1] - self.ends[0, 1:]
        return np.sqrt((gap * gap).sum(axis=-1))

    def gap_tol(self) -> float:
        """The largest junction gap of a continuous chain: 1e-9 max(1, max |x|)."""
        return 1e-9 * max(1.0, float(np.abs(self.rows[0][..., 0]).max()))

    def at(self, index, ts, order: int = 0) -> np.ndarray:
        """(..., 3) values of segments ``index`` at times ``ts`` (both of one
        shape, (M,) or scalar), by Horner in ``Segment.at``'s operation
        order: each lane is bit-identical to ``Segment.at``.  Rows with a
        field axis, (nseg, C, 3, K), give (..., C, 3) values."""
        c = self.rows[_order(order)][index]
        u = np.asarray(ts, dtype=float) - self.knots[index]
        u = u[(...,) + (None,) * (c.ndim - u.ndim - 1)]
        acc = c[..., -1] + u * 0
        for k in range(c.shape[-1] - 2, -1, -1):
            acc = c[..., k] + acc * u
        return acc

    def check_admissible(self, t0: float, t1: float) -> None:
        """Raise ContractError unless every field, zero outside the domain,
        vanishes (|b| <= 1e-12) at the window ends t0, t1 and, lest it tear
        the trajectory, at any domain end inside the window."""
        a, b = self.knots[[0, -1]].tolist()
        if a >= t1 or b <= t0:
            return  # zero on the whole window
        ts = np.array([t for t in (t0, t1) if a <= t <= b] + [t for t in (a, b) if t0 < t < t1])
        values = self.at(np.searchsorted(self.knots[1:-1], ts, side="right"), ts)
        mags = np.linalg.norm(values.reshape(ts.size, -1, 3), axis=-1).max(axis=1, initial=0.0)
        off = mags > 1e-12
        if off.any():
            i = int(off.argmax())
            raise ContractError(f"perturbation must vanish at t={ts[i]}, |b|={mags[i]:.3g}")


@dataclass(frozen=True, eq=False)
class SegmentChain:
    """An ordered chain of polynomial cells on [t_start, t_end]: knots (n+1,)
    and coefficients (n, 3, K), ascending powers of t - knots[i].

    The one place that answers which cell governs a time, and from which
    side at a junction.  A chain compares and hashes by identity.
    """

    knots: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        if np.ndim(self.knots) != 1 or np.size(self.knots) < 2:
            raise DomainError(f"{type(self).__name__} needs at least one segment")
        knots, coeffs = _cells(self.knots, self.coeffs)
        if coeffs.ndim != 3 or coeffs.shape[:2] != (knots.size - 1, 3) or not coeffs.shape[2]:
            raise DomainError(f"segment coeffs must have shape ({knots.size - 1}, 3, K>=1), "
                              f"got {coeffs.shape}")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "packed", PackedChain(knots, _cell_rows(coeffs)))
        object.__setattr__(self, "t_start", knots[0].item())
        object.__setattr__(self, "t_end", knots[-1].item())

    @classmethod
    def from_segments(cls, segments, *fields):
        """The chain of exactly abutting `Segment` objects, their
        coefficients padded with zeros to the widest."""
        segs = tuple(segments)
        if not segs:
            raise DomainError(f"{cls.__name__} needs at least one segment")
        for a, b in zip(segs, segs[1:]):
            if b.t_start != a.t_end:
                raise DomainError(
                    f"segments must abut exactly: {a.t_end} != {b.t_start}"
                )
        coeffs = np.zeros((len(segs), 3, max(s.coeffs.shape[1] for s in segs)))
        for i, s in enumerate(segs):
            coeffs[i, :, : s.coeffs.shape[1]] = s.coeffs
        return cls([s.t_start for s in segs] + [segs[-1].t_end], coeffs, *fields)

    @cached_property
    def segments(self) -> tuple:
        """One `Segment` per cell, made on first read."""
        ts = self.knots.tolist()
        return tuple(map(Segment, ts, ts[1:], self.coeffs))

    def junction_times(self) -> list:
        """Interior junction times (candidate breaking points)."""
        return self.knots[1:-1].tolist()

    def segment_at(self, t: float, side: Side = Side.RIGHT) -> Segment:
        """The segment governing time t, by `segment_indices`."""
        return self.segments[int(self.segment_indices(t, side))]

    def segment_indices(self, ts, side: Side = Side.RIGHT) -> np.ndarray:
        """Indices of the segments governing each of the times ``ts``: at a
        junction, the one starting there (RIGHT) or the one ending there
        (LEFT).  A time within _EDGE_SLACK * max(1, |t|) outside the domain
        gets the end segment; one farther out raises DomainError."""
        ts = np.asarray(ts, dtype=float)
        outside = (ts < self.t_start) | (ts > self.t_end)
        if outside.any():
            slack = _EDGE_SLACK * np.maximum(1.0, np.abs(ts))
            far = (ts < self.t_start - slack) | (ts > self.t_end + slack)
            if far.any():
                raise DomainError(f"time {ts[far][0]} outside domain "
                                  f"[{self.t_start}, {self.t_end}]")
        junctions = self.knots[1:-1]
        return np.searchsorted(junctions, ts, side=side.value)

    def nearest_junctions(self, ts, width) -> tuple:
        """(j, near) for each of the times ``ts``: j is the junction before
        t if it lies within ``width`` (one, or one per time), else the one
        at or after t, and near is |j - t| < width; without junctions j is
        ``ts`` and near is all False."""
        ts = np.asarray(ts, dtype=float)
        junctions = self.knots[1:-1]
        if not junctions.size:
            return ts, np.zeros(ts.shape, dtype=bool)
        i = np.searchsorted(junctions, ts)
        before = junctions[np.maximum(i - 1, 0)]
        after = junctions[np.minimum(i, junctions.size - 1)]
        j = np.where((i > 0) & (ts - before < width), before, after)
        return j, np.abs(j - ts) < width

    def evaluate(self, ts, order: int = 0, side: Side = Side.RIGHT) -> np.ndarray:
        """Position (order 0), velocity (1) or acceleration (2) at each of the
        times ``ts`` ((M,)), as an (M, 3) array, or at one time as a (3,)
        row; lane i is bit-identical to ``segment_at(ts[i], side).at(ts[i],
        order)``."""
        ts = np.asarray(ts, dtype=float)
        return self.packed.at(self.segment_indices(ts, side), ts, order)

    def max_speed(self) -> float:
        """Exact max |v| over the chain.  A cell's speed stays within its
        `PackedChain.bounds`, so the exact `Segment.max_speed` runs only on
        the cells whose bound reaches the largest knot speed."""
        n, ts = self.knots.size - 1, self.knots.tolist()
        v = self.packed.at(np.arange(2 * n) % n, np.r_[self.knots[:-1], self.knots[1:]], 1)
        floor = (1.0 - 1e-9) * float(np.sqrt((v * v).sum(axis=1)).max())
        cells = np.flatnonzero(self.packed.bounds(slice(None), 1) >= floor).tolist()
        return max(Segment(ts[i], ts[i + 1], self.coeffs[i]).max_speed() for i in cells)


@dataclass(frozen=True, eq=False)
class PiecewiseTrajectory(SegmentChain):
    """A world line: a chain of segments plus the particle it describes.

    The one home of both world-line rules.  Speed: |v(u)| <= sum_k |v_k| u^k
    on [0, h] (`PackedChain.bounds`), so a segment whose bound stays 1e-9
    below 1 passes, and the exact `Segment.max_speed` judges the rest; a
    speed of 1 or more raises SuperluminalError.  Continuity: a junction gap
    above `PackedChain.gap_tol` raises DomainError.
    """

    particle: ParticleParams

    def __post_init__(self):
        super().__post_init__()
        packed = self.packed
        for i in np.flatnonzero(~(packed.bounds(slice(None), 1) < 1.0 - 1e-9)).tolist():
            seg = Segment(*self.knots[i : i + 2].tolist(), self.coeffs[i])
            speed = seg.max_speed()
            if speed >= 1.0:
                raise SuperluminalError(
                    f"segment [{seg.t_start}, {seg.t_end}] reaches speed {speed:.6g} >= 1")
        gaps = packed.junction_gaps()
        torn = gaps > packed.gap_tol()
        if torn.any():
            i = int(torn.argmax())
            raise DomainError(
                f"position gap {gaps[i]:.3g} at junction t={packed.knots[i + 1]}")

    def position(self, t: float, side: Side = Side.RIGHT) -> Vec3:
        return self.evaluate(t, 0, side)

    def velocity(self, t: float, side: Side = Side.RIGHT) -> Vec3:
        return self.evaluate(t, 1, side)

    def acceleration(self, t: float, side: Side = Side.RIGHT) -> Vec3:
        return self.evaluate(t, 2, side)

    def state(self, t: float, side: Side = Side.RIGHT):
        return tuple(self.evaluate(t, order, side) for order in (0, 1, 2))


def _hermite_cells(times, positions, velocities, left_velocities=None) -> tuple:
    """Knots and (n, ..., 3, 4) coefficients of the cubic-Hermite cells
    through one (..., 3) position and velocity row per time; cell i ends
    with ``left_velocities[i + 1]``, which defaults to ``velocities``."""
    knots = np.asarray(times, dtype=float)
    if left_velocities is None:
        left_velocities = velocities
    nodes = [np.asarray(a, dtype=float) for a in (positions, velocities, left_velocities)]
    for name, a in zip(("positions", "velocities", "left velocities"), nodes):
        if knots.ndim != 1 or a.shape != (knots.size, *nodes[0].shape[1:-1], 3):
            raise DomainError(f"{name} need one (3,) row per time: got shape "
                              f"{a.shape} for {knots.size} times")
    x0, x1, v0, v1 = nodes[0][:-1], nodes[0][1:], nodes[1][:-1], nodes[2][1:]
    # powers of h on floats: numpy's array power differs in the last bit on some lanes
    powers = [(u, u**2, u**3) for u in (knots[1:] - knots[:-1]).tolist()]
    h1, h2, h3 = np.array(powers, dtype=float).T.reshape((3, -1) + (1,) * (x0.ndim - 1))
    # a repeated time divides by zero without a warning; the cell rule rejects it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c2 = 3.0 * (x1 - x0) / h2 - (2.0 * v0 + v1) / h1
        c3 = 2.0 * (x0 - x1) / h3 + (v0 + v1) / h2
    return knots, np.moveaxis(np.array([x0, v0, c2, c3]), 0, -1)


def polygonal_from_vertices(vertices, particle: ParticleParams) -> PiecewiseTrajectory:
    """Piecewise-constant-velocity trajectory through (time, position) vertices.

    Vertex times that do not increase strictly raise DomainError, by the cell
    rule, before any chord speed of 1 or more raises SuperluminalError, by the
    trajectory rule.
    """
    verts = [(float(t), vec3(x)) for t, x in vertices]
    if len(verts) < 2:
        raise DomainError("need at least two vertices")
    knots, xs = np.array([t for t, _ in verts]), np.array([x for _, x in verts])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slopes = (xs[1:] - xs[:-1]) / (knots[1:] - knots[:-1])[:, None]
    coeffs = np.array([xs[:-1], slopes]).transpose(1, 2, 0)
    return PiecewiseTrajectory(knots, coeffs, particle)


def hermite_trajectory(times, positions, velocities, particle: ParticleParams,
                       left_velocities=None) -> PiecewiseTrajectory:
    """C^1 cubic-Hermite trajectory through nodes with prescribed velocities.

    ``positions`` and ``velocities`` hold one (3,) row per time, else
    DomainError.  With ``left_velocities`` (the same shape) each cell ends
    with those, so the velocity jumps at a node where they differ from
    ``velocities``, which each cell starts with.
    """
    return PiecewiseTrajectory(*_hermite_cells(times, positions, velocities, left_velocities),
                               particle)


def time_window(start, end) -> tuple:
    """(start, end) as floats: both ends finite and start <= end, else
    DomainError."""
    if not (math.isfinite(start) and math.isfinite(end)):
        raise DomainError(f"window times must be finite, got [{start}, {end}]")
    if end < start:
        raise DomainError(f"window must have start <= end, got [{start}, {end}]")
    return float(start), float(end)


@dataclass(frozen=True)
class BoundaryData:
    """Boundary set of the variational problem.

    ``start_time``/``end_time`` delimit the variable window of particle 1;
    ``window2`` is the (possibly cone-staggered) variable window of particle 2
    and defaults to the same interval.  ``history1``/``history2`` optionally
    carry the frozen continuation of each trajectory outside its window; they
    are read only by the problem-level functions of `wfvar.optimizer`, which
    merge each partner with its history once, and may be omitted when the
    trajectories already cover every cone time touched by the windows.
    ``k2`` is the additive action constant contributed by the frozen partner
    arc.
    """

    start_time: float
    end_time: float
    history1: PiecewiseTrajectory | None = None
    history2: PiecewiseTrajectory | None = None
    k2: float = 0.0
    window2: tuple | None = None

    def __post_init__(self):
        time_window(self.start_time, self.end_time)
        if not math.isfinite(self.k2):
            raise DomainError("K2 must be finite")
        if self.window2 is not None:
            a, b = self.window2
            object.__setattr__(self, "window2", time_window(a, b))

    def window(self, k: int) -> tuple:
        """Variable window of particle k (1 or 2)."""
        if k == 1 or self.window2 is None:
            return (self.start_time, self.end_time)
        return self.window2


@dataclass(frozen=True, eq=False)
class Perturbation(SegmentChain):
    """Piecewise-polynomial displacement field b(t) on a window.

    Admissible variations vanish at both window endpoints; that contract is
    checked where it matters (the directional derivative), not at
    construction, so general displacement fields remain expressible.
    """

    def value(self, t: float, side: Side = Side.RIGHT) -> Vec3:
        return self.evaluate(t, 0, side)

    def derivative(self, t: float, side: Side = Side.RIGHT) -> Vec3:
        return self.evaluate(t, 1, side)

    def check_admissible(self, t0: float, t1: float) -> None:
        """`PackedChain.check_admissible` of b's cells."""
        self.packed.check_admissible(t0, t1)

    @classmethod
    def tent(cls, t0: float, t_peak: float, t1: float, amplitude) -> "Perturbation":
        """Piecewise-linear bump: 0 at t0 and t1, `amplitude` at t_peak."""
        amp = vec3(amplitude)
        zero = np.zeros(3)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            slopes = [(amp - zero) / (t_peak - t0), (zero - amp) / (t1 - t_peak)]
        coeffs = np.array([[zero, slopes[0]], [amp, slopes[1]]]).transpose(0, 2, 1)
        return cls([t0, t_peak, t1], coeffs)

    @classmethod
    def from_nodes(cls, times, values, velocities=None) -> "Perturbation":
        """Cubic-Hermite displacement through nodes (velocities default to
        parabolic finite differences)."""
        vals = np.asarray(values, dtype=float)
        if velocities is None:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                velocities = fd_node_velocities(times, vals)
        return cls(*_hermite_cells(times, vals, velocities))


def fd_node_velocities(times, values) -> np.ndarray:
    """(n, ..., 3) node derivative estimates of (n, ..., 3) node values,
    exact for quadratic data: the derivative at each node of the parabola
    through its 3-point stencil (the chord slope for two nodes).  Fewer than
    two times, or other than one row per time, raise DomainError."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.size < 2 or y.ndim < 2 or y.shape[0] != t.size or y.shape[-1] != 3:
        raise DomainError(f"values need one (3,) row per time, at least two: got shape "
                          f"{y.shape} for {t.size} times")
    if t.size == 2:
        return np.array([(y[1] - y[0]) / (t[1] - t[0])] * 2)
    j = np.clip(np.arange(t.size) - 1, 0, t.size - 3)
    t = t.reshape((-1,) + (1,) * (y.ndim - 1))
    t0, t1, t2 = t[j], t[j + 1], t[j + 2]
    return (y[j] * (2 * t - t1 - t2) / ((t0 - t1) * (t0 - t2))
            + y[j + 1] * (2 * t - t0 - t2) / ((t1 - t0) * (t1 - t2))
            + y[j + 2] * (2 * t - t0 - t1) / ((t2 - t0) * (t2 - t1)))


def add_perturbation(traj: PiecewiseTrajectory, pert: Perturbation,
                     eps: float) -> PiecewiseTrajectory:
    """The trajectory displaced by eps * b(t) (b treated as 0 outside its
    domain), on both knot sets; each cell re-bases the segments governing
    its midpoint onto its start."""
    # a set, not np.unique, which imports numpy.ma (about 1.4 MiB)
    knots = np.array(sorted({*traj.knots.tolist(), *pert.knots.tolist()}))
    knots = knots[(knots >= traj.t_start) & (knots <= traj.t_end)]
    a, b = knots[:-1], knots[1:]
    mid = 0.5 * (a + b)
    i = traj.segment_indices(mid)
    cells = _shift_cells(traj.coeffs[i], a - traj.knots[i])
    inside = np.flatnonzero((a >= pert.t_start) & (b <= pert.t_end))
    j = pert.segment_indices(mid[inside])
    shifts = eps * _shift_cells(pert.coeffs[j], a[inside] - pert.knots[j])
    coeffs = np.zeros(cells.shape[:-1] + (max(cells.shape[-1], shifts.shape[-1]),))
    coeffs[..., : cells.shape[-1]] = cells
    coeffs[inside, :, : shifts.shape[-1]] += shifts
    return PiecewiseTrajectory(knots, coeffs, traj.particle)


def _splice(full: PiecewiseTrajectory, part: PiecewiseTrajectory) -> PiecewiseTrajectory:
    """``full`` outside [part.t_start, part.t_end] and ``part`` inside, under
    part's particle: the cells of ``full`` that reach past either end, cut
    there, around the cells of ``part``.  ``full`` contains or abuts ``part``;
    a seam where the cells do not meet raises DomainError."""
    a, b = part.t_start, part.t_end
    knots, rows = full.knots, full.coeffs
    inner_knots, inner_rows = part.knots, part.coeffs
    i = int(np.searchsorted(knots[:-1], a))  # cells [0, i) start before a
    j = int(np.searchsorted(knots[1:], b, side="right"))  # cells [j, n) end after b
    m, k, kp = inner_knots.size - 1, rows.shape[-1], inner_rows.shape[-1]
    coeffs = np.zeros((i + m + knots.size - 1 - j, 3, max(k, kp)))
    coeffs[:i, :, :k] = rows[:i]
    coeffs[i : i + m, :, :kp] = inner_rows
    starts = knots[j:-1]
    coeffs[i + m :, :, :k] = _shift_cells(rows[j:], np.maximum(starts, b) - starts)
    return PiecewiseTrajectory(np.concatenate([knots[:i], inner_knots, knots[j + 1 :]]),
                               coeffs, part.particle)


def merge_history(traj: PiecewiseTrajectory,
                  history: PiecewiseTrajectory | None) -> PiecewiseTrajectory:
    """Extend a window trajectory, under its particle, with its frozen
    continuation, if any; a trajectory that is its own history is returned."""
    if history is None or history is traj:
        return traj
    if not (history.t_start <= traj.t_start and traj.t_end <= history.t_end
            or history.t_end == traj.t_start or traj.t_end == history.t_start):
        raise DomainError(
            f"history [{history.t_start}, {history.t_end}] neither contains nor "
            f"abuts the trajectory [{traj.t_start}, {traj.t_end}]"
        )
    return _splice(history, traj)


# -- JSON exchange format -----------------------------------------------------

def json_number(value) -> float:
    """A finite JSON number as a float.  Booleans, which ``float`` would take
    as 0 or 1, strings, which it would parse, NaN and infinities, which
    Python's ``json`` reads, and integers too large for a float raise
    ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:
        raise ValueError("integer too large for a float") from None
    raise ValueError(f"expected a finite number, got {value!r}")


def json_numbers(values, rows: bool = False) -> np.ndarray:
    """A list of JSON numbers, or with `rows` a list of equal-length lists of
    them, as one float array under `json_number`'s rules: booleans,
    strings, NaN, infinities, integers too large for a float and ragged
    rows raise ValueError."""
    types = set(map(type, [v for row in values for v in row] if rows else values))
    if not types <= {int, float}:
        raise ValueError(f"expected numbers, got {sorted(t.__name__ for t in types)}")
    try:
        array = np.array(values, dtype=float)
    except OverflowError:
        raise ValueError("integer too large for a float") from None
    if not np.isfinite(array).all():
        raise ValueError("expected finite numbers")
    return array


def read_json(path, what: str):
    """The JSON document in the file at `path`, read as UTF-8.  A file that
    is not valid JSON, that is not UTF-8 or that holds an integer past
    Python's digit limit raises ConfigError naming `what`."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def as_count(value, minimum: int = 0, what: str = "count") -> int:
    """`value` as a count >= `minimum`, else ConfigError.  Only integers
    count: floats, which ``int`` would truncate, and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ConfigError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def trajectory_to_dict(traj: PiecewiseTrajectory) -> dict:
    """Exchange form: coefficients ascending in the segment-local time t - t0."""
    ts = traj.knots.tolist()
    return {
        "particle": {"mass": traj.particle.mass, "charge": traj.particle.charge},
        "segments": [
            {"t0": t0, "t1": t1, "kind": "polynomial", "coeffs": coeffs}
            for t0, t1, coeffs in zip(ts, ts[1:], traj.coeffs.tolist())
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
            coeffs = json_numbers(sd["coeffs"], rows=True)
            segs.append(Segment(json_number(sd["t0"]), json_number(sd["t1"]), coeffs))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed trajectory record: {exc}") from exc
    return PiecewiseTrajectory.from_segments(segs, particle)


def save_trajectory(traj: PiecewiseTrajectory, path) -> None:
    with open(path, "w") as fh:
        json.dump(trajectory_to_dict(traj), fh, indent=1)
        fh.write("\n")


def load_trajectory(path) -> PiecewiseTrajectory:
    return trajectory_from_dict(read_json(path, "trajectory file"))
