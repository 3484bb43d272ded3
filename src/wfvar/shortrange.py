"""Families of non-radiating separations and partner-trajectory construction.

A pair has vanishing retarded far fields exactly when the cone-linked
separation x1(t1) - x2(t2), viewed as a function of the sphere time t and
direction n, is piecewise linear in t.  Each smoothness interval sigma then
carries two bounded direction maps: a transverse offset D_sigma(n) and a
rotation-like term L_sigma(n) whose nonzero value is what permits distinct
velocities at the two cone ends.  This module stores such families, checks
the rigidity obstruction that forces equal velocities when L = 0, walks
sewing chains of cone-linked breaking times, and reconstructs a partner
trajectory from one trajectory plus a family.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import legder, legval

from .core import (
    ParticleParams,
    PiecewiseTrajectory,
    Vec3,
    as_count,
    cross,
    fd_node_velocities,
    hermite_trajectory,
    json_number,
    polygonal_from_vertices,
    vec3,
)
from .errors import (
    ConfigError,
    ContractError,
    ConvergenceError,
    DomainError,
    InconsistentParamsError,
    InsufficientHistoryError,
    InsufficientSamplingError,
    SuperluminalError,
)
from .lightcone import Branch, cone_time, far_cone_times

DEFAULT_LMAX = 4


def _directions(n) -> np.ndarray:
    """A (3,) direction or (M, 3) direction rows as a float array; a
    non-finite entry raises DomainError."""
    n = np.asarray(n, dtype=float)
    if n.ndim not in (1, 2) or n.shape[-1] != 3:
        raise DomainError(f"directions must have shape (3,) or (M, 3), got {n.shape}")
    if not np.all(np.isfinite(n)):
        raise DomainError(f"non-finite direction components: {n}")
    return n


def k12(v1, v2, n):
    """Dilation mismatch 1/(1 - n.v1) - 1/(1 - n.v2) between the cone ends,
    a float for one direction and an (M,) array for (M, 3) rows."""
    n = _directions(n)
    return 1.0 / (1.0 - n @ vec3(v1)) - 1.0 / (1.0 - n @ vec3(v2))


def _dilated_difference(v1: Vec3, v2: Vec3, n: np.ndarray) -> np.ndarray:
    """v1/(1 - n.v1) - v2/(1 - n.v2) per direction row."""
    return v1 / (1.0 - n @ v1)[..., None] - v2 / (1.0 - n @ v2)[..., None]


@lru_cache(maxsize=None)
def _legendre_derivative(l: int, m: int) -> np.ndarray:
    """Legendre series of the m-th derivative of P_l."""
    return legder(np.eye(l + 1)[l], m)


def _assoc_legendre(l: int, m: int, x: np.ndarray) -> np.ndarray:
    """P_l^m(x) = (-1)^m (1 - x^2)^(m/2) d^m/dx^m P_l(x), with the
    Condon-Shortley phase of scipy.special.lpmv, so stored harmonic tables
    keep their meaning."""
    return (-np.sqrt(1.0 - x * x)) ** m * legval(x, _legendre_derivative(l, m))


def _real_sph_basis(n, lmax: int) -> np.ndarray:
    """Real spherical harmonics up to degree lmax at a unit (3,) direction,
    shape (K,), or at (M, 3) unit rows, shape (M, K)."""
    n = np.asarray(n, dtype=float)
    ct = np.clip(n[..., 2], -1.0, 1.0)
    phi = np.arctan2(n[..., 1], n[..., 0])
    vals = np.empty(n.shape[:-1] + ((lmax + 1) ** 2,))
    i = 0
    for l in range(lmax + 1):
        for m in range(-l, l + 1):
            am = abs(m)
            norm = math.sqrt(
                (2 * l + 1)
                / (4.0 * math.pi)
                * math.factorial(l - am)
                / math.factorial(l + am)
            )
            p = _assoc_legendre(l, am, ct)
            if m == 0:
                vals[..., i] = norm * p
            elif m > 0:
                vals[..., i] = math.sqrt(2.0) * norm * p * np.cos(m * phi)
            else:
                vals[..., i] = math.sqrt(2.0) * norm * p * np.sin(am * phi)
            i += 1
    return vals


def fibonacci_sphere(count: int) -> np.ndarray:
    """`count` roughly evenly spread unit directions (a golden-angle spiral)."""
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _linear_cone_time(p: Vec3, v: Vec3, t, n: np.ndarray):
    # sphere-time cone condition t_k = t + n.x(t_k) for x(t_k) = p + v t_k
    return (t + n @ p) / (1.0 - n @ v)


@dataclass(frozen=True)
class SeparationFamilyParams:
    """Per-interval direction maps (D_sigma, L_sigma) over sphere-time edges.

    Construct through one of the classmethods.  Every map takes (M, 3)
    direction rows and returns (M, 3) rows, or one constant (3,) row for all
    of them.  Evaluation projects both maps transverse to n unless the
    family was built with project=False, in which case `validate` is the
    gate that rejects non-transverse maps.
    """

    kind: str
    t_edges: np.ndarray
    d_raw: tuple
    l_raw: tuple
    project: bool = True
    payload: dict | None = None

    def __post_init__(self):
        edges = np.asarray(self.t_edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise DomainError("need at least two interval edges")
        if not np.all(np.diff(edges) > 0):
            raise DomainError("interval edges must be strictly increasing")
        if len(self.d_raw) != edges.size - 1 or len(self.l_raw) != edges.size - 1:
            raise DomainError("one D and one L map required per interval")
        object.__setattr__(self, "t_edges", edges)

    @classmethod
    def from_callables(cls, t_edges, d_funcs, l_funcs, project: bool = True):
        return cls("callable", np.asarray(t_edges, dtype=float),
                   tuple(d_funcs), tuple(l_funcs), project=project)

    @classmethod
    def from_harmonic_tables(cls, t_edges, d_tables, l_tables,
                             lmax: int = DEFAULT_LMAX):
        """Maps given as (3, (lmax+1)^2) real spherical-harmonic tables."""
        k = (lmax + 1) ** 2
        d_tables = tuple(np.asarray(tab, dtype=float) for tab in d_tables)
        l_tables = tuple(np.asarray(tab, dtype=float) for tab in l_tables)
        for tab in (*d_tables, *l_tables):
            if tab.shape != (3, k):
                raise DomainError(
                    f"harmonic tables must have shape (3, {k}), got {tab.shape}"
                )
        d_funcs = tuple(
            (lambda n, tab=tab: _real_sph_basis(n, lmax) @ tab.T) for tab in d_tables
        )
        l_funcs = tuple(
            (lambda n, tab=tab: _real_sph_basis(n, lmax) @ tab.T) for tab in l_tables
        )
        payload = {
            "lmax": lmax,
            "d_tables": [tab.tolist() for tab in d_tables],
            "l_tables": [tab.tolist() for tab in l_tables],
        }
        return cls("harmonic", np.asarray(t_edges, dtype=float),
                   d_funcs, l_funcs, payload=payload)

    @classmethod
    def from_linear_pieces(cls, t_edges, pieces):
        """Family generated by a pair of straight-line pieces per interval.

        Each piece is (p1, v1, p2, v2) with x_k(tau) = p_k + v_k tau on the
        interval; D and L then have closed forms and the family is exactly
        the one traced by a polygonal pair.
        """
        t_edges = np.asarray(t_edges, dtype=float)
        clean = []
        for piece in pieces:
            p1, v1, p2, v2 = (vec3(x) for x in piece)
            for v in (v1, v2):
                if float(v @ v) >= 1.0:
                    raise SuperluminalError("piece velocity must satisfy |v| < 1")
            clean.append((p1, v1, p2, v2))

        def d_func(n, edge, piece):
            p1, v1, p2, v2 = piece
            t1 = _linear_cone_time(p1, v1, edge, n)
            t2 = _linear_cone_time(p2, v2, edge, n)
            sep = (p1 + v1 * t1[:, None]) - (p2 + v2 * t2[:, None])
            return sep - (t1 - t2)[:, None] * n

        def l_func(n, piece):
            _, v1, _, v2 = piece
            return cross(n, _dilated_difference(v1, v2, n))

        d_funcs = tuple(
            (lambda n, e=t_edges[i], pc=pc: d_func(n, e, pc))
            for i, pc in enumerate(clean)
        )
        l_funcs = tuple((lambda n, pc=pc: l_func(n, pc)) for pc in clean)
        payload = {
            "pieces": [
                {
                    "p1": p1.tolist(), "v1": v1.tolist(),
                    "p2": p2.tolist(), "v2": v2.tolist(),
                }
                for p1, v1, p2, v2 in clean
            ]
        }
        return cls("linear", t_edges, d_funcs, l_funcs, payload=payload)

    @property
    def n_intervals(self) -> int:
        return self.t_edges.size - 1

    def interval_index(self, t):
        """Interval of a float time (an int), or of each of (M,) times."""
        edges = self.t_edges
        t = np.asarray(t, dtype=float)
        outside = ~((edges[0] <= t) & (t <= edges[-1]))
        if outside.any():
            raise DomainError(
                f"t={t[outside].flat[0]} outside the family domain "
                f"[{edges[0]}, {edges[-1]}]"
            )
        idx = np.minimum(np.searchsorted(edges, t, side="right") - 1, self.n_intervals - 1)
        return idx if idx.ndim else int(idx)

    def _evaluate(self, maps: tuple, sigma, n) -> np.ndarray:
        """The maps of interval `sigma` (one, or one per row) at direction
        rows n, one call per interval present."""
        n = _directions(n)
        shape = np.broadcast_shapes(n.shape[:-1], np.shape(sigma))
        rows = np.broadcast_to(n, shape + (3,)).reshape(-1, 3)
        sigmas = np.broadcast_to(sigma, shape).reshape(-1)
        out = np.empty(rows.shape)
        for s in set(sigmas.tolist()):
            pick = sigmas == s
            out[pick] = maps[s](rows[pick])
        if not np.all(np.isfinite(out)):
            raise DomainError(f"non-finite map output: {out[~np.isfinite(out).all(axis=1)]}")
        if self.project:
            out -= (rows * out).sum(axis=1)[:, None] * rows
        return out.reshape(shape + (3,))

    def d_sigma(self, sigma, n) -> np.ndarray:
        return self._evaluate(self.d_raw, sigma, n)

    def l_sigma(self, sigma, n) -> np.ndarray:
        return self._evaluate(self.l_raw, sigma, n)

    def validate(self, samples: int = 32, tol: float = 1e-12) -> None:
        """Check transversality and boundedness on a direction sample."""
        ns = fibonacci_sphere(samples)
        for sigma in range(self.n_intervals):
            for name, at in (("D", self.d_sigma), ("L", self.l_sigma)):
                try:
                    vals = at(sigma, ns)
                except DomainError as exc:
                    raise ContractError(f"{name}_{sigma} not finite: {exc}") from exc
                normal = (ns * vals).sum(axis=1)
                worst = int(np.abs(normal).argmax())
                if abs(normal[worst]) > tol:
                    raise ContractError(
                        f"n.{name}_{sigma} = {normal[worst]:.3g} violates "
                        f"transversality at n={ns[worst].tolist()}"
                    )


def separation_family(params: SeparationFamilyParams, t, n, dt12) -> np.ndarray:
    """Required separation x1(t1) - x2(t2) at sphere time t and direction n:
    (3,) for a float time and one direction, (M, 3) for (M,) times or
    (M, 3) direction rows."""
    return _separation(params, t, n, dt12)[0]


def _separation(params, t, n, dt12) -> tuple:
    """`separation_family` and the L_sigma rows it read."""
    n = _directions(n)
    sigma = params.interval_index(t)
    d = params.d_sigma(sigma, n)
    l_vec = params.l_sigma(sigma, n)
    lever = np.asarray(t - params.t_edges[sigma])[..., None]
    return d + np.asarray(dt12)[..., None] * n - lever * cross(n, l_vec), l_vec


def enforce_continuity(params: SeparationFamilyParams) -> SeparationFamilyParams:
    """Shift each D_sigma so the family is continuous across interval edges.

    At fixed n and fixed dt12 the separation jumps at an edge by the
    accumulated rotation term of the interval ending there; replacing each
    later offset with the end state of the previous interval removes the
    jump, and stays admissible because n x L is itself transverse.  D_0 is
    kept; every later D_sigma is overridden.
    """
    widths = np.diff(params.t_edges)

    def shifted_d(sigma):
        def func(n):
            total = params.d_sigma(0, n)
            for j in range(sigma):
                total = total - widths[j] * cross(n, params.l_sigma(j, n))
            return total

        return func

    d_funcs = tuple(shifted_d(s) for s in range(params.n_intervals))
    l_funcs = tuple(
        (lambda n, s=s: params.l_sigma(s, n))
        for s in range(params.n_intervals)
    )
    return SeparationFamilyParams.from_callables(params.t_edges, d_funcs, l_funcs)


def params_to_dict(params: SeparationFamilyParams) -> dict:
    if params.payload is None:
        raise ConfigError(f"{params.kind} families are not serializable")
    edges = params.t_edges
    out = {"kind": params.kind, "t_start": float(edges[0]), "intervals": []}
    if params.kind == "harmonic":
        out["lmax"] = params.payload["lmax"]
        for i in range(params.n_intervals):
            out["intervals"].append(
                {
                    "t_edge": float(edges[i + 1]),
                    "D_coeffs": params.payload["d_tables"][i],
                    "L_coeffs": params.payload["l_tables"][i],
                }
            )
    elif params.kind == "linear":
        for i, piece in enumerate(params.payload["pieces"]):
            out["intervals"].append({"t_edge": float(edges[i + 1]), **piece})
    else:
        raise ConfigError(f"unknown family kind {params.kind!r}")
    return out


def params_from_dict(data: dict) -> SeparationFamilyParams:
    try:
        kind = data["kind"]
        intervals = data["intervals"]
        if not isinstance(intervals, list) or not intervals:
            raise ConfigError("intervals must be a non-empty list")
        edges = [json_number(data["t_start"])] + [json_number(iv["t_edge"]) for iv in intervals]

        def numbers(rows):
            return [[json_number(c) for c in row] for row in rows]

        if kind == "harmonic":
            lmax = data.get("lmax", DEFAULT_LMAX)
            if isinstance(lmax, bool) or not isinstance(lmax, int) or lmax < 0:
                raise ConfigError(f"lmax must be a JSON integer >= 0, got {lmax!r}")
            d_tables = [numbers(iv["D_coeffs"]) for iv in intervals]
            l_tables = [numbers(iv["L_coeffs"]) for iv in intervals]
            return SeparationFamilyParams.from_harmonic_tables(
                edges, d_tables, l_tables, lmax=lmax
            )
        if kind == "linear":
            pieces = [numbers(iv[key] for key in ("p1", "v1", "p2", "v2")) for iv in intervals]
            return SeparationFamilyParams.from_linear_pieces(edges, pieces)
        raise ConfigError(f"unknown family kind {kind!r}")
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise ConfigError(f"malformed family parameters: {exc}") from exc


def save_family(params: SeparationFamilyParams, path) -> None:
    with open(path, "w") as fh:
        json.dump(params_to_dict(params), fh, indent=2)


def load_family(path) -> SeparationFamilyParams:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"family file is not valid JSON: {exc}") from exc
    return params_from_dict(data)


@dataclass(frozen=True)
class RigidityReport:
    max_violation: float
    violations: np.ndarray
    k_values: np.ndarray


def _require_spanning(directions: np.ndarray) -> None:
    if directions.shape[0] < 3 or np.linalg.matrix_rank(directions, tol=1e-9) < 3:
        raise InsufficientSamplingError(
            "need at least 3 non-coplanar direction samples"
        )


def rigidity_check(v1, v2, n_samples) -> RigidityReport:
    """Obstruction to a velocity-relation solution with no rotation term.

    With L = 0 the velocity relation forces the dilated velocity difference
    to be parallel to n for every direction at once, which pins v1 = v2.
    The report carries, per direction, the best-fit multiple of n and the
    norm of the transverse remainder.
    """
    ns = _directions(np.atleast_2d(n_samples))
    _require_spanning(ns)
    lhs = _dilated_difference(vec3(v1), vec3(v2), ns)
    k_values = (ns * lhs).sum(axis=1)
    violations = np.linalg.norm(lhs - k_values[:, None] * ns, axis=1)
    return RigidityReport(
        max_violation=float(violations.max()),
        violations=violations,
        k_values=k_values,
    )


@dataclass(frozen=True)
class SewingChain:
    """Cone-linked breaking times alternating between the two particles."""

    entries: tuple  # ((particle, time), ...)
    direction: str
    truncated: bool

    def times(self) -> list:
        return [t for _, t in self.entries]


def sewing_chain(traj1: PiecewiseTrajectory, traj2: PiecewiseTrajectory,
                 seed, direction: str, count: int) -> SewingChain:
    """Iterate the advanced (forward) or retarded (backward) cone map.

    The seed (particle index, time) is not included in the result.  If a
    cone step exits a trajectory domain the chain is truncated and flagged.
    """
    if direction not in ("forward", "backward"):
        raise ConfigError(f"direction must be 'forward' or 'backward', got {direction!r}")
    branch = Branch.ADVANCED if direction == "forward" else Branch.RETARDED
    particle, t = seed
    if particle not in (1, 2):
        raise DomainError("seed particle index must be 1 or 2")
    trajs = {1: traj1, 2: traj2}
    entries = []
    truncated = False
    for _ in range(as_count(count, 0, "count")):
        event = (float(t), trajs[particle].position(float(t)))
        other = 3 - particle
        try:
            sol = cone_time(trajs[other], event, branch)
        except InsufficientHistoryError:
            truncated = True
            break
        particle, t = other, sol.t_k
        entries.append((particle, float(t)))
    return SewingChain(tuple(entries), direction, truncated)


@dataclass(frozen=True)
class ConsistencyReport:
    """Direction spread of the reconstructed positions, per grid time."""

    t1_grid: np.ndarray
    positions: np.ndarray  # (T, 3) direction-mean positions
    spreads: np.ndarray  # (T,)
    max_spread: float


def _candidates(traj2, params, n_grid, t1, x1):
    """Every direction's reconstruction of x1(t1) given a trial position, with
    the partner's cone times and the L_sigma rows at the sphere times, all
    directions solved in one far-cone pass."""
    t = t1 - (n_grid * x1).sum(axis=1)
    t2 = far_cone_times(traj2, t, n_grid, 0.0, Branch.RETARDED)
    separation, l_vecs = _separation(params, t, n_grid, t1 - t2)
    return traj2.evaluate(t2) + separation, t2, l_vecs


def _solve_position(traj2, params, n_grid, t1, x0):
    """Least-squares position from the stacked per-direction relations."""
    x = vec3(x0).copy()
    for _ in range(60):
        cands, t2, l_vecs = _candidates(traj2, params, n_grid, t1, x)
        v2 = traj2.evaluate(t2, 1)
        doppler = 1.0 - (n_grid * v2).sum(axis=1)
        drhs_dt = (v2 - n_grid) / doppler[:, None] - cross(n_grid, l_vecs)
        res = (x - cands).reshape(-1)
        jac = (np.eye(3) + drhs_dt[:, :, None] * n_grid[:, None, :]).reshape(-1, 3)
        delta, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        x = x + delta
        scale = max(1.0, float(np.linalg.norm(x)))
        if float(np.linalg.norm(delta)) < 1e-13 * scale:
            return x
    raise ConvergenceError(f"partner position solve stalled at t1={t1}")


def construct_partner(traj2: PiecewiseTrajectory, params: SeparationFamilyParams,
                      n_grid, t1_grid, spread_tol: float = 1e-6,
                      particle: ParticleParams | None = None,
                      fit: str = "auto"):
    """Partner trajectory whose cone-linked separation realizes the family.

    For each grid time the stacked per-direction system is solved for one
    position; the per-direction candidates anchored at that position must
    then agree among themselves, and their spread is the consistency
    measure.  Exceeding `spread_tol` raises with the report attached.
    """
    params.validate()
    n_grid = _directions(np.atleast_2d(n_grid))
    norms = np.linalg.norm(n_grid, axis=1)
    if not np.all(norms > 0.0):
        raise DomainError("direction vectors must be nonzero")
    n_grid = n_grid / norms[:, None]
    _require_spanning(n_grid)
    t1s = np.asarray(t1_grid, dtype=float)
    if t1s.ndim != 1 or t1s.size < 2 or not np.all(np.diff(t1s) > 0):
        raise DomainError("t1_grid must be strictly increasing with >= 2 times")
    if fit not in ("auto", "polygonal", "hermite"):
        raise ConfigError(f"unknown fit mode {fit!r}")

    positions = np.empty((t1s.size, 3))
    spreads = np.empty(t1s.size)
    x_guess = traj2.position(t1s[0])
    for i, t1 in enumerate(t1s):
        x = _solve_position(traj2, params, n_grid, t1, x_guess)
        cands = _candidates(traj2, params, n_grid, t1, x)[0]
        mean = cands.mean(axis=0)
        positions[i] = mean
        spreads[i] = float(np.linalg.norm(cands - mean, axis=1).max())
        x_guess = x
    report = ConsistencyReport(
        t1_grid=t1s,
        positions=positions,
        spreads=spreads,
        max_spread=float(spreads.max()),
    )
    if report.max_spread > spread_tol:
        raise InconsistentParamsError(
            f"reconstructed positions spread {report.max_spread:.3g} over "
            f"directions (tolerance {spread_tol:.3g})",
            report=report,
        )
    if particle is None:
        particle = ParticleParams(mass=1.0, charge=-traj2.particle.charge)
    use_polygonal = fit == "polygonal" or (fit == "auto" and params.kind == "linear")
    if use_polygonal:
        traj1 = polygonal_from_vertices(list(zip(t1s, positions)), particle)
    else:
        vels = fd_node_velocities(t1s, positions)
        traj1 = hermite_trajectory(t1s, positions, vels, particle)
    return traj1, report
