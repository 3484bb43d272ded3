"""Seeded scenario files and output gates of the three benchmark workloads.

Each workload is a list of CLI jobs.  `build` writes every scenario file a
workload needs from the seed alone and returns the jobs; each job carries a
gate that reads the CSV/JSON outputs of the pass and returns a problem
string, or None when the outputs hold.  Gates use closed forms and
invariants only (no stored reference values), so they hold for every seed.

Nothing here imports wfvar: scenario generation and output checking work
on plain JSON and numpy, so a traced pass records only program spans.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("refine", "check", "radiation")

POS = {"mass": 1.0, "charge": 1.0}
NEG = {"mass": 1.0, "charge": -1.0}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `wfvar <command> --scenario <dir>/<scenario>`.

    Outputs land in the scenario's own directory; `outputs` lists the files
    the command writes, which the runner deletes before every pass so a
    failed job can never be judged on a stale file.
    """

    name: str
    command: str
    dir: Path
    scenario: str
    outputs: tuple
    gate: Callable[[], str | None]


# -- reading outputs ----------------------------------------------------------

def quantities(path: Path) -> dict:
    """A `quantity,value` CSV as a dict of floats."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["quantity", "value"]:
        raise ValueError(f"{path.name}: unexpected header {rows[0]}")
    return {name: float(value) for name, value in rows[1:]}


def table(path: Path) -> tuple:
    """Header and float rows of a report CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def trajectory_positions(path: Path, times) -> np.ndarray:
    """Positions of a saved trajectory JSON at the given times, shape (N, 3).

    Evaluates the exchange format directly (coefficients ascending in the
    segment-local time t - t0), right-continuous at junctions.
    """
    segs = json.loads(Path(path).read_text())["segments"]
    out = []
    for t in times:
        seg = next((s for s in segs if s["t0"] <= t < s["t1"]), segs[-1])
        u = t - seg["t0"]
        coeffs = np.asarray(seg["coeffs"], dtype=float)
        out.append(coeffs @ (u ** np.arange(coeffs.shape[1])))
    return np.array(out)


def minimizer_iterations(jobs) -> int:
    """Iterations reported by the `minimize` jobs of the last pass."""
    total = 0
    for job in jobs:
        if job.command == "minimize":
            try:
                total += int(quantities(job.dir / "minimize.csv")["iterations"])
            except (OSError, KeyError, ValueError):
                pass  # the job failed, and its gate counts that
    return total


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _gate(check):
    """Turn a check that raises or returns a message into a gate."""

    def gate():
        try:
            return check()
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    return gate


# -- scenario records ---------------------------------------------------------

def scenario(**fields) -> dict:
    return {"version": 1, "units": "c=1", "particles": [POS, NEG], **fields}


def write(path: Path, data: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n")


def random_rotation(rng) -> np.ndarray:
    """Uniform proper rotation from the QR decomposition of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def polygonal(vertices, rot=None) -> dict:
    """Inline polygonal record from (t, x) vertices, optionally rotated."""
    rot = np.eye(3) if rot is None else rot
    return {
        "kind": "polygonal",
        "vertices": [[float(t), *(rot @ np.asarray(x, dtype=float)).tolist()]
                     for t, x in vertices],
    }


def circle(omega, rho, span, dt, orientation, phase=0.0, rot=None) -> dict:
    """Cubic-Hermite record of uniform circular motion in the xy plane."""
    rot = np.eye(3) if rot is None else rot
    times = np.arange(-span, span + 0.5 * dt, dt)
    ang = omega * times + phase
    xs = orientation * rho * np.stack([np.cos(ang), np.sin(ang), 0.0 * ang], axis=1)
    vs = orientation * rho * omega * np.stack(
        [-np.sin(ang), np.cos(ang), 0.0 * ang], axis=1
    )
    return {
        "kind": "hermite",
        "times": times.tolist(),
        "positions": (xs @ rot.T).tolist(),
        "velocities": (vs @ rot.T).tolist(),
    }


def polygon_pair(rng) -> tuple:
    """Two polygonal world lines with breaks near t = -6, -2, 2, 6.

    Particle 1 stays within 0.5 of (-1.5, 0, 0) and particle 2 within 0.5
    of (1.5, 0, 0), so the pair never comes closer than 2 and chord speeds
    stay below 0.35.
    """
    base = np.array([-40.0, -20.0, -6.0, -2.0, 2.0, 6.0, 20.0, 40.0])
    pairs = []
    for center in ((-1.5, 0.0, 0.0), (1.5, 0.0, 0.0)):
        times = base.copy()
        times[1:-1] += rng.uniform(-0.5, 0.5, base.size - 2)
        dirs = rng.normal(size=(base.size, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = 0.5 * rng.uniform(0.0, 1.0, base.size) ** (1.0 / 3.0)
        xs = np.asarray(center) + dirs * radii[:, None]
        pairs.append(list(zip(times, xs)))
    return pairs[0], pairs[1]


# -- refine -------------------------------------------------------------------

def _refine(rng, root: Path) -> list:
    """`minimize` on the acceptance family, started from the encoded solution.

    The seed rotates a fixed template (velocity, partner direction) rigidly.
    The minimizer's steps are equivariant under rotations, so every seed
    does the same work; the partner 1e6 away breaks the symmetry only at
    the 1e-12 force level.
    """
    rot = random_rotation(rng)
    w = rot @ np.array([0.3, 0.1, 0.0])  # |w| = 0.316 < 0.4
    partner = rot @ np.array([1.0e6, 0.0, 0.0])
    far = 2.5e6
    d = root / "refine"
    write(d / "scenario.json", scenario(
        trajectory1=polygonal([(-far, -far * w), (far, far * w)]),
        trajectory2=polygonal([(-far, partner), (far, partner)]),
        boundary={"start_time": -1.0, "end_time": 1.0},
        options={"nodes_per_segment": 2, "break_times": [[0.0], []]},
    ))
    sample = np.linspace(-1.0, 1.0, 9)

    def check():
        q = quantities(d / "minimize.csv")
        if q["converged"] != 1.0:
            return f"minimize did not converge (max_el {q['max_el']:.3g})"
        if not q["max_el"] < 1e-6:
            return f"max_el {q['max_el']:.3g} >= 1e-6"
        dev1 = np.abs(trajectory_positions(d / "minimized1.json", sample)
                      - np.outer(sample, w)).max()
        dev2 = np.abs(trajectory_positions(d / "minimized2.json", sample)
                      - partner).max()
        if not max(dev1, dev2) < 1e-6:
            return f"minimized pair leaves the uniform line by {max(dev1, dev2):.3g}"
        return None

    return [Job("refine/minimize", "minimize", d, "scenario.json",
                ("minimize.csv", "minimized1.json", "minimized2.json"),
                _gate(check))]


# -- check --------------------------------------------------------------------

def _check(rng, root: Path) -> list:
    """`action` and `verify` on three pairs, each also rigidly rotated."""
    rot = random_rotation(rng)
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    poly1, poly2 = polygon_pair(rng)
    rest = [(-50.0, (0.0, 0.0, 0.0)), (50.0, (0.0, 0.0, 0.0))]
    offset = [(-50.0, (2.0, 0.0, 0.0)), (50.0, (2.0, 0.0, 0.0))]

    def pairs(r):
        return {
            "circle": (circle(0.5, 0.4, 50.0, 0.5, 1.0, phase, r),
                       circle(0.5, 0.4, 50.0, 0.5, -1.0, phase, r), (-1.0, 1.0)),
            "polygon": (polygonal(poly1, r), polygonal(poly2, r), (-4.0, 4.0)),
            "smoke": (polygonal(rest, r), polygonal(offset, r), (-2.0, 2.0)),
        }

    jobs = []
    for variant, r in (("", None), ("_rot", rot)):
        for name, (t1, t2, (a, b)) in pairs(r).items():
            d = root / f"{name}{variant}"
            write(d / "scenario.json", scenario(
                trajectory1=t1, trajectory2=t2,
                boundary={"start_time": a, "end_time": b},
            ))
            base = root / name
            jobs.append(Job(f"check/{name}{variant}/action", "action", d,
                            "scenario.json", ("action.csv",),
                            _gate(_action_gate(name, d, base, variant))))
            jobs.append(Job(f"check/{name}{variant}/verify", "verify", d,
                            "scenario.json", ("verify.csv",),
                            _gate(_verify_gate(name, d, base, variant))))
    return jobs


def _action_gate(name, d, base, variant):
    def check():
        q = quantities(d / "action.csv")
        if not all(math.isfinite(v) for v in q.values()):
            return f"non-finite action {q}"
        if name == "smoke":
            for key in ("action1", "action2"):
                if abs(q[key] + 2.0) > 2e-10:
                    return f"smoke {key} {q[key]!r} != -2"
        if variant:
            ref = quantities(base / "action.csv")["total"]
            if not _close(q["total"], ref, 1e-10):
                return f"rotated total action {q['total']!r} != {ref!r}"
        return None

    return check


def _verify_gate(name, d, base, variant):
    def check():
        q = quantities(d / "verify.csv")
        if not all(math.isfinite(v) for v in q.values()):
            return f"non-finite verify report {q}"
        if name == "smoke" and abs(q["max_el"] - 0.25) > 1e-6:
            return f"smoke max_el {q['max_el']!r} != 0.25"
        if variant:
            ref = quantities(base / "verify.csv")["max_el"]
            if not _close(q["max_el"], ref, 1e-6):
                return f"rotated max_el {q['max_el']!r} != {ref!r}"
        return None

    return check


# -- radiation ----------------------------------------------------------------

def _radiation(rng, root: Path) -> list:
    """Far-cone work only: fluxes, a gah scan and a partner round trip."""
    jobs = []

    # radiating circle pair on the default 595-direction mesh
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    times = sorted(rng.uniform(-2.0, 2.0, 3).tolist())
    d = root / "circle_flux"
    write(d / "scenario.json", scenario(
        trajectory1=circle(0.5, 0.4, 10.0, 0.1, 1.0, phase),
        trajectory2=circle(0.5, 0.4, 10.0, 0.1, -1.0, phase),
        options={"times": times, "radius": 5.0},
    ))

    def circle_check(d=d):
        header, rows = table(d / "flux.csv")
        if header != ["t", "radius", "flux"] or rows.shape[0] != len(times):
            return f"flux.csv has {rows.shape[0]} rows, want {len(times)}"
        if not np.all(np.isfinite(rows)):
            return "non-finite circle-pair flux"
        return None

    jobs.append(Job("radiation/circle_flux", "flux", d, "scenario.json",
                    ("flux.csv",), _gate(circle_check)))

    # lone slow circle: retarded flux is the Larmor power (2/3) a^2
    omega, rho = 0.1, 0.2
    d = root / "larmor"
    write(d / "scenario.json", scenario(
        trajectory1=circle(omega, rho, 25.0, 0.5, 1.0, float(rng.uniform(0.0, 2.0 * math.pi))),
        options={"times": [float(rng.uniform(-1.0, 1.0))], "radius": 20.0,
                 "retarded_only": True},
    ))
    larmor = (2.0 / 3.0) * (rho * omega**2) ** 2

    def larmor_check(d=d):
        _, rows = table(d / "flux.csv")
        flux = float(rows[0, 2])
        if not abs(abs(flux) - larmor) < 0.05 * larmor:
            return f"lone-circle flux {flux:.6g} misses Larmor {larmor:.6g} by > 5%"
        return None

    jobs.append(Job("radiation/larmor", "flux", d, "scenario.json",
                    ("flux.csv",), _gate(larmor_check)))

    # polygonal pair: radiation-free wherever the residual is defined
    poly1, poly2 = polygon_pair(rng)
    d = root / "gah"
    write(d / "scenario.json", scenario(
        trajectory1=polygonal(poly1), trajectory2=polygonal(poly2),
        options={"time_range": [-5.0, 5.0, 100], "directions": 32},
    ))

    def gah_check(d=d):
        _, rows = table(d / "gah_scan.csv")
        if rows.shape[0] != 100 * 32:
            return f"gah scan has {rows.shape[0]} samples, want 3200"
        defined = rows[:, 7] == 1.0
        if not defined.mean() > 0.95:
            return f"only {defined.mean():.3f} of gah samples defined"
        worst = float(np.linalg.norm(rows[defined, 4:7], axis=1).max())
        if not worst < 1e-10:
            return f"gah residual {worst:.3g} >= 1e-10"
        return None

    jobs.append(Job("radiation/gah_scan", "gah-scan", d, "scenario.json",
                    ("gah_scan.csv",), _gate(gah_check)))

    # partner round trip: construct from a linear family, then its flux
    u_minus, u_plus, w = (_ball(rng, r) for r in (0.25, 0.25, 0.15))
    q1 = np.array([0.0, 1.5, 0.0]) + _ball(rng, 0.2)
    zero = [0.0, 0.0, 0.0]
    traj2 = polygonal([(-60.0, -60.0 * u_minus), (0.0, zero), (60.0, 60.0 * u_plus)])
    family = {
        "kind": "linear", "t_start": -40.0,
        "intervals": [
            {"t_edge": 0.0, "p1": q1.tolist(), "v1": w.tolist(),
             "p2": zero, "v2": u_minus.tolist()},
            {"t_edge": 40.0, "p1": q1.tolist(), "v1": w.tolist(),
             "p2": zero, "v2": u_plus.tolist()},
        ],
    }
    d = root / "partner"
    write(d / "scenario.json", scenario(
        trajectory2=traj2, family=family,
        options={"directions": 8, "t1_grid": [-8.0, 8.0, 33]},
    ))
    flux_times = sorted(rng.uniform(-1.8, 1.8, 3).tolist())
    write(d / "flux.json", scenario(
        trajectory1_file="partner.json", trajectory2=traj2,
        options={"times": flux_times, "radius": 3.0},
    ))

    def partner_check(d=d):
        _, rows = table(d / "partner.csv")
        spread = float(rows[:, 4].max())
        if not spread < 1e-6:
            return f"partner spread {spread:.3g} >= 1e-6"
        dev = np.abs(rows[:, 1:4] - (q1 + np.outer(rows[:, 0], w))).max()
        if not dev < 1e-6:
            return f"recovered partner leaves q1 + t w by {dev:.3g}"
        return None

    def partner_flux_check(d=d):
        _, rows = table(d / "flux.csv")
        if rows.shape[0] != len(flux_times):
            return f"flux.csv has {rows.shape[0]} rows, want {len(flux_times)}"
        worst = float(np.abs(rows[:, 2]).max())
        if not worst < 1e-8:
            return f"recovered-pair flux {worst:.3g} >= 1e-8"
        return None

    jobs.append(Job("radiation/construct_partner", "construct-partner", d,
                    "scenario.json", ("partner.json", "partner.csv"),
                    _gate(partner_check)))
    jobs.append(Job("radiation/partner_flux", "flux", d, "flux.json",
                    ("flux.csv",), _gate(partner_flux_check)))
    return jobs


def _ball(rng, radius: float) -> np.ndarray:
    """Uniform point in the ball of the given radius."""
    v = rng.normal(size=3)
    return radius * rng.uniform() ** (1.0 / 3.0) * v / np.linalg.norm(v)


_BUILDERS = {"refine": _refine, "check": _check, "radiation": _radiation}


def build(workload: str, seed: int, root: Path) -> list:
    """Write the workload's scenario files under `root`; return its jobs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, Path(root))
