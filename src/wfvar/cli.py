"""Batch command-line front end.

Every invocation runs exactly one command against a scenario file and writes
its outputs into a directory.  Scenarios are JSON with a `version` field and
explicit natural units (`"units": "c=1"`); trajectories and separation
families can be given inline or as file references resolved relative to the
scenario file.  Reports are CSV with a fixed header per command and floats
printed to 17 significant digits, so reruns of the same scenario are
byte-identical.

Exit codes: 0 on success, 1 for any scenario or domain failure (with a single
diagnostic line on stderr), 2 for an unknown command.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    BoundaryData,
    ParticleParams,
    PiecewiseTrajectory,
    as_count,
    hermite_trajectory,
    json_number,
    polygonal_from_vertices,
    save_trajectory,
    trajectory_from_dict,
    vec3,
)
from .errors import ConfigError, WfvarError
from .farfield import GUARD_BAND, gah_residuals, latlong_mesh, sphere_flux
from .optimizer import MinimizerReport, discretize, minimize, one_sided_actions, verify
from .shortrange import (
    SeparationFamilyParams,
    construct_partner,
    fibonacci_sphere,
    load_family,
    params_from_dict,
    sewing_chain,
)

SCENARIO_VERSION = 1


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario file plus the directory its file refs resolve against."""

    particles: tuple
    traj1: PiecewiseTrajectory | None
    traj2: PiecewiseTrajectory | None
    family: SeparationFamilyParams | None
    boundary: BoundaryData | None
    kappa: float | None
    options: dict
    base_dir: Path


@dataclass(frozen=True)
class ReportTable:
    """Generic CSV payload: a fixed header and value rows."""

    header: tuple
    rows: tuple


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def emit_report(report, path) -> None:
    """Write a report as CSV; floats round-trip at 17 significant digits."""
    if isinstance(report, MinimizerReport):
        table = ReportTable(
            ("quantity", "value"),
            (
                ("action", report.action),
                ("max_el", report.max_el),
                ("max_break", report.max_break),
                ("iterations", report.iterations),
                ("converged", int(report.converged)),
            ),
        )
    elif isinstance(report, ReportTable):
        table = report
    else:
        raise ConfigError(f"cannot serialize report of type {type(report).__name__}")
    lines = [",".join(table.header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in table.rows)
    Path(path).write_text("\n".join(lines) + "\n")


# -- scenario loading ---------------------------------------------------------

def _traj_from_record(record, particle: ParticleParams) -> PiecewiseTrajectory:
    if not isinstance(record, dict):
        raise ConfigError("inline trajectory must be a JSON object")
    try:
        if "segments" in record:
            # the scenario's particle, whatever the record names
            return trajectory_from_dict(
                {**record, "particle": {"mass": particle.mass, "charge": particle.charge}})
        kind = record.get("kind")
        if kind == "polygonal":
            return polygonal_from_vertices(_vertices(record["vertices"]), particle)
        if kind == "hermite":
            nodes = ([_floats(row) for row in record[key]] for key in ("positions", "velocities"))
            return hermite_trajectory(_floats(record["times"]), *nodes, particle)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed trajectory record: {exc}") from exc
    raise ConfigError(f"unknown trajectory kind {record.get('kind')!r}")


def _load_traj(data: dict, idx: int, particle: ParticleParams,
               base: Path) -> PiecewiseTrajectory | None:
    inline = data.get(f"trajectory{idx}")
    ref = data.get(f"trajectory{idx}_file")
    if inline is not None and ref is not None:
        raise ConfigError(
            f"trajectory{idx} given both inline and as a file reference"
        )
    if ref is not None:
        with open(base / ref) as fh:
            try:
                inline = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{ref} is not valid JSON: {exc}") from exc
    if inline is None:
        return None
    return _traj_from_record(inline, particle)


def _load_family_params(data: dict, base: Path) -> SeparationFamilyParams | None:
    inline = data.get("family")
    ref = data.get("family_file")
    if inline is not None and ref is not None:
        raise ConfigError("family given both inline and as a file reference")
    if ref is not None:
        return load_family(base / ref)
    if inline is None:
        return None
    return params_from_dict(inline)


def load_scenario(path) -> Scenario:
    path = Path(path)
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("scenario must be a JSON object")
    version = data.get("version")
    if version != SCENARIO_VERSION:
        raise ConfigError(
            f"scenario version must be {SCENARIO_VERSION}, got {version!r}"
        )
    if data.get("units") != "c=1":
        raise ConfigError('scenario must declare "units": "c=1"')
    raw_particles = data.get("particles")
    if not isinstance(raw_particles, list) or len(raw_particles) != 2:
        raise ConfigError("scenario needs a list of exactly two particles")
    try:
        particles = tuple(
            ParticleParams(json_number(p["mass"]), json_number(p["charge"]))
            for p in raw_particles
        )
        kappa = data.get("kappa")
        kappa = None if kappa is None else json_number(kappa)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed particle or kappa entry: {exc}") from exc
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("options must be a JSON object")
    base = path.resolve().parent
    traj1 = _load_traj(data, 1, particles[0], base)
    traj2 = _load_traj(data, 2, particles[1], base)

    boundary = None
    raw_b = data.get("boundary")
    if raw_b is not None:
        if not isinstance(raw_b, dict):
            raise ConfigError("boundary must be a JSON object")
        try:
            window2 = raw_b.get("window2")
            if window2 is not None:
                window2 = (json_number(window2[0]), json_number(window2[1]))
            boundary = BoundaryData(
                json_number(raw_b["start_time"]),
                json_number(raw_b["end_time"]),
                history1=traj1,
                history2=traj2,
                k2=json_number(raw_b.get("k2", 0.0)),
                window2=window2,
            )
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed boundary block: {exc}") from exc
    return Scenario(
        particles=particles,
        traj1=traj1,
        traj2=traj2,
        family=_load_family_params(data, base),
        boundary=boundary,
        kappa=kappa,
        options=options,
        base_dir=base,
    )


def _require(scen: Scenario, *, traj1=False, traj2=False, boundary=False,
             family=False) -> None:
    missing = []
    if traj1 and scen.traj1 is None:
        missing.append("trajectory1")
    if traj2 and scen.traj2 is None:
        missing.append("trajectory2")
    if boundary and scen.boundary is None:
        missing.append("boundary")
    if family and scen.family is None:
        missing.append("family")
    if missing:
        raise ConfigError(f"scenario is missing {', '.join(missing)}")


def _option(options: dict, key: str, convert, default=None):
    """options[key], or `default` when the key is absent, through `convert`;
    a value `convert` rejects is a ConfigError that names the key."""
    value = options.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"option {key} has a malformed value {value!r}") from exc


def _flag(value) -> bool:
    """A JSON boolean; anything else (the string "false", 1) is rejected."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _floats(values) -> list:
    return [json_number(v) for v in values]


def _vertices(rows) -> list:
    """(time, position) pairs of [t, x, y, z] rows."""
    return [(json_number(v[0]), vec3(_floats(v[1:4]))) for v in rows]


def _time_range(value) -> tuple:
    """[start, stop, count] of a time scan."""
    a, b, count = value
    return json_number(a), json_number(b), as_count(count)


def _scan_times(options: dict) -> list:
    if "times" in options and "time_range" in options:
        raise ConfigError("give either times or time_range, not both")
    if "times" in options:
        return _option(options, "times", _floats)
    if "time_range" in options:
        a, b, count = _option(options, "time_range", _time_range)
        return [float(t) for t in np.linspace(a, b, count)]
    raise ConfigError("scan options need times or time_range")


def _directions(options: dict, default_count: int) -> np.ndarray:
    value = options.get("directions")
    if value is None:
        return fibonacci_sphere(default_count)
    if isinstance(value, int):  # bool too, which `as_count` rejects
        return fibonacci_sphere(_option(options, "directions", lambda v: as_count(v, 1)))
    arr = _option(options, "directions", lambda v: np.array([_floats(row) for row in v]))
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
        raise ConfigError("directions must be a count or a list of 3-vectors")
    norms = np.linalg.norm(arr, axis=1)
    if np.any(norms == 0.0):
        raise ConfigError("direction vectors must be nonzero")
    return arr / norms[:, None]


def _t1_grid(value) -> np.ndarray:
    """[start, stop, count] with an integer count, else a list of times."""
    if isinstance(value, list) and len(value) == 3 and isinstance(value[2], int):
        return np.linspace(json_number(value[0]), json_number(value[1]), as_count(value[2]))
    return np.asarray(_floats(value))


def _mesh(value):
    """latlong_mesh of [n_theta, n_phi] counts, or None for the default mesh."""
    if value is None:
        return None
    n_theta, n_phi = value
    return latlong_mesh(as_count(n_theta, 1), as_count(n_phi, 1))


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


# -- command handlers ---------------------------------------------------------

def _cmd_action(scen: Scenario, out: Path, tol, quiet: bool) -> None:
    _require(scen, traj1=True, traj2=True, boundary=True)
    s1, s2 = one_sided_actions(scen.traj1, scen.traj2, scen.boundary, scen.kappa)
    path = out / "action.csv"
    emit_report(
        ReportTable(
            ("quantity", "value"),
            (("action1", s1), ("action2", s2), ("total", s1 + s2)),
        ),
        path,
    )
    _say(quiet, f"total action {s1 + s2:.12g} -> {path}")


def _cmd_verify(scen: Scenario, out: Path, tol, quiet: bool) -> None:
    _require(scen, traj1=True, traj2=True, boundary=True)
    el_tol = float(tol) if tol is not None else _option(scen.options, "el_tol", json_number, 1e-6)
    report = verify(
        scen.traj1,
        scen.traj2,
        scen.boundary,
        n_points=_option(scen.options, "n_points", lambda v: as_count(v, 1), 9),
        el_tol=el_tol,
        break_tol=_option(scen.options, "break_tol", json_number, 1e-8),
        kappa=scen.kappa,
    )
    path = out / "verify.csv"
    emit_report(report, path)
    _say(quiet, f"verify: max_el {report.max_el:.3g}, "
                f"max_break {report.max_break:.3g}, "
                f"converged {int(report.converged)} -> {path}")


def _cmd_gah_scan(scen: Scenario, out: Path, tol, quiet: bool) -> None:
    _require(scen, traj1=True, traj2=True)
    times = _scan_times(scen.options)
    dirs = _directions(scen.options, 32)
    guard = float(tol) if tol is not None else _option(
        scen.options, "guard", json_number, GUARD_BAND)
    # lanes run time-major: every direction at the first time, then the next
    lane_t = np.repeat(times, len(dirs))
    lane_n = np.tile(dirs, (len(times), 1))
    res, defined = gah_residuals(scen.traj1, scen.traj2, lane_t, lane_n, guard=guard)
    rows = []
    for t, n, g, ok in zip(lane_t, lane_n, res, defined):
        if ok:
            rows.append((t, n[0], n[1], n[2], g[0], g[1], g[2], 1))
        else:
            rows.append((t, n[0], n[1], n[2], 0.0, 0.0, 0.0, 0))
    path = out / "gah_scan.csv"
    emit_report(
        ReportTable(("t", "nx", "ny", "nz", "gx", "gy", "gz", "defined"),
                    tuple(rows)),
        path,
    )
    _say(quiet, f"gah scan: {len(rows)} samples -> {path}")


def _cmd_flux(scen: Scenario, out: Path, tol, quiet: bool) -> None:
    _require(scen, traj1=True)
    times = _scan_times(scen.options)
    if "radius" not in scen.options:
        raise ConfigError("flux options need a radius")
    radius = _option(scen.options, "radius", json_number)
    if radius <= 0.0:
        raise ConfigError("flux radius must be positive")
    mesh = _option(scen.options, "mesh", _mesh)
    retarded_only = _option(scen.options, "retarded_only", _flag, False)
    guard = float(tol) if tol is not None else _option(
        scen.options, "guard", json_number, GUARD_BAND)
    rows = []
    for t in times:
        value = sphere_flux(scen.traj1, scen.traj2, t, radius, mesh=mesh,
                            retarded_only=retarded_only, guard=guard)
        rows.append((t, radius, value))
    path = out / "flux.csv"
    emit_report(ReportTable(("t", "radius", "flux"), tuple(rows)), path)
    _say(quiet, f"flux: {len(rows)} times at radius {radius:g} -> {path}")


def _cmd_build_polygonal(scen: Scenario, out: Path, tol, quiet: bool) -> None:
    rows = []
    written = []
    for idx in (1, 2):
        verts = scen.options.get(f"vertices{idx}")
        if verts is None:
            continue
        try:
            pairs = _vertices(verts)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ConfigError(
                f"vertices{idx} must be rows of [t, x, y, z]"
            ) from exc
        traj = polygonal_from_vertices(pairs, scen.particles[idx - 1])
        traj_path = out / f"trajectory{idx}.json"
        save_trajectory(traj, traj_path)
        written.append(traj_path)
        rows.append((f"max_speed{idx}", traj.max_speed()))
        rows.append((f"segments{idx}", len(traj.segments)))
    if not rows:
        raise ConfigError("build-polygonal needs vertices1 or vertices2")
    path = out / "build.csv"
    emit_report(ReportTable(("quantity", "value"), tuple(rows)), path)
    _say(quiet, f"built {len(written)} polygonal trajectories -> {path}")


def _cmd_construct_partner(scen: Scenario, out: Path, tol, quiet: bool) -> None:
    _require(scen, traj2=True, family=True)
    dirs = _directions(scen.options, 32)
    if scen.options.get("t1_grid") is None:
        raise ConfigError("construct-partner options need a t1_grid")
    t1_grid = _option(scen.options, "t1_grid", _t1_grid)
    spread_tol = float(tol) if tol is not None else _option(
        scen.options, "spread_tol", json_number, 1e-6)
    traj1, report = construct_partner(
        scen.traj2,
        scen.family,
        dirs,
        t1_grid,
        spread_tol=spread_tol,
        particle=scen.particles[0],
        fit=scen.options.get("fit", "auto"),
    )
    traj_path = out / "partner.json"
    save_trajectory(traj1, traj_path)
    rows = tuple(
        (t, x[0], x[1], x[2], s)
        for t, x, s in zip(report.t1_grid, report.positions, report.spreads)
    )
    path = out / "partner.csv"
    emit_report(ReportTable(("t1", "x", "y", "z", "spread"), rows), path)
    _say(quiet, f"partner spread {report.max_spread:.3g} -> {traj_path}")


def _cmd_sewing_chain(scen: Scenario, out: Path, tol, quiet: bool) -> None:
    _require(scen, traj1=True, traj2=True)
    seed_opt = scen.options.get("seed")
    try:
        seed = (as_count(seed_opt[0], 1, "seed particle"), json_number(seed_opt[1]))
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError("seed must be [particle, time]") from exc
    chain = sewing_chain(
        scen.traj1,
        scen.traj2,
        seed,
        scen.options.get("direction", "forward"),
        _option(scen.options, "count", as_count, 8),
    )
    rows = tuple(
        (i, particle, t) for i, (particle, t) in enumerate(chain.entries)
    )
    path = out / "chain.csv"
    emit_report(ReportTable(("index", "particle", "time"), rows), path)
    note = " (truncated)" if chain.truncated else ""
    _say(quiet, f"chain of {len(rows)} break times{note} -> {path}")


def _cmd_minimize(scen: Scenario, out: Path, tol, quiet: bool) -> None:
    _require(scen, traj1=True, traj2=True, boundary=True)
    kinds = {"gtol": json_number, "max_iter": as_count, "el_tol": json_number,
             "break_tol": json_number}
    opts = {k: _option(scen.options, k, kind) for k, kind in kinds.items()
            if k in scen.options}
    if tol is not None:
        opts["gtol"] = float(tol)
    break_times = scen.options.get("break_times")
    if break_times is not None:
        try:
            break_times = (_floats(break_times[0]), _floats(break_times[1]))
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigError(
                "break_times must be two lists, one per particle"
            ) from exc
    init = discretize(
        scen.boundary,
        (scen.traj1, scen.traj2),
        _option(scen.options, "nodes_per_segment", as_count, 6),
        break_times=break_times,
        free_break_times=_option(scen.options, "free_break_times", _flag, False),
    )
    traj1, traj2, report = minimize(scen.boundary, init, opts, kappa=scen.kappa)
    save_trajectory(traj1, out / "minimized1.json")
    save_trajectory(traj2, out / "minimized2.json")
    path = out / "minimize.csv"
    emit_report(report, path)
    _say(quiet, f"minimize: action {report.action:.12g}, "
                f"converged {int(report.converged)} -> {path}")


_COMMANDS = {
    "action": _cmd_action,
    "verify": _cmd_verify,
    "gah-scan": _cmd_gah_scan,
    "flux": _cmd_flux,
    "build-polygonal": _cmd_build_polygonal,
    "construct-partner": _cmd_construct_partner,
    "sewing-chain": _cmd_sewing_chain,
    "minimize": _cmd_minimize,
}


def _diagnostic(exc: Exception) -> str:
    name = type(exc).__name__
    if name.endswith("Error"):
        name = name[: -len("Error")]
    words = re.sub(r"(?<!^)(?=[A-Z])", " ", name).lower()
    text = " ".join(str(exc).split())
    return f"error: {words}: {text}"


def run(command: str, scenario_path, out_dir=None, tol=None,
        quiet: bool = False) -> int:
    """Run one command against a scenario file; returns the exit code."""
    handler = _COMMANDS.get(command)
    if handler is None:
        print(
            f"unknown command {command!r}; expected one of "
            + ", ".join(sorted(_COMMANDS)),
            file=sys.stderr,
        )
        return 2
    try:
        if tol is not None and not np.isfinite(tol):
            raise ConfigError(f"--tol must be a finite number, got {tol!r}")
        scen = load_scenario(scenario_path)
        out = Path(out_dir) if out_dir is not None else Path(scenario_path).resolve().parent
        out.mkdir(parents=True, exist_ok=True)
        handler(scen, out, tol, quiet)
    except WfvarError as exc:
        print(_diagnostic(exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io failure: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wfvar",
        description="Delayed two-body action toolkit (natural units, c=1).",
    )
    parser.add_argument("command",
                        help="one of: " + ", ".join(sorted(_COMMANDS)))
    parser.add_argument("--scenario", required=True,
                        help="path to a scenario JSON file")
    parser.add_argument("--out", default=None,
                        help="output directory (default: scenario directory)")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the command's principal tolerance")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the stdout summary line")
    args = parser.parse_args(argv)
    return run(args.command, args.scenario, out_dir=args.out, tol=args.tol,
               quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
