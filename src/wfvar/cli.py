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
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    BoundaryData,
    ParticleParams,
    PiecewiseTrajectory,
    as_count,
    hermite_trajectory,
    json_number,
    json_numbers,
    polygonal_from_vertices,
    read_json,
    save_trajectory,
    trajectory_from_dict,
)
from .errors import ConfigError, DomainError, WfvarError
from .farfield import gah_residuals, latlong_mesh, sphere_flux
from .lightcone import normalized_directions
from .optimizer import MinimizerReport, discretize, minimize, one_sided_actions, verify
from .shortrange import (
    SeparationFamilyParams,
    construct_partner,
    fibonacci_sphere,
    params_from_dict,
    sewing_chain,
)

SCENARIO_VERSION = 1
# the keys a scenario may hold, at its top level, in its boundary block and
# in its options; the options are those of every command, so one file can
# serve several commands
_SCENARIO_KEYS = frozenset({
    "version", "units", "particles", "trajectory1", "trajectory1_file", "trajectory2",
    "trajectory2_file", "family", "family_file", "boundary", "options"})
_BOUNDARY_KEYS = frozenset({"start_time", "end_time", "k2", "window2"})
_OPTION_KEYS = frozenset({
    "n_points", "el_tol", "break_tol", "times", "time_range", "directions", "guard",
    "radius", "mesh", "retarded_only", "vertices1", "vertices2", "t1_grid", "spread_tol",
    "seed", "direction", "count", "gtol", "max_iter", "break_times", "nodes_per_segment",
    "free_break_times"})


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario file."""

    particles: tuple
    traj1: PiecewiseTrajectory | None
    traj2: PiecewiseTrajectory | None
    family: SeparationFamilyParams | None
    boundary: BoundaryData | None
    options: dict


@dataclass(frozen=True)
class ReportTable:
    """Generic CSV payload: a fixed header and value rows, either a tuple of
    row tuples of any cell types or one (N, C) float64 array."""

    header: tuple
    rows: tuple | np.ndarray


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
    rows = table.rows
    if isinstance(rows, np.ndarray):
        if rows.dtype != np.float64 or rows.ndim != 2 or rows.shape[1] != len(table.header):
            raise ConfigError(f"report array of {rows.dtype} and shape {rows.shape} does not "
                              f"fit {len(table.header)} float columns")
        # "%.17g" % x is format(x, ".17g") for every double
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        lines = (line % tuple(row) for row in rows.tolist())
    else:
        lines = (",".join(map(_fmt, row)) + "\n" for row in rows)
    # line by line, so no copy of the whole text is held
    with Path(path).open("w") as out:
        out.write(",".join(table.header) + "\n")
        out.writelines(lines)


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
            nodes = (json_numbers(record[key], rows=True) for key in ("positions", "velocities"))
            return hermite_trajectory(json_numbers(record["times"]), *nodes, particle)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed trajectory record: {exc}") from exc
    raise ConfigError(f"unknown trajectory kind {record.get('kind')!r}")


def _inline_or_file(data: dict, key: str) -> tuple:
    """The inline record `key` and the file name `key`_file, at most one of
    them given; a file name that is not a string is a ConfigError."""
    inline, ref = data.get(key), data.get(f"{key}_file")
    if inline is not None and ref is not None:
        raise ConfigError(f"{key} given both inline and as a file reference")
    if not isinstance(ref, (str, type(None))):
        raise ConfigError(f"{key}_file must be a file name string, got {ref!r}")
    return inline, ref


def _load_record(data: dict, key: str, base: Path, parse, *args):
    """`parse(record, *args)` of the record `key`, given inline or as the
    file `key`_file relative to `base`; None when neither is given."""
    inline, ref = _inline_or_file(data, key)
    if ref is not None:
        inline = read_json(base / ref, ref)
    return None if inline is None else parse(inline, *args)


def _check_keys(data: dict, known: frozenset, where: str) -> None:
    """ConfigError naming the keys of `data` outside `known`."""
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")


def load_scenario(path) -> Scenario:
    path = Path(path)
    data = read_json(path, "scenario")
    if not isinstance(data, dict):
        raise ConfigError("scenario must be a JSON object")
    version = as_count(data.get("version"), 0, "scenario version")
    if version != SCENARIO_VERSION:
        raise ConfigError(f"scenario version must be {SCENARIO_VERSION}, got {version!r}")
    if data.get("units") != "c=1":
        raise ConfigError('scenario must declare "units": "c=1"')
    raw_particles = data.get("particles")
    if not isinstance(raw_particles, list) or len(raw_particles) != 2:
        raise ConfigError("scenario needs a list of exactly two particles")
    if "kappa" in data:
        raise ConfigError("scenario field kappa is not accepted: kappa = -q1 q2 comes "
                          "from the particles' charges")
    _check_keys(data, _SCENARIO_KEYS, "scenario")
    try:
        particles = tuple(
            ParticleParams(json_number(p["mass"]), json_number(p["charge"]))
            for p in raw_particles
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed particle entry: {exc}") from exc
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("options must be a JSON object")
    _check_keys(options, _OPTION_KEYS, "option")
    base = path.resolve().parent
    traj1 = _load_record(data, "trajectory1", base, _traj_from_record, particles[0])
    traj2 = _load_record(data, "trajectory2", base, _traj_from_record, particles[1])

    boundary = None
    raw_b = data.get("boundary")
    if raw_b is not None:
        if not isinstance(raw_b, dict):
            raise ConfigError("boundary must be a JSON object")
        _check_keys(raw_b, _BOUNDARY_KEYS, "boundary")
        try:
            window2 = raw_b.get("window2")
            if window2 is not None:
                w0, w1 = window2
                window2 = (json_number(w0), json_number(w1))
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
        family=_load_record(data, "family", base, params_from_dict),
        boundary=boundary,
        options=options,
    )


def _option(options: dict, key: str, convert, default=None):
    """options[key], or `default` when the key is absent, through `convert`;
    a value `convert` rejects is a ConfigError that names the key."""
    value = options.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"option {key} has a malformed value {value!r}") from exc


def _given(options: dict, **kinds) -> dict:
    """The options of `kinds` that `options` gives, each through its
    converter; the library function called with them holds every default."""
    return {key: _option(options, key, kind) for key, kind in kinds.items() if key in options}


def _flag(value) -> bool:
    """A JSON boolean; anything else (the string "false", 1) is rejected."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _vertices(rows) -> list:
    """(time, position) pairs of [t, x, y, z] rows."""
    table = json_numbers(rows, rows=True)
    if table.ndim != 2 or table.shape[1] < 4:
        raise ValueError("vertex rows must be [t, x, y, z]")
    return list(zip(table[:, 0].tolist(), table[:, 1:4]))


def _time_range(value) -> tuple:
    """[start, stop, count] of a time scan, at least one time."""
    a, b, count = value
    return json_number(a), json_number(b), as_count(count, 1)


def _scan_times(options: dict) -> list:
    if "times" in options and "time_range" in options:
        raise ConfigError("give either times or time_range, not both")
    if "times" in options:
        times = _option(options, "times", json_numbers).tolist()
        if not times:
            raise ConfigError("option times needs at least one time")
        return times
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
    arr = _option(options, "directions", lambda v: json_numbers(v, rows=True))
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
        raise ConfigError("directions must be a count or a list of 3-vectors")
    try:
        return normalized_directions(arr)
    except DomainError as exc:  # a zero row: the JSON reader rejects non-finite ones
        raise ConfigError(str(exc)) from exc


def _t1_grid(value) -> np.ndarray:
    """[start, stop, count] with an integer count, else a list of times."""
    if isinstance(value, list) and len(value) == 3 and isinstance(value[2], int):
        return np.linspace(json_number(value[0]), json_number(value[1]), as_count(value[2]))
    return json_numbers(value)


def _mesh(value):
    """latlong_mesh of [n_theta, n_phi] counts, or None for the default mesh."""
    if value is None:
        return None
    n_theta, n_phi = value
    return latlong_mesh(as_count(n_theta, 1), as_count(n_phi, 1))


# -- command handlers ---------------------------------------------------------
# each takes the scenario and the output directory, writes any extra files
# there, and returns (CSV name, report, summary line) for `run` to write

def _cmd_action(scen: Scenario, out: Path) -> tuple:
    s1, s2 = one_sided_actions(scen.traj1, scen.traj2, scen.boundary)
    rows = (("action1", s1), ("action2", s2), ("total", s1 + s2))
    return "action.csv", ReportTable(("quantity", "value"), rows), f"total action {s1 + s2:.12g}"


def _cmd_verify(scen: Scenario, out: Path) -> tuple:
    report = verify(scen.traj1, scen.traj2, scen.boundary,
                    **_given(scen.options, n_points=lambda v: as_count(v, 1),
                             el_tol=json_number, break_tol=json_number))
    return "verify.csv", report, (f"verify: max_el {report.max_el:.3g}, "
                                  f"max_break {report.max_break:.3g}, "
                                  f"converged {int(report.converged)}")


def _cmd_gah_scan(scen: Scenario, out: Path) -> tuple:
    times = _scan_times(scen.options)
    dirs = _directions(scen.options, 32)
    # lanes run time-major: every direction at the first time, then the next
    lane_t = np.repeat(times, len(dirs))
    lane_n = np.tile(dirs, (len(times), 1))
    res, defined = gah_residuals(scen.traj1, scen.traj2, lane_t, lane_n,
                                 **_given(scen.options, guard=json_number))
    # an undefined lane writes 0, and so does an exact zero of either sign,
    # whose sign tells only how its cancelling terms were ordered; `defined`
    # as 1.0 and 0.0 prints as 1 and 0
    written = np.where(defined[:, None] & (res != 0.0), res, 0.0)
    rows = np.column_stack((lane_t, lane_n, written, defined))
    header = ("t", "nx", "ny", "nz", "gx", "gy", "gz", "defined")
    return "gah_scan.csv", ReportTable(header, rows), f"gah scan: {len(rows)} samples"


def _cmd_flux(scen: Scenario, out: Path) -> tuple:
    times = _scan_times(scen.options)
    if "radius" not in scen.options:
        raise ConfigError("flux options need a radius")
    radius = _option(scen.options, "radius", json_number)
    given = _given(scen.options, mesh=_mesh, retarded_only=_flag, guard=json_number)
    fluxes = sphere_flux(scen.traj1, scen.traj2, times, radius, **given)
    rows = np.column_stack((times, np.full(len(times), radius), fluxes))
    return ("flux.csv", ReportTable(("t", "radius", "flux"), rows),
            f"flux: {len(rows)} times at radius {radius:g}")


def _cmd_build_polygonal(scen: Scenario, out: Path) -> tuple:
    rows = []
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
        save_trajectory(traj, out / f"trajectory{idx}.json")
        rows.append((f"max_speed{idx}", traj.max_speed()))
        rows.append((f"segments{idx}", traj.knots.size - 1))
    if not rows:
        raise ConfigError("build-polygonal needs vertices1 or vertices2")
    return ("build.csv", ReportTable(("quantity", "value"), tuple(rows)),
            f"built {len(rows) // 2} polygonal trajectories")


def _cmd_construct_partner(scen: Scenario, out: Path) -> tuple:
    dirs = _directions(scen.options, 32)
    if scen.options.get("t1_grid") is None:
        raise ConfigError("construct-partner options need a t1_grid")
    t1_grid = _option(scen.options, "t1_grid", _t1_grid)
    traj1, report = construct_partner(
        scen.traj2,
        scen.family,
        dirs,
        t1_grid,
        particle=scen.particles[0],
        **_given(scen.options, spread_tol=json_number),
    )
    save_trajectory(traj1, out / "partner.json")
    rows = np.column_stack((report.t1_grid, report.positions, report.spreads))
    return ("partner.csv", ReportTable(("t1", "x", "y", "z", "spread"), rows),
            f"partner spread {report.max_spread:.3g}")


def _cmd_sewing_chain(scen: Scenario, out: Path) -> tuple:
    try:
        particle, t = scen.options.get("seed")
        seed = (as_count(particle, 1, "seed particle"), json_number(t))
    except (TypeError, ValueError) as exc:
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
    note = " (truncated)" if chain.truncated else ""
    return ("chain.csv", ReportTable(("index", "particle", "time"), rows),
            f"chain of {len(rows)} break times{note}")


def _cmd_minimize(scen: Scenario, out: Path) -> tuple:
    opts = _given(scen.options, gtol=json_number, max_iter=as_count, el_tol=json_number,
                  break_tol=json_number)
    break_times = scen.options.get("break_times")
    if break_times is not None:
        try:
            times1, times2 = break_times
            break_times = (json_numbers(times1), json_numbers(times2))
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                "break_times must be two lists, one per particle"
            ) from exc
    init = discretize(
        scen.boundary,
        (scen.traj1, scen.traj2),
        _option(scen.options, "nodes_per_segment", as_count, 6),
        break_times=break_times,
        **_given(scen.options, free_break_times=_flag),
    )
    traj1, traj2, report = minimize(scen.boundary, init, opts)
    save_trajectory(traj1, out / "minimized1.json")
    save_trajectory(traj2, out / "minimized2.json")
    return "minimize.csv", report, (f"minimize: action {report.action:.12g}, "
                                    f"converged {int(report.converged)}")


# each command's handler, the option `--tol` overrides (None: ignored) and
# the scenario parts it needs
_COMMANDS = {
    "action": (_cmd_action, None, ("traj1", "traj2", "boundary")),
    "verify": (_cmd_verify, "el_tol", ("traj1", "traj2", "boundary")),
    "gah-scan": (_cmd_gah_scan, "guard", ("traj1", "traj2")),
    "flux": (_cmd_flux, "guard", ("traj1",)),
    "build-polygonal": (_cmd_build_polygonal, None, ()),
    "construct-partner": (_cmd_construct_partner, "spread_tol", ("traj2", "family")),
    "sewing-chain": (_cmd_sewing_chain, None, ("traj1", "traj2")),
    "minimize": (_cmd_minimize, "gtol", ("traj1", "traj2", "boundary")),
}
# the scenario key of each part whose name differs from it
_PART_KEYS = {"traj1": "trajectory1", "traj2": "trajectory2"}


def _diagnostic(exc: Exception) -> str:
    name = type(exc).__name__
    if name.endswith("Error"):
        name = name[: -len("Error")]
    words = re.sub(r"(?<!^)(?=[A-Z])", " ", name).lower()
    text = " ".join(str(exc).split())
    return f"error: {words}: {text}"


def run(command: str, scenario_path, out_dir=None, tol=None,
        quiet: bool = False) -> int:
    """Run one command against a scenario file; returns the exit code.

    `tol` replaces the command's `_COMMANDS` option, if it has one; a
    scenario without a part the command needs is a ConfigError; the
    handler's report goes to its CSV and its summary, unless `quiet`, to
    stdout."""
    if command not in _COMMANDS:
        print(
            f"unknown command {command!r}; expected one of "
            + ", ".join(sorted(_COMMANDS)),
            file=sys.stderr,
        )
        return 2
    handler, tol_option, needs = _COMMANDS[command]
    try:
        if tol is not None and not np.isfinite(tol):
            raise ConfigError(f"--tol must be a finite number, got {tol!r}")
        scen = load_scenario(scenario_path)
        if tol is not None and tol_option is not None:
            scen = replace(scen, options={**scen.options, tol_option: float(tol)})
        out = Path(out_dir) if out_dir is not None else Path(scenario_path).resolve().parent
        out.mkdir(parents=True, exist_ok=True)
        missing = [_PART_KEYS.get(part, part) for part in needs if getattr(scen, part) is None]
        if missing:
            raise ConfigError(f"scenario is missing {', '.join(missing)}")
        csv_name, report, summary = handler(scen, out)
        path = out / csv_name
        emit_report(report, path)
        if not quiet:
            print(f"{summary} -> {path}")
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
