"""End-to-end checks of the scenario-driven command line front end."""

import json
import math

import numpy as np
import pytest

from wfvar.cli import ReportTable, _fmt, emit_report, load_scenario, main, run
from wfvar.core import (ParticleParams, Side, load_trajectory, polygonal_from_vertices,
                        save_trajectory)
from wfvar.errors import ConfigError
from wfvar.shortrange import SeparationFamilyParams, save_family


def base_scenario(**extra):
    data = {
        "version": 1,
        "units": "c=1",
        "particles": [
            {"mass": 1.0, "charge": 1.0},
            {"mass": 1.0, "charge": -1.0},
        ],
    }
    data.update(extra)
    return data


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def static_record(x, y, z, t0=-50.0, t1=50.0):
    return {"kind": "polygonal", "vertices": [[t0, x, y, z], [t1, x, y, z]]}


def static_pair(d=2.0, t0=-50.0, t1=50.0):
    return {
        "trajectory1": static_record(0.0, 0.0, 0.0, t0, t1),
        "trajectory2": static_record(d, 0.0, 0.0, t0, t1),
    }


def harmonic_family(lmax=0, width=1, **changes):
    """A one-interval harmonic family record whose tables have `width` columns."""
    zeros = [0.0] * width
    family = {"kind": "harmonic", "t_start": -50.0, "lmax": lmax, "intervals": [
        {"t_edge": 50.0, "D_coeffs": [zeros, [5.3] + zeros[1:], zeros],
         "L_coeffs": [zeros, zeros, zeros]}]}
    return {**family, **changes}


def linear_family(**changes):
    """A one-interval linear family record; `changes` edit its interval."""
    interval = {"t_edge": 50.0, "p1": [0.0, 5.3, 0.0], "v1": [0.0, 0.0, 0.0],
                "p2": [0.0, 0.0, 0.0], "v2": [0.0, 0.0, 0.0]}
    return {"kind": "linear", "t_start": -50.0, "intervals": [{**interval, **changes}]}


def partner_scenario(family):
    return {"trajectory2": static_record(0.0, 0.0, 0.0), "family": family,
            "options": {"directions": 8, "t1_grid": [-3.0, 3.0, 5]}}


def segments_scenario(t0, t1, x=0.0):
    """Action on a static inline `segments` record against a partner 2 away."""
    record = {"segments": [{"t0": t0, "t1": t1, "coeffs": [[x], [0.0], [0.0]]}]}
    return {"trajectory1": record, "trajectory2": static_record(2.0, 0.0, 0.0),
            "boundary": {"start_time": -1.0, "end_time": 1.0}}


def kinked_record(x):
    """A charge resting at (x, 0, 0) whose chain has a junction at t = 0."""
    return {"kind": "polygonal",
            "vertices": [[-50.0, x, 0.0, 0.0], [0.0, x, 0.0, 0.0], [50.0, x, 0.0, 0.0]]}


def exact_minimize_scenario(**options):
    """A uniform line against a static partner 1e6 away, already a solution."""
    far = 2.5e6
    return base_scenario(
        trajectory1={"kind": "polygonal",
                     "vertices": [[-far, -0.3 * far, -0.1 * far, 0.0],
                                  [far, 0.3 * far, 0.1 * far, 0.0]]},
        trajectory2={"kind": "polygonal",
                     "vertices": [[-far, 1.0e6, 0.0, 0.0], [far, 1.0e6, 0.0, 0.0]]},
        boundary={"start_time": -1.0, "end_time": 1.0},
        options={"nodes_per_segment": 3, "max_iter": 5, **options},
    )


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def quantities(path):
    header, rows = read_csv(path)
    assert header == ["quantity", "value"]
    return {row[0]: float(row[1]) for row in rows}


class TestScenarioLoading:
    def test_round_trip(self, tmp_path):
        data = base_scenario(**static_pair(),
                             boundary={"start_time": -2.0, "end_time": 2.0})
        scen = load_scenario(write_scenario(tmp_path, data))
        assert scen.particles[0].charge == 1.0
        assert scen.particles[1].charge == -1.0
        np.testing.assert_allclose(scen.traj2.position(0.0), [2.0, 0.0, 0.0])
        assert scen.boundary.window(1) == (-2.0, 2.0)
        assert scen.boundary.history2 is scen.traj2

    def test_trajectory_file_reference(self, tmp_path):
        traj = polygonal_from_vertices(
            [(-5.0, (0.0, 0.0, 0.0)), (5.0, (1.0, 0.0, 0.0))],
            ParticleParams(3.0, 7.0),
        )
        save_trajectory(traj, tmp_path / "t2.json")
        data = base_scenario(trajectory2_file="t2.json")
        scen = load_scenario(write_scenario(tmp_path, data))
        # scenario particles win over whatever the file carries
        assert scen.traj2.particle.charge == -1.0
        np.testing.assert_allclose(scen.traj2.position(5.0), [1.0, 0.0, 0.0])

    def test_rejects_bad_headers(self, tmp_path):
        for mutate in (
            lambda d: d.pop("version"),
            lambda d: d.update(version=9),
            lambda d: d.update(version=True),  # not the integer 1
            lambda d: d.update(version=1.0),
            lambda d: d.update(units="SI"),
            lambda d: d.update(particles=[{"mass": 1.0, "charge": 1.0}]),
        ):
            data = base_scenario(**static_pair())
            mutate(data)
            path = write_scenario(tmp_path, data)
            with pytest.raises(ConfigError):
                load_scenario(path)

    @pytest.mark.parametrize("key, ref", [("trajectory1_file", 5), ("trajectory2_file", {}),
                                          ("family_file", [1])])
    def test_file_references_must_be_strings(self, tmp_path, key, ref):
        path = write_scenario(tmp_path, base_scenario(**{key: ref}))
        with pytest.raises(ConfigError, match=f"^{key} must be a file name string"):
            load_scenario(path)

    def test_rejects_inline_plus_file(self, tmp_path):
        data = base_scenario(**static_pair())
        data["trajectory1_file"] = "t1.json"
        with pytest.raises(ConfigError):
            load_scenario(write_scenario(tmp_path, data))


class TestEmitReport:
    def test_header_only_for_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report(ReportTable(("a", "b"), ()), path)
        assert path.read_text() == "a,b\n"

    def test_floats_round_trip_exactly(self, tmp_path):
        values = (0.1 + 0.2, 1.0 / 3.0, 1.2345678901234567e-300, -2.0)
        path = tmp_path / "vals.csv"
        emit_report(ReportTable(("v",), tuple((v,) for v in values)), path)
        _, rows = read_csv(path)
        for (text,), v in zip(rows, values):
            assert float(text) == v


    def test_cells_print_as_the_generic_formatter_prints_them(self, tmp_path):
        # Python and numpy floats, ints, bools and strings: the file is the
        # `_fmt` join byte for byte
        rows = (
            (0.1 + 0.2, np.float64(0.1 + 0.2), -0.0, np.float64(-0.0), 5e-324, 2.5e-310),
            (1e300, -1e300, np.float32(0.1), math.nan, math.inf, -math.inf),
            (3, -7, np.int64(-7), np.int32(12), 10**30, 0),
            (True, False, np.bool_(True), np.bool_(False), "defined", ""),
            (np.float64(5e-324), 1.0, 2, "x", np.uint8(255), -2.0),
        )
        path = tmp_path / "mixed.csv"
        emit_report(ReportTable(tuple("abcdef"), rows), path)
        expected = "\n".join(["a,b,c,d,e,f"] + [",".join(_fmt(v) for v in row) for row in rows])
        assert path.read_bytes() == (expected + "\n").encode()

    def test_an_array_writes_the_bytes_of_its_tuple_rows(self, tmp_path):
        # the float cells above, as an (N, C) float64 array, through the one
        # row template
        rows = ((-0.0, math.nan, math.inf), (-math.inf, 5e-324, 2.5e-310), (1.0, 0.1 + 0.2, -2.0))
        paths = tmp_path / "tuples.csv", tmp_path / "array.csv"
        emit_report(ReportTable(("a", "b", "c"), rows), paths[0])
        emit_report(ReportTable(("a", "b", "c"), np.array(rows)), paths[1])
        assert paths[1].read_bytes() == paths[0].read_bytes()

    def test_an_empty_array_writes_only_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report(ReportTable(("a", "b", "c"), np.empty((0, 3))), path)
        assert path.read_bytes() == b"a,b,c\n"

    @pytest.mark.parametrize("rows", [np.zeros((2, 2)), np.zeros((2, 4)), np.zeros(3),
                                      np.zeros((2, 3), dtype=np.int64)])
    def test_an_array_must_fit_the_header(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        with pytest.raises(ConfigError, match="does not fit 3 float columns"):
            emit_report(ReportTable(("a", "b", "c"), rows), path)
        assert not path.exists()


class TestExitCodes:
    def test_unknown_command(self, tmp_path, capsys):
        path = write_scenario(tmp_path, base_scenario(**static_pair()))
        assert run("frobnicate", path) == 2
        err = capsys.readouterr().err
        assert "unknown command" in err

    def test_missing_scenario_file(self, tmp_path, capsys):
        assert run("action", tmp_path / "nope.json") == 1
        assert capsys.readouterr().err.strip()

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run("action", path) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err

    def test_missing_history_diagnostic(self, tmp_path, capsys):
        data = base_scenario(
            **static_pair(t0=-1.0, t1=1.0),
            options={"times": [5.0], "directions": 4},
        )
        path = write_scenario(tmp_path, data)
        assert run("gah-scan", path, out_dir=tmp_path / "out") == 1
        err = capsys.readouterr().err.strip()
        assert "insufficient history" in err
        assert "\n" not in err

    @pytest.mark.parametrize("positions, velocities", [(5, 4), (3, 4), (2, 3)])
    def test_hermite_node_rows_must_match_the_times(self, tmp_path, capsys, positions,
                                                    velocities):
        # extra node rows are an error, not silently dropped
        record = {"kind": "hermite", "times": [-50.0, 0.0, 50.0],
                  "positions": [[0.0, 0.0, 0.0]] * positions,
                  "velocities": [[0.0, 0.0, 0.0]] * velocities}
        data = base_scenario(trajectory1=record, trajectory2=static_record(2.0, 0.0, 0.0),
                             boundary={"start_time": -1.0, "end_time": 1.0})
        path = write_scenario(tmp_path, data)
        assert run("action", path, out_dir=tmp_path / "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "row per time" in err[0]
        assert not (tmp_path / "out" / "action.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_repeated_hermite_node_time_is_one_domain_line(self, tmp_path, capsys):
        # the cell builder divides by the zero gap with numpy warnings off,
        # and the cell rule then reports the two times
        record = {"kind": "hermite", "times": [-50.0, 0.0, 0.0, 50.0],
                  "positions": [[0.0, 0.0, 0.0]] * 4, "velocities": [[0.0, 0.0, 0.0]] * 4}
        data = base_scenario(trajectory1=record, trajectory2=static_record(2.0, 0.0, 0.0),
                             boundary={"start_time": -1.0, "end_time": 1.0})
        path = write_scenario(tmp_path, data)
        assert run("action", path, out_dir=tmp_path / "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: domain: segment needs t_start < t_end, got [0.0, 0.0]"], err

    @pytest.mark.parametrize("command", ["action", "gah-scan"])
    def test_a_kappa_field_is_a_config_error(self, tmp_path, capsys, command):
        # kappa = -q1 q2 = 1 here, so reading the field or ignoring it would
        # give the same numbers; the coupling comes from the charges alone
        data = base_scenario(**static_pair(), kappa=1.0,
                             boundary={"start_time": -1.0, "end_time": 1.0},
                             options={"times": [0.0], "directions": 4})
        path = write_scenario(tmp_path, data)
        assert run(command, path, out_dir=tmp_path / "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config"), err
        assert "kappa" in err[0] and "charges" in err[0], err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, changes", [
        ("window_2", {"boundary": {"start_time": -1.0, "end_time": 1.0,
                                   "window_2": [-0.5, 0.5]}}),
        ("optoins", {"optoins": {"n_points": 3}}),
        ("coupling", {"options": {"coupling": 3.0}}),
    ], ids=["boundary", "top-level", "options"])
    def test_an_unknown_key_is_a_config_error(self, tmp_path, capsys, key, changes):
        # a misspelt key would leave its value at the default: here a
        # boundary with "window_2" for "window2" reads total action -2
        # instead of -1.5
        data = base_scenario(**{**static_pair(),
                                "boundary": {"start_time": -1.0, "end_time": 1.0}, **changes})
        path = write_scenario(tmp_path, data)
        assert run("action", path, out_dir=tmp_path / "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config"), err
        assert repr(key) in err[0], err
        assert not (tmp_path / "out").exists()

    def test_trajectory_file_that_is_not_json(self, tmp_path, capsys):
        (tmp_path / "t1.json").write_text("{not json")
        data = base_scenario(trajectory1_file="t1.json",
                             trajectory2=static_record(2.0, 0.0, 0.0),
                             boundary={"start_time": -1.0, "end_time": 1.0})
        path = write_scenario(tmp_path, data)
        assert run("action", path, out_dir=tmp_path / "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: t1.json"), err

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", ("[" + "1" * 5000 + "]").encode()],
                             ids=["not-utf8", "huge-integer"])
    @pytest.mark.parametrize("ref", [None, "trajectory1_file", "family_file"],
                             ids=["scenario", "trajectory-file", "family-file"])
    def test_unreadable_json_is_a_config_error(self, tmp_path, capsys, ref, content):
        # bytes that are not UTF-8 and integers past Python's 4,300-digit
        # limit, in the scenario itself or in a file it references
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        if ref is not None:
            path = write_scenario(tmp_path, base_scenario(**{ref: "bad.json"}))
        assert run("action", path, out_dir=tmp_path / "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config:"), err

    def test_missing_trajectory_is_config_error(self, tmp_path, capsys):
        data = base_scenario(trajectory1=static_record(0.0, 0.0, 0.0),
                             options={"times": [0.0]})
        path = write_scenario(tmp_path, data)
        assert run("gah-scan", path, out_dir=tmp_path / "out") == 1
        assert "trajectory2" in capsys.readouterr().err

    @pytest.mark.parametrize("command, fields, missing", [
        ("action", {}, "trajectory1, trajectory2, boundary"),
        ("verify", {"trajectory2": static_record(2.0, 0.0, 0.0)}, "trajectory1, boundary"),
        ("minimize", static_pair(), "boundary"),
        ("gah-scan", {"trajectory2": static_record(2.0, 0.0, 0.0)}, "trajectory1"),
        ("flux", {"trajectory2": static_record(2.0, 0.0, 0.0)}, "trajectory1"),
        ("construct-partner", {}, "trajectory2, family"),
        ("sewing-chain", {}, "trajectory1, trajectory2"),
    ])
    def test_each_command_names_every_missing_part(self, tmp_path, capsys, command, fields,
                                                   missing):
        path = write_scenario(tmp_path, base_scenario(**fields))
        assert run(command, path, out_dir=tmp_path / "out") == 1
        assert capsys.readouterr().err == f"error: config: scenario is missing {missing}\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_family_file_that_is_not_json(self, tmp_path, capsys):
        (tmp_path / "fam.json").write_text("{not json")
        path = write_scenario(tmp_path, base_scenario(family_file="fam.json"))
        assert run("construct-partner", path, out_dir=tmp_path / "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: fam.json"), err

    @pytest.mark.parametrize("command, fields", [
        ("action", {"trajectory1": {"segments": [[0, 1]]}}),
        ("action", {**static_pair(), "boundary": [0, 1]}),
        ("gah-scan", {**static_pair(), "options": {"times": 5}}),
        ("gah-scan", {**static_pair(), "options": {"times": ["a"]}}),
        ("gah-scan", {**static_pair(), "options": {"time_range": ["a", 1, 3]}}),
        ("gah-scan", {**static_pair(), "options": {"times": [0.0], "directions": "abc"}}),
        ("flux", {**static_pair(), "options": {"times": [0.0], "radius": "abc"}}),
        ("verify", {**static_pair(), "boundary": {"start_time": -1.0, "end_time": 1.0},
                    "options": {"n_points": "many"}}),
        ("sewing-chain", {**static_pair(), "options": {"seed": [1, 0.0], "count": None}}),
        ("verify", {**static_pair(), "boundary": {"start_time": -1.0, "end_time": 1.0},
                    "options": {"n_points": 2.7}}),
        ("verify", {**static_pair(), "boundary": {"start_time": -1.0, "end_time": 1.0},
                    "options": {"n_points": 0}}),
        ("gah-scan", {**static_pair(), "options": {"times": [0.0], "directions": True}}),
        ("gah-scan", {**static_pair(), "options": {"time_range": [0, 1, 2.9]}}),
        ("sewing-chain", {**static_pair(), "options": {"seed": [1, 0.0], "count": True}}),
        ("flux", {**static_pair(), "options": {"times": [0.0], "radius": 5.0, "mesh": [0, 3]}}),
        ("flux", {**static_pair(), "options": {"times": [0.0], "radius": 5.0,
                                               "mesh": [3, 2.5]}}),
        ("minimize", {**static_pair(), "boundary": {"start_time": -1.0, "end_time": 1.0},
                      "options": {"nodes_per_segment": 2.5}}),
        ("minimize", {**static_pair(), "boundary": {"start_time": -1.0, "end_time": 1.0},
                      "options": {"nodes_per_segment": 3, "max_iter": True}}),
        ("construct-partner", {
            "trajectory2": static_record(0.0, 0.0, 0.0),
            "family": {"kind": "harmonic", "t_start": -50.0, "lmax": 0, "intervals": [
                {"t_edge": 50.0, "D_coeffs": [[0.0], [5.3], [0.0]],
                 "L_coeffs": [[0.0], [0.0], [0.0]]}]},
            "options": {"directions": 8, "t1_grid": [-3.0, 3.0, True]}}),
        ("sewing-chain", {**static_pair(), "options": {"seed": [1.7, 0.0]}}),
        ("sewing-chain", {**static_pair(), "options": {"seed": ["2", 0.0]}}),
        ("build-polygonal", {"options": {"vertices1": [["2.5", "1", 0, 0], [5.0, 1, 0, 0]]}}),
        ("action", {"trajectory1": {"kind": "polygonal",
                                    "vertices": [[-50.0, 0, 0, 0], [50.0, "0.5", 0, 0]]},
                    "trajectory2": static_record(2.0, 0.0, 0.0),
                    "boundary": {"start_time": -1.0, "end_time": 1.0}}),
        ("action", {"trajectory1": {"kind": "hermite", "times": [-50.0, "50"],
                                    "positions": [[0, 0, 0], [0, 0, 0]],
                                    "velocities": [[0, 0, 0], [0, 0, 0]]},
                    "trajectory2": static_record(2.0, 0.0, 0.0),
                    "boundary": {"start_time": -1.0, "end_time": 1.0}}),
        ("action", {**static_pair(), "boundary": {"start_time": -1.0, "end_time": 10**400}}),
        ("action", segments_scenario("-50", "50")),
        ("action", segments_scenario(-50.0, 50.0, "0")),
        ("construct-partner", partner_scenario(harmonic_family(t_start="-40"))),
        ("construct-partner", partner_scenario(harmonic_family("4", 25))),
        ("construct-partner", partner_scenario(harmonic_family(4.7, 25))),
        ("construct-partner", partner_scenario(harmonic_family(True, 4))),
        ("construct-partner", partner_scenario(
            harmonic_family(intervals=[{"t_edge": 50.0, "D_coeffs": [[0.0], ["5.3"], [0.0]],
                                        "L_coeffs": [[0.0], [0.0], [0.0]]}]))),
        ("construct-partner", partner_scenario(linear_family(p1=[0.0, "5.3", 0.0]))),
        ("construct-partner", partner_scenario(linear_family(t_edge="50"))),
        ("gah-scan", {**static_pair(), "options": {"times": [0.0],
                                                   "directions": [["1", 0, 0], [0, 1, 0]]}}),
        # Python's json reads NaN and Infinity; a non-finite number is malformed
        ("action", {**static_pair(), "kappa": math.nan,
                    "boundary": {"start_time": -1.0, "end_time": 1.0}}),
        ("verify", {**static_pair(), "boundary": {"start_time": -1.0, "end_time": 1.0},
                    "options": {"el_tol": math.nan}}),
        ("construct-partner", {**partner_scenario(linear_family()),
                               "options": {"directions": 8, "t1_grid": [-3.0, 3.0, 5],
                                           "spread_tol": math.nan}}),
        ("action", {"trajectory1": {"kind": "hermite", "times": [-50.0, 50.0],
                                    "positions": [[0, 0, 0], [0, -math.inf, 0]],
                                    "velocities": [[0, 0, 0], [0, 0, 0]]},
                    "trajectory2": static_record(2.0, 0.0, 0.0),
                    "boundary": {"start_time": -1.0, "end_time": 1.0}}),
        ("construct-partner", partner_scenario(harmonic_family(intervals=[
            {"t_edge": 50.0, "D_coeffs": [[0.0], [math.nan], [0.0]],
             "L_coeffs": [[0.0], [0.0], [0.0]]}]))),
        # whole node tables and vertex lists are read in one pass, by the
        # same rules
        ("action", {"trajectory1": {"kind": "hermite", "times": [-50.0, 50.0],
                                    "positions": [[0, 0, 0], [0, 0]],
                                    "velocities": [[0, 0, 0], [0, 0, 0]]},
                    "trajectory2": static_record(2.0, 0.0, 0.0),
                    "boundary": {"start_time": -1.0, "end_time": 1.0}}),
        ("action", {"trajectory1": {"kind": "polygonal",
                                    "vertices": [[-50.0, 0, 0, 0], [50.0, 0, 0]]},
                    "trajectory2": static_record(2.0, 0.0, 0.0),
                    "boundary": {"start_time": -1.0, "end_time": 1.0}}),
        ("action", {"trajectory1": {"kind": "hermite", "times": [-50.0, 10**400],
                                    "positions": [[0, 0, 0], [0, 0, 0]],
                                    "velocities": [[0, 0, 0], [0, 0, 0]]},
                    "trajectory2": static_record(2.0, 0.0, 0.0),
                    "boundary": {"start_time": -1.0, "end_time": 1.0}}),
        ("action", {"trajectory1": {"kind": "polygonal",
                                    "vertices": [[-50.0, 0, 0, 0], [50.0, 10**400, 0, 0]]},
                    "trajectory2": static_record(2.0, 0.0, 0.0),
                    "boundary": {"start_time": -1.0, "end_time": 1.0}}),
        ("action", {"trajectory1": {"kind": "hermite", "times": [-50.0, 50.0],
                                    "positions": [[0, 0, 0], [0, False, 0]],
                                    "velocities": [[0, 0, 0], [0, 0, 0]]},
                    "trajectory2": static_record(2.0, 0.0, 0.0),
                    "boundary": {"start_time": -1.0, "end_time": 1.0}}),
        ("build-polygonal", {"options": {"vertices1": [[-5.0, 0, True, 0], [5.0, 1, 0, 0]]}}),
        # a scan of no times is malformed, not an empty report
        ("gah-scan", {**static_pair(), "options": {"times": []}}),
        ("gah-scan", {**static_pair(), "options": {"time_range": [0.0, 1.0, 0]}}),
        ("flux", {**static_pair(), "options": {"times": [], "radius": 5.0}}),
        ("flux", {**static_pair(), "options": {"time_range": [0.0, 1.0, 0], "radius": 5.0}}),
        # a file reference is a file name string
        ("action", {"trajectory1_file": 5, "trajectory2": static_record(2.0, 0.0, 0.0),
                    "boundary": {"start_time": -1.0, "end_time": 1.0}}),
        ("construct-partner", {**partner_scenario(None), "family_file": [1]}),
        # a pair is exactly two entries, never a prefix of a longer list
        ("sewing-chain", {**static_pair(), "options": {"seed": [1, 0.0, 99]}}),
        ("action", {**static_pair(), "boundary": {"start_time": -1.0, "end_time": 1.0,
                                                  "window2": [-2.0, 2.0, 77]}}),
        ("minimize", {**static_pair(), "boundary": {"start_time": -1.0, "end_time": 1.0},
                      "options": {"nodes_per_segment": 3, "break_times": [[], [], [5]]}}),
        # the shapes of the scenario, its records and its options
        ("action", [base_scenario(**static_pair())]),
        ("action", {**static_pair(), "boundary": {"start_time": -1.0, "end_time": 1.0},
                    "options": [1]}),
        ("action", {"trajectory1": [[-50.0, 0, 0, 0], [50.0, 0, 0, 0]],
                    "trajectory2": static_record(2.0, 0.0, 0.0),
                    "boundary": {"start_time": -1.0, "end_time": 1.0}}),
        ("action", {"trajectory1": {"kind": "spline", "vertices": [[-50.0, 0, 0, 0]]},
                    "trajectory2": static_record(2.0, 0.0, 0.0),
                    "boundary": {"start_time": -1.0, "end_time": 1.0}}),
        ("action", {"trajectory1": {"kind": "polygonal",
                                    "vertices": [[-50.0, 0, 0], [50.0, 0, 0]]},
                    "trajectory2": static_record(2.0, 0.0, 0.0),
                    "boundary": {"start_time": -1.0, "end_time": 1.0}}),
        ("gah-scan", {**static_pair(), "options": {"times": [0.0],
                                                   "time_range": [0.0, 1.0, 2]}}),
        ("gah-scan", {**static_pair(), "options": {}}),
        ("gah-scan", {**static_pair(), "options": {"times": [0.0],
                                                   "directions": [[1, 0], [0, 1]]}}),
        ("construct-partner", {**partner_scenario(linear_family()),
                               "options": {"directions": 8}}),
        ("build-polygonal", {"options": {}}),
    ], ids=["segment-list", "boundary-list", "times-number", "times-text", "time-range-text",
            "directions-text", "radius-text", "n-points-text", "count-null",
            "n-points-fraction", "n-points-zero", "directions-true", "time-range-fraction",
            "count-true", "mesh-zero", "mesh-fraction", "nodes-fraction", "max-iter-true",
            "t1-grid-count-true", "seed-fraction", "seed-text", "vertex-text",
            "polygonal-text", "hermite-text", "end-time-huge", "segment-time-text",
            "segment-coeff-text", "family-start-text", "lmax-text", "lmax-fraction",
            "lmax-true", "table-text", "piece-text", "edge-text", "direction-vector-text",
            "kappa-nan", "el-tol-nan", "spread-tol-nan", "node-infinite", "family-coeff-nan",
            "node-row-ragged", "vertex-row-ragged", "node-time-huge", "vertex-huge",
            "node-row-bool", "vertex-row-bool", "gah-times-empty", "gah-time-range-empty",
            "flux-times-empty", "flux-time-range-empty", "trajectory-file-number",
            "family-file-list", "seed-three-entries", "window2-three-entries",
            "break-times-three-lists", "scenario-list", "options-list", "trajectory-list",
            "trajectory-kind-unknown", "vertex-rows-short", "times-and-time-range",
            "no-scan-times", "directions-two-vectors", "t1-grid-missing", "no-vertices"])
    def test_malformed_values_are_config_errors(self, tmp_path, capsys, command, fields):
        # `fields` extend the base scenario, or replace it when not an object
        data = base_scenario(**fields) if isinstance(fields, dict) else fields
        path = write_scenario(tmp_path, data)
        assert run(command, path, out_dir=tmp_path / "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config"), err

    @pytest.mark.parametrize("command, fields", [
        ("action", segments_scenario(-50.0, 50.0)),
        ("construct-partner", partner_scenario(harmonic_family())),
        ("construct-partner", partner_scenario(harmonic_family(4, 25))),
        ("construct-partner", partner_scenario(linear_family())),
        ("action", {**static_pair(), "boundary": {"start_time": -1.0, "end_time": 1.0,
                                                  "window2": [-2.0, 2.0]}}),
        ("construct-partner", {**partner_scenario(linear_family()),
                               "options": {"directions": 8, "t1_grid": [-3.0, 0.0, 1.5, 3.0]}}),
        ("build-polygonal", {"options": {"vertices2": [[-5.0, 0, 0, 0], [5.0, 1, 0, 0]]}}),
    ], ids=["segments", "harmonic", "harmonic-lmax-4", "linear", "window2", "t1-grid-list",
            "vertices2-only"])
    def test_well_formed_records_run(self, tmp_path, command, fields):
        # the records that the malformed cases above break
        path = write_scenario(tmp_path, base_scenario(**fields))
        assert run(command, path, out_dir=tmp_path / "out", quiet=True) == 0

    def test_boolean_times_and_guard_are_config_errors(self, tmp_path, capsys):
        # float() would read true as t = 1 and false as a zero guard band
        data = base_scenario(**static_pair(), options={"times": [True], "guard": False})
        out = tmp_path / "out"
        assert run("gah-scan", write_scenario(tmp_path, data), out_dir=out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config"), err
        assert not (out / "gah_scan.csv").exists()

    @pytest.mark.parametrize("command, fields", [
        ("gah-scan", {**static_pair(), "options": {"times": [0.0], "guard": True}}),
        ("gah-scan", {**static_pair(), "options": {"time_range": [False, 1.0, 3]}}),
        ("flux", {**static_pair(), "options": {"times": [0.0], "radius": True}}),
        ("action", {**static_pair(), "boundary": {"start_time": -1.0, "end_time": True}}),
        ("action", {**static_pair(), "boundary": {"start_time": -1.0, "end_time": 1.0,
                                                  "k2": True}}),
        ("action", {**static_pair(), "kappa": True,
                    "boundary": {"start_time": -1.0, "end_time": 1.0}}),
        ("verify", {**static_pair(), "boundary": {"start_time": -1.0, "end_time": 1.0},
                    "options": {"el_tol": True}}),
        ("minimize", {**static_pair(), "boundary": {"start_time": -1.0, "end_time": 1.0},
                      "options": {"gtol": False}}),
        ("construct-partner", {
            "trajectory2": static_record(0.0, 0.0, 0.0),
            "family": {"kind": "harmonic", "t_start": -50.0, "lmax": 0, "intervals": [
                {"t_edge": 50.0, "D_coeffs": [[0.0], [5.3], [0.0]],
                 "L_coeffs": [[0.0], [0.0], [0.0]]}]},
            "options": {"directions": 8, "t1_grid": [True, 3.0, 5]}}),
        ("sewing-chain", {**static_pair(), "options": {"seed": [True, 0.0]}}),
        ("build-polygonal", {"options": {"vertices1": [[False, 0, 0, 0], [5.0, 1, 0, 0]]}}),
        ("action", {"trajectory1": {"kind": "polygonal",
                                    "vertices": [[-50.0, 0, 0, 0], [50.0, 0, True, 0]]},
                    "trajectory2": static_record(2.0, 0.0, 0.0),
                    "boundary": {"start_time": -1.0, "end_time": 1.0}}),
        ("action", {"trajectory1": {"kind": "hermite", "times": [-50.0, 50.0],
                                    "positions": [[0, 0, 0], [0, 0, 0]],
                                    "velocities": [[0, 0, 0], [0, False, 0]]},
                    "trajectory2": static_record(2.0, 0.0, 0.0),
                    "boundary": {"start_time": -1.0, "end_time": 1.0}}),
    ], ids=["guard", "time-range-start", "radius", "end-time", "k2", "kappa", "el-tol",
            "gtol", "t1-grid-start", "seed-particle", "vertex-time", "polygonal-vertex",
            "hermite-velocity"])
    def test_boolean_numbers_are_config_errors(self, tmp_path, capsys, command, fields):
        path = write_scenario(tmp_path, base_scenario(**fields))
        assert run(command, path, out_dir=tmp_path / "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config"), err

    @pytest.mark.parametrize("key", ["mass", "charge"])
    def test_boolean_particle_numbers_are_config_errors(self, tmp_path, capsys, key):
        data = base_scenario(**static_pair(), boundary={"start_time": -1.0, "end_time": 1.0})
        data["particles"][0][key] = True
        assert run("action", write_scenario(tmp_path, data), out_dir=tmp_path / "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config"), err

    @pytest.mark.parametrize("value", ["false", "yes", 1], ids=["false-text", "yes-text", "one"])
    @pytest.mark.parametrize("command, key, fields", [
        ("flux", "retarded_only", {"options": {"times": [0.0], "radius": 5.0}}),
        ("minimize", "free_break_times", {
            **static_pair(), "boundary": {"start_time": -1.0, "end_time": 1.0},
            "options": {"nodes_per_segment": 3}}),
    ], ids=["flux", "minimize"])
    def test_boolean_options_take_only_json_booleans(self, tmp_path, capsys, command, key,
                                                     fields, value):
        data = base_scenario(**{"trajectory1": static_record(0.0, 0.0, 0.0), **fields})
        data["options"] = {**data["options"], key: value}
        path = write_scenario(tmp_path, data)
        assert run(command, path, out_dir=tmp_path / "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config") and key in err[0], err


class TestGahScan:
    def test_three_rows_make_four_lines(self, tmp_path):
        data = base_scenario(**static_pair(),
                             options={"times": [0.5], "directions": 3})
        path = write_scenario(tmp_path, data)
        out = tmp_path / "out"
        assert run("gah-scan", path, out_dir=out, quiet=True) == 0
        text = (out / "gah_scan.csv").read_text()
        lines = text.splitlines()
        assert len(lines) == 4
        header, rows = read_csv(out / "gah_scan.csv")
        assert header == ["t", "nx", "ny", "nz", "gx", "gy", "gz", "defined"]
        for row in rows:
            assert row[-1] == "1"
            assert max(abs(float(v)) for v in row[4:7]) < 1e-12
            # a static pair's residuals cancel exactly, and print as 0
            # whatever the sign of the cancelled zero
            assert row[4:7] == ["0", "0", "0"]

    def test_time_range_and_direction_list(self, tmp_path):
        data = base_scenario(
            **static_pair(),
            options={
                "time_range": [0.0, 1.0, 3],
                "directions": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]],
            },
        )
        out = tmp_path / "out"
        assert run("gah-scan", write_scenario(tmp_path, data), out_dir=out,
                   quiet=True) == 0
        _, rows = read_csv(out / "gah_scan.csv")
        assert len(rows) == 6
        np.testing.assert_allclose([float(r[0]) for r in rows],
                                   [0.0, 0.0, 0.5, 0.5, 1.0, 1.0])
        # the [0, 2, 0] direction row is normalized before use
        assert abs(float(rows[1][2]) - 1.0) < 1e-15

    def test_huge_direction_rows_are_normalized_and_zero_rows_rejected(self, tmp_path,
                                                                       capsys):
        rows = {}
        for name, direction in (("huge", [1e308, 1e308, 0.0]), ("plain", [1.0, 1.0, 0.0])):
            data = base_scenario(**static_pair(), options={"times": [0.0],
                                                           "directions": [direction]})
            out = tmp_path / name
            assert run("gah-scan", write_scenario(tmp_path, data), out_dir=out,
                       quiet=True) == 0
            rows[name] = read_csv(out / "gah_scan.csv")[1]
        assert rows["huge"] == rows["plain"]
        assert float(rows["huge"][0][1]) == float(rows["huge"][0][2]) == 1.0 / 2.0 ** 0.5
        data = base_scenario(**static_pair(), options={"times": [0.0],
                                                       "directions": [[0.0, 0.0, 0.0]]})
        assert run("gah-scan", write_scenario(tmp_path, data), out_dir=tmp_path / "zero") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config"), err

    def test_empty_scan_is_a_config_error(self, tmp_path, capsys):
        # a scan of no times writes no header-only report
        data = base_scenario(**static_pair(), options={"times": []})
        out = tmp_path / "out"
        assert run("gah-scan", write_scenario(tmp_path, data), out_dir=out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config"), err
        assert not (out / "gah_scan.csv").exists()

    def test_guard_band_rows_marked_undefined(self, tmp_path):
        kinked = {
            "kind": "polygonal",
            "vertices": [[-50.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                         [50.0, 25.0, 0.0, 0.0]],
        }
        data = base_scenario(
            trajectory1=kinked,
            trajectory2=static_record(2.0, 0.0, 0.0),
            options={"times": [0.0], "directions": 4},
        )
        out = tmp_path / "out"
        assert run("gah-scan", write_scenario(tmp_path, data), out_dir=out,
                   quiet=True) == 0
        _, rows = read_csv(out / "gah_scan.csv")
        assert [row[-1] for row in rows] == ["0"] * 4

    def test_reruns_are_byte_identical(self, tmp_path):
        data = base_scenario(**static_pair(),
                             options={"time_range": [-1.0, 1.0, 5],
                                      "directions": 6})
        path = write_scenario(tmp_path, data)
        outs = (tmp_path / "a", tmp_path / "b")
        for out in outs:
            assert run("gah-scan", path, out_dir=out, quiet=True) == 0
        blobs = [(out / "gah_scan.csv").read_bytes() for out in outs]
        assert blobs[0] == blobs[1]


class TestActionVerify:
    def scenario(self, tmp_path, **options):
        data = base_scenario(
            **static_pair(),
            boundary={"start_time": -2.0, "end_time": 2.0, "k2": 0.0},
            options=options,
        )
        return write_scenario(tmp_path, data)

    def test_static_pair_action_value(self, tmp_path):
        out = tmp_path / "out"
        assert run("action", self.scenario(tmp_path), out_dir=out, quiet=True) == 0
        vals = quantities(out / "action.csv")
        # L = -m + kappa / r = -1 + 1/2 per particle over a window of length 4
        assert abs(vals["action1"] + 2.0) < 1e-10
        assert abs(vals["action2"] + 2.0) < 1e-10
        assert abs(vals["total"] + 4.0) < 1e-10

    def test_verify_reports_static_residual(self, tmp_path):
        out = tmp_path / "out"
        assert run("verify", self.scenario(tmp_path), out_dir=out, quiet=True) == 0
        vals = quantities(out / "verify.csv")
        assert abs(vals["max_el"] - 0.25) < 1e-6
        assert vals["converged"] == 0.0
        assert vals["max_break"] == 0.0

    def test_tol_flag_loosens_verify(self, tmp_path):
        out = tmp_path / "out"
        assert run("verify", self.scenario(tmp_path), out_dir=out, tol=1.0,
                   quiet=True) == 0
        assert quantities(out / "verify.csv")["converged"] == 1.0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_flag_is_a_config_error(self, tmp_path, capsys, tol):
        # a NaN tolerance would pass every comparison against it
        out = tmp_path / "out"
        argv = ["verify", "--scenario", str(self.scenario(tmp_path)), "--out", str(out),
                f"--tol={tol}"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config"), err
        assert not (out / "verify.csv").exists()


class TestFlux:
    def test_static_charge_has_no_flux(self, tmp_path):
        data = base_scenario(
            trajectory1=static_record(0.0, 0.0, 0.0),
            options={"times": [0.0], "radius": 5.0},
        )
        out = tmp_path / "out"
        assert run("flux", write_scenario(tmp_path, data), out_dir=out,
                   quiet=True) == 0
        header, rows = read_csv(out / "flux.csv")
        assert header == ["t", "radius", "flux"]
        assert len(rows) == 1
        assert abs(float(rows[0][2])) < 1e-15

    def test_a_far_cone_exit_at_any_time_fails_the_command(self, tmp_path, capsys):
        # every time goes through one far-cone pass; t = 100 leaves the
        # history [-50, 50] on the sphere of radius 5
        data = base_scenario(trajectory1=static_record(0.0, 0.0, 0.0),
                             options={"times": [0.0, 100.0], "radius": 5.0})
        out = tmp_path / "out"
        assert run("flux", write_scenario(tmp_path, data), out_dir=out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: insufficient history"), err
        assert not (out / "flux.csv").exists()

    def test_radius_is_required(self, tmp_path, capsys):
        data = base_scenario(trajectory1=static_record(0.0, 0.0, 0.0),
                             options={"times": [0.0]})
        assert run("flux", write_scenario(tmp_path, data),
                   out_dir=tmp_path / "out") == 1
        assert "radius" in capsys.readouterr().err

    def test_non_positive_radius_is_a_domain_error(self, tmp_path, capsys):
        # the sphere-radius rule of `farfield` judges the option
        data = base_scenario(trajectory1=static_record(0.0, 0.0, 0.0),
                             options={"times": [0.0], "radius": -1.0})
        assert run("flux", write_scenario(tmp_path, data),
                   out_dir=tmp_path / "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: domain: sphere radius") and "-1.0" in err[0], err


class TestBuildPolygonal:
    def test_writes_trajectories_and_report(self, tmp_path):
        data = base_scenario(options={
            "vertices1": [[-1.0, 0.0, 0.0, 0.0], [0.0, 0.2, 0.0, 0.0],
                          [1.0, 0.2, 0.3, 0.0]],
            "vertices2": [[-1.0, 2.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0]],
        })
        out = tmp_path / "out"
        assert run("build-polygonal", write_scenario(tmp_path, data),
                   out_dir=out, quiet=True) == 0
        traj = load_trajectory(out / "trajectory1.json")
        np.testing.assert_allclose(traj.position(0.0), [0.2, 0.0, 0.0],
                                   atol=1e-15)
        vals = quantities(out / "build.csv")
        assert vals["segments1"] == 2.0
        assert vals["max_speed2"] == 0.0
        assert 0.0 < vals["max_speed1"] < 1.0

    def test_superluminal_vertices_fail(self, tmp_path, capsys):
        data = base_scenario(options={
            "vertices1": [[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0]],
        })
        assert run("build-polygonal", write_scenario(tmp_path, data),
                   out_dir=tmp_path / "out") == 1
        assert "superluminal" in capsys.readouterr().err


class TestConstructPartner:
    def test_static_family_fixed_point(self, tmp_path):
        table = np.zeros((3, 1))
        table[1, 0] = 1.5 * math.sqrt(4.0 * math.pi)
        family = SeparationFamilyParams.from_harmonic_tables(
            (-50.0, 50.0), [table], [np.zeros((3, 1))], lmax=0
        )
        save_family(family, tmp_path / "family.json")
        data = base_scenario(
            trajectory2=static_record(0.0, 0.0, 0.0),
            family_file="family.json",
            options={"directions": 8, "t1_grid": [-3.0, 3.0, 7]},
        )
        out = tmp_path / "out"
        assert run("construct-partner", write_scenario(tmp_path, data),
                   out_dir=out, quiet=True) == 0
        partner = load_trajectory(out / "partner.json")
        np.testing.assert_allclose(partner.position(0.0), [0.0, 1.5, 0.0],
                                   atol=1e-8)
        assert partner.particle.charge == 1.0
        header, rows = read_csv(out / "partner.csv")
        assert header == ["t1", "x", "y", "z", "spread"]
        assert len(rows) == 7
        assert max(float(row[4]) for row in rows) < 1e-9


class TestSewingChain:
    def test_static_pair_chain(self, tmp_path):
        data = base_scenario(
            **static_pair(),
            options={"seed": [2, 0.0], "direction": "forward", "count": 3},
        )
        out = tmp_path / "out"
        assert run("sewing-chain", write_scenario(tmp_path, data),
                   out_dir=out, quiet=True) == 0
        header, rows = read_csv(out / "chain.csv")
        assert header == ["index", "particle", "time"]
        assert [row[1] for row in rows] == ["1", "2", "1"]
        np.testing.assert_allclose([float(row[2]) for row in rows],
                                   [2.0, 4.0, 6.0], atol=1e-9)


class TestMinimize:
    def test_exact_solution_round_trip(self, tmp_path):
        data = exact_minimize_scenario(gtol=1e-8)
        out = tmp_path / "out"
        assert run("minimize", write_scenario(tmp_path, data), out_dir=out,
                   quiet=True) == 0
        vals = quantities(out / "minimize.csv")
        assert vals["converged"] == 1.0
        assert vals["max_el"] < 1e-6
        refined = load_trajectory(out / "minimized1.json")
        np.testing.assert_allclose(refined.position(0.0), [0.0, 0.0, 0.0],
                                   atol=1e-8)
        np.testing.assert_allclose(refined.velocity(0.5), [0.3, 0.1, 0.0],
                                   atol=1e-8)


    def test_break_times_pin_one_break_of_particle_1(self, tmp_path):
        data = exact_minimize_scenario(break_times=[[0.0], []])
        out = tmp_path / "out"
        assert run("minimize", write_scenario(tmp_path, data), out_dir=out, quiet=True) == 0
        assert quantities(out / "minimize.csv")["converged"] == 1.0
        refined = load_trajectory(out / "minimized1.json")
        assert 0.0 in refined.junction_times()
        np.testing.assert_allclose(refined.velocity(0.0, Side.LEFT), [0.3, 0.1, 0.0],
                                   atol=1e-8)

    @pytest.mark.parametrize("value", [[[0.0]], 5, [[0.0], ["x"]]])
    def test_malformed_break_times_are_config_errors(self, tmp_path, capsys, value):
        data = exact_minimize_scenario(break_times=value)
        assert run("minimize", write_scenario(tmp_path, data), quiet=True) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "break_times must be two lists, one per particle" in err


# command, the option `--tol` replaces, a `--tol` value that changes the
# outcome, and a scenario
TOL_CASES = {
    # el_tol 1.0 passes the static pair's EL residual of 0.25
    "verify": ("verify", "el_tol", 1.0, base_scenario(
        **static_pair(), boundary={"start_time": -2.0, "end_time": 2.0}, options={})),
    # a guard band of 100 around t = 0 holds every cone time
    "gah-scan": ("gah-scan", "guard", 100.0, base_scenario(
        trajectory1=kinked_record(0.0), trajectory2=kinked_record(2.0),
        options={"times": [0.5], "directions": 3})),
    "flux": ("flux", "guard", 100.0, base_scenario(
        trajectory1=kinked_record(0.0),
        options={"times": [0.5], "radius": 5.0, "mesh": [3, 5]})),
    # the spread of the fixed point is a few 1e-16
    "construct-partner": ("construct-partner", "spread_tol", 1e-17, base_scenario(
        trajectory2=static_record(0.0, 0.0, 0.0), family=harmonic_family(),
        options={"directions": 8, "t1_grid": [-3.0, 3.0, 7]})),
    # no step meets gtol 1e-30, so the minimizer spends max_iter
    "minimize": ("minimize", "gtol", 1e-30, exact_minimize_scenario()),
}


class TestTolFlag:
    @pytest.mark.parametrize("name", sorted(TOL_CASES))
    def test_tol_replaces_the_commands_option(self, tmp_path, capsys, name):
        command, key, tol, data = TOL_CASES[name]

        def outcome(label, options, tol=None):
            """Exit code, stderr and every output file of one run."""
            scenario = {**data, "options": {**data["options"], **options}}
            out = tmp_path / label
            code = run(command, write_scenario(tmp_path, scenario, f"{label}.json"),
                       out_dir=out, tol=tol, quiet=True)
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            return code, capsys.readouterr().err, files

        via_tol = outcome("tol", {}, tol)
        assert via_tol == outcome("option", {key: tol})
        assert via_tol != outcome("default", {})
        # the scenario's own value is never read, malformed or not
        assert via_tol == outcome("malformed", {key: "abc"}, tol)

    def test_action_ignores_tol(self, tmp_path):
        path = write_scenario(tmp_path, TOL_CASES["verify"][3])
        blobs = []
        for label, tol in (("plain", None), ("tol", 1e-30)):
            assert run("action", path, out_dir=tmp_path / label, tol=tol, quiet=True) == 0
            blobs.append((tmp_path / label / "action.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestMain:
    def test_quiet_flag_and_passthrough(self, tmp_path, capsys):
        data = base_scenario(**static_pair(),
                             options={"times": [0.5], "directions": 3})
        path = write_scenario(tmp_path, data)
        code = main(["gah-scan", "--scenario", str(path),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_summary_line_by_default(self, tmp_path, capsys):
        data = base_scenario(**static_pair(),
                             options={"times": [0.0], "directions": 3})
        path = write_scenario(tmp_path, data)
        code = main(["gah-scan", "--scenario", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "gah scan" in capsys.readouterr().out

    def test_summary_names_the_report_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_scenario(tmp_path, TOL_CASES["construct-partner"][3])
        assert run("construct-partner", path, out_dir=out) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("partner spread ") and line.endswith(f" -> {out / 'partner.csv'}")

    def test_default_out_is_scenario_directory(self, tmp_path):
        data = base_scenario(**static_pair(), options={"times": [0.0], "directions": 3})
        path = write_scenario(tmp_path, data)
        assert run("gah-scan", path, quiet=True) == 0
        assert (tmp_path / "gah_scan.csv").exists()
