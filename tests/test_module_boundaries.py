"""Module boundaries of the wfvar package."""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wfvar"


def private_imports(path: Path) -> list:
    """`from <wfvar module> import _name` statements of one module that name
    another wfvar module."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level:
            source = module.split(".")[0]
        elif module.startswith("wfvar."):
            source = module.split(".")[1]
        else:
            continue
        if source == path.stem:
            continue
        hits += [f"{path.name}:{node.lineno} imports {alias.name} from {source}"
                 for alias in node.names if alias.name.startswith("_")]
    return hits


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    hits = [hit for path in modules for hit in private_imports(path)]
    assert hits == []


def referenced_names(path: Path) -> set:
    """Names one module imports, reads, or reads as attributes."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_partials_make_no_scalar_cone_solve():
    # the action integrand, the first variation, the EL residual and the
    # currents all solve their cones in lanes through `cone_pair`
    for name in ("action", "momentum", "optimizer"):
        assert "cone_time" not in referenced_names(PACKAGE / f"{name}.py"), name


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def test_optimizer_takes_one_first_variation_per_gradient():
    # `frechet_directional` takes every basis field of a block in one call,
    # so the optimizer calls it once and never per coordinate
    tree = ast.parse((PACKAGE / "optimizer.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "frechet_directional" in (getattr(node.func, "id", None),
                                           getattr(node.func, "attr", None))]
    looped = {id(node) for loop in ast.walk(tree) if isinstance(loop, LOOPS)
              for node in ast.walk(loop)}
    assert len(calls) == 1
    assert id(calls[0]) not in looped


def test_basis_fields_are_one_bundle():
    # a block's basis fields are one `PackedChain` made in one pass from the
    # identity, never one `Perturbation` per coordinate
    tree = ast.parse((PACKAGE / "optimizer.py").read_text())
    assert "Perturbation" not in referenced_names(PACKAGE / "optimizer.py")
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not any(isinstance(node, LOOPS) for node in ast.walk(funcs["_basis_fields"]))


def test_cone_pairs_and_crossings_take_one_lane_solve():
    # both branches of every pair, and the junction events of both branches
    # of a crossing search, go to one `_cone_solutions` call outside any
    # loop; `cone_pair` is one block of `cone_pairs`
    tree = ast.parse((PACKAGE / "lightcone.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert [getattr(node.func, "id", None) for node in ast.walk(funcs["cone_pair"])
            if isinstance(node, ast.Call)] == ["cone_pairs"]
    for name in ("cone_pairs", "cone_crossings"):
        func = funcs[name]
        names = {getattr(node, "id", None) for node in ast.walk(func)}
        calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "_cone_solutions"]
        looped = {id(node) for loop in ast.walk(func) if isinstance(loop, LOOPS)
                  for node in ast.walk(loop)}
        assert "cone_times" not in names, name
        assert len(calls) == 1, name
        assert id(calls[0]) not in looped, name


def test_partner_solves_every_grid_time_in_each_pass():
    # one position solve and one final candidate pass over all grid times,
    # and no per-grid-time loop inside a candidate pass
    tree = ast.parse((PACKAGE / "shortrange.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    func = funcs["construct_partner"]
    looped = {id(node) for loop in ast.walk(func) if isinstance(loop, LOOPS)
              for node in ast.walk(loop)}
    for name in ("_candidates", "_solve_positions"):
        calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == name]
        assert len(calls) == 1, name
        assert id(calls[0]) not in looped, name
    assert not any(isinstance(node, LOOPS) for node in ast.walk(funcs["_candidates"]))


def core_functions() -> dict:
    """The functions of `core` by name, methods as `Class.name`."""
    tree = ast.parse((PACKAGE / "core.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        funcs.update({f"{cls.name}.{node.name}": node for node in cls.body
                      if isinstance(node, ast.FunctionDef)})
    return funcs


def reached_calls(funcs: dict, name: str, seen=None) -> list:
    """The calls one core function makes, and those of the module-level core
    functions it calls, transitively."""
    seen = set() if seen is None else seen
    seen.add(name)
    calls = [node for node in ast.walk(funcs[name]) if isinstance(node, ast.Call)]
    for callee in [getattr(call.func, "id", None) for call in calls]:
        if callee in funcs and callee not in seen:
            calls += reached_calls(funcs, callee, seen)
    return calls


def test_chain_algebra_builds_through_the_array_builder():
    # every chain builder makes its cells as arrays and its chain by one
    # constructor call on knots and coefficients, never a `Segment` (or a
    # chain of them) at a time
    funcs = core_functions()
    for name in ("polygonal_from_vertices", "hermite_trajectory", "merge_history",
                 "add_perturbation", "Perturbation.tent", "Perturbation.from_nodes"):
        calls = reached_calls(funcs, name)
        owners = [getattr(call.func, "id", None)
                  or getattr(getattr(call.func, "value", None), "id", None) for call in calls]
        assert "Segment" not in owners, name
        assert "from_segments" not in [getattr(call.func, "attr", None) for call in calls], name
        assert owners.count("PiecewiseTrajectory") + owners.count("cls") == 1, name


def test_a_chain_is_its_knots_and_coefficients():
    # one stored form per chain: no `_chain` or `_fill_segments` builder, no
    # `PackedChain.of`, and nothing in the package makes an object without
    # its constructor or touches an instance `__dict__`
    assert not {"_chain", "_fill_segments", "PackedChain.of"} & set(core_functions())
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("__new__", "__dict__"), f"{path.name}:{node.lineno}"


def row_cache_uses(path: Path) -> list:
    """Places in one module that read or write `_rows` (as an attribute, a
    name, a keyword or a string) outside `class Segment`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {id(node) for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name == "Segment"
              for node in ast.walk(cls)}
    hits = []
    for node in ast.walk(tree):
        name = (getattr(node, "attr", None) or getattr(node, "id", None)
                or getattr(node, "arg", None) or getattr(node, "value", None))
        if name == "_rows" and id(node) not in inside:
            hits.append(f"{path.name}:{node.lineno}")
    return hits


def test_only_a_segment_touches_its_float_rows():
    # a chain forms its rows once, as arrays; a segment makes its own float
    # rows on the first scalar read, and nothing else reads them
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in row_cache_uses(path)]
    assert hits == []


def json_reads(path: Path) -> list:
    """Calls of `json.load` or `json.loads` in one module, as
    `module:function:line`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = {id(node): func.name for func in ast.walk(tree)
             if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
    return [f"{path.stem}:{owner.get(id(node))}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("load", "loads") and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"]


def test_only_read_json_parses_json():
    # every JSON file goes through one reader, which maps every decoding
    # failure to ConfigError; number lists go through `json_numbers`
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in json_reads(path)]
    assert [hit.rsplit(":", 1)[0] for hit in hits] == ["core:read_json"]
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    assert "_floats" not in {node.name for node in ast.walk(cli)
                             if isinstance(node, ast.FunctionDef)}


def outside_imports(path: Path) -> list:
    """Absolute imports of one module that are neither the standard library
    nor numpy."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        hits += [f"{path.name}:{node.lineno} imports {name}" for name in names
                 if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    return hits


def test_package_imports_only_the_standard_library_and_numpy():
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in outside_imports(path)]
    assert hits == []


def numpy_cross_calls(path: Path) -> list:
    """Calls of `np.cross` (or `numpy.cross`) in one module."""
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "cross" and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")]


def test_package_calls_core_cross_not_numpy_cross():
    # np.cross spends most of its time on axis handling; core.cross gives
    # the same bits
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in numpy_cross_calls(path)]
    assert hits == []


def test_import_loads_no_scipy():
    probe = "import sys, wfvar; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", probe], cwd=PACKAGE.parent,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_one_rule_per_kinematic_input():
    # directions are checked by `lightcone.unit_directions` and given
    # velocities by `core.subluminal`, never by a copy of either rule
    for name in ("farfield", "shortrange"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not defined & {"_directions", "_unit"}, name
    for name in ("action", "momentum", "optimizer", "shortrange"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        speed_checks = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                        and any(isinstance(side, ast.Constant) and side.value == 1.0
                                and isinstance(side.value, float)
                                for side in (node.left, *node.comparators))]
        assert speed_checks == [], name


def attributes_read(path: Path) -> set:
    """Attribute names one module reads (`x.name`)."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute)}


def test_cli_writes_every_report_in_run():
    # each handler returns its CSV name, report and summary; `run` alone
    # writes the report and prints the summary
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    handlers = [name for name in funcs if name.startswith("_cmd_")]
    assert len(handlers) == 8

    def called(func) -> list:
        return [getattr(node.func, "id", None) for node in ast.walk(func)
                if isinstance(node, ast.Call)]

    for name in handlers:
        assert not {"emit_report", "print"} & set(called(funcs[name])), name
    assert called(funcs["run"]).count("emit_report") == 1


def test_cli_checks_scenario_parts_in_run():
    # every `_COMMANDS` entry names the scenario parts its command needs,
    # and `run` checks them: no handler calls `_require` or tests
    # `scen.<part> is None`
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "_COMMANDS")
    parts = {"traj1", "traj2", "boundary", "family"}
    for key, entry in zip(table.keys, table.values):
        needs = ast.literal_eval(entry.elts[-1])
        assert isinstance(needs, tuple) and set(needs) <= parts, key.value
    handlers = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert len(handlers) == 8
    for func in handlers:
        calls = {getattr(node.func, "id", None) for node in ast.walk(func)
                 if isinstance(node, ast.Call)}
        checks = [node.lineno for node in ast.walk(func) if isinstance(node, ast.Compare)
                  and getattr(node.left, "attr", None) in parts
                  and isinstance(node.ops[0], (ast.Is, ast.IsNot))]
        assert "_require" not in calls and checks == [], func.name


def test_cone_floor_reads_cell_bounds_from_core():
    # the cone rounding floor takes `PackedChain.bounds`, one rule with the
    # segment speed screen, instead of reading the chain's rows
    for name in ("lightcone", "farfield"):
        assert "rows" not in attributes_read(PACKAGE / f"{name}.py"), name


def test_guard_band_reads_junctions_from_core():
    # the guard band asks the chain for its nearest junctions
    assert "packed" not in attributes_read(PACKAGE / "farfield.py")


def test_action_reads_its_window_from_the_boundary_set():
    # `action` and `frechet_directional` take one window, the boundary set's,
    # and only `_primary_view` makes the swapped boundary set of particle 2
    tree = ast.parse((PACKAGE / "action.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("action", "frechet_directional"):
        args = functions[name].args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        assert "boundary" in params and "window" not in params, name
    tree = ast.parse((PACKAGE / "optimizer.py").read_text())
    makers = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
              and "BoundaryData" in {getattr(call.func, "id", None) for call in ast.walk(node)
                                     if isinstance(call, ast.Call)}]
    assert makers == ["_primary_view"]


def calls_of(node, name: str) -> list:
    """The calls of `name`, as a plain name or an attribute, under `node`."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))]


def test_only_the_optimizer_merges_a_partner_with_its_history():
    # the frozen histories are boundary data of the problem: the optimizer
    # merges each partner once, `merge_history` is the one entry to the
    # splice, and `action` and `momentum` take the partner as it stands
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert [stem for stem, tree in trees.items() if calls_of(tree, "merge_history")] == [
        "optimizer"]
    assert [stem for stem, tree in trees.items() if calls_of(tree, "_splice")] == ["core"]
    merge = core_functions()["merge_history"]
    assert len(calls_of(merge, "_splice")) == len(calls_of(trees["core"], "_splice")) == 1
    for name in ("action", "momentum"):
        assert not {"history1", "history2"} & attributes_read(PACKAGE / f"{name}.py"), name
    boundary_reads = {node.attr for node in ast.walk(trees["action"])
                      if isinstance(node, ast.Attribute)
                      and getattr(node.value, "id", None) == "boundary"}
    assert boundary_reads == {"window", "k2"}


def test_one_lookup_rule_under_every_chain_read():
    # which cell governs a time is answered by `segment_indices` alone, so
    # no module keeps a bisect over a second junction store
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "bisect" not in imported, path.name
    segment_at = core_functions()["SegmentChain.segment_at"]
    calls = [getattr(node.func, "attr", None) for node in ast.walk(segment_at)
             if isinstance(node, ast.Call)]
    assert "segment_indices" in calls


def test_only_direct_calls_solve_a_float_cone():
    # crossings read their junctions off knot residuals and influence
    # intervals solve one `cone_pair`: inside `lightcone`, the float
    # `cone_time` serves no other function
    tree = ast.parse((PACKAGE / "lightcone.py").read_text())
    users = [func.name for func in ast.walk(tree)
             if isinstance(func, ast.FunctionDef) and func.name != "cone_time"
             and "cone_time" in {getattr(node, "id", None) or getattr(node, "attr", None)
                                 for node in ast.walk(func)}]
    assert users == []


def test_one_lienard_wiechert_field():
    # the EL residual is the Lorentz force of `lightcone.lw_fields`, and the
    # far field reads that field's radiation term, `lw_radiation`, instead
    # of a formula of its own, through one kernel: `_branch_totals` is the
    # only far-field function that solves far cones in lanes or reads
    # `lw_radiation`, and it takes no field callable; the only other
    # far-cone solve is the independent route `b_via_second_derivative`
    def functions(name) -> dict:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def names(func) -> set:
        return {getattr(node, "id", None) or getattr(node, "attr", None)
                for node in ast.walk(func)}

    el = names(functions("action")["el_residual"])
    assert "lw_fields" in el and "_branch_partials" not in el
    far = functions("farfield")
    defined = {node.name for node in ast.walk(ast.parse((PACKAGE / "farfield.py").read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_lw_field", "_gah_field", "_second_derivative", "_far_kinematics"}
    readers = {name for name, func in far.items()
               if names(func) & {"far_cone_times", "lw_radiation"}}
    assert readers == {"_branch_totals"}
    solvers = {name for name, func in far.items() if "far_cone_time" in names(func)}
    assert solvers == {"b_via_second_derivative"}
    kernel = far["_branch_totals"]
    params = {arg.arg for arg in kernel.args.args}
    called = {node.func.id for node in ast.walk(kernel)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not params & called
    assert [ast.unparse(node) for node in kernel.args.defaults] == ["_BOTH_BRANCHES"]
    nested_cross = [node.lineno for func in far.values() for node in ast.walk(func)
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "cross"
                    and any(getattr(getattr(arg, "func", None), "id", None) == "cross"
                            for arg in node.args)]
    assert nested_cross == []


def test_quadrature_calls_its_integrand_once_per_level():
    # the rough scale is read off level 0's centre nodes, so `_integrate`
    # makes no call of its integrand outside the level loop
    tree = ast.parse((PACKAGE / "action.py").read_text())
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_integrate")
    f = func.args.args[0].arg
    calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == f]
    level_loop = next(node for node in func.body if isinstance(node, ast.For)
                      and getattr(node.target, "id", None) == "depth")
    assert len(calls) == 1
    assert any(node is calls[0] for node in ast.walk(level_loop))


def test_grid_commands_make_one_far_field_call_and_write_arrays():
    # `flux` sends all its times through one `sphere_flux` call, and the
    # gah scan hands its float array to the report as it is
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def called(func) -> list:
        return [getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                for node in ast.walk(func) if isinstance(node, ast.Call)]

    flux = funcs["_cmd_flux"]
    assert not [node for node in ast.walk(flux) if isinstance(node, (ast.For, ast.comprehension))]
    assert called(flux).count("sphere_flux") == 1
    assert "tolist" not in called(funcs["_cmd_gah_scan"])


def test_both_sides_of_a_break_take_one_lane_solve():
    # `break_residuals`, `post_jump_velocity` and the crossing jumps of
    # `frechet_directional` solve their LEFT and RIGHT lanes together: no
    # loop or comprehension over `Side` calls `cone_pair` or
    # `canonical_current`, and no function calls either of them twice
    solves = ("cone_pair", "canonical_current")
    for name in ("momentum", "action"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for func in (node for node in tree.body if isinstance(node, ast.FunctionDef)):
            called = [getattr(node.func, "id", None) for node in ast.walk(func)
                      if isinstance(node, ast.Call)]
            assert all(called.count(solve) <= 1 for solve in solves), (name, func.name)
            for loop in ast.walk(func):
                if isinstance(loop, (ast.For, ast.AsyncFor)):
                    iters = [loop.iter]
                elif isinstance(loop, LOOPS[3:]):
                    iters = [gen.iter for gen in loop.generators]
                else:
                    continue
                if "Side" in {getattr(node, "id", None) for it in iters for node in ast.walk(it)}:
                    assert not {getattr(node.func, "id", None) for node in ast.walk(loop)
                                if isinstance(node, ast.Call)} & set(solves), (name, func.name)


def test_piecewise_trajectory_alone_judges_speed():
    # the world-line rules live in `PiecewiseTrajectory.__post_init__`: a
    # segment, a displacement and a bare chain are plain polynomial cells,
    # and neither the cell builder nor the optimizer's decode judges speed
    for path in sorted(PACKAGE.glob("*.py")):
        assert "check_speed" not in path.read_text(), path.name
    funcs = core_functions()
    raisers = {name for name, func in funcs.items() for node in ast.walk(func)
               if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
               and getattr(node.exc.func, "id", None) == "SuperluminalError"}
    assert raisers == {"subluminal", "PiecewiseTrajectory.__post_init__"}
    assert not {"SuperluminalError", "max_speed", "bounds"} & {
        getattr(node.func, "attr", None) or getattr(node.func, "id", None)
        for node in ast.walk(funcs["_cells"]) if isinstance(node, ast.Call)}
    tree = ast.parse((PACKAGE / "optimizer.py").read_text())
    decode = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_decode_particle")
    assert "subluminal" not in {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                                for node in ast.walk(decode) if isinstance(node, ast.Call)}


def reads_charge(node) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "charge" for n in ast.walk(node))


def test_one_coupling_from_the_charges():
    # kappa = -q1 q2 is formed in `coupling` alone, from the two trajectories;
    # only the two routines that see no particles take kappa as a number
    takers, products, in_coupling = set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        products |= {id(node) for node in ast.walk(tree) if isinstance(node, ast.BinOp)
                     and isinstance(node.op, ast.Mult)
                     and reads_charge(node.left) and reads_charge(node.right)}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = func.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      *filter(None, (args.vararg, args.kwarg)))]
            if "kappa" in params:
                takers.add(func.name)
            if func.name == "coupling":
                assert params == ["traj1", "traj2"], params
                in_coupling |= {id(node) for node in ast.walk(func)}
    assert takers == {"interaction_density", "_local_currents"}
    assert products and products <= in_coupling
