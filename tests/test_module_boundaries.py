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
    # both branches of a pair, and the junction events of both branches of
    # a crossing search, go to one `_cone_solutions` call outside any loop
    tree = ast.parse((PACKAGE / "lightcone.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("cone_pair", "cone_crossings"):
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
    # splice and perturbation make their cells as arrays and their chain by
    # one `_chain` call, never a `Segment` (or a chain of them) at a time
    constructors = {"Segment", "PiecewiseTrajectory", "Perturbation", "cls"}
    funcs = core_functions()
    for name in ("replace_window", "merge_history", "add_perturbation", "Perturbation.tent"):
        calls = reached_calls(funcs, name)
        owners = [getattr(call.func, "id", None)
                  or getattr(getattr(call.func, "value", None), "id", None) for call in calls]
        assert constructors.isdisjoint(owners), name
        assert "_chain" in owners, name


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
