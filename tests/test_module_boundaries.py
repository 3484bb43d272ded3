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
