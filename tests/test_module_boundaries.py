"""Module boundaries of the wfvar package."""

import ast
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
