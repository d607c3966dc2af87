"""The exact core is integer-only: none of its modules imports numpy, and
neither the package nor the CLI imports ``experiment`` or ``oracle`` (which
do) at import time."""
import ast
from pathlib import Path

import pytest

import axiombox

CORE = ("gf2.py", "pauli.py", "blackbox.py", "stabilizer.py", "logic.py")


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("name", CORE)
def test_core_module_imports_no_numpy(name):
    source = (Path(axiombox.__file__).parent / name).read_text()
    modules = list(imported_modules(ast.parse(source)))
    assert modules, "the scan must see the module's imports"
    assert not [m for m in modules if m.split(".")[0] == "numpy"]


def top_level_imports(body):
    """Dotted names that statements run at import time bring in: function
    bodies are skipped, since they import only when called."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}".lstrip(".") for alias in node.names)
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from top_level_imports(getattr(node, field, []))


@pytest.mark.parametrize("name", ["__init__.py", "cli.py"])
def test_entry_modules_import_numpy_users_lazily(name):
    source = (Path(axiombox.__file__).parent / name).read_text()
    modules = [m for m in top_level_imports(ast.parse(source).body) if m]
    assert "stabilizer" in {part for m in modules for part in m.split(".")}
    assert not [
        m for m in modules
        if m.split(".")[0] == "numpy" or {"experiment", "oracle"} & set(m.split("."))
    ]
