"""The exact core is integer-only: none of its modules imports numpy."""
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
