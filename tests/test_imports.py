"""Every name a package module imports from a sibling module is used there.

No linter runs on the package, so a listing or check that moves between
modules could leave a stale ``from .x import`` behind; this reads each
module's syntax tree instead.  __init__.py only re-exports, so it is
skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vertexforms"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_sibling_imports(source: str) -> set:
    tree = ast.parse(source)
    imported = {alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_module_is_read():
    assert len(MODULES) >= 8


def test_an_unused_sibling_import_is_caught():
    source = "from .grid import GridShape, guard_cost\nfrom math import lcm\nguard_cost(1)\n"
    assert unused_sibling_imports(source) == {"GridShape"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_sibling_imports(path):
    assert unused_sibling_imports(path.read_text()) == set()
