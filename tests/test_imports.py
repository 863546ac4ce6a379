"""The package's imports: what each module imports, and what a fresh
process loads.

No linter runs on the package, so a listing or check that moves between
modules could leave a stale ``from .x import`` behind; this reads each
module's syntax tree instead.  __init__.py imports no sibling: it
resolves its public names from their modules on first use, and the
footprint tests check in fresh interpreters that importing the package
or the CLI loads no module a command does not run.  No module imports
dataclasses (which loads inspect) or typing, since either would add to
every command's start-up time; the records derive from algebra.Record.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vertexforms

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "vertexforms"
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


def imported_modules(source: str) -> set:
    """The absolute modules a source file imports, by their full names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
    return names


def test_an_import_of_dataclasses_or_typing_is_caught():
    source = "from dataclasses import dataclass\nimport typing as t\nfrom .grid import GridShape\n"
    assert imported_modules(source) == {"dataclasses", "typing"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses_or_typing(path):
    assert not imported_modules(path.read_text()) & {"dataclasses", "typing"}


def loaded_after(code: str, packages=("vertexforms",)) -> set:
    """The modules of the given top-level packages that a fresh
    interpreter holds after running code."""
    script = code + ("\nimport sys\nprint(*sorted(m for m in sys.modules"
                     f" if m.split('.')[0] in {tuple(packages)!r}))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    return set(proc.stdout.splitlines()[-1].split())


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import vertexforms") == {"vertexforms"}


def test_importing_the_cli_loads_only_grid_and_algebra():
    assert loaded_after("import vertexforms.cli") == {
        "vertexforms", "vertexforms.cli", "vertexforms.grid", "vertexforms.algebra"}


def test_count_loads_neither_yangbaxter_nor_toroidal():
    loaded = loaded_after('from vertexforms.cli import main\n'
                          'main(["count", "--m", "2", "--n", "2"])')
    assert "vertexforms.forms_rect" in loaded
    assert not loaded & {"vertexforms.yangbaxter", "vertexforms.toroidal"}


@pytest.mark.parametrize("command", ["count", "enumerate"])
def test_the_toroidal_count_and_listing_load_no_toroidal(command):
    # they are the six-vertex count and walk on TORUS
    loaded = loaded_after('from vertexforms.cli import main\n'
                          f'main([{command!r}, "--model", "toroidal", "--m", "2", "--n", "2"])')
    assert "vertexforms.forms_rect" in loaded
    assert "vertexforms.toroidal" not in loaded


def test_no_command_loads_dataclasses_or_inspect():
    watched = ("dataclasses", "inspect")
    every_module = "".join(f"import vertexforms.{path.stem}\n" for path in MODULES)
    # a bare interpreter's site may preload some of them; the package adds none
    assert loaded_after("import vertexforms.cli\n" + every_module, watched) <= loaded_after(
        "", watched)


def test_every_exported_name_resolves_to_its_module_object():
    for module, names in vertexforms._EXPORTS.items():
        home = importlib.import_module(f"vertexforms.{module}")
        for name in names:
            assert getattr(vertexforms, name) is getattr(home, name), name
    assert sorted(vertexforms.__all__) == sorted(vertexforms._HOME)
    assert set(vertexforms.__all__) <= set(dir(vertexforms))
    with pytest.raises(AttributeError):
        vertexforms.no_such_name
