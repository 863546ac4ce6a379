"""The CLI keeps no input checks of its own.

Input the library refuses raises grid.InputError, and the CLI reports
that and SizeGuardError as exit 2; any other exception is a fault in
the program and propagates.  So cli.py defines no exception class,
catches no ValueError (nor anything wider, which would catch it too),
and main's exit-2 handler names exactly InputError and SizeGuardError.
This reads cli.py's syntax tree, as test_bounded_caches.py does, and
resolves each name in the imported module.

Nor does the CLI re-decide what a model's front door decides: it
imports none of check_boundary, count_total and count_with_boundary
(eightvertex.count_eight and the walks check the boundary and pick the
count), defines no table of fields of its own (_FIELDS), and charges
the guard (guard_cost) only for the map entries of verify defect-rank,
since defect_map takes no force; the library charges everything else.
"""

import ast
import builtins
from pathlib import Path

import pytest

import vertexforms.cli as cli

CLI = Path(cli.__file__)


def resolve(node, names: dict):
    """The object an ast.Name or a dotted ast.Attribute names, else None."""
    if isinstance(node, ast.Name):
        return names.get(node.id, getattr(builtins, node.id, None))
    if isinstance(node, ast.Attribute):
        return getattr(resolve(node.value, names), node.attr, None)
    return None


def handler_types(handler: ast.ExceptHandler) -> list:
    """The expressions an except clause names; [] for a bare except."""
    if handler.type is None:
        return []
    if isinstance(handler.type, ast.Tuple):
        return list(handler.type.elts)
    return [handler.type]


def faults(source: str, names: dict) -> list:
    """What keeps cli.py from leaving input checks to the library: each
    exception class it defines, and each except clause that would catch
    a bare ValueError."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                cls = resolve(base, names)
                if not isinstance(cls, type) or issubclass(cls, BaseException):
                    found.append(f"class {node.name}")
        if isinstance(node, ast.ExceptHandler):
            types = [resolve(t, names) for t in handler_types(node)]
            if not types or any(not isinstance(t, type) or issubclass(ValueError, t)
                                for t in types):
                found.append(f"except at line {node.lineno}")
    return found


def main_handlers(source: str) -> list:
    """The names in each except clause of main, in order."""
    main = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    return [sorted(ast.unparse(t) for t in handler_types(node))
            for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]


def test_cli_defines_no_exception_and_catches_no_value_error():
    assert faults(CLI.read_text(), vars(cli)) == []


def test_main_reports_exactly_the_input_and_guard_errors():
    assert main_handlers(CLI.read_text()) == [["SystemExit"], ["InputError", "SizeGuardError"]]
    assert issubclass(cli.InputError, ValueError)
    assert not issubclass(cli.SizeGuardError, ValueError)


@pytest.mark.parametrize("source,found", [
    ("class CLIError(Exception):\n    pass\n", ["class CLIError"]),
    ("class Bad(InputError):\n    pass\n", ["class Bad"]),
    ("class Texts(dict):\n    pass\n", []),
    ("try:\n    pass\nexcept ValueError:\n    pass\n", ["except at line 3"]),
    ("try:\n    pass\nexcept (KeyError, Exception):\n    pass\n", ["except at line 3"]),
    ("try:\n    pass\nexcept:\n    pass\n", ["except at line 3"]),
    ("try:\n    pass\nexcept UnicodeDecodeError:\n    pass\n", []),
    ("try:\n    pass\nexcept (InputError, SizeGuardError):\n    pass\n", []),
])
def test_a_cli_fault_is_caught(source, found):
    assert faults(source, vars(cli)) == found


def test_main_handlers_are_read_in_order():
    source = ("def main():\n    try:\n        pass\n    except SystemExit:\n        pass\n"
              "    try:\n        pass\n    except (SizeGuardError, InputError, KeyError):\n"
              "        pass\n")
    assert main_handlers(source) == [["SystemExit"],
                                     ["InputError", "KeyError", "SizeGuardError"]]


def front_door_faults(source: str) -> list:
    """What has cli.py re-deciding a library rule: an import of
    check_boundary, count_total or count_with_boundary, a _FIELDS
    binding, and a call of guard_cost outside _verify_defect_rank."""
    tree = ast.parse(source)
    found = [f"imports {alias.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names
             if alias.name in ("check_boundary", "count_total", "count_with_boundary")]
    found += [f"binds _FIELDS at line {node.lineno}" for node in ast.walk(tree)
              if isinstance(node, ast.Name) and node.id == "_FIELDS"
              and isinstance(node.ctx, ast.Store)]
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_verify_defect_rank":
            allowed.update(id(call) for call in ast.walk(node))
    found += [f"guard_cost at line {node.lineno}" for node in ast.walk(tree)
              if isinstance(node, ast.Call) and ast.unparse(node.func) == "guard_cost"
              and id(node) not in allowed]
    return found


def test_cli_leaves_the_boundary_counts_and_charges_to_the_library():
    assert front_door_faults(CLI.read_text()) == []
    assert any(isinstance(node, ast.FunctionDef) and node.name == "_verify_defect_rank"
               for node in ast.parse(CLI.read_text()).body)


@pytest.mark.parametrize("source,found", [
    ("from .grid import GridShape, check_boundary\n", ["imports check_boundary"]),
    ("def f():\n    from .eightvertex import count_total, count_with_boundary\n",
     ["imports count_total", "imports count_with_boundary"]),
    ("_FIELDS = {}\n", ["binds _FIELDS at line 1"]),
    ("def cmd_count(args):\n    guard_cost(1)\n", ["guard_cost at line 2"]),
    ("def _verify_defect_rank(args):\n    guard_cost(1, args.force)\n", []),
    ("from .eightvertex import count_eight\nx = _FIELDS\n", []),
])
def test_a_front_door_fault_is_caught(source, found):
    assert front_door_faults(source) == found
