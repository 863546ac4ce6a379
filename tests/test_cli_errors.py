"""The CLI keeps no input checks of its own.

Input the library refuses raises grid.InputError, and the CLI reports
that and SizeGuardError as exit 2; any other exception is a fault in
the program and propagates.  So cli.py defines no exception class,
catches no ValueError (nor anything wider, which would catch it too),
and main's exit-2 handler names exactly InputError and SizeGuardError.
This reads cli.py's syntax tree, as test_bounded_caches.py does, and
resolves each name in the imported module.
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
