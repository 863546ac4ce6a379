"""No unbounded cache in the package.

A functools.cache, or an lru_cache with no integer maxsize, keeps every
argument and result it is given for the life of the process, so a long
run over distinct inputs grows the heap without end.  The column memos
are lru_caches with a fixed cap; cli.build_parser, built once per
process, is the one cache allowed to be unbounded.  This reads each
module's syntax tree, as test_imports.py does, and reads a maxsize
given by name from the imported module.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vertexforms"
MODULES = sorted(PACKAGE.glob("*.py"))
UNBOUNDED_ALLOWED = {("cli.py", "build_parser")}


def unbounded_caches(source: str, names: dict) -> set:
    """The names of the functions (or "<module>") in which a functools
    cache, or an lru_cache without a positive integer maxsize, appears.
    A maxsize is an int literal or a name that names binds to an int."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "functools"
               for alias in node.names}

    def cache_kind(node):
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "functools"):
            return node.attr
        return None

    def bounded(call) -> bool:
        sizes = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"]
        if len(sizes) != 1:
            return False
        size = sizes[0]
        if isinstance(size, ast.Name):
            value = names.get(size.id)
        else:
            value = size.value if isinstance(size, ast.Constant) else None
        return type(value) is int and value > 0

    found = set()

    def visit(node, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                visit(decorator, node.name)
            for child in (node.args, *node.body):
                visit(child, node.name)
            return
        if isinstance(node, ast.Call) and cache_kind(node.func) == "lru_cache":
            if not bounded(node):
                found.add(owner)
            for child in (*node.args, *node.keywords):
                visit(child, owner)
            return
        if cache_kind(node) in ("cache", "lru_cache"):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_every_module_is_read():
    assert len(MODULES) >= 9
    cli = importlib.import_module("vertexforms.cli")
    assert unbounded_caches((PACKAGE / "cli.py").read_text(), vars(cli)) == {"build_parser"}


@pytest.mark.parametrize("source,owners", [
    ("import functools\n@functools.cache\ndef f(x): return x\n", {"f"}),
    ("from functools import cache as memo\n@memo\ndef f(x): return x\n", {"f"}),
    ("from functools import lru_cache\n@lru_cache\ndef f(x): return x\n", {"f"}),
    ("from functools import lru_cache\n@lru_cache()\ndef f(x): return x\n", {"f"}),
    ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): return x\n", {"f"}),
    ("from functools import lru_cache\n@lru_cache(CAP)\ndef f(x): return x\n", {"f"}),
    ("from functools import lru_cache\n@lru_cache(TEXT)\ndef f(x): return x\n", {"f"}),
    ("import functools\ng = functools.lru_cache(None)(len)\n", {"<module>"}),
    ("import functools\ndef f():\n    return functools.cache(len)\n", {"f"}),
    ("from functools import lru_cache\n@lru_cache(maxsize=64)\ndef f(x): return x\n", set()),
    ("from functools import lru_cache\n@lru_cache(SIZE)\ndef f(x): return x\n", set()),
    ("import functools\ncache = {}\n@functools.lru_cache(maxsize=8)\ndef f(x): return x\n",
     set()),
])
def test_an_unbounded_cache_is_caught(source, owners):
    assert unbounded_caches(source, {"SIZE": 512, "TEXT": "512"}) == owners


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unbounded_cache(path):
    stem = "" if path.stem == "__init__" else f".{path.stem}"
    module = importlib.import_module(f"vertexforms{stem}")
    allowed = {name for file, name in UNBOUNDED_ALLOWED if file == path.name}
    assert unbounded_caches(path.read_text(), vars(module)) <= allowed
