"""The package's public surface stays one a reader can hold.

Every name vertexforms exports has a reason to: the code of another
module reads it, README.md names it, or the benchmark tracer wraps it.
A name with none of the three is a helper that only tests call, which
belongs in tests/conftest.py, or one that nothing calls at all.  The
code is read as syntax trees, so a name a docstring mentions does not
count as used.
"""

import ast
import importlib.util
import re
from pathlib import Path

import vertexforms

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vertexforms"
README = ROOT / "README.md"
TRACING = ROOT / "perfbench" / "tracing.py"


def names_read(source: str) -> set:
    """The names a module's code loads or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def names_in_backticks(text: str) -> set:
    """The identifiers inside the `code spans` of a markdown text."""
    return {word for span in re.findall(r"`([^`\n]+)`", text)
            for word in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", span)}


def wrapped_names() -> set:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {name for names in tracing.WRAPPED.values() for name in names}


def unreasoned(exported, sources, readme: str, wrapped) -> list:
    """The exported names no source reads, the readme does not name in
    backticks and the tracer does not wrap."""
    read = set().union(*map(names_read, sources))
    named = names_in_backticks(readme)
    return sorted(set(exported) - read - named - set(wrapped))


def test_a_name_only_a_docstring_mentions_is_caught():
    source = 'def f():\n    """calls helper"""\n    return g.value + h\n'
    readme = "`f` and `vertexforms.g(x)`; helper and `value` in prose\n"
    assert names_read(source) == {"g", "value", "h"}
    assert unreasoned(["f", "g", "h", "helper", "wrapped"], [source], readme,
                      ["wrapped"]) == ["helper"]


def test_every_exported_name_has_a_reader():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    exported = [name for names in vertexforms._EXPORTS.values() for name in names]
    assert unreasoned(exported, sources, README.read_text(), wrapped_names()) == []
