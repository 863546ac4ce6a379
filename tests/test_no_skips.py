"""The suite runs every test it holds: nothing is skipped or xfailed.

A skip or an expected failure would let a broken check pass the suite
unseen, the criterion 7 test on the (5, 3) torus above all, so this
reads the syntax tree of every tests/*.py and refuses the markers
pytest.mark.skip, skipif and xfail and the calls pytest.skip,
pytest.xfail and pytest.importorskip, however they are imported.
pyproject.toml sets xfail_strict and --strict-markers besides.

pyproject.toml also turns warnings into errors.  A failing hypothesis
test must still end as one failure, with the tests after it run: the
last test here runs pytest, under the suite's own configuration, on a
failing @given test and a passing test after it.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
REFUSED = {"skip", "skipif", "xfail", "importorskip"}


def refused_uses(source: str) -> list:
    """(line, name) of each refused pytest name a source reads or imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in REFUSED:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pytest"):
            found += [(node.lineno, a.name) for a in node.names if a.name in REFUSED]
    return sorted(found)


def test_each_refused_form_is_caught():
    source = (
        "import pytest\nfrom pytest import importorskip\n"
        "@pytest.mark.skip\ndef a(): pass\n"
        "@pytest.mark.skipif(True, reason='')\ndef b(): pass\n"
        "@pytest.mark.xfail\ndef c(): pass\n"
        "def d():\n    pytest.skip('')\n    pytest.xfail('')\n"
        "@pytest.mark.parametrize('x', [1])\ndef e(x): pass\n"
    )
    assert [name for _, name in refused_uses(source)] == [
        "importorskip", "skip", "skipif", "xfail", "skip", "xfail"]


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_test_is_skipped_or_xfailed(path):
    assert refused_uses(path.read_text()) == []


FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # hypothesis reports a falsifying example through an import that
    # warns; an error there would end the run as an INTERNALERROR
    (tmp_path / "test_example.py").write_text(FAILING_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_example.py"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 1
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
