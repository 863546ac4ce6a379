"""The README's CLI examples that state a JSON result print that result."""

import json
import re
import shlex
from pathlib import Path

import pytest

from vertexforms.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLE = re.compile(r"^vertexforms (?P<args>[^#]+?)\s+# (?P<result>\{.*\})\s*$")


def examples():
    return [
        (m["args"], m["result"])
        for line in README.read_text().splitlines()
        if (m := EXAMPLE.match(line))
    ]


def test_readme_has_examples_with_results():
    assert len(examples()) >= 3


@pytest.mark.parametrize("args,result", examples())
def test_readme_example(capsys, args, result):
    code = main(shlex.split(args))
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert json.loads(out) == json.loads(result)
