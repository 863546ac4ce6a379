"""The front door under generated input.

argv is built from build_parser()'s own actions: the subcommand words
down to a command, then, for each option of the chosen parser, a value
of its type, now and then a value of the wrong kind, or the option left
out, and sometimes a stray word.  Every file option names a document
made by mutating a fixture: a value replaced by a bool, a float, a
string for a number, a list for a scalar, a deep nesting or a huge
integer, or a key dropped or added.  Shapes stay at most 3x3, 2x2 under
--force, and sample counts small, so that every run is quick.

main runs in-process.  For every argv nothing escapes it, exit 2 means
an empty stdout and exactly one error: line on stderr, and exit 1 comes
only from a verdict the command reports: a verify suite, count
--check-colorings or a ybe command.  The draws are derandomized, so the
suite stays deterministic.
"""

import argparse
import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from vertexforms.cli import build_parser, main

DOCUMENTS = {
    "boundary": ["boundary_six_3x3.json", "boundary_eight_3x3_even.json",
                 "boundary_eight_3x3_odd.json"],
    "infile": ["rect_5x3.json", "torus_5x3.json"],
    "weights": ["weights_generic_s.json", "weights_identity_s.json",
                "weights_solvable_s.json", "weights_untwisted_t.json"],
}
for name in ("r", "s", "t"):
    DOCUMENTS[name] = [f"weights_generic_{name}.json", f"weights_solvable_{name}.json"]
ALL_DOCUMENTS = sorted({name for names in DOCUMENTS.values() for name in names})

# (values taken, values refused) of the options by dest
VALUES = {
    "m": (["2", "3"], ["1", "0", "-1", "x", "2.5", "true"]),
    "seed": (["0", "3", "-7", str(10 ** 30)], ["x", "1.5"]),
    "samples": (["1", "3"], ["0", "-2", "x"]),
    "scan_range": (["0", "1", "2"], ["-1", "x"]),
}
VALUES["n"] = VALUES["m"]

# stand-ins the writer swaps for text json.dumps would not write
DEEP, HUGE = "__deep__", "__huge__"
MUTANTS = [True, False, None, 1.5, "1", "2", "F2", "F3", "x", [0], {}, -1, 2, 10 ** 30,
           DEEP, HUGE]


def commands():
    """(words, parser) of every command main can reach, walked through
    the parsers' own subcommands as main walks them."""
    found, todo = [], [((), build_parser())]
    while todo:
        words, parser = todo.pop()
        sub = getattr(parser, "subcommands", None)
        if sub is None:
            found.append((words, parser))
        else:
            todo += [(words + (word,), p) for word, p in sub.choices.items()]
    return sorted(found, key=lambda c: c[0])


COMMANDS = commands()


def node_paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from node_paths(child, path + (key,))


def mutant(draw):
    # a copy, so that no list or dict of MUTANTS is shared, or nested in itself
    return copy.deepcopy(draw(st.sampled_from(MUTANTS)))


def mutate(draw, box):
    """One mutation of the document box[0], most often at one of its keys."""
    paths = list(node_paths(box))[1:]
    keyed = [path for path in paths if isinstance(path[-1], str)]
    path = draw(st.sampled_from(keyed if keyed and draw(st.integers(0, 3)) else paths))
    parent = box
    for key in path[:-1]:
        parent = parent[key]
    key, node = path[-1], parent[path[-1]]
    op = draw(st.sampled_from(["replace", "wrap", "wrap", "drop", "add"]))
    if op == "drop" and isinstance(parent, dict):
        del parent[key]
    elif op == "add" and isinstance(node, dict):
        node[draw(st.sampled_from(["extra", "field", "m"]))] = mutant(draw)
    elif op == "wrap":
        parent[key] = [node]
    else:
        parent[key] = mutant(draw)


def document_text(doc, depth: int) -> str:
    return (json.dumps(doc).replace(f'"{DEEP}"', "[" * depth + "0" + "]" * depth)
            .replace(f'"{HUGE}"', "9" * 5000))


@st.composite
def invocations(draw):
    """(argv, files): argv for one command, and the text of each file it
    names by its path relative to the run's directory.  Every option
    and document starts valid, and then up to three faults are made,
    most often one: a refused value, an option dropped, a document
    mutated or swapped for another, a missing or a broken file, or a
    stray word."""
    words, parser = draw(st.sampled_from(COMMANDS))
    options, refused, docs = [], {}, {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction) or (
                not action.required and action.dest not in DOCUMENTS and draw(st.booleans())):
            continue
        option, dest = action.option_strings[0], action.dest
        if action.nargs == 0:
            options.append([option])
        elif action.choices is not None:
            options.append([option, draw(st.sampled_from(list(action.choices)))])
            refused[option] = ["bogus"]
        elif dest in VALUES:
            options.append([option, draw(st.sampled_from(VALUES[dest][0]))])
            refused[option] = VALUES[dest][1]
        else:
            options.append([option, f"{dest}.json"])
            docs[f"{dest}.json"] = [json.loads((FIXTURES / draw(
                st.sampled_from(DOCUMENTS[dest]))).read_text())]
    stray = []
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2, 3]))):
        fault = draw(st.sampled_from(["value", "drop", "document", "document", "document",
                                      "document", "file", "word"]))
        valued = [o for o in options if o[0] in refused]
        if fault == "value" and valued:
            o = draw(st.sampled_from(valued))
            o[1] = draw(st.sampled_from(refused[o[0]]))
        elif fault == "drop" and options:
            options.remove(draw(st.sampled_from(options)))
        elif fault == "document" and (boxes := [p for p, d in docs.items() if isinstance(d, list)]):
            mutate(draw, docs[draw(st.sampled_from(sorted(boxes)))])
        elif fault == "file" and docs:
            path = draw(st.sampled_from(sorted(docs)))
            docs[path] = draw(st.sampled_from(
                [None, "{not json"] + [[json.loads((FIXTURES / name).read_text())]
                                       for name in ALL_DOCUMENTS]))
        else:
            stray.append(draw(st.sampled_from(["--bogus", "3"])))
    argv = list(words) + [word for o in options for word in o]
    for word in stray:
        argv.insert(draw(st.integers(0, len(argv))), word)
    if "--force" in argv:  # a forced exhaustive suite is quick only at 2x2
        argv = ["2" if word == "3" else word for word in argv]
    depth = draw(st.sampled_from([3, 50, 5000]))
    files = {path: doc if doc is None or isinstance(doc, str) else document_text(doc[0], depth)
             for path, doc in docs.items()}
    return argv, {path: text for path, text in files.items() if text is not None}


def verdict_command(argv):
    """True when argv runs a command whose exit 1 reports a failed check."""
    return bool(argv) and (argv[0] in ("verify", "ybe")
                           or argv[0] == "count" and "--check-colorings" in argv)


@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(invocations())
def test_main_refuses_generated_input_precisely(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for path, text in files.items():
            (Path(tmp) / path).write_text(text)
        argv = [str(Path(tmp) / word) if word in files or word.endswith(".json") else word
                for word in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)  # nothing escapes main
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1, err
    if code == 1:
        assert verdict_command(argv) and out != "", (argv, err)
