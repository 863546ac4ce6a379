"""Command-line front end for counting, enumeration, verification, and
Yang-Baxter analysis.

Exit codes: 0 when the requested command succeeds (and any check it ran
passed), 1 when a verification fails (the report carries a
counterexample), 2 on usage errors, on grid.InputError (input the
library refuses) and on SizeGuardError.  Randomized
suites take --seed (default 0), so runs are reproducible.  Output is
JSON with sorted keys; the tabular commands also accept --format csv.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .algebra import GF2, GF3, rank
from .grid import (
    TORUS,
    GridShape,
    InputError,
    LatticeState,
    SIZE_GUARD_BITS,
    SizeGuardError,
    _NotClosedError,
    check_boundary,
    deserialize_boundary,
    deserialize_state,
    edges_at_vertex,
    guard_cost,
    state_doc,
)

# Each command imports the modules it runs when it runs, so a fresh
# process loads only grid and algebra before it parses its arguments.

_FIELDS = {"six": GF3, "eight": GF2}


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"cannot read {path}: {e}") from None


def _load_boundary(args, shape: GridShape):
    """The --boundary file's boundary, checked against shape and the
    model's field; None when no file is given, and TORUS for --model
    toroidal, which takes no file."""
    if args.model == "toroidal":
        if args.boundary is not None:
            raise InputError("--model toroidal takes no boundary file")
        return TORUS
    if args.boundary is None:
        return None
    b = deserialize_boundary(_read_text(args.boundary))
    check_boundary(b, shape, _FIELDS[args.model])
    return b


def _load_weights(path: str):
    from .yangbaxter import deserialize_weights

    return deserialize_weights(_read_text(path))


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _edge_headers(shape: GridShape) -> list:
    heads = [f"f[{i}][{j}]" for i in range(1, shape.m + 1) for j in range(1, shape.n + 2)]
    heads += [f"g[{i}][{j}]" for i in range(1, shape.m + 2) for j in range(1, shape.n + 1)]
    return heads


def _emit_csv(header, rows) -> None:
    import csv

    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows(rows)


# -- count ------------------------------------------------------------


def cmd_count(args) -> int:
    shape = GridShape(args.m, args.n)
    if args.check_colorings:
        from .forms_rect import count_colorings, count_six

        if args.model != "six":
            raise InputError(f"--check-colorings checks the six-vertex count, not {args.model}")
        if args.boundary is not None:
            raise InputError("--check-colorings checks the free count and takes no boundary file")
        states = count_six(shape, force=args.force)
        colorings = count_colorings(shape.m + 1, shape.n + 1, force=args.force)
        _emit({
            "states": states,
            "colorings": colorings,
            "match": colorings == 3 * states,
        })
        return 0 if colorings == 3 * states else 1
    boundary = _load_boundary(args, shape)
    if args.model == "eight":
        from .eightvertex import count_total, count_with_boundary

        _emit({"total": count_total(shape, args.force)} if boundary is None
              else {"count": count_with_boundary(boundary)})
        return 0
    from .forms_rect import count_six

    _emit({"count": count_six(shape, force=args.force, boundary=boundary)})
    return 0


# -- enumerate --------------------------------------------------------


class _ColumnTexts(dict):
    """Column tuple -> its text, each built once by text_of on first use:
    a walk's tables share few distinct columns."""

    def __init__(self, text_of):
        super().__init__()
        self.text_of = text_of

    def __missing__(self, column):
        text = self[column] = self.text_of(column)
        return text


def _emit_listing(shape: GridShape, field, count: int, tables) -> None:
    """Print {"count": count, "states": [...]} as _emit would, one state
    at a time, as the walk yields its (f, g) tables.

    The state template comes from json.dumps of a one-state listing
    whose columns are null, so its layout is json.dumps' own; its %s
    slots are the f then the g columns, as the sorted keys put them,
    and a column's text is json.dumps' at the slot's indent.
    Raises RuntimeError when the walk yields other than count states.
    """
    m = shape.m
    doc = {"m": m, "n": shape.n, "field": field.name, "f": [None] * m, "g": [None] * (m + 1)}
    text = json.dumps({"count": count, "states": [doc]}, indent=2, sort_keys=True)
    head, text = text.split("[", 1)  # "count" sorts first, so this [ opens "states"
    state, tail = text.rsplit("]", 1)
    state, indent = state.rsplit("\n", 1)  # indent: the line of the closing ]
    slot = "\n" + state.split("null", 1)[0].rsplit("\n", 1)[1]  # a column's line start
    template = state.replace("null", "%s")
    column = _ColumnTexts(lambda c: json.dumps(c, indent=2).replace("\n", slot)).__getitem__
    write = sys.stdout.write
    write(head + "[")
    emitted, sep = 0, ""
    for f, g in tables:
        write(sep + template % tuple(map(column, f + g)))
        emitted, sep = emitted + 1, ","
    if emitted != count:
        raise RuntimeError(f"the walk listed {emitted} states, the sweep counted {count}")
    write(("\n" + indent if emitted else "") + "]" + tail + "\n")


def _emit_csv_listing(shape: GridShape, tables) -> None:
    """Print the edge header and one row per (f, g) table as _emit_csv
    would: csv.writer quotes no integer and ends a line with \r\n, so
    a row is its columns' comma-joined texts."""
    _emit_csv(_edge_headers(shape), ())
    column = _ColumnTexts(lambda c: ",".join(map(str, c))).__getitem__
    write = sys.stdout.write
    for f, g in tables:
        write(",".join(map(column, f + g)) + "\r\n")


def cmd_enumerate(args) -> int:
    shape = GridShape(args.m, args.n)
    boundary = _load_boundary(args, shape)
    # each walk charges the guard when called, before anything is printed;
    # count is the sweep's, called for the JSON header only
    if args.model == "eight":
        from .eightvertex import count_total, count_with_boundary, eight_state_tables

        field, tables = GF2, eight_state_tables(shape, boundary, force=args.force)
        count = lambda: (count_total(shape, args.force) if boundary is None
                         else count_with_boundary(boundary))
    else:
        from .forms_rect import count_six, six_state_tables

        field, tables = GF3, six_state_tables(shape, boundary, force=args.force)
        count = lambda: count_six(shape, force=args.force, boundary=boundary)
    if args.format == "csv":
        _emit_csv_listing(shape, tables)
    else:
        _emit_listing(shape, field, count(), tables)
    return 0


# -- verify suites ----------------------------------------------------


def _verify_poincare(args) -> tuple:
    import random

    from .forms_rect import (
        OneForm,
        antiderivative,
        closed_form_tables,
        exterior_derivative,
        random_closed_forms,
    )

    shape = GridShape(args.m, args.n)
    rng = random.Random(args.seed)
    # exhaustive when the listing's guard takes the shape, random otherwise
    try:
        tables = closed_form_tables(shape, force=args.force)
    except SizeGuardError:
        # a random form holds edge_count values: refuse a shape where one
        # alone passes the guard
        guard_cost(shape.edge_count)
        tables = [(w.fx, w.gy) for w in random_closed_forms(shape, rng, args.samples)]
        mode = "random"
    else:
        mode = "exhaustive"
    checked = 0
    for fx, gy in tables:
        # antiderivative refuses a form d of its potential does not give
        # back: a fault here, as the walk and the sampler make them closed
        try:
            dw = exterior_derivative(antiderivative(OneForm.trusted(shape=shape, fx=fx, gy=gy)))
            passed = dw.fx == fx and dw.gy == gy
        except _NotClosedError:
            passed = False
        if not passed:
            payload = {
                "suite": "poincare",
                "passed": False,
                "counterexample": {"fx": [list(r) for r in fx],
                                   "gy": [list(r) for r in gy]},
            }
            return payload, False
        checked += 1
    return {"suite": "poincare", "shape": [shape.m, shape.n], "mode": mode,
            "checked": checked, "passed": True}, True


def _verify_bijection(args) -> tuple:
    import random

    from .forms_rect import (
        OneForm,
        coloring_from_form,
        form_from_coloring,
        random_proper_coloring,
        six_state_tables,
    )

    shape = GridShape(args.m, args.n)
    rng = random.Random(args.seed)
    checked = 0
    for f, g in six_state_tables(shape, force=args.force):
        w = OneForm.trusted(shape=shape, fx=f, gy=g)
        for t in (0, 1, 2):
            w2, t2 = form_from_coloring(coloring_from_form(w, t))
            if t2 != t or w2.fx != f or w2.gy != g:
                st = LatticeState.trusted(shape=shape, field=GF3, f=f, g=g)
                return {"suite": "bijection", "passed": False,
                        "counterexample": state_doc(st) | {"t": t}}, False
            checked += 1
    for _ in range(args.samples):
        c = random_proper_coloring(shape, rng)
        w, t = form_from_coloring(c)
        c2 = coloring_from_form(w, t)
        if c2.cells != c.cells:
            return {"suite": "bijection", "passed": False,
                    "counterexample": {"cells": [list(r) for r in c.cells]}}, False
        checked += 1
    return {"suite": "bijection", "shape": [shape.m, shape.n],
            "checked": checked, "passed": True}, True


def _verify_cohomology(args) -> tuple:
    import random

    from .toroidal import (
        ToroidalOneForm,
        _random_decompositions,
        closed_toroidal_tables,
        decompose,
        reconstruct,
    )

    shape = GridShape(args.m, args.n)
    m, n = shape.m, shape.n
    checked = 0
    # exhaustive when the listing's guard takes the shape, random
    # otherwise; the listing checks the periods before its guard
    try:
        tables, mode = closed_toroidal_tables(shape, force=args.force), "exhaustive"
    except SizeGuardError:
        # a random form holds edge_count values: refuse a shape where one
        # alone passes the guard
        guard_cost(shape.edge_count)
        tables, mode = None, "random"
    if tables is not None:
        for fx, gy in tables:
            w = ToroidalOneForm.trusted(shape=shape, fx=fx, gy=gy)
            # decompose refuses a form its (r, s, h) does not rebuild: a
            # fault here, as the walk makes the forms closed; what is left
            # to check is the normalization h(1, 1) = 0
            try:
                passed = decompose(w).h.values[0][0] == 0
            except _NotClosedError:
                passed = False
            if not passed:
                return {"suite": "cohomology", "passed": False,
                        "counterexample": {"fx": [list(r) for r in w.fx],
                                           "gy": [list(r) for r in w.gy]}}, False
            checked += 1
        # decompose is one-to-one on the closed forms; as many of them as
        # triples (r, s, h) with h(1, 1) = 0 make it a bijection
        triples = 3 ** (m * n + 1)
        if checked != triples:
            return {"suite": "cohomology", "passed": False,
                    "counterexample": {"closed_forms": checked,
                                       "decompositions": triples}}, False
    else:
        for dec in _random_decompositions(shape, random.Random(args.seed), args.samples):
            try:
                passed = decompose(reconstruct(dec)) == dec
            except _NotClosedError:
                passed = False
            if not passed:
                return {"suite": "cohomology", "passed": False,
                        "counterexample": {"r": dec.r, "s": dec.s,
                                           "h": [list(rw) for rw in dec.h.values]}}, False
            checked += 1
    return {"suite": "cohomology", "shape": [m, n], "mode": mode,
            "checked": checked, "passed": True}, True


def _verify_sparse_fibers(args) -> tuple:
    from .forms_rect import count_six
    from .toroidal import sparse_fibers

    shape = GridShape(args.m, args.n)
    entries = sparse_fibers(shape, force=args.force)  # checks the periods first
    # fiber sizes come from the enumeration, the total from the transfer trace
    total = count_six(shape, force=args.force, boundary=TORUS)
    report = []
    seen = 0
    for fe in entries:
        report.append({
            "h": [list(r) for r in fe.h.values],
            "r_choices": list(fe.r_choices),
            "s_choices": list(fe.s_choices),
            "fiber_size": fe.fiber_size,
        })
        seen += fe.fiber_size
    passed = seen == total and all(
        fe.fiber_size == len(fe.r_choices) * len(fe.s_choices) for fe in entries
    )
    if args.format == "csv":
        _emit_csv(
            ["h", "r_choices", "s_choices", "fiber_size"],
            (
                [
                    json.dumps(e["h"]),
                    " ".join(map(str, e["r_choices"])),
                    " ".join(map(str, e["s_choices"])),
                    e["fiber_size"],
                ]
                for e in report
            ),
        )
    else:
        _emit({"suite": "sparse-fibers", "shape": [shape.m, shape.n],
               "fibers": report, "states": total, "passed": passed})
    return None, passed


def _verify_defect_rank(args) -> tuple:
    from .eightvertex import count_total, count_valid_boundaries, defect_map
    from .transfer import EIGHT_VERTEX, count_states

    shape = GridShape(args.m, args.n)
    guard_cost(shape.vertex_count * shape.edge_count, args.force)  # the map's entries
    rk = rank(defect_map(shape))
    expected = shape.m * shape.n
    total = count_total(shape, args.force)
    payload = {
        "suite": "defect-rank",
        "shape": [shape.m, shape.n],
        "rank": rk,
        "expected_rank": expected,
        "total_states": total,
        "valid_boundaries": count_valid_boundaries(shape),
    }
    passed = rk == expected
    if shape.edge_count <= SIZE_GUARD_BITS or args.force:
        # the sweep's count does not use the kernel formula behind count_total
        swept = count_states(EIGHT_VERTEX, shape, force=args.force)
        payload["brute_total"] = swept
        passed = passed and swept == total
    payload["passed"] = passed
    return payload, passed


def _verify_state(args) -> tuple:
    from .transfer import EIGHT_VERTEX, SIX_VERTEX, first_bad_vertex

    state = deserialize_state(_read_text(args.infile))
    field = _FIELDS[args.model]
    if state.field is not field:
        raise InputError(f"state document is over {state.field.name}, expected {field.name}")
    if args.model == "eight":
        from .eightvertex import is_admissible_eight as check
    else:
        from .forms_rect import is_admissible_six as check
    if check(state):
        return {"admissible": True}, True
    allowed = EIGHT_VERTEX if args.model == "eight" else SIX_VERTEX
    bad = first_bad_vertex(allowed, state.f, state.g)
    return {"admissible": False,
            "counterexample": {"vertex": list(bad),
                               "edges": list(edges_at_vertex(state, *bad))}}, False


def cmd_verify(args) -> int:
    suites = {
        "poincare": _verify_poincare,
        "bijection": _verify_bijection,
        "cohomology": _verify_cohomology,
        "sparse-fibers": _verify_sparse_fibers,
        "defect-rank": _verify_defect_rank,
        "state": _verify_state,
    }
    payload, passed = suites[args.suite](args)
    if payload is not None:
        _emit(payload)
    return 0 if passed else 1


# -- ybe --------------------------------------------------------------


def cmd_ybe(args) -> int:
    from .yangbaxter import (
        RESIDUALS28_LABELS,
        WEIGHT_KEYS,
        check_necessary_conditions,
        commutator_vanishes,
        residuals28_of,
        solve_R,
        star_triangle_residuals,
    )

    if args.action in ("check", "residuals"):
        r = _load_weights(args.r)
    s = _load_weights(args.s)
    t = _load_weights(args.t)
    if args.action == "check":
        zero = commutator_vanishes(r, s, t)
        _emit({"commutator_zero": zero})
        return 0 if zero else 1
    if args.action == "residuals":
        r64 = star_triangle_residuals(r, s, t)
        r28 = residuals28_of(r64)
        if args.format == "csv":
            rows = [["star", i, "", str(v)] for i, v in enumerate(r64)]
            rows += [
                ["eq", i, RESIDUALS28_LABELS[i], str(v)] for i, v in enumerate(r28)
            ]
            _emit_csv(["kind", "index", "label", "value"], rows)
        else:
            _emit({
                "residuals64": [str(v) for v in r64],
                "residuals28": [
                    {"label": RESIDUALS28_LABELS[i], "value": str(v)}
                    for i, v in enumerate(r28)
                ],
                "all_zero": not any(r64),
            })
        return 0
    if args.action == "conditions":
        report = check_necessary_conditions(s, t)
        _emit(report.as_dict())
        return 0 if report.all_hold else 1
    # solve
    report = solve_R(s, t, scan_range=args.scan_range)
    payload = {
        "dimension": report.dimension,
        "basis": [[str(x) for x in vec] for vec in report.basis],
        "scanned": report.scanned,
    }
    if report.witness is not None:
        payload["witness"] = {
            key: str(x) for key, x in zip(WEIGHT_KEYS, report.witness.as_vector())}
        payload["witness_commutator_zero"] = commutator_vanishes(report.witness, s, t)
    else:
        payload["witness"] = None
        payload["message"] = "none found in scan"
    _emit(payload)
    return 0 if report.witness is not None else 1


# -- partition --------------------------------------------------------


def cmd_partition(args) -> int:
    from .yangbaxter import partition_function

    shape = GridShape(args.m, args.n)
    w = _load_weights(args.weights)
    boundary = _load_boundary(args, shape)
    z = partition_function(w, shape, args.model, boundary=boundary, force=args.force)
    _emit({"value": str(z)})
    return 0


# -- parser -----------------------------------------------------------


# the base-10 text int() reads: digits, an optional sign, single
# underscores between digits, whitespace around
_DECIMAL = re.compile(r"\s*[+-]?\d(?:_?\d)*\s*")


def _int_at_least(low: int, what: str):
    """argparse type: a decimal integer >= low, else a usage error."""
    def parse(text: str) -> int:
        value = int(text) if _DECIMAL.fullmatch(text) else low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {what} integer, got {text!r}")
        return value
    return parse


_nonnegative_int = _int_at_least(0, "nonnegative")
_positive_int = _int_at_least(1, "positive")


def _add_shape_args(p) -> None:
    p.add_argument("--m", type=int, required=True, help="columns of vertices")
    p.add_argument("--n", type=int, required=True, help="rows of vertices")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; it holds command names, and main looks up
    each handler per call, so a handler wrapped later still runs.  A
    parser with subcommands keeps the action add_subparsers returned as
    its ``subcommands``, whose choices map a name to its parser: main
    walks them by name."""
    parser = argparse.ArgumentParser(
        prog="vertexforms",
        description="Exact six- and eight-vertex model computations.",
    )
    sub = parser.subcommands = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count admissible states")
    _add_shape_args(p)
    p.add_argument("--model", choices=("six", "eight", "toroidal"), default="six")
    p.add_argument("--boundary", help="boundary JSON file to fix")
    p.add_argument("--check-colorings", action="store_true",
                   help="cross-check the free six-vertex count against 3-colorings")
    p.add_argument("--force", action="store_true", help="override the size guard")

    p = sub.add_parser("enumerate", help="list admissible states")
    _add_shape_args(p)
    p.add_argument("--model", choices=("six", "eight", "toroidal"), default="six")
    p.add_argument("--boundary", help="boundary JSON file to fix")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--force", action="store_true", help="override the size guard")

    p = sub.add_parser("verify", help="run a verification suite")
    vsub = p.subcommands = p.add_subparsers(dest="suite", required=True)
    for name in ("poincare", "bijection", "cohomology", "sparse-fibers", "defect-rank"):
        vp = vsub.add_parser(name)
        _add_shape_args(vp)
        if name in ("poincare", "bijection", "cohomology"):
            vp.add_argument("--seed", type=int, default=0)
            vp.add_argument("--samples", type=_positive_int, default=500,
                            help="random checks when exhaustive search is too large")
        vp.add_argument("--force", action="store_true", help="override the size guard")
        if name == "sparse-fibers":
            vp.add_argument("--format", choices=("json", "csv"), default="json")
    vp = vsub.add_parser("state")
    vp.add_argument("--in", dest="infile", required=True, help="state JSON file")
    vp.add_argument("--model", choices=("six", "eight"), default="six")

    p = sub.add_parser("ybe", help="Yang-Baxter checks and solving")
    ysub = p.subcommands = p.add_subparsers(dest="action", required=True)
    for name in ("check", "residuals"):
        yp = ysub.add_parser(name)
        yp.add_argument("--r", required=True, help="R weights JSON file")
        yp.add_argument("--s", required=True, help="S weights JSON file")
        yp.add_argument("--t", required=True, help="T weights JSON file")
        if name == "residuals":
            yp.add_argument("--format", choices=("json", "csv"), default="json")
    for name in ("conditions", "solve"):
        yp = ysub.add_parser(name)
        yp.add_argument("--s", required=True, help="S weights JSON file")
        yp.add_argument("--t", required=True, help="T weights JSON file")
        if name == "solve":
            yp.add_argument("--scan-range", type=_nonnegative_int, default=2,
                            help="coefficient range for the nonzero-cd scan")

    p = sub.add_parser("partition", help="exact partition function")
    _add_shape_args(p)
    p.add_argument("--weights", required=True, help="weights JSON file")
    p.add_argument("--model", choices=("six", "eight"), default="six")
    p.add_argument("--boundary", help="boundary JSON file to fix")
    p.add_argument("--force", action="store_true", help="override the size guard")

    return parser


def main(argv=None) -> int:
    # Nested subparsers cost argparse one parse per level.  So main steps
    # down while the next word names a subcommand, and argparse parses
    # only the chosen command's options.  A word that names none stops
    # the walk, and the parser reached reports it, or the leftover
    # words, as parse_args would.
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = top = build_parser()
    chosen = {}
    while (sub := getattr(parser, "subcommands", None)) and argv and argv[0] in sub.choices:
        chosen[sub.dest] = word = argv.pop(0)
        parser = sub.choices[word]
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:
            top.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as e:
        return int(e.code or 0)
    vars(args).update(chosen)
    handler = {"count": cmd_count, "enumerate": cmd_enumerate, "verify": cmd_verify,
               "ybe": cmd_ybe, "partition": cmd_partition}[args.command]
    try:
        return handler(args)
    except (InputError, SizeGuardError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
