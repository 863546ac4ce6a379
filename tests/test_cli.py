import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from itertools import accumulate, chain, islice
from pathlib import Path

import pytest

from conftest import (
    FIXTURES,
    identity_matrix,
    identity_weights,
    solvable_triple,
    toroidal_six_states,
)
from vertexforms.algebra import GF2, GF3
from vertexforms.cli import main
from vertexforms.forms_rect import (
    OneForm,
    closed_form_tables,
    enumerate_six,
    is_closed,
    random_closed_forms,
    random_proper_coloring,
    six_state_tables,
)
from vertexforms.grid import (
    BoundarySpec,
    GridShape,
    LatticeState,
    boundary_of,
    serialize_boundary,
    serialize_state,
    state_doc,
)
from vertexforms.toroidal import (
    CohomologyDecomposition,
    PeriodicField,
    ToroidalOneForm,
    _random_decompositions,
    closed_toroidal_tables,
)
from vertexforms.yangbaxter import (
    WEIGHT_KEYS,
    VertexWeights,
    check_necessary_conditions,
    deserialize_weights,
    partition_function,
    serialize_weights,
    star_triangle_residuals,
    weights_from_vector,
)

FIXTURE = str(FIXTURES / "rect_5x3.json")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


@pytest.fixture
def round_trip_memo():
    """forms_rect's round-trip memo, cleared before and after the test,
    so that a patched kernel is reached and leaves no entry behind."""
    import vertexforms.forms_rect as forms_rect

    forms_rect._column_round_trip.cache_clear()
    yield forms_rect._column_round_trip
    forms_rect._column_round_trip.cache_clear()


def write_weights(tmp_path, name, w):
    p = tmp_path / name
    p.write_text(serialize_weights(w))
    return str(p)


def zero_boundary_file(tmp_path, shape, field):
    b = BoundarySpec(
        shape=shape, field=field,
        f_bottom=(0,) * shape.m, f_top=(0,) * shape.m,
        g_left=(0,) * shape.n, g_right=(0,) * shape.n,
    )
    p = tmp_path / f"zb_{field.name}.json"
    p.write_text(serialize_boundary(b))
    return str(p)


def test_count_six(capsys):
    code, doc = run_json(capsys, "count", "--m", "2", "--n", "2")
    assert code == 0 and doc == {"count": 82}


def test_count_check_colorings(capsys):
    code, doc = run_json(
        capsys, "count", "--m", "2", "--n", "2", "--check-colorings"
    )
    assert code == 0
    assert doc == {"states": 82, "colorings": 246, "match": True}


@pytest.mark.parametrize("m,n,states", [
    (2, 2, 82), (2, 3, 374), (3, 2, 374), (2, 4, 1706), (4, 2, 1706),
    (3, 3, 2604), (3, 4, 18150), (4, 3, 18150), (4, 4, 193662),
    (5, 4, 2068146),  # a 6x5 coloring grid, 30 cells, with no --force
])
def test_count_check_colorings_output(capsys, m, n, states):
    code, out, err = run(capsys, "count", "--m", str(m), "--n", str(n), "--check-colorings")
    assert code == 0 and err == ""
    assert out == (f'{{\n  "colorings": {3 * states},\n  "match": true,\n'
                   f'  "states": {states}\n}}\n')


@pytest.mark.parametrize("model,boundary,message", [
    ("eight", False, "six-vertex count, not eight"),
    ("toroidal", False, "six-vertex count, not toroidal"),
    ("six", True, "takes no boundary file"),
])
def test_count_check_colorings_rejects_other_counts(capsys, tmp_path, model, boundary, message):
    extra = ("--boundary", zero_boundary_file(tmp_path, GridShape(2, 2), GF3)) if boundary else ()
    code, out, err = run(capsys, "count", "--model", model, "--m", "2", "--n", "2",
                         "--check-colorings", *extra)
    assert code == 2 and out == "" and message in err


def test_count_eight(capsys):
    code, doc = run_json(capsys, "count", "--model", "eight", "--m", "2", "--n", "2")
    assert code == 0 and doc == {"total": 256}


def test_count_eight_with_boundary(capsys, tmp_path):
    bfile = zero_boundary_file(tmp_path, GridShape(2, 2), GF2)
    code, doc = run_json(
        capsys, "count", "--model", "eight", "--m", "2", "--n", "2",
        "--boundary", bfile,
    )
    assert code == 0 and doc == {"count": 2}


def test_count_toroidal(capsys):
    code, doc = run_json(capsys, "count", "--model", "toroidal", "--m", "2", "--n", "2")
    assert code == 0 and doc == {"count": 18}


def test_count_six_with_boundary(capsys, tmp_path):
    bfile = zero_boundary_file(tmp_path, GridShape(2, 2), GF3)
    want = sum(
        1
        for st in enumerate_six(GridShape(2, 2))
        if boundary_of(st).edge_tuple() == (0,) * 8
    )
    code, doc = run_json(
        capsys, "count", "--m", "2", "--n", "2", "--boundary", bfile
    )
    assert code == 0 and doc == {"count": want}


def test_enumerate_six_json(capsys):
    code, doc = run_json(capsys, "enumerate", "--m", "2", "--n", "2")
    assert code == 0
    assert doc["count"] == 82 and len(doc["states"]) == 82
    assert set(doc["states"][0]) == {"m", "n", "field", "f", "g"}


def test_enumerate_six_csv(capsys):
    code, out, err = run(capsys, "enumerate", "--m", "2", "--n", "2",
                         "--format", "csv")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0].startswith("f[1][1],")
    assert len(lines) == 83
    assert len(lines[0].split(",")) == GridShape(2, 2).edge_count


@pytest.mark.parametrize("values", [
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0),
])
def test_enumerate_six_with_boundary(capsys, tmp_path, values):
    shape = GridShape(3, 3)
    b = BoundarySpec(shape=shape, field=GF3, f_bottom=values[:3], f_top=values[3:6],
                     g_left=values[6:9], g_right=values[9:])
    bfile = tmp_path / "b.json"
    bfile.write_text(serialize_boundary(b))
    want = [st for st in enumerate_six(shape) if boundary_of(st) == b]
    assert want
    code, doc = run_json(capsys, "enumerate", "--m", "3", "--n", "3",
                         "--boundary", str(bfile))
    assert code == 0
    assert doc == {"count": len(want),
                   "states": [json.loads(serialize_state(st)) for st in want]}
    code, out, err = run(capsys, "enumerate", "--m", "3", "--n", "3",
                         "--boundary", str(bfile), "--format", "csv")
    assert code == 0 and err == ""
    rows = [tuple(map(int, line.split(","))) for line in out.strip().splitlines()[1:]]
    assert rows == [st.edge_tuple() for st in want]
    code, doc = run_json(capsys, "count", "--m", "3", "--n", "3", "--boundary", str(bfile))
    assert code == 0 and doc == {"count": len(want)}


@pytest.mark.parametrize("target,model", [
    ("count_six", "six"), ("count_total", "eight"), ("count_six", "toroidal"),
])
def test_enumerate_checks_the_count_header_against_the_walk(monkeypatch, target, model):
    # the header is printed before the walk runs; a walk that lists
    # another number of states is an internal error, never exit 2
    home = "eightvertex" if model == "eight" else "forms_rect"
    monkeypatch.setattr(f"vertexforms.{home}.{target}", lambda *args, **kwargs: 1)
    with pytest.raises(RuntimeError, match="listed .* states, the sweep counted 1"):
        main(["enumerate", "--model", model, "--m", "2", "--n", "2"])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_enumerate_writes_states_as_the_walk_yields_them(monkeypatch, fmt):
    import vertexforms.forms_rect as forms_rect

    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    written = []  # output length as each table is yielded
    real = forms_rect.six_state_tables

    def watched(*args, **kwargs):
        for tables in real(*args, **kwargs):
            written.append(len(out.getvalue()))
            yield tables

    monkeypatch.setattr(forms_rect, "six_state_tables", watched)
    assert main(["enumerate", "--m", "2", "--n", "2", "--format", fmt]) == 0
    assert len(written) == 82
    assert written[0] < written[-1] < len(out.getvalue())


def test_enumerate_toroidal_rejects_boundary(capsys, tmp_path):
    bfile = zero_boundary_file(tmp_path, GridShape(2, 2), GF3)
    code, out, err = run(
        capsys, "enumerate", "--model", "toroidal", "--m", "2", "--n", "2",
        "--boundary", bfile,
    )
    assert code == 2 and "error:" in err


def test_count_toroidal_rejects_boundary(capsys, tmp_path):
    bfile = zero_boundary_file(tmp_path, GridShape(2, 2), GF3)
    code, out, err = run(
        capsys, "count", "--model", "toroidal", "--m", "2", "--n", "2",
        "--boundary", bfile,
    )
    assert code == 2 and "error:" in err


def test_verify_state_fixture(capsys):
    code, doc = run_json(capsys, "verify", "state", "--in", FIXTURE)
    assert code == 0 and doc == {"admissible": True}


def test_verify_state_inadmissible(capsys, tmp_path):
    bad = LatticeState(
        shape=GridShape(2, 2), field=GF3,
        f=[[1, 0, 0], [0, 0, 0]], g=[[0, 0]] * 3,
    )
    p = tmp_path / "bad.json"
    p.write_text(serialize_state(bad))
    code, doc = run_json(capsys, "verify", "state", "--in", str(p))
    assert code == 1
    assert doc["admissible"] is False
    assert doc["counterexample"]["vertex"] == [1, 1]
    assert len(doc["counterexample"]["edges"]) == 4


def test_verify_state_eight_inadmissible(capsys, tmp_path):
    bad = LatticeState(
        shape=GridShape(2, 2), field=GF2,
        f=[[0, 0, 0], [0, 0, 0]], g=[[0, 0], [0, 0], [0, 1]],
    )
    p = tmp_path / "bad8.json"
    p.write_text(serialize_state(bad))
    code, doc = run_json(capsys, "verify", "state", "--in", str(p), "--model", "eight")
    assert code == 1
    assert doc == {"admissible": False,
                   "counterexample": {"vertex": [2, 2], "edges": [0, 0, 1, 0]}}


def test_verify_state_eight_model(capsys, tmp_path):
    ok = LatticeState(
        shape=GridShape(2, 2), field=GF2,
        f=[[1, 1, 1], [0, 0, 0]], g=[[0, 0]] * 3,
    )
    p = tmp_path / "ok8.json"
    p.write_text(serialize_state(ok))
    code, doc = run_json(capsys, "verify", "state", "--in", str(p),
                         "--model", "eight")
    assert code == 0 and doc == {"admissible": True}


def test_verify_poincare_exhaustive(capsys):
    code, doc = run_json(capsys, "verify", "poincare", "--m", "2", "--n", "2")
    assert code == 0
    assert doc["passed"] is True
    assert doc["mode"] == "exhaustive" and doc["checked"] == 6561


def test_verify_poincare_random(capsys):
    code, doc = run_json(
        capsys, "verify", "poincare", "--m", "4", "--n", "4", "--samples", "20"
    )
    assert code == 0
    assert doc["mode"] == "random" and doc["checked"] == 20


# shapes whose closed-form listing the size guard takes: 3^(mn+m+n)
# forms times edge_count at most 2^26
POINCARE_EXHAUSTIVE = {(2, 2), (2, 3), (3, 2)}


# every shape from 2x2 to 6x6, and --force where the walk to the first
# form is short
@pytest.mark.parametrize("m,n,force", [(m, n, False) for m in range(2, 7) for n in range(2, 7)]
                         + [(m, n, True) for m in range(2, 7) for n in range(2, 5)])
def test_verify_poincare_mode_is_the_listing_guard(capsys, monkeypatch, m, n, force):
    # the listing is charged as the CLI asks for it, then cut to one form
    import vertexforms.forms_rect as forms_rect

    listing = forms_rect.closed_form_tables
    monkeypatch.setattr(forms_rect, "closed_form_tables",
                        lambda shape, force=False: islice(listing(shape, force), 1))
    argv = ["verify", "poincare", "--m", str(m), "--n", str(n), "--samples", "1"]
    code, doc = run_json(capsys, *argv, *(["--force"] if force else []))
    exhaustive = force or (m, n) in POINCARE_EXHAUSTIVE
    assert code == 0 and doc["checked"] == 1
    assert doc["mode"] == ("exhaustive" if exhaustive else "random")


def test_verify_bijection(capsys):
    code, doc = run_json(
        capsys, "verify", "bijection", "--m", "2", "--n", "2", "--samples", "50"
    )
    assert code == 0
    assert doc["passed"] is True and doc["checked"] == 82 * 3 + 50


def test_verify_cohomology_exhaustive(capsys):
    code, doc = run_json(capsys, "verify", "cohomology", "--m", "2", "--n", "2")
    assert code == 0
    assert doc["mode"] == "exhaustive" and doc["checked"] == 243


def test_verify_cohomology_counts_the_closed_forms(capsys, monkeypatch):
    # a span missing one form round-trips every form it has, so only the
    # count against the 3^(mn+1) decompositions can catch it
    import vertexforms.toroidal as toroidal

    real = toroidal.closed_toroidal_tables
    monkeypatch.setattr(toroidal, "closed_toroidal_tables",
                        lambda shape, force=False: islice(real(shape, force), 1, None))
    code, doc = run_json(capsys, "verify", "cohomology", "--m", "2", "--n", "2")
    assert code == 1 and doc["passed"] is False
    assert doc["counterexample"] == {"closed_forms": 242, "decompositions": 243}


def test_verify_cohomology_exhaustive_4x2(capsys):
    code, doc = run_json(capsys, "verify", "cohomology", "--m", "4", "--n", "2")
    assert code == 0 and doc["passed"] is True
    assert doc["mode"] == "exhaustive" and doc["checked"] == 3 ** 9


def test_verify_cohomology_random(capsys):
    code, doc = run_json(
        capsys, "verify", "cohomology", "--m", "4", "--n", "4", "--samples", "30"
    )
    assert code == 0
    assert doc["mode"] == "random" and doc["checked"] == 30


# periods prime to 3 whose toroidal closed-form listing the size guard
# takes: 3^(mn+1) forms times edge_count at most 2^26
COHOMOLOGY_EXHAUSTIVE = {(2, 2), (2, 4), (4, 2), (2, 5), (5, 2)}


# every shape from 2x2 to 8x8 with periods prime to 3, and --force where
# the walk to the first form is short
@pytest.mark.parametrize("m,n,force", [(m, n, False) for m in (2, 4, 5, 7, 8)
                                       for n in (2, 4, 5, 7, 8)]
                         + [(m, n, True) for m in (2, 4, 5) for n in (2, 4)])
def test_verify_cohomology_mode_is_the_listing_guard(capsys, monkeypatch, m, n, force):
    # the listing is charged as the CLI asks for it, then cut to one form,
    # so an exhaustive run fails its count of the decompositions
    import vertexforms.toroidal as toroidal

    listing = toroidal.closed_toroidal_tables
    monkeypatch.setattr(toroidal, "closed_toroidal_tables",
                        lambda shape, force=False: islice(listing(shape, force), 1))
    argv = ["verify", "cohomology", "--m", str(m), "--n", str(n), "--samples", "1"]
    code, doc = run_json(capsys, *argv, *(["--force"] if force else []))
    if force or (m, n) in COHOMOLOGY_EXHAUSTIVE:
        assert code == 1
        assert doc["counterexample"] == {"closed_forms": 1,
                                         "decompositions": 3 ** (m * n + 1)}
    else:
        assert code == 0 and doc["mode"] == "random" and doc["checked"] == 1


@pytest.mark.parametrize("argv", [["poincare", "--m", "6", "--n", "6"],
                                  ["cohomology", "--m", "8", "--n", "7"]],
                         ids=["poincare", "cohomology"])
def test_random_verify_modes_build_no_f3_kernel(capsys, monkeypatch, argv):
    import vertexforms.algebra as algebra

    echelon = algebra._echelon

    def echelon_but_not_over_f3(matrix):
        if matrix.field is GF3:
            raise AssertionError("an F3 matrix was reduced")
        return echelon(matrix)

    # every reduction starts with the echelon basis
    monkeypatch.setattr(algebra, "_echelon", echelon_but_not_over_f3)
    for reduce in (algebra.rref, algebra.rank, algebra.pivot_columns, algebra.nullspace_basis):
        with pytest.raises(AssertionError):
            reduce(identity_matrix(GF3, 2))
    code, doc = run_json(capsys, "verify", *argv)
    assert code == 0 and doc["mode"] == "random" and doc["passed"] is True


@pytest.mark.parametrize("m,n,mode,checked", [(2, 2, "exhaustive", 3 ** 5),
                                                (8, 7, "random", 500)])
def test_verify_cohomology_builds_no_toroidal_record(capsys, monkeypatch, m, n, mode, checked):
    # both modes check the split on tables: decompose, reconstruct and
    # every constructor of the three toroidal records fail if called
    import vertexforms.toroidal as toroidal

    def fail(*args, **kwargs):
        raise AssertionError("a toroidal record was built")

    monkeypatch.setattr(toroidal, "decompose", fail)
    monkeypatch.setattr(toroidal, "reconstruct", fail)
    for record in (PeriodicField, ToroidalOneForm, CohomologyDecomposition):
        monkeypatch.setattr(record, "__init__", fail)
        if "trusted" in vars(record):
            monkeypatch.setattr(record, "trusted", fail)
    with pytest.raises(AssertionError):
        PeriodicField.trusted(shape=GridShape(2, 2), values=((0, 0), (0, 0)))
    with pytest.raises(AssertionError):
        CohomologyDecomposition(r=0, s=0, h=None)
    code, doc = run_json(capsys, "verify", "cohomology", "--m", str(m), "--n", str(n))
    assert code == 0
    assert doc == {"suite": "cohomology", "shape": [m, n], "mode": mode,
                   "checked": checked, "passed": True}


@pytest.mark.parametrize("argv", [["poincare", "--m", "6", "--n", "6"],
                                  ["cohomology", "--m", "8", "--n", "7"]],
                         ids=["poincare", "cohomology"])
def test_random_verify_modes_read_no_vertex_table(capsys, argv):
    # antiderivative and decompose check closedness by the calculus, so
    # first_bad_vertex's memo is neither hit nor missed
    import vertexforms.transfer as transfer

    before = transfer._first_bad_row.cache_info()
    code, doc = run_json(capsys, "verify", *argv)
    assert code == 0 and doc["mode"] == "random" and doc["passed"] is True
    assert transfer._first_bad_row.cache_info() == before


@pytest.mark.parametrize("argv,home,keys", [
    (["poincare", "--m", "2", "--n", "2"], "forms_rect", {"fx", "gy"}),
    (["poincare", "--m", "6", "--n", "6"], "forms_rect", {"fx", "gy"}),
    (["bijection", "--m", "2", "--n", "2"], "forms_rect", {"m", "n", "field", "f", "g", "t"}),
    (["cohomology", "--m", "2", "--n", "2"], "toroidal", {"fx", "gy"}),
    (["cohomology", "--m", "8", "--n", "7"], "toroidal", {"r", "s", "h"}),
], ids=["poincare-exhaustive", "poincare-random", "bijection", "cohomology-exhaustive",
        "cohomology-random"])
def test_a_wrong_potential_is_a_counterexample(capsys, monkeypatch, round_trip_memo, argv,
                                               home, keys):
    # a potential one off at its last vertex gives no form back: d of it
    # is not the suite's first form or state (poincare, bijection), or
    # decompose refuses that form (cohomology), and the suite reports
    # it, exit 1, rather than raise.  The rectangle suites climb the
    # potential a column at a time (_round_trip), and a column step,
    # memoized for every column it fits, cannot tell the last column
    # from the others: there each climb is one off at its last vertex
    module = importlib.import_module(f"vertexforms.{home}")
    if home == "forms_rect":
        climb = module._climb

        def wrong(*args):
            col = climb(*args)
            return col[:-1] + ((col[-1] + 1) % 3,)

        monkeypatch.setattr(module, "_climb", wrong)
    else:
        potential = module._potential

        def wrong(*args):
            h = potential(*args)
            return h[:-1] + (h[-1][:-1] + ((h[-1][-1] + 1) % 3,),)

        monkeypatch.setattr(module, "_potential", wrong)
    code, doc = run_json(capsys, "verify", *argv, "--samples", "5")
    assert code == 1 and doc["passed"] is False
    assert set(doc["counterexample"]) == keys


@pytest.mark.parametrize("argv,keys", [
    (["--m", "2", "--n", "2"], {"fx", "gy"}),
    (["--m", "8", "--n", "7", "--samples", "5"], {"r", "s", "h"}),
], ids=["exhaustive", "random"])
def test_an_unnormalized_potential_is_a_counterexample(capsys, monkeypatch, argv, keys):
    # a potential shifted by a constant has the same differences, so
    # decompose takes every form, but h(1, 1) is no longer 0: the
    # exhaustive suite's normalization check and the random suite's
    # comparison of decompositions are what catch it
    import vertexforms.toroidal as toroidal

    potential = toroidal._potential

    def shifted(*args):
        return tuple(tuple((x + 1) % 3 for x in col) for col in potential(*args))

    monkeypatch.setattr(toroidal, "_potential", shifted)
    code, doc = run_json(capsys, "verify", "cohomology", *argv)
    assert code == 1 and doc["passed"] is False
    assert set(doc["counterexample"]) == keys


def test_a_wrong_potential_is_a_random_bijection_counterexample(capsys, monkeypatch):
    # with no states, the random colorings alone see the potential: one
    # off at its last vertex, it does not give the first coloring back
    import vertexforms.forms_rect as forms_rect

    potential = forms_rect._potential

    def wrong(*args):
        h = potential(*args)
        return h[:-1] + (h[-1][:-1] + ((h[-1][-1] + 1) % 3,),)

    monkeypatch.setattr(forms_rect, "_potential", wrong)
    monkeypatch.setattr(forms_rect, "six_state_tables", lambda *args, **kwargs: iter(()))
    code, doc = run_json(capsys, "verify", "bijection", "--m", "3", "--n", "3", "--samples", "5")
    assert code == 1 and doc["passed"] is False
    cells = random_proper_coloring(GridShape(3, 3), random.Random(0)).cells
    assert doc["counterexample"] == {"cells": [list(r) for r in cells]}


def first_state_doc(shape):
    f, g = next(iter(six_state_tables(shape)))
    return state_doc(LatticeState(shape=shape, field=GF3, f=f, g=g))


@pytest.mark.parametrize("argv", [
    ["poincare", "--m", "2", "--n", "2"],
    ["poincare", "--m", "6", "--n", "6", "--samples", "5"],
    ["bijection", "--m", "2", "--n", "2"],
    ["bijection", "--m", "2", "--n", "2", "--samples", "5"],
    ["cohomology", "--m", "2", "--n", "2"],
    ["cohomology", "--m", "8", "--n", "7", "--samples", "5"],
], ids=["poincare-exhaustive", "poincare-random", "bijection", "bijection-random",
        "cohomology-exhaustive", "cohomology-random"])
def test_a_wrong_difference_is_a_counterexample(capsys, monkeypatch, round_trip_memo, argv):
    # d one off at its last fx entry (the rectangle) or at its first,
    # which feeds r (the torus), gives no form back, so the suite's first
    # form, state, coloring or triple is its counterexample, exit 1.
    # The rectangle's round trips take d a column step at a time
    # (_round_trip), so there each step is one off at its last entry;
    # the random colorings take d whole (_differences)
    import vertexforms.forms_rect as forms_rect
    import vertexforms.toroidal as toroidal

    shape = GridShape(int(argv[2]), int(argv[4]))
    rng = random.Random(0)  # the random modes' first draw, at seed 0
    if argv[0] == "cohomology":
        wrapped = toroidal._wrapped_differences

        def wrong_wrapped(*args):
            fx, gy = wrapped(*args)
            return (((fx[0][0] + 1) % 3,) + fx[0][1:],) + fx[1:], gy

        monkeypatch.setattr(toroidal, "_wrapped_differences", wrong_wrapped)
    elif "--samples" not in argv or argv[0] == "poincare":
        step = forms_rect._step

        def wrong_step(*args):
            col = step(*args)
            return col[:-1] + ((col[-1] + 1) % 3,)

        monkeypatch.setattr(forms_rect, "_step", wrong_step)
    else:
        differences = forms_rect._differences

        def wrong(*args):
            fx, gy = differences(*args)
            return fx[:-1] + (fx[-1][:-1] + ((fx[-1][-1] + 1) % 3,),), gy

        monkeypatch.setattr(forms_rect, "_differences", wrong)
    if argv[0] == "bijection" and "--samples" in argv:
        # no states, so the random colorings are the part that sees d
        monkeypatch.setattr(forms_rect, "six_state_tables", lambda *args, **kwargs: iter(()))
        expected = {"cells": [list(r) for r in random_proper_coloring(shape, rng).cells]}
    elif argv[0] == "bijection":
        expected = first_state_doc(shape) | {"t": 0}
    elif argv[0] == "cohomology" and "--samples" in argv:
        r, s, values = next(_random_decompositions(shape, rng, 1))
        expected = {"r": r, "s": s, "h": [list(col) for col in values]}
    else:
        if argv[0] == "cohomology":
            fx, gy = next(iter(closed_toroidal_tables(shape)))
        elif "--samples" in argv:
            w = random_closed_forms(shape, rng, 1)[0]
            fx, gy = w.fx, w.gy
        else:
            fx, gy = next(iter(closed_form_tables(shape)))
        expected = {"fx": [list(r) for r in fx], "gy": [list(r) for r in gy]}
    code, doc = run_json(capsys, "verify", *argv)
    assert code == 1 and doc["passed"] is False
    assert doc["counterexample"] == expected


def test_a_wrong_base_label_is_a_bijection_counterexample(capsys, monkeypatch,
                                                          round_trip_memo):
    # a potential climbed from 0 where it should start from 2 has the
    # state's differences, so only the check of the base label sees it,
    # and the counterexample names that label.  The climb from t is
    # _round_trip's own, and the column steps climb from the bases it
    # gives, so the fault goes into _round_trip's globals alone; its
    # other climb, up the last column, is checked by D_y, which no
    # shift changes
    import vertexforms.forms_rect as forms_rect

    climb, round_trip = forms_rect._climb, forms_rect._round_trip

    def from_zero(base, col, c):
        return climb(0 if base == 2 else base, col, c)

    monkeypatch.setattr(forms_rect, "_round_trip", types.FunctionType(
        round_trip.__code__, round_trip.__globals__ | {"_climb": from_zero},
        round_trip.__name__, round_trip.__defaults__))
    code, doc = run_json(capsys, "verify", "bijection", "--m", "2", "--n", "2")
    assert code == 1 and doc["passed"] is False
    assert doc["counterexample"] == first_state_doc(GridShape(2, 2)) | {"t": 2}


def test_an_inadmissible_state_is_a_bijection_counterexample(capsys, monkeypatch):
    # a closed form with the value 2 gives itself back through d of its
    # potential, but it is no six-vertex state: the suite's admissibility
    # check reports it, where coloring_from_form would raise
    import vertexforms.forms_rect as forms_rect

    shape = GridShape(2, 2)
    f, g = ((2, 2, 2), (0, 0, 0)), ((0, 0), (0, 0), (0, 0))
    assert is_closed(OneForm(shape=shape, fx=f, gy=g))
    real = forms_rect.six_state_tables
    monkeypatch.setattr(forms_rect, "six_state_tables",
                        lambda *args, **kwargs: chain(real(*args, **kwargs), [(f, g)]))
    code, doc = run_json(capsys, "verify", "bijection", "--m", "2", "--n", "2")
    assert code == 1 and doc["passed"] is False
    bad = state_doc(LatticeState(shape=shape, field=GF3, f=f, g=g))
    assert doc["counterexample"] == bad | {"t": 0}


@pytest.mark.parametrize("suite", ["poincare", "cohomology", "bijection"])
def test_a_sampler_refusal_offers_no_flag(capsys, suite):
    # the random mode runs where the guard refused the listing, so --force
    # would not lift the charge of one random form or coloring: the
    # refusal names no flag
    code, out, err = run(capsys, "verify", suite, "--m", "10001", "--n", "10001")
    assert (code, out) == (2, "")
    assert err == ("error: cost of 2^28 exceeds the 2^26 guard; one random sample alone "
                   "is charged that, and no flag overrides it\n")
    assert "force" not in err


def test_bijection_checks_the_random_colorings_alone_where_the_listing_is_refused(capsys):
    # the 6x6 state listing is charged 2^41, so the suite checks its
    # --samples colorings and no state, as poincare falls back to random
    code, doc = run_json(capsys, "verify", "bijection", "--m", "6", "--n", "6",
                         "--samples", "5")
    assert code == 0
    assert doc == {"suite": "bijection", "shape": [6, 6], "checked": 5, "passed": True}


def test_the_round_trip_memo_serves_the_walk(capsys, round_trip_memo):
    # on a cleared memo, an exhaustive verify poincare misses each
    # distinct column step (h[i][0], gy[i], fx[i], gy[i + 1]) once, and
    # its 2 steps a form are hits otherwise: the cap holds the walk's
    # 729 steps
    steps = set()
    for fx, gy in closed_form_tables(GridShape(2, 2)):
        bases = [x % 3 for x in accumulate((col[0] for col in fx), initial=0)]
        steps.update(zip(bases, gy, fx, gy[1:]))
    code, doc = run_json(capsys, "verify", "poincare", "--m", "2", "--n", "2")
    assert code == 0 and doc["checked"] == 3 ** 8
    info = round_trip_memo.cache_info()
    assert len(steps) == 729 and info.misses == len(steps)
    assert info.hits + info.misses == 2 * 3 ** 8


def test_verify_cohomology_bad_period(capsys):
    code, out, err = run(capsys, "verify", "cohomology", "--m", "3", "--n", "2")
    assert code == 2 and "rejected" in err


def test_verify_sparse_fibers(capsys):
    code, doc = run_json(capsys, "verify", "sparse-fibers", "--m", "2", "--n", "2")
    assert code == 0
    assert doc["passed"] is True and doc["states"] == 18
    assert len(doc["fibers"]) == 11
    assert all(
        set(e) == {"h", "r_choices", "s_choices", "fiber_size"}
        for e in doc["fibers"]
    )


def test_verify_sparse_fibers_checks_an_independent_total(capsys, monkeypatch):
    monkeypatch.setattr("vertexforms.forms_rect.count_six",
                        lambda shape, force=False, boundary=None: 17)
    code, doc = run_json(capsys, "verify", "sparse-fibers", "--m", "2", "--n", "2")
    assert code == 1 and doc["passed"] is False and doc["states"] == 17


def test_verify_sparse_fibers_csv(capsys):
    code, out, err = run(
        capsys, "verify", "sparse-fibers", "--m", "2", "--n", "2",
        "--format", "csv",
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "h,r_choices,s_choices,fiber_size"
    assert len(lines) == 12


@pytest.mark.parametrize("suite", ["sparse-fibers", "defect-rank"])
@pytest.mark.parametrize("option", ["--seed", "--samples"])
def test_suites_without_random_checks_take_no_seed_or_samples(capsys, suite, option):
    code, out, err = run(capsys, "verify", suite, "--m", "2", "--n", "2", option, "1")
    assert code == 2 and out == "" and f"unrecognized arguments: {option} 1" in err


def test_verify_defect_rank(capsys):
    code, doc = run_json(capsys, "verify", "defect-rank", "--m", "2", "--n", "2")
    assert code == 0
    assert doc["rank"] == 4 and doc["expected_rank"] == 4
    assert doc["total_states"] == 256 and doc["brute_total"] == 256
    assert doc["valid_boundaries"] == 128 and doc["passed"] is True


def test_verify_defect_rank_3x3_checks_the_sweep_count(capsys):
    code, doc = run_json(capsys, "verify", "defect-rank", "--m", "3", "--n", "3")
    assert code == 0 and doc["passed"] is True
    assert doc["brute_total"] == doc["total_states"] == 2 ** 15


def test_verify_defect_rank_fails_on_a_wrong_sweep_count(capsys, monkeypatch):
    monkeypatch.setattr("vertexforms.transfer.count_states",
                        lambda patterns, shape, force=False: 2 ** 15 - 1)
    code, doc = run_json(capsys, "verify", "defect-rank", "--m", "3", "--n", "3")
    assert code == 1 and doc["passed"] is False
    assert doc["brute_total"] == 2 ** 15 - 1 and doc["total_states"] == 2 ** 15


@pytest.mark.parametrize("suite,m,n", [("poincare", "6", "6"), ("cohomology", "8", "7")])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_samples_below_one_exit_2(capsys, suite, m, n, samples):
    code, out, err = run(capsys, "verify", suite, "--m", m, "--n", n, "--samples", samples)
    assert code == 2 and out == ""
    assert "--samples: must be a positive integer" in err


def solvable_files(tmp_path):
    R, S, T = solvable_triple(
        Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
        Fraction(2), Fraction(3, 2), Fraction(5, 3),
    )
    return (
        write_weights(tmp_path, "r.json", R),
        write_weights(tmp_path, "s.json", S),
        write_weights(tmp_path, "t.json", T),
    )


def test_ybe_check_solvable(capsys, tmp_path):
    rf, sf, tf = solvable_files(tmp_path)
    code, doc = run_json(capsys, "ybe", "check", "--r", rf, "--s", sf, "--t", tf)
    assert code == 0 and doc == {"commutator_zero": True}


def test_ybe_check_failure_exit_code(capsys, tmp_path):
    rf, sf, tf = solvable_files(tmp_path)
    other = write_weights(tmp_path, "id.json", VertexWeights(1, 2, 3, 4, 5, 6, 7, 8))
    code, doc = run_json(capsys, "ybe", "check", "--r", other, "--s", sf, "--t", tf)
    assert code == 1 and doc == {"commutator_zero": False}


def test_ybe_residuals(capsys, tmp_path):
    rf = write_weights(tmp_path, "r.json",
                       weights_from_vector((0, 0, 0, 0, 1, 1, 0, 0)))
    sf = write_weights(tmp_path, "s.json",
                       weights_from_vector((0, 0, 0, 0, 1, 2, 0, 0)))
    code, doc = run_json(capsys, "ybe", "residuals", "--r", rf, "--s", sf, "--t", rf)
    assert code == 0
    assert doc["all_zero"] is False
    assert len(doc["residuals64"]) == 64 and len(doc["residuals28"]) == 28
    nonzero = [k for k, e in enumerate(doc["residuals28"]) if e["value"] != "0"]
    assert nonzero == [24]
    assert doc["residuals28"][24]["label"].startswith("eq7")


def test_ybe_residuals_csv(capsys, tmp_path):
    rf, sf, tf = solvable_files(tmp_path)
    code, out, err = run(capsys, "ybe", "residuals", "--r", rf, "--s", sf,
                         "--t", tf, "--format", "csv")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "kind,index,label,value"
    assert len(lines) == 1 + 64 + 28


def test_ybe_conditions_pass(capsys, tmp_path):
    _, sf, tf = solvable_files(tmp_path)
    code, doc = run_json(capsys, "ybe", "conditions", "--s", sf, "--t", tf)
    assert code == 0 and doc["all_hold"] is True


def test_ybe_conditions_fail(capsys, tmp_path):
    sf = write_weights(tmp_path, "sb.json", VertexWeights(2, 3, 5, 7, 2, 3, 2, 5))
    tf = write_weights(tmp_path, "tb.json", VertexWeights(1, 2, 3, 4, 5, 6, 7, 8))
    code, doc = run_json(capsys, "ybe", "conditions", "--s", sf, "--t", tf)
    assert code == 1 and doc["all_hold"] is False


def test_ybe_conditions_zero_weight(capsys, tmp_path):
    sf = write_weights(tmp_path, "sid.json", identity_weights())
    tf = write_weights(tmp_path, "tfull.json", VertexWeights(1, 1, 1, 1, 1, 1, 1, 1))
    code, out, err = run(capsys, "ybe", "conditions", "--s", sf, "--t", tf)
    assert code == 2 and "nonzero" in err


def test_ybe_solve_identity(capsys, tmp_path):
    f = write_weights(tmp_path, "id.json", identity_weights())
    code, doc = run_json(capsys, "ybe", "solve", "--s", f, "--t", f)
    assert code == 0
    assert doc["dimension"] == 8
    assert doc["witness_commutator_zero"] is True
    assert set(doc["witness"]) == {
        "a1", "a-1", "b1", "b-1", "c1", "c-1", "d1", "d-1"
    }


def test_ybe_solve_scan_miss(capsys, tmp_path):
    from conftest import baxter_weights

    f = write_weights(tmp_path, "bx.json",
                      baxter_weights(Fraction(1, 5), Fraction(1, 7)))
    code, doc = run_json(capsys, "ybe", "solve", "--s", f, "--t", f)
    assert code == 1
    assert doc["dimension"] == 1
    assert doc["witness"] is None
    assert doc["message"] == "none found in scan"


@pytest.mark.parametrize("value", ["-1", "two"])
def test_ybe_solve_bad_scan_range_exits_2(capsys, tmp_path, value):
    f = write_weights(tmp_path, "id.json", identity_weights())
    code, out, err = run(capsys, "ybe", "solve", "--s", f, "--t", f, "--scan-range", value)
    assert code == 2 and out == ""
    assert "--scan-range: must be a nonnegative integer" in err


def test_ybe_solve_scan_is_size_guarded(capsys, tmp_path):
    # dimension 4 with no twisted element: the scan would try all 61^4
    s = write_weights(tmp_path, "id.json", identity_weights())
    t = write_weights(tmp_path, "ab.json", VertexWeights(2, 3, 5, 7, 0, 0, 0, 0))
    code, out, err = run(capsys, "ybe", "solve", "--s", s, "--t", t, "--scan-range", "30")
    assert code == 2 and out == "" and "2^27 exceeds the 2^26 guard" in err
    code, doc = run_json(capsys, "ybe", "solve", "--s", s, "--t", t)
    assert code == 1 and doc["dimension"] == 4 and doc["scanned"] == 5 ** 4


def test_partition_six(capsys, tmp_path):
    f = write_weights(tmp_path, "u6.json", VertexWeights(1, 1, 1, 1, 1, 1, 0, 0))
    code, doc = run_json(capsys, "partition", "--m", "2", "--n", "2",
                         "--weights", f)
    assert code == 0 and doc == {"value": "82"}


def test_partition_eight_with_boundary(capsys, tmp_path):
    f = write_weights(tmp_path, "u8.json", weights_from_vector((1,) * 8))
    bfile = zero_boundary_file(tmp_path, GridShape(2, 2), GF2)
    code, doc = run_json(capsys, "partition", "--model", "eight", "--m", "2",
                         "--n", "2", "--weights", f, "--boundary", bfile)
    assert code == 0 and doc == {"value": "2"}


def test_partition_six_rejects_d_weights(capsys, tmp_path):
    f = write_weights(tmp_path, "u8.json", weights_from_vector((1,) * 8))
    code, out, err = run(capsys, "partition", "--m", "2", "--n", "2",
                         "--weights", f)
    assert code == 2 and "d1 = d-1 = 0" in err


def test_size_guard_exits_2(capsys):
    code, out, err = run(capsys, "count", "--m", "30", "--n", "30")
    assert code == 2 and out == "" and "cost of 2^42 exceeds the 2^26 guard" in err
    # 30x2 is swept along its short side, as 2x30 is
    tall, wide = (run(capsys, "count", "--m", m, "--n", n) for m, n in (("30", "2"), ("2", "30")))
    assert tall[0] == 0 and tall[1] == wide[1]


def test_defect_rank_is_charged_its_map_entries(capsys):
    # 100 x 100: 10^4 vertices times 20200 edges
    code, out, err = run(capsys, "verify", "defect-rank", "--m", "100", "--n", "100")
    assert code == 2 and out == "" and "cost of 2^28 exceeds the 2^26 guard" in err


# the interpreter, its address space capped at 1 GiB, running main
LIMITED_MAIN = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from vertexforms.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")


# m = 10^20 + 1 and 10^6 + 1 are prime to 3, so the toroidal suites pass
# their period check and reach the guard; a sum sweeps the short side, so
# one shape has a short side of 2 and the other none
@pytest.mark.parametrize("command", [
    "count", "count --model eight", "count --model toroidal", "count --check-colorings",
    "enumerate", "enumerate --model eight", "enumerate --model toroidal",
    "verify bijection", "verify sparse-fibers", "verify defect-rank", "verify poincare",
    "verify cohomology", "partition --model eight --weights {weights}",
])
def test_a_shape_too_large_to_price_exits_2(command):
    # in a process of its own, under a memory cap and a timeout: the
    # guard refuses the charge before any of it is built
    argv = command.format(weights=FIXTURES / "weights_generic_s.json").split()
    for m, n in ((10 ** 20 + 1, 2), (10 ** 6 + 1, 10 ** 6 + 1)):
        proc = subprocess.run([sys.executable, "-c", LIMITED_MAIN, *argv, "--m", str(m),
                               "--n", str(n)], capture_output=True, text=True, timeout=20,
                              env=src_env())
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: cost of 2^") and "Traceback" not in proc.stderr


def test_missing_file_exits_2(capsys):
    code, out, err = run(capsys, "verify", "state", "--in", "no_such_file.json")
    assert code == 2 and "cannot read" in err


def test_boundary_shape_mismatch_exits_2(capsys, tmp_path):
    bfile = zero_boundary_file(tmp_path, GridShape(2, 3), GF2)
    code, out, err = run(capsys, "count", "--model", "eight", "--m", "2",
                         "--n", "2", "--boundary", bfile)
    assert code == 2 and "requested (2, 2)" in err


def test_boundary_field_mismatch_exits_2(capsys, tmp_path):
    bfile = zero_boundary_file(tmp_path, GridShape(2, 2), GF3)
    code, out, err = run(capsys, "count", "--model", "eight", "--m", "2",
                         "--n", "2", "--boundary", bfile)
    assert code == 2 and "expected F2" in err


# a field that is not a string is refused as a format error, not looked
# up in the table of field names, where a list or an object is unhashable
@pytest.mark.parametrize("field", [["F2"], {}], ids=["list", "object"])
@pytest.mark.parametrize("argv", [
    ["count", "--model", "eight", "--m", "3", "--n", "3", "--boundary"],
    ["enumerate", "--model", "eight", "--m", "3", "--n", "3", "--boundary"],
    ["verify", "state", "--model", "eight", "--in"],
], ids=["count", "enumerate", "verify-state"])
def test_a_field_that_is_not_a_string_is_a_format_error(capsys, tmp_path, field, argv):
    shape = GridShape(3, 3)
    if argv[0] == "verify":
        kind = "state"
        doc = json.loads(serialize_state(LatticeState(shape=shape, field=GF2, f=[[0] * 4] * 3,
                                                      g=[[0] * 3] * 4)))
    else:
        kind = "boundary"
        doc = json.loads(Path(zero_boundary_file(tmp_path, shape, GF2)).read_text())
    doc["field"] = field
    code, out, err = run(capsys, *argv, write_json(tmp_path, "doc.json", doc))
    assert (code, out) == (2, "")
    assert err == (f"error: {kind} document: 'field' must be one of ['F2', 'F3'], "
                   f"got {field!r}\n")


def test_bad_shape_exits_2(capsys):
    code, out, err = run(capsys, "count", "--m", "1", "--n", "2")
    assert code == 2 and "m, n >= 2" in err


def test_unknown_command_exits_2(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def write_json(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_boolean_edge_in_state_exits_2(capsys, tmp_path):
    f = write_json(tmp_path, "s.json", {
        "m": 2, "n": 2, "field": "F3",
        "f": [[0, True, 0], [0, 0, 0]], "g": [[0, 0], [0, 0], [0, 0]]})
    code, out, err = run(capsys, "verify", "state", "--in", f)
    assert code == 2 and out == "" and "f entries" in err


def test_boolean_shape_in_state_exits_2(capsys, tmp_path):
    f = write_json(tmp_path, "s.json", {
        "m": True, "n": 2, "field": "F3",
        "f": [[0, 0, 0]], "g": [[0, 0], [0, 0]]})
    code, out, err = run(capsys, "verify", "state", "--in", f)
    assert code == 2 and "integers" in err


def test_boolean_boundary_value_exits_2(capsys, tmp_path):
    f = write_json(tmp_path, "b.json", {
        "m": 2, "n": 2, "field": "F3", "f_bottom": [True, 0], "f_top": [1, 0],
        "g_left": [0, 0], "g_right": [0, 0]})
    code, out, err = run(capsys, "count", "--m", "2", "--n", "2", "--boundary", f)
    assert code == 2 and out == "" and "f_bottom" in err


def test_boolean_weight_exits_2(capsys, tmp_path):
    doc = json.loads(serialize_weights(VertexWeights(1, 1, 1, 1, 1, 1, 0, 0)))
    doc["a1"] = True
    f = write_json(tmp_path, "w.json", doc)
    code, out, err = run(capsys, "partition", "--m", "2", "--n", "2", "--weights", f)
    assert code == 2 and out == "" and "'a1'" in err


@pytest.mark.parametrize("raw", ["1e3", "0.5", " 2 ", "1_000",
                                 True, None, 1.5, [1], " 2/3 ", "1/0"])
def test_weight_outside_the_documented_forms_exits_2(capsys, tmp_path, raw):
    doc = json.loads(serialize_weights(VertexWeights(1, 1, 1, 1, 1, 1, 0, 0)))
    doc["a1"] = raw
    f = write_json(tmp_path, "w.json", doc)
    code, out, err = run(capsys, "partition", "--m", "2", "--n", "2", "--weights", f)
    assert code == 2 and out == "" and f"'a1' must be an integer or 'p/q' string, got {raw!r}" in err


def test_integer_too_long_for_int_exits_2(capsys, tmp_path):
    huge = "1" * 5000
    w = tmp_path / "w.json"
    w.write_text(serialize_weights(VertexWeights(1, 1, 1, 1, 1, 1, 0, 0)).replace('"1"', huge, 1))
    state = tmp_path / "s.json"
    state.write_text(f'{{"m": {huge}, "n": 2, "field": "F3", "f": [], "g": []}}')
    boundary = tmp_path / "b.json"
    boundary.write_text(f'{{"m": 2, "n": 2, "field": "F3", "f_bottom": [{huge}]}}')
    for argv, where in (
        (["partition", "--m", "2", "--n", "2", "--weights", str(w)], "weights"),
        (["verify", "state", "--in", str(state)], "state"),
        (["count", "--m", "2", "--n", "2", "--boundary", str(boundary)], "boundary"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == f"error: {where} document: an integer in it has more than 4300 digits\n", argv


# Exact results longer than the interpreter's limit on an int's text
# (sys.get_int_max_str_digits(), 4300 digits by default): the CLI writes
# them with the limit lifted, charged to the guard, and parsing keeps it.


@contextlib.contextmanager
def no_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def long_weights(tmp_path, name, base: int) -> str:
    """Weights of eight distinct 4000-digit integers, as strings."""
    doc = {key: str(10 ** 3999 * base + k) for k, key in enumerate(WEIGHT_KEYS, 1)}
    return write_json(tmp_path, name, doc)


def test_a_total_past_the_digit_limit_is_printed(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "count", "--model", "eight", "--m", "100", "--n", "150")
    assert code == 0 and err == "" and sys.get_int_max_str_digits() == limit
    with no_digit_limit():
        assert out == json.dumps({"total": 2 ** 15250}, indent=2) + "\n"
        assert len(str(2 ** 15250)) > 4300


def test_a_partition_value_past_the_digit_limit_is_printed(capsys, tmp_path):
    tiny = f"1/{10 ** 200}"
    w = VertexWeights(tiny, 1, tiny, 1, 1, 1, 0, 0)
    code, doc = run_json(capsys, "partition", "--m", "5", "--n", "5",
                         "--weights", write_weights(tmp_path, "w.json", w))
    assert code == 0
    with no_digit_limit():
        expected = str(partition_function(w, GridShape(5, 5), "six"))
    assert doc == {"value": expected} and len(expected) > 4300


def test_ybe_values_past_the_digit_limit_are_printed(capsys, tmp_path):
    r, s, t = (long_weights(tmp_path, f"{x}.json", base) for x, base in zip("rst", (1, 2, 3)))
    code, doc = run_json(capsys, "ybe", "residuals", "--r", r, "--s", s, "--t", t)
    assert code == 0
    code, csv_out, err = run(capsys, "ybe", "residuals", "--r", r, "--s", s, "--t", t,
                             "--format", "csv")
    assert code == 0 and err == ""
    code_c, conditions = run_json(capsys, "ybe", "conditions", "--s", s, "--t", t)
    r, s, t = (deserialize_weights(Path(f).read_text()) for f in (r, s, t))
    report = check_necessary_conditions(s, t)
    with no_digit_limit():
        residuals = [str(v) for v in star_triangle_residuals(r, s, t)]
        expected = report.as_dict()
    assert doc["residuals64"] == residuals and max(map(len, residuals)) > 4300
    assert [row.split(",")[-1] for row in csv_out.splitlines()[1:65]] == residuals
    assert code_c == (0 if report.all_hold else 1) and conditions == expected


def test_a_weight_past_the_digit_limit_is_still_refused(capsys, tmp_path):
    # after a value past the limit is printed, parsing keeps the limit
    assert run(capsys, "count", "--model", "eight", "--m", "100", "--n", "150")[0] == 0
    doc = json.loads(serialize_weights(VertexWeights(1, 1, 1, 1, 1, 1, 0, 0)))
    doc["a1"] = "7" * 4301
    code, out, err = run(capsys, "partition", "--m", "2", "--n", "2",
                         "--weights", write_json(tmp_path, "w.json", doc))
    assert code == 2 and out == "" and "'a1' must be an integer or 'p/q' string" in err


def test_a_long_value_is_charged_its_text(capsys):
    # 2^361200 has 12041 30-bit digits, about 2^26.1 steps to write
    argv = ["count", "--model", "eight", "--m", "600", "--n", "600"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == ("error: cost of 2^27 exceeds the 2^26 guard; "
                   "pass force=True (CLI: --force) to override\n")
    code, out, err = run(capsys, *argv, "--force")
    with no_digit_limit():
        assert code == 0 and out == json.dumps({"total": 2 ** 361200}, indent=2) + "\n"


# Each command reaches a model's front door, which checks the boundary;
# the CLI only parses the file.
@pytest.mark.parametrize("argv", [
    ["count"], ["enumerate"], ["enumerate", "--format", "csv"], ["partition", "--weights", "{w}"],
], ids=["count", "enumerate", "enumerate-csv", "partition"])
@pytest.mark.parametrize("model", ["six", "eight"])
@pytest.mark.parametrize("shape,field_of,message", [
    ((2, 3), {"six": GF3, "eight": GF2}, "which does not match the shape requested (2, 2)"),
    ((2, 2), {"six": GF2, "eight": GF3}, "expected F"),
], ids=["shape", "field"])
def test_each_command_refuses_a_wrong_boundary_through_the_library(
        capsys, tmp_path, argv, model, shape, field_of, message):
    w = write_weights(tmp_path, "w.json", VertexWeights(1, 1, 1, 1, 1, 1, 0, 0))
    bfile = zero_boundary_file(tmp_path, GridShape(*shape), field_of[model])
    argv = [a.format(w=w) for a in argv]
    code, out, err = run(capsys, *argv, "--model", model, "--m", "2", "--n", "2",
                         "--boundary", bfile)
    assert code == 2 and out == "" and message in err


def test_partition_checks_the_boundary_before_the_d_weights(capsys, tmp_path):
    w = write_weights(tmp_path, "w.json", weights_from_vector((1,) * 8))
    bfile = zero_boundary_file(tmp_path, GridShape(2, 3), GF3)
    code, out, err = run(capsys, "partition", "--m", "2", "--n", "2", "--weights", w,
                         "--boundary", bfile)
    assert code == 2 and out == "" and "requested (2, 2)" in err and "d1" not in err


# a 2 KB document that json.loads cannot read without passing the
# recursion limit
@pytest.mark.parametrize("argv,where", [
    (["partition", "--m", "2", "--n", "2", "--weights", "{doc}"], "weights"),
    (["count", "--m", "2", "--n", "2", "--boundary", "{doc}"], "boundary"),
    (["verify", "state", "--in", "{doc}"], "state"),
], ids=["weights", "boundary", "state"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, argv, where):
    doc = tmp_path / "nested.json"
    doc.write_text("[" * 1000 + "]" * 1000)
    code, out, err = run(capsys, *(a.format(doc=doc) for a in argv))
    assert code == 2 and out == ""
    assert err == f"error: {where} document: arrays or objects nested too deeply\n"


@pytest.mark.parametrize("command", ["count", "enumerate"])
def test_toroidal_5x3_takes_periods_divisible_by_3(capsys, command):
    # only the cohomology decomposition divides by the periods; the
    # trace and the walk run at (5, 3) and agree with the row oracle
    states = toroidal_six_states(5, 3)
    assert len(states) == 2116
    argv = [command, "--model", "toroidal", "--m", "5", "--n", "3"]
    if command == "count":
        assert run_json(capsys, *argv) == (0, {"count": 2116})
        return
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0 and err == ""
    rows = out.splitlines()[1:]
    assert [tuple(map(int, row.split(","))) for row in rows] == states


def test_verify_sparse_fibers_refuses_5x3(capsys):
    code, out, err = run(capsys, "verify", "sparse-fibers", "--m", "5", "--n", "3")
    assert code == 2 and out == "" and "(5, 3)" in err and "divisible by 3" in err


def test_verify_state_eight_with_value_two_exits_2(capsys, tmp_path):
    f = write_json(tmp_path, "s.json", {
        "m": 2, "n": 2, "field": "F3",
        "f": [[0, 2, 0], [0, 0, 0]], "g": [[0, 0], [0, 0], [0, 0]]})
    code, out, err = run(capsys, "verify", "state", "--in", f, "--model", "eight")
    assert code == 2 and out == "" and "state document is over F3, expected F2" in err


def test_verify_state_six_with_value_two_exits_2(capsys, tmp_path):
    f = write_json(tmp_path, "s.json", {
        "m": 2, "n": 2, "field": "F3",
        "f": [[0, 2, 0], [0, 0, 0]], "g": [[0, 0], [0, 0], [0, 0]]})
    code, out, err = run(capsys, "verify", "state", "--in", f)
    assert code == 2 and out == "" and "{0, 1}" in err


def test_verify_state_refuses_a_document_over_the_other_field(capsys, tmp_path):
    # an admissible F3 document is no eight-vertex state, and an F2 one
    # no six-vertex state, whatever its values
    code, out, err = run(capsys, "verify", "state", "--in", FIXTURE, "--model", "eight")
    assert (code, out, err) == (2, "", "error: state document is over F3, expected F2\n")
    zero = LatticeState(shape=GridShape(2, 2), field=GF2,
                        f=[[0, 0, 0]] * 2, g=[[0, 0]] * 3)
    p = tmp_path / "f2.json"
    p.write_text(serialize_state(zero))
    code, out, err = run(capsys, "verify", "state", "--in", str(p), "--model", "six")
    assert (code, out, err) == (2, "", "error: state document is over F2, expected F3\n")


def test_undecodable_file_exits_2(capsys, tmp_path):
    p = tmp_path / "bin.json"
    p.write_bytes(b"\xff\xfe not utf-8")
    code, out, err = run(capsys, "verify", "state", "--in", str(p))
    assert code == 2 and "cannot read" in err


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(shape, force=False, boundary=None):
        raise ValueError("internal fault")

    monkeypatch.setattr("vertexforms.forms_rect.count_six", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["count", "--model", "toroidal", "--m", "2", "--n", "2"])


@pytest.mark.parametrize("target,command", [
    ("partition_function", "partition --m 2 --n 2 --weights {w}"),
    ("check_necessary_conditions", "ybe conditions --s {w} --t {w}"),
])
def test_internal_value_error_in_weight_commands_propagates(tmp_path, monkeypatch,
                                                            target, command):
    import vertexforms.yangbaxter as yangbaxter

    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    wfile = write_weights(tmp_path, "w.json", VertexWeights(1, 1, 1, 1, 1, 1, 1, 1))
    monkeypatch.setattr(yangbaxter, target, broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(command.format(w=wfile).split())


@pytest.mark.parametrize("command,handler", [
    ("count --m 2 --n 2", "cmd_count"),
    ("enumerate --m 2 --n 2 --format csv", "cmd_enumerate"),
    ("verify defect-rank --m 2 --n 2", "cmd_verify"),
])
def test_parser_is_built_once_and_handlers_are_read_per_call(capsys, monkeypatch,
                                                             command, handler):
    # a tracer wraps the cmd_* functions after the parser is cached
    import vertexforms.cli as cli

    main(command.split())
    assert cli.build_parser() is cli.build_parser()
    calls = []
    real = getattr(cli, handler)
    monkeypatch.setattr(cli, handler, lambda args: calls.append(args) or real(args))
    assert main(command.split()) == 0
    assert len(calls) == 1


def src_env() -> dict:
    """The environment, with src/ first on PYTHONPATH."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "vertexforms.cli", "count", "--m", "2", "--n", "2"],
        capture_output=True, text=True, env=src_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"count": 82}


# -- how main reaches a command: it walks the command words itself, and
# argparse parses only the chosen command's options

# one argv of each leaf command; the handler is stubbed, so the files
# need not exist
LEAVES = [
    "count --m 3 --n 2 --model eight --force",
    "enumerate --m 2 --n 3 --format csv",
    "partition --m 2 --n 2 --weights w.json --model eight --boundary b.json",
    "verify poincare --m 2 --n 3 --seed 4 --samples 7",
    "verify bijection --m 3 --n 2 --force",
    "verify cohomology --m 4 --n 2 --samples 9",
    "verify sparse-fibers --m 2 --n 2 --format csv",
    "verify defect-rank --m 3 --n 3",
    "verify state --in s.json --model eight",
    "ybe check --r r.json --s s.json --t t.json",
    "ybe residuals --r r.json --s s.json --t t.json --format csv",
    "ybe conditions --s s.json --t t.json",
    "ybe solve --s s.json --t t.json --scan-range 3",
]


def stub_handlers(monkeypatch) -> list:
    """Replace every cmd_* handler with one that records its namespace."""
    import vertexforms.cli as cli

    seen = []
    for name in ("cmd_count", "cmd_enumerate", "cmd_verify", "cmd_ybe", "cmd_partition"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(args) or 0)
    return seen


@pytest.mark.parametrize("command", LEAVES, ids=[c.split(" --")[0] for c in LEAVES])
def test_a_handler_gets_the_namespace_parse_args_gives(monkeypatch, command):
    import vertexforms.cli as cli

    seen = stub_handlers(monkeypatch)
    assert main(command.split()) == 0
    assert seen == [cli.build_parser().parse_args(command.split())]


def parse_args_output(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of build_parser().parse_args on an
    argv it refuses or answers with help."""
    import vertexforms.cli as cli

    with pytest.raises(SystemExit) as exited:
        cli.build_parser().parse_args(argv)
    out, err = capsys.readouterr()
    return int(exited.value.code or 0), out, err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["-h", "count"], ["frobnicate"], ["cnt", "--m", "2"], ["-"],
    ["--foo", "count", "--m", "2", "--n", "2"],
    ["count"], ["count", "-h"], ["count", "--m", "2", "--n", "2", "-h"],
    ["verify"], ["verify", "-h"], ["verify", "bogus"], ["verify", "--m", "3"],
    ["verify", "state", "-h"], ["ybe"], ["ybe", "-h"], ["ybe", "--s", "a", "solve"],
    ["ybe", "solve", "-h"], ["ybe", "check", "--s", "x"],
    ["count", "--m", "2", "--n", "2", "--bogus"], ["count", "--m", "2", "--n", "2", "extra"],
    ["count", "--m", "2", "--n", "2", "--m"], ["count", "--m", "2", "--m", "x", "--n", "2"],
    ["count", "--mod", "x", "--m", "2", "--n", "2"], ["enumerate", "--f", "--m", "2", "--n", "2"],
    ["count", "--", "--m", "2", "--n", "2"], ["--", "count", "--m", "2", "--n", "2"],
    ["count", "--m", "2", "--n", "2", "--"], ["verify", "poincare", "bijection"],
    ["ybe", "solve", "--s", "a", "--t", "b", "--scan-range", "-1"],
])
def test_refusals_and_help_match_parse_args_byte_for_byte(capsys, monkeypatch, argv):
    stub_handlers(monkeypatch)
    expected = parse_args_output(capsys, argv)
    assert run(capsys, *argv) == expected


@pytest.mark.parametrize("command,prog", [
    ("count --m 2 --n 2", "vertexforms count"),
    ("ybe residuals --r r --s s --t t", "vertexforms ybe residuals"),
    ("verify state --in s.json", "vertexforms verify state"),
])
def test_a_valid_command_is_parsed_once(monkeypatch, command, prog):
    import argparse

    stub_handlers(monkeypatch)
    calls = []
    parse = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        lambda self, *args: calls.append(self.prog) or parse(self, *args))
    assert main(command.split()) == 0
    assert calls == [prog]


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["vertexforms", "count", "--m", "2", "--n", "2"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out) == {"count": 82}
