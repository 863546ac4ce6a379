import json
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vertexforms.algebra import GF2, GF3
from vertexforms.grid import (
    BoundarySpec,
    GridShape,
    LatticeState,
    SizeGuardError,
    StateFormatError,
    boundary_of,
    deserialize_boundary,
    deserialize_state,
    edges_at_vertex,
    exact_text,
    f_edge_index,
    g_edge_index,
    guard_cost,
    guard_power,
    guard_size,
    serialize_boundary,
    serialize_state,
)
from vertexforms.forms_rect import Coloring, OneForm, ScalarField
from vertexforms.toroidal import PeriodicField, ToroidalOneForm
from conftest import load_state, vertex_index


def zero_state(m, n, field=GF3):
    shape = GridShape(m, n)
    f = [[0] * (n + 1) for _ in range(m)]
    g = [[0] * n for _ in range(m + 1)]
    return LatticeState(shape=shape, field=field, f=f, g=g)


def test_shape_validation():
    assert GridShape(2, 3).edge_count == 2 * 4 + 3 * 3
    assert GridShape(2, 3).vertex_count == 6
    assert GridShape(5, 3).f_edge_count == 20
    assert GridShape(5, 3).g_edge_count == 18
    for bad in [(1, 2), (2, 1), (0, 5), (2, -1)]:
        with pytest.raises(ValueError):
            GridShape(*bad)


def test_state_table_validation():
    shape = GridShape(2, 2)
    with pytest.raises(ValueError, match="f"):
        LatticeState(shape=shape, field=GF3, f=[[0, 0], [0, 0]], g=[[0, 0]] * 3)
    with pytest.raises(ValueError):
        LatticeState(
            shape=shape, field=GF3, f=[[0, 0, 3], [0, 0, 0]], g=[[0, 0]] * 3
        )
    with pytest.raises(ValueError):
        LatticeState(
            shape=shape, field=GF2, f=[[0, 0, 0], [0, 1, 0]], g=[[0, 2]] * 3
        )


def test_one_based_access_and_edge_tuple_layout():
    st5 = load_state("rect_5x3.json")
    shape = st5.shape
    edges = st5.edge_tuple()
    assert len(edges) == shape.edge_count
    for i in range(1, shape.m + 1):
        for j in range(1, shape.n + 2):
            assert edges[f_edge_index(shape, i, j)] == st5.f_at(i, j)
    for i in range(1, shape.m + 2):
        for j in range(1, shape.n + 1):
            assert edges[g_edge_index(shape, i, j)] == st5.g_at(i, j)


def test_vertex_index_order():
    shape = GridShape(2, 3)
    order = [vertex_index(shape, i, j) for i in (1, 2) for j in (1, 2, 3)]
    assert order == list(range(6))


def test_edges_at_vertex_fixture_corner():
    st5 = load_state("rect_5x3.json")
    assert edges_at_vertex(st5, 5, 3) == (0, 1, 1, 0)
    with pytest.raises(ValueError):
        edges_at_vertex(st5, 6, 1)
    with pytest.raises(ValueError):
        edges_at_vertex(st5, 1, 0)


def test_edges_at_vertex_orientation():
    # one nonzero edge at a time pins the (left, top, right, bottom) order
    base = zero_state(2, 2)
    f = [list(r) for r in base.f]
    g = [list(r) for r in base.g]
    g[0][0] = 1
    st_left = LatticeState(shape=base.shape, field=GF3, f=f, g=g)
    assert edges_at_vertex(st_left, 1, 1) == (1, 0, 0, 0)
    f = [list(r) for r in base.f]
    f[0][1] = 1
    st_top = LatticeState(shape=base.shape, field=GF3, f=f, g=base.g)
    assert edges_at_vertex(st_top, 1, 1) == (0, 1, 0, 0)


def test_boundary_of_fixture(torus_state):
    b = boundary_of(torus_state)
    assert b.f_bottom == (0, 1, 1, 0, 0)
    assert b.f_top == (0, 1, 1, 0, 0)
    assert b.g_left == (0, 0, 1)
    assert b.g_right == (0, 0, 1)
    assert b.edge_tuple() == b.f_bottom + b.f_top + b.g_left + b.g_right


def test_boundary_length_validation():
    shape = GridShape(2, 2)
    with pytest.raises(ValueError, match="f_bottom"):
        BoundarySpec(
            shape=shape, field=GF2,
            f_bottom=(0,), f_top=(0, 0), g_left=(0, 0), g_right=(0, 0),
        )
    with pytest.raises(ValueError, match="g_right"):
        BoundarySpec(
            shape=shape, field=GF2,
            f_bottom=(0, 0), f_top=(0, 0), g_left=(0, 0), g_right=(0, 2),
        )


def test_state_serialization_round_trip(rect_state):
    text = serialize_state(rect_state)
    back = deserialize_state(text)
    assert back.shape == rect_state.shape
    assert back.field is rect_state.field
    assert back.edge_tuple() == rect_state.edge_tuple()
    doc = json.loads(text)
    assert set(doc) == {"m", "n", "field", "f", "g"}


def test_boundary_serialization_round_trip():
    b = BoundarySpec(
        shape=GridShape(2, 3), field=GF2,
        f_bottom=(1, 0), f_top=(0, 1), g_left=(1, 1, 0), g_right=(0, 0, 1),
    )
    back = deserialize_boundary(serialize_boundary(b))
    assert back == b


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("{", "invalid JSON"),
        ("[1, 2]", "top level"),
        ('{"m": 2, "n": 2, "field": "F3", "f": []}', "missing required key"),
        ('{"m": 2, "n": 2, "field": "F7", "f": [], "g": []}', "field"),
        ('{"m": 1, "n": 2, "field": "F3", "f": [], "g": []}', "m"),
        ('{"m": 2, "n": 2, "field": "F3", "f": 0, "g": []}', "array"),
    ],
)
def test_state_format_diagnostics(text, fragment):
    with pytest.raises(StateFormatError, match=fragment):
        deserialize_state(text)


def test_documents_with_an_integer_too_long_for_int_are_format_errors():
    # json.loads raises a bare ValueError past int's 4300-digit limit
    huge = "1" * 5000
    with pytest.raises(StateFormatError,
                       match="^state document: an integer in it has more than 4300 digits$"):
        deserialize_state(f'{{"m": {huge}, "n": 2, "field": "F3", "f": [], "g": []}}')
    with pytest.raises(StateFormatError,
                       match="^boundary document: an integer in it has more than 4300 digits$"):
        deserialize_boundary(f'{{"m": 2, "n": 2, "field": "F2", "f_bottom": [{huge}, 0]}}')


def test_booleans_are_not_edge_values():
    shape = GridShape(2, 2)
    with pytest.raises(ValueError, match="f entries"):
        LatticeState(shape=shape, field=GF3, f=[[0, True, 0], [0, 0, 0]], g=[[0, 0]] * 3)
    with pytest.raises(ValueError, match="f_bottom"):
        BoundarySpec(shape=shape, field=GF2, f_bottom=(True, 0), f_top=(0, 0),
                     g_left=(0, 0), g_right=(0, 0))
    with pytest.raises(StateFormatError, match="integers"):
        deserialize_state('{"m": true, "n": 2, "field": "F3", "f": [], "g": []}')


@pytest.mark.parametrize("bad", [True, 2, -1, "0", 1.0])
def test_tables_and_boundaries_refuse_the_same_entries(bad):
    shape = GridShape(2, 2)
    with pytest.raises(ValueError, match=r"^f entries must be ints in \[0, 2\)$"):
        LatticeState(shape=shape, field=GF2, f=[[0, bad, 0], [0, 0, 0]], g=[[0, 0]] * 3)
    with pytest.raises(ValueError, match=r"^g_left entries must be ints in \[0, 2\)$"):
        BoundarySpec(shape=shape, field=GF2, f_bottom=(0, 0), f_top=(0, 0),
                     g_left=(bad, 0), g_right=(0, 0))


def test_state_format_reports_bad_entry():
    doc = {
        "m": 2, "n": 2, "field": "F3",
        "f": [[0, 0, 9], [0, 0, 0]],
        "g": [[0, 0], [0, 0], [0, 0]],
    }
    with pytest.raises(StateFormatError):
        deserialize_state(json.dumps(doc))


def test_guard_size():
    guard_size(10)
    with pytest.raises(SizeGuardError, match="2\\^40"):
        guard_size(40)
    guard_size(40, force=True)


def test_guard_power_charges_as_guard_cost_and_refuses_a_huge_exponent_unbuilt():
    for base, exponent, units in ((2, 20, 3), (2, 30, 3), (3, 10, 84), (3, 48, 84)):
        charged = []
        for guard in (lambda: guard_cost(base ** exponent * units),
                      lambda: guard_power(base, exponent, units)):
            try:
                guard()
                charged.append(None)
            except SizeGuardError as e:
                charged.append(str(e))
        assert charged[0] == charged[1]
    # 3^(10^30) is never built: the exponent alone is charged 2^100
    with pytest.raises(SizeGuardError, match="^cost of 2\\^100 exceeds"):
        guard_power(3, 10 ** 30, 5)


def test_guard_power_builds_no_power_past_an_exponent_of_2_to_the_16():
    # 3^(10^7) takes seconds to build; the charge is read off log2(3)
    # (10^7 log2(3) + log2(5) = 15849627.3)
    start = time.perf_counter()
    with pytest.raises(SizeGuardError, match="^cost of 2\\^1584962[89] exceeds"):
        guard_power(3, 10 ** 7, 5)
    assert time.perf_counter() - start < 0.05
    for base, exponent, units in ((3, (1 << 16) + 1, 84), (3, 10 ** 5, 5), (2, 70001, 3)):
        exact = (base ** exponent * units - 1).bit_length()
        with pytest.raises(SizeGuardError) as refused:
            guard_power(base, exponent, units)
        charged = int(str(refused.value).split("^", 1)[1].split(" ", 1)[0])
        assert exact <= charged <= exact + 2
        guard_power(base, exponent, units, force=True)


def test_exact_text_charges_a_text_past_the_digit_limit_and_lifts_the_limit():
    # d 30-bit digits are charged d^2 / 2 steps: 11585 digits pass, 11586 do not
    limit = sys.get_int_max_str_digits()
    small = [1, Fraction(1, 3), True, (Fraction(-2, 7), 5)]
    assert exact_text(lambda: "made", small) == "made"
    passes = [(2 ** (30 * 11585 - 1),), Fraction(1, 2 ** 100)]
    assert exact_text(lambda: len(str(passes[0][0])), passes) > 100000
    for values in ([2 ** (30 * 11586 - 1)], [1, Fraction(-1, 2 ** (30 * 11586 - 1))],
                   [(0, -(2 ** (30 * 11586 - 1)))]):
        big = values[-1][-1] if isinstance(values[-1], tuple) else values[-1]
        with pytest.raises(SizeGuardError, match="^cost of 2\\^27 exceeds"):
            exact_text(lambda: str(big), values)
        assert exact_text(lambda: len(str(big)), values, force=True) > 100000
    assert sys.get_int_max_str_digits() == limit
    # a text within the limit is made once, uncharged; another fault raises again
    calls = []
    assert exact_text(lambda: calls.append(1) or str(2 ** 1000), []) and calls == [1]
    with pytest.raises(ValueError, match="fault"):
        exact_text(lambda: calls.append(2) or int("fault"), [])
    assert calls == [1, 2, 2] and sys.get_int_max_str_digits() == limit


@settings(deadline=None, max_examples=30)
@given(
    st.integers(2, 4),
    st.integers(2, 4),
    st.data(),
)
def test_random_state_round_trips(m, n, data):
    shape = GridShape(m, n)
    f = [
        [data.draw(st.integers(0, 1)) for _ in range(n + 1)] for _ in range(m)
    ]
    g = [[data.draw(st.integers(0, 1)) for _ in range(n)] for _ in range(m + 1)]
    state = LatticeState(shape=shape, field=GF3, f=f, g=g)
    assert deserialize_state(serialize_state(state)) == state
    b = boundary_of(state)
    assert deserialize_boundary(serialize_boundary(b)) == b


# each value type's tables, name -> (rows, cols), on shape (m, n)
TABLES = {
    LatticeState: lambda m, n: {"f": (m, n + 1), "g": (m + 1, n)},
    OneForm: lambda m, n: {"fx": (m, n + 1), "gy": (m + 1, n)},
    ScalarField: lambda m, n: {"h": (m + 1, n + 1)},
    Coloring: lambda m, n: {"cells": (m + 1, n + 1)},
    ToroidalOneForm: lambda m, n: {"fx": (m, n), "gy": (m, n)},
    PeriodicField: lambda m, n: {"values": (m, n)},
}


@pytest.mark.parametrize("cls", list(TABLES), ids=lambda cls: cls.__name__)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_trusted_construction_equals_validated(cls, data):
    # periods prime to 3, which the toroidal types require
    m = data.draw(st.sampled_from((2, 4, 5)))
    n = data.draw(st.sampled_from((2, 4, 5)))
    field = data.draw(st.sampled_from((GF2, GF3))) if cls is LatticeState else GF3
    tables = {
        name: data.draw(st.lists(st.lists(st.integers(0, field.p - 1), min_size=cols,
                                          max_size=cols), min_size=rows, max_size=rows))
        for name, (rows, cols) in TABLES[cls](m, n).items()
    }
    given_field = {"field": field} if cls is LatticeState else {}
    validated = cls(shape=GridShape(m, n), **given_field, **tables)
    trusted = cls.trusted(shape=GridShape(m, n), **given_field,
                          **{name: tuple(map(tuple, t)) for name, t in tables.items()})
    assert trusted == validated and hash(trusted) == hash(validated)
    assert vars(trusted) == vars(validated)
