"""Differential tests: the transfer sweep against the state listings.

Counts are compared with the listings (enumerate_six,
enumerate_six_toroidal, enumerate_eight), which walk the same vertex
tables column by column and are checked against oracles of their own
in the module tests, and partition functions with a per-state product
of R-matrix components over those same lists, on shapes up to 3x3,
free, fixed and toroidal boundaries, and rational weights that include
zeros and negative values.  Also here: the column walk itself,
first_bad_vertex against a vertex scan, the conservation laws that rule
a fixed boundary out before any sweep, the paper's F2 counts at sizes
no listing reaches, the weighted symmetries (half-turn, transpose,
complement, and gauge invariance on the torus), what the size guard
charges sums and listings, and the commuting row transfer matrices of
weights that solve the Yang-Baxter equation.
"""

import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import periodic_at, random_solvable_triple, random_weights, recursive_state_tables
from vertexforms import eightvertex, forms_rect, grid, transfer
from vertexforms.algebra import GF2, GF3, QQ, FieldMatrix, matmul, rank
from vertexforms.eightvertex import boundary_parity, count_total, enumerate_eight
from vertexforms.forms_rect import (
    OneForm,
    count_six,
    enumerate_six,
    form_from_coloring,
    is_admissible_form,
    random_proper_coloring,
)
from vertexforms.grid import (
    BoundarySpec,
    GridShape,
    LatticeState,
    SizeGuardError,
    boundary_of,
    edges_at_vertex,
)
from vertexforms.toroidal import (
    CohomologyDecomposition,
    PeriodicField,
    ToroidalOneForm,
    count_six_toroidal,
    enumerate_six_toroidal,
    is_closed_toroidal,
    reconstruct,
)
from vertexforms.transfer import (
    CLOSED_F3,
    EIGHT_VERTEX,
    PATTERNS,
    SIX_VERTEX,
    count_states,
    first_bad_vertex,
    state_tables,
    weighted_sum,
)
from vertexforms.yangbaxter import (
    VertexWeights,
    component,
    partition_function,
    weights_to_matrix,
)

SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3)]
# free eight-vertex sums list every state, 2^(m+n+mn); keep those small
EIGHT_FREE_SHAPES = [(2, 2), (2, 3), (3, 2)]


@lru_cache(maxsize=None)
def six_states(m, n):
    return tuple(enumerate_six(GridShape(m, n)))


@lru_cache(maxsize=None)
def eight_states(m, n, boundary=None):
    return tuple(enumerate_eight(GridShape(m, n), boundary=boundary))


def direct_sum(w, states):
    """The reference: sum over states of the product of vertex components."""
    total = Fraction(0)
    for state in states:
        prod = Fraction(1)
        for i in range(1, state.shape.m + 1):
            for j in range(1, state.shape.n + 1):
                prod *= component(w, *edges_at_vertex(state, i, j))
        total += prod
    return total


def boundary(shape, field, values):
    m, n = shape.m, shape.n
    return BoundarySpec(
        shape=shape, field=field,
        f_bottom=tuple(values[:m]), f_top=tuple(values[m:2 * m]),
        g_left=tuple(values[2 * m:2 * m + n]), g_right=tuple(values[2 * m + n:]),
    )


ratios = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
nonzero_ratios = ratios.filter(bool)
six_weights = st.builds(lambda v: VertexWeights(*v, 0, 0), st.tuples(*[ratios] * 6))
eight_weights = st.builds(lambda v: VertexWeights(*v), st.tuples(*[ratios] * 8))


def test_six_vertex_table_is_the_closedness_rule():
    expected = {
        p for p in product((0, 1), repeat=4)
        if (p[2] - p[0]) % 3 == (p[1] - p[3]) % 3
    }
    assert set(SIX_VERTEX) == expected and len(SIX_VERTEX) == 6


def test_eight_vertex_table_is_the_parity_rule():
    expected = {p for p in product((0, 1), repeat=4) if sum(p) % 2 == 0}
    assert set(EIGHT_VERTEX) == expected == set(PATTERNS)


def closedness_rule(p: int) -> set:
    """(left, top, right, bottom) over F_p with right - left = top - bottom."""
    return {q for q in product(range(p), repeat=4) if (q[2] - q[0]) % p == (q[1] - q[3]) % p}


def test_six_and_eight_vertex_tables_are_the_closed_f3_rule():
    assert len(CLOSED_F3) == 27 and set(CLOSED_F3) == closedness_rule(3)
    assert set(SIX_VERTEX) == {q for q in CLOSED_F3 if max(q) <= 1}
    assert set(EIGHT_VERTEX) == closedness_rule(2)


def first_bad_by_scan(patterns, state):
    """The oracle scan: edges_at_vertex at each vertex, i outer."""
    m, n = state.shape.m, state.shape.n
    return next(((i, j) for i in range(1, m + 1) for j in range(1, n + 1)
                 if edges_at_vertex(state, i, j) not in patterns), None)


def closed_toroidal_by_wrap(w):
    """D_y fx = D_x gy at each vertex, read through periodic_at's index reduction."""
    m, n = w.shape.m, w.shape.n
    fx, gy = w.fx, w.gy
    return all(
        (periodic_at(fx, i, j + 1) - periodic_at(fx, i, j)) % 3
        == (periodic_at(gy, i + 1, j) - periodic_at(gy, i, j)) % 3
        for i in range(1, m + 1)
        for j in range(1, n + 1)
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_first_bad_vertex_matches_a_vertex_scan(data):
    # F3 tables that mostly follow one of the rules, with up to two edges
    # then set at random: closed over F3, closed mod 2 on {0, 1}, or
    # closed on the torus, written on the rectangle with the wrap repeated
    m, n = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
    shape = GridShape(m, n)
    f3 = st.integers(0, 2)
    kind = data.draw(st.sampled_from(["F3", "F2", "torus"] if m % 3 and n % 3 else ["F3", "F2"]))
    if kind == "torus":
        h = PeriodicField(shape=shape, values=[[data.draw(f3) for _ in range(n)]
                                               for _ in range(m)])
        w = reconstruct(CohomologyDecomposition(r=data.draw(f3), s=data.draw(f3), h=h))
        f = [list(r + r[:1]) for r in w.fx]
        g = [list(c) for c in w.gy + w.gy[:1]]
    else:
        p = 3 if kind == "F3" else 2
        f = [[data.draw(st.integers(0, p - 1)) for _ in range(n + 1)] for _ in range(m)]
        g = [[data.draw(st.integers(0, p - 1)) for _ in range(n)]]
        for i in range(m):
            g.append([(g[i][j] + f[i][j + 1] - f[i][j]) % p for j in range(n)])
    for _ in range(data.draw(st.integers(0, 2))):
        table = data.draw(st.sampled_from([f, g]))
        col = data.draw(st.sampled_from(table))
        col[data.draw(st.integers(0, len(col) - 1))] = data.draw(f3)
    state = LatticeState(shape=shape, field=GF3, f=f, g=g)
    for patterns in (CLOSED_F3, SIX_VERTEX, EIGHT_VERTEX):
        assert first_bad_vertex(patterns, state.f, state.g) == first_bad_by_scan(patterns, state)
    no_two = all(x != 2 for col in f + g for x in col)
    admissible = no_two and first_bad_by_scan(CLOSED_F3, state) is None
    assert is_admissible_form(OneForm(shape=shape, fx=f, gy=g)) == admissible
    if m % 3 and n % 3:
        w = ToroidalOneForm(shape=shape, fx=[c[:n] for c in f], gy=g[:m])
        assert is_closed_toroidal(w) == closed_toroidal_by_wrap(w)


def rule_tables(patterns, rng, m, n):
    """Random f and g columns (lists) on which every vertex shows one of
    the patterns: a random g0, then each f column climbed from a random
    bottom value, a random top admitted at each vertex, and the next g
    column read off the table."""
    right = {(left, top, bottom): r for left, top, r, bottom in patterns}
    values = sorted({x for p in patterns for x in p})
    f, g = [], [[rng.choice(values) for _ in range(n)]]
    for _ in range(m):
        col, nxt = [rng.choice(values)], []
        for left in g[-1]:
            top = rng.choice([t for t in values if (left, t, col[-1]) in right])
            nxt.append(right[left, top, col[-1]])
            col.append(top)
        f.append(col)
        g.append(nxt)
    return f, g


@pytest.mark.parametrize("patterns", [CLOSED_F3, SIX_VERTEX, EIGHT_VERTEX],
                         ids=["F3", "six", "eight"])
def test_first_bad_vertex_names_planted_bad_vertices(patterns):
    # each planted edit changes one edge to another value of the table's
    # alphabet, which breaks the rule at the vertices on that edge; the
    # memo is cleared first, so each table is checked once through the
    # memo's misses and once through its hits
    rng = random.Random(11)
    values = sorted({x for p in patterns for x in p})
    for _ in range(60):
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        f, g = rule_tables(patterns, rng, m, n)
        state = LatticeState(shape=GridShape(m, n), field=GF3, f=f, g=g)
        assert first_bad_vertex(patterns, state.f, state.g) is None
        edits = rng.randint(1, 3)
        for _ in range(edits):
            col = rng.choice(rng.choice([f, g]))
            k = rng.randrange(len(col))
            col[k] = rng.choice([x for x in values if x != col[k]])
        state = LatticeState(shape=GridShape(m, n), field=GF3, f=f, g=g)
        expected = first_bad_by_scan(patterns, state)
        if edits == 1:
            assert expected is not None
        transfer._first_bad_row.cache_clear()
        assert first_bad_vertex(patterns, state.f, state.g) == expected
        # only the columns up to the first bad one are computed, and the
        # second call computes none
        misses = transfer._first_bad_row.cache_info().misses
        assert 1 <= misses <= (m if expected is None else expected[0])
        assert first_bad_vertex(patterns, state.f, state.g) == expected
        assert transfer._first_bad_row.cache_info().misses == misses


@pytest.mark.parametrize("m,n", SHAPES)
def test_count_six_matches_enumeration(m, n):
    assert count_six(GridShape(m, n)) == len(six_states(m, n))


@pytest.mark.parametrize("m,n", EIGHT_FREE_SHAPES)
def test_eight_count_matches_enumeration(m, n):
    shape = GridShape(m, n)
    assert count_states(EIGHT_VERTEX, shape) == len(eight_states(m, n))


@pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (4, 2)])
def test_toroidal_count_matches_enumeration(m, n):
    shape = GridShape(m, n)
    states = enumerate_six_toroidal(shape)
    assert count_six_toroidal(shape) == len(states)
    w = VertexWeights(1, Fraction(-2, 3), 0, Fraction(1, 2), 3, Fraction(-1, 4), 0, 0)
    table = {p: w.weight(*PATTERNS[p]) for p in SIX_VERTEX}
    assert weighted_sum(table, shape, toroidal=True) == direct_sum(w, states)


@pytest.mark.parametrize("m,n", SHAPES)
def test_six_boundary_counts_match_filtered_enumeration(m, n):
    shape = GridShape(m, n)
    fibers = {}
    for state in six_states(m, n):
        b = boundary_of(state)
        fibers[b] = fibers.get(b, 0) + 1
    for b, size in fibers.items():
        assert count_six(shape, boundary=b) == size
    for values in product((0, 1), repeat=2 * m + 2 * n):
        b = boundary(shape, GF3, values)
        assert count_six(shape, boundary=b) == fibers.get(b, 0)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(SHAPES), six_weights, st.data())
def test_six_partition_function_matches_direct_sum(shape, w, data):
    m, n = shape
    states = six_states(m, n)
    assert partition_function(w, GridShape(m, n), "six") == direct_sum(w, states)
    # a boundary realised by a state
    b = boundary_of(data.draw(st.sampled_from(states)))
    kept = [s for s in states if boundary_of(s) == b]
    assert partition_function(w, GridShape(m, n), "six", boundary=b) == direct_sum(w, kept)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(EIGHT_FREE_SHAPES), eight_weights)
def test_eight_partition_function_matches_direct_sum(shape, w):
    m, n = shape
    assert partition_function(w, GridShape(m, n), "eight") == direct_sum(w, eight_states(m, n))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SHAPES), eight_weights, st.data())
def test_eight_fixed_boundary_matches_direct_sum(shape, w, data):
    m, n = shape
    values = data.draw(st.lists(st.integers(0, 1), min_size=2 * m + 2 * n,
                                max_size=2 * m + 2 * n))
    b = boundary(GridShape(m, n), GF2, values)
    z = partition_function(w, GridShape(m, n), "eight", boundary=b)
    states = eight_states(m, n, b)
    assert z == direct_sum(w, states)
    if boundary_parity(b):
        assert z == 0 and states == ()


def test_six_boundary_with_no_states():
    shape = GridShape(2, 2)
    empty = boundary(shape, GF3, (1, 0, 0, 0, 0, 0, 0, 0))
    assert empty not in {boundary_of(s) for s in six_states(2, 2)}
    w = VertexWeights(1, 2, 3, 4, 5, 6, 0, 0)
    assert count_six(shape, boundary=empty) == 0
    assert partition_function(w, shape, "six", boundary=empty) == 0


def test_f3_boundary_value_two_admits_no_state():
    shape = GridShape(3, 2)
    b = boundary(shape, GF3, (0, 2, 0, 0, 2, 0, 1, 1, 1, 1))
    assert count_six(shape, boundary=b) == 0
    w = VertexWeights(1, 1, 1, 1, 1, 1, 0, 0)
    assert partition_function(w, shape, "six", boundary=b) == 0


def constant_sides(n, left, bottom, right, top):
    """The n x n F3 boundary whose four sides each carry one value."""
    return BoundarySpec(shape=GridShape(n, n), field=GF3,
                        f_bottom=(bottom,) * n, f_top=(top,) * n,
                        g_left=(left,) * n, g_right=(right,) * n)


DOMAIN_WALL = (1, 1, 0, 0)  # left, bottom, right, top
ANTI_DOMAIN_WALL = (0, 0, 1, 1)


@pytest.mark.parametrize("n", range(2, 13))
def test_domain_wall_counts_are_alternating_sign_matrices(n):
    # A(n) = prod_{k<n} (3k+1)! / (n+k)! alternating sign matrices (Zeilberger 1996)
    asm = prod(factorial(3 * k + 1) for k in range(n)) // prod(factorial(n + k) for k in range(n))
    shape = GridShape(n, n)
    assert count_states(SIX_VERTEX, shape, constant_sides(n, *DOMAIN_WALL)) == asm
    assert count_states(SIX_VERTEX, shape, constant_sides(n, *ANTI_DOMAIN_WALL)) == asm
    # the other two boundaries with adjacent sides 1 break left + top = right + bottom
    assert count_states(SIX_VERTEX, shape, constant_sides(n, 1, 0, 0, 1)) == 0
    assert count_states(SIX_VERTEX, shape, constant_sides(n, 0, 1, 1, 0)) == 0


@pytest.mark.parametrize("n", range(2, 12))
def test_domain_wall_sums_are_two_enumerations(n):
    # with a and b weights 1 the sum is the 2-enumeration of alternating sign
    # matrices, 2^(n(n-1)/2), or 2^n times it: the c vertices of one sign are
    # the matrix's -1 entries, those of the other its n more +1 entries
    low, high = 2 ** (n * (n - 1) // 2), 2 ** (n * (n + 1) // 2)
    shape = GridShape(n, n)
    for c_plus, c_minus, wall, anti in ((1, 2, low, high), (2, 1, high, low)):
        weights = {pattern: {("c", 1): c_plus, ("c", -1): c_minus}.get(PATTERNS[pattern], 1)
                   for pattern in SIX_VERTEX}
        assert weighted_sum(weights, shape, constant_sides(n, *DOMAIN_WALL)) == wall
        assert weighted_sum(weights, shape, constant_sides(n, *ANTI_DOMAIN_WALL)) == anti


def test_six_partition_function_refuses_f2_boundary():
    shape = GridShape(2, 2)
    b = boundary(shape, GF2, (0,) * 8)
    w = VertexWeights(1, 1, 1, 1, 1, 1, 0, 0)
    with pytest.raises(ValueError, match="F3"):
        partition_function(w, shape, "six", boundary=b)
    with pytest.raises(ValueError, match="F3"):
        count_six(shape, boundary=b)


def test_eight_partition_function_refuses_f3_boundary():
    shape = GridShape(2, 2)
    b = boundary(shape, GF3, (0,) * 8)
    with pytest.raises(ValueError, match="F2"):
        partition_function(VertexWeights(*(1,) * 8), shape, "eight", boundary=b)


@pytest.mark.parametrize("patterns,rule", [
    (CLOSED_F3, lambda left, top, bottom: (left + top - bottom) % 3),
    (SIX_VERTEX, lambda left, top, bottom: left + top - bottom),
    (EIGHT_VERTEX, lambda left, top, bottom: (left + top + bottom) % 2),
], ids=["closed", "six", "eight"])
def test_left_top_bottom_fix_right(patterns, rule):
    rights = {}
    for left, top, right, bottom in patterns:
        assert right == rule(left, top, bottom)
        assert rights.setdefault((left, top, bottom), right) == right
    assert len(rights) == len(patterns)
    # (left, bottom, right) fixes top as well: the walk's last column
    # follows one top bit per live g0
    assert len({(left, bottom, right) for left, top, right, bottom in patterns}) == len(patterns)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
def test_state_tables_list_what_count_states_counts(m, n):
    # in strictly increasing edge_tuple order, free, fixed and toroidal
    shape = GridShape(m, n)
    rng = random.Random(m * 10 + n)
    for patterns in (SIX_VERTEX, EIGHT_VERTEX):
        f, g = rng.choice(list(state_tables(patterns, shape)))
        realised = boundary(shape, GF3, [c[0] for c in f] + [c[-1] for c in f] + [*g[0], *g[-1]])
        assert (f, g) in state_tables(patterns, shape, realised)
        cases = [{}, {"toroidal": True}, {"boundary": realised}]
        for values in ((0, 1), (0, 1, 2)):
            bits = [rng.choice(values) for _ in range(2 * (m + n))]
            cases.append({"boundary": boundary(shape, GF3, bits)})
        for kw in cases:
            keys = [
                tuple(x for col in f for x in col) + tuple(x for col in g for x in col)
                for f, g in state_tables(patterns, shape, **kw)
            ]
            assert keys == sorted(set(keys))
            assert len(keys) == count_states(patterns, shape, **kw)


TABLES = {"six": SIX_VERTEX, "eight": EIGHT_VERTEX, "closed": CLOSED_F3}
# the oracle enters a frame per f entry; keep each comparison small
WALK_LIMIT = 7000


def listing_size(name, kind, shape):
    """At least the number of tables a walk lists.  Free and toroidal
    counts come from the sweep, or for CLOSED_F3, which it does not
    take, are the 3^(mn + m + n) and 3^(mn + 1) closed forms.  A pinned
    walk lists at most a coset of dimension (m - 1)(n - 1) of the
    closed forms over F2 (eight) or F3 (six and closed)."""
    m, n = shape.m, shape.n
    if kind == "pinned":
        return (2 if name == "eight" else 3) ** ((m - 1) * (n - 1))
    if name == "closed":
        return 3 ** (m * n + 1) if kind == "toroidal" else 3 ** (m * n + m + n)
    # the sweep's frontier spans m columns, and the diagonal reflection
    # keeps both tables: count the orientation with the shorter frontier
    short = GridShape(min(m, n), max(m, n))
    return count_states(TABLES[name], short, toroidal=kind == "toroidal")


WALK_CASES = [
    (name, kind, m, n)
    for name in TABLES
    for kind in ("free", "toroidal", "pinned")
    for m, n in product(range(2, 9), repeat=2)
    if m * n <= 16 and listing_size(name, kind, GridShape(m, n)) <= WALK_LIMIT
]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_state_tables_are_the_recursive_walk(data):
    # all three tables on shapes of up to 16 vertices: free, toroidal,
    # and pinned by random F2 or F3 boundaries (values of 2 and
    # unrealised boundaries among them) or by the boundary of a random
    # six-vertex state, which all three tables admit
    name, kind, m, n = data.draw(st.sampled_from(WALK_CASES))
    patterns, shape = TABLES[name], GridShape(m, n)
    kw = {"toroidal": True} if kind == "toroidal" else {}
    if kind == "pinned":
        if data.draw(st.booleans()):
            field = data.draw(st.sampled_from([GF2, GF3]))
            values = data.draw(st.lists(st.integers(0, field.p - 1),
                                        min_size=2 * (m + n), max_size=2 * (m + n)))
        else:
            field = GF3
            rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
            w, _ = form_from_coloring(random_proper_coloring(shape, rng))
            values = [c[0] for c in w.fx] + [c[-1] for c in w.fx] + [*w.gy[0], *w.gy[-1]]
        kw = {"boundary": boundary(shape, field, values)}
    tables = list(state_tables(patterns, shape, **kw))
    assert tables == list(recursive_state_tables(patterns, shape, **kw))


def walk_work(*args, **kw):
    """The tables state_tables yields and the work it does yielding them:
    the calls into transfer's code (each generator resumption is one),
    the C functions that code calls, among them the pattern lookup at
    each vertex step of a climb, and one per table yielded."""
    work = 0

    def count(frame, event, arg):
        nonlocal work
        if event in ("call", "c_call") and frame.f_code.co_filename == transfer.__file__:
            work += 1

    sys.setprofile(count)
    try:
        tables = list(state_tables(*args, **kw))
    finally:
        sys.setprofile(None)
    return tables, work + len(tables)


@pytest.mark.parametrize("m,n", [(2, 10), (3, 6)])
def test_pinned_walk_work_follows_its_states(m, n):
    # enumerate_eight charges the guard states * edge_count; checking the
    # last g column only after the last f column would try every f column
    # there, 2^(n - 1) times that per left g column
    shape = GridShape(m, n)
    rng = random.Random(m * 100 + n)
    for _ in range(3):
        bits = [rng.randint(0, 1) for _ in range(2 * (m + n) - 1)]
        b = boundary(shape, GF2, bits + [sum(bits) % 2])
        tables, work = walk_work(EIGHT_VERTEX, shape, b)
        assert len(tables) == 2 ** ((m - 1) * (n - 1))
        assert work <= 2 * len(tables) * shape.edge_count


@pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (4, 2), (4, 4), (2, 6)])
def test_toroidal_walk_work_follows_its_states(m, n):
    # enumerate_six_toroidal charges the toroidal count times edge_count,
    # not the free count it charged before (193662 states at 4x4 for
    # 2970); on the tall 2x6 torus, a last column that tried every top
    # value before matching g0 would climb past that
    shape = GridShape(m, n)
    tables, work = walk_work(SIX_VERTEX, shape, toroidal=True)
    assert len(tables) == count_six_toroidal(shape)
    assert work <= 2 * len(tables) * shape.edge_count


def test_state_tables_refuse_a_toroidal_boundary():
    shape = GridShape(2, 2)
    with pytest.raises(ValueError, match="toroidal"):
        list(state_tables(SIX_VERTEX, shape, boundary(shape, GF3, (0,) * 8), toroidal=True))


def test_weighted_sum_with_all_zero_weights_is_zero():
    table = dict.fromkeys(EIGHT_VERTEX, Fraction(0))
    assert weighted_sum(table, GridShape(3, 3)) == 0
    assert weighted_sum({}, GridShape(2, 2), toroidal=True) == 0


# -- lattice symmetries: a sum is the sum of its weights re-keyed
# through the map a symmetry of the lattice makes of one vertex


def half_turn(pattern):
    """A vertex turned through 180 degrees on the same shape: left and
    right swap, top and bottom swap, and every edge value flips."""
    left, top, right, bottom = pattern
    return (1 - right, 1 - bottom, 1 - left, 1 - top)


def transpose(pattern):
    """A vertex reflected in the diagonal, on the n x m shape: left and
    bottom swap, top and right swap."""
    left, top, right, bottom = pattern
    return (bottom, right, top, left)


@pytest.mark.parametrize("symmetry", [half_turn, transpose])
@pytest.mark.parametrize("table", [SIX_VERTEX, EIGHT_VERTEX], ids=["six", "eight"])
def test_symmetries_map_each_vertex_table_onto_itself(symmetry, table):
    assert set(map(symmetry, table)) == table


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([SIX_VERTEX, EIGHT_VERTEX]), st.integers(2, 4), st.integers(2, 4),
       st.booleans(), st.data())
def test_weighted_sum_is_invariant_under_the_lattice_symmetries(table, m, n, toroidal, data):
    w = {p: data.draw(ratios) for p in sorted(table)}
    z = weighted_sum(w, GridShape(m, n), toroidal=toroidal)
    turned = {half_turn(p): x for p, x in w.items()}
    assert weighted_sum(turned, GridShape(m, n), toroidal=toroidal) == z
    flipped = {transpose(p): x for p, x in w.items()}
    assert weighted_sum(flipped, GridShape(n, m), toroidal=toroidal) == z


def turned_boundary(b):
    """A fixed boundary turned through 180 degrees: each side is the
    opposite one, reversed, with every edge value flipped."""
    def turn(side):
        return tuple(1 - x for x in reversed(side))
    return BoundarySpec(b.shape, b.field, turn(b.f_top), turn(b.f_bottom),
                        turn(b.g_right), turn(b.g_left))


def transposed_boundary(b):
    """A fixed boundary reflected in the diagonal, on the n x m shape:
    the bottom and left sides swap, and so do the top and right."""
    return BoundarySpec(GridShape(b.shape.n, b.shape.m), b.field,
                        b.g_left, b.g_right, b.f_bottom, b.f_top)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([SIX_VERTEX, EIGHT_VERTEX]), st.integers(2, 4), st.integers(2, 4),
       st.data())
def test_fixed_boundary_sum_is_invariant_under_the_lattice_symmetries(table, m, n, data):
    shape = GridShape(m, n)
    w = {p: data.draw(ratios) for p in sorted(table)}
    count = 2 * m + 2 * n
    values = data.draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))
    b = boundary(shape, GF2, values)
    # a boundary the conservation laws admit, so that the sweep runs
    assume(transfer._admits(w, b))
    z = weighted_sum(w, shape, b)
    turned = {half_turn(p): x for p, x in w.items()}
    assert weighted_sum(turned, shape, turned_boundary(b)) == z
    flipped = {transpose(p): x for p, x in w.items()}
    assert weighted_sum(flipped, GridShape(n, m), transposed_boundary(b)) == z


def complement(pattern):
    """Every edge value of a vertex flipped: the same shape, with each
    weight's +1 and -1 swapped."""
    return tuple(1 - x for x in pattern)


def test_the_complement_swaps_each_weights_signs():
    for p, (letter, sign) in PATTERNS.items():
        assert PATTERNS[complement(p)] == (letter, -sign)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([SIX_VERTEX, EIGHT_VERTEX]),
       st.sampled_from([(2, 3), (3, 3), (4, 3), (3, 5)]),
       st.sampled_from(["free", "fixed", "toroidal"]), st.data())
def test_weighted_sum_is_invariant_under_the_complement(table, mn, kind, data):
    shape = GridShape(*mn)
    w = {p: data.draw(ratios) for p in sorted(table)}
    flipped = {complement(p): x for p, x in w.items()}
    b = flipped_b = None
    if kind == "fixed":
        # a boundary the conservation laws admit, so that the sweep runs
        count = 2 * shape.m + 2 * shape.n
        values = data.draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))
        b = boundary(shape, GF2, values)
        flipped_b = boundary(shape, GF2, [1 - x for x in values])
        assume(transfer._admits(w, b))
    toroidal = kind == "toroidal"
    z = weighted_sum(w, shape, b, toroidal=toroidal)
    assert weighted_sum(flipped, shape, flipped_b, toroidal=toroidal) == z


def gauged(table, letter, k):
    """The table with its letter's +1 weight times k and -1 weight over k."""
    scale = {(letter, 1): k, (letter, -1): 1 / Fraction(k)}
    return {p: x * scale.get(PATTERNS[p], 1) for p, x in table.items()}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 3), (3, 3), (3, 4)]), eight_weights, st.sampled_from("cd"),
       nonzero_ratios)
def test_toroidal_sum_is_gauge_invariant(mn, w, letter, k):
    # on the torus each closed row and column has as many 1 -> 0 steps as
    # 0 -> 1 steps, so every state has as many c(+1) as c(-1) vertices and
    # as many d(+1) as d(-1): Z reads c and d only through c1 c-1 and d1 d-1
    table = {p: w.weight(*PATTERNS[p]) for p in EIGHT_VERTEX}
    shape = GridShape(*mn)
    z = weighted_sum(table, shape, toroidal=True)
    assert weighted_sum(gauged(table, letter, k), shape, toroidal=True) == z


def test_a_free_boundary_sum_is_not_gauge_invariant():
    ones = dict.fromkeys(EIGHT_VERTEX, 1)
    shape = GridShape(2, 2)
    assert weighted_sum(ones, shape) == count_total(shape) == 256
    assert weighted_sum(gauged(ones, "c", 2), shape) == Fraction(577, 2)


# -- conservation laws: a fixed boundary that breaks one admits no state


# right = left or top or bottom: a table the walk can step, which keeps
# neither law, as (1, 1, 1, 0) shows, so no boundary is ruled out
OR_RULE = frozenset((left, top, left | top | bottom, bottom)
                    for left, top, bottom in product((0, 1), repeat=3))


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3)])
@pytest.mark.parametrize("patterns", [SIX_VERTEX, EIGHT_VERTEX, OR_RULE],
                         ids=["six", "eight", "or"])
def test_conservation_laws_meet_the_walk_on_every_boundary(patterns, m, n):
    shape = GridShape(m, n)
    for values in product((0, 1), repeat=2 * m + 2 * n):
        b = boundary(shape, GF2, values)
        walked = sum(1 for _ in state_tables(patterns, shape, b))
        assert count_states(patterns, shape, b) == walked


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3)]), six_weights)
def test_conservation_laws_with_weights_where_d_is_zero(mn, w):
    # the eight-vertex table with d = 0 keeps only six-vertex patterns
    # live, so both laws hold; some drawn a, b or c weights are 0 too
    shape = GridShape(*mn)
    table = {p: w.weight(*PATTERNS[p]) for p in EIGHT_VERTEX}
    for values in product((0, 1), repeat=2 * shape.m + 2 * shape.n):
        b = boundary(shape, GF2, values)
        states = [LatticeState.trusted(shape, GF2, f, g)
                  for f, g in state_tables(EIGHT_VERTEX, shape, b)]
        assert weighted_sum(table, shape, b) == direct_sum(w, states)


def test_a_boundary_the_conservation_laws_rule_out_is_not_swept(monkeypatch):
    def sweep(*args, **kwargs):
        raise AssertionError("a boundary ruled out was swept")

    monkeypatch.setattr(transfer, "_sweep", sweep)
    shape = GridShape(12, 12)
    odd = boundary(shape, GF2, (1,) + (0,) * 47)
    assert boundary_parity(odd) == 1
    assert count_states(EIGHT_VERTEX, shape, odd) == 0
    assert weighted_sum(dict.fromkeys(EIGHT_VERTEX, Fraction(1, 3)), shape, odd) == 0
    # even, but two arrows leave through the bottom and none come back
    unbalanced = boundary(shape, GF3, (1, 1) + (0,) * 46)
    assert count_states(SIX_VERTEX, shape, unbalanced) == 0
    with pytest.raises(AssertionError, match="swept"):
        count_states(EIGHT_VERTEX, shape, unbalanced)


# -- the paper's F2 counts, at sizes no listing reaches


@pytest.mark.parametrize("m", [8, 10])
def test_eight_vertex_fixed_boundary_counts_are_the_f2_closed_form(m):
    rng = random.Random(m)
    shape = GridShape(m, m)
    for parity in (0, 1):
        values = [rng.randrange(2) for _ in range(4 * m - 1)]
        values.append((sum(values) + parity) % 2)
        b = boundary(shape, GF2, values)
        assert boundary_parity(b) == parity
        expected = 0 if parity else 2 ** ((m - 1) * (m - 1))
        assert count_states(EIGHT_VERTEX, shape, b) == eightvertex.count_with_boundary(b) == expected


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 5), (5, 3)])
def test_eight_vertex_toroidal_counts_are_the_f2_closed_form(m, n):
    assert count_states(EIGHT_VERTEX, GridShape(m, n), toroidal=True) == 2 ** (m * n + 1)


# -- the size guard: a sum is charged its sweep, a listing its states


def test_cheap_sums_and_listings_need_no_force():
    assert count_six(GridShape(4, 3)) == len(enumerate_six(GridShape(4, 3))) == 18150
    s44 = GridShape(4, 4)
    assert count_six_toroidal(s44) == len(enumerate_six_toroidal(s44)) == 2970
    ones = VertexWeights(*(1,) * 8)
    s55 = GridShape(5, 5)
    assert partition_function(ones, s55, "eight") == count_total(s55) == 2 ** 35


def test_listing_refusals_build_nothing(monkeypatch):
    def build(*args):
        raise AssertionError("a refused listing started building")

    monkeypatch.setattr(forms_rect, "state_tables", build)
    monkeypatch.setattr(eightvertex, "state_tables", build)
    with pytest.raises(SizeGuardError, match="2\\^27"):
        enumerate_six(GridShape(5, 4))
    with pytest.raises(SizeGuardError, match="2\\^30"):
        enumerate_eight(GridShape(4, 4))
    s66 = GridShape(6, 6)
    with pytest.raises(SizeGuardError):
        enumerate_eight(s66, boundary=boundary(s66, GF2, (0,) * 24))


def test_force_reaches_the_sweep(monkeypatch):
    monkeypatch.setattr(grid, "SIZE_GUARD_BITS", 5)
    with pytest.raises(SizeGuardError):
        count_six(GridShape(4, 3))
    assert count_six(GridShape(4, 3), force=True) == 18150


# -- commuting row transfer matrices


def row_matrix(w, width):
    """The periodic row transfer matrix: entry (a, b) sums, over the
    horizontal bits of a closed row of the given width, the product of
    vertex weights with bottom bits a and top bits b."""
    table = {p: w.weight(*PATTERNS[p]) for p in PATTERNS}
    rows = []
    for a in range(1 << width):
        row = []
        for b in range(1 << width):
            total = Fraction(0)
            for h in product((0, 1), repeat=width):
                prod = Fraction(1)
                for i in range(width):
                    pattern = (h[i], b >> i & 1, h[(i + 1) % width], a >> i & 1)
                    prod *= table.get(pattern, 0)
                total += prod
            row.append(total)
        rows.append(row)
    return FieldMatrix.from_rows(QQ, rows)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_row_matrix_trace_is_the_toroidal_sum(m, n):
    w = random_weights(random.Random(m * 10 + n))
    t = row_matrix(w, m)
    power = t
    for _ in range(n - 1):
        power = matmul(power, t)
    trace = sum(power.entries[k * (power.cols + 1)] for k in range(power.rows))
    table = {p: w.weight(*PATTERNS[p]) for p in PATTERNS}
    assert trace == weighted_sum(table, GridShape(m, n), toroidal=True)


def test_solvable_weights_give_commuting_row_matrices():
    # R12 S13 T23 = T23 S13 R12 with R invertible makes t_S and t_T commute
    rng = random.Random(3)
    for _ in range(4):
        r, s, t = random_solvable_triple(rng)
        assert rank(weights_to_matrix(r)) == 4
        for width in (2, 3, 4):
            ts, tt = row_matrix(s, width), row_matrix(t, width)
            assert matmul(ts, tt) == matmul(tt, ts)
    pairs = [(random_weights(rng), random_weights(rng)) for _ in range(6)]
    assert any(
        matmul(row_matrix(s, 2), row_matrix(t, 2)) != matmul(row_matrix(t, 2), row_matrix(s, 2))
        for s, t in pairs
    )
