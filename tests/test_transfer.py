"""Differential tests: the transfer sweep against the state listings.

Counts are compared with the listings (enumerate_six,
enumerate_six_toroidal, enumerate_eight), which walk the same vertex
tables column by column and are checked against oracles of their own
in the module tests, and partition functions with a per-state product
of R-matrix components over those same lists, on shapes up to 3x3,
free, fixed and toroidal (TORUS) boundaries, and rational weights that
include zeros and negative values.  Also here: the column walk itself,
first_bad_vertex against a vertex scan, the conservation laws that rule
a fixed boundary out before any sweep, the refusal of a fixed boundary
of another shape and of TORUS where only free or fixed ones are taken,
the paper's F2 counts at sizes no listing reaches, the domain-wall 2-
and 3-enumerations and Izergin-Korepin determinant (its fraction_det
oracle checked against the Leibniz expansion), the weighted symmetries (half-turn, transpose,
complement, and gauge invariance on the torus), the F2 dualities of the
eight-vertex torus sum at symmetric weights, the gluing laws that
give the free and toroidal sums as sums of fixed ones and a fixed sum
as sums over a row or a column cut, what the size guard
charges sums and listings, and the commuting row transfer matrices of
weights that solve the Yang-Baxter equation.
"""

import random
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    fraction_det,
    periodic_at,
    random_solvable_triple,
    random_weights,
    recursive_state_tables,
    row_transfer,
)
from vertexforms import eightvertex, forms_rect, grid, transfer
from vertexforms.algebra import GF2, GF3, QQ, FieldMatrix, matmul, rank
from vertexforms.eightvertex import (
    boundary_parity,
    count_total,
    eight_state_tables,
    enumerate_eight,
)
from vertexforms.forms_rect import (
    OneForm,
    count_six,
    enumerate_six,
    form_from_coloring,
    is_admissible_form,
    random_proper_coloring,
)
from vertexforms.grid import (
    TORUS,
    BoundarySpec,
    GridShape,
    InputError,
    LatticeState,
    SizeGuardError,
    boundary_of,
    edges_at_vertex,
)
from vertexforms.toroidal import (
    CohomologyDecomposition,
    PeriodicField,
    ToroidalOneForm,
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
    assert count_six(shape, boundary=TORUS) == len(states)
    w = VertexWeights(1, Fraction(-2, 3), 0, Fraction(1, 2), 3, Fraction(-1, 4), 0, 0)
    table = {p: w.weight(*PATTERNS[p]) for p in SIX_VERTEX}
    assert weighted_sum(table, shape, TORUS) == direct_sum(w, states)


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


def three_enumeration(n):
    """A(n; 3), the 3-enumeration of n x n alternating sign matrices
    (Kuperberg 1996): for n = 2k + 1 it is 3^(k(k+1)) prod_{j=1..k}
    ((3j-1)! / (k+j)!)^2, and A(2k + 2; 3) is A(2k + 1; 3) 3^k (3k+2)! k!
    / ((2k+1)!)^2."""
    k = (n - 1) // 2
    odd = 3 ** (k * (k + 1)) * prod((Fraction(factorial(3 * j - 1), factorial(k + j)) ** 2
                                     for j in range(1, k + 1)), start=Fraction(1))
    if n % 2:
        return odd
    return odd * 3 ** k * factorial(3 * k + 2) * factorial(k) / factorial(2 * k + 1) ** 2


def test_three_enumeration_formula_names_the_known_values():
    assert [three_enumeration(n) for n in range(1, 7)] == [1, 2, 9, 90, 2025, 102060]


@pytest.mark.parametrize("n", range(2, 12))
def test_domain_wall_sums_are_three_enumerations(n):
    # weight 3 on the c vertices of the matrix's -1 entries, 1 elsewhere
    weights = {pattern: 3 if PATTERNS[pattern] == ("c", -1) else 1 for pattern in SIX_VERTEX}
    shape = GridShape(n, n)
    assert weighted_sum(weights, shape, constant_sides(n, *DOMAIN_WALL)) == three_enumeration(n)


def leibniz_det(rows):
    """The determinant as its sum over permutations, signed by inversions."""
    n = len(rows)
    return sum((-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
               * prod(rows[i][p[i]] for i in range(n))
               for p in permutations(range(n)))


def test_fraction_det_is_the_leibniz_expansion():
    assert fraction_det([[0, 1], [1, 0]]) == -1
    assert fraction_det([[0, 2, 1], [0, 1, 3], [4, 5, 6]]) == 20
    assert fraction_det([[1, 2], [2, 4]]) == 0
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 5)
        # zeros are common, so pivots go missing and rows swap
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.6 else 0
                 for _ in range(n)] for _ in range(n)]
        assert fraction_det(rows) == leibniz_det(rows)


def izergin_korepin(n, u, eta):
    """The domain-wall sum at a = u + eta, b = u, c = eta, d = 0
    (Korepin 1982; Izergin 1987): (ab)^(n^2) / (prod_{k<n} k!)^2 times
    det[phi^(i+j)(u)]_{i,j<n}, where phi(u) = 1/u - 1/(u + eta)."""
    def phi(k):  # the k-th derivative of phi at u
        return (-1) ** k * factorial(k) * (u ** -(k + 1) - (u + eta) ** -(k + 1))

    scale = ((u + eta) * u) ** (n * n) / prod(factorial(k) for k in range(n)) ** 2
    return scale * fraction_det([[phi(i + j) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("sign", [1, -1], ids=["eta>0", "eta<0"])
@pytest.mark.parametrize("n", range(2, 11))
def test_domain_wall_sums_are_the_izergin_korepin_determinant(n, sign):
    # a = u + eta, b = u, c = eta is the rational point Delta = 1:
    # a^2 + b^2 - c^2 = 2ab
    rng = random.Random(10 * n + (sign > 0))
    u = eta = Fraction(0)
    while not u or not u + eta:
        u = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        eta = sign * Fraction(rng.randint(1, 9), rng.randint(1, 9))
    w = VertexWeights(u + eta, u + eta, u, u, eta, eta, 0, 0)
    weights = {pattern: w.weight(*PATTERNS[pattern]) for pattern in SIX_VERTEX}
    shape, z = GridShape(n, n), izergin_korepin(n, u, eta)
    assert z
    assert weighted_sum(weights, shape, constant_sides(n, *DOMAIN_WALL)) == z
    assert weighted_sum(weights, shape, constant_sides(n, *ANTI_DOMAIN_WALL)) == z


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
        cases = [{}, {"boundary": TORUS}, {"boundary": realised}]
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
    return count_states(TABLES[name], short, TORUS if kind == "toroidal" else None)


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
    kw = {"boundary": TORUS} if kind == "toroidal" else {}
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
    tables, work = walk_work(SIX_VERTEX, shape, TORUS)
    assert len(tables) == count_six(shape, boundary=TORUS)
    assert work <= 2 * len(tables) * shape.edge_count


@pytest.mark.parametrize("m,n", [(3, 2), (3, 3), (2, 3)])
def test_the_engine_refuses_a_fixed_boundary_of_another_shape(m, n):
    # a side of another length would be read short, or past its end
    shape, b = GridShape(m, n), boundary(GridShape(2, 2), GF3, (0,) * 8)
    message = re.escape(f"boundary is for shape (2, 2), which does not match "
                        f"the shape requested ({m}, {n})")
    with pytest.raises(InputError, match=message):
        count_states(SIX_VERTEX, shape, b)
    with pytest.raises(InputError, match=message):
        weighted_sum(dict.fromkeys(EIGHT_VERTEX, Fraction(1, 2)), shape, b)
    with pytest.raises(InputError, match=message):
        next(state_tables(SIX_VERTEX, shape, b))


def test_free_or_fixed_callers_refuse_the_torus_by_name():
    # they take a free or a fixed boundary; TORUS is refused input, not
    # read as a BoundarySpec (AttributeError: no attribute 'shape')
    shape = GridShape(2, 2)
    message = "^takes a free or fixed boundary, not TORUS$"
    with pytest.raises(InputError, match=message):
        grid.check_boundary(TORUS, shape)
    with pytest.raises(InputError, match=message):
        partition_function(VertexWeights(*(1,) * 8), shape, "eight", boundary=TORUS)
    with pytest.raises(InputError, match=message):
        partition_function(VertexWeights(1, 1, 1, 1, 1, 1, 0, 0), shape, "six",
                           boundary=TORUS)
    with pytest.raises(InputError, match=message):
        enumerate_eight(shape, TORUS)
    with pytest.raises(InputError, match=message):
        eight_state_tables(shape, TORUS)


def test_weighted_sum_with_all_zero_weights_is_zero():
    table = dict.fromkeys(EIGHT_VERTEX, Fraction(0))
    assert weighted_sum(table, GridShape(3, 3)) == 0
    assert weighted_sum({}, GridShape(2, 2), TORUS) == 0


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
       st.sampled_from([None, TORUS]), st.data())
def test_weighted_sum_is_invariant_under_the_lattice_symmetries(table, m, n, b, data):
    w = {p: data.draw(ratios) for p in sorted(table)}
    z = weighted_sum(w, GridShape(m, n), b)
    turned = {half_turn(p): x for p, x in w.items()}
    assert weighted_sum(turned, GridShape(m, n), b) == z
    flipped = {transpose(p): x for p, x in w.items()}
    assert weighted_sum(flipped, GridShape(n, m), b) == z


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
    assume(transfer._plan(w, shape, b, False) is not None)
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
        assume(transfer._plan(w, shape, b, False) is not None)
    if kind == "toroidal":
        b = flipped_b = TORUS
    z = weighted_sum(w, shape, b)
    assert weighted_sum(flipped, shape, flipped_b) == z


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
    z = weighted_sum(table, shape, TORUS)
    assert weighted_sum(gauged(table, letter, k), shape, TORUS) == z


def test_a_free_boundary_sum_is_not_gauge_invariant():
    ones = dict.fromkeys(EIGHT_VERTEX, 1)
    shape = GridShape(2, 2)
    assert weighted_sum(ones, shape) == count_total(shape) == 256
    assert weighted_sum(gauged(ones, "c", 2), shape) == Fraction(577, 2)


# -- the F2 dualities of the eight-vertex torus sum at symmetric weights,
# a1 = a-1 = a and likewise for b, c and d (Wegner 1973; Baxter 1982,
# ch. 10): the sum over the F2 space of toroidal states is unchanged by
# its Fourier transform, the weak-graph map, and by two swaps of letters


def symmetric_table(a, b, c, d):
    letters = {"a": a, "b": b, "c": c, "d": d}
    return {p: letters[PATTERNS[p][0]] for p in EIGHT_VERTEX}


def weak_graph(a, b, c, d):
    """The weak-graph transformation, an involution: H / 2 for the 4x4
    Hadamard matrix H."""
    return ((a + b + c + d) / 2, (a + b - c - d) / 2, (a - b + c - d) / 2,
            (a - b - c + d) / 2)


DUALITIES = {
    "weak-graph": weak_graph,
    "c-d": lambda a, b, c, d: (a, b, d, c),
    "a-b": lambda a, b, c, d: (b, a, c, d),
}

positive_ratios = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))


@pytest.mark.parametrize("duality", DUALITIES.values(), ids=DUALITIES.keys())
@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(2, 6), st.tuples(*[positive_ratios] * 4))
def test_the_eight_vertex_torus_sum_is_unchanged_by_its_f2_dualities(duality, m, n, w):
    # positive weights give a positive sum; the weak-graph image of w
    # has the same sum and its weights can take either sign, so each law
    # is checked there too
    shape = GridShape(m, n)
    z = weighted_sum(symmetric_table(*w), shape, TORUS)
    assert z > 0
    for weights in (w, weak_graph(*w)):
        assert weighted_sum(symmetric_table(*duality(*weights)), shape, TORUS) == z


def test_the_free_eight_vertex_sum_moves_under_the_weak_graph_map():
    # the negative control: the law holds on the torus, not on a free lattice
    rng = random.Random(5)
    w = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4)]
    shape = GridShape(3, 3)
    assert weighted_sum(symmetric_table(*weak_graph(*w)), shape, TORUS) == \
        weighted_sum(symmetric_table(*w), shape, TORUS)
    assert weighted_sum(symmetric_table(*weak_graph(*w)), shape) != \
        weighted_sum(symmetric_table(*w), shape)


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
        states = [LatticeState.trusted(shape=shape, field=GF2, f=f, g=g)
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
    assert count_states(EIGHT_VERTEX, GridShape(m, n), TORUS) == 2 ** (m * n + 1)


# -- gluing laws: the free and toroidal sums from the fixed ones, and a
# fixed sum from the fixed sums of its two halves


def letter_table(patterns, seed):
    """The patterns' weights from random_weights: rationals, zero and
    negative among them."""
    w = random_weights(random.Random(seed))
    return {p: w.weight(*PATTERNS[p]) for p in patterns}


@pytest.mark.parametrize("table", [SIX_VERTEX, EIGHT_VERTEX], ids=["six", "eight"])
@pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (3, 4), (4, 4)])
def test_the_toroidal_sum_glues_the_fixed_sums(table, m, n):
    # Baxter 1982, ch. 8: the toroidal sum is the trace of the row
    # transfer matrix, so it sums the fixed sums over the boundaries
    # whose top row is the bottom one and whose right column the left one
    shape = GridShape(m, n)
    w = letter_table(table, 10 * m + n)
    terms = [weighted_sum(w, shape, boundary(shape, GF2, s + s + h + h))
             for s in product((0, 1), repeat=m) for h in product((0, 1), repeat=n)]
    assert any(terms)
    assert weighted_sum(w, shape, TORUS) == sum(terms)


@pytest.mark.parametrize("table,m,n", [(SIX_VERTEX, 2, 3), (EIGHT_VERTEX, 2, 3),
                                       (SIX_VERTEX, 3, 3)],
                         ids=["six-2x3", "eight-2x3", "six-3x3"])
def test_the_free_sum_glues_the_fixed_sums(table, m, n):
    # a free boundary edge ranges over {0, 1}: the free sum is the sum
    # of the fixed sums over every boundary
    shape = GridShape(m, n)
    w = letter_table(table, 10 * m + n + 1)
    terms = [weighted_sum(w, shape, boundary(shape, GF2, bits))
             for bits in product((0, 1), repeat=2 * (m + n))]
    assert any(terms)
    assert weighted_sum(w, shape) == sum(terms)


def state_boundary(table, shape, rng):
    """The boundary of a random state of the table, which the table
    admits: a six-vertex state's from a random proper coloring, and for
    eight a random boundary of even parity, which every eight-vertex
    state's boundary has and every one of which some state has."""
    if table is SIX_VERTEX:
        w, _ = form_from_coloring(random_proper_coloring(shape, rng))
        return boundary_of(LatticeState.trusted(shape=shape, field=GF3, f=w.fx, g=w.gy))
    values = [rng.randrange(2) for _ in range(2 * (shape.m + shape.n) - 1)]
    return boundary(shape, GF2, values + [sum(values) % 2])


def weighted_case(table, shape, seed):
    """(letter_table weights, state_boundary) from the first seed on
    whose sum is not 0: zero weights can rule out every state of a
    boundary, and a law is shown only on a sum that has terms."""
    for seed in range(seed, seed + 100):
        w = letter_table(table, seed)
        b = state_boundary(table, shape, random.Random(seed))
        if weighted_sum(w, shape, b):
            return w, b
    raise AssertionError("no nonzero fixed sum in 100 draws")


@pytest.mark.parametrize("table", [SIX_VERTEX, EIGHT_VERTEX], ids=["six", "eight"])
@pytest.mark.parametrize("m,low,high", [(2, 2, 2), (3, 2, 3), (5, 3, 2), (4, 2, 6),
                                        (6, 4, 4)])
def test_a_fixed_sum_glues_across_a_row_cut(table, m, low, high):
    # Baxter 1982, ch. 8: the sweep is a product of row transfer matrices,
    # so the sum on m x (low + high) is the sum, over the m vertical edges
    # a cut above row low crosses, of the product of the fixed sums below
    # and above the cut
    shape, below, above = GridShape(m, low + high), GridShape(m, low), GridShape(m, high)
    w, b = weighted_case(table, shape, 100 * m + 10 * low + high)
    terms = [weighted_sum(w, below, BoundarySpec(
                 shape=below, field=b.field, f_bottom=b.f_bottom, f_top=cut,
                 g_left=b.g_left[:low], g_right=b.g_right[:low]))
             * weighted_sum(w, above, BoundarySpec(
                 shape=above, field=b.field, f_bottom=cut, f_top=b.f_top,
                 g_left=b.g_left[low:], g_right=b.g_right[low:]))
             for cut in product((0, 1), repeat=m)]
    assert any(terms)
    assert weighted_sum(w, shape, b) == sum(terms)


@pytest.mark.parametrize("table", [SIX_VERTEX, EIGHT_VERTEX], ids=["six", "eight"])
@pytest.mark.parametrize("left,right,n", [(2, 2, 2), (2, 3, 3), (3, 2, 5), (4, 4, 6),
                                          (4, 4, 8)])
def test_a_fixed_sum_glues_across_a_column_cut(table, left, right, n):
    # the same law along the other side: a cut right of column left
    # crosses n horizontal edges
    shape = GridShape(left + right, n)
    west, east = GridShape(left, n), GridShape(right, n)
    w, b = weighted_case(table, shape, 100 * left + 10 * right + n)
    terms = [weighted_sum(w, west, BoundarySpec(
                 shape=west, field=b.field, f_bottom=b.f_bottom[:left],
                 f_top=b.f_top[:left], g_left=b.g_left, g_right=cut))
             * weighted_sum(w, east, BoundarySpec(
                 shape=east, field=b.field, f_bottom=b.f_bottom[left:],
                 f_top=b.f_top[left:], g_left=cut, g_right=b.g_right))
             for cut in product((0, 1), repeat=n)]
    assert any(terms)
    assert weighted_sum(w, shape, b) == sum(terms)


# -- the size guard: a sum is charged its sweep, a listing its states


def test_cheap_sums_and_listings_need_no_force():
    assert count_six(GridShape(4, 3)) == len(enumerate_six(GridShape(4, 3))) == 18150
    s44 = GridShape(4, 4)
    assert count_six(s44, boundary=TORUS) == len(enumerate_six_toroidal(s44)) == 2970
    ones = VertexWeights(*(1,) * 8)
    s55 = GridShape(5, 5)
    assert partition_function(ones, s55, "eight") == count_total(s55) == 2 ** 35


def counting_sweep(updates):
    """transfer._sweep, line for line, that adds each vertex step's dict
    updates, one per key and live move, to updates[0]."""
    def sweep(moves, m, n, frontier, left=None, right=None, toroidal=False):
        hbit = 1 << m
        low = hbit - 1
        for j in range(n):
            row = {}
            for s, v in frontier.items():
                for h in ((0, 1) if left is None else (left[j],)):
                    row[s | h << m | (h << m + 1 if toroidal else 0)] = v
            for i in range(m):
                vbit = 1 << i
                nxt: dict = {}
                for key, v in row.items():
                    rest = key & ~(vbit | hbit)
                    steps = moves[key >> m & 1, key >> i & 1]
                    updates[0] += len(steps)
                    for top, r, w in steps:
                        k = rest | top << i | r << m
                        nxt[k] = nxt.get(k, 0) + v * w
                row = nxt
            frontier = {}
            for key, v in row.items():
                r = key >> m & 1
                if right is not None and r != right[j]:
                    continue
                if toroidal and r != key >> m + 1:
                    continue
                s = key & low
                frontier[s] = frontier.get(s, 0) + v
        return frontier
    return sweep


def charged_and_done(table, shape, b):
    """(sum, charges, dict updates) of one weighted_sum, with the guard's
    charges captured and the sweep's updates counted."""
    updates, charges = [0], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "_sweep", counting_sweep(updates))
        mp.setattr(transfer, "guard_cost", lambda units, force: charges.append(units))
        z = weighted_sum(table, shape, b)
    return z, charges, updates[0]


# the most the charge overstates a count's dict updates, as measured on
# every shape from 2x2 to 7x7: 1.33 free, 2.11 on the 2x2 torus, 1.85 on
# the domain wall and 6 on a random pinned boundary (4x3, summing to 0)
CHARGE_FACTORS = {"free": 1.5, "toroidal": 2.2, "domain wall": 2.2, "pinned": 6}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from([SIX_VERTEX, EIGHT_VERTEX]), st.sampled_from(sorted(CHARGE_FACTORS)),
       st.integers(2, 6), st.integers(2, 6), st.data())
def test_the_charge_bounds_the_sweeps_work(table, kind, m, n, data):
    if kind == "domain wall":
        n = m
    shape = GridShape(m, n)
    b = {"free": None, "toroidal": TORUS}.get(kind)
    if kind == "domain wall":
        b = constant_sides(m, *DOMAIN_WALL)
    elif kind == "pinned":
        b = boundary(shape, GF2, data.draw(st.lists(st.integers(0, 1), min_size=2 * m + 2 * n,
                                                    max_size=2 * m + 2 * n)))
    ones = dict.fromkeys(table, 1)
    z, charges, work = charged_and_done(ones, shape, b)
    assert z == count_states(table, shape, b)
    if not charges:  # a law ruled the boundary out: no charge and no sweep
        assert kind == "pinned" and z == work == 0
        return
    # the vertex count first, a lower bound, then the plan's charge
    vertices, charge = charges
    assert vertices == shape.vertex_count <= charge
    assert work <= charge <= CHARGE_FACTORS[kind] * work
    # live weights only shrink the work below the charge
    w = {p: data.draw(st.integers(-2, 2)) for p in sorted(table)}
    z, charges, work = charged_and_done(w, shape, b)
    assert work <= max(charges, default=0)


def test_a_tall_sum_is_swept_along_its_short_side():
    # the 16x4 count sweeps 4 columns, as its 4x16 transpose does
    z, charges, work = charged_and_done(dict.fromkeys(SIX_VERTEX, 1), GridShape(16, 4), None)
    assert charges == [64, 2 ** 5 * 2 * 4 * 16] and work == 3 * 2 ** 10
    assert z == count_six(GridShape(4, 16)) == 427654276187965518


def walked_sum(w, shape, b):
    """The direct sum over state_tables' labelings, which the column walk
    lists in the lattice's own orientation, of the product of w at each
    vertex, read from the tables as edges_at_vertex reads a state."""
    total = 0
    for f, g in state_tables(w, shape, b):
        total += prod(w[g[i][j], f[i][j + 1], g[i + 1][j], f[i][j]]
                      for i in range(shape.m) for j in range(shape.n))
    return total


TALL = [(3, 2), (4, 2), (5, 2), (4, 3), (5, 3)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([SIX_VERTEX, EIGHT_VERTEX]), st.sampled_from(TALL),
       st.sampled_from(["free", "fixed", "toroidal"]), st.data())
def test_tall_sums_are_the_walks_direct_sums(table, mn, kind, data):
    shape = GridShape(*mn)
    # the free eight-vertex walk lists 2^(m + n + mn) states; keep it small
    assume(not (table is EIGHT_VERTEX and kind == "free" and shape.vertex_count > 8))
    w = {p: data.draw(st.integers(-3, 3)) for p in sorted(table)}
    b = {"free": None, "toroidal": TORUS}.get(kind)
    if kind == "fixed":
        count = 2 * shape.m + 2 * shape.n
        b = boundary(shape, GF2, data.draw(st.lists(st.integers(0, 1), min_size=count,
                                                    max_size=count)))
    assert weighted_sum(w, shape, b) == walked_sum(w, shape, b)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.sampled_from([(3, 2), (4, 2), (4, 3)]), eight_weights)
def test_tall_toroidal_sums_are_row_transfer_traces(mn, w):
    # rows of m vertices, m > n: the trace of the row matrix to the n
    m, n = mn
    t = row_matrix(w, m)
    power = t
    for _ in range(n - 1):
        power = matmul(power, t)
    trace = sum(power.entries[k * (power.cols + 1)] for k in range(power.rows))
    table = {p: w.weight(*PATTERNS[p]) for p in PATTERNS}
    assert weighted_sum(table, GridShape(m, n), TORUS) == trace


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
    """conftest's row_transfer as a matrix over Q, for matmul."""
    return FieldMatrix.from_rows(QQ, row_transfer(w, width))


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_row_matrix_trace_is_the_toroidal_sum(m, n):
    w = random_weights(random.Random(m * 10 + n))
    t = row_matrix(w, m)
    power = t
    for _ in range(n - 1):
        power = matmul(power, t)
    trace = sum(power.entries[k * (power.cols + 1)] for k in range(power.rows))
    table = {p: w.weight(*PATTERNS[p]) for p in PATTERNS}
    assert trace == weighted_sum(table, GridShape(m, n), TORUS)


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
