import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import ReplayRandom, affine_span, backtrack_colorings, mat_vec, vertex_index
from vertexforms.algebra import GF2, GF3, FieldMatrix, nullspace_basis, rank
from vertexforms import forms_rect
from vertexforms.forms_rect import (
    Coloring,
    OneForm,
    ScalarField,
    _differences,
    _potential,
    antiderivative,
    closedness_matrix,
    coloring_from_form,
    count_colorings,
    count_six,
    enumerate_closed,
    enumerate_six,
    exterior_derivative,
    form_from_coloring,
    is_admissible_form,
    is_admissible_six,
    is_closed,
    is_proper,
    random_closed_form,
    random_closed_forms,
    random_proper_coloring,
    six_state_tables,
    state_to_form,
)
from vertexforms.grid import (
    TORUS,
    BoundarySpec,
    GridShape,
    LatticeState,
    SizeGuardError,
    boundary_of,
    f_edge_index,
    g_edge_index,
)
from vertexforms.toroidal import PeriodicField, ToroidalOneForm
from vertexforms.transfer import first_bad_vertex


def scalar(shape, fn):
    m, n = shape.m, shape.n
    return ScalarField(
        shape=shape,
        h=tuple(
            tuple(fn(i, j) % 3 for j in range(1, n + 2)) for i in range(1, m + 2)
        ),
    )


def zero_state(m, n):
    return LatticeState(
        shape=GridShape(m, n),
        field=GF3,
        f=[[0] * (n + 1) for _ in range(m)],
        g=[[0] * n for _ in range(m + 1)],
    )


S22 = GridShape(2, 2)


def test_partial_derivatives_on_named_fields():
    const = exterior_derivative(scalar(S22, lambda i, j: 1))
    assert all(x == 0 for row in const.fx for x in row)
    assert all(x == 0 for row in const.gy for x in row)
    coord_x = exterior_derivative(scalar(S22, lambda i, j: i))
    assert all(x == 1 for row in coord_x.fx for x in row)
    assert all(x == 0 for row in coord_x.gy for x in row)
    prod_field = exterior_derivative(scalar(S22, lambda i, j: i * j))
    px, py = prod_field.fx, prod_field.gy
    for i in range(1, 3):
        for j in range(1, 4):
            assert px[i - 1][j - 1] == j % 3
    for i in range(1, 4):
        for j in range(1, 3):
            assert py[i - 1][j - 1] == i % 3


def test_exterior_derivative_of_linear_fields():
    dx = exterior_derivative(scalar(S22, lambda i, j: i))
    assert all(x == 1 for row in dx.fx for x in row)
    assert all(x == 0 for row in dx.gy for x in row)
    dxy = exterior_derivative(scalar(S22, lambda i, j: i + j))
    assert all(x == 1 for row in dxy.fx for x in row)
    assert all(x == 1 for row in dxy.gy for x in row)


def test_derivative_output_is_closed():
    rng = random.Random(3)
    for _ in range(40):
        h = scalar(S22, lambda i, j: rng.randrange(3))
        assert is_closed(exterior_derivative(h))


def test_closedness_detects_perturbation():
    rng = random.Random(4)
    h = scalar(S22, lambda i, j: rng.randrange(3))
    w = exterior_derivative(h)
    fx = [list(r) for r in w.fx]
    fx[0][1] = (fx[0][1] + 1) % 3
    assert not is_closed(OneForm(shape=S22, fx=fx, gy=w.gy))


def test_antiderivative_named_examples():
    zero = OneForm(shape=S22, fx=[[0] * 3] * 2, gy=[[0] * 2] * 3)
    assert all(x == 0 for row in antiderivative(zero).h for x in row)
    dx = OneForm(shape=S22, fx=[[1] * 3] * 2, gy=[[0] * 2] * 3)
    h = antiderivative(dx)
    for i in range(1, 4):
        for j in range(1, 4):
            assert h.h[i - 1][j - 1] == (i - 1) % 3


def test_antiderivative_recovers_potential_up_to_constant():
    rng = random.Random(5)
    for _ in range(40):
        h0 = scalar(S22, lambda i, j: rng.randrange(3))
        w = exterior_derivative(h0)
        h = antiderivative(w)
        assert h.h[0][0] == 0
        diff = {(x - x0) % 3 for col, col0 in zip(h.h, h0.h) for x, x0 in zip(col, col0)}
        assert len(diff) == 1
        dh = exterior_derivative(h)
        assert dh.fx == w.fx and dh.gy == w.gy


def test_antiderivative_requires_closed():
    bad = OneForm(shape=S22, fx=[[1, 0, 0], [0, 0, 0]], gy=[[0, 0]] * 3)
    assert not is_closed(bad)
    with pytest.raises(ValueError, match="closed"):
        antiderivative(bad)


def partials_by_loop(h, m, n):
    """Oracle: (D_x h, D_y h) entry by entry."""
    dx = tuple(tuple((h[i + 1][j] - h[i][j]) % 3 for j in range(n + 1)) for i in range(m))
    dy = tuple(tuple((h[i][j + 1] - h[i][j]) % 3 for j in range(n)) for i in range(m + 1))
    return dx, dy


def antiderivative_by_loop(w):
    """Oracle: the bottom row's fx summed up to column i, then gy up column i."""
    m, n = w.shape.m, w.shape.n
    h = []
    for i in range(m + 1):
        base = 0
        for a in range(i):
            base = (base + w.fx[a][0]) % 3
        col = [base]
        for b in range(n):
            col.append((col[-1] + w.gy[i][b]) % 3)
        h.append(tuple(col))
    return tuple(h)


def closedness_matrix_by_hand(shape):
    """Oracle: fx[i][j+1] - fx[i][j] - gy[i+1][j] + gy[i][j] at each vertex, over F3."""
    rows = [[0] * shape.edge_count for _ in range(shape.vertex_count)]
    for i in range(1, shape.m + 1):
        for j in range(1, shape.n + 1):
            row = rows[vertex_index(shape, i, j)]
            row[f_edge_index(shape, i, j + 1)] = 1
            row[f_edge_index(shape, i, j)] = 2
            row[g_edge_index(shape, i + 1, j)] = 2
            row[g_edge_index(shape, i, j)] = 1
    return FieldMatrix.from_rows(GF3, rows)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 5), st.integers(2, 5), st.randoms(use_true_random=False))
def test_rectangle_calculus_matches_the_loops(m, n, rng):
    shape = GridShape(m, n)
    h = ScalarField(shape=shape, h=[[rng.randrange(3) for _ in range(n + 1)]
                                    for _ in range(m + 1)])
    dh = exterior_derivative(h)
    assert (dh.fx, dh.gy) == partials_by_loop(h.h, m, n)
    w = random_closed_form(shape, rng)
    assert _differences(_potential(w.fx, w.gy)) == (w.fx, w.gy)
    assert antiderivative(w).h == antiderivative_by_loop(w)


@pytest.mark.parametrize("m,n", list(product(range(2, 6), repeat=2)))
def test_closedness_matrix_is_the_hand_built_matrix(m, n):
    shape = GridShape(m, n)
    assert closedness_matrix(shape) == closedness_matrix_by_hand(shape)


def test_closedness_matrix_rank():
    assert rank(closedness_matrix(S22)) == 4
    assert rank(closedness_matrix(GridShape(3, 4))) == 12


def test_enumerate_closed_spans_kernel():
    forms = enumerate_closed(S22)
    assert len(forms) == 3 ** 8
    assert all(is_closed(w) for w in forms)
    assert len({(w.fx, w.gy) for w in forms}) == len(forms)


def kernel_listing(shape):
    """Oracle: edge tuples of the kernel of closedness_matrix, in order."""
    basis = nullspace_basis(closedness_matrix(shape))
    return list(affine_span(GF3, [0] * shape.edge_count, basis))


def form_from_vector(shape, vec):
    """Oracle: slice an edge_tuple-ordered vector into its fx and gy columns."""
    n, cut = shape.n, shape.f_edge_count
    fx = [vec[k:k + n + 1] for k in range(0, cut, n + 1)]
    gy = [vec[k:k + n] for k in range(cut, shape.edge_count, n)]
    return OneForm(shape=shape, fx=fx, gy=gy)


def test_enumerate_closed_is_the_kernel_listing():
    assert enumerate_closed(S22) == [form_from_vector(S22, v) for v in kernel_listing(S22)]
    # 3^11 forms at 2x3: compare edge tuples, not OneForms
    shape = GridShape(2, 3)
    listed = [sum(w.fx, ()) + sum(w.gy, ()) for w in enumerate_closed(shape)]
    assert listed == kernel_listing(shape)


def test_poincare_exhaustive_2x2():
    for w in enumerate_closed(S22):
        dh = exterior_derivative(antiderivative(w))
        assert dh.fx == w.fx and dh.gy == w.gy


def test_poincare_random_4x4():
    rng = random.Random(6)
    shape = GridShape(4, 4)
    for _ in range(200):
        w = random_closed_form(shape, rng)
        assert is_closed(w)
        dh = exterior_derivative(antiderivative(w))
        assert dh.fx == w.fx and dh.gy == w.gy


@pytest.mark.parametrize("m,n,k", [(2, 2, 1), (3, 4, 25), (6, 6, 10)])
def test_random_closed_forms_repeat_the_single_draws(m, n, k):
    shape = GridShape(m, n)
    rngs = [random.Random(m * n + k) for _ in range(2)]
    batch = random_closed_forms(shape, rngs[0], k)
    assert len(batch) == k
    assert [random_closed_form(shape, rngs[1]) for _ in range(k)] == batch
    assert rngs[0].getstate() == rngs[1].getstate()
    assert random_closed_forms(shape, rngs[0], 0) == []
    assert rngs[0].getstate() == rngs[1].getstate()


def test_random_closed_forms_map_the_draws_onto_the_closed_forms():
    # a 2x2 form is three draws: gy's first column below 3^2, then fx's
    # two columns below 3^3 each; every draw triple in turn must give
    # 3^8 distinct forms, which are then every closed form
    triples = list(product(range(9), range(27), range(27)))
    rng = ReplayRandom((x for t in triples for x in t), (9, 27, 27))
    forms = random_closed_forms(S22, rng, len(triples))
    assert next(rng.draws, None) is None
    assert len(set(forms)) == len(forms) == 3 ** 8
    assert set(forms) == set(enumerate_closed(S22))


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 8), st.integers(2, 8), st.randoms(use_true_random=False))
def test_random_closed_forms_are_closed(m, n, rng):
    shape = GridShape(m, n)
    matrix = closedness_matrix(shape)
    for w in random_closed_forms(shape, rng, 3):
        assert is_closed(w)
        # the incidence rows, which read no vertex table, vanish on it too
        assert not any(mat_vec(matrix, sum(w.fx, ()) + sum(w.gy, ())))


def test_admissible_form_examples(rect_state):
    zero = OneForm(shape=S22, fx=[[0] * 3] * 2, gy=[[0] * 2] * 3)
    assert is_admissible_form(zero)
    with_two = OneForm(shape=S22, fx=[[0, 2, 0], [0, 0, 0]], gy=[[0, 0]] * 3)
    assert not is_admissible_form(with_two)
    assert is_admissible_form(state_to_form(rect_state))


def test_admissible_six_examples(rect_state):
    assert is_admissible_six(zero_state(2, 2))
    assert is_admissible_six(rect_state)
    flipped = LatticeState(
        shape=S22, field=GF3, f=[[1, 0, 0], [0, 0, 0]], g=[[0, 0]] * 3
    )
    assert not is_admissible_six(flipped)
    with_two = LatticeState(
        shape=S22, field=GF3, f=[[2, 0, 0], [0, 0, 0]], g=[[0, 0]] * 3
    )
    with pytest.raises(ValueError, match="values in {0, 1}"):
        is_admissible_six(with_two)
    over_f2 = LatticeState(
        shape=S22, field=GF2, f=[[0, 0, 0], [0, 0, 0]], g=[[0, 0]] * 3
    )
    with pytest.raises(ValueError, match="F3"):
        is_admissible_six(over_f2)


def test_state_form_round_trip_exhaustive_2x2():
    for state in enumerate_six(S22):
        w = state_to_form(state)
        assert is_closed(w) and is_admissible_form(w)
        assert LatticeState(shape=w.shape, field=GF3, f=w.fx, g=w.gy) == state


def test_stripe_colorings():
    zero = OneForm(shape=S22, fx=[[0] * 3] * 2, gy=[[0] * 2] * 3)
    c0 = coloring_from_form(zero, 0)
    for i in range(1, 4):
        for j in range(1, 4):
            assert c0.cells[i - 1][j - 1] == (i + j - 2) % 3
    c1 = coloring_from_form(zero, 1)
    assert all(
        x1 == (x0 + 1) % 3 for col1, col0 in zip(c1.cells, c0.cells) for x1, x0 in zip(col1, col0)
    )
    w, t = form_from_coloring(c0)
    assert t == 0 and all(x == 0 for row in w.fx for x in row)
    w, t = form_from_coloring(c1)
    assert t == 1 and all(x == 0 for row in w.gy for x in row)


def test_fixture_coloring_is_proper(rect_state):
    c = coloring_from_form(state_to_form(rect_state), 0)
    assert len(c.cells) == 6 and len(c.cells[0]) == 4
    assert is_proper(c)


def test_base_label_validation():
    zero = OneForm(shape=S22, fx=[[0] * 3] * 2, gy=[[0] * 2] * 3)
    with pytest.raises(ValueError, match="t"):
        coloring_from_form(zero, 3)


def test_coloring_from_form_refuses_with_its_message():
    not_closed = OneForm(shape=S22, fx=[[1, 0, 0], [0, 0, 0]], gy=[[0, 0]] * 3)
    closed_with_a_two = OneForm(shape=S22, fx=[[2] * 3] * 2, gy=[[0] * 2] * 3)
    assert not is_closed(not_closed) and is_closed(closed_with_a_two)
    for w in (not_closed, closed_with_a_two):
        with pytest.raises(ValueError,
                           match="^coloring_from_form requires an admissible closed form$"):
            coloring_from_form(w, 0)


def test_coloring_from_form_checks_its_form_once(monkeypatch):
    calls = []

    def counted(patterns, f, g):
        calls.append(patterns)
        return first_bad_vertex(patterns, f, g)

    monkeypatch.setattr(forms_rect, "first_bad_vertex", counted)
    w = state_to_form(zero_state(3, 2))
    c = coloring_from_form(w, 1)
    assert len(calls) == 1
    assert form_from_coloring(c) == (w, 1) and len(calls) == 1


def test_form_from_coloring_rejects_improper():
    flat = Coloring(shape=S22, cells=[[0] * 3] * 3)
    # proper along every row, one repeated label up the first column
    column_only = Coloring(shape=S22, cells=[[0, 0, 1], [1, 2, 0], [2, 1, 2]])
    for c in (flat, column_only):
        assert not is_proper(c)
        with pytest.raises(ValueError, match="proper"):
            form_from_coloring(c)


def all_proper_colorings(width, height):
    for cells in product((0, 1, 2), repeat=width * height):
        grid = tuple(
            cells[i * height : (i + 1) * height] for i in range(width)
        )
        c = Coloring(shape=GridShape(width - 1, height - 1), cells=grid)
        if is_proper(c):
            yield c


def test_bijection_exhaustive_2x2():
    # form side: every admissible state, every base label
    for state in enumerate_six(S22):
        w = state_to_form(state)
        for t in (0, 1, 2):
            w2, t2 = form_from_coloring(coloring_from_form(w, t))
            assert t2 == t and w2.fx == w.fx and w2.gy == w.gy
    # coloring side: every proper coloring of the 3x3 grid
    seen = 0
    for c in all_proper_colorings(3, 3):
        w, t = form_from_coloring(c)
        assert is_closed(w) and is_admissible_form(w)
        assert coloring_from_form(w, t) == c
        seen += 1
    assert seen == 246


def test_bijection_exhaustive_2x3():
    shape = GridShape(2, 3)
    for state in enumerate_six(shape):
        w = state_to_form(state)
        for t in (0, 1, 2):
            w2, t2 = form_from_coloring(coloring_from_form(w, t))
            assert t2 == t and w2.fx == w.fx and w2.gy == w.gy


def test_coloring_always_proper_2x2():
    for state in enumerate_six(S22):
        w = state_to_form(state)
        for t in (0, 1, 2):
            assert is_proper(coloring_from_form(w, t))


def test_frozen_counts():
    assert count_six(S22) == 82
    assert count_six(GridShape(2, 3)) == 374
    assert count_six(GridShape(3, 2)) == 374
    assert count_six(GridShape(3, 3)) == 2604
    assert count_colorings(1, 1) == 3
    assert count_colorings(1, 2) == 6
    assert count_colorings(3, 3) == 246
    assert count_colorings(3, 4) == 1122
    assert count_colorings(4, 3) == 1122
    assert count_colorings(4, 4) == 7812


def test_coloring_count_identity():
    # 6x6 and 8x5 colorings are past the backtracking oracle's reach
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 5), (7, 4), (4, 7)]:
        assert 3 * count_six(GridShape(m, n)) == count_colorings(m + 1, n + 1)


@settings(deadline=None, max_examples=40)
@given(st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(lambda s: s[0] * s[1] <= 20))
@example((1, 1))
@example((1, 12))
@example((12, 1))
@example((5, 4))
def test_count_colorings_matches_backtracking(shape):
    width, height = shape
    assert count_colorings(width, height) == backtrack_colorings(width, height)


def test_enumeration_sorted_and_admissible():
    states = enumerate_six(S22)
    assert len(states) == 82
    keys = [s.edge_tuple() for s in states]
    assert keys == sorted(keys)
    assert all(is_admissible_six(s) for s in states)


def test_size_guard_trips():
    with pytest.raises(SizeGuardError, match="2\\^42"):
        count_six(GridShape(30, 30))
    # the sweep runs along the short side, so a tall shape costs what its transpose does
    assert count_six(GridShape(30, 2)) == count_six(GridShape(2, 30))
    with pytest.raises(SizeGuardError):
        count_colorings(40, 40)
    with pytest.raises(SizeGuardError):
        enumerate_closed(GridShape(6, 6))


def test_random_proper_coloring_seeded():
    rng = random.Random(0)
    for _ in range(25):
        assert is_proper(random_proper_coloring(GridShape(3, 3), rng))


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2 ** 32))
def test_random_proper_coloring_is_the_validated_coloring(m, n, seed):
    shape = GridShape(m, n)
    c = random_proper_coloring(shape, random.Random(seed))
    validated = Coloring(shape=shape, cells=c.cells)
    assert c == validated and vars(c) == vars(validated)


# two seeded draws of random_proper_coloring on 2x3, recorded from its
# sampler of one base-6 draw per row of cells; a change to the rng calls
# or to how a draw is read changes them
PINNED_COLORINGS = [
    ((1, 0, 2, 0), (2, 1, 0, 2), (0, 2, 1, 0)),
    ((0, 1, 0, 2), (1, 2, 1, 0), (0, 1, 2, 1)),
]


def test_random_proper_coloring_draws_are_pinned():
    rng = random.Random(7)
    cells = [random_proper_coloring(GridShape(2, 3), rng).cells for _ in range(2)]
    assert cells == PINNED_COLORINGS


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 3), st.integers(2, 3), st.data())
def test_antiderivative_normalizes_random_potentials(m, n, data):
    shape = GridShape(m, n)
    h0 = ScalarField(
        shape=shape,
        h=[
            [data.draw(st.integers(0, 2)) for _ in range(n + 2 - 1)]
            for _ in range(m + 1)
        ],
    )
    w = exterior_derivative(h0)
    h = antiderivative(w)
    assert h.h[0][0] == 0
    assert all(
        (x - x0) % 3 == (0 - h0.h[0][0]) % 3
        for col, col0 in zip(h.h, h0.h)
        for x, x0 in zip(col, col0)
    )


def six_boundary(shape, values, field=GF3):
    m, n = shape.m, shape.n
    return BoundarySpec(
        shape=shape, field=field,
        f_bottom=values[:m], f_top=values[m:2 * m],
        g_left=values[2 * m:2 * m + n], g_right=values[2 * m + n:],
    )


def iter_six_states(shape, boundary=None):
    """Oracle: (f, g) tables of the admissible states by a vertex recursion.

    Bottom f edges and left g edges range freely over {0, 1}, or are
    pinned by a fixed boundary; every other edge is forced or
    binary-branched by the vertex rule, worked through the vertices row
    by row.  At a vertex with bottom value fb and left value gl, the
    (top, right) completions are (fb, gl) when fb != gl, and
    {(0, 0), (1, 1)} when fb == gl.  A fixed boundary's top f and right
    g values are checked at the vertex that sets them; a boundary value
    of 2 yields no state.  Unsorted.
    """
    m, n = shape.m, shape.n
    if boundary is None:
        starts = product(product((0, 1), repeat=m), product((0, 1), repeat=n))
    elif 2 in boundary.edge_tuple():
        return
    else:
        starts = ((boundary.f_bottom, boundary.g_left),)
    f = [[0] * (n + 1) for _ in range(m)]
    g = [[0] * n for _ in range(m + 1)]

    def fill_vertex(k):
        if k == m * n:
            yield tuple(map(tuple, f)), tuple(map(tuple, g))
            return
        j, i = divmod(k, m)
        fb, gl = f[i][j], g[i][j]
        for top, right in ((fb, gl),) if fb != gl else ((0, 0), (1, 1)):
            if boundary is not None and (
                (j == n - 1 and top != boundary.f_top[i])
                or (i == m - 1 and right != boundary.g_right[j])
            ):
                continue
            f[i][j + 1] = top
            g[i + 1][j] = right
            yield from fill_vertex(k + 1)

    for bottom, left in starts:
        for i in range(m):
            f[i][0] = bottom[i]
        for j in range(n):
            g[0][j] = left[j]
        yield from fill_vertex(0)


def sorted_six_tuples(shape, boundary=None):
    states = (LatticeState(shape=shape, field=GF3, f=f, g=g)
              for f, g in iter_six_states(shape, boundary))
    return sorted(s.edge_tuple() for s in states)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 3), st.integers(2, 3), st.data())
def test_enumerate_six_is_the_sorted_vertex_recursion(m, n, data):
    shape = GridShape(m, n)
    kind = data.draw(st.sampled_from(["free", "realised", "binary", "with a 2"]))
    boundary = None
    if kind == "realised":
        f, g = data.draw(st.sampled_from(list(iter_six_states(shape))))
        boundary = boundary_of(LatticeState(shape=shape, field=GF3, f=f, g=g))
    elif kind != "free":
        values = data.draw(st.lists(st.integers(0, 1), min_size=2 * (m + n),
                                    max_size=2 * (m + n)))
        if kind == "with a 2":
            values[data.draw(st.integers(0, len(values) - 1))] = 2
        boundary = six_boundary(shape, tuple(values))
    got = [s.edge_tuple() for s in enumerate_six(shape, boundary=boundary)]
    assert got == sorted_six_tuples(shape, boundary)
    if kind == "realised":
        assert got


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_enumerate_six_with_boundary_matches_filter(m, n):
    shape = GridShape(m, n)
    by_boundary = {}
    for s in enumerate_six(shape):
        by_boundary.setdefault(boundary_of(s), []).append(s)
    for b, kept in by_boundary.items():
        assert enumerate_six(shape, boundary=b) == kept


def test_enumerate_six_with_unrealisable_boundary():
    unrealised = six_boundary(S22, (1, 0, 0, 0, 0, 0, 0, 0))
    assert unrealised not in {boundary_of(s) for s in enumerate_six(S22)}
    assert enumerate_six(S22, boundary=unrealised) == []
    assert enumerate_six(S22, boundary=six_boundary(S22, (0, 2, 0, 0, 1, 0, 0, 1))) == []


def test_enumerate_six_boundary_refusals():
    zeros = (0,) * 8
    with pytest.raises(ValueError, match="F3"):
        enumerate_six(S22, boundary=six_boundary(S22, zeros, field=GF2))
    with pytest.raises(ValueError, match="shape"):
        enumerate_six(GridShape(2, 3), boundary=six_boundary(S22, zeros))
    big = GridShape(9, 9)
    with pytest.raises(SizeGuardError):
        enumerate_six(big, boundary=six_boundary(big, (0,) * 36))


def test_six_state_tables_charge_the_lattice_with_its_fixed_ends_freed(monkeypatch):
    # edge_count times the free count for a free or fixed boundary, and
    # times the torus count for TORUS
    charges = []
    monkeypatch.setattr(forms_rect, "guard_cost", lambda units, force: charges.append(units))
    monkeypatch.setattr(forms_rect, "state_tables", lambda *args: iter(()))
    s44 = GridShape(4, 4)
    for b in (None, six_boundary(s44, (0,) * 16), TORUS):
        six_state_tables(s44, b)
    assert charges == [193662 * 40, 193662 * 40, 2970 * 40]
    monkeypatch.undo()
    with pytest.raises(SizeGuardError, match="2\\^27"):
        six_state_tables(GridShape(5, 4))
    next(six_state_tables(GridShape(5, 4), TORUS))  # charged 2^20: it runs


@pytest.mark.parametrize("make", [
    lambda t: ScalarField(shape=S22, h=((0, t, 0),) * 3),
    lambda t: OneForm(shape=S22, fx=((t, 0, 0), (0, 0, 0)), gy=((0, 0),) * 3),
    lambda t: Coloring(shape=S22, cells=((0, 1, 0), (1, 0, 1), (0, 1, t))),
    lambda t: PeriodicField(shape=S22, values=((0, 0), (t, 0))),
    lambda t: ToroidalOneForm(shape=S22, fx=((0, 0), (0, 0)), gy=((0, t), (0, 0))),
], ids=["ScalarField", "OneForm", "Coloring", "PeriodicField", "ToroidalOneForm"])
def test_tables_refuse_booleans(make):
    make(1)
    with pytest.raises(ValueError, match="entries must be ints"):
        make(True)
