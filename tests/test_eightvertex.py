import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import affine_span, mat_vec, to_rows, vertex_index
from vertexforms.algebra import GF2, GF3, FieldMatrix, nullspace_basis, rank
from vertexforms.eightvertex import (
    boundary_parity,
    construct_state,
    count_eight,
    count_total,
    count_valid_boundaries,
    count_with_boundary,
    defect_map,
    eight_state_tables,
    enumerate_eight,
    is_admissible_eight,
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
    f_edge_index,
    g_edge_index,
)

S22 = GridShape(2, 2)


def enumerate_eight_brute(shape, boundary=None):
    """Oracle: sweep all 2^(edge count) edge labelings, keep the even ones.

    Filters on the boundary when one is given; sorted by edge_tuple.
    """
    m, n = shape.m, shape.n
    vertex_masks = [
        (1 << f_edge_index(shape, i, j)) | (1 << f_edge_index(shape, i, j + 1))
        | (1 << g_edge_index(shape, i, j)) | (1 << g_edge_index(shape, i + 1, j))
        for i in range(1, m + 1)
        for j in range(1, n + 1)
    ]
    want_mask = want_bits = 0
    if boundary is not None:
        pinned = []
        for i in range(1, m + 1):
            pinned.append((f_edge_index(shape, i, 1), boundary.f_bottom[i - 1]))
            pinned.append((f_edge_index(shape, i, n + 1), boundary.f_top[i - 1]))
        for j in range(1, n + 1):
            pinned.append((g_edge_index(shape, 1, j), boundary.g_left[j - 1]))
            pinned.append((g_edge_index(shape, m + 1, j), boundary.g_right[j - 1]))
        for col, val in pinned:
            want_mask |= 1 << col
            want_bits |= val << col
    out = []
    for assignment in range(1 << shape.edge_count):
        if (assignment & want_mask) != want_bits:
            continue
        if any((assignment & vm).bit_count() & 1 for vm in vertex_masks):
            continue
        bits = [(assignment >> k) & 1 for k in range(shape.edge_count)]
        f = [bits[i * (n + 1) : (i + 1) * (n + 1)] for i in range(m)]
        g = [bits[shape.f_edge_count + i * n : shape.f_edge_count + (i + 1) * n]
             for i in range(m + 1)]
        out.append(LatticeState(shape=shape, field=GF2, f=f, g=g))
    return sorted(out, key=lambda s: s.edge_tuple())


def enumerate_eight_coset(shape, boundary=None):
    """Oracle: edge tuples of the F2 kernel listing, in order.

    The kernel of the parity map, or with a boundary the coset through
    construct_state of the kernel with the 2m + 2n boundary edges
    pinned to 0, listed by affine_span.
    """
    m, n = shape.m, shape.n
    rows = to_rows(defect_map(shape))
    base = [0] * shape.edge_count
    if boundary is not None:
        pins = [f_edge_index(shape, i, j) for i in range(1, m + 1) for j in (1, n + 1)]
        pins += [g_edge_index(shape, i, j) for i in (1, m + 1) for j in range(1, n + 1)]
        rows += [[int(k == col) for k in range(shape.edge_count)] for col in pins]
        base = construct_state(boundary).edge_tuple()
    basis = nullspace_basis(FieldMatrix.from_rows(GF2, rows))
    return list(affine_span(GF2, base, basis))


def all_boundaries(shape):
    m, n = shape.m, shape.n
    for bits in product((0, 1), repeat=2 * m + 2 * n):
        yield BoundarySpec(
            shape=shape,
            field=GF2,
            f_bottom=bits[:m],
            f_top=bits[m : 2 * m],
            g_left=bits[2 * m : 2 * m + n],
            g_right=bits[2 * m + n :],
        )


def zero_boundary(shape):
    return BoundarySpec(
        shape=shape,
        field=GF2,
        f_bottom=(0,) * shape.m,
        f_top=(0,) * shape.m,
        g_left=(0,) * shape.n,
        g_right=(0,) * shape.n,
    )


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 3), (3, 4)])
def test_defect_map_has_full_rank(shape):
    m, n = shape
    dm = defect_map(GridShape(m, n))
    assert dm.field is GF2
    assert dm.rows == m * n
    assert dm.cols == GridShape(m, n).edge_count
    assert rank(dm) == m * n


def defect_map_by_hand(shape):
    """Oracle: a 1 at each of the four edges of every vertex, over F2."""
    rows = []
    for i in range(1, shape.m + 1):
        for j in range(1, shape.n + 1):
            row = [0] * shape.edge_count
            row[f_edge_index(shape, i, j)] = 1
            row[f_edge_index(shape, i, j + 1)] = 1
            row[g_edge_index(shape, i, j)] = 1
            row[g_edge_index(shape, i + 1, j)] = 1
            rows.append(row)
    return FieldMatrix.from_rows(GF2, rows)


@pytest.mark.parametrize("m,n", list(product(range(2, 6), repeat=2)))
def test_defect_map_is_the_hand_built_matrix(m, n):
    shape = GridShape(m, n)
    assert defect_map(shape) == defect_map_by_hand(shape)


def defect(state):
    """The defect map's action on the state's edge vector."""
    return mat_vec(defect_map(state.shape), state.edge_tuple())


def vertex_parities(state):
    """Oracle: the parity of each vertex's four edges, in vertex_index order."""
    m, n = state.shape.m, state.shape.n
    return tuple(sum(edges_at_vertex(state, i, j)) % 2
                 for i in range(1, m + 1) for j in range(1, n + 1))


def test_defect_vector_is_the_matrix_action():
    rng = random.Random(12)
    for shape in (S22, GridShape(3, 2), GridShape(2, 4)):
        m, n = shape.m, shape.n
        for _ in range(50):
            f = [[rng.randrange(2) for _ in range(n + 1)] for _ in range(m)]
            g = [[rng.randrange(2) for _ in range(n)] for _ in range(m + 1)]
            state = LatticeState(shape=shape, field=GF2, f=f, g=g)
            assert defect(state) == vertex_parities(state)


def test_admissibility_means_zero_defect():
    rng = random.Random(13)
    for _ in range(80):
        f = [[rng.randrange(2) for _ in range(3)] for _ in range(2)]
        g = [[rng.randrange(2) for _ in range(2)] for _ in range(3)]
        state = LatticeState(shape=S22, field=GF2, f=f, g=g)
        assert is_admissible_eight(state) == all(x == 0 for x in defect(state))


def test_column_tails_hit_every_defect():
    # with g = 0 and a single row of f set past column b, the defect
    # vector is the standard basis vector at vertex (a, b)
    for m, n in [(2, 2), (3, 2), (2, 3)]:
        shape = GridShape(m, n)
        for a in range(1, m + 1):
            for b in range(1, n + 1):
                f = [
                    [1 if (i == a and j > b) else 0 for j in range(1, n + 2)]
                    for i in range(1, m + 1)
                ]
                g = [[0] * n for _ in range(m + 1)]
                state = LatticeState(shape=shape, field=GF2, f=f, g=g)
                d = defect(state)
                want = vertex_index(shape, a, b)
                assert d == tuple(1 if k == want else 0 for k in range(m * n))


def test_binary_values_required():
    state = LatticeState(
        shape=S22, field=GF3, f=[[2, 0, 0], [0, 0, 0]], g=[[0, 0]] * 3
    )
    with pytest.raises(ValueError, match="values in {0, 1} only"):
        is_admissible_eight(state)


def test_binary_gf3_state_accepted():
    state = LatticeState(
        shape=S22, field=GF3, f=[[0, 0, 0], [0, 0, 0]], g=[[0, 0]] * 3
    )
    assert is_admissible_eight(state)


def test_count_total_formula():
    assert count_total(S22) == 256
    assert count_total(GridShape(3, 2)) == 2048
    assert count_total(GridShape(2, 3)) == 2048
    assert count_total(GridShape(3, 3)) == 2 ** 15


@pytest.mark.parametrize("m,n", [*product(range(2, 9), repeat=2), (10, 6)])
def test_defect_map_kernel_dimension_is_the_count_exponent(m, n):
    # count_total returns its closed form; rank-nullity of the defect map
    # is the fact behind it
    shape = GridShape(m, n)
    nullity = shape.edge_count - rank(defect_map(shape))
    assert nullity == m + n + m * n
    assert count_total(shape) == 2 ** nullity


def test_count_total_against_brute_force():
    hits = 0
    for bits in product((0, 1), repeat=12):
        f = [bits[:3], bits[3:6]]
        g = [bits[6:8], bits[8:10], bits[10:12]]
        if is_admissible_eight(LatticeState(shape=S22, field=GF2, f=f, g=g)):
            hits += 1
    assert hits == count_total(S22) == 256


def test_count_eight_is_the_closed_form_of_its_boundary():
    odd = BoundarySpec(shape=S22, field=GF2, f_bottom=(1, 0), f_top=(0, 0),
                       g_left=(0, 0), g_right=(0, 0))
    even = BoundarySpec(shape=S22, field=GF2, f_bottom=(1, 0), f_top=(1, 0),
                        g_left=(0, 0), g_right=(0, 0))
    assert count_eight(S22) == count_total(S22) == 256
    assert count_eight(S22, even) == count_with_boundary(even) == 2
    assert count_eight(S22, odd) == 0
    with pytest.raises(SizeGuardError):
        count_eight(GridShape(10, 10 ** 7))
    assert count_eight(GridShape(10, 10), force=True) == 2 ** 120


def test_count_eight_refuses_a_boundary_it_does_not_count():
    # of another shape or field, or the torus, before any count
    wrong_shape = BoundarySpec(shape=GridShape(2, 3), field=GF2, f_bottom=(0, 0),
                               f_top=(0, 0), g_left=(0, 0, 0), g_right=(0, 0, 0))
    wrong_field = BoundarySpec(shape=S22, field=GF3, f_bottom=(0, 0), f_top=(0, 0),
                               g_left=(0, 0), g_right=(0, 0))
    for boundary, message in ((wrong_shape, "requested \\(2, 2\\)"),
                              (wrong_field, "expected F2"), (TORUS, "not TORUS")):
        with pytest.raises(InputError, match=message):
            count_eight(S22, boundary)
        with pytest.raises(InputError, match=message):
            eight_state_tables(S22, boundary)


def test_enumeration_methods_agree():
    for shape in (S22, GridShape(2, 3)):
        kernel = enumerate_eight(shape)
        assert len(kernel) == count_total(shape)
        assert all(is_admissible_eight(s) for s in kernel)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2)])
def test_free_listing_equals_the_brute_oracle(shape):
    shape = GridShape(*shape)
    assert [s.edge_tuple() for s in enumerate_eight(shape)] == [
        s.edge_tuple() for s in enumerate_eight_brute(shape)
    ]


def test_every_boundary_listing_equals_the_brute_oracle():
    parities = set()
    for b in all_boundaries(S22):
        parities.add(boundary_parity(b))
        assert [s.edge_tuple() for s in enumerate_eight(S22, boundary=b)] == [
            s.edge_tuple() for s in enumerate_eight_brute(S22, boundary=b)
        ]
    assert parities == {0, 1}


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
def test_every_even_boundary_listing_equals_the_coset_oracle(shape):
    shape = GridShape(*shape)
    even = [b for b in all_boundaries(shape) if boundary_parity(b) == 0]
    assert len(even) == count_valid_boundaries(shape)
    for b in even:
        assert [s.edge_tuple() for s in enumerate_eight(shape, boundary=b)] == (
            enumerate_eight_coset(shape, b))


def test_seeded_3x3_listings_equal_the_coset_oracle():
    shape = GridShape(3, 3)
    rng = random.Random(8)
    for _ in range(20):
        bits = [rng.randrange(2) for _ in range(11)]
        bits.append(sum(bits) % 2)
        b = BoundarySpec(shape=shape, field=GF2, f_bottom=bits[:3], f_top=bits[3:6],
                         g_left=bits[6:9], g_right=bits[9:])
        assert [s.edge_tuple() for s in enumerate_eight(shape, boundary=b)] == (
            enumerate_eight_coset(shape, b))
    assert [s.edge_tuple() for s in enumerate_eight(shape)] == enumerate_eight_coset(shape)


def test_enumeration_with_boundary_filters():
    zb = zero_boundary(S22)
    coset = enumerate_eight(S22, boundary=zb)
    assert [(s.f, s.g) for s in coset] == [
        (((0, 0, 0), (0, 0, 0)), ((0, 0), (0, 0), (0, 0))),
        (((0, 1, 0), (0, 1, 0)), ((0, 0), (1, 1), (0, 0))),
    ]


def test_boundary_shape_and_field_checked():
    other = zero_boundary(GridShape(2, 3))
    with pytest.raises(ValueError, match="does not match"):
        enumerate_eight(S22, boundary=other)
    gf3 = BoundarySpec(
        shape=S22, field=GF3, f_bottom=(0, 0), f_top=(0, 0),
        g_left=(0, 0), g_right=(0, 0),
    )
    with pytest.raises(ValueError, match="F2"):
        enumerate_eight(S22, boundary=gf3)


def test_parity_splits_boundaries_in_half():
    for shape in (S22, GridShape(3, 2)):
        parities = [boundary_parity(b) for b in all_boundaries(shape)]
        assert parities.count(0) == parities.count(1) == len(parities) // 2
        assert parities.count(0) == count_valid_boundaries(shape)
    assert count_valid_boundaries(S22) == 128
    assert count_valid_boundaries(GridShape(3, 2)) == 512


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_construct_state_extends_every_even_boundary(shape):
    m, n = shape
    for b in all_boundaries(GridShape(m, n)):
        if boundary_parity(b) == 1:
            with pytest.raises(ValueError, match="parity is odd"):
                construct_state(b)
            assert count_with_boundary(b) == 0
            continue
        state = construct_state(b)
        assert is_admissible_eight(state)
        assert boundary_of(state) == b
        assert count_with_boundary(b) == 2 ** ((m - 1) * (n - 1))


def test_construct_state_known_output():
    b = BoundarySpec(
        shape=S22, field=GF2, f_bottom=(1, 0), f_top=(1, 0),
        g_left=(0, 0), g_right=(0, 0),
    )
    state = construct_state(b)
    assert state.f == ((1, 1, 1), (0, 0, 0))
    assert state.g == ((0, 0), (0, 0), (0, 0))


def test_construct_state_requires_gf2():
    gf3 = BoundarySpec(
        shape=S22, field=GF3, f_bottom=(0, 0), f_top=(0, 0),
        g_left=(0, 0), g_right=(0, 0),
    )
    with pytest.raises(ValueError, match="expects an F2 boundary"):
        construct_state(gf3)


def test_coset_counts_against_enumeration():
    # every boundary's fiber has the predicted size
    states_by_boundary = {}
    for s in enumerate_eight(S22):
        states_by_boundary.setdefault(boundary_of(s).edge_tuple(), []).append(s)
    for b in all_boundaries(S22):
        got = len(states_by_boundary.get(b.edge_tuple(), []))
        assert got == count_with_boundary(b)
        assert got == len(enumerate_eight(S22, boundary=b))
    assert sum(len(v) for v in states_by_boundary.values()) == 256
    assert len(states_by_boundary) == 128


def test_counts_are_consistent():
    for m, n in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 4)]:
        shape = GridShape(m, n)
        per_fiber = 2 ** ((m - 1) * (n - 1))
        assert count_total(shape) == count_valid_boundaries(shape) * per_fiber


def test_enumeration_guard():
    with pytest.raises(SizeGuardError):
        enumerate_eight(GridShape(5, 5))


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_random_even_boundaries_extend(data):
    m = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(2, 4))
    shape = GridShape(m, n)
    bits = [data.draw(st.integers(0, 1)) for _ in range(2 * m + 2 * n - 1)]
    bits.append(sum(bits) % 2)
    b = BoundarySpec(
        shape=shape, field=GF2,
        f_bottom=tuple(bits[:m]), f_top=tuple(bits[m : 2 * m]),
        g_left=tuple(bits[2 * m : 2 * m + n]), g_right=tuple(bits[2 * m + n :]),
    )
    assert boundary_parity(b) == 0
    state = construct_state(b)
    assert is_admissible_eight(state)
    assert boundary_of(state) == b
