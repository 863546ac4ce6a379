import random
from itertools import chain, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import affine_span, index_reduce, periodic_at, toroidal_six_states
from vertexforms.algebra import GF3, FieldMatrix, nullspace_basis
from vertexforms.forms_rect import count_six, is_admissible_six, six_state_tables
from vertexforms.grid import TORUS, GridShape, LatticeState, SizeGuardError
from vertexforms.toroidal import (
    CohomologyDecomposition,
    PeriodicField,
    ToroidalOneForm,
    admissible_shifts,
    decompose,
    enumerate_closed_toroidal,
    enumerate_six_toroidal,
    has_toroidal_boundary,
    is_closed_toroidal,
    is_sparse,
    partial_images,
    reconstruct,
    sparse_fibers,
    state_to_sparse,
    state_to_toroidal_form,
    toroidal_derivatives,
)

T22 = GridShape(2, 2)


def field(shape, rows):
    return PeriodicField(shape=shape, values=tuple(tuple(r) for r in rows))


def form(shape, fx, gy):
    return ToroidalOneForm(
        shape=shape, fx=tuple(tuple(r) for r in fx), gy=tuple(tuple(r) for r in gy)
    )


def all_closed_forms(shape):
    m, n = shape.m, shape.n
    out = []
    for bits in product((0, 1, 2), repeat=2 * m * n):
        fx = tuple(bits[i * n : (i + 1) * n] for i in range(m))
        gy = tuple(bits[m * n + i * n : m * n + (i + 1) * n] for i in range(m))
        w = form(shape, fx, gy)
        if is_closed_toroidal(w):
            out.append(w)
    return out


def test_index_reduce_examples():
    # the index reduction the wraparound oracles read through
    assert index_reduce(5, 5) == 5
    assert index_reduce(6, 5) == 1
    assert index_reduce(0, 5) == 5
    assert index_reduce(1, 5) == 1
    assert index_reduce(-4, 5) == 1


@given(st.integers(-50, 50), st.integers(1, 9))
def test_index_reduce_is_a_period_map(i, p):
    r = index_reduce(i, p)
    assert 1 <= r <= p
    assert (r - i) % p == 0


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (3, 3), (6, 2)])
def test_periods_divisible_by_three_rejected(shape):
    m, n = shape
    s = GridShape(m, n)
    with pytest.raises(ValueError, match="rejected"):
        PeriodicField(shape=s, values=tuple((0,) * n for _ in range(m)))
    with pytest.raises(ValueError, match="divisible"):
        ToroidalOneForm(
            shape=s,
            fx=tuple((0,) * n for _ in range(m)),
            gy=tuple((0,) * n for _ in range(m)),
        )
    with pytest.raises(ValueError, match="divisible"):
        decompose(ToroidalOneForm.trusted(
            shape=s, fx=tuple((0,) * n for _ in range(m)), gy=tuple((0,) * n for _ in range(m))))
    with pytest.raises(ValueError, match="divisible"):
        enumerate_closed_toroidal(s)
    with pytest.raises(ValueError, match="divisible"):
        sparse_fibers(s)


def test_sparse_fibers_refuses_the_periods_before_the_walk():
    # at (9, 6) the walk's guard would refuse first: the trace is charged 2^27
    with pytest.raises(ValueError, match=r"\(9, 6\).*divisible"):
        sparse_fibers(GridShape(9, 6))


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (3, 3), (5, 3), (6, 2), (2, 6)])
def test_toroidal_states_take_periods_divisible_by_three(shape):
    # the trace and the walk divide by nothing, so only the decomposition
    # refuses these periods
    s = GridShape(*shape)
    states = toroidal_six_states(*shape)
    assert count_six(s, boundary=TORUS) == len(states)
    assert [state.edge_tuple() for state in enumerate_six_toroidal(s)] == states
    assert [tuple(chain(*f, *g)) for f, g in six_state_tables(s, TORUS)] == states


def test_derivative_of_constant_vanishes():
    h = field(T22, [[2, 2], [2, 2]])
    dh = toroidal_derivatives(h)
    assert all(x == 0 for row in dh.fx for x in row)
    assert all(x == 0 for row in dh.gy for x in row)


def test_derivative_of_point_mass():
    h = field(T22, [[1, 0], [0, 0]])
    dh = toroidal_derivatives(h)
    assert dh.fx == ((2, 0), (1, 0))
    assert dh.gy == ((2, 1), (0, 0))


def test_derivatives_telescope_around_both_cycles():
    rng = random.Random(7)
    for shape in (T22, GridShape(4, 2), GridShape(2, 4)):
        m, n = shape.m, shape.n
        for _ in range(20):
            h = field(shape, [[rng.randrange(3) for _ in range(n)] for _ in range(m)])
            dh = toroidal_derivatives(h)
            for j in range(1, n + 1):
                assert sum(periodic_at(dh.fx, i, j) for i in range(1, m + 1)) % 3 == 0
            for i in range(1, m + 1):
                assert sum(periodic_at(dh.gy, i, j) for j in range(1, n + 1)) % 3 == 0
            assert is_closed_toroidal(dh)


def test_lookup_wraps_both_ways():
    h = field(T22, [[0, 1], [2, 0]]).values
    assert periodic_at(h, 3, 3) == periodic_at(h, 1, 1) == 0
    assert periodic_at(h, 0, 0) == periodic_at(h, 2, 2) == 0
    assert periodic_at(h, 0, 1) == periodic_at(h, 2, -1) == 2
    w = toroidal_derivatives(field(T22, [[0, 1], [2, 0]]))
    assert periodic_at(w.fx, 3, 1) == periodic_at(w.fx, 1, 1)
    assert periodic_at(w.gy, 1, 3) == periodic_at(w.gy, 1, 1)


def test_decompose_named_forms():
    zero = form(T22, [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    d = decompose(zero)
    assert (d.r, d.s) == (0, 0)
    assert all(x == 0 for row in d.h.values for x in row)
    dx = form(T22, [[1, 1], [1, 1]], [[0, 0], [0, 0]])
    d = decompose(dx)
    assert (d.r, d.s) == (1, 0)
    assert all(x == 0 for row in d.h.values for x in row)
    dy = form(T22, [[0, 0], [0, 0]], [[2, 2], [2, 2]])
    d = decompose(dy)
    assert (d.r, d.s) == (0, 2)


def test_decompose_requires_closed():
    w = form(T22, [[1, 0], [0, 0]], [[0, 0], [0, 0]])
    assert not is_closed_toroidal(w)
    with pytest.raises(ValueError, match="^decompose requires a closed toroidal form$"):
        decompose(w)


def derivatives_by_lookup(h):
    """Oracle: forward differences through periodic_at's wraparound."""
    m, n = h.shape.m, h.shape.n

    def at(i, j):
        return periodic_at(h.values, i, j)

    fx = tuple(
        tuple((at(i + 2, j + 1) - at(i + 1, j + 1)) % 3 for j in range(n))
        for i in range(m)
    )
    gy = tuple(
        tuple((at(i + 1, j + 2) - at(i + 1, j + 1)) % 3 for j in range(n))
        for i in range(m)
    )
    return fx, gy


def decompose_by_lookup(w):
    """Oracle: r, s and the residuals accumulated through periodic_at."""
    m, n = w.shape.m, w.shape.n
    inverse = {1: 1, 2: 2}
    r = (inverse[m % 3] * sum(periodic_at(w.fx, a, 1) for a in range(1, m + 1))) % 3
    s = (inverse[n % 3] * sum(periodic_at(w.gy, 1, b) for b in range(1, n + 1))) % 3
    values = []
    base = 0
    for i in range(1, m + 1):
        acc = base
        col = [acc]
        for b in range(1, n):
            acc = (acc + periodic_at(w.gy, i, b) - s) % 3
            col.append(acc)
        values.append(tuple(col))
        base = (base + periodic_at(w.fx, i, 1) - r) % 3
    return r, s, tuple(values)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_toroidal_calculus_matches_the_lookup_formulas(data):
    m = data.draw(st.sampled_from([2, 4, 5]))
    n = data.draw(st.sampled_from([2, 4, 5]))
    shape = GridShape(m, n)
    h = field(shape, [[data.draw(st.integers(0, 2)) for _ in range(n)] for _ in range(m)])
    dh = toroidal_derivatives(h)
    assert (dh.fx, dh.gy) == derivatives_by_lookup(h)
    # every closed toroidal form is r dx + s dy + dh
    r, s = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    w = form(shape, [[(r + x) % 3 for x in col] for col in dh.fx],
             [[(s + y) % 3 for y in col] for col in dh.gy])
    d = decompose(w)
    assert (d.r, d.s, d.h.values) == decompose_by_lookup(w)


def test_decompose_exact_form_recovers_normalized_potential():
    rng = random.Random(8)
    for _ in range(30):
        h0 = field(T22, [[rng.randrange(3) for _ in range(2)] for _ in range(2)])
        d = decompose(toroidal_derivatives(h0))
        assert (d.r, d.s) == (0, 0)
        assert d.h.values[0][0] == 0
        c = h0.values[0][0]
        assert all(
            (x0 - x) % 3 == c
            for col0, col in zip(h0.values, d.h.values) for x0, x in zip(col0, col)
        )


def test_round_trip_all_closed_forms_2x2():
    forms = all_closed_forms(T22)
    assert len(forms) == 243
    for w in forms:
        d = decompose(w)
        assert d.h.values[0][0] == 0
        back = reconstruct(d)
        assert back.fx == w.fx and back.gy == w.gy


def test_decomposition_is_unique_2x2():
    # sweep every (r, s, normalized h) triple against a few targets
    targets = [form(T22, [[0, 0], [0, 0]], [[0, 0], [0, 0]])]
    rng = random.Random(9)
    pool = all_closed_forms(T22)
    targets += rng.sample(pool, 5)
    tables = [
        (0,) + rest for rest in product((0, 1, 2), repeat=3)
    ]
    for w in targets:
        hits = 0
        for r in (0, 1, 2):
            for s in (0, 1, 2):
                for flat in tables:
                    h = field(T22, [flat[:2], flat[2:]])
                    cand = reconstruct(CohomologyDecomposition(r=r, s=s, h=h))
                    if cand.fx == w.fx and cand.gy == w.gy:
                        hits += 1
        assert hits == 1


def test_nonzero_shifts_are_never_exact():
    # r dx + s dy with (r, s) != (0, 0) admits no periodic potential
    for r, s in [(1, 0), (0, 1), (1, 1), (2, 2)]:
        w = form(T22, [[r] * 2] * 2, [[s] * 2] * 2)
        for flat in product((0, 1, 2), repeat=4):
            h = field(T22, [flat[:2], flat[2:]])
            dh = toroidal_derivatives(h)
            assert not (dh.fx == w.fx and dh.gy == w.gy)


@pytest.mark.parametrize("shape", [(4, 2), (2, 4), (4, 4), (5, 4)])
def test_round_trip_random_shapes(shape):
    m, n = shape
    s = GridShape(m, n)
    rng = random.Random(100 * m + n)
    for _ in range(60):
        h = field(s, [[rng.randrange(3) for _ in range(n)] for _ in range(m)])
        norm = [
            [(x - h.values[0][0]) % 3 for x in row] for row in h.values
        ]
        d0 = CohomologyDecomposition(
            r=rng.randrange(3), s=rng.randrange(3), h=field(s, norm)
        )
        w = reconstruct(d0)
        assert is_closed_toroidal(w)
        d1 = decompose(w)
        assert (d1.r, d1.s) == (d0.r, d0.s)
        assert d1.h.values == d0.h.values


def test_sparse_predicate_examples():
    assert is_sparse(field(T22, [[0, 0], [0, 0]]))
    # unit value at the base point breaks normalization
    assert not is_sparse(field(T22, [[1, 0], [0, 0]]))
    # one flat column and one stepped column make D_x surjective
    wide = field(T22, [[0, 0], [0, 1]])
    im_x, _ = partial_images(wide)
    assert im_x == {0, 1, 2}
    assert not is_sparse(wide)


def test_sparse_images_of_state_potentials():
    for state in enumerate_six_toroidal(T22):
        h = state_to_sparse(state)
        assert is_sparse(h)
        im_x, im_y = partial_images(h)
        assert len(im_x) <= 2 and len(im_y) <= 2


def test_state_to_sparse_named_states(torus_state):
    from vertexforms.grid import LatticeState
    from vertexforms.algebra import GF3

    zero = LatticeState(
        shape=T22, field=GF3, f=[[0] * 3] * 2, g=[[0] * 2] * 3
    )
    assert all(x == 0 for row in state_to_sparse(zero).values for x in row)
    ones = LatticeState(
        shape=T22, field=GF3, f=[[1] * 3] * 2, g=[[1] * 2] * 3
    )
    w = state_to_toroidal_form(ones)
    d = decompose(w)
    assert (d.r, d.s) == (1, 1)
    assert all(x == 0 for row in d.h.values for x in row)


def test_state_form_requires_toroidal_boundary(rect_state):
    assert not has_toroidal_boundary(rect_state)
    with pytest.raises(ValueError, match="toroidal boundary"):
        state_to_toroidal_form(rect_state)


def test_torus_fixture_blocked_by_period(torus_state):
    # periods (5, 3) carry an admissible toroidal state, but the
    # fundamental-domain form itself is rejected: 3 divides n
    assert has_toroidal_boundary(torus_state)
    with pytest.raises(ValueError, match="rejected"):
        state_to_toroidal_form(torus_state)


def test_toroidal_counts():
    assert len(enumerate_six_toroidal(T22)) == 18
    assert len(enumerate_six_toroidal(GridShape(4, 2))) == 114
    assert len(enumerate_six_toroidal(GridShape(2, 4))) == 114


def all_toroidal_states(shape):
    """The reference listing: every labeling of the 2mn fundamental-domain
    edges, extended periodically and kept when admissible."""
    m, n = shape.m, shape.n
    states = []
    for mask in range(1 << 2 * m * n):
        fvals = [[(mask >> (i * n + j)) & 1 for j in range(n)] for i in range(m)]
        gvals = [[(mask >> (m * n + i * n + j)) & 1 for j in range(n)] for i in range(m)]
        f = [row + [row[0]] for row in fvals]
        g = [list(row) for row in gvals] + [list(gvals[0])]
        state = LatticeState(shape=shape, field=GF3, f=f, g=g)
        if is_admissible_six(state):
            states.append(state)
    states.sort(key=lambda s: s.edge_tuple())
    return states


@pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (4, 2)])
def test_toroidal_listing_matches_reference(m, n):
    shape = GridShape(m, n)
    assert enumerate_six_toroidal(shape) == all_toroidal_states(shape)


def test_enumeration_guard():
    # charged the toroidal count times edge_count: 2^30 at (5, 7), 2^24 at (5, 5)
    with pytest.raises(SizeGuardError):
        enumerate_six_toroidal(GridShape(5, 7))
    with pytest.raises(SizeGuardError):
        enumerate_closed_toroidal(GridShape(5, 5))


def all_closed_toroidal_forms(shape):
    """The reference listing: every F3 labeling of the 2mn fundamental-domain
    edges, kept when closed with wraparound."""
    m, n = shape.m, shape.n
    forms = []
    for vals in product((0, 1, 2), repeat=2 * m * n):
        w = form(shape, [vals[i * n:(i + 1) * n] for i in range(m)],
                 [vals[m * n + i * n:m * n + (i + 1) * n] for i in range(m)])
        if is_closed_toroidal(w):
            forms.append(w)
    forms.sort(key=lambda w: (w.fx, w.gy))
    return forms


def test_closed_toroidal_forms_match_reference():
    assert enumerate_closed_toroidal(T22) == all_closed_toroidal_forms(T22)


def wraparound_matrix(shape):
    """The mn x 2mn closedness map on the torus, fx row-major then gy."""
    m, n = shape.m, shape.n
    rows = []
    for i in range(m):
        for j in range(n):
            # fx[i][j+1] - fx[i][j] - gy[i+1][j] + gy[i][j], indices wrapped
            row = [0] * (2 * m * n)
            row[i * n + (j + 1) % n] = 1
            row[i * n + j] = 2
            row[m * n + (i + 1) % m * n + j] = 2
            row[m * n + i * n + j] = 1
            rows.append(row)
    return FieldMatrix.from_rows(GF3, rows)


@pytest.mark.parametrize("m,n", [(2, 4), (4, 2)])
def test_closed_toroidal_forms_are_the_kernel_listing(m, n):
    shape = GridShape(m, n)
    basis = nullspace_basis(wraparound_matrix(shape))
    kernel = affine_span(GF3, [0] * (2 * m * n), basis)
    listed = (sum(w.fx, ()) + sum(w.gy, ()) for w in enumerate_closed_toroidal(shape))
    assert list(listed) == list(kernel)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (4, 2)])
def test_closed_toroidal_forms_are_the_decompositions(m, n):
    # one closed form per (r, s, h) with h(1, 1) = 0, each distinct,
    # closed, and rebuilt by its decomposition
    shape = GridShape(m, n)
    forms = enumerate_closed_toroidal(shape)
    assert len(forms) == len({(w.fx, w.gy) for w in forms}) == 3 ** (m * n + 1)
    for w in forms:
        assert is_closed_toroidal(w)
        w2 = reconstruct(decompose(w))
        assert (w2.fx, w2.gy) == (w.fx, w.gy)


def test_fibers_partition_2x2():
    entries = sparse_fibers(T22)
    assert len(entries) == 11
    assert sum(e.fiber_size for e in entries) == 18
    assert sorted(e.fiber_size for e in entries) == [1] * 6 + [2] * 4 + [4]
    seen = set()
    for e in entries:
        assert is_sparse(e.h)
        for state in e.states:
            key = state.edge_tuple()
            assert key not in seen
            seen.add(key)
            assert state_to_sparse(state).values == e.h.values
    assert len(seen) == 18


def test_fiber_sizes_are_shift_products():
    for shape in (T22, GridShape(4, 2)):
        for e in sparse_fibers(shape):
            assert e.fiber_size == len(e.r_choices) * len(e.s_choices)
            observed = {
                (decompose(state_to_toroidal_form(s)).r,
                 decompose(state_to_toroidal_form(s)).s)
                for s in e.states
            }
            assert observed == set(product(e.r_choices, e.s_choices))


def test_zero_potential_fiber():
    entries = sparse_fibers(T22)
    flat = next(
        e for e in entries if all(x == 0 for row in e.h.values for x in row)
    )
    assert flat.r_choices == (0, 1)
    assert flat.s_choices == (0, 1)
    assert flat.fiber_size == 4


def test_fiber_count_2x4():
    assert len(sparse_fibers(GridShape(2, 4))) == 95


def test_admissible_shifts_match_definition():
    rng = random.Random(11)
    for _ in range(30):
        h = field(T22, [[rng.randrange(3) for _ in range(2)] for _ in range(2)])
        im_x, im_y = partial_images(h)
        r_choices, s_choices = admissible_shifts(h)
        assert r_choices == tuple(r for r in (0, 1, 2) if (2 - r) % 3 not in im_x)
        assert s_choices == tuple(s for s in (0, 1, 2) if (2 - s) % 3 not in im_y)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_reconstruct_decompose_inverse_property(data):
    m = data.draw(st.sampled_from([2, 4, 5]))
    n = data.draw(st.sampled_from([2, 4, 5]))
    shape = GridShape(m, n)
    rows = [
        [data.draw(st.integers(0, 2)) for _ in range(n)] for _ in range(m)
    ]
    rows = [[(x - rows[0][0]) % 3 for x in row] for row in rows]
    d0 = CohomologyDecomposition(
        r=data.draw(st.integers(0, 2)),
        s=data.draw(st.integers(0, 2)),
        h=field(shape, rows),
    )
    d1 = decompose(reconstruct(d0))
    assert (d1.r, d1.s, d1.h.values) == (d0.r, d0.s, d0.h.values)
