"""The column-kernel calculus against the naive oracles of conftest.

forms_rect computes d, its inverse and the coloring maps a column at a
time through bounded memos keyed by column tuples, with the F3 offset
of each caller (the coloring shift, the - 1 of d(c) - dx - dy, the
toroidal r and s) passed to the kernels.  Every example here runs each
table through every offset in one process, so a memo that returned an
entry built for another offset, base or neighbour column would show.
Tables are random F3 tables up to 7 columns of 7 entries: rectangles
and tori, closed and non-closed forms, proper and improper colorings.
antiderivative and decompose check closedness by the calculus, not by
the vertex table; near-closed forms, closed ones with up to two entries
moved, show that they refuse exactly the forms is_closed and
is_closed_toroidal, the vertex-table checks, reject.  _round_trip, that
calculus check a column step at a time, is checked against d of the
potential itself on the tables the suites give it and on others.
"""

import random
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    naive_coloring_cells,
    naive_decompose,
    naive_differences,
    naive_form_from_cells,
    naive_is_proper,
    naive_potential,
    naive_reconstruct,
    naive_toroidal_derivatives,
)
from vertexforms.forms_rect import (
    Coloring,
    OneForm,
    ScalarField,
    _differences,
    _potential,
    _random_closed_tables,
    _round_trip,
    antiderivative,
    closed_form_tables,
    coloring_from_form,
    exterior_derivative,
    form_from_coloring,
    is_closed,
    is_proper,
    random_closed_forms,
    random_proper_coloring,
)
from vertexforms.grid import GridShape
from vertexforms.toroidal import (
    CohomologyDecomposition,
    PeriodicField,
    ToroidalOneForm,
    _random_decompositions,
    _wrapped_differences,
    decompose,
    is_closed_toroidal,
    reconstruct,
    toroidal_derivatives,
)

# the offsets the library passes (- 1, - r) and every F3 value
OFFSETS = (-2, -1, 0, 1, 2)
# periods prime to 3, which decompose requires
PERIODS = (2, 4, 5)


def table(data, cols: int, rows: int) -> tuple:
    return tuple(tuple(data.draw(st.lists(st.integers(0, 2), min_size=rows, max_size=rows)))
                 for _ in range(cols))


def shifted(t, c: int) -> tuple:
    return tuple(tuple((x + c) % 3 for x in col) for col in t)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 7), st.integers(1, 7), st.data())
def test_differences_are_the_naive_differences_shifted(cols, rows, data):
    h = table(data, cols, rows)
    dx, dy = naive_differences(h)
    for cx, cy in product(OFFSETS, repeat=2):
        assert _differences(h, cx, cy) == (shifted(dx, cx), shifted(dy, cy))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.data())
def test_potential_is_the_naive_potential_shifted(m, n, torus, data):
    # a rectangle form has m + 1 gy columns, a torus form m; neither is
    # asked to be closed
    fx = table(data, m, n if torus else n + 1)
    gy = table(data, m if torus else m + 1, n)
    for cx, cy in product(OFFSETS, repeat=2):
        naive = naive_potential(shifted(fx, cx), shifted(gy, cy))
        for t in (0, 1, 2):
            assert _potential(fx, gy, cx, cy, t) == shifted(naive, t)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 6), st.integers(2, 6), st.data())
def test_rectangle_calculus_matches_the_oracles(m, n, data):
    shape = GridShape(m, n)
    h = table(data, m + 1, n + 1)
    w = exterior_derivative(ScalarField(shape=shape, h=h))
    assert (w.fx, w.gy) == naive_differences(h)
    assert antiderivative(w).h == naive_potential(w.fx, w.gy)
    # a random form, closed exactly when its potential's d gives it back
    fx, gy = table(data, m, n + 1), table(data, m + 1, n)
    v = OneForm(shape=shape, fx=fx, gy=gy)
    closed = naive_differences(naive_potential(fx, gy)) == (fx, gy)
    assert is_closed(v) == closed
    if closed:
        assert antiderivative(v).h == naive_potential(fx, gy)
    else:
        with pytest.raises(ValueError):
            antiderivative(v)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2 ** 32), st.data())
def test_coloring_bijection_matches_the_oracles(m, n, seed, data):
    shape = GridShape(m, n)
    cells = random_proper_coloring(shape, random.Random(seed)).cells
    # the same coloring with one cell set to its neighbour's label
    i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, n))
    spoiled = tuple(col[:j] + (cells[i + 1][j],) + col[j + 1:] if k == i else col
                    for k, col in enumerate(cells))
    noise = table(data, m + 1, n + 1)
    for c in (cells, spoiled, noise):
        assert is_proper(Coloring(shape=shape, cells=c)) == naive_is_proper(c)
    assert naive_is_proper(cells) and not naive_is_proper(spoiled)
    with pytest.raises(ValueError):
        form_from_coloring(Coloring(shape=shape, cells=spoiled))
    w, t0 = form_from_coloring(Coloring(shape=shape, cells=cells))
    assert ((w.fx, w.gy), t0) == (naive_form_from_cells(cells), cells[0][0])
    for t in (0, 1, 2):
        assert coloring_from_form(w, t).cells == naive_coloring_cells(w.fx, w.gy, t)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(PERIODS), st.sampled_from(PERIODS), st.data())
def test_toroidal_calculus_matches_the_oracles(m, n, data):
    shape = GridShape(m, n)
    values = table(data, m, n)
    h = PeriodicField(shape=shape, values=values)
    dh = toroidal_derivatives(h)
    assert (dh.fx, dh.gy) == naive_toroidal_derivatives(values)
    for r, s in product(OFFSETS, repeat=2):
        w = reconstruct(CohomologyDecomposition(r=r, s=s, h=h))
        assert (w.fx, w.gy) == naive_reconstruct(r, s, values)
        d = decompose(w)
        assert (d.r, d.s, d.h.values) == naive_decompose(w.fx, w.gy)
        assert d.h.values == shifted(values, -values[0][0])
    # a random toroidal form, decomposed exactly when it is closed
    fx, gy = table(data, m, n), table(data, m, n)
    v = ToroidalOneForm(shape=shape, fx=fx, gy=gy)
    r, s, values = naive_decompose(fx, gy)
    if naive_reconstruct(r, s, values) == (fx, gy):
        d = decompose(v)
        assert (d.r, d.s, d.h.values) == (r, s, values)
    else:
        with pytest.raises(ValueError):
            decompose(v)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_wrapped_differences_take_any_periods(m, n, data):
    # periods divisible by 3 too: only decompose divides by them
    values = table(data, m, n)
    dfx, dgy = naive_toroidal_derivatives(values)
    for r, s in product(OFFSETS, repeat=2):
        assert _wrapped_differences(values, r, s) == (shifted(dfx, r), shifted(dgy, s))


def perturbed(data, fx: tuple, gy: tuple) -> tuple:
    """fx and gy with 0 to 2 entries each moved by a nonzero F3 value."""
    tables = [list(map(list, fx)), list(map(list, gy))]
    for _ in range(data.draw(st.integers(0, 2))):
        col = data.draw(st.sampled_from(data.draw(st.sampled_from(tables))))
        j = data.draw(st.integers(0, len(col) - 1))
        col[j] = (col[j] + data.draw(st.integers(1, 2))) % 3
    return tables


@settings(deadline=None, max_examples=80)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2 ** 32), st.data())
def test_antiderivative_refuses_exactly_what_is_closed_rejects(m, n, seed, data):
    shape = GridShape(m, n)
    w = random_closed_forms(shape, random.Random(seed), 1)[0]
    fx, gy = perturbed(data, w.fx, w.gy)
    v = OneForm(shape=shape, fx=fx, gy=gy)
    if is_closed(v):
        assert exterior_derivative(antiderivative(v)) == v
    else:
        with pytest.raises(ValueError, match="^antiderivative requires a closed form$"):
            antiderivative(v)


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(PERIODS), st.sampled_from(PERIODS), st.integers(0, 2 ** 32),
       st.data())
def test_decompose_refuses_exactly_what_is_closed_toroidal_rejects(m, n, seed, data):
    shape = GridShape(m, n)
    r, s, values = next(_random_decompositions(shape, random.Random(seed), 1))
    w = reconstruct(CohomologyDecomposition(r=r, s=s, h=PeriodicField(shape=shape, values=values)))
    fx, gy = perturbed(data, w.fx, w.gy)
    v = ToroidalOneForm(shape=shape, fx=fx, gy=gy)
    if is_closed_toroidal(v):
        assert reconstruct(decompose(v)) == v
    else:
        with pytest.raises(ValueError, match="^decompose requires a closed toroidal form$"):
            decompose(v)


# the shapes _round_trip is checked on: squares up to 6x6 and two long strips
ROUND_TRIP_SHAPES = [(m, n) for m in range(2, 7) for n in range(2, 7)] + [(2, 9), (9, 2)]


def corrupted(data, fx: tuple, gy: tuple) -> list:
    """fx and gy with one entry, the same one in each, moved by each
    nonzero F3 value, or written as the same F3 value plus or minus 3."""
    cols = [*fx, *gy]
    i = data.draw(st.integers(0, len(cols) - 1))
    k = data.draw(st.integers(0, len(cols[i]) - 1))
    x = cols[i][k]
    out = []
    for y in ((x + 1) % 3, (x + 2) % 3, x + 3, x - 3):
        spoiled = cols[:i] + [cols[i][:k] + (y,) + cols[i][k + 1:]] + cols[i + 1:]
        out.append((tuple(spoiled[:len(fx)]), tuple(spoiled[len(fx):])))
    return out


@settings(deadline=None, max_examples=100, derandomize=True)
@given(st.sampled_from(ROUND_TRIP_SHAPES), st.integers(0, 2 ** 32), st.data())
def test_round_trip_is_d_of_the_potential(mn, seed, data):
    # closed tables from the walk and the sampler, arbitrary ones, and
    # closed ones with an entry corrupted, each at every offset c and
    # base label t in F3.  Written as 0..2, a closed table's climbs give
    # their gy columns back by D_y and start at t, so the rise and
    # base-label checks decide only where an entry or t is written
    # otherwise: an entry corrupted to x + 3 or x - 3, a negative t
    m, n = mn
    shape = GridShape(m, n)
    # the walk builds a shape's columns before its first table, so it is
    # taken up to n = 3 and the sampler stands in for it beyond
    walk = (closed_form_tables(shape, force=True) if n <= 3
            else _random_closed_tables(shape, random.Random(seed + 1), 100))
    walked = next(islice(walk, data.draw(st.integers(0, 99)), None))
    sampled = next(_random_closed_tables(shape, random.Random(seed), 1))
    assert _round_trip(*walked) and _round_trip(*sampled)
    arbitrary = table(data, m, n + 1), table(data, m + 1, n)
    for fx, gy in (walked, sampled, arbitrary, *corrupted(data, *walked),
                   *corrupted(data, *sampled)):
        for c, t in product(OFFSETS, repeat=2):
            h = _potential(fx, gy, c, c, t)
            expected = h[0][0] == t and _differences(h, -c, -c) == (fx, gy)
            assert _round_trip(fx, gy, c, t) == expected
