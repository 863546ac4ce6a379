"""Discrete differential forms over F3 on a rectangular lattice.

A scalar field assigns an F3 value to each vertex of the (m+1) x (n+1)
grid of plaquette corners; a 1-form assigns values to edges, split into
an x-part (same index ranges as the f edges of a state) and a y-part
(same ranges as the g edges).  The discrete partial derivatives are

    (D_x h)[i][j] = h[i+1][j] - h[i][j]
    (D_y h)[i][j] = h[i][j+1] - h[i][j]

and a 1-form  w = fx dx + gy dy  is closed when D_y fx = D_x gy at every
interior vertex.  On a rectangle every closed form is exact, with an
explicit antiderivative summed along a bottom-then-up path.  d and this
inverse are written once, as the table functions _differences and
_potential, and they run a column at a time through three column
kernels: the difference of two neighbouring columns (_step), the
difference up one column (_rise) and the running sums up one column
from a base (_climb).  Each is a bounded memo, an lru_cache of
transfer._MEMO_SIZE entries keyed by its column tuples and an F3
offset added to every entry, so a column seen before costs one lookup.
The offsets are the callers' shifts: the coloring bijection's
+ t + i + j and - 1, and the torus's r and s (toroidal's reconstruct
and decompose call the same kernels).  is_proper reads the differences
too: a coloring is proper when no difference along an edge is 0.
closedness_matrix is grid's vertex incidence matrix over F3, the one
eightvertex's defect map reads over F2.

Six-vertex states over {0, 1} correspond to closed 1-forms, and these in
turn correspond to proper 3-colorings of the corner grid; both
directions are implemented here.  Closedness and admissibility are
the vertex tables of transfer (CLOSED_F3, SIX_VERTEX); counts come
from its sweep and listings, closed forms too, from its column walk.
antiderivative alone checks closedness by the calculus instead: a form
is closed when d of its potential gives it back, and those differences
are the kernel calls exterior_derivative makes next, memo hits.
count_colorings counts the colorings by a sweep of its own, a cell at a
time, that reads no vertex table, so count --check-colorings compares
two independent engines; its test oracle is a backtracking count
(backtrack_colorings in tests/conftest.py).  random_closed_forms reads
CLOSED_F3 too, not a kernel.  The random samplers, random_closed_forms
here, random_proper_coloring and toroidal's for verify cohomology, make
one integer rng.randrange per column and read it as digits, base 3
through _f3_digits or base 6.  six_state_tables is the guarded walk over
the states in edge_tuple order, free, on a fixed boundary that is
pinned during the walk, not filtered after it, or on the torus (TORUS);
enumerate_six lists it and count_six counts it.  Values built here from
tables the library made (by the walk, d and its inverse, the coloring
bijection) use the trusted constructors, which check nothing.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import accumulate, product, repeat
from operator import add, contains

from .algebra import GF3, FieldMatrix, Record, _trusted
from .grid import (
    TORUS,
    GridShape,
    InputError,
    LatticeState,
    _NotClosedError,
    _freeze_grid,
    _vertex_incidence,
    check_boundary,
    guard_cost,
    guard_power,
)
from .transfer import (
    _MEMO_SIZE,
    CLOSED_F3,
    SIX_VERTEX,
    count_states,
    first_bad_vertex,
    state_tables,
)


class ScalarField(Record):
    """F3 values on the (m+1) x (n+1) vertex grid, indexed [i][j]."""

    shape: GridShape
    h: tuple

    def __post_init__(self):
        m, n = self.shape.m, self.shape.n
        object.__setattr__(self, "h", _freeze_grid(self.h, m + 1, n + 1, GF3, "h"))

    trusted = _trusted


class OneForm(Record):
    """F3 1-form: fx on the m x (n+1) vertical-edge grid, gy on (m+1) x n."""

    shape: GridShape
    fx: tuple
    gy: tuple

    def __post_init__(self):
        m, n = self.shape.m, self.shape.n
        object.__setattr__(self, "fx", _freeze_grid(self.fx, m, n + 1, GF3, "fx"))
        object.__setattr__(self, "gy", _freeze_grid(self.gy, m + 1, n, GF3, "gy"))

    trusted = _trusted


class Coloring(Record):
    """Z/3 labels on the (m+1) x (n+1) vertex grid, indexed like ScalarField."""

    shape: GridShape
    cells: tuple

    def __post_init__(self):
        m, n = self.shape.m, self.shape.n
        object.__setattr__(self, "cells", _freeze_grid(self.cells, m + 1, n + 1, GF3, "cells"))

    trusted = _trusted


@lru_cache(maxsize=_MEMO_SIZE)
def _step(col: tuple, nxt: tuple, c: int) -> tuple:
    """nxt[j] - col[j] + c mod 3: D_x between two columns, shifted by c."""
    return tuple([(b - a + c) % 3 for a, b in zip(col, nxt)])


@lru_cache(maxsize=_MEMO_SIZE)
def _rise(col: tuple, c: int) -> tuple:
    """col[j+1] - col[j] + c mod 3: D_y up one column, shifted by c."""
    return tuple([(b - a + c) % 3 for a, b in zip(col, col[1:])])


@lru_cache(maxsize=_MEMO_SIZE)
def _climb(base: int, col: tuple, c: int) -> tuple:
    """base + sum_{b<j} (col[b] + c) mod 3 for j = 0..len(col): the running
    sums up one column, one entry longer; base is in F3."""
    return tuple([x % 3 for x in accumulate(map(add, col, repeat(c)), initial=base)])


def _differences(h, cx: int = 0, cy: int = 0) -> tuple:
    """(D_x h + cx, D_y h + cy) of a table of columns: h[i+1][j] - h[i][j]
    and h[i][j+1] - h[i][j] mod 3, one column and one entry fewer.  A
    kernel call per column, so a column seen before costs one lookup."""
    return tuple(map(_step, h, h[1:], repeat(cx))), tuple(map(_rise, h, repeat(cy)))


def _potential(fx, gy, cx: int = 0, cy: int = 0, t: int = 0) -> tuple:
    """h[i][j] = t + sum_{a<i} (fx[a][0] + cx) + sum_{b<j} (gy[i][b] + cy)
    mod 3, t in F3, the sum along the bottom-then-up path: a column per
    gy column, one entry longer.  On a closed rectangle form h is the
    potential of fx + cx and gy + cy, so _differences(h, -cx, -cy) ==
    (fx, gy)."""
    bases = _climb(t, next(zip(*fx)), cx)  # fx's bottom row
    return tuple(map(_climb, bases, gy, repeat(cy)))


def exterior_derivative(field: ScalarField) -> OneForm:
    """d(h) = (D_x h) dx + (D_y h) dy: fx[i][j] = h[i+1][j] - h[i][j],
    m x (n+1), and gy[i][j] = h[i][j+1] - h[i][j], (m+1) x n."""
    fx, gy = _differences(field.h)
    return OneForm.trusted(shape=field.shape, fx=fx, gy=gy)


def is_closed(w: OneForm) -> bool:
    """True when D_y fx = D_x gy at every interior vertex."""
    return first_bad_vertex(CLOSED_F3, w.fx, w.gy) is None


def antiderivative(w: OneForm) -> ScalarField:
    """The scalar field h with dh = w and h[1][1] = 0.

    h[i][j] is the sum of fx along the bottom row up to column i, plus
    gy up column i to height j.  Requires the form to be closed, and
    checks it by the calculus, not the vertex table: D_y h is gy by
    construction, so w is closed, being dh, exactly when D_x h is fx.
    Those _step calls are the ones exterior_derivative(h) makes next.
    """
    fx = w.fx
    h = _potential(fx, w.gy)
    if tuple(map(_step, h, h[1:], repeat(0))) != fx:
        raise _NotClosedError("antiderivative requires a closed form")
    return ScalarField.trusted(shape=w.shape, h=h)


def closedness_matrix(shape: GridShape) -> FieldMatrix:
    """mn x edge_count matrix over F3 whose kernel is the closed forms.

    The vertex incidence rows of grid, right - left = top - bottom:
    the row of vertex (i, j) encodes fx[i][j+1] - fx[i][j] - gy[i+1][j]
    + gy[i][j]; columns follow the edge_tuple layout.
    """
    return _vertex_incidence(shape, GF3)


def closed_form_tables(shape: GridShape, force: bool = False):
    """The (fx, gy) tables of all closed 1-forms on the shape, in (fx, gy)
    order.

    Charges the guard, forms times edge_count, when called, before any
    table is built, then returns the iterator of transfer.state_tables,
    which walks CLOSED_F3 and lists all 3^(mn + m + n) in edge_tuple
    order, which is (fx, gy) order.
    """
    guard_power(3, shape.m * shape.n + shape.m + shape.n, shape.edge_count, force)
    return state_tables(CLOSED_F3, shape)


def enumerate_closed(shape: GridShape, force: bool = False) -> list[OneForm]:
    """All closed 1-forms on the shape, in the order and under the guard
    of closed_form_tables."""
    return [OneForm.trusted(shape=shape, fx=f, gy=g) for f, g in closed_form_tables(shape, force)]


# _FIVE_DIGITS[x]: the five base-3 digits of x < 243, high digit first
_FIVE_DIGITS = tuple(product(range(3), repeat=5))


def _f3_digits(x: int, k: int) -> tuple:
    """The k base-3 digits of an integer 0 <= x < 3^k, five at a time
    from the low end through _FIVE_DIGITS: one to one from [0, 3^k) onto
    F3^k, with no table or integer larger than the column's."""
    digits = ()
    while k > 5:
        x, low = divmod(x, 243)
        digits += _FIVE_DIGITS[low]
        k -= 5
    return digits + _FIVE_DIGITS[x][5 - k:]


def random_closed_forms(shape: GridShape, rng: random.Random, k: int) -> list[OneForm]:
    """k uniformly random closed 1-forms, drawn by the vertex rule.

    Each form takes one rng.randrange per column: gy's first column is
    the n base-3 digits of a draw below 3^n, each of fx's m columns the
    n + 1 digits of one below 3^(n + 1), and each next gy column is read
    off CLOSED_F3, as state_tables does.  So the m + 1 draws map one to
    one onto the 3^(mn + m + n) closed forms.  The rng draws are those
    of k calls of random_closed_form.
    """
    m, n = shape.m, shape.n
    right = {(left, top, bottom): r for left, top, r, bottom in CLOSED_F3}
    first, column = 3 ** n, 3 ** (n + 1)
    forms = []
    for _ in range(k):
        gy = [_f3_digits(rng.randrange(first), n)]
        fx = tuple([_f3_digits(rng.randrange(column), n + 1) for _ in range(m)])
        for f in fx:
            # vertex (i, j): g[i][j], f[i][j+1], f[i][j] fix g[i+1][j]
            gy.append(tuple(map(right.__getitem__, zip(gy[-1], f[1:], f))))
        forms.append(OneForm.trusted(shape=shape, fx=fx, gy=tuple(gy)))
    return forms


def random_closed_form(shape: GridShape, rng: random.Random) -> OneForm:
    """A uniformly random closed 1-form, as random_closed_forms draws it."""
    return random_closed_forms(shape, rng, 1)[0]


def is_admissible_form(w: OneForm) -> bool:
    """Closed, with all values in {0, 1}: as every edge meets a vertex, SIX_VERTEX."""
    return first_bad_vertex(SIX_VERTEX, w.fx, w.gy) is None


def is_admissible_six(state: LatticeState) -> bool:
    """Every vertex satisfies the six-vertex rule.

    The rule at vertex (i, j) is g[i+1][j] - g[i][j] = f[i][j+1] - f[i][j]
    mod 3, with all edge values in {0, 1}: SIX_VERTEX.  A state containing
    the value 2 is rejected with an error rather than judged inadmissible.
    """
    if state.field is not GF3:
        raise InputError("six-vertex states live over F3")
    if any(x == 2 for row in state.f for x in row) or any(
        x == 2 for row in state.g for x in row
    ):
        raise InputError("six-vertex states carry edge values in {0, 1} only")
    return first_bad_vertex(SIX_VERTEX, state.f, state.g) is None


def state_to_form(state: LatticeState) -> OneForm:
    """Reinterpret a six-vertex state's edge labels as a 1-form over F3."""
    if state.field is not GF3:
        raise ValueError("expected an F3 state")
    return OneForm.trusted(shape=state.shape, fx=state.f, gy=state.g)


def is_proper(c: Coloring) -> bool:
    """No two horizontally or vertically adjacent grid vertices share a
    label: no difference of c along an edge is 0."""
    dx, dy = _differences(c.cells)
    return not any(map(contains, dx + dy, repeat(0)))


def coloring_from_form(w: OneForm, t: int) -> Coloring:
    """Proper coloring from an admissible closed form and a base label t.

    The color at grid vertex (i, j) is h[i][j] + t + i + j - 2 mod 3,
    where h is the normalized antiderivative of w.
    """
    if t not in (0, 1, 2):
        raise ValueError("base label t must be in {0, 1, 2}")
    fx, gy = w.fx, w.gy
    if first_bad_vertex(SIX_VERTEX, fx, gy) is not None:  # is_admissible_form
        raise ValueError("coloring_from_form requires an admissible closed form")
    # h + t + i + j sums fx + 1 and gy + 1 along the path from t
    return Coloring.trusted(shape=w.shape, cells=_potential(fx, gy, 1, 1, t))


def form_from_coloring(c: Coloring) -> tuple:
    """(admissible closed form, base label) recovering the coloring.

    The form is d(c) - dx - dy and the base label is the color at the
    bottom-left vertex.  Requires a proper coloring.
    """
    fx, gy = _differences(c.cells, -1, -1)
    # a difference is 0, an improper edge, exactly where d - 1 is 2
    if any(map(contains, fx + gy, repeat(2))):
        raise ValueError("form_from_coloring requires a proper coloring")
    return OneForm.trusted(shape=c.shape, fx=fx, gy=gy), c.cells[0][0]


def six_state_tables(shape: GridShape, boundary=None, force: bool = False):
    """The (f, g) tables of the admissible six-vertex states on a free
    (None), fixed (an F3 BoundarySpec) or TORUS boundary, by edge tuple
    (f block, g block).

    Checks the boundary and charges the guard when called, before any
    table is built, then returns transfer.state_tables' iterator.  A
    fixed boundary is pinned during the walk, so only matching states
    are built; a boundary value of 2 admits no state.  On the torus the
    states are the rectangle states whose top f row repeats the bottom
    one and whose right g column repeats the left one.  The guard
    charges edge_count times the state count of the lattice with its
    fixed ends freed: the free count for a free or fixed boundary, which
    bounds what a pinned listing builds, and the torus count for TORUS.
    """
    if boundary is not TORUS:
        check_boundary(boundary, shape, GF3)
    freed = TORUS if boundary is TORUS else None
    guard_cost(count_states(SIX_VERTEX, shape, freed, force) * shape.edge_count, force)
    return state_tables(SIX_VERTEX, shape, boundary)


def enumerate_six(shape: GridShape, boundary=None, force: bool = False) -> list[LatticeState]:
    """Admissible six-vertex states on a free, fixed or TORUS boundary, in
    the order and under the guard of six_state_tables."""
    return [LatticeState.trusted(shape=shape, field=GF3, f=f, g=g)
            for f, g in six_state_tables(shape, boundary, force)]


def count_six(shape: GridShape, force: bool = False, boundary=None) -> int:
    """Number of admissible six-vertex states on a free (None), fixed (an
    F3 BoundarySpec) or TORUS boundary.

    Computed by the transfer sweep, which charges the guard its own
    work; enumerate_six lists the same states by the column walk on the
    same table.  A boundary value of 2 admits no state.
    """
    if boundary is not TORUS:
        check_boundary(boundary, shape, GF3)
    return count_states(SIX_VERTEX, shape, boundary, force)


def count_colorings(width: int, height: int, force: bool = False) -> int:
    """Proper 3-colorings of the width x height grid graph, by a transfer
    sweep one cell at a time.

    The grid graph is the same turned a quarter, so the sweep steps
    along the longer side, a column of rows = min(width, height) cells
    at a time.  The frontier maps a key, one color per row, to the
    number of partial colorings behind it: rows below the current cell
    hold the current column's colors, the rest the previous column's,
    and 3, no color, stands for the column left of the first.  Cell j
    takes each color differing from its left neighbour key[j] and the
    cell below it, the new key[j - 1].  A key is two proper paths, so
    there are at most 3 * 2^rows keys, each trying at most 2 colors
    (3 only at the first cell's one key); the guard is charged that
    bound of dict updates for every cell.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    rows, columns = sorted((width, height))
    guard_power(2, rows + 1, 3 * width * height, force)
    # allowed[left][below]: the colors differing from both, as 1-tuples
    allowed = [[[(c,) for c in range(3) if c not in (left, below)] for below in range(4)]
               for left in range(4)]
    frontier = {(3,) * rows: 1}
    for _ in range(columns):
        for j in range(rows):
            nxt: dict = {}
            for key, v in frontier.items():
                head, tail = key[:j], key[j + 1:]
                for c in allowed[key[j]][key[j - 1] if j else 3]:
                    k = head + c + tail
                    nxt[k] = nxt.get(k, 0) + v
            frontier = nxt
    return sum(frontier.values())


# _PICK[below][left][d]: the (d mod k)-th of the k labels other than
# below and left, where 3 stands for no neighbour
_PICK = tuple(
    tuple(
        tuple(options[d % len(options)] for d in range(6))
        for options in [[c for c in range(3) if c not in (below, left)] for left in range(4)]
    )
    for below in range(4)
)


def random_proper_coloring(shape: GridShape, rng: random.Random) -> Coloring:
    """A random proper coloring, drawn a row of m + 1 cells at a time.

    Each row j is one rng.randrange(6^(m + 1)), read as base-6 digits
    from the low end, one per cell from i = 0 up.  A cell takes the
    (d mod k)-th of the k labels other than its left and lower
    neighbours' from its digit d; 1, 2 and 3 all divide 6, so each is
    equally likely, as a uniform choice cell by cell would make it.
    """
    m, n = shape.m, shape.n
    stop = 6 ** (m + 1)
    rows = []
    below_row = (3,) * (m + 1)  # 3, no neighbour: the row below the first
    for _ in range(n + 1):
        x = rng.randrange(stop)
        left = 3
        row = []
        for below in below_row:
            x, d = divmod(x, 6)
            left = _PICK[below][left][d]
            row.append(left)
        below_row = tuple(row)
        rows.append(below_row)
    return Coloring.trusted(shape=shape, cells=tuple(zip(*rows)))
