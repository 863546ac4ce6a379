"""Shared fixtures and generators for solvable weight families.

The generators build weight triples that solve the Yang-Baxter equation
by construction: a one-parameter family where every entry is a rational
function of two parameters (so all arithmetic stays in Fraction), plus
a diagonal twist that breaks the c/d symmetries without breaking the
equation.  Tests use these as positive instances; random weights from
random_weights are the generic negative instances.

Also here are oracle_rref and oracle_nullspace, Gauss-Jordan elimination
one field operation per entry (Fractions over Q), which algebra's integer
rref and nullspace_basis are checked against, with mat_vec, the
matrix-vector product the kernel tests use, and identity_matrix, to_rows
and is_zero, which build and read FieldMatrix values,
affine_span, the kernel-walk oracle that the closed-form and
eight-vertex listings are checked against, with its vector helper combine
(tests of both in test_affine_span.py),
toroidal_six_states, the row-by-row oracle for the toroidal count and
listing, recursive_state_tables, the vertex-by-vertex column walk
that transfer.state_tables is checked against, order included,
backtrack_colorings, the backtracking oracle for
forms_rect.count_colorings, and the naive_* calculus: d, its inverse,
the properness scan, both directions of the coloring bijection and the
toroidal decompose and reconstruct, written a generator or an index
loop per column with no memo, which the column kernels of forms_rect
are checked against (test_column_kernels.py).  ReplayRandom stands in
for random.Random where a test replays chosen draws into a sampler.
from_pairs, identity_weights and vertex_index build test inputs and
name matrix rows; no code in the package needs them.
star_triangle_residual, the paper's 64-term sum over a BoundaryHex of
external labels, is the oracle yangbaxter's STAR_TRIANGLE_TABLE is
checked against, and periodic_at, a 1-based lookup through index
reduction, is how the toroidal oracles read a periodic table anywhere.
fraction_det, a Fraction elimination with row swaps, evaluates the
Izergin-Korepin determinant, and row_transfer builds the row transfer
matrices whose commutation the Yang-Baxter solutions imply.
"""

from fractions import Fraction
from itertools import accumulate, chain, cycle, product
from math import prod
from pathlib import Path
from typing import Iterator, Sequence

import pytest

from vertexforms.algebra import Field, FieldMatrix, Record, rref
from vertexforms.grid import TORUS, deserialize_state
from vertexforms.yangbaxter import VertexWeights, component

FIXTURES = Path(__file__).parent / "fixtures"


def load_state(name):
    return deserialize_state((FIXTURES / name).read_text())


@pytest.fixture
def rect_state():
    return load_state("rect_5x3.json")


@pytest.fixture
def torus_state():
    return load_state("torus_5x3.json")


def tanh_add(x: Fraction, y: Fraction) -> Fraction:
    return (x + y) / (1 + x * y)


def tanh_sub(x: Fraction, y: Fraction) -> Fraction:
    return (x - y) / (1 - x * y)


def baxter_weights(t: Fraction, h: Fraction) -> VertexWeights:
    """One point of a solvable family: (a, a, t, t, h, h, ath, ath).

    With a = (t + h)/(1 + th), triples taken at parameters (t1 - t2,
    t1, t2 combined through tanh_sub) and a shared h solve the
    Yang-Baxter equation; the addition law keeps every entry rational.
    """
    a = tanh_add(t, h)
    return VertexWeights(a, a, t, t, h, h, a * t * h, a * t * h)


def twist(w: VertexWeights, x: Fraction, y: Fraction) -> VertexWeights:
    """Diagonal gauge change: rescales c and d pairs in opposite directions."""
    return VertexWeights(
        w.a1, w.a_neg1, w.b1, w.b_neg1,
        w.c1 * y / x, w.c_neg1 * x / y,
        w.d1 / (x * y), w.d_neg1 * x * y,
    )


def solvable_triple(t1, t2, h, x, y, z, scales=(1, 1, 1)):
    """(R, S, T) solving the Yang-Baxter equation, twisted and rescaled."""
    r = twist(baxter_weights(tanh_sub(t1, t2), h), x, y)
    s = twist(baxter_weights(t1, h), x, z)
    t = twist(baxter_weights(t2, h), y, z)
    cr, cs, ct = scales
    return (
        VertexWeights(*(cr * v for v in r.as_vector())),
        VertexWeights(*(cs * v for v in s.as_vector())),
        VertexWeights(*(ct * v for v in t.as_vector())),
    )


def random_solvable_pair(rng):
    """Fully nonzero (S, T) from the twisted family, suitable for solve_R."""
    while True:
        t1 = Fraction(rng.randint(1, 9), rng.randint(10, 19))
        t2 = Fraction(rng.randint(1, 9), rng.randint(10, 19))
        if t1 == t2:
            continue
        h = Fraction(rng.randint(1, 9), rng.randint(10, 19))
        x = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        y = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        z = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        scales = tuple(Fraction(rng.randint(1, 5)) for _ in range(3))
        try:
            r, s, t = solvable_triple(t1, t2, h, x, y, z, scales)
        except ZeroDivisionError:
            continue
        if any(v == 0 for w in (r, s, t) for v in w.as_vector()):
            continue
        return s, t


def random_solvable_triple(rng):
    """Fully nonzero (R, S, T) with zero commutator, for equivalence suites."""
    while True:
        t1 = Fraction(rng.randint(1, 9), rng.randint(10, 19))
        t2 = Fraction(rng.randint(1, 9), rng.randint(10, 19))
        if t1 == t2:
            continue
        h = Fraction(rng.randint(1, 9), rng.randint(10, 19))
        x = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        y = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        z = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        try:
            triple = solvable_triple(t1, t2, h, x, y, z)
        except ZeroDivisionError:
            continue
        if any(v == 0 for w in triple for v in w.as_vector()):
            continue
        return triple


def from_pairs(a, b, c, d) -> VertexWeights:
    """Weights from (plus, minus) pairs, one per letter."""
    return VertexWeights(a[0], a[1], b[0], b[1], c[0], c[1], d[0], d[1])


def identity_weights() -> VertexWeights:
    """a and b weights 1, c and d weights 0: the identity R-matrix."""
    return VertexWeights(1, 1, 1, 1, 0, 0, 0, 0)


def vertex_index(shape, i: int, j: int) -> int:
    """Row of vertex (i, j) in the vertex incidence matrix: i outer, j inner."""
    return (i - 1) * shape.n + (j - 1)


def random_weights(rng) -> VertexWeights:
    """Generic rational weights; almost never solve the equation."""
    return VertexWeights(*(
        Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(8)
    ))


class BoundaryHex(Record):
    """The six external labels of the star-triangle hexagon.

    sigma and tau enter the crossing vertex, beta enters from above;
    theta, rho, alpha leave.  Internal labels are summed over inside
    star_triangle_residual.
    """

    sigma: int
    tau: int
    beta: int
    theta: int
    rho: int
    alpha: int

    def bits(self) -> tuple:
        return (self.sigma, self.tau, self.beta, self.theta, self.rho, self.alpha)


def star_triangle_residual(r: VertexWeights, s: VertexWeights, t: VertexWeights,
                           ext: BoundaryHex) -> Fraction:
    """Crossing-first side minus crossing-last side, one external labeling.

    Each side sums the weight products over the 8 assignments of its
    three internal edge labels.
    """
    sg, ta, be, th, rh, al = ext.bits()
    lhs = Fraction(0)
    for gamma, mu, nu in product((0, 1), repeat=3):
        lhs += (component(r, sg, ta, nu, mu)
                * component(s, nu, be, th, gamma)
                * component(t, mu, gamma, rh, al))
    rhs = Fraction(0)
    for delta, phi, psi in product((0, 1), repeat=3):
        rhs += (component(t, ta, be, psi, delta)
                * component(s, sg, delta, phi, al)
                * component(r, phi, psi, th, rh))
    return lhs - rhs


def index_reduce(i: int, period: int) -> int:
    """The representative of i in [1, period] modulo the period."""
    return (i - 1) % period + 1


def periodic_at(table, i: int, j: int):
    """Entry (i, j), 1-based, of a doubly periodic table of m columns of
    n entries, at any integer pair: each index reduced by its period."""
    return table[index_reduce(i, len(table)) - 1][index_reduce(j, len(table[0])) - 1]


def combine(field: Field, start: Sequence[int], coeffs, vectors) -> list:
    """start + sum of c * v over F_p, one coefficient and vector at a time."""
    p = field.p
    vec = list(start)
    for c, v in zip(coeffs, vectors):
        if c % p:
            vec = [(x + c * y) % p for x, y in zip(vec, v)]
    return vec


def affine_span(field: Field, base: Sequence[int], basis: list) -> Iterator[tuple]:
    """Every vector of base + span(basis) over F_p once, in lexicographic order.

    The basis is put in reduced echelon form, so each row leads at a
    pivot column where every other row is zero, and base is reduced to
    0 at the pivots.  A vector of the space then reads its coefficients
    off the pivots, and two vectors first differ at the pivot of their
    first differing coefficient: walking the coefficient tuples in lex
    order, one row per level, lists the vectors in lex order unsorted.
    """
    rows = [r for r in to_rows(rref(FieldMatrix.from_rows(field, basis))) if any(r)]
    pivots = [next(c for c, x in enumerate(r) if x) for r in rows]
    vec = [x % field.p for x in base]
    for r, c in zip(rows, pivots):
        vec = combine(field, vec, (-vec[c],), (r,))

    def walk(level: int, vec: list) -> Iterator[tuple]:
        if level == len(rows):
            yield tuple(vec)
            return
        row = rows[level]
        for c in range(field.p):
            yield from walk(level + 1, combine(field, vec, (c,), (row,)))

    return walk(0, vec)


class ReplayRandom:
    """Stands in for random.Random: randrange returns the given draws in
    turn, and asserts that its stops come in the given cycle."""

    def __init__(self, draws, stops):
        self.draws = iter(draws)
        self.stops = cycle(stops)

    def randrange(self, stop):
        assert stop == next(self.stops)
        return next(self.draws)


def field_ops(field: Field) -> tuple:
    """(sub, mul, inv) of field, one entry at a time: mod p over F_p,
    Fraction arithmetic over Q."""
    p = field.p
    if p:
        return (lambda x, y: (x - y) % p, lambda x, y: x * y % p,
                lambda x: pow(x, p - 2, p))
    return (lambda x, y: x - y, lambda x, y: x * y, lambda x: 1 / Fraction(x))


def oracle_rref(m: FieldMatrix) -> FieldMatrix:
    """Reduced row echelon form, each pivot row scaled by the pivot's
    inverse and subtracted from the rows it clears one entry at a time."""
    sub, mul, inv = field_ops(m.field)
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivot_row = 0
    for col in range(m.cols):
        if pivot_row >= m.rows:
            break
        sel = next((r for r in range(pivot_row, m.rows) if rows[r][col] != 0), None)
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        scale = inv(rows[pivot_row][col])
        prow = rows[pivot_row] = [mul(scale, x) for x in rows[pivot_row]]
        for r in range(m.rows):
            factor = rows[r][col]
            if r != pivot_row and factor != 0:
                rows[r] = [sub(x, mul(factor, y)) for x, y in zip(rows[r], prow)]
        pivot_row += 1
    return FieldMatrix(m.field, m.rows, m.cols, tuple(x for row in rows for x in row))


def oracle_nullspace(m: FieldMatrix) -> list:
    """Nullspace basis read off oracle_rref: for each free column c in
    order, the vector with 1 at c and -R[i][c] at row i's pivot."""
    r = oracle_rref(m)
    sub, _, _ = field_ops(m.field)
    zero, one = (0, 1) if m.field.p else (Fraction(0), Fraction(1))
    pivots = [next(j for j, x in enumerate(row) if x != 0)
              for row in to_rows(r) if any(x != 0 for x in row)]
    basis = []
    for c in (c for c in range(m.cols) if c not in pivots):
        v = [zero] * m.cols
        v[c] = one
        for i, j in enumerate(pivots):
            v[j] = sub(zero, r.at(i, c))
        basis.append(tuple(v))
    return basis


def identity_matrix(field: Field, n: int) -> FieldMatrix:
    """The n x n identity matrix over field."""
    one, zero = (1, 0) if field.p else (Fraction(1), Fraction(0))
    return FieldMatrix(field, n, n, tuple(one if i == j else zero
                                          for i in range(n) for j in range(n)))


def to_rows(m: FieldMatrix) -> list:
    """The rows of m, as lists."""
    return [list(m.row(i)) for i in range(m.rows)]


def is_zero(m: FieldMatrix) -> bool:
    return not any(m.entries)


def mat_vec(a: FieldMatrix, v: Sequence) -> tuple:
    """The product a v as a tuple of field elements."""
    if a.cols != len(v):
        raise ValueError("vector length does not match matrix columns")
    p = a.field.p
    out = (sum(x * y for x, y in zip(a.row(i), v)) for i in range(a.rows))
    return tuple(x % p for x in out) if p else tuple(out)


def fraction_det(rows) -> Fraction:
    """The determinant of a square matrix of ints or Fractions by plain
    Fraction elimination, swapping a zero pivot with a row below: the
    oracle the lattice's determinant laws use, apart from algebra's
    integer elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            factor = a[i][k] / a[k][k]
            a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return det


def row_transfer(w: VertexWeights, m: int) -> list:
    """The row transfer matrix of the weights w on a toroidal row of m
    vertices, m <= 4, as exact Fractions.  Rows are the top edges and
    columns the bottom ones, both in product((0, 1), repeat=m) order;
    entry [top][bottom] sums, over the row's horizontal edges h, the
    product of component(w, h_i, top_i, h_(i+1 mod m), bottom_i): each
    vertex's (left, top, right, bottom) weight, the last right edge
    being the first left one."""
    if not 1 <= m <= 4:
        raise ValueError("row_transfer builds rows of 1 to 4 vertices")
    rows = list(product((0, 1), repeat=m))
    weight = {labels: component(w, *labels) for labels in product((0, 1), repeat=4)}
    return [[sum(prod(weight[h[i], top[i], h[(i + 1) % m], bottom[i]] for i in range(m))
                 for h in rows)
             for bottom in rows]
            for top in rows]


def toroidal_six_states(m: int, n: int) -> list:
    """Edge tuples of every admissible six-vertex state on the (m, n) torus,
    sorted: f columns, each repeating its bottom value on top, then g
    columns, the last repeating the first.

    Built a row of vertices at a time: over the f bits below a row it
    tries all 2^m horizontal labelings of the row (closed on itself), and
    a vertex keeps its top bit t = right + bottom - left only when t is 0
    or 1, which is left + top = right + bottom on bits.  A state is kept
    when its top f row comes back to its bottom one.
    """
    states = []

    def climb(f_rows, g_rows):
        if len(g_rows) == n:
            if f_rows[-1] == f_rows[0]:
                f = (tuple(row[i] for row in f_rows) for i in range(m))
                g = (tuple(row[i % m] for row in g_rows) for i in range(m + 1))
                states.append(tuple(chain(*f, *g)))
            return
        below = f_rows[-1]
        for h in product((0, 1), repeat=m):
            top = tuple(h[(i + 1) % m] + below[i] - h[i] for i in range(m))
            if all(x in (0, 1) for x in top):
                climb(f_rows + [top], g_rows + [h])

    for bottom in product((0, 1), repeat=m):
        climb([bottom], [])
    return sorted(states)


def recursive_state_tables(patterns, shape, boundary=None):
    """The (f, g) tables transfer.state_tables yields, in its order, by a
    recursive climb: each f column is grown one vertex at a time, one
    generator frame per f entry, trying each top value in order and
    carrying every live g0 with its g columns so far, in g0 order.  A
    fixed boundary pins each f column's ends, g0 and the last g column;
    TORUS ties each f column's ends and asks the last g column to equal
    g0, both checked vertex by vertex in the last column.
    """
    toroidal = boundary is TORUS
    if toroidal:
        boundary = None
    m, n = shape.m, shape.n
    right = {(left, top, bottom): r for left, top, r, bottom in patterns}
    bits = tuple(sorted({x for p in patterns for x in p}))

    def column(i, f, pairs):
        # pairs holds, in g0 order, each live g0's g columns 0..i and the
        # bits of g column i + 1 so far; vertex j has bottom f[j] and
        # left gs[-1][j]
        j = len(f) - 1
        if j == n:
            yield f, [gs + (g,) for gs, g in pairs]
            return
        tops = bits
        if j == n - 1 and boundary is not None:
            tops = (boundary.f_top[i],)
        elif j == n - 1 and toroidal:
            tops = (f[0],)
        shut = i == m - 1 and (toroidal or boundary is not None)
        for top in tops:
            grown = [(gs, g + (r,)) for gs, g in pairs
                     if (r := right.get((gs[-1][j], top, f[j]))) is not None
                     and (not shut or r == (gs[0] if toroidal else boundary.g_right)[j])]
            if grown:
                yield from column(i, f + (top,), grown)

    def walk(i, fs, live):
        if i == m:
            for gs in live:
                yield fs, gs
            return
        for bottom in bits if boundary is None else (boundary.f_bottom[i],):
            for f, grown in column(i, (bottom,), [(gs, ()) for gs in live]):
                yield from walk(i + 1, fs + (f,), grown)

    g0s = product(bits, repeat=n) if boundary is None else (boundary.g_left,)
    yield from walk(0, (), [(g0,) for g0 in g0s])


def backtrack_colorings(width: int, height: int) -> int:
    """Proper 3-colorings of the width x height grid graph, by backtracking.

    Cells are scanned row-major; each cell tries the labels differing
    from its already-colored left and lower neighbors.  The backtracking
    tree has at most 3 * 2^(cells - 1) nodes.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    grid = [[0] * height for _ in range(width)]

    def fill(k: int) -> int:
        if k == width * height:
            return 1
        j, i = divmod(k, width)
        total = 0
        for color in (0, 1, 2):
            if i > 0 and grid[i - 1][j] == color:
                continue
            if j > 0 and grid[i][j - 1] == color:
                continue
            grid[i][j] = color
            total += fill(k + 1)
        return total

    return fill(0)


def naive_differences(h) -> tuple:
    """(D_x h, D_y h) of a table of columns: h[i+1][j] - h[i][j] and
    h[i][j+1] - h[i][j] mod 3, one column and one entry fewer."""
    dx = tuple(tuple((b - a) % 3 for a, b in zip(col, nxt)) for col, nxt in zip(h, h[1:]))
    dy = tuple(tuple((b - a) % 3 for a, b in zip(col, col[1:])) for col in h)
    return dx, dy


def naive_potential(fx, gy) -> tuple:
    """h[i][j] = sum_{a<i} fx[a][0] + sum_{b<j} gy[i][b] mod 3, a column
    per gy column (at most one per fx column plus one), one entry longer."""
    bases = accumulate((col[0] for col in fx), initial=0)
    return tuple(
        tuple(x % 3 for x in accumulate(col, initial=base)) for base, col in zip(bases, gy)
    )


def naive_is_proper(cells) -> bool:
    """No two horizontally or vertically adjacent cells share a label."""
    m, n = len(cells) - 1, len(cells[0]) - 1
    for i in range(m + 1):
        for j in range(n + 1):
            if i < m and cells[i][j] == cells[i + 1][j]:
                return False
            if j < n and cells[i][j] == cells[i][j + 1]:
                return False
    return True


def naive_coloring_cells(fx, gy, t: int) -> tuple:
    """The coloring h[i][j] + t + i + j mod 3 of a form's potential h."""
    h = naive_potential(fx, gy)
    return tuple(
        tuple((x + t + i + j) % 3 for j, x in enumerate(col)) for i, col in enumerate(h)
    )


def naive_form_from_cells(cells) -> tuple:
    """(fx, gy) = d(cells) - dx - dy."""
    dx, dy = naive_differences(cells)
    fx = tuple(tuple((x - 1) % 3 for x in row) for row in dx)
    gy = tuple(tuple((x - 1) % 3 for x in row) for row in dy)
    return fx, gy


def naive_toroidal_derivatives(values) -> tuple:
    """(D_x h, D_y h) of an m x n periodic table, as m x n tables: the
    rectangle differences of the table with its first column and row
    repeated, cut back to the fundamental domain."""
    m, n = len(values), len(values[0])
    cols = [col + col[:1] for col in values]
    fx, gy = naive_differences(cols + cols[:1])
    return tuple(col[:n] for col in fx), gy[:m]


def naive_decompose(fx, gy) -> tuple:
    """(r, s, h values) of a closed toroidal form on periods prime to 3:
    r and s the averages of fx over a row and gy over a column, h the
    potential of fx - r and gy - s cut to the fundamental domain."""
    m, n = len(fx), len(fx[0])
    inverse = {1: 1, 2: 2}
    r = (inverse[m % 3] * sum(col[0] for col in fx)) % 3
    s = (inverse[n % 3] * sum(gy[0])) % 3
    h = naive_potential([[x - r for x in col] for col in fx], [[y - s for y in col] for col in gy])
    return r, s, tuple(col[:n] for col in h)


def naive_reconstruct(r: int, s: int, values) -> tuple:
    """(fx, gy) of r dx + s dy + dh, entry by entry."""
    dfx, dgy = naive_toroidal_derivatives(values)
    m, n = len(values), len(values[0])
    fx = tuple(tuple((r + dfx[i][j]) % 3 for j in range(n)) for i in range(m))
    gy = tuple(tuple((s + dgy[i][j]) % 3 for j in range(n)) for i in range(m))
    return fx, gy
