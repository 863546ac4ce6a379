"""Exact sums over lattice states by a transfer sweep.

A vertex model is a table of weights on the (left, top, right, bottom)
bit patterns of one vertex; a pattern outside the table weighs zero.
Summing the product of vertex weights over all edge labelings then
needs no list of states: the sweep visits the vertices one at a time,
row by row from the bottom, left to right within a row, and keeps only
a frontier, a dict from the edge bits crossing the cut to the summed
weight of everything below it (Lieb 1967; Baxter 1982, ch. 8-10).

The frontier key holds the m vertical bits (bit i - 1 for column i),
and inside a row the horizontal bit carried to the next vertex at bit
m.  A toroidal sweep also carries the row's first left bit at bit
m + 1, so that the row's last right bit can be matched to it.

Before a sweep starts, _plan makes its decisions.  When m > n it
sweeps the transpose, so the frontier spans the short side: vertex
(l, t, r, b) becomes (b, r, t, l), and the fixed sides (bottom, top,
left, right) become (left, right, bottom, top).  Then it reads two
conservation laws off the live (nonzero-weight) patterns (Lieb 1967;
Baxter 1982, ch. 8).  Under the ice rule, every l + t = r + b, a
vertex step keeps (vertical bits set) - (carried bit): a pinned row j
holds at most the C(m + 1, c + 1) keys of c = k - left[j], where k is
sum(bottom) and then c + right[j] after each row, and a torus row
C(2m + 2, m + 1) over all 2^m starts.  Under parity, every l + t + r
+ b even, a step keeps the key's parity: 2^m and 2^(2m + 1) keys.
Free rows, and pinned rows under no law, hold 2^(m + 1) keys, torus
rows under no law 2^(2m + 2).  The guard is charged the vertex count
mn first, below the charge whenever a pattern is live, then keys
times the most moves of a key times m, summed over the rows, which
bounds the dict updates.

Boundaries, the one boundary argument of count_states, weighted_sum
and state_tables:

* None, free - every boundary edge ranges over {0, 1};
* a BoundarySpec, fixed - it pins the bottom frontier, each row's left
  bit, each row's right bit and the top frontier read out at the end.
  A boundary of another shape is refused (InputError).  An F3
  boundary value of 2 admits no state, and neither does a boundary a
  law rules out: an odd boundary sum under parity, and under the ice
  rule a k outside [0, m] or a last k other than sum(top), an
  unbalanced flow.  Those return 0 before the guard, with no sweep;
* grid.TORUS, the torus - the trace: the sum over bottom rows s0 of
  the sweeps that start at s0 and end at s0, with each row closed on
  itself.

Rational weights are scaled by the lcm L of their denominators
(lcm_scaled, which yangbaxter's star-triangle sums use too), the sweep
runs in integers, and the total is divided by L^(mn) once.

CLOSED_F3 is the closedness D_y fx = D_x gy of an F3 1-form at one
vertex, right = left + top - bottom; its {0, 1} patterns are
SIX_VERTEX, and mod 2 it is EIGHT_VERTEX.  first_bad_vertex checks
tables against any of them, a column of vertices at a time through a
bounded memo, and state_tables lists the labelings a count_states call
counts, or with CLOSED_F3 the closed forms, by a column walk.  In every
table a vertex's (left, top, bottom) fix its right, so g column i + 1
follows from g column i and f column i, and a state is its f columns
plus its first g column g0.  edge_tuple lists
f column by column, then g with g0 first, so a walk that steps a
column at a time, visiting f columns in order and carrying the live g0
values in order, each with its g columns so far, emits the states in
edge_tuple order with no sort (Baxter 1982, ch. 8).  The f columns
that can follow a g column are found once per walk, by a climb up the
column one vertex at a time, and kept in a dict that lives for that
walk only.  A pinned or toroidal last g column is checked at each of
its vertices, not after the last f column.

The three tables are frozensets, so first_bad_vertex uses them as they
are.  Nothing reads their order: the sweep sums exact integers, the
walk sorts the edge values it takes from a table, and partition_function
keys its weights by pattern.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat
from math import comb, lcm

from .grid import TORUS, GridShape, check_boundary, guard_cost

# (left, top, right, bottom) pattern -> the (letter, sign) of the weight
# it carries.  This is also the R-matrix component layout of yangbaxter.
PATTERNS = {
    (0, 0, 0, 0): ("a", 1), (1, 1, 1, 1): ("a", -1),
    (0, 1, 0, 1): ("b", 1), (1, 0, 1, 0): ("b", -1),
    (1, 0, 0, 1): ("c", 1), (0, 1, 1, 0): ("c", -1),
    (1, 1, 0, 0): ("d", 1), (0, 0, 1, 1): ("d", -1),
}

SIX_VERTEX = frozenset(p for p, (letter, _) in PATTERNS.items() if letter != "d")
EIGHT_VERTEX = frozenset(PATTERNS)

CLOSED_F3 = frozenset((left, top, (left + top - bottom) % 3, bottom)
                      for left, top, bottom in product(range(3), repeat=3))


# Entries each column memo keeps: first_bad_vertex's and the calculus
# kernels of forms_rect.  The exhaustive verify suites' column steps
# reach the kernels only when forms_rect's round-trip memo, which has a
# cap of its own (_ROUND_TRIP_MEMO_SIZE), misses them; random tables
# mostly miss, and the cap bounds what they leave behind.
_MEMO_SIZE = 512


@lru_cache(maxsize=_MEMO_SIZE)
def _first_bad_row(patterns, fi: tuple, left: tuple, right: tuple) -> int:
    """The first 1-based row j whose vertex in the column between g
    columns left and right, on f column fi, is not one of the patterns,
    or 0 when every one is."""
    if all(map(patterns.__contains__, zip(left, fi[1:], right, fi))):
        return 0
    for j, pattern in enumerate(zip(left, fi[1:], right, fi), 1):
        if pattern not in patterns:
            return j


def first_bad_vertex(patterns, f, g):
    """The first 1-based vertex (i, j), i outer, whose (left, top, right,
    bottom) is not one of the patterns, or None when every vertex is.

    f and g are LatticeState-shaped tables whose columns are tuples: m
    columns of n + 1 and m + 1 columns of n values; vertex (i, j) reads
    g[i][j], f[i][j+1], g[i+1][j] and f[i][j] (0-based), as
    edges_at_vertex does.  Each column of vertices is checked by
    _first_bad_row, a bounded memo keyed by the patterns and the
    column's three edge columns, so a column seen before costs one
    lookup.  A scan inside any() passes the columns; only a table with
    a bad column reads them again, one memo hit each, to name it.
    """
    allowed = frozenset(patterns)  # patterns itself for the three tables
    if not any(map(_first_bad_row, repeat(allowed), f, g, g[1:])):
        return None
    for i, j in enumerate(map(_first_bad_row, repeat(allowed), f, g, g[1:]), 1):
        if j:
            return i, j


def count_states(patterns, shape: GridShape, boundary=None, force: bool = False) -> int:
    """Number of labelings in which every vertex shows one of the
    patterns, on a free (None), fixed (BoundarySpec) or TORUS boundary."""
    return _integer_sum(dict.fromkeys(patterns, 1), shape, boundary, force)


def state_tables(patterns, shape: GridShape, boundary=None):
    """Yield the (f, g) tables of count_states' labelings, in edge_tuple order.

    f is m columns of n + 1 values and g is m + 1 columns of n values,
    as LatticeState holds them.  The walk steps a column at a time,
    depth first.  A dict that lives for this call maps a left g column,
    the column's pinned ends and the g column it must reach to the
    column's (f column, next g column) pairs in f order.  Each entry is
    built once, by a climb up the column one vertex at a time that
    tries each top value in order and drops a branch at the first
    vertex no pattern admits.  The live g0 branches are grouped by f
    column and the f columns visited sorted, so the states come out in
    edge_tuple order with no sort of states.  A fixed boundary pins each
    f column's two ends, g0 and the last g column; TORUS ties each f
    column's ends together and asks the last g column to equal g0.  The
    last g column is checked vertex by vertex, and (left, bottom, right)
    fixes top too, so there a climb admits one top value per vertex and
    does not try every column.  Edge values range over
    the values the patterns use, and a boundary value no pattern uses
    yields nothing.  The caller charges the guard.
    """
    toroidal = boundary is TORUS
    if toroidal:
        boundary = None
    check_boundary(boundary, shape)
    m, n = shape.m, shape.n
    right = {(left, top, bottom): r for left, top, r, bottom in patterns}
    bits = tuple(sorted({x for p in patterns for x in p}))
    memo = {}

    def climb(left, ends, target):
        # the (f, g) column pairs right of g column left, in f order;
        # ends is the pinned (bottom, top) or None, target the g column
        # to reach or None; one right.get per vertex step
        column = [((bottom,), ()) for bottom in (bits if ends is None else ends[:1])]
        for j in range(n):
            grown = []
            for f, g in column:
                if j < n - 1:
                    tops = bits
                else:
                    tops = ends[1:] if ends is not None else f[:1] if toroidal else bits
                for top in tops:
                    r = right.get((left[j], top, f[j]))
                    if r is not None and (target is None or r == target[j]):
                        grown.append((f + (top,), g + (r,)))
            column = grown
        return column

    # a stack of (column i, f columns 0..i-1, live), live holding each
    # live g0's g columns 0..i in g0 order; a column's successors are
    # pushed in reverse f order, so they pop in f order
    g0s = product(bits, repeat=n) if boundary is None else (boundary.g_left,)
    stack = [(0, (), [(g0,) for g0 in g0s])]
    while stack:
        i, fs, live = stack.pop()
        last = i == m - 1
        ends = target = None
        if boundary is not None:
            ends = boundary.f_bottom[i], boundary.f_top[i]
            target = boundary.g_right if last else None
        by_f = {}
        for gs in live:
            key = (gs[-1], ends, gs[0] if last and toroidal else target)
            steps = memo.get(key)
            if steps is None:
                steps = memo[key] = climb(*key)
            for f, g in steps:
                by_f.setdefault(f, []).append(gs + (g,))
        if last:
            for f in sorted(by_f):
                done = fs + (f,)
                for gs in by_f[f]:
                    yield done, gs
        else:
            stack += [(i + 1, fs + (f,), by_f[f]) for f in sorted(by_f, reverse=True)]


def weighted_sum(weights: dict, shape: GridShape, boundary=None,
                 force: bool = False) -> Fraction:
    """Sum over labelings of the product of per-vertex weights, exactly,
    on a free (None), fixed (BoundarySpec) or TORUS boundary.

    weights maps patterns to ints or Fractions; zero and negative
    weights are allowed.
    """
    integers, scale = lcm_scaled(weights.values())
    total = _integer_sum(dict(zip(weights, integers)), shape, boundary, force)
    return Fraction(total, scale ** shape.vertex_count)


def lcm_scaled(values) -> tuple:
    """(integers, L): the ints or Fractions in values times the lcm L of
    their denominators, so that integers[k] / L == values[k]."""
    values = tuple(values)
    scale = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (scale // x.denominator) for x in values), scale


def _bits(values) -> int:
    return sum(x << k for k, x in enumerate(values))


def _plan(table: dict, shape: GridShape, boundary, force: bool):
    """One sum's decisions, in the module docstring: (moves, m, n, ends,
    cost) in the swept orientation, or None when a law rules the fixed
    boundary out.  moves maps (left, bottom) to the live (top, right,
    weight) triples; ends is the fixed (bottom, top, left, right)."""
    toroidal = boundary is TORUS
    check_boundary(None if toroidal else boundary, shape)
    ends = None if toroidal or boundary is None else (
        boundary.f_bottom, boundary.f_top, boundary.g_left, boundary.g_right)
    m, n = shape.m, shape.n
    live = [(p, w) for p, w in table.items() if w]
    if m > n:
        m, n = n, m
        live = [((b, r, t, l), w) for (l, t, r, b), w in live]
        ends = ends and (ends[2], ends[3], ends[0], ends[1])
    ice = all(l + t == r + b for (l, t, r, b), _ in live)
    even = all(sum(p) % 2 == 0 for p, _ in live)
    if ends is not None:
        if any(x not in (0, 1) for side in ends for x in side) or (
                even and sum(map(sum, ends)) % 2):
            return None
        if ice:
            bottom, top, left, right = ends
            k, classes = sum(bottom), []
            for h, r in zip(left, right):
                if not 0 <= k <= m:
                    return None
                classes.append(k - h + 1)
                k += r - h
            if k != sum(top):
                return None
    guard_cost(m * n, force)
    moves = {key: [] for key in product((0, 1), repeat=2)}
    for (l, t, r, b), w in live:
        moves[l, b].append((t, r, w))
    if toroidal:
        keys = n * (comb(2 * m + 2, m + 1) if ice else 1 << 2 * m + 2 - even)
    elif ends is None:
        keys = n << m + 1
    elif ice:
        keys = sum(map(comb, repeat(m + 1), classes))
    else:
        keys = n << m + 1 - even
    return moves, m, n, ends, keys * max(map(len, moves.values())) * m


def _integer_sum(table: dict, shape: GridShape, boundary, force: bool) -> int:
    plan = _plan(table, shape, boundary, force)
    if plan is None:
        return 0  # before the guard: no sweep runs
    moves, m, n, ends, cost = plan
    guard_cost(cost, force)
    if boundary is TORUS:
        return sum(
            _sweep(moves, m, n, {s0: 1}, toroidal=True).get(s0, 0) for s0 in range(1 << m)
        )
    if ends is None:
        return sum(_sweep(moves, m, n, dict.fromkeys(range(1 << m), 1)).values())
    bottom, top, left, right = ends
    end = _sweep(moves, m, n, {_bits(bottom): 1}, left=left, right=right)
    return end.get(_bits(top), 0)


def _sweep(moves: dict, m: int, n: int, frontier: dict, left=None, right=None,
           toroidal: bool = False) -> dict:
    """Carry the frontier below row 1 up through all n rows.

    left and right, when given, pin each row's outer horizontal bits;
    otherwise a row's left bit is free and its right bit summed out, or,
    for a toroidal sweep, matched to the left bit.
    """
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
                for top, r, w in moves[key >> m & 1, key >> i & 1]:
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
