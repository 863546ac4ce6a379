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
m + 1, so that the row's last right bit can be matched to it.  The
work is at most 2^(m+1) keys (2^(m+2) on the torus) times the moves
per key times mn dict updates, 2^m times that for the toroidal trace;
the size guard charges every sum that bound before it starts.

Boundaries:

* free - every boundary edge ranges over {0, 1};
* fixed - a BoundarySpec pins the bottom frontier, each row's left
  bit, each row's right bit and the top frontier read out at the end;
  an F3 boundary value of 2 admits no state;
* toroidal - the trace: the sum over bottom rows s0 of the sweeps that
  start at s0 and end at s0, with each row closed on itself.

Rational weights are scaled by the lcm L of their denominators, the
sweep runs in integers, and the total is divided by L^(mn) once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .grid import BoundarySpec, GridShape, guard_cost

# (left, top, right, bottom) pattern -> the (letter, sign) of the weight
# it carries.  This is also the R-matrix component layout of yangbaxter.
PATTERNS = {
    (0, 0, 0, 0): ("a", 1), (1, 1, 1, 1): ("a", -1),
    (0, 1, 0, 1): ("b", 1), (1, 0, 1, 0): ("b", -1),
    (1, 0, 0, 1): ("c", 1), (0, 1, 1, 0): ("c", -1),
    (1, 1, 0, 0): ("d", 1), (0, 0, 1, 1): ("d", -1),
}

SIX_VERTEX = tuple(p for p, (letter, _) in PATTERNS.items() if letter != "d")
EIGHT_VERTEX = tuple(PATTERNS)


def count_states(patterns, shape: GridShape, boundary: BoundarySpec | None = None,
                 toroidal: bool = False, force: bool = False) -> int:
    """Number of labelings in which every vertex shows one of the patterns."""
    return _integer_sum(dict.fromkeys(patterns, 1), shape, boundary, toroidal, force)


def weighted_sum(weights: dict, shape: GridShape, boundary: BoundarySpec | None = None,
                 toroidal: bool = False, force: bool = False) -> Fraction:
    """Sum over labelings of the product of per-vertex weights, exactly.

    weights maps patterns to ints or Fractions; zero and negative
    weights are allowed.
    """
    scale = lcm(*(Fraction(w).denominator for w in weights.values()))
    table = {p: int(Fraction(w) * scale) for p, w in weights.items()}
    total = _integer_sum(table, shape, boundary, toroidal, force)
    return Fraction(total, scale ** shape.vertex_count)


def _bits(values) -> int:
    return sum(x << k for k, x in enumerate(values))


def _integer_sum(table: dict, shape: GridShape, boundary, toroidal: bool, force: bool) -> int:
    if toroidal and boundary is not None:
        raise ValueError("a toroidal sum takes no boundary")
    m, n = shape.m, shape.n
    moves = {(left, bottom): [] for left in (0, 1) for bottom in (0, 1)}
    for (left, top, right, bottom), w in table.items():
        if w:
            moves[left, bottom].append((top, right, w))
    keys = 1 << m + (2 if toroidal else 1)
    starts = 1 << m if toroidal else 1
    guard_cost(keys * max(map(len, moves.values())) * m * n * starts, force)
    if toroidal:
        return sum(
            _sweep(moves, m, n, {s0: 1}, toroidal=True).get(s0, 0) for s0 in range(1 << m)
        )
    if boundary is None:
        return sum(_sweep(moves, m, n, dict.fromkeys(range(1 << m), 1)).values())
    if any(x not in (0, 1) for x in boundary.edge_tuple()):
        return 0
    end = _sweep(moves, m, n, {_bits(boundary.f_bottom): 1},
                 left=boundary.g_left, right=boundary.g_right)
    return end.get(_bits(boundary.f_top), 0)


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
