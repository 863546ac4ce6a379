"""Independent reference computations for checking benchmark outputs.

Nothing here imports vertexforms: the benchmark must be able to tell a
wrong answer from a right one without asking the code it measures.  The
lattice conventions are restated from the package documentation:

* vertical edges f[i][j], i in [1, m], j in [1, n+1] (j = 1 is the bottom);
* horizontal edges g[i][j], i in [1, m+1], j in [1, n] (i = 1 is the left);
* vertex (i, j) reads (left, top, right, bottom) = g[i][j], f[i][j+1],
  g[i+1][j], f[i][j];
* the six-vertex rule is right - left = top - bottom (mod 3) on {0, 1}
  labels, the eight-vertex rule is an even sum of the four labels.

Counts and partition functions come from a vertex-by-vertex transfer sum
whose frontier is the m vertical labels plus one horizontal label.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

WEIGHT_KEYS = ("a1", "a-1", "b1", "b-1", "c1", "c-1", "d1", "d-1")

# (left, top, right, bottom) label pattern -> weight key
PATTERN_WEIGHT = {
    (0, 0, 0, 0): "a1", (1, 1, 1, 1): "a-1",
    (0, 1, 0, 1): "b1", (1, 0, 1, 0): "b-1",
    (1, 0, 0, 1): "c1", (0, 1, 1, 0): "c-1",
    (1, 1, 0, 0): "d1", (0, 0, 1, 1): "d-1",
}

# Known exact counts of admissible six-vertex states, free boundary.
SIX_COUNTS = {
    (2, 2): 82, (3, 2): 374, (3, 3): 2604, (4, 3): 18150,
    (4, 4): 193662, (5, 4): 2068146,
}
# Known counts of six-vertex states with toroidal boundary conditions.
TOROIDAL_COUNTS = {(2, 2): 18, (2, 4): 114, (4, 2): 114}


class Mismatch(Exception):
    """An output differs from the value the benchmark expects."""


def eight_total(m: int, n: int) -> int:
    return 2 ** (m + n + m * n)


def six_ok(left: int, top: int, right: int, bottom: int) -> bool:
    return (right - left) % 3 == (top - bottom) % 3


def eight_ok(left: int, top: int, right: int, bottom: int) -> bool:
    return (left + top + right + bottom) % 2 == 0


def vertex_edges(f, g, i: int, j: int) -> tuple:
    """(left, top, right, bottom) at 1-based vertex (i, j); f, g 0-based tables."""
    return g[i - 1][j - 1], f[i - 1][j], g[i][j - 1], f[i - 1][j - 1]


def first_bad_vertex(f, g, m: int, n: int, model: str):
    ok = eight_ok if model == "eight" else six_ok
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if not ok(*vertex_edges(f, g, i, j)):
                return i, j
    return None


def boundary_of(f, g, m: int, n: int) -> dict:
    return {
        "f_bottom": [f[i][0] for i in range(m)],
        "f_top": [f[i][n] for i in range(m)],
        "g_left": [g[0][j] for j in range(n)],
        "g_right": [g[m][j] for j in range(n)],
    }


def edge_tuple(f, g) -> tuple:
    return tuple(x for row in f for x in row) + tuple(x for row in g for x in row)


def edge_headers(m: int, n: int) -> list:
    heads = [f"f[{i}][{j}]" for i in range(1, m + 1) for j in range(1, n + 2)]
    heads += [f"g[{i}][{j}]" for i in range(1, m + 2) for j in range(1, n + 1)]
    return heads


def tables_from_edges(values, m: int, n: int) -> tuple:
    w = n + 1
    f = [list(values[i * w:(i + 1) * w]) for i in range(m)]
    off = m * w
    g = [list(values[off + i * n: off + (i + 1) * n]) for i in range(m + 1)]
    return f, g


# -- transfer sums ------------------------------------------------------


def _vertex_table(model: str, weights) -> dict:
    """(left, bottom) -> list of (top, right, weight) completions."""
    table = {}
    for (left, top, right, bottom), key in PATTERN_WEIGHT.items():
        if model == "six" and not six_ok(left, top, right, bottom):
            continue
        w = 1 if weights is None else weights[key]
        if w:
            table.setdefault((left, bottom), []).append((top, right, w))
    return table


def lattice_sum(m: int, n: int, model: str, weights=None, boundary=None):
    """Sum over admissible states of the product of vertex weights.

    weights None counts states.  boundary is a dict with f_bottom, f_top,
    g_left, g_right lists, or None for a free boundary.
    """
    table = _vertex_table(model, weights)
    if boundary is None:
        frontier = {bits: 1 for bits in product((0, 1), repeat=m)}
    else:
        frontier = {tuple(boundary["f_bottom"]): 1}
    for j in range(n):
        lefts = (0, 1) if boundary is None else (boundary["g_left"][j],)
        cur = {}
        for bits, w in frontier.items():
            for left in lefts:
                key = (bits, left)
                cur[key] = cur.get(key, 0) + w
        for i in range(m):
            nxt = {}
            for (bits, carry), w in cur.items():
                for top, right, vw in table.get((carry, bits[i]), ()):
                    key = (bits[:i] + (top,) + bits[i + 1:], right)
                    nxt[key] = nxt.get(key, 0) + w * vw
            cur = nxt
        frontier = {}
        for (bits, right), w in cur.items():
            if boundary is not None and right != boundary["g_right"][j]:
                continue
            frontier[bits] = frontier.get(bits, 0) + w
    if boundary is None:
        return sum(frontier.values())
    return frontier.get(tuple(boundary["f_top"]), 0)


def toroidal_count(m: int, n: int) -> int:
    """Six-vertex states with f[i][1] = f[i][n+1] and g[1][j] = g[m+1][j]."""
    table = _vertex_table("six", None)
    total = 0
    for start in product((0, 1), repeat=m):
        frontier = {start: 1}
        for _ in range(n):
            nxt_row = {}
            for bits, w in frontier.items():
                for left in (0, 1):
                    cur = {(bits, left): w}
                    for i in range(m):
                        nxt = {}
                        for (b, carry), cw in cur.items():
                            for top, right, _ in table.get((carry, b[i]), ()):
                                key = (b[:i] + (top,) + b[i + 1:], right)
                                nxt[key] = nxt.get(key, 0) + cw
                        cur = nxt
                    for (b, right), cw in cur.items():
                        if right == left:
                            nxt_row[b] = nxt_row.get(b, 0) + cw
            frontier = nxt_row
        total += frontier.get(start, 0)
    return total


# -- Yang-Baxter --------------------------------------------------------

# 4x4 R-matrix slot of each weight: row is the output pair, column the input
_MATRIX_SLOT = {
    "a1": (0, 0), "a-1": (3, 3), "b1": (1, 1), "b-1": (2, 2),
    "c1": (1, 2), "c-1": (2, 1), "d1": (0, 3), "d-1": (3, 0),
}


def _r_matrix(w) -> list:
    mat = [[Fraction(0)] * 4 for _ in range(4)]
    for key, (r, c) in _MATRIX_SLOT.items():
        mat[r][c] = w[key]
    return mat


def _embed(mat, slot: int) -> list:
    out = [[Fraction(0)] * 8 for _ in range(8)]
    for row, (ap, bp, cp) in enumerate(product((0, 1), repeat=3)):
        for col, (a, b, c) in enumerate(product((0, 1), repeat=3)):
            if slot == 12 and cp == c:
                out[row][col] = mat[2 * ap + bp][2 * a + b]
            elif slot == 13 and bp == b:
                out[row][col] = mat[2 * ap + cp][2 * a + c]
            elif slot == 23 and ap == a:
                out[row][col] = mat[2 * bp + cp][2 * b + c]
    return out


def _mul(x, y) -> list:
    out = [[Fraction(0)] * 8 for _ in range(8)]
    for i in range(8):
        for k in range(8):
            if x[i][k]:
                for j in range(8):
                    if y[k][j]:
                        out[i][j] += x[i][k] * y[k][j]
    return out


def commutator(r, s, t) -> list:
    """R12 S13 T23 - T23 S13 R12 as an 8x8 list of Fractions."""
    r12, s13, t23 = _embed(_r_matrix(r), 12), _embed(_r_matrix(s), 13), _embed(_r_matrix(t), 23)
    lhs = _mul(_mul(r12, s13), t23)
    rhs = _mul(_mul(t23, s13), r12)
    return [[lhs[i][j] - rhs[i][j] for j in range(8)] for i in range(8)]


def star_residuals(r, s, t) -> list:
    """The 64 star-triangle residuals, external labels in lexicographic order.

    The residual at (sigma, tau, beta, theta, rho, alpha) is minus the
    commutator entry in row (theta, rho, alpha), column (sigma, tau, beta).
    """
    com = commutator(r, s, t)
    return [-com[4 * th + 2 * rh + al][4 * sg + 2 * ta + be]
            for sg, ta, be, th, rh, al in product((0, 1), repeat=6)]


def f_invariant(w) -> Fraction:
    return w["a1"] * w["a-1"] + w["b1"] * w["b-1"] - w["c1"] * w["c-1"] - w["d1"] * w["d-1"]


def solution_dimension(s, t) -> int:
    """Dimension of the space of R making the commutator with (S, T) vanish."""
    cols = []
    for key in WEIGHT_KEYS:
        unit = {k: Fraction(int(k == key)) for k in WEIGHT_KEYS}
        cols.append([x for row in commutator(unit, s, t) for x in row])
    rows = [[cols[k][e] for k in range(8)] for e in range(64)]
    rank = 0
    for col in range(8):
        pivot = next((r for r in range(rank, 64) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(64):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return 8 - rank
