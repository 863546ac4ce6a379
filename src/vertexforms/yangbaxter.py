"""Boltzmann weights, R-matrices, and the Yang-Baxter commutator.

A weight assignment gives every admissible vertex configuration a
rational Boltzmann weight (a, b, c, d families, each with a +1 and a -1
variant).  Packed into a 4x4 matrix acting on V (x) V it becomes an
R-matrix, and a triple (R, S, T) satisfies the star-triangle relation
exactly when the commutator R12 S13 T23 - T23 S13 R12 vanishes
(Baxter 1982, ch. 10).  This module checks that relation, evaluates its
64 residuals and the 28 polynomial equations they condense to, checks
the necessary conditions on (S, T) for a solution R with nonzero c and
d weights to exist, solves for R by linear algebra, and evaluates
partition functions.

Where the residuals come from: STAR_TRIANGLE_TABLE, built once at
import from transfer.PATTERNS, writes the residual of each of the 64
external labelings as its signed r[i] s[j] t[k] monomials (indices into
as_vector()); 32 rows vanish identically and the others keep 2 or 4
monomials.  star_triangle_residuals and commutator_vanishes evaluate
it, residuals28 reads each equation off one row up to sign
(RESIDUALS28_ROWS), and solve_R reads its linear system in R from it.
The table is evaluated in integers, the way the transfer sweep sums:
each of r, s and t is scaled once by the lcm of its denominators
(transfer.lcm_scaled), every row sums its monomials as ints, and a
residual is one division by the product of the three lcms.
The paper's definitions are the oracles the tests check the table
against: the 8x8 commutator yb_commutator, with embed, and the 64-term
star_triangle_residual, which sums component products and lives with
the tests' other oracles in tests/conftest.py.

The necessary conditions and solve_R's linear system and witness scan
run in integers the same way, with one Fraction per value reported.

Component convention: component(w, nu, beta, theta, gamma) is the
matrix entry in row (theta gamma), column (nu beta).  On a lattice
vertex the four arguments are read (left, top, right, bottom), which
makes component(w, 0, 1, 1, 0) = c_neg1 the anchor for the whole
layout.

All arithmetic is exact; weights are Fractions and floats are refused.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import product

from .algebra import GF2, GF3, QQ, FieldMatrix, Record, mat_sub, matmul, nullspace_basis
from .grid import (
    BoundarySpec,
    GridShape,
    WeightConditionError,
    WeightFormatError,
    _parse_object,
    check_boundary,
    guard_cost,
)
from .transfer import EIGHT_VERTEX, PATTERNS, SIX_VERTEX, lcm_scaled, weighted_sum

WEIGHT_KEYS = ("a1", "a-1", "b1", "b-1", "c1", "c-1", "d1", "d-1")

_KEY_TO_ATTR = {
    "a1": "a1", "a-1": "a_neg1",
    "b1": "b1", "b-1": "b_neg1",
    "c1": "c1", "c-1": "c_neg1",
    "d1": "d1", "d-1": "d_neg1",
}


# the one weight string VertexWeights and deserialize_weights read: an
# integer or p/q, its numerator and denominator as the two groups
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _exact(x) -> Fraction:
    if isinstance(x, (float, bool)):
        raise TypeError(
            f"weights must be exact (int, str, or Fraction), not {type(x).__name__}"
        )
    if isinstance(x, str):
        match = _RATIONAL.fullmatch(x)
        if not match:
            raise ValueError(f"weight strings must be an integer or 'p/q', got {x!r}")
        num, den = match.groups()
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    return Fraction(x)


class VertexWeights(Record):
    """The eight Boltzmann weights of one vertex type, as exact rationals."""

    a1: Fraction
    a_neg1: Fraction
    b1: Fraction
    b_neg1: Fraction
    c1: Fraction
    c_neg1: Fraction
    d1: Fraction
    d_neg1: Fraction

    def __post_init__(self):
        # a Fraction is immutable and kept as it is; anything else is read once
        for attr in _KEY_TO_ATTR.values():
            value = getattr(self, attr)
            if type(value) is not Fraction:
                object.__setattr__(self, attr, _exact(value))

    @classmethod
    def from_pairs(cls, a, b, c, d) -> "VertexWeights":
        """Build from (plus, minus) pairs, one per letter."""
        return cls(a[0], a[1], b[0], b[1], c[0], c[1], d[0], d[1])

    @classmethod
    def identity(cls) -> "VertexWeights":
        """a and b weights 1, c and d weights 0: the identity R-matrix."""
        return cls(1, 1, 1, 1, 0, 0, 0, 0)

    def weight(self, letter: str, sign: int) -> Fraction:
        """Signed lookup: weight("c", -1) is c_neg1."""
        # a tuple, not "abcd", whose substrings "ab" and "" would pass;
        # type(), not isinstance(), so that True is no sign
        if letter not in ("a", "b", "c", "d") or type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"no weight {letter}_{sign}")
        return getattr(self, letter + ("1" if sign == 1 else "_neg1"))

    def as_vector(self) -> tuple:
        """The eight weights in WEIGHT_KEYS order."""
        return tuple(getattr(self, _KEY_TO_ATTR[k]) for k in WEIGHT_KEYS)


def weights_from_vector(v) -> VertexWeights:
    """Inverse of as_vector: eight entries in WEIGHT_KEYS order."""
    if len(v) != 8:
        raise ValueError("weight vector must have 8 entries")
    return VertexWeights(*v)


def serialize_weights(w: VertexWeights) -> str:
    """Weights as JSON with keys a1, a-1, ..., values as rational strings."""
    doc = {k: str(getattr(w, _KEY_TO_ATTR[k])) for k in WEIGHT_KEYS}
    return json.dumps(doc, sort_keys=True)


def deserialize_weights(text: str) -> VertexWeights:
    """Parse a weights document; accepts JSON integers (not true/false) or
    strings of an integer or "p/q", digits only, per entry."""
    doc = _parse_object(text, "weights document", WeightFormatError)
    values = {}
    for key in WEIGHT_KEYS:
        if key not in doc:
            raise WeightFormatError(f"weights document: missing required key {key!r}")
        raw = doc[key]
        try:
            values[_KEY_TO_ATTR[key]] = _exact(raw)
        except (TypeError, ValueError, ZeroDivisionError):
            raise WeightFormatError(
                f"weights document: {key!r} must be an integer or 'p/q' string, got {raw!r}"
            ) from None
    return VertexWeights(**values)


# Matrix layout: row index is the output pair (theta gamma), column index
# the input pair (nu beta), both read as two-bit numbers; component's
# (nu, beta, theta, gamma) is the pattern's (left, top, right, bottom).
_MATRIX_SLOTS = {
    slot: (2 * right + bottom, 2 * left + top)
    for (left, top, right, bottom), slot in PATTERNS.items()
}


def weights_to_matrix(w: VertexWeights) -> FieldMatrix:
    """The 4x4 R-matrix over the rationals, basis v0v0, v0v1, v1v0, v1v1."""
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    for (letter, sign), (r, c) in _MATRIX_SLOTS.items():
        rows[r][c] = w.weight(letter, sign)
    return FieldMatrix.from_rows(QQ, rows)


def component(w: VertexWeights, nu: int, beta: int, theta: int, gamma: int) -> Fraction:
    """Matrix entry for inputs (nu, beta) and outputs (theta, gamma).

    Nonzero only on the eight admissible label patterns.  For a vertex
    of the lattice the arguments are its (left, top, right, bottom)
    edge values.
    """
    for x in (nu, beta, theta, gamma):
        if x not in (0, 1):
            raise ValueError("component labels must be bits")
    slot = PATTERNS.get((nu, beta, theta, gamma))
    if slot is None:
        return Fraction(0)
    return w.weight(*slot)


def embed(m: FieldMatrix, slot: int) -> FieldMatrix:
    """Promote a two-site operator to V (x) V (x) V on the given site pair.

    Basis index of v_a (x) v_b (x) v_c is 4a + 2b + c.  slot 12 leaves
    the third site alone, 23 the first, and 13 the middle.
    """
    if (m.rows, m.cols) != (4, 4):
        raise ValueError("embed expects a 4x4 matrix")
    if slot not in (12, 13, 23):
        raise ValueError("slot must be one of 12, 13, 23")
    zero = 0 if m.field.p else Fraction(0)
    entries = []
    for ap, bp, cp in product((0, 1), repeat=3):
        for a, b, c in product((0, 1), repeat=3):
            if slot == 12:
                val = m.at(2 * ap + bp, 2 * a + b) if cp == c else zero
            elif slot == 13:
                val = m.at(2 * ap + cp, 2 * a + c) if bp == b else zero
            else:
                val = m.at(2 * bp + cp, 2 * b + c) if ap == a else zero
            entries.append(val)
    return FieldMatrix(m.field, 8, 8, tuple(entries))


def yb_commutator(r: VertexWeights, s: VertexWeights, t: VertexWeights) -> FieldMatrix:
    """R12 S13 T23 - T23 S13 R12 as an exact 8x8 operator."""
    r12 = embed(weights_to_matrix(r), 12)
    s13 = embed(weights_to_matrix(s), 13)
    t23 = embed(weights_to_matrix(t), 23)
    return mat_sub(matmul(matmul(r12, s13), t23), matmul(matmul(t23, s13), r12))


# Weight of each vertex pattern as an index into VertexWeights.as_vector().
_WEIGHT_INDEX = {p: WEIGHT_KEYS.index(f"{letter}{sign}") for p, (letter, sign) in PATTERNS.items()}


def _star_triangle_table() -> tuple:
    """The star-triangle residual as a polynomial, one row per external
    labeling: crossing-first side minus crossing-last side.

    The six external labels are (sigma, tau, beta, theta, rho, alpha):
    sigma and tau enter the crossing vertex, beta enters from above, and
    theta, rho and alpha leave.  Row e (labelings in lexicographic
    order) lists (coefficient, i, j, k) for each monomial r[i] s[j]
    t[k] that survives once the two sides cancel, with i, j, k indices
    into as_vector().  Each side chains one vertex pattern per weight,
    matched on the internal edges; a chain through a component off
    PATTERNS is zero and never appears.
    """
    rows = [{} for _ in range(64)]

    def add(sign, ext, key):
        e = 0
        for bit in ext:
            e = 2 * e + bit
        rows[e][key] = rows[e].get(key, 0) + sign

    weights = _WEIGHT_INDEX.items()
    # crossing first: R(sigma, tau, nu, mu) S(nu, beta, theta, gamma) T(mu, gamma, rho, alpha)
    for (sg, ta, nu, mu), i in weights:
        for (nu_s, be, th, gamma), j in weights:
            for (mu_t, gamma_t, rh, al), k in weights:
                if (nu_s, mu_t, gamma_t) == (nu, mu, gamma):
                    add(1, (sg, ta, be, th, rh, al), (i, j, k))
    # crossing last: T(tau, beta, psi, delta) S(sigma, delta, phi, alpha) R(phi, psi, theta, rho)
    for (ta, be, psi, delta), k in weights:
        for (sg, delta_s, phi, al), j in weights:
            for (phi_r, psi_r, th, rh), i in weights:
                if (delta_s, phi_r, psi_r) == (delta, phi, psi):
                    add(-1, (sg, ta, be, th, rh, al), (i, j, k))
    return tuple(tuple((c, *key) for key, c in sorted(row.items()) if c) for row in rows)


STAR_TRIANGLE_TABLE = _star_triangle_table()


def _scaled(r: VertexWeights, s: VertexWeights, t: VertexWeights) -> tuple:
    """The integer vectors of r, s and t (lcm_scaled) and the product of
    their three lcms, by which every integer row value is divided."""
    (rv, lr), (sv, ls), (tv, lt) = (lcm_scaled(w.as_vector()) for w in (r, s, t))
    return rv, sv, tv, lr * ls * lt


def _row_value(row: tuple, rv: tuple, sv: tuple, tv: tuple) -> int:
    return sum(c * rv[i] * sv[j] * tv[k] for c, i, j, k in row)


def star_triangle_residuals(r: VertexWeights, s: VertexWeights,
                            t: VertexWeights) -> tuple:
    """All 64 residuals, external labels in lexicographic order.

    Evaluates STAR_TRIANGLE_TABLE, entry e at the e-th labeling.  The
    vector is zero exactly when yb_commutator(r, s, t) vanishes: the
    residual at (sigma, tau, beta, theta, rho, alpha) is minus the
    commutator entry in row (theta, rho, alpha), column (sigma, tau,
    beta).
    """
    rv, sv, tv, scale = _scaled(r, s, t)
    zero = Fraction(0)
    values = (_row_value(row, rv, sv, tv) for row in STAR_TRIANGLE_TABLE)
    return tuple(Fraction(v, scale) if v else zero for v in values)


def commutator_vanishes(r: VertexWeights, s: VertexWeights, t: VertexWeights) -> bool:
    """Whether (r, s, t) solves the Yang-Baxter equation: every residual is zero."""
    rv, sv, tv, _ = _scaled(r, s, t)
    return not any(_row_value(row, rv, sv, tv) for row in STAR_TRIANGLE_TABLE)


_EQ_TEXT = {
    1: "a_j(T) a_j(S) d_i(R) + d_i(T) c_i(S) a_-j(R) = c_i(T) d_i(S) a_j(R) + b_-j(T) b_-j(S) d_i(R)",
    2: "d_i(T) b_j(S) c_i(R) + a_j(T) d_i(S) b_-j(R) = b_j(T) d_i(S) a_j(R) + c_-i(T) b_-j(S) d_i(R)",
    3: "d_i(T) b_j(S) b_j(R) + a_j(T) d_i(S) c_-i(R) = d_i(T) a_j(S) a_j(R) + a_-j(T) c_-i(S) d_i(R)",
    4: "c_i(T) a_j(S) c_i(R) + b_j(T) c_i(S) b_-j(R) = a_j(T) c_i(S) a_j(R) + d_-i(T) a_-j(S) d_i(R)",
    5: "c_i(T) a_j(S) b_j(R) + b_j(T) c_i(S) c_-i(R) = c_i(T) b_j(S) a_j(R) + b_-j(T) d_-i(S) d_i(R)",
    6: "b_-j(T) a_j(S) c_i(R) + c_-i(T) c_i(S) b_-j(R) = d_-i(T) d_i(S) b_j(R) + a_j(T) b_-j(S) c_i(R)",
    7: "c_1(T) c_-1(S) c_1(R) = c_-1(T) c_1(S) c_-1(R)",
    8: "d_1(T) c_1(S) d_-1(R) = d_-1(T) c_-1(S) d_1(R)",
    9: "c_1(T) d_1(S) d_-1(R) = c_-1(T) d_-1(S) d_1(R)",
    10: "d_1(T) d_-1(S) c_1(R) = d_-1(T) d_1(S) c_-1(R)",
}

RESIDUALS28_LABELS = tuple(
    f"eq{k} (i={i}, j={j}): {_EQ_TEXT[k]}"
    for k in range(1, 7) for i in (1, -1) for j in (1, -1)
) + tuple(f"eq{k}: {_EQ_TEXT[k]}" for k in range(7, 11))


# (table row, sign) of each equation, in RESIDUALS28_LABELS order: every
# equation's LHS - RHS is one star-triangle residual up to sign.
RESIDUALS28_ROWS = (
    (48, 1), (57, -1), (6, -1), (15, 1),     # eq1
    (40, 1), (58, -1), (5, -1), (23, 1),     # eq2
    (24, 1), (60, -1), (3, -1), (39, 1),     # eq3
    (33, 1), (51, -1), (12, -1), (30, 1),    # eq4
    (17, 1), (53, -1), (10, -1), (46, 1),    # eq5
    (34, 1), (43, -1), (20, -1), (29, 1),    # eq6
    (18, -1), (0, 1), (9, 1), (27, -1),      # eq7-eq10
)


def residuals28(r: VertexWeights, s: VertexWeights, t: VertexWeights) -> tuple:
    """LHS - RHS of the 28-equation system, in RESIDUALS28_LABELS order.

    Equations 1-6 are instantiated at (i, j) in (1,1), (1,-1), (-1,1),
    (-1,-1); equations 7-10 have no parameters.  Each is read off
    STAR_TRIANGLE_TABLE through RESIDUALS28_ROWS; the 32 nonzero rows
    are these 28 and the negatives of eq7-eq10, so the joint vanishing
    of all 28 is equivalent to the vanishing of the commutator.
    """
    return residuals28_of(star_triangle_residuals(r, s, t))


def residuals28_of(residuals: tuple) -> tuple:
    """residuals28 read off the 64 star_triangle_residuals, one signed
    entry per equation, so a caller that needs both evaluates once."""
    return tuple(residuals[e] if sign > 0 else -residuals[e] for e, sign in RESIDUALS28_ROWS)


# Positions in as_vector(), for the invariants evaluated on integer vectors.
A1, A_NEG1, B1, B_NEG1, C1, C_NEG1, D1, D_NEG1 = range(8)


def _f(v) -> int:
    return v[A1] * v[A_NEG1] + v[B1] * v[B_NEG1] - v[C1] * v[C_NEG1] - v[D1] * v[D_NEG1]


def _g(i: int, sv, tv) -> int:
    c, d = (C_NEG1, D1) if i == 1 else (C1, D_NEG1)  # c_-i and d_i

    def half(x, y):
        return x[c] * x[d] * (y[B_NEG1] * y[A1] + y[A_NEG1] * y[B1])
    return half(tv, sv) - half(sv, tv)


def f_invariant(w: VertexWeights) -> Fraction:
    """a1 a-1 + b1 b-1 - c1 c-1 - d1 d-1."""
    v, scale = lcm_scaled(w.as_vector())
    return Fraction(_f(v), scale * scale)


def g_invariant(i: int, s: VertexWeights, t: VertexWeights) -> Fraction:
    """The bracket pairing c_-i d_i of one party with a/b cross terms of the other.

    Antisymmetric under swapping s and t; vanishes when they coincide.
    """
    (sv, ls), (tv, lt) = lcm_scaled(s.as_vector()), lcm_scaled(t.as_vector())
    return Fraction(_g(i, sv, tv), (ls * lt) ** 2)


class ConditionReport(Record):
    """Necessary conditions on (S, T) for a YBE solution R with all c, d nonzero.

    The five booleans are, in order: the two ab-balance identities
    (a1 b1 F(S) = a-1 b-1 F(S) in T's weights, and a1 b1 F(T) = a-1 b-1
    F(T) in S's), the squared-G identity c_i d_-i G(i)^2 = c_-i d_i
    beta[0]^2 in T's weights at i = +1 and at i = -1, and the c/d ratio
    match.  alpha[k] and beta[k] are the a b F cross terms at j = +1, -1.
    minors_plus and minors_minus list all six 2x2 minors of the 4x2
    coefficient matrix in (c_i(R), d_i(R)) at i = +1 and i = -1; they
    are reported for inspection and feed none of the booleans.
    """

    ab_balance_t: bool
    ab_balance_s: bool
    g_squared_plus: bool
    g_squared_minus: bool
    cd_ratio: bool
    f_s: Fraction
    f_t: Fraction
    g_plus: Fraction
    g_minus: Fraction
    alpha: tuple
    beta: tuple
    minors_plus: tuple
    minors_minus: tuple

    @property
    def conditions(self) -> tuple:
        return (self.ab_balance_t, self.ab_balance_s,
                self.g_squared_plus, self.g_squared_minus, self.cd_ratio)

    @property
    def all_hold(self) -> bool:
        return all(self.conditions)

    def as_dict(self) -> dict:
        """JSON-ready form with rationals rendered as strings."""
        return {
            "ab_balance_t": self.ab_balance_t,
            "ab_balance_s": self.ab_balance_s,
            "g_squared_plus": self.g_squared_plus,
            "g_squared_minus": self.g_squared_minus,
            "cd_ratio": self.cd_ratio,
            "all_hold": self.all_hold,
            "F(S)": str(self.f_s),
            "F(T)": str(self.f_t),
            "G(+1)": str(self.g_plus),
            "G(-1)": str(self.g_minus),
            "alpha": [str(x) for x in self.alpha],
            "beta": [str(x) for x in self.beta],
            "minors_plus": [str(x) for x in self.minors_plus],
            "minors_minus": [str(x) for x in self.minors_minus],
        }


def _coefficient_minors(i, tv, g, alpha, beta, scale) -> tuple:
    # rows of the 4x2 matrix annihilating (c_i(R), d_i(R)):
    # (c_i/c_-i G, -alpha[k]) and (beta[k], -d_-i/d_i G) in T's weights,
    # each row here times its own integer factor (c_-i or d_i) and
    # every entry over the same scale
    c, c_neg, d, d_neg = (C1, C_NEG1, D1, D_NEG1) if i == 1 else (C_NEG1, C1, D_NEG1, D1)
    rows = [(tv[c] * g, -tv[c_neg] * a, tv[c_neg]) for a in alpha]
    rows += [(tv[d] * b, -tv[d_neg] * g, tv[d]) for b in beta]
    out = []
    for r1 in range(4):
        x1, y1, f1 = rows[r1]
        for x2, y2, f2 in rows[r1 + 1:]:
            out.append(Fraction(x1 * y2 - x2 * y1, f1 * f2 * scale * scale))
    return tuple(out)


def check_necessary_conditions(s: VertexWeights, t: VertexWeights) -> ConditionReport:
    """Evaluate the necessary conditions for solvability in R.

    Requires all sixteen weights of s and t nonzero; the conditions are
    derived under that hypothesis and divide by several of them.  The
    booleans hold whenever some R with c_1, c_-1, d_1, d_-1 all nonzero
    satisfies the YBE against (s, t); nothing is claimed conversely.

    Evaluated in integers: s and t are scaled by the lcms Ls and Lt of
    their denominators (transfer.lcm_scaled).  F(S) and F(T) are then
    Ls^2 and Lt^2 times the true ones, and G, alpha and beta (Ls Lt)^2
    times, so each boolean is an integer identity between terms of the
    same scale, cross-multiplied where the rational one divides, and
    each reported value is one Fraction.
    """
    (sv, ls), (tv, lt) = lcm_scaled(s.as_vector()), lcm_scaled(t.as_vector())
    for v, name in ((sv, "S"), (tv, "T")):
        if not all(v):
            raise WeightConditionError(
                f"necessary conditions need all weights of {name} nonzero")
    f_s, f_t = _f(sv), _f(tv)
    g = {i: _g(i, sv, tv) for i in (1, -1)}
    ab_t = (tv[A1] * tv[B1] * f_s, tv[A_NEG1] * tv[B_NEG1] * f_s)  # j = +1, -1
    ab_s = (sv[A1] * sv[B1] * f_t, sv[A_NEG1] * sv[B_NEG1] * f_t)
    alpha = (ab_t[0] - ab_s[1], ab_t[1] - ab_s[0])
    beta = (ab_t[0] - ab_s[0], ab_t[1] - ab_s[1])
    scale = (ls * lt) ** 2
    return ConditionReport(
        ab_balance_t=ab_t[0] == ab_t[1],
        ab_balance_s=ab_s[0] == ab_s[1],
        g_squared_plus=(tv[C1] * tv[D_NEG1] * g[1] ** 2
                        == tv[C_NEG1] * tv[D1] * beta[0] ** 2),
        g_squared_minus=(tv[C_NEG1] * tv[D1] * g[-1] ** 2
                         == tv[C1] * tv[D_NEG1] * beta[0] ** 2),
        cd_ratio=(tv[C1] * sv[C_NEG1] * tv[D_NEG1] * sv[D1]
                  == tv[D1] * sv[D_NEG1] * tv[C_NEG1] * sv[C1]),
        f_s=Fraction(f_s, ls * ls),
        f_t=Fraction(f_t, lt * lt),
        g_plus=Fraction(g[1], scale),
        g_minus=Fraction(g[-1], scale),
        alpha=tuple(Fraction(x, scale) for x in alpha),
        beta=tuple(Fraction(x, scale) for x in beta),
        minors_plus=_coefficient_minors(1, tv, g[1], alpha, beta, scale),
        minors_minus=_coefficient_minors(-1, tv, g[-1], alpha, beta, scale),
    )


class SolveReport(Record):
    """Solution space of [[R, S, T]] = 0 viewed as linear in R's weights.

    basis spans the space, vectors in WEIGHT_KEYS order.  witness is a
    scanned element with c_1, c_-1, d_1, d_-1 all nonzero, or None if
    the scan found none; a None witness means "none found in scan",
    never a proof of nonexistence.
    """

    basis: tuple
    witness: VertexWeights | None
    scanned: int

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _linear_system_in_r(s: VertexWeights, t: VertexWeights) -> FieldMatrix:
    """STAR_TRIANGLE_TABLE as linear equations in R's eight weights.

    The coefficient of r[i] in a row is the signed sum of s[j] t[k] over
    its monomials, in integers: s and t are scaled by the lcms Ls and Lt
    of their denominators, so every row is the true one times the same
    positive Ls Lt.  That, and dropping zero rows and repeats up to
    sign, leaves the row space alone, and with it the solution space
    and the canonical rref it is read from.  The entries stay ints,
    which the elimination reads as rationals without a Fraction per
    entry.
    """
    (sv, _), (tv, _) = lcm_scaled(s.as_vector()), lcm_scaled(t.as_vector())
    rows = {}
    for row in STAR_TRIANGLE_TABLE:
        coeffs = [0] * 8
        for c, i, j, k in row:
            coeffs[i] += c * sv[j] * tv[k]
        lead = next((x for x in coeffs if x), 0)
        if lead:
            rows.setdefault(tuple(-x for x in coeffs) if lead < 0 else tuple(coeffs))
    return FieldMatrix(QQ, len(rows), 8, tuple(x for row in rows for x in row))


def solve_R(s: VertexWeights, t: VertexWeights, scan_range: int = 2) -> SolveReport:
    """Find all R with [[R, S, T]] = 0, and scan for a fully twisted one.

    The commutator is linear in R's eight weights, so its vanishing is
    a linear system, read off STAR_TRIANGLE_TABLE; the basis of
    solutions is exact.  The witness scan tries integer coefficient
    combinations of the basis in [-scan_range, scan_range], stopping at
    the first combination whose c and d weights are all nonzero.  The
    size guard charges it (2 scan_range + 1)^dimension combinations
    times the 8 weights each one builds.
    """
    if scan_range < 0:
        raise ValueError(f"scan_range must be nonnegative, got {scan_range}")
    basis = tuple(nullspace_basis(_linear_system_in_r(s, t)))
    span = range(-scan_range, scan_range + 1)
    guard_cost(len(span) ** len(basis) * 8)

    # the basis as int vectors over one common denominator, so the scan adds ints
    flat, scale = lcm_scaled(x for v in basis for x in v)
    vectors = [flat[k:k + 8] for k in range(0, len(flat), 8)]
    cd = [v[4:8] for v in vectors]  # c1, c-1, d1, d-1 coordinates per basis vector
    witness = None
    scanned = 0
    for coeffs in product(span, repeat=len(basis)):
        scanned += 1
        if all(sum(c * v[pos] for c, v in zip(coeffs, cd)) for pos in range(4)):
            witness = weights_from_vector([
                Fraction(sum(c * v[k] for c, v in zip(coeffs, vectors)), scale)
                for k in range(8)])
            break
    return SolveReport(basis=basis, witness=witness, scanned=scanned)


def partition_function(w: VertexWeights, shape: GridShape, model: str,
                       boundary: BoundarySpec | None = None,
                       force: bool = False) -> Fraction:
    """Sum over admissible states of the product of vertex weights.

    model "six" sums over six-vertex states and requires both d weights
    to be zero; "eight" sums over eight-vertex states.  A None boundary
    means free boundary, otherwise states are restricted to it (over F3
    for six, F2 for eight); an odd eight-vertex boundary gives 0.  Exact,
    by the transfer sweep, which charges the size guard its own work.
    """
    if model == "six":
        if w.d1 != 0 or w.d_neg1 != 0:
            raise WeightConditionError("six-vertex partition function requires d1 = d-1 = 0")
        patterns, field = SIX_VERTEX, GF3
    elif model == "eight":
        patterns, field = EIGHT_VERTEX, GF2
    else:
        raise ValueError(f"unknown model {model!r}")
    check_boundary(boundary, shape, field)
    weights = {p: w.weight(*PATTERNS[p]) for p in patterns}
    return weighted_sum(weights, shape, boundary, force=force)
