import json
import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    FIXTURES,
    BoundaryHex,
    baxter_weights,
    fraction_det,
    from_pairs,
    identity_matrix,
    identity_weights,
    is_zero,
    random_solvable_pair,
    random_solvable_triple,
    random_weights,
    row_transfer,
    solvable_triple,
    star_triangle_residual,
    tanh_sub,
)
from vertexforms import grid, yangbaxter
from vertexforms.algebra import QQ, FieldMatrix, nullspace_basis
from vertexforms.grid import BoundarySpec, GridShape, InputError, SizeGuardError
from vertexforms.algebra import GF2, GF3
from vertexforms.yangbaxter import (
    A1,
    A_NEG1,
    B1,
    B_NEG1,
    C1,
    C_NEG1,
    D1,
    D_NEG1,
    RESIDUALS28_LABELS,
    RESIDUALS28_ROWS,
    STAR_TRIANGLE_TABLE,
    WEIGHT_KEYS,
    ConditionReport,
    VertexWeights,
    WeightConditionError,
    WeightFormatError,
    check_necessary_conditions,
    commutator_vanishes,
    component,
    deserialize_weights,
    embed,
    f_invariant,
    g_invariant,
    partition_function,
    residuals28,
    serialize_weights,
    solve_R,
    star_triangle_residuals,
    weights_from_vector,
    weights_to_matrix,
    yb_commutator,
)

W_EQ7 = weights_from_vector((0, 0, 0, 0, 1, 1, 0, 0))
S_EQ7 = weights_from_vector((0, 0, 0, 0, 1, 2, 0, 0))


def test_weights_are_exact():
    w = VertexWeights(1, "1/2", Fraction(2, 3), 0, 1, 1, 0, 0)
    assert w.a_neg1 == Fraction(1, 2)
    assert w.b1 == Fraction(2, 3)
    with pytest.raises(TypeError, match="not float"):
        VertexWeights(0.5, 1, 1, 1, 0, 0, 0, 0)
    with pytest.raises(TypeError, match="not bool"):
        VertexWeights(True, 1, 1, 1, 0, 0, 0, 0)


@pytest.mark.parametrize("raw", ["0.5", "1e3", " 2 ", "1e1000000000"])
def test_weight_strings_follow_the_documented_grammar(monkeypatch, raw):
    # the constructor reads deserialize_weights' grammar; a string outside
    # it never reaches Fraction, which would build 10**1000000000 for the
    # last one, so the refusal comes at once
    def fraction(x, *rest):
        if isinstance(x, str):
            raise AssertionError(f"Fraction was handed {x!r}")
        return Fraction(x, *rest)

    monkeypatch.setattr(yangbaxter, "Fraction", fraction)
    message = f"weight strings must be an integer or 'p/q', got {raw!r}"
    with pytest.raises(ValueError) as refused:
        VertexWeights(raw, 1, 1, 1, 0, 0, 0, 0)
    assert str(refused.value) == message


def test_vector_round_trip():
    w = VertexWeights(1, 2, 3, 4, 5, 6, 7, 8)
    assert w.as_vector() == tuple(Fraction(k) for k in range(1, 9))
    assert weights_from_vector(w.as_vector()) == w
    with pytest.raises(ValueError, match="8 entries"):
        weights_from_vector((1, 2, 3))


def test_from_pairs_and_named_lookups():
    w = from_pairs((1, 2), (3, 4), (5, 6), (7, 8))
    assert (w.a1, w.a_neg1) == (1, 2)
    assert (w.d1, w.d_neg1) == (7, 8)
    assert w.weight("c", -1) == 6
    assert w.weight("b", 1) == 3
    # "ab", "" and "bc" are substrings of "abcd", not letters; True is no sign
    for letter, sign in (("e", 1), ("a", 0), ("ab", 1), ("", 1), ("bc", -1), ("a", True)):
        with pytest.raises(ValueError, match="no weight"):
            w.weight(letter, sign)


def test_serialization_round_trip():
    w = VertexWeights("2/3", 1, "-5/7", 2, 1, 1, 0, "0")
    text = serialize_weights(w)
    assert '"2/3"' in text and '"a1"' in text and '"d-1"' in text
    assert deserialize_weights(text) == w


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("{", "invalid JSON"),
        ("[]", "top level"),
        ('{"a1": 1}', "missing required key"),
        ('{"a1": 0.5, "a-1": 1, "b1": 1, "b-1": 1, "c1": 0, "c-1": 0, "d1": 0, "d-1": 0}',
         "'p/q' string"),
    ],
)
def test_serialization_diagnostics(text, fragment):
    with pytest.raises(WeightFormatError, match=fragment):
        deserialize_weights(text)


def weights_text(a1):
    """A weights document whose a1 entry is a1, the others 1."""
    doc = dict.fromkeys(WEIGHT_KEYS, 1)
    doc["a1"] = a1
    return json.dumps(doc)


@pytest.mark.parametrize("raw", [
    "1e3", "0.5", " 2 ", "1_000", "1e100", "-2.5e-3", "2\n", "1/-2", "+-1", "1/", "/2", "",
    "\u0663", "\u00bd", "1/0", True, False, 1.0, 1e300, None, [1], {"p": 1}, " 2/3 ", 1.5,
])
def test_weights_are_integers_or_p_over_q_strings(raw):
    with pytest.raises(WeightFormatError,
                       match="^weights document: 'a1' must be an integer or 'p/q' string"):
        deserialize_weights(weights_text(raw))


@pytest.mark.parametrize("raw,value", [
    (5, 5), (-5, -5), (0, 0), ("7", 7), ("-3/4", Fraction(-3, 4)), ("+2/6", Fraction(1, 3)),
    ("007/010", Fraction(7, 10)), ("-0", 0), (10 ** 40, 10 ** 40),
])
def test_weights_read_every_documented_form(raw, value):
    assert deserialize_weights(weights_text(raw)).a1 == value


def test_weights_with_an_integer_too_long_for_int_are_a_format_error():
    with pytest.raises(WeightFormatError,
                       match="^weights document: an integer in it has more than 4300 digits$"):
        deserialize_weights(weights_text(1).replace('"a1": 1', '"a1": ' + "1" * 5000))


def test_matrix_layout():
    w = VertexWeights(1, 2, 3, 4, 5, 6, 7, 8)
    m = weights_to_matrix(w)
    assert (m.rows, m.cols) == (4, 4)
    assert m.at(0, 0) == 1 and m.at(3, 3) == 2
    assert m.at(1, 1) == 3 and m.at(2, 2) == 4
    assert m.at(1, 2) == 5 and m.at(2, 1) == 6
    assert m.at(0, 3) == 7 and m.at(3, 0) == 8
    slots = {(0, 0), (3, 3), (1, 1), (2, 2), (1, 2), (2, 1), (0, 3), (3, 0)}
    for r in range(4):
        for c in range(4):
            if (r, c) not in slots:
                assert m.at(r, c) == 0


def test_component_anchors():
    w = VertexWeights(1, 2, 3, 4, 5, 6, 7, 8)
    # (left, top, right, bottom) order; conserving patterns only
    assert component(w, 0, 0, 0, 0) == w.a1
    assert component(w, 1, 1, 1, 1) == w.a_neg1
    assert component(w, 0, 1, 0, 1) == w.b1
    assert component(w, 1, 0, 1, 0) == w.b_neg1
    assert component(w, 1, 0, 0, 1) == w.c1
    assert component(w, 0, 1, 1, 0) == w.c_neg1
    assert component(w, 1, 1, 0, 0) == w.d1
    assert component(w, 0, 0, 1, 1) == w.d_neg1
    # everything off the table vanishes
    zero_patterns = [
        p for p in product((0, 1), repeat=4)
        if component(w, *p) == 0
    ]
    assert len(zero_patterns) == 8
    with pytest.raises(ValueError, match="bits"):
        component(w, 2, 0, 0, 0)


def test_component_agrees_with_matrix():
    w = VertexWeights(1, 2, 3, 4, 5, 6, 7, 8)
    m = weights_to_matrix(w)
    for nu, beta, theta, gamma in product((0, 1), repeat=4):
        assert component(w, nu, beta, theta, gamma) == m.at(
            2 * theta + gamma, 2 * nu + beta
        )


def kron(a, b):
    rows = []
    for i in range(a.rows):
        for k in range(b.rows):
            rows.append(
                [
                    a.at(i, j) * b.at(k, l)
                    for j in range(a.cols)
                    for l in range(b.cols)
                ]
            )
    return FieldMatrix.from_rows(QQ, rows)


def swap_middle_last():
    # permutation of V x V x V exchanging the last two sites
    rows = [[0] * 8 for _ in range(8)]
    for a, b, c in product((0, 1), repeat=3):
        rows[4 * a + 2 * c + b][4 * a + 2 * b + c] = 1
    return FieldMatrix.from_rows(QQ, rows)


def test_embed_against_kronecker():
    rng = random.Random(14)
    m = FieldMatrix.from_rows(
        QQ, [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(4)]
    )
    i2 = identity_matrix(QQ, 2)
    assert embed(m, 12).entries == kron(m, i2).entries
    assert embed(m, 23).entries == kron(i2, m).entries
    p = swap_middle_last()
    from vertexforms.algebra import matmul

    conj = matmul(matmul(p, embed(m, 12)), p)
    assert embed(m, 13).entries == conj.entries


def test_embed_validation():
    i2 = identity_matrix(QQ, 2)
    with pytest.raises(ValueError, match="4x4"):
        embed(i2, 12)
    with pytest.raises(ValueError, match="slot"):
        embed(identity_matrix(QQ, 4), 21)


def test_commutator_of_solvable_triple_vanishes():
    R, S, T = solvable_triple(
        Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
        Fraction(2), Fraction(3, 2), Fraction(5, 3),
    )
    assert is_zero(yb_commutator(R, S, T))
    assert all(x == 0 for x in star_triangle_residuals(R, S, T))
    assert all(x == 0 for x in residuals28(R, S, T))


def test_commutator_is_linear_in_each_slot():
    rng = random.Random(15)
    r, s, t = random_weights(rng), random_weights(rng), random_weights(rng)
    base = yb_commutator(r, s, t)
    scaled = yb_commutator(weights_from_vector(
        tuple(3 * x for x in r.as_vector())), s, t)
    assert scaled.entries == tuple(3 * x for x in base.entries)
    scaled_t = yb_commutator(r, s, weights_from_vector(
        tuple(-2 * x for x in t.as_vector())))
    assert scaled_t.entries == tuple(-2 * x for x in base.entries)


def test_residuals_mirror_the_commutator():
    rng = random.Random(16)
    r, s, t = random_weights(rng), random_weights(rng), random_weights(rng)
    comm = yb_commutator(r, s, t)
    for sg, ta, be, th, rh, al in product((0, 1), repeat=6):
        res = star_triangle_residual(r, s, t, BoundaryHex(sg, ta, be, th, rh, al))
        assert res == -comm.at(4 * th + 2 * rh + al, 4 * sg + 2 * ta + be)


def test_three_formulations_agree():
    rng = random.Random(17)
    triples = [tuple(random_weights(rng) for _ in range(3)) for _ in range(6)]
    triples.append(random_solvable_triple(rng))
    triples.append((W_EQ7, S_EQ7, W_EQ7))
    R, S, T = random_solvable_triple(rng)
    bumped = weights_from_vector(
        tuple(x + (1 if k == 0 else 0) for k, x in enumerate(R.as_vector()))
    )
    triples.append((bumped, S, T))
    for r, s, t in triples:
        flat = is_zero(yb_commutator(r, s, t))
        all64 = all(x == 0 for x in star_triangle_residuals(r, s, t))
        all28 = all(x == 0 for x in residuals28(r, s, t))
        assert flat == all64 == all28


# -- oracles for the star-triangle table ------------------------------------


def eq1to6(r, s, t, k, i, j):
    """Equations 1-6 of the 28-equation system, LHS - RHS, as typed from the paper."""
    W = lambda party, letter, sign: party.weight(letter, sign)
    if k == 1:
        return (W(t, "a", j) * W(s, "a", j) * W(r, "d", i)
                + W(t, "d", i) * W(s, "c", i) * W(r, "a", -j)
                - W(t, "c", i) * W(s, "d", i) * W(r, "a", j)
                - W(t, "b", -j) * W(s, "b", -j) * W(r, "d", i))
    if k == 2:
        return (W(t, "d", i) * W(s, "b", j) * W(r, "c", i)
                + W(t, "a", j) * W(s, "d", i) * W(r, "b", -j)
                - W(t, "b", j) * W(s, "d", i) * W(r, "a", j)
                - W(t, "c", -i) * W(s, "b", -j) * W(r, "d", i))
    if k == 3:
        return (W(t, "d", i) * W(s, "b", j) * W(r, "b", j)
                + W(t, "a", j) * W(s, "d", i) * W(r, "c", -i)
                - W(t, "d", i) * W(s, "a", j) * W(r, "a", j)
                - W(t, "a", -j) * W(s, "c", -i) * W(r, "d", i))
    if k == 4:
        return (W(t, "c", i) * W(s, "a", j) * W(r, "c", i)
                + W(t, "b", j) * W(s, "c", i) * W(r, "b", -j)
                - W(t, "a", j) * W(s, "c", i) * W(r, "a", j)
                - W(t, "d", -i) * W(s, "a", -j) * W(r, "d", i))
    if k == 5:
        return (W(t, "c", i) * W(s, "a", j) * W(r, "b", j)
                + W(t, "b", j) * W(s, "c", i) * W(r, "c", -i)
                - W(t, "c", i) * W(s, "b", j) * W(r, "a", j)
                - W(t, "b", -j) * W(s, "d", -i) * W(r, "d", i))
    if k == 6:
        return (W(t, "b", -j) * W(s, "a", j) * W(r, "c", i)
                + W(t, "c", -i) * W(s, "c", i) * W(r, "b", -j)
                - W(t, "d", -i) * W(s, "d", i) * W(r, "b", j)
                - W(t, "a", j) * W(s, "b", -j) * W(r, "c", i))
    raise ValueError(k)


def eq7to10(r, s, t, k):
    """Equations 7-10, LHS - RHS."""
    if k == 7:
        return t.c1 * s.c_neg1 * r.c1 - t.c_neg1 * s.c1 * r.c_neg1
    if k == 8:
        return t.d1 * s.c1 * r.d_neg1 - t.d_neg1 * s.c_neg1 * r.d1
    if k == 9:
        return t.c1 * s.d1 * r.d_neg1 - t.c_neg1 * s.d_neg1 * r.d1
    if k == 10:
        return t.d1 * s.d_neg1 * r.c1 - t.d_neg1 * s.d1 * r.c_neg1
    raise ValueError(k)


def equations28(r, s, t):
    """The hand-typed system in RESIDUALS28_LABELS order."""
    out = [eq1to6(r, s, t, k, i, j) for k in range(1, 7) for i in (1, -1) for j in (1, -1)]
    out.extend(eq7to10(r, s, t, k) for k in range(7, 11))
    return tuple(out)


def commutator_residuals(r, s, t):
    """The 64 residuals read off the 8x8 commutator, in table row order."""
    comm = yb_commutator(r, s, t)
    return tuple(-comm.at(4 * th + 2 * rh + al, 4 * sg + 2 * ta + be)
                 for sg, ta, be, th, rh, al in product((0, 1), repeat=6))


UNITS = tuple(weights_from_vector(tuple(int(x == k) for x in range(8))) for k in range(8))


def trilinear_coefficients(residuals):
    """{(i, j, k): coefficients of r[i] s[j] t[k]} for a map that is linear in
    each of r, s and t: its values on the unit weight vectors."""
    return {(i, j, k): residuals(UNITS[i], UNITS[j], UNITS[k])
            for i, j, k in product(range(8), repeat=3)}


def table_coefficients(row):
    out = dict.fromkeys(product(range(8), repeat=3), 0)
    for c, i, j, k in row:
        out[i, j, k] += c
    return out


def evaluate(row, rv, sv, tv):
    """One STAR_TRIANGLE_TABLE row in Fraction arithmetic, monomial by monomial."""
    return sum((c * rv[i] * sv[j] * tv[k] for c, i, j, k in row), Fraction(0))


def fraction_residuals(r, s, t):
    """The 64 residuals as the table gives them with no integer scaling."""
    vectors = r.as_vector(), s.as_vector(), t.as_vector()
    return tuple(evaluate(row, *vectors) for row in STAR_TRIANGLE_TABLE)


def old_solution_basis(s, t):
    """solve_R's basis from the full 64-equation commutator system."""
    columns = [yb_commutator(unit, s, t).entries for unit in UNITS]
    rows = [[columns[k][e] for k in range(8)] for e in range(64)]
    return tuple(nullspace_basis(FieldMatrix.from_rows(QQ, rows)))


rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
)
weights = st.tuples(*[rationals] * 8).map(weights_from_vector)
solvable = st.integers(0, 2 ** 32).map(lambda k: random_solvable_triple(random.Random(k)))
triples = st.one_of(st.tuples(weights, weights, weights), solvable)


def test_table_shape():
    assert len(STAR_TRIANGLE_TABLE) == 64
    assert sorted(len(row) for row in STAR_TRIANGLE_TABLE) == [0] * 32 + [2] * 8 + [4] * 24
    for row in STAR_TRIANGLE_TABLE:
        assert all(c in (1, -1) for c, *_ in row)


def test_table_is_the_commutator_polynomial():
    # both sides are linear in each weight vector, so agreeing on all
    # 512 unit triples is agreeing as polynomials
    oracle = trilinear_coefficients(commutator_residuals)
    for e, row in enumerate(STAR_TRIANGLE_TABLE):
        coeffs = table_coefficients(row)
        assert all(oracle[key][e] == c for key, c in coeffs.items()), e


@settings(deadline=None, max_examples=60)
@given(triples)
def test_table_matches_both_oracles(triple):
    r, s, t = triple
    residuals = star_triangle_residuals(r, s, t)
    assert all(type(x) is Fraction for x in residuals)
    assert residuals == commutator_residuals(r, s, t)
    assert residuals == tuple(star_triangle_residual(r, s, t, BoundaryHex(*bits))
                              for bits in product((0, 1), repeat=6))
    assert commutator_vanishes(r, s, t) == is_zero(yb_commutator(r, s, t))


def test_each_equation_is_one_signed_table_row():
    oracle = trilinear_coefficients(equations28)
    assert len(RESIDUALS28_ROWS) == 28
    for q, (e, sign) in enumerate(RESIDUALS28_ROWS):
        coeffs = table_coefficients(STAR_TRIANGLE_TABLE[e])
        assert all(oracle[key][q] == sign * c for key, c in coeffs.items()), q
    # the other four nonzero rows are the negatives of eq7-eq10
    used = {e for e, _ in RESIDUALS28_ROWS}
    rest = {row for e, row in enumerate(STAR_TRIANGLE_TABLE) if row and e not in used}
    assert rest == {tuple((-c, i, j, k) for c, i, j, k in STAR_TRIANGLE_TABLE[e])
                    for e, _ in RESIDUALS28_ROWS[24:]}


@settings(deadline=None, max_examples=60)
@given(triples)
def test_residuals28_match_the_typed_equations(triple):
    assert residuals28(*triple) == equations28(*triple)


@pytest.mark.parametrize("s,t", [
    (identity_weights(), identity_weights()),
    (weights_from_vector((0,) * 8), weights_from_vector((0,) * 8)),
    (identity_weights(), VertexWeights(2, 3, 5, 7, 0, 0, 0, 0)),
    (baxter_weights(Fraction(1, 5), Fraction(1, 7)),) * 2,
    (VertexWeights(2, 3, 5, 7, 2, 3, 2, 5), VertexWeights(1, 2, 3, 4, 5, 6, 7, 8)),
    (W_EQ7, S_EQ7),
])
def test_solve_basis_matches_the_commutator_system(s, t):
    assert solve_R(s, t).basis == old_solution_basis(s, t)


@settings(deadline=None, max_examples=25)
@given(triples)
def test_solve_basis_matches_the_commutator_system_random(triple):
    _, s, t = triple
    assert solve_R(s, t, scan_range=0).basis == old_solution_basis(s, t)


# weights far from the small rationals above: denominators up to 10^12,
# numerators up to 10^15, so the lcms and integer row sums run to
# hundreds of bits
big_rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-10 ** 15, 10 ** 15).map(Fraction),
    st.builds(Fraction, st.integers(-10 ** 15, 10 ** 15), st.integers(1, 10 ** 12)),
)
big_nonzero = big_rationals.filter(bool)
big_weights = st.tuples(*[big_rationals] * 8).map(weights_from_vector)


def rescaled(w, factor, bump=Fraction(0)):
    """w times factor, with bump added to its a1 weight."""
    return weights_from_vector(tuple(factor * x + (bump if k == 0 else 0)
                                     for k, x in enumerate(w.as_vector())))


# a solvable triple, each party rescaled by a big rational (the commutator
# is linear in each, so it still vanishes), R's a1 then moved by a tiny
# bump or by nothing
big_solvable = st.builds(
    lambda triple, fr, fs, ft, bump: (rescaled(triple[0], fr, bump),
                                      rescaled(triple[1], fs), rescaled(triple[2], ft)),
    solvable, big_nonzero, big_nonzero, big_nonzero,
    st.sampled_from((Fraction(0), Fraction(1, 10 ** 12), Fraction(-7, 10 ** 11))),
)


@settings(deadline=None, max_examples=40)
@given(st.one_of(st.tuples(big_weights, big_weights, big_weights), big_solvable))
def test_integer_evaluation_is_exact_at_scale(triple):
    r, s, t = triple
    expected = fraction_residuals(r, s, t)
    residuals = star_triangle_residuals(r, s, t)
    assert all(type(x) is Fraction for x in residuals)
    assert residuals == expected == commutator_residuals(r, s, t)
    r28 = residuals28(r, s, t)
    assert all(type(x) is Fraction for x in r28)
    assert r28 == tuple(sign * expected[e] for e, sign in RESIDUALS28_ROWS)
    vanishes = commutator_vanishes(r, s, t)
    assert vanishes == (not any(expected)) == is_zero(yb_commutator(r, s, t))
    assert solve_R(s, t, scan_range=0).basis == old_solution_basis(s, t)


def test_solve_rejects_negative_scan_range():
    with pytest.raises(ValueError, match="nonnegative"):
        solve_R(identity_weights(), identity_weights(), scan_range=-1)


def test_solve_scan_is_size_guarded(monkeypatch):
    # dimension 8: the default scan is charged 5^8 * 8 < 2^22 and runs
    identity = identity_weights()
    assert solve_R(identity, identity).witness is not None
    monkeypatch.setattr(grid, "SIZE_GUARD_BITS", 21)
    with pytest.raises(SizeGuardError, match="2\\^22 exceeds"):
        solve_R(identity, identity)
    # dimension 0 is charged its one empty combination
    generic = VertexWeights(1, 2, 3, 4, 5, 6, 7, 8)
    monkeypatch.setattr(grid, "SIZE_GUARD_BITS", 3)
    assert solve_R(VertexWeights(2, 3, 5, 7, 2, 3, 2, 5), generic).scanned == 1


def test_pure_c_triple_fails_only_eq7():
    res = residuals28(W_EQ7, S_EQ7, W_EQ7)
    nonzero = [k for k, x in enumerate(res) if x != 0]
    assert nonzero == [24]
    assert RESIDUALS28_LABELS[24].startswith("eq7")
    assert res[24] == 1
    assert not is_zero(yb_commutator(W_EQ7, S_EQ7, W_EQ7))


def test_residual_labels_cover_the_system():
    assert len(RESIDUALS28_LABELS) == 28
    assert len(set(RESIDUALS28_LABELS)) == 28
    for k in range(1, 7):
        heads = [lab for lab in RESIDUALS28_LABELS if lab.startswith(f"eq{k} ")]
        assert len(heads) == 4
    for k in range(7, 11):
        assert sum(lab.startswith(f"eq{k}:") for lab in RESIDUALS28_LABELS) == 1


def test_f_invariant_examples():
    assert f_invariant(identity_weights()) == 2
    assert f_invariant(weights_from_vector((1,) * 8)) == 0
    assert f_invariant(
        from_pairs((2, 3), (1, 1), (1, 2), (1, 1))
    ) == 4


def test_g_invariant_antisymmetry():
    rng = random.Random(18)
    s, t = random_weights(rng), random_weights(rng)
    for i in (1, -1):
        assert g_invariant(i, s, t) == -g_invariant(i, t, s)
        assert g_invariant(i, s, s) == 0


def test_conditions_hold_on_solvable_pairs():
    _, S, T = solvable_triple(
        Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
        Fraction(2), Fraction(3, 2), Fraction(5, 3),
    )
    rep = check_necessary_conditions(S, T)
    assert rep.all_hold
    assert rep.conditions == (True,) * 5
    assert all(x == 0 for x in rep.minors_plus)
    assert all(x == 0 for x in rep.minors_minus)
    doc = rep.as_dict()
    assert doc["all_hold"] is True
    assert set(doc) >= {"F(S)", "F(T)", "G(+1)", "G(-1)", "cd_ratio"}


def test_conditions_fail_on_generic_pair():
    s_bad = VertexWeights(2, 3, 5, 7, 2, 3, 2, 5)
    t_bad = VertexWeights(1, 2, 3, 4, 5, 6, 7, 8)
    rep = check_necessary_conditions(s_bad, t_bad)
    assert not rep.all_hold
    assert rep.conditions == (False,) * 5


def test_conditions_require_nonzero_weights():
    full = VertexWeights(1, 1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError, match="weights of S nonzero"):
        check_necessary_conditions(identity_weights(), full)
    with pytest.raises(ValueError, match="weights of T nonzero"):
        check_necessary_conditions(full, identity_weights())


# -- the necessary conditions in Fraction arithmetic, as first written ----------


def oracle_f(w):
    return w.a1 * w.a_neg1 + w.b1 * w.b_neg1 - w.c1 * w.c_neg1 - w.d1 * w.d_neg1


def oracle_g(i, s, t):
    def half(x, y):
        return x.weight("c", -i) * x.weight("d", i) * (y.b_neg1 * y.a1 + y.a_neg1 * y.b1)
    return half(t, s) - half(s, t)


def oracle_minors(i, s, t, alpha, beta):
    # rows of the 4x2 matrix annihilating (c_i(R), d_i(R))
    cg = t.weight("c", i) / t.weight("c", -i) * oracle_g(i, s, t)
    dg = t.weight("d", -i) / t.weight("d", i) * oracle_g(i, s, t)
    rows = [(cg, -alpha[0]), (cg, -alpha[1]), (beta[0], -dg), (beta[1], -dg)]
    return tuple(rows[r1][0] * rows[r2][1] - rows[r2][0] * rows[r1][1]
                 for r1 in range(4) for r2 in range(r1 + 1, 4))


def oracle_conditions(s, t) -> ConditionReport:
    """check_necessary_conditions weight by weight in Fractions, each
    boolean an equality of rationals."""
    for party, name in ((s, "S"), (t, "T")):
        if any(x == 0 for x in party.as_vector()):
            raise WeightConditionError(f"necessary conditions need all weights of {name} nonzero")
    f_s, f_t = oracle_f(s), oracle_f(t)
    alpha = tuple(t.weight("a", j) * t.weight("b", j) * f_s
                  - s.weight("a", -j) * s.weight("b", -j) * f_t for j in (1, -1))
    beta = tuple(t.weight("a", j) * t.weight("b", j) * f_s
                 - s.weight("a", j) * s.weight("b", j) * f_t for j in (1, -1))
    rhs = (t.a1 * t.b1 * f_s - s.a1 * s.b1 * f_t) ** 2
    g_sq = {i: (t.weight("c", i) * t.weight("d", -i)) / (t.weight("c", -i) * t.weight("d", i))
            * oracle_g(i, s, t) ** 2 == rhs for i in (1, -1)}
    return ConditionReport(
        ab_balance_t=(t.a1 * t.b1 * f_s == t.a_neg1 * t.b_neg1 * f_s),
        ab_balance_s=(s.a1 * s.b1 * f_t == s.a_neg1 * s.b_neg1 * f_t),
        g_squared_plus=g_sq[1],
        g_squared_minus=g_sq[-1],
        cd_ratio=(t.c1 * s.c_neg1 / (t.c_neg1 * s.c1) == t.d1 * s.d_neg1 / (t.d_neg1 * s.d1)),
        f_s=f_s, f_t=f_t, g_plus=oracle_g(1, s, t), g_minus=oracle_g(-1, s, t),
        alpha=alpha, beta=beta,
        minors_plus=oracle_minors(1, s, t, alpha, beta),
        minors_minus=oracle_minors(-1, s, t, alpha, beta),
    )


# nonzero by construction, with no filter to reject draws
big_units = st.builds(lambda n, d, sign: Fraction(sign * n, d), st.integers(1, 10 ** 15),
                      st.integers(1, 10 ** 12), st.sampled_from((1, -1)))
big_nonzero_weights = st.tuples(*[big_units] * 8).map(weights_from_vector)


@st.composite
def pairs_meeting_one_condition(draw):
    """Nonzero (S, T) moved to meet one condition without the trivial zeros
    of the solvable family, where G and beta vanish and a1 = a-1: both
    ab-balances (through a-1), the c/d ratio (through T's d1), or the
    squared-G identity at i with G(i) nonzero (T's c/d ratio made q^2,
    then S's c_i, which beta[0] reads linearly and G(i) not at all)."""
    s, t = (list(draw(big_nonzero_weights).as_vector()) for _ in range(2))
    kind = draw(st.sampled_from(("ab", "cd", "g")))
    if kind == "ab":
        for v in (s, t):
            v[A_NEG1] = v[A1] * v[B1] / v[B_NEG1]
    elif kind == "cd":
        t[D1] = t[C1] * s[C_NEG1] * t[D_NEG1] * s[D1] / (t[C_NEG1] * s[C1] * s[D_NEG1])
    else:
        q, i, sign = draw(big_units), draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
        t[D1] = q * q * t[C1] * t[D_NEG1] / t[C_NEG1]
        free = C1 if i == 1 else C_NEG1

        def beta0(x):
            s[free] = x
            sw, tw = weights_from_vector(s), weights_from_vector(t)
            return tw.a1 * tw.b1 * oracle_f(sw) - sw.a1 * sw.b1 * oracle_f(tw)

        g = oracle_g(i, weights_from_vector(s), weights_from_vector(t))
        target = sign * g / q if i == 1 else sign * g * q
        b0, b1 = beta0(0), beta0(1)
        s[free] = (target - b0) / (b1 - b0)
        assume(g != 0 and s[free] != 0)
    return weights_from_vector(s), weights_from_vector(t)


# pairs with a zero weight in S, in T, or in both: S is refused first
zero_refusals = st.tuples(big_weights, big_weights).filter(
    lambda pair: not all(pair[0].as_vector()) or not all(pair[1].as_vector()))
condition_pairs = st.one_of(
    st.tuples(big_nonzero_weights, big_nonzero_weights),
    big_nonzero_weights.map(lambda w: (w, w)),
    pairs_meeting_one_condition(),
    big_solvable.map(lambda triple: triple[1:]),
    solvable.map(lambda triple: triple[1:]),
    zero_refusals,
)


@settings(deadline=None, max_examples=200)
@given(condition_pairs)
def test_conditions_match_the_fraction_oracle(pair):
    s, t = pair
    try:
        expected = oracle_conditions(s, t)
    except WeightConditionError as refused:
        with pytest.raises(WeightConditionError) as also_refused:
            check_necessary_conditions(s, t)
        assert str(also_refused.value) == str(refused)
        return
    report = check_necessary_conditions(s, t)
    assert report.as_dict() == expected.as_dict()
    assert report == expected
    assert f_invariant(s) == oracle_f(s) and g_invariant(-1, s, t) == oracle_g(-1, s, t)


@settings(deadline=None, max_examples=30)
@given(st.one_of(solvable, big_solvable))
def test_conditions_hold_on_every_solvable_pair(triple):
    _, s, t = triple
    assert check_necessary_conditions(s, t).all_hold


@settings(deadline=None, max_examples=40)
@given(pairs_meeting_one_condition())
def test_each_condition_can_hold_alone(pair):
    report = check_necessary_conditions(*pair)
    assert any(report.conditions) and report.conditions == oracle_conditions(*pair).conditions


def test_conditions_refuse_a_zero_weight_in_either_party():
    full = VertexWeights(1, 2, 3, 4, 5, 6, 7, 8)
    for k in range(8):
        zero = weights_from_vector(tuple(0 if j == k else x for j, x in enumerate(full.as_vector())))
        for s, t, name in ((zero, full, "S"), (full, zero, "T"), (zero, zero, "S")):
            with pytest.raises(WeightConditionError,
                               match=f"^necessary conditions need all weights of {name} nonzero$"):
                check_necessary_conditions(s, t)


def test_a_weights_document_reads_each_value_once(monkeypatch):
    exact = yangbaxter._exact
    returned = []

    def counted(x):
        returned.append(exact(x))
        return returned[-1]

    monkeypatch.setattr(yangbaxter, "_exact", counted)
    w = deserialize_weights(json.dumps(
        {"a1": 1, "a-1": "-2/6", "b1": "7", "b-1": 10 ** 20, "c1": "3/4", "c-1": -5,
         "d1": "+0", "d-1": "9/1"}))
    assert len(returned) == 8
    assert all(x is y for x, y in zip(w.as_vector(), returned))
    # built from Fractions, VertexWeights keeps them and reads nothing
    assert VertexWeights(*returned) == w and len(returned) == 8


def test_conditions_and_system_rows_do_no_fraction_arithmetic(monkeypatch):
    _, s, t = solvable_triple(
        Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
        Fraction(2), Fraction(3, 2), Fraction(5, 3),
    )
    generic = VertexWeights(2, 3, 5, 7, 2, 3, 2, 5), VertexWeights(1, 2, 3, 4, 5, 6, 7, 8)
    expected = [check_necessary_conditions(s, t), check_necessary_conditions(*generic),
                yangbaxter._linear_system_in_r(s, t)]

    def refused(*args):
        raise AssertionError("Fraction arithmetic")

    for op in ("add", "sub", "mul", "truediv", "pow", "neg"):
        for name in (f"__{op}__", f"__r{op}__"):
            if hasattr(Fraction, name):
                monkeypatch.setattr(Fraction, name, refused)
    with pytest.raises(AssertionError):
        Fraction(1, 2) * 2
    assert [check_necessary_conditions(s, t), check_necessary_conditions(*generic),
            yangbaxter._linear_system_in_r(s, t)] == expected


def test_solve_identity_pair_is_unconstrained():
    rep = solve_R(identity_weights(), identity_weights())
    assert rep.dimension == 8
    assert rep.witness is not None
    w = rep.witness
    assert all(x != 0 for x in (w.c1, w.c_neg1, w.d1, w.d_neg1))
    assert is_zero(yb_commutator(w, identity_weights(), identity_weights()))


def test_solve_untwisted_pair_reports_scan_miss():
    s = baxter_weights(Fraction(1, 5), Fraction(1, 7))
    rep = solve_R(s, s)
    assert rep.dimension == 1
    assert rep.witness is None
    assert rep.scanned == 5  # coefficients -2..2 for the single basis vector


def test_solve_generic_pair_has_no_solutions():
    rep = solve_R(
        VertexWeights(2, 3, 5, 7, 2, 3, 2, 5), VertexWeights(1, 2, 3, 4, 5, 6, 7, 8)
    )
    assert rep.dimension == 0
    assert rep.witness is None


def test_solve_twisted_pairs_find_witnesses():
    rng = random.Random(19)
    for _ in range(5):
        s, t = random_solvable_pair(rng)
        rep = solve_R(s, t)
        assert rep.dimension >= 1
        assert rep.witness is not None
        w = rep.witness
        assert all(x != 0 for x in (w.c1, w.c_neg1, w.d1, w.d_neg1))
        assert is_zero(yb_commutator(w, s, t))
        assert check_necessary_conditions(s, t).all_hold
    # every basis vector solves the system on its own
    for v in rep.basis:
        assert is_zero(yb_commutator(weights_from_vector(v), s, t))


def test_solvable_family_closes_under_difference():
    t1, t2, h = Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)
    R = baxter_weights(tanh_sub(t1, t2), h)
    S = baxter_weights(t1, h)
    T = baxter_weights(t2, h)
    assert is_zero(yb_commutator(R, S, T))


def test_partition_function_counts_with_unit_weights():
    six_unit = VertexWeights(1, 1, 1, 1, 1, 1, 0, 0)
    assert partition_function(six_unit, GridShape(2, 2), "six") == 82
    eight_unit = weights_from_vector((1,) * 8)
    assert partition_function(eight_unit, GridShape(2, 2), "eight") == 256
    assert partition_function(eight_unit, GridShape(3, 2), "eight") == 2048
    zb = BoundarySpec(
        shape=GridShape(2, 2), field=GF2,
        f_bottom=(0, 0), f_top=(0, 0), g_left=(0, 0), g_right=(0, 0),
    )
    assert partition_function(eight_unit, GridShape(2, 2), "eight", boundary=zb) == 2


def test_partition_function_validation():
    with pytest.raises(ValueError, match="d1 = d-1 = 0"):
        partition_function(weights_from_vector((1,) * 8), GridShape(2, 2), "six")
    with pytest.raises(ValueError, match="unknown model"):
        partition_function(identity_weights(), GridShape(2, 2), "ising")


def test_partition_function_checks_the_boundary_before_the_d_weights():
    # weights with d != 0 on a boundary of another shape: the boundary is refused
    wide = BoundarySpec(shape=GridShape(3, 2), field=GF3, f_bottom=(0, 0, 0),
                        f_top=(0, 0, 0), g_left=(0, 0), g_right=(0, 0))
    with pytest.raises(InputError, match="requested \\(2, 2\\)"):
        partition_function(weights_from_vector((1,) * 8), GridShape(2, 2), "six", wide)


def test_partition_function_against_direct_sum():
    from vertexforms.forms_rect import enumerate_six
    from vertexforms.grid import edges_at_vertex

    rng = random.Random(20)
    w = VertexWeights(*(Fraction(rng.randint(1, 5), rng.randint(1, 5))
                        for _ in range(6)), 0, 0)
    m = weights_to_matrix(w)
    total = Fraction(0)
    for state in enumerate_six(GridShape(2, 2)):
        prod = Fraction(1)
        for i in (1, 2):
            for j in (1, 2):
                left, top, right, bottom = edges_at_vertex(state, i, j)
                prod *= m.at(2 * right + bottom, 2 * left + top)
        total += prod
    assert partition_function(w, GridShape(2, 2), "six") == total


# -- the lattice side of a solution (Baxter 1982, ch. 9-10): when (R, S, T)
# solves the Yang-Baxter equation and R is invertible, conjugating by R
# carries S's row transfer matrix past T's, so the two commute.  The
# converse does not hold, so nothing is asserted of other pairs but the
# generic fixture's.


def integer_row_transfer(w, m) -> list:
    """row_transfer of w scaled to integer weights, as ints.  The scale
    multiplies the matrix by a nonzero constant, which keeps whether it
    commutes with another."""
    scaled = rescaled(w, lcm(*(x.denominator for x in w.as_vector())))
    return [[int(x) for x in row] for row in row_transfer(scaled, m)]


def row_transfers_commute(s, t, m) -> bool:
    """Whether the row transfer matrices of s and t on m vertices commute."""
    a, b = integer_row_transfer(s, m), integer_row_transfer(t, m)

    def times(x, y):
        return [[sum(p * q for p, q in zip(row, col)) for col in zip(*y)] for row in x]

    return times(a, b) == times(b, a)


def invertible(r) -> bool:
    matrix = weights_to_matrix(r)
    return fraction_det([matrix.row(i) for i in range(4)]) != 0


def fixture_weights(kind):
    return [deserialize_weights((FIXTURES / f"weights_{kind}_{x}.json").read_text())
            for x in "rst"]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_the_solvable_fixture_has_commuting_row_transfer_matrices(m):
    # the fixture's R is singular (b^2 = c1 c-1), so the theorem does
    # not reach this pair; its S and T commute all the same
    r, s, t = fixture_weights("solvable")
    assert commutator_vanishes(r, s, t) and not invertible(r)
    assert row_transfers_commute(s, t, m)
    _, s, t = fixture_weights("generic")
    assert not row_transfers_commute(s, t, m)


def test_an_invertible_solve_witness_has_commuting_row_transfer_matrices():
    # solve_R's witness R solves the equation with S and T; where R is
    # invertible, the row transfer matrices of S and T commute.  Seeded
    # solvable pairs and the fixtures; at least one witness is invertible.
    pairs = [random_solvable_pair(random.Random(seed)) for seed in range(8)]
    pairs += [fixture_weights(kind)[1:] for kind in ("solvable", "generic")]
    pairs.append([identity_weights(), identity_weights()])
    invertible_witnesses = 0
    for s, t in pairs:
        witness = solve_R(s, t).witness
        if witness is None or not invertible(witness):
            continue
        invertible_witnesses += 1
        assert commutator_vanishes(witness, s, t)
        assert row_transfers_commute(s, t, 2)
        assert row_transfers_commute(s, t, 3)
    assert invertible_witnesses >= 8


@settings(deadline=None, max_examples=30)
@given(st.one_of(solvable, big_solvable))
def test_solutions_with_an_invertible_r_have_commuting_row_transfer_matrices(triple):
    r, s, t = triple
    assume(s != t and commutator_vanishes(r, s, t) and invertible(r))
    assert row_transfers_commute(s, t, 2)
    assert row_transfers_commute(s, t, 3)
