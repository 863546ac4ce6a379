from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FIXTURES,
    identity_matrix,
    is_zero,
    mat_vec,
    oracle_nullspace,
    oracle_rref,
    to_rows,
)
from vertexforms import algebra
from vertexforms.algebra import (
    GF2,
    GF3,
    QQ,
    FieldMatrix,
    mat_sub,
    matmul,
    nullspace_basis,
    pivot_columns,
    rank,
    rref,
)
from vertexforms.yangbaxter import _linear_system_in_r, deserialize_weights, solve_R

FIELDS = [GF2, GF3, QQ]


def entries_for(field):
    if field is QQ:
        return st.fractions(
            min_value=-4, max_value=4, max_denominator=5
        )
    return st.integers(min_value=0, max_value=field.p - 1)


def matrices(field, max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entries_for(field), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(lambda rows: FieldMatrix.from_rows(field, rows))
        )
    )


@st.composite
def degenerate_matrices(draw, max_dim=7):
    """Wide, tall and square matrices over F2, F3 or Q whose rows are drawn
    fresh, zero, repeats of an earlier row, or an earlier row plus a
    multiple of another; Q entries mix ints and Fractions, F_p entries
    are ints outside 0..p-1 too."""
    field = draw(st.sampled_from(FIELDS))
    cols = draw(st.integers(1, max_dim))
    if field is QQ:
        entry = st.one_of(st.integers(-6, 6), st.fractions(-4, 4, max_denominator=6))
    else:
        entry = st.integers(-3, 5)
    rows = []
    for _ in range(draw(st.integers(1, max_dim))):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "combine")))
        if kind == "zero":
            rows.append([0] * cols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combine" and rows:
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(st.integers(-2, 2))
            rows.append([a + k * b for a, b in zip(x, y)])
        else:
            rows.append(draw(st.lists(entry, min_size=cols, max_size=cols)))
    return FieldMatrix.from_rows(field, rows)


@st.composite
def tall_matrices(draw, max_rows=30, max_cols=8):
    """Tall matrices up to 30x8 over F2, F3 or Q, shaped like the Yang-Baxter
    system in R: a few fresh rows, then a triangular block (columns
    permuted, rows shuffled) whose diagonal is nonzero in half the cases,
    so that the rows reach full column rank before the last one, then
    zero rows, repeats and fresh rows.  A
    Q matrix holds Fractions, or plain ints put in without from_rows, as
    the Yang-Baxter system's rows are."""
    field = draw(st.sampled_from(FIELDS))
    cols = draw(st.integers(1, max_cols))
    raw_ints = field is QQ and draw(st.booleans())
    if field is QQ and not raw_ints:
        entry = st.fractions(-4, 4, max_denominator=6)
    else:
        entry = st.integers(-6, 6)
    nonzero = entry.filter(lambda x: x % field.p if field.p else x)
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=4))
    diagonal = nonzero if draw(st.booleans()) else entry
    order = draw(st.permutations(range(cols)))
    block = []
    for k in range(cols):
        triangular = [0] * k + [draw(diagonal)] + [draw(entry) for _ in range(k + 1, cols)]
        block.append([triangular[order[j]] for j in range(cols)])
    rows += draw(st.permutations(block))
    for _ in range(draw(st.integers(1, max_rows - len(rows)))):
        kind = draw(st.sampled_from(("zero", "repeat", "fresh")))
        if kind == "zero":
            rows.append([0] * cols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(st.lists(entry, min_size=cols, max_size=cols)))
    if raw_ints:
        return FieldMatrix(QQ, len(rows), cols, tuple(x for row in rows for x in row))
    return FieldMatrix.from_rows(field, rows)


@st.composite
def certificate_matrices(draw, max_cols=7):
    """Matrices over F2, F3 or Q that lead the elimination through its
    kernel certificate: independent rows, then a row in their span (a
    combination, or zero with no rows before it) while the rank is below
    the column count, so the kernel is read; then an independent row,
    which the kernel must not pass and which drops it; then rows in the
    span again, which read the kernel anew and are skipped.  The
    independent rows are triangular in permuted columns with a nonzero
    diagonal, and their other entries are zero half the time, so a
    later independent row is often orthogonal to some kernel vectors
    but not to all.  A Q matrix holds Fractions, or plain ints put in
    without from_rows."""
    field = draw(st.sampled_from(FIELDS))
    cols = draw(st.integers(2, max_cols))
    raw_ints = field is QQ and draw(st.booleans())
    if field is QQ and not raw_ints:
        entry = st.fractions(-4, 4, max_denominator=6)
    else:
        entry = st.integers(-6, 6)
    nonzero = entry.filter(lambda x: x % field.p if field.p else x)
    sparse = st.one_of(st.just(0), entry)
    order = draw(st.permutations(range(cols)))
    independent = []
    for k in range(cols):
        triangular = [0] * k + [draw(nonzero)] + [draw(sparse) for _ in range(k + 1, cols)]
        independent.append([triangular[order[j]] for j in range(cols)])

    def in_span(basis):
        total = [0] * cols
        for row in basis:
            k = draw(st.integers(-2, 2))
            total = [x + k * y for x, y in zip(total, row)]
        return total

    known = draw(st.integers(0, cols - 2))  # rows read before the first zero
    rows = independent[:known] + [in_span(independent[:known])]
    for k in range(known + 1, draw(st.integers(known + 1, cols)) + 1):
        rows.append(independent[k - 1])
        rows += [in_span(independent[:k]) for _ in range(draw(st.integers(1, 3)))]
    if raw_ints:
        return FieldMatrix(QQ, len(rows), cols, tuple(x for row in rows for x in row))
    return FieldMatrix.from_rows(field, rows)


ORACLE_CASES = st.one_of(degenerate_matrices(), tall_matrices(), certificate_matrices())


def test_field_element_validation():
    # ints are reduced mod p, and over Q become Fractions
    assert FieldMatrix.from_rows(GF3, [[3, -1]]).entries == (0, 2)
    assert FieldMatrix.from_rows(GF2, [[-1]]).entries == (1,)
    q = FieldMatrix.from_rows(QQ, [[2, Fraction(2, 3)]]).entries
    assert q == (2, Fraction(2, 3)) and all(type(x) is Fraction for x in q)
    # floats, bools and strings are no entries in any field
    for field in FIELDS:
        for bad in (1.5, 0.5, True, False, "1", "2/3"):
            with pytest.raises(TypeError, match=field.name):
                FieldMatrix.from_rows(field, [[1, bad]])
    for bad in ("1e3", " 2/3 ", "0.5"):
        with pytest.raises(TypeError, match="str"):
            FieldMatrix.from_rows(QQ, [[bad]])
    with pytest.raises(TypeError, match="bool"):
        FieldMatrix.from_rows(GF2, [[True, False]])


@settings(deadline=None, max_examples=300)
@given(ORACLE_CASES)
def test_rref_matches_oracle(m):
    r = rref(m)
    assert r.entries == oracle_rref(m).entries
    if m.field is QQ:
        assert all(type(x) is Fraction for x in r.entries)


@settings(deadline=None, max_examples=200)
@given(ORACLE_CASES)
def test_rank_and_pivot_columns_match_oracle(m):
    # both read the echelon basis, without back substitution
    pivots = [next(j for j, x in enumerate(row) if x)
              for row in to_rows(oracle_rref(m)) if any(row)]
    assert pivot_columns(m) == pivots
    assert rank(m) == len(pivots)


@settings(deadline=None, max_examples=200)
@given(ORACLE_CASES)
def test_nullspace_matches_oracle(m):
    basis = nullspace_basis(m)
    assert basis == oracle_nullspace(m)
    if m.field is QQ:
        assert all(type(x) is Fraction for v in basis for x in v)


@pytest.mark.parametrize("pair", ["solvable", "generic"])
def test_solve_r_clears_few_rows(monkeypatch, pair):
    # the solvable system (rank 7 of 8) meets a row that clears to zero
    # at rank 4 and again at rank 7, and its later rows pass the kernel
    # certificate with no clearing; the generic one reaches full column
    # rank at its eighth row and reads no further
    s, t = (deserialize_weights((FIXTURES / f"weights_{pair}_{x}.json").read_text())
            for x in "st")
    system = _linear_system_in_r(s, t)
    prefixes = (FieldMatrix(QQ, k, 8, system.entries[:8 * k]) for k in range(1, system.rows))
    reach = next((prefix.rows for prefix in prefixes if not oracle_nullspace(prefix)),
                 system.rows)
    clears, rows_read = [], []
    clear, row = algebra._clear, FieldMatrix.row
    monkeypatch.setattr(algebra, "_clear", lambda *a, **k: clears.append(1) or clear(*a, **k))
    monkeypatch.setattr(FieldMatrix, "row", lambda m, i: rows_read.append(i) or row(m, i))
    basis = solve_R(s, t).basis
    assert len(clears) <= 30
    assert rows_read == list(range(reach))
    assert list(basis) == oracle_nullspace(system)


def test_identity_and_shapes():
    i3 = identity_matrix(GF3, 3)
    m = FieldMatrix.from_rows(GF3, [[1, 2, 0], [0, 1, 1]])
    assert matmul(m, i3).entries == m.entries
    assert is_zero(mat_sub(m, m))
    assert m.row(1) == (0, 1, 1)
    assert m.at(0, 1) == 2
    with pytest.raises(ValueError):
        matmul(i3, m)
    # from_rows reduces integer entries into the field
    assert FieldMatrix.from_rows(GF3, [[4, -1]]).entries == (1, 2)


def test_mat_vec():
    m = FieldMatrix.from_rows(GF2, [[1, 1, 0], [0, 1, 1]])
    assert mat_vec(m, (1, 1, 1)) == (0, 0)
    assert mat_vec(m, (1, 0, 0)) == (1, 0)
    with pytest.raises(ValueError):
        mat_vec(m, (1, 0))


def test_rref_known_gf3():
    m = FieldMatrix.from_rows(GF3, [[2, 1, 1], [1, 2, 0], [0, 0, 1]])
    r = rref(m)
    assert to_rows(r) == [[1, 2, 0], [0, 0, 1], [0, 0, 0]]
    assert pivot_columns(r) == [0, 2]
    assert rank(m) == 2


def test_rref_known_qq():
    m = FieldMatrix.from_rows(
        QQ, [[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(2)]]
    )
    r = rref(m)
    assert to_rows(r) == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]]
    assert rank(m) == 1


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(FIELDS).flatmap(matrices))
def test_rref_idempotent(m):
    r = rref(m)
    assert rref(r).entries == r.entries


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(FIELDS).flatmap(matrices))
def test_rank_nullity(m):
    basis = nullspace_basis(m)
    assert rank(m) + len(basis) == m.cols


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(FIELDS).flatmap(matrices))
def test_nullspace_vectors_annihilated(m):
    for v in nullspace_basis(m):
        assert not any(mat_vec(m, v))


@settings(deadline=None, max_examples=40)
@given(matrices(GF3))
def test_rref_preserves_row_space_dimension(m):
    assert rank(rref(m)) == rank(m)


def test_nullspace_basis_is_independent():
    m = FieldMatrix.from_rows(GF3, [[1, 1, 1, 1]])
    basis = nullspace_basis(m)
    assert len(basis) == 3
    # stack the basis as rows; full rank means independent
    stacked = FieldMatrix.from_rows(GF3, [list(v) for v in basis])
    assert rank(stacked) == 3


def test_nullspace_of_identity_empty():
    assert nullspace_basis(identity_matrix(QQ, 4)) == []


def test_matmul_associative_small():
    a = FieldMatrix.from_rows(GF3, [[1, 2], [0, 1]])
    b = FieldMatrix.from_rows(GF3, [[2, 0], [1, 1]])
    c = FieldMatrix.from_rows(GF3, [[1, 1], [2, 0]])
    assert matmul(matmul(a, b), c).entries == matmul(a, matmul(b, c)).entries


def test_mixed_fields_rejected():
    a = identity_matrix(GF3, 2)
    b = identity_matrix(GF2, 2)
    with pytest.raises(ValueError):
        matmul(a, b)
