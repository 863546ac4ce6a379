from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vertexforms.algebra import (
    GF2,
    GF3,
    QQ,
    FieldMatrix,
    mat_sub,
    mat_vec,
    matmul,
    nullspace_basis,
    pivot_columns,
    rank,
    rref,
)

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


def test_field_ops_mod_p():
    assert GF3.add(2, 2) == 1
    assert GF3.sub(0, 1) == 2
    assert GF3.mul(2, 2) == 1
    assert GF3.neg(1) == 2
    assert GF3.inv(2) == 2
    assert GF3.div(1, 2) == 2
    assert GF2.add(1, 1) == 0
    assert GF2.inv(1) == 1
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.element(2) == Fraction(2)


def test_field_element_validation():
    assert GF3.element(3) == 0
    assert GF2.element(-1) == 1
    with pytest.raises(TypeError):
        GF3.element(1.5)
    with pytest.raises(TypeError):
        QQ.element(0.5)
    assert QQ.element("2/3") == Fraction(2, 3)


def test_inverse_of_zero_rejected():
    for f in FIELDS:
        with pytest.raises(ZeroDivisionError):
            f.inv(f.zero)


def test_identity_and_shapes():
    i3 = FieldMatrix.identity(GF3, 3)
    m = FieldMatrix.from_rows(GF3, [[1, 2, 0], [0, 1, 1]])
    assert matmul(m, i3).entries == m.entries
    assert mat_sub(m, m).is_zero()
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
    assert r.to_rows() == [[1, 2, 0], [0, 0, 1], [0, 0, 0]]
    assert pivot_columns(r) == [0, 2]
    assert rank(m) == 2


def test_rref_known_qq():
    m = FieldMatrix.from_rows(
        QQ, [[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(2)]]
    )
    r = rref(m)
    assert r.to_rows() == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]]
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
    zero = (m.field.zero,) * m.rows
    for v in nullspace_basis(m):
        assert mat_vec(m, v) == zero


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
    assert nullspace_basis(FieldMatrix.identity(QQ, 4)) == []


def test_matmul_associative_small():
    a = FieldMatrix.from_rows(GF3, [[1, 2], [0, 1]])
    b = FieldMatrix.from_rows(GF3, [[2, 0], [1, 1]])
    c = FieldMatrix.from_rows(GF3, [[1, 1], [2, 0]])
    assert matmul(matmul(a, b), c).entries == matmul(a, matmul(b, c)).entries


def test_mixed_fields_rejected():
    a = FieldMatrix.identity(GF3, 2)
    b = FieldMatrix.identity(GF2, 2)
    with pytest.raises(ValueError):
        matmul(a, b)
