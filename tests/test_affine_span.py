"""affine_span, the kernel-walk oracle kept in conftest, and its helper
combine, against brute force."""

from itertools import product

from hypothesis import given, settings, strategies as st

from conftest import affine_span, combine, mat_vec
from vertexforms.algebra import GF2, GF3, FieldMatrix, nullspace_basis


def test_combine_adds_multiples_mod_p():
    assert combine(GF3, [1, 2, 0], (2, 1), ((1, 1, 0), (0, 1, 1))) == [0, 2, 1]
    assert combine(GF2, [1, 0], (), ()) == [1, 0]


def test_affine_span_known_gf3():
    # rows reduce to (1, 0, 2), (0, 1, 1); base reduces to (0, 0, 2)
    out = list(affine_span(GF3, [1, 2, 0], [(1, 1, 0), (0, 1, 1)]))
    assert out[0] == (0, 0, 2)
    assert out == sorted({tuple(combine(GF3, [1, 2, 0], (a, b), ((1, 1, 0), (0, 1, 1))))
                          for a in range(3) for b in range(3)})


def test_affine_span_of_nothing_is_the_base():
    assert list(affine_span(GF2, [1, 3], [])) == [(1, 1)]
    assert list(affine_span(GF3, [4], [(0,)])) == [(1,)]


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_affine_span_lists_the_solution_set_in_order(data):
    field = data.draw(st.sampled_from([GF2, GF3]))
    p = field.p
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 8))
    entry = st.integers(0, p - 1)

    def vector(length):
        return data.draw(st.lists(entry, min_size=length, max_size=length))

    m = FieldMatrix.from_rows(field, [vector(cols) for _ in range(rows)])
    base = vector(cols)
    basis = nullspace_basis(m)
    dim = len(basis)
    # the same span from a set that is neither echelon nor independent:
    # a unitriangular mix of the basis in reverse order, plus a dependent vector
    spanning = [combine(field, basis[k], vector(dim - k - 1), basis[k + 1:])
                for k in range(dim)][::-1]
    spanning.append(combine(field, [0] * cols, vector(dim), basis))

    out = list(affine_span(field, base, spanning))
    assert all(a < b for a, b in zip(out, out[1:]))
    assert len(out) == p ** dim
    target = mat_vec(m, base)
    assert all(mat_vec(m, v) == target for v in out)
    if p ** cols <= 729:
        brute = [v for v in product(range(p), repeat=cols) if mat_vec(m, v) == target]
        assert out == sorted(brute)
