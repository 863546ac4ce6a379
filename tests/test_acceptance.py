"""Acceptance gate: one test per numbered criterion, timed where capped.

Each test prints a single summary line so a verbose run reads as a
checklist.  Criterion 7 is split: the shapes with periods prime to 3
check the decomposition round trip, and the (5, 3) sub-case asserts the
obstruction instead, because no r dx + s dy + dh decomposition exists
for that fixture when 3 divides a period; the test checks the cycle-sum
and rank witnesses and that the library refuses the shape.
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from conftest import is_zero, random_solvable_pair, random_solvable_triple, random_weights
from vertexforms.algebra import GF2, GF3, FieldMatrix, rank
from vertexforms.eightvertex import (
    boundary_parity,
    construct_state,
    count_total,
    count_valid_boundaries,
    count_with_boundary,
    defect_map,
    enumerate_eight,
    is_admissible_eight,
)
from vertexforms.forms_rect import (
    antiderivative,
    coloring_from_form,
    count_colorings,
    count_six,
    enumerate_closed,
    enumerate_six,
    exterior_derivative,
    form_from_coloring,
    is_admissible_six,
    is_closed,
    random_closed_form,
    random_proper_coloring,
    state_to_form,
)
from vertexforms.grid import BoundarySpec, GridShape, boundary_of
from vertexforms.toroidal import (
    CohomologyDecomposition,
    PeriodicField,
    ToroidalOneForm,
    decompose,
    enumerate_six_toroidal,
    has_toroidal_boundary,
    is_closed_toroidal,
    reconstruct,
    sparse_fibers,
    state_to_sparse,
    state_to_toroidal_form,
    toroidal_derivatives,
)
from vertexforms.yangbaxter import (
    VertexWeights,
    check_necessary_conditions,
    partition_function,
    residuals28,
    solve_R,
    star_triangle_residuals,
    weights_from_vector,
    yb_commutator,
)


def all_boundaries(shape, field=GF2):
    m, n = shape.m, shape.n
    for bits in product((0, 1), repeat=2 * m + 2 * n):
        yield BoundarySpec(
            shape=shape,
            field=field,
            f_bottom=bits[:m],
            f_top=bits[m : 2 * m],
            g_left=bits[2 * m : 2 * m + n],
            g_right=bits[2 * m + n :],
        )


def test_criterion_01_eight_vertex_total_count():
    start = time.perf_counter()
    for m, n in [(2, 2), (2, 3)]:
        shape = GridShape(m, n)
        states = enumerate_eight(shape)
        assert len(states) == 2 ** (m + n + m * n)
        assert len(states) == count_total(shape)
        # rank-based count: kernel dimension of the defect map
        rk = rank(defect_map(shape))
        assert rk == m * n
        assert 2 ** (shape.edge_count - rk) == len(states)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 1: PASS (256 at (2,2), 2048 at (2,3), {elapsed:.2f}s)")


def test_criterion_02_eight_vertex_boundary_law():
    start = time.perf_counter()
    shape = GridShape(2, 2)
    by_boundary = {}
    for st in enumerate_eight(shape):
        by_boundary.setdefault(boundary_of(st).edge_tuple(), []).append(st)
    even = odd = 0
    for b in all_boundaries(shape):
        fiber = len(by_boundary.get(b.edge_tuple(), []))
        if boundary_parity(b) == 0:
            even += 1
            assert fiber == 2 == 2 ** ((shape.m - 1) * (shape.n - 1))
            assert count_with_boundary(b) == 2
        else:
            odd += 1
            assert fiber == 0
            assert count_with_boundary(b) == 0
    assert even == 128 == 2 ** (2 * shape.m + 2 * shape.n - 1)
    assert even + odd == 256
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 2: PASS (128 even boundaries of 256, fibers 2/0, {elapsed:.2f}s)")


def test_criterion_03_constructive_extension():
    start = time.perf_counter()
    totals = {}
    for m, n in [(2, 2), (3, 2)]:
        shape = GridShape(m, n)
        built = 0
        for b in all_boundaries(shape):
            if boundary_parity(b) != 0:
                continue
            st = construct_state(b)
            assert is_admissible_eight(st)
            assert boundary_of(st) == b
            built += 1
        assert built == count_valid_boundaries(shape)
        totals[(m, n)] = built
    # 2^(2m+2n-1) even boundaries: 128 at (2,2); (3,2) has 512, not 128
    assert totals[(2, 2)] == 128
    assert totals[(3, 2)] == 512
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 3: PASS (extended {totals[(2, 2)]} + {totals[(3, 2)]} boundaries, {elapsed:.2f}s)")


def test_criterion_04_coloring_correspondence():
    start = time.perf_counter()
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        states = count_six(GridShape(m, n))
        colorings = count_colorings(m + 1, n + 1)
        assert 3 * states == colorings
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 4: PASS (3x identity at 4 shapes, {elapsed:.2f}s)")


def test_criterion_05_bijection_inverses():
    shape = GridShape(2, 2)
    # exhaustive, form side
    for st in enumerate_six(shape):
        w = state_to_form(st)
        for t in (0, 1, 2):
            w2, t2 = form_from_coloring(coloring_from_form(w, t))
            assert (t2, w2.fx, w2.gy) == (t, w.fx, w.gy)
    # exhaustive, coloring side
    from vertexforms.forms_rect import Coloring, is_proper

    seen = 0
    for cells in product((0, 1, 2), repeat=9):
        grid = tuple(cells[3 * i : 3 * i + 3] for i in range(3))
        c = Coloring(shape=shape, cells=grid)
        if not is_proper(c):
            continue
        w, t = form_from_coloring(c)
        assert coloring_from_form(w, t) == c
        seen += 1
    assert seen == 246
    # 1000 random instances at (3, 3)
    rng = random.Random(0)
    big = GridShape(3, 3)
    for _ in range(1000):
        c = random_proper_coloring(big, rng)
        w, t = form_from_coloring(c)
        assert coloring_from_form(w, t) == c
        w2, t2 = form_from_coloring(coloring_from_form(w, t))
        assert (t2, w2.fx, w2.gy) == (t, w.fx, w.gy)
    print("criterion 5: PASS (exhaustive at (2,2), 1000 random at (3,3))")


def test_criterion_06_poincare_lemma():
    shape = GridShape(2, 2)
    forms = enumerate_closed(shape)
    assert len(forms) == 3 ** 8
    for w in forms:
        dw = exterior_derivative(antiderivative(w))
        assert (dw.fx, dw.gy) == (w.fx, w.gy)
    rng = random.Random(1)
    big = GridShape(4, 4)
    for _ in range(1000):
        w = random_closed_form(big, rng)
        assert is_closed(w)
        dw = exterior_derivative(antiderivative(w))
        assert (dw.fx, dw.gy) == (w.fx, w.gy)
    print("criterion 6: PASS (6561 exhaustive at (2,2), 1000 random at (4,4))")


def _closed_toroidal_forms_2x2():
    shape = GridShape(2, 2)
    for vals in product((0, 1, 2), repeat=8):
        fx = (vals[0:2], vals[2:4])
        gy = (vals[4:6], vals[6:8])
        w = ToroidalOneForm(shape=shape, fx=fx, gy=gy)
        if is_closed_toroidal(w):
            yield w


def test_criterion_07_toroidal_decomposition_good_periods():
    # exhaustive at (2, 2), with a full uniqueness sweep
    count = 0
    for w in _closed_toroidal_forms_2x2():
        d = decompose(w)
        back = reconstruct(d)
        assert (back.fx, back.gy) == (w.fx, w.gy)
        assert d.h.values[0][0] == 0
        count += 1
    assert count == 243
    shape = GridShape(2, 2)
    for r, s in product((0, 1, 2), repeat=2):
        if (r, s) == (0, 0):
            continue
        for vals in product((0, 1, 2), repeat=4):
            h = PeriodicField(shape=shape, values=(vals[0:2], vals[2:4]))
            dh = toroidal_derivatives(h)
            assert not (
                all(x == r for row in dh.fx for x in row)
                and all(x == s for row in dh.gy for x in row)
            )
    # random round trips at (4, 2) and (2, 4)
    rng = random.Random(2)
    for m, n in [(4, 2), (2, 4)]:
        sh = GridShape(m, n)
        for _ in range(300):
            rows = [[rng.randrange(3) for _ in range(n)] for _ in range(m)]
            rows = [[(x - rows[0][0]) % 3 for x in row] for row in rows]
            d0 = CohomologyDecomposition(
                r=rng.randrange(3), s=rng.randrange(3),
                h=PeriodicField(shape=sh, values=tuple(tuple(r_) for r_ in rows)),
            )
            d1 = decompose(reconstruct(d0))
            assert (d1.r, d1.s, d1.h.values) == (d0.r, d0.s, d0.h.values)
    print("criterion 7 (periods prime to 3): PASS (243 exhaustive, uniqueness sweep, 600 random)")


def test_criterion_07_toroidal_decomposition_5x3_fixture(torus_state):
    # No r dx + s dy + dh decomposition exists for this fixture, so the
    # criterion is checked as a recorded obstruction: the state gives a
    # closed periodic form, exact algebra puts that form outside the span
    # of dx, dy and the exact forms, and the library refuses the shape.
    m, n = torus_state.shape.m, torus_state.shape.n
    assert (m, n) == (5, 3)
    assert is_admissible_six(torus_state)
    assert has_toroidal_boundary(torus_state)
    # fundamental-domain form from the edges; ToroidalOneForm refuses (5, 3)
    fx = [[torus_state.f_at(i, j) for j in range(1, n + 1)] for i in range(1, m + 1)]
    gy = [[torus_state.g_at(i, j) for j in range(1, n + 1)] for i in range(1, m + 1)]
    for i in range(m):
        for j in range(n):
            assert (fx[i][(j + 1) % n] - fx[i][j]) % 3 == (gy[(i + 1) % m][j] - gy[i][j]) % 3
    # around the period-3 cycle, r dx + s dy + dh sums to 3s + 0 = 0
    assert [sum(row) % 3 for row in gy] == [1] * m
    # A maps (r, s, h) to r dx + s dy + dh; w is not in its image
    def h_col(i, j):
        return 2 + (i % m) * n + j % n

    rows = []
    for col, (di, dj) in ((0, (1, 0)), (1, (0, 1))):
        for i in range(m):
            for j in range(n):
                row = [0] * (2 + m * n)
                row[col] = 1
                row[h_col(i + di, j + dj)] += 1
                row[h_col(i, j)] -= 1
                rows.append(row)
    w = [x for row in fx + gy for x in row]
    rank_a = rank(FieldMatrix.from_rows(GF3, rows))
    rank_aw = rank(FieldMatrix.from_rows(GF3, [row + [x] for row, x in zip(rows, w)]))
    assert (rank_a, rank_aw) == (15, 16)
    with pytest.raises(ValueError, match=r"\(5, 3\).*divisible by 3"):
        state_to_toroidal_form(torus_state)
    print(
        "criterion 7 at (5,3): PASS (obstruction: gy sums to 1 around the "
        f"period-3 cycle in all {m} rows; rank A = {rank_a} < rank [A | w] = "
        f"{rank_aw} over F3; library refuses the shape)"
    )


def test_criterion_08_sparse_fiber_report():
    shape = GridShape(2, 2)
    entries = sparse_fibers(shape)
    states = enumerate_six_toroidal(shape)
    assert sum(e.fiber_size for e in entries) == len(states) == 18
    seen = set()
    for e in entries:
        for st in e.states:
            key = st.edge_tuple()
            assert key not in seen
            seen.add(key)
            assert state_to_sparse(st).values == e.h.values
    assert len(seen) == 18
    flat = next(
        e for e in entries if all(x == 0 for row in e.h.values for x in row)
    )
    assert flat.fiber_size == 4
    # recorded finding: the trivial potential carries 4 states, the
    # shifts (r, s) in {0, 1} x {0, 1}, not a single canonical one
    print(
        "criterion 8: PASS (11 fibers partition 18 states; h = 0 fiber size "
        f"{flat.fiber_size} with shifts {flat.r_choices} x {flat.s_choices})"
    )


def test_criterion_09_ybe_equivalences():
    start = time.perf_counter()
    rng = random.Random(3)
    triples = [tuple(random_weights(rng) for _ in range(3)) for _ in range(200)]
    solver_made = 0
    pair_rng = random.Random(4)
    for _ in range(6):
        s, t = random_solvable_pair(pair_rng)
        rep = solve_R(s, t)
        for vec in rep.basis:
            triples.append((weights_from_vector(vec), s, t))
            solver_made += 1
        if rep.witness is not None:
            triples.append((rep.witness, s, t))
            solver_made += 1
    triples.append(random_solvable_triple(pair_rng))
    solver_made += 1
    zero = nonzero = 0
    for r, s, t in triples:
        flat = is_zero(yb_commutator(r, s, t))
        all64 = all(x == 0 for x in star_triangle_residuals(r, s, t))
        all28 = all(x == 0 for x in residuals28(r, s, t))
        assert flat == all64 == all28
        if flat:
            zero += 1
        else:
            nonzero += 1
    assert zero >= solver_made  # every solver output satisfies the equation
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"criterion 9: PASS ({len(triples)} triples, {zero} solving / "
        f"{nonzero} not, 3-way equivalence, {elapsed:.2f}s)"
    )


def test_criterion_10_necessary_conditions_sound():
    rng = random.Random(5)
    confirmed = 0
    for _ in range(50):
        s, t = random_solvable_pair(rng)
        rep = solve_R(s, t)
        assert rep.witness is not None
        w = rep.witness
        assert all(x != 0 for x in (w.c1, w.c_neg1, w.d1, w.d_neg1))
        assert is_zero(yb_commutator(w, s, t))
        report = check_necessary_conditions(s, t)
        assert report.conditions == (True,) * 5
        confirmed += 1
    assert confirmed == 50
    print("criterion 10: PASS (50 solvable pairs, all five conditions true each time)")


def test_criterion_11_partition_function_consistency():
    six_unit = VertexWeights(1, 1, 1, 1, 1, 1, 0, 0)
    eight_unit = weights_from_vector((1,) * 8)
    for m, n in [(2, 2), (2, 3)]:
        shape = GridShape(m, n)
        assert partition_function(six_unit, shape, "six") == count_six(shape)
        assert partition_function(eight_unit, shape, "eight") == count_total(shape)
    # fixed boundaries, eight-vertex: every boundary at (2, 2)
    shape = GridShape(2, 2)
    for b in all_boundaries(shape):
        z = partition_function(eight_unit, shape, "eight", boundary=b)
        assert z == count_with_boundary(b)
    # fixed boundaries, six-vertex: boundaries realized by actual states
    states = enumerate_six(shape)
    fibers = {}
    for st in states:
        fibers.setdefault(boundary_of(st), 0)
        fibers[boundary_of(st)] += 1
    sample = list(fibers)[:: max(1, len(fibers) // 8)]
    for b in sample:
        z = partition_function(six_unit, shape, "six", boundary=b)
        assert z == fibers[b]
    # and one six-vertex boundary with no states at all
    empty = BoundarySpec(
        shape=shape, field=GF3,
        f_bottom=(1, 0), f_top=(0, 0), g_left=(0, 0), g_right=(0, 0),
    )
    if empty not in fibers:
        assert partition_function(six_unit, shape, "six", boundary=empty) == 0
    print("criterion 11: PASS (unit-weight Z equals counts, free and fixed)")
