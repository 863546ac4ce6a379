"""The random samplers behind the random verify modes.

random_closed_forms (verify poincare), toroidal._random_decompositions
(verify cohomology) and random_proper_coloring (verify bijection) each
make one integer rng.randrange per column of values and read it as
digits.  These tests replay every draw of small shapes to check that
the closed-form and cohomology draws map one to one onto what they
sample, and that a coloring's cells follow the law of a uniform choice
cell by cell; a counting random.Random checks that each sampler makes
exactly one randrange per column and no other draw.
"""

import random
from collections import Counter
from itertools import product
from math import prod

import pytest

from conftest import ReplayRandom
from vertexforms.forms_rect import _f3_digits, random_closed_forms, random_proper_coloring
from vertexforms.grid import GridShape, SizeGuardError
from vertexforms.toroidal import (
    CohomologyDecomposition,
    PeriodicField,
    _random_decompositions,
    decompose,
    reconstruct,
)


def test_f3_digits_are_one_to_one_exhaustively():
    for k in range(1, 9):
        digits = [_f3_digits(x, k) for x in range(3 ** k)]
        assert all(len(d) == k and set(d) <= {0, 1, 2} for d in digits)
        assert len(set(digits)) == 3 ** k


@pytest.mark.parametrize("k", [9, 10, 11])
def test_f3_digits_are_one_to_one_on_a_sample(k):
    rng = random.Random(k)
    top = 3 ** k
    # the ends, both sides of each five-digit chunk, and random values
    xs = {x for x in (0, 1, 242, 243, 244, 243 ** 2 - 1, 243 ** 2, top - 243, top - 1)
          if x < top}
    xs |= {rng.randrange(top) for _ in range(3000)}
    digits = {_f3_digits(x, k) for x in xs}
    assert all(len(d) == k and set(d) <= {0, 1, 2} for d in digits)
    assert len(digits) == len(xs)


def f3_digits_by_divmod(x, k):
    """The oracle: k divmods by 3, low digit first, in _f3_digits' order,
    five-digit chunks from the low end, each chunk high digit first."""
    low_first = []
    for _ in range(k):
        x, d = divmod(x, 3)
        low_first.append(d)
    return tuple(d for i in range(0, k, 5) for d in reversed(low_first[i:i + 5]))


# short columns, both sides of the 60-digit cut, splits whose high part
# is a partial chunk, and long columns that split several times
@pytest.mark.parametrize("k", [*range(1, 12), 39, 40, 41, 59, 60, 61, 62, 65, 66, 99, 100,
                               101, 125, 249, 250, 1000, 2999, 3000])
def test_f3_digits_are_the_base_3_digits(k):
    rng = random.Random(k)
    top, split = 3 ** k, 3 ** (5 * (k // 10))
    xs = {0, 1, top - 1, split - 1, split, top - split} | {rng.randrange(top) for _ in range(20)}
    for x in xs:
        if 0 <= x < top:
            assert _f3_digits(x, k) == f3_digits_by_divmod(x, k)


@pytest.mark.parametrize("draw", [
    lambda shape, rng: random_closed_forms(shape, rng, 1),
    lambda shape, rng: next(_random_decompositions(shape, rng, 1)),
], ids=["closed-forms", "decompositions"])
def test_a_sampler_refuses_a_shape_one_form_of_which_passes_the_guard(draw):
    # 10001 x 10001, prime to 3: a form holds 2 * 10001 * 10002 values,
    # charged 2^28 before any draw
    rng = ReplayRandom(iter(()), ())
    with pytest.raises(SizeGuardError, match="^cost of 2\\^28 exceeds"):
        draw(GridShape(10001, 10001), rng)
    assert len(random_closed_forms(GridShape(2, 2), random.Random(0), 3)) == 3


def test_random_decompositions_map_the_draws_onto_the_triples():
    # at 2x2: (r, s) below 9, h's first column below 3 (after h(1, 1) = 0)
    # and its second below 9; all 243 draw triples in turn must give each
    # (r, s, h) with h(1, 1) = 0 once
    shape = GridShape(2, 2)
    draws = list(product(range(9), range(3), range(9)))
    rng = ReplayRandom((x for t in draws for x in t), (9, 3, 9))
    triples = list(_random_decompositions(shape, rng, len(draws)))
    assert next(rng.draws, None) is None
    assert len(set(triples)) == len(triples) == 3 ** 5
    assert set(triples) == {(r, s, ((0, a), (b, c)))
                            for r, s, a, b, c in product(range(3), repeat=5)}
    for r, s, values in triples:
        d = CohomologyDecomposition(r=r, s=s, h=PeriodicField(shape=shape, values=values))
        assert decompose(reconstruct(d)) == d


def replayed_colorings(shape, first_rows, later):
    """The colorings of shape from each first-row draw in turn, with the
    draw `later` for every later row."""
    stop = 6 ** (shape.m + 1)
    draws = [x for d in first_rows for x in (d, *[later] * shape.n)]
    rng = ReplayRandom(draws, (stop,))
    return [random_proper_coloring(shape, rng) for _ in first_rows]


def test_random_proper_coloring_first_row_is_uniform():
    # a first row of 3 cells: all 216 draws give each of its 12 proper
    # labelings 18 times
    colorings = replayed_colorings(GridShape(2, 2), range(216), 0)
    rows = Counter(tuple(col[0] for col in c.cells) for c in colorings)
    assert len(rows) == 12
    assert set(rows.values()) == {18}


def choices(below, left) -> int:
    """How many labels differ from both neighbours; None is no neighbour."""
    return sum(1 for c in range(3) if c not in (below, left))


def test_random_proper_coloring_second_row_follows_the_cell_by_cell_law():
    # above a fixed first row, each second row must come from the 216
    # draws as often as a uniform choice cell by cell would pick it:
    # 216 over the product of each cell's number of choices
    shape = GridShape(2, 2)
    stop = 216
    for first in range(0, stop, 17):
        rng = ReplayRandom((x for d in range(stop) for x in (first, d, 0)), (stop,))
        seen = Counter()
        for _ in range(stop):
            cells = random_proper_coloring(shape, rng).cells
            seen[tuple(col[1] for col in cells)] += 1
        below = tuple(col[0] for col in cells)
        expected = {}
        for row in product(range(3), repeat=3):
            lefts = (None,) + row[:-1]
            if all(x not in (b, left) for x, b, left in zip(row, below, lefts)):
                expected[row] = stop // prod(map(choices, below, lefts))
        assert seen == expected


class CountingRandom(random.Random):
    """A seeded random.Random that records every draw made of it:
    ("randrange", *args) for each randrange call, and the method's name
    for any other draw."""

    def __init__(self, seed):
        self.calls = []
        self._inside = False
        super().__init__(seed)

    def randrange(self, *args):
        self.calls.append(("randrange", *args))
        self._inside = True
        try:
            return super().randrange(*args)
        finally:
            self._inside = False

    # defined here, getrandbits keeps randrange's _randbelow on it
    def getrandbits(self, k):
        if not self._inside:
            self.calls.append(("getrandbits",))
        return super().getrandbits(k)

    def random(self):
        self.calls.append(("random",))
        return super().random()

    def choice(self, seq):
        self.calls.append(("choice",))
        return super().choice(seq)

    def choices(self, *args, **kwargs):
        self.calls.append(("choices",))
        return super().choices(*args, **kwargs)

    def sample(self, *args, **kwargs):
        self.calls.append(("sample",))
        return super().sample(*args, **kwargs)

    def shuffle(self, x):
        self.calls.append(("shuffle",))
        return super().shuffle(x)


def test_counting_random_records_other_draws():
    rng = CountingRandom(0)
    rng.randrange(5)
    rng.choice([1, 2])
    rng.uniform(0, 1)
    rng.randint(1, 3)
    rng.getrandbits(4)
    rng.choices([1, 2], k=2)
    assert rng.calls[0] == ("randrange", 5)
    assert {c[0] for c in rng.calls[1:]} == {"choice", "random", "randrange",
                                             "getrandbits", "choices"}
    assert ("randrange", 1, 4) in rng.calls


SHAPES = [(2, 2), (2, 7), (7, 2), (4, 11), (5, 4), (8, 7)]


@pytest.mark.parametrize("m,n", SHAPES)
def test_random_closed_forms_draw_once_per_column(m, n):
    rng = CountingRandom(m * n)
    random_closed_forms(GridShape(m, n), rng, 3)
    form = [("randrange", 3 ** n)] + [("randrange", 3 ** (n + 1))] * m
    assert rng.calls == form * 3


@pytest.mark.parametrize("m,n", [s for s in SHAPES if s[0] % 3 and s[1] % 3])
def test_random_decompositions_draw_once_per_column(m, n):
    rng = CountingRandom(m * n)
    list(_random_decompositions(GridShape(m, n), rng, 3))
    sample = [("randrange", 9), ("randrange", 3 ** (n - 1))] + [("randrange", 3 ** n)] * (m - 1)
    assert rng.calls == sample * 3


@pytest.mark.parametrize("m,n", SHAPES)
def test_random_proper_coloring_draws_once_per_row(m, n):
    rng = CountingRandom(m * n)
    for _ in range(3):
        random_proper_coloring(GridShape(m, n), rng)
    assert rng.calls == [("randrange", 6 ** (m + 1))] * (n + 1) * 3
