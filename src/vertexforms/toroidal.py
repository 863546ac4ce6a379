"""Doubly periodic forms, cohomology decomposition, and sparse potentials.

Functions and forms here live on a torus with periods (m, n): values are
stored on the fundamental domain, m columns of n entries, and the
calculus reads past its edge by repeating the first column after the
last and each column's first entry on top.  The decomposition
machinery requires that neither period is divisible by 3; without
that, dx or dy becomes exact and the decomposition below loses both
existence and uniqueness, so the types, decompose and everything built
on it reject such shapes outright.  Counting and listing the toroidal
six-vertex states divide by nothing and take any periods: they are
forms_rect's count_six and enumerate_six on grid.TORUS.

Every closed toroidal 1-form w then splits uniquely as

    w = r dx + s dy + dh,   h doubly periodic, h[1][1] = 0,

with r the average of fx over a row of the fundamental domain and s the
average of gy over a column.  Apply the construction to an admissible
toroidal six-vertex state and the resulting h is "sparse": neither of
its partial derivatives attains every F3 value.

The calculus is the rectangle's (forms_rect), a column at a time
through its bounded column memos: toroidal_derivatives and reconstruct
take its column differences with the first column and row repeated
(_wrapped_differences), r and s added as the kernels' offsets, and
decompose's table core (_decompose_tables) integrates fx - r and
gy - s with the bottom-then-up potential.  decompose checks closedness
by the calculus too: it refuses a form that r dx + s dy + dh does not
give back.  is_closed_toroidal is the same check on the vertex table,
CLOSED_F3.  verify cohomology runs the two table functions itself and
builds no record: the exhaustive mode splits each form the walk lists,
the random mode takes the differences of each triple (r, s, h) its
sampler draws here, one rng.randrange per column read as base-3 digits
(_random_decompositions), and splits them again.
"""

from __future__ import annotations

from itertools import repeat

from .forms_rect import (
    _f3_digits,
    _potential,
    _rise,
    _step,
    enumerate_six,
    is_admissible_six,
    six_state_tables,
)
from .grid import (
    TORUS,
    GridShape,
    InputError,
    LatticeState,
    _freeze_grid,
    _guard_sample,
    guard_power,
)
from .algebra import GF3, Record, _trusted
from .transfer import CLOSED_F3, first_bad_vertex, state_tables

_INV3 = {1: 1, 2: 2}


def check_periods(shape: GridShape) -> None:
    """Refuse a toroidal shape with a period divisible by 3."""
    if shape.m % 3 == 0 or shape.n % 3 == 0:
        raise InputError(
            f"toroidal shape ({shape.m}, {shape.n}) rejected: periods divisible "
            "by 3 break the cohomology decomposition (dx or dy becomes exact)"
        )


class PeriodicField(Record):
    """Doubly periodic F3 function given by its fundamental-domain values."""

    shape: GridShape
    values: tuple

    def __post_init__(self):
        check_periods(self.shape)
        object.__setattr__(
            self, "values",
            _freeze_grid(self.values, self.shape.m, self.shape.n, GF3, "values"),
        )

    trusted = _trusted  # on a shape whose periods were checked


class ToroidalOneForm(Record):
    """Doubly periodic 1-form, fx and gy both on the m x n fundamental domain."""

    shape: GridShape
    fx: tuple
    gy: tuple

    def __post_init__(self):
        check_periods(self.shape)
        m, n = self.shape.m, self.shape.n
        object.__setattr__(self, "fx", _freeze_grid(self.fx, m, n, GF3, "fx"))
        object.__setattr__(self, "gy", _freeze_grid(self.gy, m, n, GF3, "gy"))

    trusted = _trusted  # on a shape whose periods were checked


class CohomologyDecomposition(Record):
    """w = r dx + s dy + dh with h normalized to vanish at (1, 1)."""

    r: int
    s: int
    h: PeriodicField


def _wrapped_differences(values: tuple, r: int = 0, s: int = 0) -> tuple:
    """(D_x h + r, D_y h + s) of a periodic table of columns: the
    rectangle's column kernels on each column and the next, the first
    following the last, and up each column with its first entry
    repeated on top, so the differences wrap around."""
    return (tuple(map(_step, values, values[1:] + values[:1], repeat(r))),
            tuple(map(_rise, [col + col[:1] for col in values], repeat(s))))


def toroidal_derivatives(h: PeriodicField) -> ToroidalOneForm:
    """d(h) as a toroidal form."""
    fx, gy = _wrapped_differences(h.values)
    return ToroidalOneForm.trusted(shape=h.shape, fx=fx, gy=gy)


def is_closed_toroidal(w: ToroidalOneForm) -> bool:
    """D_y fx = D_x gy at every vertex of the fundamental domain (with wrap):
    the rectangle check on tables that repeat fx's and gy's first entries."""
    return first_bad_vertex(CLOSED_F3, [r + r[:1] for r in w.fx], w.gy + w.gy[:1]) is None


def _domain_tables(n: int, f: tuple, g: tuple) -> tuple:
    """The fundamental-domain (fx, gy) of a toroidal walk's tables, whose
    last f entries and last g column repeat the first ones: those dropped."""
    return tuple(col[:n] for col in f), g[:-1]


def closed_toroidal_tables(shape: GridShape, force: bool = False):
    """The fundamental-domain (fx, gy) tables of all closed toroidal
    1-forms, in (fx, gy) order as closed_form_tables lists the rectangle's.

    Checks the periods and charges the guard, forms times edge_count,
    when called, before any table is built, then returns an iterator
    over the TORUS walk of transfer.state_tables on CLOSED_F3, with
    the repeated last f entries and g column dropped: they repeat
    earlier ones, so the 3^(mn + 1) forms stay in order.
    """
    check_periods(shape)
    guard_power(3, shape.m * shape.n + 1, shape.edge_count, force)
    return (_domain_tables(shape.n, f, g)
            for f, g in state_tables(CLOSED_F3, shape, TORUS))


def enumerate_closed_toroidal(shape: GridShape, force: bool = False) -> list[ToroidalOneForm]:
    """All closed toroidal 1-forms, in the order and under the guard of
    closed_toroidal_tables."""
    return [ToroidalOneForm.trusted(shape=shape, fx=fx, gy=gy)
            for fx, gy in closed_toroidal_tables(shape, force)]


def _decompose_tables(m: int, n: int, fx: tuple, gy: tuple) -> tuple:
    """(r, s, values) of a toroidal form's fundamental-domain tables, its
    periods (m, n) prime to 3: r is (1/m) times fx's bottom row sum, s is
    (1/n) times gy's first column sum, and values is the rectangle's
    potential of fx - r and gy - s.  Checks nothing: on a closed form
    these are its decomposition, on any other they are not."""
    r = (_INV3[m % 3] * sum(col[0] for col in fx)) % 3
    s = (_INV3[n % 3] * sum(gy[0])) % 3
    # gy's last entry only closes each column: n values of h per column
    return r, s, _potential(fx, [col[:-1] for col in gy], -r, -s)


def decompose(w: ToroidalOneForm) -> CohomologyDecomposition:
    """Split a closed toroidal form as r dx + s dy + dh.

    r is (1/m) times a row sum of fx, s is (1/n) times a column sum of
    gy, and h is the rectangle's potential of the residuals fx - r and
    gy - s, summed along a bottom-then-up path and cut to the
    fundamental domain (_decompose_tables):

        h[i][j] = sum_{a<i} (fx[a][1] - r) + sum_{b<j} (gy[i][b] - s).

    The divisions are exact because the periods are prime to 3, which
    is checked again here: a trusted form skips the type's check.
    Requires the form to be closed, and checks it by the calculus, not
    the vertex table: every r dx + s dy + dh is closed, and a closed w
    is the one its own r, s and h make, so w is closed exactly when
    reconstruct would give it back.  On a form reconstruct has just
    built, those kernel calls are its own, memo hits.  On the
    differences of a drawn triple, as in the random mode of verify
    cohomology, the check passes whenever the core gives that triple
    back, so that mode runs the core alone.
    """
    check_periods(w.shape)
    r, s, values = _decompose_tables(w.shape.m, w.shape.n, w.fx, w.gy)
    if _wrapped_differences(values, r, s) != (w.fx, w.gy):
        raise ValueError("decompose requires a closed toroidal form")
    h = PeriodicField.trusted(shape=w.shape, values=values)
    return CohomologyDecomposition(r=r, s=s, h=h)


def reconstruct(d: CohomologyDecomposition) -> ToroidalOneForm:
    """The form r dx + s dy + dh determined by a decomposition."""
    fx, gy = _wrapped_differences(d.h.values, d.r, d.s)
    return ToroidalOneForm.trusted(shape=d.h.shape, fx=fx, gy=gy)


def _random_decompositions(shape: GridShape, rng, k: int):
    """k uniformly random decompositions, as (r, s, values) tables with
    values[0][0] = 0, for the random mode of verify cohomology, one at
    a time.

    Each takes one rng.randrange per column: (r, s) are the two base-3
    digits of a draw below 9, h's first column is 0 and then the n - 1
    digits of a draw below 3^(n - 1), and each of its other m - 1
    columns the n digits of one below 3^n.  So the m + 1 draws map one
    to one onto the 3^(mn + 1) triples.  Checks the periods first, then
    refuses, with no force, a shape where one form of edge_count values
    alone passes the guard, as random_closed_forms does.
    """
    check_periods(shape)
    _guard_sample(shape.edge_count)
    m, n = shape.m, shape.n
    first, column = 3 ** (n - 1), 3 ** n
    for _ in range(k):
        r, s = _f3_digits(rng.randrange(9), 2)
        values = [(0,) + _f3_digits(rng.randrange(first), n - 1)]
        values += [_f3_digits(rng.randrange(column), n) for _ in range(m - 1)]
        yield r, s, tuple(values)


def partial_images(h: PeriodicField) -> tuple:
    """(set of D_x h values, set of D_y h values) over the fundamental domain."""
    dh = toroidal_derivatives(h)
    return (
        {x for row in dh.fx for x in row},
        {x for row in dh.gy for x in row},
    )


def is_sparse(h: PeriodicField) -> bool:
    """Neither partial derivative is surjective onto F3, and h[1][1] = 0."""
    if h.values[0][0] != 0:
        return False
    im_x, im_y = partial_images(h)
    return len(im_x) < 3 and len(im_y) < 3


def has_toroidal_boundary(state: LatticeState) -> bool:
    """Left/right g columns agree and bottom/top f rows agree."""
    return state.g[0] == state.g[-1] and all(col[0] == col[-1] for col in state.f)


def state_to_toroidal_form(state: LatticeState) -> ToroidalOneForm:
    """Fundamental-domain form of an admissible state with toroidal boundary."""
    if not has_toroidal_boundary(state):
        raise ValueError("state does not satisfy toroidal boundary conditions")
    if not is_admissible_six(state):
        raise ValueError("state is not admissible")
    n = state.shape.n
    return ToroidalOneForm(shape=state.shape, fx=[col[:n] for col in state.f], gy=state.g[:-1])


def state_to_sparse(state: LatticeState) -> PeriodicField:
    """The sparse potential of an admissible toroidal six-vertex state.

    Extends the state periodically, decomposes the resulting closed
    form, and returns the normalized h, which is always sparse: the
    partial derivative images are the {0, 1}-valued state shifted by
    -r and -s, so each misses a value of F3.
    """
    w = state_to_toroidal_form(state)
    return decompose(w).h


def enumerate_six_toroidal(shape: GridShape, force: bool = False) -> list[LatticeState]:
    """All admissible six-vertex states with toroidal boundary conditions:
    enumerate_six on TORUS.  Any periods are taken."""
    return enumerate_six(shape, TORUS, force)


class FiberEntry(Record):
    """One sparse potential with the admissible states mapping onto it."""

    h: PeriodicField
    states: tuple
    r_choices: tuple
    s_choices: tuple

    @property
    def fiber_size(self) -> int:
        return len(self.states)


def admissible_shifts(h: PeriodicField) -> tuple:
    """(r choices, s choices) keeping r + D_x h and s + D_y h inside {0, 1}.

    A shift r is admissible exactly when 2 - r is outside the image of
    D_x h, and likewise for s with D_y h.
    """
    im_x, im_y = partial_images(h)
    r_choices = tuple(r for r in (0, 1, 2) if (2 - r) % 3 not in im_x)
    s_choices = tuple(s for s in (0, 1, 2) if (2 - s) % 3 not in im_y)
    return r_choices, s_choices


def sparse_fibers(shape: GridShape, force: bool = False) -> list[FiberEntry]:
    """Group all admissible toroidal states by their sparse potential.

    Entries are sorted by the potential's value table.  Each entry also
    carries the admissible (r, s) shift choices for its potential; the
    fiber is exactly {r dx + s dy + dh} over those choices, so its size
    is the product of the two choice counts.  The states come from
    six_state_tables on TORUS, so each is admissible with toroidal boundary
    and its form, the fundamental domain of its tables, needs no check.
    Periods divisible by 3 are refused before the walk starts.
    """
    check_periods(shape)
    groups: dict = {}
    for f, g in six_state_tables(shape, TORUS, force):
        fx, gy = _domain_tables(shape.n, f, g)
        h = decompose(ToroidalOneForm.trusted(shape=shape, fx=fx, gy=gy)).h
        state = LatticeState.trusted(shape=shape, field=GF3, f=f, g=g)
        groups.setdefault(h.values, []).append(state)
    entries = []
    for values in sorted(groups):
        h = PeriodicField.trusted(shape=shape, values=values)
        r_choices, s_choices = admissible_shifts(h)
        entries.append(
            FiberEntry(
                h=h,
                states=tuple(groups[values]),
                r_choices=r_choices,
                s_choices=s_choices,
            )
        )
    return entries
