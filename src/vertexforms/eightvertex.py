"""F2-linear structure of the eight-vertex model.

Eight-vertex admissibility asks only that the four edge values at each
vertex have even sum, so the admissible states are exactly the kernel
of a per-vertex parity map on the F2 edge space.  That map is the
rectangle's closedness rule right - left = top - bottom mod 2: grid's
vertex incidence matrix, which defect_map returns as a FieldMatrix over
F2, as forms_rect's closedness_matrix returns it over F3; a state's
per-vertex parities are that matrix times its edge vector.  The counts lean
on that linearity: total and fixed-boundary counts are rank-nullity's
closed forms, and a state extending a given boundary is written down in
closed form.
Enumeration walks the same parity rule, read as right = left + top +
bottom mod 2, column by column (transfer.state_tables).
"""

from __future__ import annotations

from .algebra import GF2, FieldMatrix
from .grid import (
    BoundarySpec,
    GridShape,
    InputError,
    LatticeState,
    _vertex_incidence,
    check_boundary,
    guard_cost,
)
from .transfer import EIGHT_VERTEX, first_bad_vertex, state_tables


def defect_map(shape: GridShape) -> FieldMatrix:
    """The per-vertex parity map, mn x edge_count over F2: grid's vertex
    incidence matrix, where -1 is 1.

    Row (i - 1) n + (j - 1) has 1-entries at exactly the four incident
    edges f[i][j], f[i][j+1], g[i][j], g[i+1][j]; a state is admissible
    iff its edge vector lies in the kernel.
    """
    return _vertex_incidence(shape, GF2)


def _require_binary(values) -> None:
    if any(x not in (0, 1) for x in values):
        raise InputError("eight-vertex parity is defined for edge values in {0, 1} only")


def is_admissible_eight(state: LatticeState) -> bool:
    """True iff every interior vertex has an even edge sum: an EIGHT_VERTEX pattern."""
    _require_binary(state.edge_tuple())
    return first_bad_vertex(EIGHT_VERTEX, state.f, state.g) is None


def count_total(shape: GridShape, force: bool = False) -> int:
    """Number of admissible states, 2^(m + n + mn), in closed form: the
    defect map has rank mn, which verify defect-rank checks, so its
    kernel has dimension edge_count - mn = m + n + mn.  The guard is
    charged the exponent, the bits the power takes to build."""
    exponent = shape.m + shape.n + shape.m * shape.n
    guard_cost(exponent, force)
    return 2 ** exponent


def boundary_parity(b: BoundarySpec) -> int:
    """Total parity of the 2m + 2n boundary values.

    Admissible extensions exist iff this is 0: summing the vertex
    parity conditions cancels every interior edge twice.
    """
    values = b.edge_tuple()
    _require_binary(values)
    return sum(values) % 2


def construct_state(b: BoundarySpec) -> LatticeState:
    """Closed-form admissible state extending an even-parity boundary.

    Interior horizontal edges vanish except along the bottom row, where
    each accumulates the parity of all boundary data strictly to its
    left plus the left side.  Interior vertical edges copy the top
    boundary straight down, except in the first and last columns, which
    absorb the left and right sides from the top.  Raises ValueError on
    an odd-parity boundary, which admits no extension at all.
    """
    if b.field is not GF2:
        raise ValueError("construct_state expects an F2 boundary")
    if boundary_parity(b) != 0:
        raise ValueError("no admissible extension exists: boundary parity is odd")
    m, n = b.shape.m, b.shape.n
    fb, ft, gl, gr = b.f_bottom, b.f_top, b.g_left, b.g_right

    f = [[0] * (n + 1) for _ in range(m)]
    g = [[0] * n for _ in range(m + 1)]
    for i in range(m):
        f[i][0] = fb[i]
        f[i][n] = ft[i]
    for j in range(n):
        g[0][j] = gl[j]
        g[m][j] = gr[j]

    for i in range(2, m + 1):  # bottom-row interior horizontals
        g[i - 1][0] = (sum(gl) + sum(fb[a] + ft[a] for a in range(i - 1))) % 2
    for i in range(2, m):  # middle columns copy the top value down
        for j in range(2, n + 1):
            f[i - 1][j - 1] = ft[i - 1]
    for j in range(2, n + 1):  # first and last columns absorb the sides
        f[0][j - 1] = (ft[0] + sum(gl[j - 1 :])) % 2
        f[m - 1][j - 1] = (ft[m - 1] + sum(gr[j - 1 :])) % 2

    state = LatticeState(shape=b.shape, field=GF2, f=f, g=g)
    if not is_admissible_eight(state):
        raise RuntimeError("internal error: constructed state fails the parity check")
    return state


def count_with_boundary(b: BoundarySpec) -> int:
    """Number of admissible states with the given boundary.

    2^((m-1)(n-1)) when the boundary parity is even, zero otherwise;
    beyond the parity the count does not depend on the boundary values.
    """
    if boundary_parity(b) != 0:
        return 0
    return 2 ** ((b.shape.m - 1) * (b.shape.n - 1))


def count_valid_boundaries(shape: GridShape) -> int:
    """Number of boundaries admitting an extension: half of all of them."""
    return 2 ** (2 * shape.m + 2 * shape.n - 1)


def eight_state_tables(shape: GridShape, boundary: BoundarySpec | None = None,
                       force: bool = False):
    """The (f, g) tables of all admissible states, optionally with a fixed
    boundary, by edge_tuple.

    Checks the boundary and charges the guard when called, before any
    table is built, then returns transfer.state_tables' iterator: it
    walks the eight-vertex table, where each vertex's right edge is the
    parity of its other three, so the states come out in edge_tuple
    order with no sort.  An odd-parity boundary yields nothing, without
    a walk.  The guard charges states times edge_count, which bounds
    the walk: every top bit it tries before the last column extends to
    a state, and in the last column the pinned right edge leaves one top
    bit per vertex.
    """
    check_boundary(boundary, shape, GF2)
    states = count_total(shape, force) if boundary is None else count_with_boundary(boundary)
    guard_cost(states * shape.edge_count, force)
    return state_tables(EIGHT_VERTEX, shape, boundary) if states else iter(())


def enumerate_eight(shape: GridShape, boundary: BoundarySpec | None = None,
                    force: bool = False) -> list:
    """All admissible states, optionally with a fixed boundary, in the
    order and under the guard of eight_state_tables."""
    return [LatticeState.trusted(shape=shape, field=GF2, f=f, g=g)
            for f, g in eight_state_tables(shape, boundary, force)]
