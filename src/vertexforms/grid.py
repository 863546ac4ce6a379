"""Rectangular lattice states and their boundaries.

A lattice with m columns and n rows of interior vertices carries two
families of edge labels:

* ``f[i][j]`` for i in [1, m], j in [1, n+1]: the vertical edge in
  column i at height j (j = 1 is the bottom boundary, j = n+1 the top).
* ``g[i][j]`` for i in [1, m+1], j in [1, n]: the horizontal edge in
  row j at position i (i = 1 is the left boundary, i = m+1 the right).

Vertex (i, j) sits in column i, row j, counted from the bottom left.
Its four incident edges, in (left, top, right, bottom) order, are
g[i][j], f[i][j+1], g[i+1][j], f[i][j].

All indices are 1-based in this documentation and in the JSON format;
internal tuples are stored 0-based.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Sequence

from .algebra import GF2, GF3, Field, FieldMatrix, Record, _trusted

_FIELD_NAMES = {"F2": GF2, "F3": GF3}

SIZE_GUARD_BITS = 26


# The CLI reports InputError and SizeGuardError as exit 2, and nothing
# else: a bare ValueError is a fault in the program.  The subclasses
# live here so that the CLI maps them without importing yangbaxter.
class InputError(ValueError):
    """Raised when input from outside the program is refused: a shape,
    a boundary, periods, a document or a value the library does not take."""


class StateFormatError(InputError):
    """Raised when a serialized state or boundary fails to parse."""


class SizeGuardError(RuntimeError):
    """Raised when an operation's charge exceeds the desk-scale guard."""


class WeightFormatError(InputError):
    """Raised when serialized weights fail to parse."""


class WeightConditionError(InputError):
    """Raised when weights break a precondition of the computation asked for."""


class _NotClosedError(ValueError):
    """Raised when forms_rect.antiderivative or toroidal.decompose is
    given a form that is not closed.  A verify suite makes its forms
    closed, so there it is a fault, which that suite reports as its
    counterexample: it catches this class, never a bare ValueError."""


def guard_size(log2_count: int, force: bool = False) -> None:
    """Refuse operations charged more than 2^SIZE_GUARD_BITS unless forced."""
    if log2_count > SIZE_GUARD_BITS and not force:
        raise SizeGuardError(
            f"cost of 2^{log2_count} exceeds the 2^{SIZE_GUARD_BITS} guard; "
            "pass force=True (CLI: --force) to override"
        )


def guard_cost(units: int, force: bool = False) -> None:
    """guard_size at ceil(log2(units)): dict updates, or edge values listed."""
    guard_size(max(units - 1, 0).bit_length(), force)


def guard_power(base: int, exponent: int, units: int, force: bool = False) -> None:
    """guard_cost(base ** exponent * units), with the exponent charged
    first: a power takes time and memory in its exponent to build, so
    one whose exponent alone passes the guard is refused unbuilt."""
    guard_cost(exponent, force)
    guard_cost(base ** exponent * units, force)


class GridShape(Record):
    """Number of interior columns (m) and rows (n); both at least 2."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 2 or self.n < 2:
            raise InputError(f"grid shape requires m, n >= 2, got ({self.m}, {self.n})")

    @property
    def f_edge_count(self) -> int:
        return self.m * (self.n + 1)

    @property
    def g_edge_count(self) -> int:
        return (self.m + 1) * self.n

    @property
    def edge_count(self) -> int:
        return self.f_edge_count + self.g_edge_count

    @property
    def vertex_count(self) -> int:
        return self.m * self.n


def _check_entries(values: Sequence[int], p: int, label: str) -> None:
    """Refuse any value that is not an int in [0, p)."""
    for x in values:
        # type(), not isinstance(): a bool (JSON true) is no field value
        if type(x) is not int or not (0 <= x < p):
            raise ValueError(f"{label} entries must be ints in [0, {p})")


def _freeze_grid(values: Sequence[Sequence[int]], rows: int, cols: int,
                 field: Field, label: str) -> tuple:
    if len(values) != rows:
        raise ValueError(f"{label} must have {rows} rows, got {len(values)}")
    p = field.p
    out = []
    for r in values:
        if len(r) != cols:
            raise ValueError(f"{label} rows must have {cols} entries, got {len(r)}")
        _check_entries(r, p, label)
        out.append(tuple(r))
    return tuple(out)


class LatticeState(Record):
    """Edge labeling of the full lattice over F2 or F3.

    ``f`` is indexed [i][j] with shape m x (n+1), ``g`` is
    (m+1) x n, both 0-based internally.
    """

    shape: GridShape
    field: Field
    f: tuple
    g: tuple

    def __post_init__(self):
        m, n = self.shape.m, self.shape.n
        object.__setattr__(self, "f", _freeze_grid(self.f, m, n + 1, self.field, "f"))
        object.__setattr__(self, "g", _freeze_grid(self.g, m + 1, n, self.field, "g"))

    trusted = _trusted

    def f_at(self, i: int, j: int) -> int:
        """f[i][j] with 1-based indices, i in [1, m], j in [1, n+1]."""
        return self.f[i - 1][j - 1]

    def g_at(self, i: int, j: int) -> int:
        """g[i][j] with 1-based indices, i in [1, m+1], j in [1, n]."""
        return self.g[i - 1][j - 1]

    def edge_tuple(self) -> tuple:
        """All edge values, f block then g block, row-major; a total order key."""
        return tuple(x for row in self.f for x in row) + tuple(
            x for row in self.g for x in row
        )


class BoundarySpec(Record):
    """The 2m + 2n boundary edge values of a lattice of the given shape."""

    shape: GridShape
    field: Field
    f_bottom: tuple
    f_top: tuple
    g_left: tuple
    g_right: tuple

    def __post_init__(self):
        m, n = self.shape.m, self.shape.n
        for name, seq, length in (
            ("f_bottom", self.f_bottom, m),
            ("f_top", self.f_top, m),
            ("g_left", self.g_left, n),
            ("g_right", self.g_right, n),
        ):
            if len(seq) != length:
                raise ValueError(f"{name} must have {length} entries, got {len(seq)}")
            _check_entries(seq, self.field.p, name)
            object.__setattr__(self, name, tuple(seq))

    def edge_tuple(self) -> tuple:
        return self.f_bottom + self.f_top + self.g_left + self.g_right


class _Torus:
    def __repr__(self):
        return "TORUS"


# The periodic boundary, the third a lattice sum or walk takes beside
# None (free) and a BoundarySpec (fixed): each row closes on itself and
# the top frontier on the bottom one, so a sum is the trace of the row
# transfer matrix (Baxter 1982, ch. 8).  transfer's count_states,
# weighted_sum and state_tables take it, and forms_rect's count_six,
# six_state_tables and enumerate_six; check_boundary refuses it.
TORUS = _Torus()


def edges_at_vertex(state: LatticeState, i: int, j: int) -> tuple:
    """(left, top, right, bottom) edge values at interior vertex (i, j)."""
    m, n = state.shape.m, state.shape.n
    if not (1 <= i <= m and 1 <= j <= n):
        raise ValueError(f"vertex ({i}, {j}) out of range for shape ({m}, {n})")
    return (
        state.g_at(i, j),
        state.f_at(i, j + 1),
        state.g_at(i + 1, j),
        state.f_at(i, j),
    )


def f_edge_index(shape: GridShape, i: int, j: int) -> int:
    """Position of f[i][j] in edge_tuple order."""
    return (i - 1) * (shape.n + 1) + (j - 1)


def g_edge_index(shape: GridShape, i: int, j: int) -> int:
    """Position of g[i][j]; the g block follows the full f block."""
    return shape.f_edge_count + (i - 1) * shape.n + (j - 1)


def _vertex_incidence(shape: GridShape, field: Field) -> FieldMatrix:
    """The matrix of the vertex rule right - left = top - bottom over F2
    or F3.

    Row (i - 1) n + (j - 1), that of vertex (i, j), holds 1 at the
    vertex's top and left edges and -1 mod p at its bottom and right
    edges, in edge_tuple columns.
    Over F3 its kernel is the closed 1-forms, over F2 the eight-vertex
    states.  The entries are reduced here, so from_rows' check is skipped.
    """
    minus = field.p - 1
    entries = []
    for i in range(1, shape.m + 1):
        for j in range(1, shape.n + 1):
            row = [0] * shape.edge_count
            row[f_edge_index(shape, i, j + 1)] = 1
            row[g_edge_index(shape, i, j)] = 1
            row[f_edge_index(shape, i, j)] = minus
            row[g_edge_index(shape, i + 1, j)] = minus
            entries += row
    return FieldMatrix(field, shape.vertex_count, shape.edge_count, tuple(entries))


def boundary_of(state: LatticeState) -> BoundarySpec:
    """Extract the boundary edge values of a state."""
    m, n = state.shape.m, state.shape.n
    return BoundarySpec(
        shape=state.shape,
        field=state.field,
        f_bottom=tuple(state.f_at(i, 1) for i in range(1, m + 1)),
        f_top=tuple(state.f_at(i, n + 1) for i in range(1, m + 1)),
        g_left=tuple(state.g_at(1, j) for j in range(1, n + 1)),
        g_right=tuple(state.g_at(m + 1, j) for j in range(1, n + 1)),
    )


def check_boundary(boundary: BoundarySpec | None, shape: GridShape,
                   field: Field | None = None) -> None:
    """Refuse a boundary of another shape, or over another field than a
    field given, and TORUS, which the callers that take it keep from
    here; None is free."""
    if boundary is None:
        return
    if boundary is TORUS:
        raise InputError("takes a free or fixed boundary, not TORUS")
    if boundary.shape != shape:
        raise InputError(
            f"boundary is for shape ({boundary.shape.m}, {boundary.shape.n}), which "
            f"does not match the shape requested ({shape.m}, {shape.n})"
        )
    if field is not None and boundary.field is not field:
        raise InputError(f"boundary is over {boundary.field.name}, expected {field.name}")


def _parse_object(text: str, where: str, error: type) -> dict:
    """The JSON object in text; error for anything else, for invalid
    JSON, for an integer too long for int (json.loads raises a bare
    ValueError past sys.get_int_max_str_digits() digits) and for arrays
    or objects nested past the interpreter's recursion limit."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"{where}: invalid JSON at line {e.lineno}: {e.msg}") from None
    except ValueError:
        raise error(f"{where}: an integer in it has more than "
                    f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise error(f"{where}: arrays or objects nested too deeply") from None
    if not isinstance(doc, dict):
        raise error(f"{where}: top level must be a JSON object")
    return doc


def _parse_field(doc: dict, where: str) -> Field:
    name = doc.get("field")
    if name not in _FIELD_NAMES:
        raise StateFormatError(
            f"{where}: 'field' must be one of {sorted(_FIELD_NAMES)}, got {name!r}"
        )
    return _FIELD_NAMES[name]


def _parse_shape(doc: dict, where: str) -> GridShape:
    try:
        m, n = doc["m"], doc["n"]
    except KeyError as e:
        raise StateFormatError(f"{where}: missing required key {e.args[0]!r}") from None
    if type(m) is not int or type(n) is not int:
        raise StateFormatError(f"{where}: 'm' and 'n' must be integers")
    try:
        return GridShape(m, n)
    except InputError as e:
        raise StateFormatError(f"{where}: {e}") from None


def state_doc(state: LatticeState) -> dict:
    """The state document: keys m, n, field, f, g."""
    return {
        "m": state.shape.m,
        "n": state.shape.n,
        "field": state.field.name,
        "f": [list(row) for row in state.f],
        "g": [list(row) for row in state.g],
    }


def serialize_state(state: LatticeState) -> str:
    """The state document as JSON text."""
    return json.dumps(state_doc(state), sort_keys=True)


def deserialize_state(text: str) -> LatticeState:
    """Parse a state document; raises StateFormatError with diagnostics."""
    doc = _parse_object(text, "state document", StateFormatError)
    shape = _parse_shape(doc, "state document")
    field = _parse_field(doc, "state document")
    for key in ("f", "g"):
        if key not in doc:
            raise StateFormatError(f"state document: missing required key {key!r}")
        if not isinstance(doc[key], list):
            raise StateFormatError(f"state document: {key!r} must be an array of arrays")
    try:
        return LatticeState(shape=shape, field=field, f=doc["f"], g=doc["g"])
    except (ValueError, TypeError) as e:
        raise StateFormatError(f"state document: {e}") from None


def serialize_boundary(b: BoundarySpec) -> str:
    """Boundary as JSON with keys m, n, field, f_bottom, f_top, g_left, g_right."""
    doc = {
        "m": b.shape.m,
        "n": b.shape.n,
        "field": b.field.name,
        "f_bottom": list(b.f_bottom),
        "f_top": list(b.f_top),
        "g_left": list(b.g_left),
        "g_right": list(b.g_right),
    }
    return json.dumps(doc, sort_keys=True)


def deserialize_boundary(text: str) -> BoundarySpec:
    """Parse a boundary document; raises StateFormatError with diagnostics."""
    doc = _parse_object(text, "boundary document", StateFormatError)
    shape = _parse_shape(doc, "boundary document")
    field = _parse_field(doc, "boundary document")
    sides = {}
    for key in ("f_bottom", "f_top", "g_left", "g_right"):
        if key not in doc:
            raise StateFormatError(f"boundary document: missing required key {key!r}")
        if not isinstance(doc[key], list):
            raise StateFormatError(f"boundary document: {key!r} must be an array")
        sides[key] = doc[key]
    try:
        return BoundarySpec(shape=shape, field=field, **sides)
    except (ValueError, TypeError) as e:
        raise StateFormatError(f"boundary document: {e}") from None
