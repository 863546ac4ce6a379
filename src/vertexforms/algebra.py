"""Exact linear algebra over the prime fields F2, F3 and the rationals.

A field is data: its characteristic p and its name, with p = 0 for Q.
Prime-field entries are ints reduced mod p, rational entries are
``fractions.Fraction``; rref and nullspace_basis also read a Q matrix
built directly from ints, which needs no Fraction per entry.  One
Gauss-Jordan elimination, in integers, serves all three: over F_p every
update is reduced mod p, and over Q each row is scaled to integers once
and kept primitive, fraction-free (Bareiss 1968), until a last division
by its pivot.  The rows are read into an echelon basis until every
column has a pivot; once a row clears to zero before that, the kernel
of the basis is read, and a later row orthogonal to all of it lies in
the span and is skipped without a clearing.  rank and pivot_columns
read the echelon basis before back substitution; rref and
nullspace_basis share one back substitution over the integer rows.
No floating point is used anywhere in the package.
It lists no kernels: every state and closed-form listing is the column
walk of transfer.state_tables.

Record, the base of the package's immutable records, lives here because
this is the module every other one imports.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import attrgetter

Scalar = int | Fraction


def _bind(cls, args: tuple, kwargs: dict) -> dict:
    """The field values of a call to record class cls that does not give
    each field once, all by position or all by keyword; TypeError on a
    missing, extra or repeated argument."""
    fields = cls._fields
    if len(args) > len(fields):
        raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments but {len(args)} were given")
    values = dict(zip(fields, args))
    for name, value in kwargs.items():
        if name not in fields:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        values[name] = value
    missing = [name for name in fields if name not in values]
    if missing:
        raise TypeError(f"{cls.__name__}() missing argument(s): {', '.join(missing)}")
    return values


def _record_init(cls):
    """The __init__ of record class cls: its fields from positional or
    keyword arguments, then its __post_init__ if it has one."""
    fields = cls._fields
    count = len(fields)
    names = frozenset(fields)
    positions = tuple(enumerate(fields))
    post_init = getattr(cls, "__post_init__", None)  # a plain function, called unbound

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            if args or kwargs.keys() != names:
                kwargs = _bind(cls, args, kwargs)
            values = kwargs
        else:
            values = {}
            for i, name in positions:
                values[name] = args[i]
        # one update from a whole dict gives the instance a plain dict of
        # its own; keys stored one at a time into self.__dict__ would keep
        # the class's key-sharing table, whose attributes CPython 3.11
        # reads about four times slower
        self.__dict__.update(values)
        if post_init is not None:
            post_init(self)

    return __init__


class Record:
    """Base of the package's immutable records.

    A subclass lists its fields as annotations, in order; they are read
    once, when the class is made.  An instance is built from positional
    or keyword arguments, one per field, and then runs the class's
    __post_init__, which may normalize a field with object.__setattr__.
    Fields live in the instance __dict__.  The table records (LatticeState,
    ScalarField, OneForm, Coloring, PeriodicField, ToroidalOneForm) share
    one trusted constructor (``trusted = _trusted`` in the class body): its
    keyword arguments, every field in field order, become the instance
    dict, so no __post_init__ runs and nothing is checked or copied.
    It takes only tables the library built itself, tuples of tuples of
    field elements on a shape already checked; values from outside go
    through the validating constructors.
    Assignment and deletion raise AttributeError; == holds only between
    instances of one class with equal fields, and the hash is that of
    the tuple of field values in field order.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)
        cls.__init__ = _record_init(cls)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


# The setter of a record's instance __dict__: one call that installs a
# dict, without object.__setattr__'s lookup of the same descriptor.
_set_dict = Record.__dict__["__dict__"].__set__


@classmethod
def _trusted(cls, **fields):
    """The table records' trusted constructor (see Record): the keyword
    dict, every field in field order, is the new instance's dict."""
    obj = object.__new__(cls)
    _set_dict(obj, fields)
    return obj


class Field(Record):
    """F_p for a prime p, or the rationals Q when p is 0."""

    p: int
    name: str


GF2 = Field(2, "F2")
GF3 = Field(3, "F3")
QQ = Field(0, "Q")


def _entry(field: Field, x) -> Scalar:
    """x as an element of field: ints mod p, or a Fraction over Q.

    Only ints, and over Q Fractions, are entries: bools, strings and
    floats are refused, so a JSON true or a rounded decimal never
    becomes a field element.
    """
    p = field.p
    if type(x) is int:
        return x % p if p else Fraction(x)
    if type(x) is Fraction and not p:
        return x
    allowed = "ints" if p else "ints or Fractions"
    raise TypeError(f"{field.name} entries are {allowed}, not {type(x).__name__}")


class FieldMatrix(Record):
    """Immutable dense matrix over one of the supported fields.

    Entries are stored row-major in a flat tuple.  Row and column
    indices are 0-based; the lattice modules keep their own 1-based
    conventions and translate at the boundary.
    """

    field: Field
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[Scalar]]) -> "FieldMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend([_entry(field, x) for x in r])
        return cls(field, nrows, ncols, tuple(flat))

    def at(self, r: int, c: int) -> Scalar:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple:
        return self.entries[r * self.cols : (r + 1) * self.cols]


def _check_same_field(a: FieldMatrix, b: FieldMatrix) -> None:
    if a.field is not b.field:
        raise ValueError(f"field mismatch: {a.field.name} vs {b.field.name}")


def matmul(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Exact matrix product; raises ValueError on dimension or field mismatch."""
    _check_same_field(a, b)
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    p = a.field.p
    zero = _entry(a.field, 0)
    out = []
    brows = [b.row(i) for i in range(b.rows)]
    for i in range(a.rows):
        acc = [zero] * b.cols
        for aik, brow in zip(a.row(i), brows):
            if aik:
                for j, bkj in enumerate(brow):
                    if bkj:
                        acc[j] += aik * bkj
        out.extend([x % p for x in acc] if p else acc)
    return FieldMatrix(a.field, a.rows, b.cols, tuple(out))


def mat_sub(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Entrywise difference a - b."""
    _check_same_field(a, b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch in subtraction")
    p = a.field.p
    pairs = zip(a.entries, b.entries)
    diff = tuple((x - y) % p for x, y in pairs) if p else tuple(x - y for x, y in pairs)
    return FieldMatrix(a.field, a.rows, a.cols, diff)


def _integer_row(row) -> list:
    """A rational row times the lcm of its denominators, made primitive."""
    scale = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (scale // x.denominator) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _clear(row: list, prow: list, col: int, support: list, p: int,
           primitive: bool = True) -> list:
    """row with its entry at col cleared by prow, whose pivot is at col and
    whose nonzero columns are support.  Over F_p the pivot is 1 and row is
    updated in place.  Over Q the result is a multiple of row minus one of
    prow, in integers, divided by its gcd when primitive is set."""
    factor = row[col]
    if p:
        for c in support:
            row[c] = (row[c] - factor * prow[c]) % p
        return row
    g = gcd(prow[col], factor)
    a, b = prow[col] // g, factor // g
    if a != 1:
        row = [a * x for x in row]
    for c in support:
        row[c] -= b * prow[c]
    if not primitive:
        return row
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _reduce(basis: dict, support: dict, p: int) -> None:
    """Back-substitute an echelon basis in place, last pivot first.

    Each row is cleared at the later pivots with rows already reduced,
    which are zero at every pivot but their own, so a clearing adds
    nonzeros only in free columns and the result is canonical for the
    row space.  Over Q a row stays an integer row, divided by its gcd
    after each clearing, which keeps the entries small; its pivot need
    not be 1.  Rows reduced before, when an earlier kernel was read,
    are cleared only at the pivots that joined since.
    """
    for col in sorted(basis, reverse=True):
        row = basis[col]
        for c in support[col]:
            if c > col and c in basis:
                row = _clear(row, basis[c], c, support[c], p)
        basis[col] = row
        support[col] = list(compress(range(len(row)), row))


def _kernel(basis: dict, support: dict, ncols: int, p: int) -> list:
    """One integer vector per free column of the basis, ascending, that
    spans its right kernel: the basis is reduced in place, unless it has
    a pivot in every column and so no kernel, and the vector of free
    column c is a list of (column, value) pairs, c's first.  Over F_p
    the value at c is 1 and the others are mod p; over Q the value at c
    is the lcm of the pivots of the rows nonzero at c, so every value
    is an integer."""
    if len(basis) == ncols:
        return []
    _reduce(basis, support, p)
    kernel = []
    for c in range(ncols):
        if c in basis:
            continue
        above = [(j, row[c], row[j]) for j, row in basis.items() if row[c]]
        if p:
            kernel.append([(c, 1)] + [(j, -x % p) for j, x, _ in above])
        else:
            scale = lcm(*(pivot for _, _, pivot in above))
            kernel.append([(c, scale)] + [(j, -x * (scale // pivot)) for j, x, pivot in above])
    return kernel


def _echelon(m: FieldMatrix) -> tuple:
    """(basis, support): an echelon basis of m's row space, keyed by pivot
    column, and the nonzero columns of each of its rows.

    The rows are read one at a time: a row is cleared at each pivot the
    basis holds, left to right, and joins it at its first nonzero column
    if anything is left.  Reading stops once every column has a pivot,
    since the remaining rows then lie in the span.  A row that clears to
    zero before that has the kernel of the basis read (_kernel, which
    reduces the basis), and each later row is first tested by its dot
    products with that kernel, a certificate of the span: a row
    orthogonal to all of it lies in the span and is skipped without a
    clearing, and any other row is cleared and joins the basis, which
    drops the kernel until the next row that clears to zero.  A matrix
    of full row rank meets no such row and pays nothing for this.

    Over F_p the rows are ints mod p and a row joins the basis scaled by
    its pivot's inverse.  Over Q the rows are integer multiples of the
    true ones: a clearing multiplies the row by the pivot and subtracts
    a multiple of the pivot row, which keeps every entry an integer, and
    a row is divided by its gcd when it joins the basis.
    """
    p = m.field.p
    nrows, ncols = m.rows, m.cols
    cols = range(ncols)
    basis = {}  # pivot column -> its row
    support = {}  # pivot column -> the nonzero columns of its row
    kernel = None  # the basis's kernel, read at a row that cleared to zero
    for i in range(nrows):
        if len(basis) == ncols:
            break
        row = list(m.row(i)) if p else _integer_row(m.row(i))
        if kernel is not None:
            dots = (sum([row[k] * x for k, x in v]) for v in kernel)
            if not any((d % p for d in dots) if p else dots):
                continue
        lead = next(compress(cols, row), None)
        while lead in basis:
            # made primitive once, when it joins the basis
            row = _clear(row, basis[lead], lead, support[lead], p, primitive=False)
            lead = next(compress(cols[lead + 1:], row[lead + 1:]), None)
        if lead is None:
            kernel = _kernel(basis, support, ncols, p)
            continue
        if p and row[lead] != 1:
            inv = pow(row[lead], -1, p)
            row = [x * inv % p for x in row]
        elif not p:
            g = gcd(*row)
            row = [x // g for x in row] if g > 1 else row
        basis[lead] = row
        support[lead] = list(compress(cols, row))
        kernel = None
    return basis, support


def rref(m: FieldMatrix) -> FieldMatrix:
    """Reduced row echelon form by Gauss-Jordan elimination: the echelon
    basis of _echelon, back-substituted by _reduce, with each row divided
    by its pivot once, at the end, over Q."""
    p = m.field.p
    nrows, ncols = m.rows, m.cols
    basis, support = _echelon(m)
    _reduce(basis, support, p)
    pivots = sorted(basis)
    rows = [basis[c] for c in pivots]
    if p:
        zero = 0
    else:
        zero = Fraction(0)
        rows = [[Fraction(x, row[c]) if x else zero for x in row] for c, row in zip(pivots, rows)]
    entries = [x for row in rows for x in row]
    entries += [zero] * (ncols * (nrows - len(rows)))
    return FieldMatrix(m.field, nrows, ncols, tuple(entries))


def pivot_columns(m: FieldMatrix) -> list[int]:
    """Pivot column indices of rref(m), ascending: the keys of the echelon
    basis, which back substitution does not move."""
    return sorted(_echelon(m)[0])


def rank(m: FieldMatrix) -> int:
    """Rank of the matrix: the size of its echelon basis."""
    return len(_echelon(m)[0])


def nullspace_basis(m: FieldMatrix) -> list[tuple]:
    """Basis of the right nullspace, one vector per free column.

    Vectors are ordered by ascending free-column index, and the vector
    for free column c has a 1 in position c.  This makes the basis
    deterministic, which downstream enumeration relies on.  The vectors
    are _kernel's integer vectors of the echelon basis, divided over Q
    by their value at c: one Fraction per nonzero entry, and no rref
    matrix is built.
    """
    p = m.field.p
    zero, one = _entry(m.field, 0), _entry(m.field, 1)
    basis, support = _echelon(m)
    out = []
    for (c, scale), *rest in _kernel(basis, support, m.cols, p):
        v = [zero] * m.cols
        v[c] = one
        for j, x in rest:
            v[j] = x if p else Fraction(x, scale)
        out.append(tuple(v))
    return out
