"""Exact linear algebra over the prime fields F2, F3 and the rationals.

Everything here is exact: prime-field elements are machine ints reduced
mod p, rational elements are ``fractions.Fraction``.  No floating point
is used anywhere in the package.  It lists no kernels: every state and
closed-form listing is the column walk of transfer.state_tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class PrimeField:
    """The field of integers mod p, for p prime."""

    p: int
    name: str

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def element(self, x: int) -> int:
        if not isinstance(x, int):
            raise TypeError(f"{self.name} elements are ints, not {type(x).__name__}")
        return x % self.p

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.p

    def sub(self, x: int, y: int) -> int:
        return (x - y) % self.p

    def mul(self, x: int, y: int) -> int:
        return (x * y) % self.p

    def neg(self, x: int) -> int:
        return (-x) % self.p

    def inv(self, x: int) -> int:
        if x % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self.name}")
        return pow(x, self.p - 2, self.p)

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))


class RationalField:
    """The rationals, with Fraction elements (always in lowest terms)."""

    name = "Q"

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def element(self, x) -> Fraction:
        # floats smuggle in binary rounding; insist on exact inputs
        if isinstance(x, float):
            raise TypeError("Q elements must be exact (int, str, or Fraction), not float")
        return Fraction(x)

    def add(self, x: Fraction, y: Fraction) -> Fraction:
        return x + y

    def sub(self, x: Fraction, y: Fraction) -> Fraction:
        return x - y

    def mul(self, x: Fraction, y: Fraction) -> Fraction:
        return x * y

    def neg(self, x: Fraction) -> Fraction:
        return -x

    def inv(self, x: Fraction) -> Fraction:
        if x == 0:
            raise ZeroDivisionError("0 has no inverse in Q")
        return 1 / Fraction(x)

    def div(self, x: Fraction, y: Fraction) -> Fraction:
        return Fraction(x) / Fraction(y)

    def __repr__(self) -> str:  # pragma: no cover
        return "QQ"


GF2 = PrimeField(2, "F2")
GF3 = PrimeField(3, "F3")
QQ = RationalField()

Field = Union[PrimeField, RationalField]


@dataclass(frozen=True)
class FieldMatrix:
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
            flat.extend(field.element(x) for x in r)
        return cls(field, nrows, ncols, tuple(flat))

    @classmethod
    def identity(cls, field: Field, n: int) -> "FieldMatrix":
        one, zero = field.one, field.zero
        return cls(
            field, n, n,
            tuple(one if i == j else zero for i in range(n) for j in range(n)),
        )

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "FieldMatrix":
        return cls(field, rows, cols, (field.zero,) * (rows * cols))

    def at(self, r: int, c: int) -> Scalar:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def to_rows(self) -> list:
        return [list(self.row(r)) for r in range(self.rows)]

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for x in self.entries)


def _check_same_field(a: FieldMatrix, b: FieldMatrix) -> None:
    if a.field is not b.field:
        raise ValueError(f"field mismatch: {a.field.name} vs {b.field.name}")


def matmul(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Exact matrix product; raises ValueError on dimension or field mismatch."""
    _check_same_field(a, b)
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    f = a.field
    zero = f.zero
    out = []
    brows = [b.row(i) for i in range(b.rows)]
    for i in range(a.rows):
        arow = a.row(i)
        acc = [zero] * b.cols
        for k, aik in enumerate(arow):
            if aik == zero:
                continue
            brow = brows[k]
            for j in range(b.cols):
                if brow[j] != zero:
                    acc[j] = f.add(acc[j], f.mul(aik, brow[j]))
        out.extend(acc)
    return FieldMatrix(f, a.rows, b.cols, tuple(out))


def mat_sub(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Entrywise difference a - b."""
    _check_same_field(a, b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch in subtraction")
    f = a.field
    return FieldMatrix(
        f, a.rows, a.cols,
        tuple(f.sub(x, y) for x, y in zip(a.entries, b.entries)),
    )


def mat_vec(a: FieldMatrix, v: Sequence[Scalar]) -> tuple:
    """Matrix-vector product as a tuple of field elements."""
    if a.cols != len(v):
        raise ValueError("vector length does not match matrix columns")
    f = a.field
    zero = f.zero
    out = []
    for i in range(a.rows):
        acc = zero
        row = a.row(i)
        for x, y in zip(row, v):
            if x != zero and y != zero:
                acc = f.add(acc, f.mul(x, y))
        out.append(acc)
    return tuple(out)


def rref(m: FieldMatrix) -> FieldMatrix:
    """Reduced row echelon form by Gauss-Jordan elimination.

    Pivot columns are scanned left to right; every pivot is scaled to 1
    and cleared above and below, so the result is canonical for the row
    space.
    """
    f = m.field
    zero = f.zero
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivot_row = 0
    for col in range(m.cols):
        if pivot_row >= m.rows:
            break
        sel = None
        for r in range(pivot_row, m.rows):
            if rows[r][col] != zero:
                sel = r
                break
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        inv = f.inv(rows[pivot_row][col])
        if inv != f.one:
            rows[pivot_row] = [f.mul(inv, x) for x in rows[pivot_row]]
        prow = rows[pivot_row]
        # only the pivot row's nonzero columns change the rows it clears
        support = [c for c in range(col, m.cols) if prow[c] != zero]
        for r in range(m.rows):
            if r == pivot_row:
                continue
            factor = rows[r][col]
            if factor == zero:
                continue
            row = rows[r]
            for c in support:
                row[c] = f.sub(row[c], f.mul(factor, prow[c]))
        pivot_row += 1
    flat = tuple(x for row in rows for x in row)
    return FieldMatrix(f, m.rows, m.cols, flat)


def pivot_columns(m: FieldMatrix) -> list[int]:
    """Pivot column indices of rref(m), ascending."""
    r = rref(m)
    zero = r.field.zero
    one = r.field.one
    pivots = []
    for i in range(r.rows):
        row = r.row(i)
        for j, x in enumerate(row):
            if x != zero:
                if x == one and j not in pivots:
                    pivots.append(j)
                break
    return pivots


def rank(m: FieldMatrix) -> int:
    """Rank of the matrix (number of pivots in its rref)."""
    return len(pivot_columns(m))


def nullspace_basis(m: FieldMatrix) -> list[tuple]:
    """Basis of the right nullspace, one vector per free column.

    Vectors are ordered by ascending free-column index, and the vector
    for free column c has a 1 in position c.  This makes the basis
    deterministic, which downstream enumeration relies on.
    """
    r = rref(m)
    f = m.field
    zero, one = f.zero, f.one
    pivots = []
    pivot_of_row = {}
    for i in range(r.rows):
        row = r.row(i)
        for j, x in enumerate(row):
            if x != zero:
                pivots.append(j)
                pivot_of_row[i] = j
                break
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for c in free:
        v = [zero] * m.cols
        v[c] = one
        for i, pj in pivot_of_row.items():
            # pivot entry is 1, so x_pj = -R[i][c]
            v[pj] = f.neg(r.at(i, c))
        basis.append(tuple(v))
    return basis
