"""Exact matrices over the supported rings, stored dense.

Entries are raw ring values (``Fraction`` or ``int``); the ring travels
with the matrix.  Storage is dense row-major, but products touch only
nonzero entries: boundary and witness matrices are mostly zeros.
Zero-row and zero-column matrices are legal and stand for maps to or
from the zero module, which keeps degree-window edges of chain complexes
uniform.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import RingMismatch, ShapeMismatch
from .rings import Ring


class Matrix:
    """Immutable row-major matrix over an exact ring."""

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring: Ring, entries: Sequence[Sequence], cols: int | None = None):
        rows = len(entries)
        if rows == 0 and cols is None:
            cols = 0
        if rows > 0:
            widths = {len(r) for r in entries}
            if len(widths) != 1:
                raise ShapeMismatch("ragged rows")
            width = widths.pop()
            if cols is not None and cols != width:
                raise ShapeMismatch(f"declared {cols} columns, rows have {width}")
            cols = width
        norm = ring.normalize
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.data = tuple(tuple(norm(v) for v in row) for row in entries)

    @classmethod
    def _raw(cls, ring: Ring, rows: int, cols: int, data) -> "Matrix":
        # Internal: entries already canonical for the ring.
        m = object.__new__(cls)
        m.ring = ring
        m.rows = rows
        m.cols = cols
        m.data = tuple(map(tuple, data))
        return m

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "Matrix":
        zero = ring.normalize(0)
        return cls._raw(ring, rows, cols, [[zero] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        zero, one = ring.normalize(0), ring.normalize(1)
        return cls._raw(ring, n, n, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, ring: Ring, values: Iterable) -> "Matrix":
        return cls(ring, [[v] for v in values], cols=1)

    def grid(self) -> list[list]:
        """Mutable copy of the entries, for elimination algorithms."""
        return [list(row) for row in self.data]

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def _check_ring(self, other: "Matrix"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"({self.rows}x{self.cols}) @ ({other.rows}x{other.cols})")
        zero = self.ring.normalize(0)
        reduce = self.ring.reduce if self.ring.needs_reduction else None
        # Nonzero (col, value) pairs of each row of the right operand.
        brows = [[(j, y) for j, y in enumerate(row) if y] for row in other.data]
        out = []
        for arow in self.data:
            acc = [zero] * other.cols
            for x, brow in zip(arow, brows):
                if x:
                    for j, y in brow:
                        acc[j] += x * y
            out.append(acc if reduce is None else [reduce(v) for v in acc])
        return Matrix._raw(self.ring, self.rows, other.cols, out)

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("matrix sizes differ")
        reduce = self.ring.reduce
        data = [
            [reduce(op(a, b)) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.data, other.data)
        ]
        return Matrix._raw(self.ring, self.rows, self.cols, data)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, lambda a, b: a + b)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, lambda a, b: a - b)

    def __neg__(self) -> "Matrix":
        reduce = self.ring.reduce
        return Matrix._raw(self.ring, self.rows, self.cols, [[reduce(-v) for v in row] for row in self.data])

    def scale(self, c) -> "Matrix":
        c = self.ring.normalize(c)
        reduce = self.ring.reduce
        return Matrix._raw(self.ring, self.rows, self.cols, [[reduce(c * v) for v in row] for row in self.data])

    def transpose(self) -> "Matrix":
        return Matrix._raw(self.ring, self.cols, self.rows, zip(*self.data) if self.rows else [() for _ in range(self.cols)])

    def col(self, j: int) -> "Matrix":
        return Matrix._raw(self.ring, self.rows, 1, [(row[j],) for row in self.data])

    def cols_at(self, indices: Sequence[int]) -> "Matrix":
        return Matrix._raw(self.ring, self.rows, len(indices), [tuple(row[j] for j in indices) for row in self.data])

    def submatrix(self, row_range, col_range) -> "Matrix":
        ri = list(row_range)
        ci = list(col_range)
        return Matrix._raw(self.ring, len(ri), len(ci), [tuple(self.data[i][j] for j in ci) for i in ri])

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.data for v in row)

    def first_nonzero(self):
        """Row-major position ``(i, j)`` of the first nonzero entry, or ``None``."""
        for i, row in enumerate(self.data):
            if any(row):
                return i, next(j for j, v in enumerate(row) if v)
        return None

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    __hash__ = None

    def render_rows(self) -> list[list[str]]:
        r = self.ring.render
        return [[r(v) for v in row] for row in self.data]

    def __repr__(self):
        return f"Matrix({self.ring}, {self.rows}x{self.cols}, {self.render_rows()})"


def hstack(matrices: Sequence[Matrix]) -> Matrix:
    """Concatenate matrices left to right; all must share rows and ring."""
    mats = list(matrices)
    if not mats:
        raise ShapeMismatch("hstack of nothing")
    ring, rows = mats[0].ring, mats[0].rows
    for m in mats[1:]:
        if m.ring != ring:
            raise RingMismatch("hstack over mixed rings")
        if m.rows != rows:
            raise ShapeMismatch("hstack with differing row counts")
    data = [sum((list(m.data[i]) for m in mats), []) for i in range(rows)]
    return Matrix._raw(ring, rows, sum(m.cols for m in mats), data)


def vstack(matrices: Sequence[Matrix]) -> Matrix:
    """Concatenate matrices top to bottom; all must share columns and ring."""
    mats = list(matrices)
    if not mats:
        raise ShapeMismatch("vstack of nothing")
    ring, cols = mats[0].ring, mats[0].cols
    for m in mats[1:]:
        if m.ring != ring:
            raise RingMismatch("vstack over mixed rings")
        if m.cols != cols:
            raise ShapeMismatch("vstack with differing column counts")
    data = [row for m in mats for row in m.data]
    return Matrix._raw(ring, sum(m.rows for m in mats), cols, data)


def block_diag(matrices: Sequence[Matrix]) -> Matrix:
    """Block-diagonal assembly."""
    mats = list(matrices)
    if not mats:
        raise ShapeMismatch("block_diag of nothing")
    ring = mats[0].ring
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    zero = ring.normalize(0)
    out = [[zero] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in mats:
        if m.ring != ring:
            raise RingMismatch("block_diag over mixed rings")
        for i, row in enumerate(m.data):
            out[r0 + i][c0 : c0 + m.cols] = row
        r0 += m.rows
        c0 += m.cols
    return Matrix._raw(ring, rows, cols, out)
