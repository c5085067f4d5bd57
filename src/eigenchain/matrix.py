"""Exact matrices over the supported rings, stored dense.

Entries are raw ring values, the ring traveling with the matrix: ``int``
over Z and F_p, and over Q an ``int`` or a ``Fraction`` (see
:class:`~eigenchain.rings.Rationals`), so integral data over Q computes
with ``int`` arithmetic through the same code.  Storage is dense
row-major, a tuple of tuple rows that no one mutates, so matrices share
rows freely (every row of a zero matrix is one tuple) and wrap new rows
without copying them.  Products touch only nonzero entries: boundary and
witness matrices are mostly zeros.  Over Q a product is an integer
product: ``A @ B = (a*A @ b*B) / (a*b)``, with ``a`` and ``b`` the lcms
of each operand's denominators, so the same loop multiplies ``int``s and
each output entry is divided once, an ``int`` where it is integral.  An
operand is scaled when a type scan of its nonzero entries finds a
``Fraction``, integral or not.  A product with :meth:`Matrix.identity`
checks ring and shapes, then returns the other factor as stored, so
over Q an integral ``Fraction`` it holds stays one; ``-I`` is built
from one canonical ``-1``.  The mark is the class, read through
``marked_identity``, never the values, and it survives where the answer
is known to be the identity: a full slice is the matrix itself, and
:mod:`~eigenchain.linalg` returns a marked identity as the kernel of a
rank-0 map and as the inverse of a split off the whole module.  Slices
move data rather than entries: a range of rows or columns is one tuple
slice, an index list one ``itemgetter``, and :meth:`Matrix.placed`
(``I[:, at] @ M`` without the product) sets whole rows in place.  Sums,
differences, negation and scaling map the operator over each row, so an
entry costs its arithmetic and, over F_p only, one ``%``.  Zero-row and
zero-column matrices are legal and stand for maps to or from the zero
module, which keeps degree-window edges of chain complexes uniform.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import add, attrgetter, eq, itemgetter, mod, mul, neg, sub
from typing import Iterable, Sequence

from .errors import RingMismatch, ShapeMismatch
from .rings import Rationals, Ring


class Matrix:
    """Immutable row-major matrix over an exact ring."""

    __slots__ = ("ring", "rows", "cols", "data")
    # The identity mark: True only on what :meth:`identity` builds, never read off values.
    marked_identity = False

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
        self.data = tuple(tuple(map(norm, row)) for row in entries)

    @classmethod
    def _raw(cls, ring: Ring, rows: int, cols: int, data: tuple) -> "Matrix":
        # Internal: ``data`` is a tuple of tuple rows, entries already
        # canonical for the ring; it is kept as given, without a copy.
        m = object.__new__(cls)
        m.ring = ring
        m.rows = rows
        m.cols = cols
        m.data = data
        return m

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "Matrix":
        return cls._raw(ring, rows, cols, ((ring.normalize(0),) * cols,) * rows)

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        """The ``n x n`` identity, marked so that a product with it returns the other factor.

        Full slices, rank-0 kernels and whole-module splits keep the mark.
        """
        return _Identity._raw(ring, n, n, _diagonal(ring, n, ring.normalize(1)))

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
        if self.marked_identity:
            return other
        if other.marked_identity:
            return self
        zero = self.ring.normalize(0)
        p = repeat(self.ring.p) if self.ring.needs_reduction else None
        adata, bdata, den = self.data, other.data, 1
        if isinstance(self.ring, Rationals):
            # A @ B = (a*A @ b*B) / (a*b): the loop below multiplies and
            # adds only ints, and each output entry is divided once.
            adata, a = _numerators(adata)
            bdata, b = _numerators(bdata)
            den = a * b
        # Nonzero (col, value) pairs of each row of the right operand.
        brows = [[(j, y) for j, y in enumerate(row) if y] for row in bdata]
        out = []
        for arow in adata:
            acc = [zero] * other.cols
            for x, brow in zip(arow, brows):
                if x:
                    for j, y in brow:
                        acc[j] += x * y
            out.append(tuple(acc) if p is None else tuple(map(mod, acc, p)))
        if den != 1:
            out = [tuple([x // den if not x % den else Fraction(x, den) for x in row]) for row in out]
        return Matrix._raw(self.ring, self.rows, other.cols, tuple(out))

    def _with_rows(self, rows: Iterable[Iterable]) -> "Matrix":
        """A matrix of this ring and shape with entries ``rows``, reduced over F_p only."""
        if self.ring.needs_reduction:
            p = repeat(self.ring.p)
            data = tuple(tuple(map(mod, row, p)) for row in rows)
        else:
            data = tuple(map(tuple, rows))
        return Matrix._raw(self.ring, self.rows, self.cols, data)

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("matrix sizes differ")
        return self._with_rows(map(op, ra, rb) for ra, rb in zip(self.data, other.data))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, sub)

    def __neg__(self) -> "Matrix":
        return self._with_rows(map(neg, row) for row in self.data)

    def scale(self, c) -> "Matrix":
        c = self.ring.normalize(c)
        return self._with_rows(map(mul, repeat(c), row) for row in self.data)

    def transpose(self) -> "Matrix":
        return Matrix._raw(self.ring, self.cols, self.rows, tuple(zip(*self.data)) if self.rows else ((),) * self.cols)

    def col(self, j: int) -> "Matrix":
        return Matrix._raw(self.ring, self.rows, 1, tuple((row[j],) for row in self.data))

    def cols_at(self, indices: Sequence[int]) -> "Matrix":
        """The columns ``indices``; the full range gives ``self``."""
        pick = _picker(indices, self.cols)
        if pick is None:
            return self
        return Matrix._raw(self.ring, self.rows, len(indices), tuple(map(pick, self.data)))

    def submatrix(self, row_range: Sequence[int], col_range: Sequence[int]) -> "Matrix":
        """The entries at rows ``row_range`` and columns ``col_range``; the full ranges give ``self``."""
        pick_rows, pick_cols = _picker(row_range, self.rows), _picker(col_range, self.cols)
        if pick_rows is None and pick_cols is None:
            return self
        data = self.data if pick_rows is None else pick_rows(self.data)
        return Matrix._raw(self.ring, len(row_range), len(col_range), data if pick_cols is None else tuple(map(pick_cols, data)))

    def placed(self, n: int, at: Sequence[int]) -> "Matrix":
        """``I[:, at] @ self`` without the product: rows at positions ``at`` of ``n``, zero rows elsewhere.

        As from the product, the full range gives ``self``, and otherwise
        every integral Q entry is an ``int``.
        """
        if len(at) != self.rows:
            raise ShapeMismatch(f"{self.rows} rows placed at {len(at)} positions")
        if _is_full(at, n):
            return self
        rows = self.data
        if isinstance(self.ring, Rationals) and Fraction in set(map(type, chain.from_iterable(rows))):
            norm = self.ring.normalize
            rows = [tuple(map(norm, row)) for row in rows]
        out = [(self.ring.normalize(0),) * self.cols] * n
        for i, row in zip(at, rows):
            out[i] = row
        return Matrix._raw(self.ring, n, self.cols, tuple(out))

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

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
        render = self.ring.render
        return [list(map(render, row)) for row in self.data]

    def __repr__(self):
        return f"Matrix({self.ring}, {self.rows}x{self.cols}, {self.render_rows()})"


class _Identity(Matrix):
    """An identity matrix: a product with it is the other factor, as stored."""

    __slots__ = ()
    marked_identity = True

    def __neg__(self) -> Matrix:
        return Matrix._raw(self.ring, self.rows, self.cols, _diagonal(self.ring, self.rows, self.ring.normalize(-1)))


def _diagonal(ring: Ring, n: int, c) -> tuple:
    zero = ring.normalize(0)
    return tuple((zero,) * i + (c,) + (zero,) * (n - 1 - i) for i in range(n))


def _is_full(indices: Sequence[int], n: int) -> bool:
    """Whether ``indices`` are ``0, 1, ..., n - 1`` in order."""
    return indices == range(n) if isinstance(indices, range) else len(indices) == n and all(map(eq, indices, range(n)))


def _picker(indices: Sequence[int], n: int):
    """``None`` if ``indices`` is the full range of ``n``, else a map from a tuple to its entries at ``indices``.

    Only a range inside ``0..n-1`` is a slice: one past the end would
    shorten the result.  Other lists go through ``itemgetter``, which
    raises ``IndexError`` as indexing does (and takes one index bare).
    """
    if _is_full(indices, n):
        return None
    if not indices:
        return lambda seq: ()
    if isinstance(indices, range) and 0 <= indices[0] < n and 0 <= indices[-1] < n:
        return itemgetter(slice(indices.start, indices.stop if indices.stop >= 0 else None, indices.step))
    if len(indices) == 1:
        j = indices[0]
        return lambda seq: (seq[j],)
    return itemgetter(*indices)


_denominator = attrgetter("denominator")


def _numerators(data: Sequence[Sequence]) -> tuple:
    """Q entries ``data`` times the lcm ``d`` of their denominators, as ``int`` rows, and ``d``.

    Data whose nonzero entries are all ``int``s come back as given, with
    ``d = 1``; integral ``Fraction``s are converted all the same.
    """
    if Fraction not in set(map(type, filter(None, chain.from_iterable(data)))):
        return data, 1
    d = lcm(*set(map(_denominator, chain.from_iterable(data))))
    return [[x.numerator * (d // x.denominator) for x in row] for row in data], d


def _stackable(matrices: Iterable[Matrix], name: str, shared: str = "", what: str = "") -> list[Matrix]:
    """``matrices`` as a list, refused unless there is one, all over one ring and, if named, of one ``shared`` size."""
    mats = list(matrices)
    if not mats:
        raise ShapeMismatch(f"{name} of nothing")
    first = mats[0]
    for m in mats[1:]:
        if m.ring != first.ring:
            raise RingMismatch(f"{name} over mixed rings")
        if shared and getattr(m, shared) != getattr(first, shared):
            raise ShapeMismatch(f"{name} with differing {what} counts")
    return mats


def hstack(matrices: Sequence[Matrix]) -> Matrix:
    """Concatenate matrices left to right; all must share rows and ring."""
    mats = _stackable(matrices, "hstack", "rows", "row")
    data = tuple(tuple(chain.from_iterable(parts)) for parts in zip(*(m.data for m in mats)))
    return Matrix._raw(mats[0].ring, mats[0].rows, sum(m.cols for m in mats), data)


def vstack(matrices: Sequence[Matrix]) -> Matrix:
    """Concatenate matrices top to bottom; all must share columns and ring."""
    mats = _stackable(matrices, "vstack", "cols", "column")
    data = tuple(chain.from_iterable(m.data for m in mats))
    return Matrix._raw(mats[0].ring, sum(m.rows for m in mats), mats[0].cols, data)


def block_diag(matrices: Sequence[Matrix]) -> Matrix:
    """Block-diagonal assembly: each block in its own row of zero blocks, the rows stacked."""
    mats = _stackable(matrices, "block_diag")
    ring = mats[0].ring
    return vstack([
        hstack([m if j == i else Matrix.zeros(ring, m.rows, other.cols) for j, other in enumerate(mats)])
        for i, m in enumerate(mats)
    ])
