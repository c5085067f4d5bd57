"""Exact linear algebra: elimination, Smith normal form, solves.

Matrices are stored dense; eliminations update only the entries where
the pivot row (or column) is nonzero, so sparse inputs cost little more
than their nonzeros.  Over Z nothing leaves the integers, and over Q no
elimination loop does ``Fraction`` arithmetic: as ``@`` does, it clears
denominators with one lcm, works on ``int``s and divides each nonzero
entry once at the end, so an integral value comes out an ``int``, as
:class:`~eigenchain.rings.Rationals` stores it.  Inverses go through
``ring.inv``, never ``/``.

There are two elimination loops.  :func:`_bareiss`, fraction-free over
Q and Z and Gauss-Jordan on residues over F_p, runs forward behind ranks
over a field and ``det`` over every ring, and reduced on ``[a | I]``
behind :func:`_reduce` over a field and complement splits over Z;
``smith_normal_form`` runs over Z.  ``rref`` returns at once with its input.
Its pivots come first, from the forward ``_bareiss``.  ``_reduce``
eliminates ``[a | I]``, so its left transform comes out of the same pass
as the reduced form; it runs the first time either is read, so a rank
costs one forward pass and no reduced form.
Only ``smith_normal_form`` logs: it updates its working matrix alone and
logs each swap, subtraction and negation, and :func:`_transform` replays
that log onto an identity for ``U``, ``U^-1`` or ``V`` the first time
something reads them, so a rank or an invariant factor builds no
transform.  A transform known to be the identity (of an rref whose
reduced form is its input, as only then is nothing swapped, scaled or
subtracted, or of an empty Smith log) is
:meth:`~eigenchain.matrix.Matrix.identity`, and so are the answers known
without one: the kernel of a rank-0 matrix, and the inverse
:func:`complement_and_inverse` returns for a basis that is a marked
identity (the whole module, with an empty complement), so the products
downstream skip as well.  The inverse, complements, kernels and
solves over a field read the reduction before the pivots, so they run no
rank pass.

:func:`factor` is the rref over a field and the Smith form over Z; either
result carries its input as ``matrix`` and answers ``rank``, ``torsion``,
``kernel()``, ``image()``, ``image_coords()`` and ``solve()`` itself, so a
matrix used in several ways is eliminated once.  Solves, Smith images
and split inverses are slices and products of slices, not entries
placed one by one: ``I[:, pivots] @ c[:r]``, ``V[:, :r] @ (c[:r] / d)``,
``U^-1[:, :r] @ S[:r, :r]`` and ``rows_inv @ I[rows, :]``.  The products
with an identity slice are :meth:`~eigenchain.matrix.Matrix.placed`,
which sets whole rows (or, transposed, columns) where the product would
put them.  An invariant factor of one leaves its row as it is: it is
neither divided nor scanned for divisibility, and a Smith image with no
torsion skips ``S[:r, :r]``.  The rref kernel writes ``-echelon`` in
place, since over Q its product form costs ``Fraction``s.

Everything here is deterministic.  Over a field the reduced row-echelon
form uses the first nonzero entry in each column as pivot; over Z the
Smith reduction picks the smallest-absolute-value nonzero entry of the
remaining submatrix, breaking ties row-major.  Determinism matters
because downstream basis choices (complements, kernel generators) feed
golden tests and reproducible certificates.

Pivots of ±1, the common case over Z (simplicial boundaries, most random
complexes), cost only the rows they change, under the same pivot rules:
the fraction-free elimination negates the pivot row of a pivot equal to
minus the previous one and flips its sign, instead of negating every
other row; the Smith pivot search returns at the first entry of absolute
value one, which is the one the rule picks; and a pivot of one skips the
divisibility scan, since one divides everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import (
    NotAField,
    NotIntegerRing,
    NotInvertible,
    NotSaturated,
    ShapeMismatch,
    ValidationError,
)
from .matrix import Matrix, _numerators, hstack, vstack
from .rings import Integers


@dataclass(frozen=True)
class RrefResult:
    """``transform @ matrix == echelon`` with ``transform`` invertible.

    Only ``matrix`` is held at first.  ``pivots`` (and so ``rank`` and
    ``image()``) come from a forward :func:`_bareiss` unless the reduction
    has already run.  The reduction, :func:`_reduce`, runs the first time
    ``echelon`` or ``transform`` is read and builds all three in one pass,
    kept from then on, so a caller that reads only ranks builds no reduced
    form.
    """

    matrix: Matrix
    torsion = ()  # a field has none

    @cached_property
    def _reduced(self) -> tuple[Matrix, tuple[int, ...], Matrix]:
        return _reduce(self.matrix)

    @property
    def echelon(self) -> Matrix:
        return self._reduced[0]

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        if "_reduced" in self.__dict__:
            return self._reduced[1]
        return _bareiss(self.matrix, False)[0]

    @property
    def transform(self) -> Matrix:
        return self._reduced[2]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel(self) -> SubspaceBasis:
        """Basis of ``{x : matrix @ x = 0}``, each column's topmost nonzero entry one."""
        ring, n = self.matrix.ring, self.matrix.cols
        echelon, pivots, _ = self._reduced
        if not pivots:
            return SubspaceBasis(n, Matrix.identity(ring, n))
        echelon = echelon.data
        cols = []
        for j in range(n):
            if j in pivots:
                continue
            vec = [ring.normalize(0)] * n
            vec[j] = ring.normalize(1)
            for row, col in enumerate(pivots):
                vec[col] = ring.reduce(-echelon[row][j])
            cols.append(vec)
        basis = Matrix._raw(ring, n, len(cols), tuple(zip(*cols))) if cols else Matrix.zeros(ring, n, 0)
        return SubspaceBasis(n, _sign_normalize(basis))

    def image(self) -> SubspaceBasis:
        """Basis of the column space: the pivot columns of ``matrix``."""
        return SubspaceBasis(self.matrix.rows, self.matrix.cols_at(list(self.pivots)))

    def image_coords(self, v: Matrix) -> Matrix:
        """Coordinates in :meth:`image` of columns ``v`` that lie in the image."""
        return self.transform.submatrix(range(self.rank), range(self.matrix.rows)) @ v

    def solve(self, b: Matrix):
        """One exact solution ``x`` of ``matrix @ x = b``, or ``None``."""
        c = self.transform @ b
        n, r = self.matrix.cols, self.rank
        if any(map(any, c.data[r:])):
            return None
        # x[pivots] = c[:rank], zero elsewhere: I[:, pivots] @ c[:rank].
        return c.submatrix(range(r), range(b.cols)).placed(n, self.pivots)


@dataclass(frozen=True)
class SnfResult:
    """``u @ matrix @ v == s`` with ``u``, ``v`` unimodular.

    ``s`` is diagonal, entries nonnegative, each dividing the next, zeros
    trailing.  ``invariant_factors`` is the full diagonal of ``s`` (length
    ``min(rows, cols)``).  ``u_inv`` is available because image bases and
    basis completions read off its columns.

    The elimination updates ``s`` alone and logs its row operations in
    ``row_ops`` and its column operations in ``col_ops`` (see
    :func:`_transform`).  ``u``, ``u_inv`` and ``v`` are each built by
    replaying the log onto an identity the first time they are read, and
    kept from then on, so a caller that reads only ranks or invariant
    factors never builds a transform.
    """

    matrix: Matrix
    s: Matrix
    invariant_factors: tuple[int, ...]
    row_ops: list = field(repr=False)
    col_ops: list = field(repr=False)

    @cached_property
    def u(self) -> Matrix:
        return _transform(self.row_ops, self.s.ring, self.s.rows)

    @cached_property
    def u_inv(self) -> Matrix:
        return _transform(self.row_ops, self.s.ring, self.s.rows, inverse=True, transposed=True)

    @cached_property
    def v(self) -> Matrix:
        return _transform(self.col_ops, self.s.ring, self.s.cols, transposed=True)

    @property
    def rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d != 0)

    @property
    def torsion(self) -> tuple[int, ...]:
        """Invariant factors above one: the torsion of the cokernel."""
        return tuple(d for d in self.invariant_factors if d > 1)

    def kernel(self) -> SubspaceBasis:
        """Generators of the (saturated) submodule ``{x : matrix @ x = 0}``, each topmost nonzero positive."""
        n, factors = self.matrix.cols, self.invariant_factors
        if not self.rank:
            return SubspaceBasis(n, Matrix.identity(self.matrix.ring, n))
        basis = self.v.cols_at([j for j in range(n) if j >= len(factors) or factors[j] == 0])
        return SubspaceBasis(n, _sign_normalize(basis))

    def image(self) -> SubspaceBasis:
        """Generators of the image submodule: ``U^-1[:, :r] @ S[:r, :r]``, the product skipped when ``S[:r, :r]`` is one."""
        r = self.rank
        basis = self.u_inv.cols_at(range(r))
        if self.torsion:
            basis = basis @ self.s.submatrix(range(r), range(r))
        return SubspaceBasis(self.matrix.rows, basis)

    def image_coords(self, v: Matrix) -> Matrix:
        """Coordinates in :meth:`image` of columns ``v`` that lie in the image."""
        return self._divided(self.u.submatrix(range(self.rank), range(self.matrix.rows)) @ v)

    def solve(self, b: Matrix):
        """One integral solution ``x`` of ``matrix @ x = b``, or ``None``, also when only Q has one."""
        r, torsion = self.rank, self.torsion
        c = self.u @ b
        # Only the last rows of c[:r], those of factors above one, can fail to divide.
        if any(map(any, c.data[r:])) or any(x % d for d, row in zip(torsion, c.data[r - len(torsion):r]) for x in row):
            return None
        return self.v.submatrix(range(self.matrix.cols), range(r)) @ self._divided(c.submatrix(range(r), range(b.cols)))

    def _divided(self, c: Matrix) -> Matrix:
        """``c`` (``rank`` rows) with each row divided by its invariant factor; a factor of one, which comes first, divides nothing."""
        torsion = self.torsion
        if not torsion:
            return c
        ones = c.rows - len(torsion)
        divided = (tuple(x // d for x in row) for d, row in zip(torsion, c.data[ones:]))
        return Matrix._raw(c.ring, c.rows, c.cols, c.data[:ones] + tuple(divided))


@dataclass(frozen=True)
class SubspaceBasis:
    """Columns of ``vectors`` form a basis of a subspace/pure submodule."""

    ambient_dim: int
    vectors: Matrix

    @property
    def dim(self) -> int:
        return self.vectors.cols

    def __post_init__(self):
        if self.vectors.rows != self.ambient_dim:
            raise ShapeMismatch("basis vectors do not live in the ambient module")


def rref(a: Matrix) -> RrefResult:
    """Reduced row-echelon form over a field; the pivots come first, the rest on first read (see :class:`RrefResult`)."""
    if not a.ring.is_field:
        raise NotAField(f"rref needs a field, got {a.ring}")
    return RrefResult(a)


def _reduce(a: Matrix) -> tuple[Matrix, tuple[int, ...], Matrix]:
    """The reduced row-echelon form of ``a`` over a field, its pivot columns and its left transform.

    The reduced :func:`_bareiss` eliminates the rows of ``[a | I]``
    together, so the transform is the right block, built in the same pass.
    Each row is the last pivot ``d`` times its rref row, the transform's
    pivot rows over ``den`` as well (clearing denominators scales only
    those); over F_p both are one, and nothing is divided.  An echelon
    equal to its input (an input in reduced form, where nothing is
    swapped, scaled or subtracted) comes with the marked identity.
    """
    m, n = a.rows, a.cols
    pivots, d, _, rows, den = _bareiss(a, True)
    if den != 1:
        for row in rows[: len(pivots)]:
            row[n:] = [den * x for x in row[n:]]
    if d != 1:
        rows = [[(x // d if not x % d else Fraction(x, d)) if x else x for x in row] for row in rows]
    echelon = Matrix._raw(a.ring, m, n, tuple(tuple(row[:n]) for row in rows))
    if echelon.data == a.data:
        return echelon, pivots, Matrix.identity(a.ring, m)
    return echelon, pivots, Matrix._raw(a.ring, m, m, tuple(tuple(row[n:]) for row in rows))


def _transform(ops, ring, m: int, inverse=False, transposed=False) -> Matrix:
    """The ``m x m`` transform a Smith log ``ops`` builds on the identity, transposed if asked; I when ``ops`` is empty.

    ``(i, t)`` swaps rows ``i`` and ``t``, ``(i, t, q)`` subtracts ``q``
    times row ``t`` from row ``i`` and ``(i, None, -1)`` negates row ``i``;
    every entry stays an ``int``, so no ring arithmetic is needed.  A
    column operation on ``V`` is the same operation on the rows of its
    transpose, so :func:`smith_normal_form` logs ``V``'s column operations
    in this form too.  With ``inverse`` each subtraction is undone on the
    other side, which builds the transpose of the inverse: row ``t`` gains
    ``q`` times row ``i``.  Swaps and negations are their own inverse
    transposes.
    """
    if not ops:
        return Matrix.identity(ring, m)
    rows = Matrix.identity(ring, m).grid()
    for op in ops:
        if len(op) == 2:
            i, t = op
            rows[i], rows[t] = rows[t], rows[i]
            continue
        i, t, q = op
        if t is None:
            rows[i] = [-v for v in rows[i]]
            continue
        if inverse:
            i, t, q = t, i, -q
        dst = rows[i]
        for j, y in enumerate(rows[t]):
            if y:
                dst[j] -= q * y
    return Matrix._raw(ring, m, m, tuple(zip(*rows)) if transposed else tuple(map(tuple, rows)))


def smith_normal_form(a: Matrix) -> SnfResult:
    """Smith normal form over Z; its unimodular transforms are built on first read.

    Each pivot is the smallest-absolute-value nonzero entry of the
    remaining submatrix, ties row-major, so the search returns at the
    first entry of absolute value one.  A pivot that does not divide the
    rest of the submatrix folds an offending row in and shrinks; a pivot
    of one divides everything, and the scan for offenders is skipped.
    """
    if not isinstance(a.ring, Integers):
        raise NotIntegerRing(f"Smith normal form needs Z, got {a.ring}")
    m, n = a.rows, a.cols
    w = a.grid()
    # Row operations act on U (and U^-1); column operations act on V and
    # are logged as the same operations on V's transpose.
    row_ops: list[tuple[int, ...]] = []
    col_ops: list[tuple[int, ...]] = []

    def row_sub(i, t, q):
        # row_i -= q * row_t
        if not q:
            return
        dst = w[i]
        for j, y in enumerate(w[t]):
            if y:
                dst[j] -= q * y
        row_ops.append((i, t, q))

    def row_swap(i, t):
        w[i], w[t] = w[t], w[i]
        row_ops.append((i, t))

    def row_neg(i):
        w[i] = [-x for x in w[i]]
        row_ops.append((i, None, -1))

    def col_sub(j, t, q):
        # col_j -= q * col_t
        if not q:
            return
        for row in w:
            if row[t]:
                row[j] -= q * row[t]
        col_ops.append((j, t, q))

    def col_swap(j, t):
        for row in w:
            row[j], row[t] = row[t], row[j]
        col_ops.append((j, t))

    def find_pivot(t):
        best = None
        pos = None
        for i in range(t, m):
            row = w[i]
            for j in range(t, n):
                val = row[j]
                if val != 0:
                    av = -val if val < 0 else val
                    if av == 1:
                        return i, j  # no smaller entry exists, none earlier ties
                    if best is None or av < best:
                        best = av
                        pos = (i, j)
        return pos

    for t in range(min(m, n)):
        pos = find_pivot(t)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                row_swap(i, t)
            if j != t:
                col_swap(j, t)
            if w[t][t] < 0:
                row_neg(t)
            # Clear column t below the pivot, gcd-stepping when needed.
            restart = False
            for i in range(t + 1, m):
                while w[i][t] != 0:
                    q = w[i][t] // w[t][t]
                    row_sub(i, t, q)
                    if w[i][t] != 0:
                        row_swap(i, t)  # strictly smaller pivot
            # Clear row t to the right; a column swap can dirty column t.
            for j in range(t + 1, n):
                while w[t][j] != 0:
                    q = w[t][j] // w[t][t]
                    col_sub(j, t, q)
                    if w[t][j] != 0:
                        col_swap(j, t)
                        restart = True
            # Column t is clear below the pivot unless a column swap moved it.
            if restart:
                pos = (t, t)
                continue
            # Enforce divisibility into the remaining submatrix; 1 divides everything.
            d = w[t][t]
            if d == 1:
                break
            offender = None
            for i in range(t + 1, m):
                row = w[i]
                for j in range(t + 1, n):
                    if row[j] % d != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # Fold the offending row into row t; re-clearing shrinks the pivot.
            row_sub(t, offender, -1)
            pos = (t, t)

    factors = tuple(w[i][i] for i in range(min(m, n)))
    return SnfResult(a, Matrix._raw(a.ring, m, n, tuple(map(tuple, w))), factors, row_ops, col_ops)


def factor(a: Matrix) -> RrefResult | SnfResult:
    """Eliminate ``a`` once: :func:`rref` over a field, :func:`smith_normal_form` over Z."""
    return rref(a) if a.ring.is_field else smith_normal_form(a)


def rank(a: Matrix) -> int:
    """Rank over the fraction field (equals nonzero invariant factors over Z)."""
    return factor(a).rank


def det(a: Matrix):
    """Exact determinant of a square matrix, by one formula over every ring.

    The signed last pivot of a forward :func:`_bareiss` on ``a`` with its
    denominators cleared by their lcm ``den`` is ``den ** n`` times the
    determinant; the quotient, normalized by the ring, is the answer (over
    F_p, ``d = den = 1`` and ``sign`` is the product of the units divided
    out, with the swaps' sign).  Neither an rref nor a
    Smith form is run, so ``det`` can check their transforms independently.
    """
    if a.rows != a.cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    pivots, d, sign, _, den = _bareiss(a, False)
    return a.ring.normalize(Fraction(sign * d if len(pivots) == a.rows else 0, den**a.rows))


def solve_matrix(a: Matrix, b: Matrix):
    """Solve ``a @ x = b`` column by column; ``None`` if any column fails.

    See :meth:`RrefResult.solve` and :meth:`SnfResult.solve`: over Z a
    returned solution is integral.
    """
    if b.rows != a.rows:
        raise ShapeMismatch(f"rhs {b.rows}x{b.cols} against {a.rows}x{a.cols}")
    return factor(a).solve(b)


def inverse(a: Matrix) -> Matrix:
    """Exact inverse; over Z only unimodular matrices qualify."""
    if a.rows != a.cols:
        raise ShapeMismatch("inverse of a non-square matrix")
    if a.ring.is_field:
        _, pivots, transform = rref(a)._reduced
        if len(pivots) != a.rows:
            raise NotInvertible("singular matrix")
        return transform
    snf = smith_normal_form(a)
    if any(d != 1 for d in snf.invariant_factors):
        raise NotInvertible(f"not unimodular: invariant factors {list(snf.invariant_factors)}")
    return snf.v @ snf.u


def kernel_basis(a: Matrix) -> SubspaceBasis:
    """Basis of ``{x : a @ x = 0}``; see :meth:`RrefResult.kernel` and :meth:`SnfResult.kernel`."""
    return factor(a).kernel()


def image_basis(a: Matrix) -> SubspaceBasis:
    """Basis of the column space; over Z it generates the image submodule."""
    return factor(a).image()


def _sign_normalize(basis: Matrix) -> Matrix:
    """Scale columns so the topmost nonzero entry is positive / one."""
    ring = basis.ring
    cols = []
    for col in zip(*basis.data):
        lead = next(filter(None, col), 1)  # a zero column stays as it is
        if ring.is_field and lead != 1:
            inv = ring.inv(lead)
            col = [ring.normalize(v * inv) for v in col]
        elif not ring.is_field and lead < 0:
            col = [-v for v in col]
        cols.append(col)
    return Matrix._raw(ring, basis.rows, basis.cols, tuple(zip(*cols)) if cols else basis.data)


def _bareiss(a: Matrix, reduced: bool) -> tuple[tuple[int, ...], int, int, list[list[int]], int]:
    """Eliminate ``a`` fraction-free; the pivot columns, the last pivot, the unit sign, the rows and ``den``.

    The rows are ``a``'s times the lcm ``den`` of its denominators, as
    ``@`` clears them, and ``[den * a | I]`` with ``reduced``.  Elimination
    (Bareiss 1968) over ``a``'s columns, with the pivot rule of
    :func:`rref`, keeps each row it updates the latest pivot times its
    rational counterpart, so every division is exact and the pivots match.
    The rows below each pivot are cleared, and with ``reduced`` those above
    too, which leaves each row the last pivot ``d`` times its rref row.
    ``d`` is the minor on the pivot rows and columns, up to the sign of the
    row swaps, either way: rows above a pivot never feed a later one.  So
    ``sign * d`` is ``den ** n`` times the determinant of an ``n x n``
    nonsingular square.

    A step whose pivot is minus the previous one (a rational pivot of -1,
    as at each sign change along a simplicial boundary) would negate every
    row.  The pivot row is negated instead and the sign flipped, so the
    step is one with an equal pivot and touches only the rows with a
    nonzero in the pivot column.  Every row after it is the negative of
    what it would have been, with the same zeros, and so is ``d`` from then
    on; the pivots, ``sign * d`` and each row over ``d`` are the same.
    Over F_p each nonzero pivot is a unit, divided out of its row and into
    ``sign`` mod p, so ``d`` stays one: each step is ``x - f y`` mod p.
    """
    numerators, den = _numerators(a.data)
    p = a.ring.p if a.ring.needs_reduction else 0
    m, n = a.rows, a.cols
    eye = Matrix.identity(a.ring, m).grid() if reduced else [[]] * m
    work = [list(row) + e for row, e in zip(numerators, eye)]
    pivots: list[int] = []
    prev, sign = 1, 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if work[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            sign = -sign
        top = work[r]
        piv = top[c]
        if p and piv != 1:
            inv = pow(piv, -1, p)
            top = work[r] = [x * inv % p if x else x for x in top]
            piv, sign = 1, sign * piv % p
        elif piv == -prev:
            # Negated, the pivot row makes this a piv == prev step, which
            # leaves the rows with a zero in column c alone.
            top = work[r] = [-x for x in top]
            piv, sign = prev, -sign
        nz = [(j, y) for j, y in enumerate(top) if y]
        first = 0 if reduced else r + 1
        for i, row in enumerate(work[first:], first):
            f = row[c]
            if not f and piv == prev or i == r:
                continue
            if piv != prev:
                work[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)] if f else [piv * x // prev for x in row]
            elif p:
                for j, y in nz:
                    row[j] = (row[j] - f * y) % p
            else:  # (prev x - f y) / prev = x - f y / prev
                for j, y in nz:
                    row[j] -= f * y // prev
        pivots.append(c)
        prev = piv
    return tuple(pivots), prev, sign, work, den


def _bottom_pivots(sub: Matrix) -> tuple[list[int], Matrix | None]:
    """Rows carrying the bottommost pivots of the column span of ``sub``.

    Computed as echelon pivots after reversing the coordinate order, so a
    column like (1,1,1) pivots at its last row.  This choice is what makes
    complements prefer *early* standard vectors.  Returns the rows bottom
    up together with the inverse of ``sub`` restricted to them, in that
    order: the echelon transform of the reversed transpose is that
    inverse, transposed.  Over Z the elimination is fraction-free: that
    transform is the right block over the last pivot ``d``, and the inverse
    is ``None`` unless ``d`` is ±1, when it is integral.
    """
    m, k = sub.rows, sub.cols
    reversed_rows = sub.submatrix(range(m - 1, -1, -1), range(k)).transpose()
    if sub.ring.is_field:
        _, pivots, transform = rref(reversed_rows)._reduced
    else:
        pivots, d, _, rows, _ = _bareiss(reversed_rows, True)
        transform = Matrix._raw(sub.ring, k, k, tuple(tuple(d * x for x in row[m:]) for row in rows)) if abs(d) == 1 else None
    if len(pivots) != k:
        raise ValidationError("basis columns are not independent")
    return [m - 1 - p for p in pivots], None if transform is None else transform.transpose()


def complement_basis(sub: SubspaceBasis) -> SubspaceBasis:
    """A direct complement of ``sub`` in its ambient free module.

    The choice is deterministic: standard basis vectors at the non-pivot
    rows of the column echelon form of ``sub`` (pivots taken bottommost).
    Over Z that candidate may fail to complete a basis even for a pure
    submodule, in which case the completion falls back to the columns of
    the Smith transform.  Raises :class:`NotSaturated` when no complement
    exists at all (torsion quotient).
    """
    return complement_and_inverse(sub)[0]


def complement_and_inverse(sub: SubspaceBasis) -> tuple[SubspaceBasis, Matrix]:
    """:func:`complement_basis` of ``sub`` and the inverse of ``[complement | sub]``.

    The inverse converts ambient coordinates to (complement | sub)
    coordinates.  It is read off the same elimination that picks the
    complement, which over Z is fraction-free: the standard candidate
    completes a basis exactly when the pivot rows of ``sub`` have an
    integral inverse, and only the fallback runs a Smith form.
    """
    ring = sub.vectors.ring
    m = sub.ambient_dim
    k = sub.dim
    if sub.vectors.marked_identity:
        return SubspaceBasis(m, Matrix.zeros(ring, m, 0)), sub.vectors
    eye = Matrix.identity(ring, m)
    if k == 0:
        return SubspaceBasis(m, eye), eye
    rows, rows_inv = _bottom_pivots(sub.vectors)
    if rows_inv is not None:
        # x = e_free a + sub b: b = rows_inv x[rows], a = x[free] - sub[free] b.
        pivot_rows = set(rows)
        free = [i for i in range(m) if i not in pivot_rows]
        to_sub = rows_inv.transpose().placed(m, rows).transpose()  # rows_inv @ I[rows, :]
        to_comp = eye.submatrix(free, range(m)) - sub.vectors.submatrix(free, range(k)) @ to_sub
        return SubspaceBasis(m, eye.cols_at(free)), vstack([to_comp, to_sub])
    snf = smith_normal_form(sub.vectors)
    bad = [d for d in snf.invariant_factors if d != 1]
    if bad:
        raise NotSaturated(bad)
    # Fall back to completing through U^-1: columns k..m extend B*V to a basis,
    # and U [U^-1[:, k:] | B] = [[0, V^-1], [I, 0]].
    u = snf.u
    to_comp = u.submatrix(range(k, m), range(m))
    to_sub = snf.v @ u.submatrix(range(k), range(m))
    return SubspaceBasis(m, snf.u_inv.cols_at(list(range(k, m)))), vstack([to_comp, to_sub])


def spans_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """Whether two bases span the same subspace (submodule, over Z)."""
    if a.ambient_dim != b.ambient_dim:
        raise ShapeMismatch("ambient dimensions differ")
    if a.dim != b.dim:
        return False
    return solve_matrix(a.vectors, b.vectors) is not None and solve_matrix(b.vectors, a.vectors) is not None


def intersect(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Basis of the intersection of two spans in the same ambient module."""
    if a.ambient_dim != b.ambient_dim:
        raise ShapeMismatch("ambient dimensions differ")
    if a.dim == 0 or b.dim == 0:
        return SubspaceBasis(a.ambient_dim, Matrix.zeros(a.vectors.ring, a.ambient_dim, 0))
    stacked = hstack([a.vectors, -b.vectors])
    ker = kernel_basis(stacked)
    coeffs = ker.vectors.submatrix(range(a.dim), range(ker.dim))
    return SubspaceBasis(a.ambient_dim, a.vectors @ coeffs)
