"""Exact linear algebra: elimination, Smith normal form, solves.

Matrices are stored dense; eliminations update only the entries where
the pivot row (or column) is nonzero, so sparse inputs cost little more
than their nonzeros.  Over Z nothing leaves the integers: Smith forms
and complement splits (which pivot fraction-free, after Bareiss) work on
``int``s, and only Q computes with ``Fraction``s.

``rref`` and ``smith_normal_form`` update only their working matrix and
log each elementary operation they apply.  Their transforms (the rref's
left transform; a Smith form's ``U``, ``U^-1`` and ``V``) are built by
replaying that log onto an identity the first time something reads them,
so a rank or an invariant factor costs one elimination and no transform,
and a transform that is read costs no more than updating it inline did.

Everything here is deterministic.  Over a field the reduced row-echelon
form uses the first nonzero entry in each column as pivot; over Z the
Smith reduction picks the smallest-absolute-value nonzero entry of the
remaining submatrix, breaking ties row-major.  Determinism matters
because downstream basis choices (complements, kernel generators) feed
golden tests and reproducible certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .errors import (
    NotAField,
    NotIntegerRing,
    NotInvertible,
    NotSaturated,
    ShapeMismatch,
    ValidationError,
)
from .matrix import Matrix, hstack, vstack
from .rings import Integers


@dataclass(frozen=True)
class RrefResult:
    """``transform @ input == echelon`` with ``transform`` invertible.

    The elimination keeps only ``echelon`` and ``pivots`` and logs its row
    operations in ``steps``, one ``(row, pivot_row, inverse, eliminations)``
    per pivot: the swap of ``row`` with ``pivot_row``, the scaling of the
    pivot row by ``inverse`` (``None`` when the pivot is already one), and
    the ``(i, f)`` pairs that subtract ``f`` times the pivot row from row
    ``i``.  ``transform`` replays that log onto the identity the first time
    it is read, and is kept from then on.
    """

    echelon: Matrix
    pivots: tuple[int, ...]
    steps: list = field(repr=False)

    @cached_property
    def transform(self) -> Matrix:
        m = self.echelon.rows
        return Matrix._raw(self.echelon.ring, m, m, _replay_rref(self.echelon.ring, m, self.steps))


@dataclass(frozen=True)
class SnfResult:
    """``u @ input @ v == s`` with ``u``, ``v`` unimodular.

    ``s`` is diagonal, entries nonnegative, each dividing the next, zeros
    trailing.  ``invariant_factors`` is the full diagonal of ``s`` (length
    ``min(rows, cols)``).  ``u_inv`` is available because image bases and
    basis completions read off its columns.

    The elimination updates ``s`` alone and logs its row operations in
    ``row_ops`` and its column operations in ``col_ops`` (see
    :func:`_replay`).  ``u``, ``u_inv`` and ``v`` are each built by
    replaying the log onto an identity the first time they are read, and
    kept from then on, so a caller that reads only ranks or invariant
    factors never builds a transform.
    """

    s: Matrix
    invariant_factors: tuple[int, ...]
    row_ops: list = field(repr=False)
    col_ops: list = field(repr=False)

    @cached_property
    def u(self) -> Matrix:
        m = self.s.rows
        return Matrix._raw(self.s.ring, m, m, _replay(self.row_ops, m))

    @cached_property
    def u_inv(self) -> Matrix:
        m = self.s.rows
        return Matrix._raw(self.s.ring, m, m, zip(*_replay(self.row_ops, m, inverse=True)))

    @cached_property
    def v(self) -> Matrix:
        n = self.s.cols
        return Matrix._raw(self.s.ring, n, n, zip(*_replay(self.col_ops, n)))


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
    """Reduced row-echelon form over a field; its left transform is built on first read."""
    ring = a.ring
    if not ring.is_field:
        raise NotAField(f"rref needs a field, got {ring}")
    m, n = a.rows, a.cols
    red = ring.reduce if ring.needs_reduction else (lambda v: v)
    work = a.grid()
    steps = []
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = None
        if work[r][c] != 1:
            inv = ring.inv(work[r][c])
            work[r] = [red(v * inv) if v else v for v in work[r]]
        wnz = [(j, y) for j, y in enumerate(work[r]) if y]
        eliminations = []
        for i in range(m):
            f = work[i][c]
            if i != r and f != 0:
                wi = work[i]
                for j, y in wnz:
                    wi[j] = red(wi[j] - f * y)
                eliminations.append((i, f))
        steps.append((r, pivot_row, inv, eliminations))
        pivots.append(c)
        r += 1
    return RrefResult(Matrix._raw(ring, m, n, work), tuple(pivots), steps)


def _replay_rref(ring, m: int, steps) -> list[list]:
    """The ``m``-by-``m`` identity after the row operations :func:`rref` logged in ``steps``."""
    red = ring.reduce if ring.needs_reduction else (lambda v: v)
    trans = Matrix.identity(ring, m).grid()
    for r, pivot_row, inv, eliminations in steps:
        trans[r], trans[pivot_row] = trans[pivot_row], trans[r]
        if inv is not None:
            trans[r] = [red(v * inv) if v else v for v in trans[r]]
        tnz = [(j, y) for j, y in enumerate(trans[r]) if y]
        for i, f in eliminations:
            ti = trans[i]
            for j, y in tnz:
                ti[j] = red(ti[j] - f * y)
    return trans


def _eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _replay(ops, k: int, inverse: bool = False) -> list[list[int]]:
    """The ``k``-by-``k`` integer identity after the row operations ``ops``, in order.

    ``(i, t, q)`` subtracts ``q`` times row ``t`` from row ``i``, ``(i, t)``
    swaps the two rows and ``(i,)`` negates row ``i``.  A column operation
    on a transform is the same operation on the rows of its transpose, so
    :func:`smith_normal_form` logs ``V``'s column operations in this form
    too.  With ``inverse`` each subtraction is undone on the other side,
    which builds the transpose of the inverse: row ``t`` gains ``q`` times
    row ``i`` (swaps and negations are their own inverse transposes).
    """
    g = _eye(k)
    for op in ops:
        if len(op) == 3:
            i, t, q = op
            if inverse:
                i, t, q = t, i, -q
            dst = g[i]
            for j, y in enumerate(g[t]):
                if y:
                    dst[j] -= q * y
        elif len(op) == 2:
            i, t = op
            g[i], g[t] = g[t], g[i]
        else:
            (i,) = op
            g[i] = [-x for x in g[i]]
    return g


def smith_normal_form(a: Matrix) -> SnfResult:
    """Smith normal form over Z; its unimodular transforms are built on first read."""
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
        row_ops.append((i,))

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
            if restart or any(w[i][t] != 0 for i in range(t + 1, m)):
                pos = (t, t)
                continue
            # Enforce divisibility into the remaining submatrix.
            offender = None
            d = w[t][t]
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
    return SnfResult(Matrix._raw(a.ring, m, n, w), factors, row_ops, col_ops)


@dataclass(frozen=True)
class Factorization:
    """One elimination of ``matrix``: its rref over a field, its Smith form over Z.

    Rank, invariant factors, kernel and image bases and solves all read off
    this one result, so a matrix that is used in several ways is
    eliminated once.
    """

    matrix: Matrix
    reduced: Optional[RrefResult] = None
    snf: Optional[SnfResult] = None

    @property
    def rank(self) -> int:
        if self.reduced is not None:
            return len(self.reduced.pivots)
        return sum(1 for d in self.snf.invariant_factors if d != 0)

    @property
    def torsion(self) -> tuple[int, ...]:
        """Invariant factors above one: the torsion of the cokernel (none over a field)."""
        if self.snf is None:
            return ()
        return tuple(d for d in self.snf.invariant_factors if d > 1)

    def kernel(self) -> SubspaceBasis:
        """Basis of ``{x : matrix @ x = 0}``.

        Over Z the returned columns generate the full kernel submodule (which
        is automatically saturated).  Columns are sign-normalized so that the
        topmost nonzero entry is positive (fields: equal to one).
        """
        a = self.matrix
        ring, n = a.ring, a.cols
        if self.reduced is not None:
            pivots = list(self.reduced.pivots)
            echelon = self.reduced.echelon.data
            cols = []
            for j in range(n):
                if j in pivots:
                    continue
                vec = [ring.normalize(0)] * n
                vec[j] = ring.normalize(1)
                for row, col in enumerate(pivots):
                    vec[col] = ring.reduce(-echelon[row][j]) if ring.needs_reduction else -echelon[row][j]
                cols.append(vec)
            basis = Matrix._raw(ring, n, len(cols), zip(*cols)) if cols else Matrix.zeros(ring, n, 0)
        else:
            factors = self.snf.invariant_factors
            basis = self.snf.v.cols_at([j for j in range(n) if j >= len(factors) or factors[j] == 0])
        return SubspaceBasis(n, _sign_normalize(basis))

    def image(self) -> SubspaceBasis:
        """Basis of the column space; over Z it generates the image submodule."""
        a = self.matrix
        if self.reduced is not None:
            return SubspaceBasis(a.rows, a.cols_at(list(self.reduced.pivots)))
        snf = self.snf
        cols = [snf.u_inv.col(i).scale(d) for i, d in enumerate(snf.invariant_factors) if d != 0]
        return SubspaceBasis(a.rows, hstack(cols) if cols else Matrix.zeros(a.ring, a.rows, 0))

    def image_coords(self, v: Matrix) -> Matrix:
        """Coordinates in :meth:`image` of columns ``v`` that lie in the image."""
        r = self.rank
        if self.reduced is not None:
            return self.reduced.transform.submatrix(range(r), range(self.matrix.rows)) @ v
        d = self.snf.invariant_factors
        uv = self.snf.u.submatrix(range(r), range(self.matrix.rows)) @ v
        return Matrix._raw(v.ring, r, v.cols, [[x // d[i] for x in row] for i, row in enumerate(uv.data)])

    def solve(self, b: Matrix):
        """One exact solution ``x`` of ``matrix @ x = b``, or ``None``.

        Over Z the solution, when returned, is integral; ``None`` also covers
        systems solvable over Q but not over Z.
        """
        a = self.matrix
        ring = a.ring
        if self.reduced is not None:
            c = self.reduced.transform @ b
            pivots = self.reduced.pivots
            if any(v != 0 for row in c.data[len(pivots):] for v in row):
                return None
            x = [[ring.normalize(0)] * b.cols for _ in range(a.cols)]
            for row, col in enumerate(pivots):
                x[col] = c.data[row]
            return Matrix._raw(ring, a.cols, b.cols, x)
        factors = self.snf.invariant_factors
        c = self.snf.u @ b
        y = [[0] * b.cols for _ in range(a.cols)]
        for i, row in enumerate(c.data):
            d = factors[i] if i < len(factors) else 0
            for j, ci in enumerate(row):
                if d == 0:
                    if ci != 0:
                        return None
                elif ci % d != 0:
                    return None
                else:
                    y[i][j] = ci // d
        return self.snf.v @ Matrix._raw(ring, a.cols, b.cols, y)


def factor(a: Matrix) -> Factorization:
    """Eliminate ``a`` once: rref over a field, Smith normal form over Z."""
    if a.ring.is_field:
        return Factorization(a, reduced=rref(a))
    return Factorization(a, snf=smith_normal_form(a))


def rank(a: Matrix) -> int:
    """Rank over the fraction field (equals nonzero invariant factors over Z)."""
    return factor(a).rank


def det(a: Matrix):
    """Exact determinant of a square matrix."""
    if a.rows != a.cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return a.ring.normalize(1)
    if a.ring.is_field:
        ring = a.ring
        red = ring.reduce if ring.needs_reduction else (lambda v: v)
        w = a.grid()
        result = ring.normalize(1)
        for c in range(n):
            piv = next((i for i in range(c, n) if w[i][c] != 0), None)
            if piv is None:
                return ring.normalize(0)
            if piv != c:
                w[c], w[piv] = w[piv], w[c]
                result = red(-result)
            result = red(result * w[c][c])
            inv = ring.inv(w[c][c])
            for i in range(c + 1, n):
                f = red(w[i][c] * inv)
                if f != 0:
                    w[i] = [red(x - f * y) for x, y in zip(w[i], w[c])]
        return result
    # Bareiss fraction-free elimination over Z.
    w = a.grid()
    sign = 1
    prev = 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if w[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            w[c], w[piv] = w[piv], w[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                w[i][j] = (w[i][j] * w[c][c] - w[i][c] * w[c][j]) // prev
            w[i][c] = 0
        prev = w[c][c]
    return sign * w[n - 1][n - 1]


def solve_matrix(a: Matrix, b: Matrix):
    """Solve ``a @ x = b`` column by column; ``None`` if any column fails.

    See :meth:`Factorization.solve`: over Z a returned solution is integral.
    """
    if b.rows != a.rows:
        raise ShapeMismatch(f"rhs {b.rows}x{b.cols} against {a.rows}x{a.cols}")
    return factor(a).solve(b)


def inverse(a: Matrix) -> Matrix:
    """Exact inverse; over Z only unimodular matrices qualify."""
    if a.rows != a.cols:
        raise ShapeMismatch("inverse of a non-square matrix")
    if a.ring.is_field:
        res = rref(a)
        if len(res.pivots) != a.rows:
            raise NotInvertible("singular matrix")
        return res.transform
    snf = smith_normal_form(a)
    if any(d != 1 for d in snf.invariant_factors):
        raise NotInvertible(f"not unimodular: invariant factors {list(snf.invariant_factors)}")
    return snf.v @ snf.u


def kernel_basis(a: Matrix) -> SubspaceBasis:
    """Basis of ``{x : a @ x = 0}``; see :meth:`Factorization.kernel`."""
    return factor(a).kernel()


def image_basis(a: Matrix) -> SubspaceBasis:
    """Basis of the column space; over Z it generates the image submodule."""
    return factor(a).image()


def _sign_normalize(basis: Matrix) -> Matrix:
    """Scale columns so the topmost nonzero entry is positive / one."""
    ring = basis.ring
    cols = []
    for j in range(basis.cols):
        col = [basis.data[i][j] for i in range(basis.rows)]
        lead = next((v for v in col if v != 0), None)
        if lead is not None:
            if ring.is_field:
                if lead != 1:
                    inv = ring.inv(lead)
                    red = ring.reduce if ring.needs_reduction else (lambda v: v)
                    col = [red(v * inv) for v in col]
            elif lead < 0:
                col = [-v for v in col]
        cols.append(col)
    if not cols:
        return basis
    return Matrix._raw(ring, basis.rows, basis.cols, zip(*cols))


def _fraction_free_rref(a: Matrix) -> tuple[tuple[int, ...], Optional[Matrix]]:
    """Pivot columns of integer ``a`` over Q, and its rref transform if integral (else ``None``).

    Fraction-free Gauss-Jordan (Bareiss 1968) on ``[a | I]`` with the pivot
    rule of :func:`rref`: each row stays the latest pivot times its rational
    counterpart, so every division is exact and the pivots match.  At full
    row rank the transform is integral exactly when the last pivot ``d`` is
    ±1, and is then ``d`` times the augmented block.
    """
    m, n = a.rows, a.cols
    work = [list(row) + e for row, e in zip(a.data, _eye(m))]
    pivots: list[int] = []
    prev = 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        top = work[r]
        piv = top[c]
        nz = [(j, y) for j, y in enumerate(top) if y]
        for i, row in enumerate(work):
            f = row[c]
            if i == r:
                continue
            if piv != prev:
                work[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)] if f else [piv * x // prev for x in row]
            elif f:  # (prev x - f y) / prev = x - f y / prev
                for j, y in nz:
                    row[j] -= f * y // prev
        pivots.append(c)
        prev = piv
    if len(pivots) < m or abs(prev) != 1:
        return tuple(pivots), None
    return tuple(pivots), Matrix._raw(a.ring, m, m, [[prev * x for x in row[n:]] for row in work])


def _bottom_pivots(sub: Matrix) -> tuple[list[int], Optional[Matrix]]:
    """Rows carrying the bottommost pivots of the column span of ``sub``.

    Computed as echelon pivots after reversing the coordinate order, so a
    column like (1,1,1) pivots at its last row.  This choice is what makes
    complements prefer *early* standard vectors.  Returns the rows bottom
    up together with the inverse of ``sub`` restricted to them, in that
    order: the echelon transform of the reversed transpose is that
    inverse, transposed.  Over Z the elimination is fraction-free and the
    inverse is ``None`` when it is not integral.
    """
    m = sub.rows
    reversed_rows = Matrix._raw(sub.ring, sub.cols, m, [[row[j] for row in reversed(sub.data)] for j in range(sub.cols)])
    if sub.ring.is_field:
        res = rref(reversed_rows)
        pivots, transform = res.pivots, res.transform
    else:
        pivots, transform = _fraction_free_rref(reversed_rows)
    if len(pivots) != sub.cols:
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
    eye = Matrix.identity(ring, m)
    if k == 0:
        return SubspaceBasis(m, eye), eye
    rows, rows_inv = _bottom_pivots(sub.vectors)
    if rows_inv is not None:
        # x = e_free a + sub b: b = rows_inv x[rows], a = x[free] - sub[free] b.
        free = [i for i in range(m) if i not in rows]
        zero = ring.normalize(0)
        to_sub = [[zero] * m for _ in range(k)]
        for j, r in enumerate(rows):
            for i in range(k):
                to_sub[i][r] = rows_inv.data[i][j]
        to_sub = Matrix._raw(ring, k, m, to_sub)
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
