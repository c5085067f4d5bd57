"""Exact linear algebra: elimination, Smith normal form, solves.

Matrices are stored dense; eliminations update only the entries where
the pivot row (or column) is nonzero, so sparse inputs cost little more
than their nonzeros.

Everything here is deterministic.  Over a field the reduced row-echelon
form uses the first nonzero entry in each column as pivot; over Z the
Smith reduction picks the smallest-absolute-value nonzero entry of the
remaining submatrix, breaking ties row-major.  Determinism matters
because downstream basis choices (complements, kernel generators) feed
golden tests and reproducible certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    NotAField,
    NotIntegerRing,
    NotInvertible,
    NotSaturated,
    ShapeMismatch,
    ValidationError,
)
from .matrix import Matrix, hstack
from .rings import QQ, Integers


@dataclass(frozen=True)
class RrefResult:
    """``transform @ input == echelon`` with ``transform`` invertible."""

    echelon: Matrix
    transform: Matrix
    pivots: tuple[int, ...]


@dataclass(frozen=True)
class SnfResult:
    """``u @ input @ v == s`` with ``u``, ``v`` unimodular.

    ``s`` is diagonal, entries nonnegative, each dividing the next, zeros
    trailing.  ``invariant_factors`` is the full diagonal of ``s`` (length
    ``min(rows, cols)``).  ``u_inv`` is carried along because image bases
    and basis completions read off its columns.
    """

    u: Matrix
    s: Matrix
    v: Matrix
    invariant_factors: tuple[int, ...]
    u_inv: Matrix


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
    """Reduced row-echelon form over a field, with the left transform."""
    ring = a.ring
    if not ring.is_field:
        raise NotAField(f"rref needs a field, got {ring}")
    m, n = a.rows, a.cols
    red = ring.reduce if ring.needs_reduction else (lambda v: v)
    work = a.grid()
    trans = Matrix.identity(ring, m).grid()
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        trans[r], trans[pivot_row] = trans[pivot_row], trans[r]
        inv = ring.inv(work[r][c])
        if work[r][c] != 1:
            work[r] = [red(v * inv) if v else v for v in work[r]]
            trans[r] = [red(v * inv) if v else v for v in trans[r]]
        wnz = [(j, y) for j, y in enumerate(work[r]) if y]
        tnz = [(j, y) for j, y in enumerate(trans[r]) if y]
        for i in range(m):
            f = work[i][c]
            if i != r and f != 0:
                wi, ti = work[i], trans[i]
                for j, y in wnz:
                    wi[j] = red(wi[j] - f * y)
                for j, y in tnz:
                    ti[j] = red(ti[j] - f * y)
        pivots.append(c)
        r += 1
    return RrefResult(
        Matrix._raw(ring, m, n, work),
        Matrix._raw(ring, m, m, trans),
        tuple(pivots),
    )


def smith_normal_form(a: Matrix) -> SnfResult:
    """Smith normal form over Z with unimodular transforms."""
    if not isinstance(a.ring, Integers):
        raise NotIntegerRing(f"Smith normal form needs Z, got {a.ring}")
    m, n = a.rows, a.cols
    w = a.grid()
    u = Matrix.identity(a.ring, m).grid()
    uinv = Matrix.identity(a.ring, m).grid()
    v = Matrix.identity(a.ring, n).grid()

    def row_sub(i, t, q):
        # row_i -= q * row_t ; keep u_inv consistent: col_t += q * col_i
        if not q:
            return
        for src, dst in ((w[t], w[i]), (u[t], u[i])):
            for j, y in enumerate(src):
                if y:
                    dst[j] -= q * y
        for row in uinv:
            if row[i]:
                row[t] += q * row[i]

    def row_swap(i, t):
        w[i], w[t] = w[t], w[i]
        u[i], u[t] = u[t], u[i]
        for r in range(m):
            uinv[r][i], uinv[r][t] = uinv[r][t], uinv[r][i]

    def row_neg(i):
        w[i] = [-x for x in w[i]]
        u[i] = [-x for x in u[i]]
        for r in range(m):
            uinv[r][i] = -uinv[r][i]

    def col_sub(j, t, q):
        # col_j -= q * col_t
        if not q:
            return
        for grid in (w, v):
            for row in grid:
                if row[t]:
                    row[j] -= q * row[t]

    def col_swap(j, t):
        for r in range(m):
            w[r][j], w[r][t] = w[r][t], w[r][j]
        for r in range(n):
            v[r][j], v[r][t] = v[r][t], v[r][j]

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
    return SnfResult(
        Matrix._raw(a.ring, m, m, u),
        Matrix._raw(a.ring, m, n, w),
        Matrix._raw(a.ring, n, n, v),
        factors,
        Matrix._raw(a.ring, m, m, uinv),
    )


def rank(a: Matrix) -> int:
    """Rank over the fraction field (equals nonzero invariant factors over Z)."""
    if a.ring.is_field:
        return len(rref(a).pivots)
    return sum(1 for d in smith_normal_form(a).invariant_factors if d != 0)


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


def _solver(a: Matrix):
    """Factor ``a`` once; return a function solving ``a @ x = b`` per column."""
    ring = a.ring
    if ring.is_field:
        res = rref(a)
        pivots = res.pivots
        t = res.transform
        npiv = len(pivots)

        def solve_col(b: Matrix):
            c = t @ b
            if any(c.data[i][0] != 0 for i in range(npiv, a.rows)):
                return None
            x = [ring.normalize(0)] * a.cols
            for row, col in enumerate(pivots):
                x[col] = c.data[row][0]
            return Matrix.column(ring, x)

        return solve_col

    snf = smith_normal_form(a)
    factors = snf.invariant_factors
    u, v = snf.u, snf.v

    def solve_col(b: Matrix):
        c = u @ b
        y = [0] * a.cols
        for i in range(a.rows):
            ci = c.data[i][0]
            d = factors[i] if i < len(factors) else 0
            if d == 0:
                if ci != 0:
                    return None
            else:
                if ci % d != 0:
                    return None
                if i < a.cols:
                    y[i] = ci // d
        return v @ Matrix.column(ring, y)

    return solve_col


def solve(a: Matrix, b: Matrix):
    """One exact solution of ``a @ x = b`` (column b), or ``None``.

    Over Z the solution, when returned, is integral; ``None`` also covers
    systems solvable over Q but not over Z.
    """
    if b.rows != a.rows or b.cols != 1:
        raise ShapeMismatch(f"rhs {b.rows}x{b.cols} against {a.rows}x{a.cols}")
    return _solver(a)(b)


def solve_matrix(a: Matrix, b: Matrix):
    """Solve ``a @ x = b`` column by column; ``None`` if any column fails."""
    if b.rows != a.rows:
        raise ShapeMismatch(f"rhs {b.rows}x{b.cols} against {a.rows}x{a.cols}")
    solve_col = _solver(a)
    cols = []
    for j in range(b.cols):
        x = solve_col(b.col(j))
        if x is None:
            return None
        cols.append(x)
    if not cols:
        return Matrix.zeros(a.ring, a.cols, 0)
    return hstack(cols)


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


def _lift_to_rationals(a: Matrix) -> Matrix:
    return Matrix._raw(QQ, a.rows, a.cols, [[Fraction(v) for v in row] for row in a.data])


def kernel_basis(a: Matrix) -> SubspaceBasis:
    """Basis of ``{x : a @ x = 0}``.

    Over Z the returned columns generate the full kernel submodule (which
    is automatically saturated).  Columns are sign-normalized so that the
    topmost nonzero entry is positive (fields: equal to one).
    """
    ring = a.ring
    n = a.cols
    if ring.is_field:
        res = rref(a)
        pivots = list(res.pivots)
        free = [j for j in range(n) if j not in pivots]
        cols = []
        for j in free:
            vec = [ring.normalize(0)] * n
            vec[j] = ring.normalize(1)
            for row, col in enumerate(pivots):
                vec[col] = ring.reduce(-res.echelon.data[row][j]) if ring.needs_reduction else -res.echelon.data[row][j]
            cols.append(vec)
        basis = Matrix._raw(ring, n, len(cols), zip(*cols)) if cols else Matrix.zeros(ring, n, 0)
        return SubspaceBasis(n, _sign_normalize(basis))
    snf = smith_normal_form(a)
    factors = snf.invariant_factors
    zero_cols = [j for j in range(n) if j >= len(factors) or factors[j] == 0]
    basis = snf.v.cols_at(zero_cols)
    return SubspaceBasis(n, _sign_normalize(basis))


def image_basis(a: Matrix) -> SubspaceBasis:
    """Basis of the column space; over Z it generates the image submodule."""
    ring = a.ring
    if ring.is_field:
        return SubspaceBasis(a.rows, a.cols_at(list(rref(a).pivots)))
    snf = smith_normal_form(a)
    cols = []
    for i, d in enumerate(snf.invariant_factors):
        if d != 0:
            cols.append(snf.u_inv.col(i).scale(d))
    basis = hstack(cols) if cols else Matrix.zeros(ring, a.rows, 0)
    return SubspaceBasis(a.rows, basis)


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


def _bottom_pivot_rows(sub: Matrix) -> set[int]:
    """Rows carrying the bottommost pivots of the column span of ``sub``.

    Computed as echelon pivots after reversing the coordinate order, so a
    column like (1,1,1) pivots at its last row.  This choice is what makes
    complements prefer *early* standard vectors.
    """
    m = sub.rows
    work = sub if sub.ring.is_field else _lift_to_rationals(sub)
    reversed_rows = Matrix._raw(
        work.ring,
        work.cols,
        m,
        [tuple(work.data[m - 1 - i][j] for i in range(m)) for j in range(work.cols)],
    )
    res = rref(reversed_rows)
    if len(res.pivots) != sub.cols:
        raise ValidationError("basis columns are not independent")
    return {m - 1 - p for p in res.pivots}


def complement_basis(sub: SubspaceBasis) -> SubspaceBasis:
    """A direct complement of ``sub`` in its ambient free module.

    The choice is deterministic: standard basis vectors at the non-pivot
    rows of the column echelon form of ``sub`` (pivots taken bottommost).
    Over Z that candidate may fail to complete a basis even for a pure
    submodule, in which case the completion falls back to the columns of
    the Smith transform.  Raises :class:`NotSaturated` when no complement
    exists at all (torsion quotient).
    """
    ring = sub.vectors.ring
    m = sub.ambient_dim
    k = sub.dim
    if k == 0:
        return SubspaceBasis(m, Matrix.identity(ring, m))
    snf = None
    if not ring.is_field:
        snf = smith_normal_form(sub.vectors)
        bad = [d for d in snf.invariant_factors if d != 1]
        if any(d == 0 for d in bad):
            raise ValidationError("basis columns are not independent over Z")
        if bad:
            raise NotSaturated(bad)
    pivot_rows = _bottom_pivot_rows(sub.vectors)
    free_rows = [i for i in range(m) if i not in pivot_rows]
    eye = Matrix.identity(ring, m)
    candidate = eye.cols_at(free_rows)
    if ring.is_field:
        return SubspaceBasis(m, candidate)
    if abs(det(hstack([sub.vectors, candidate]))) == 1:
        return SubspaceBasis(m, candidate)
    # Fall back to completing through U^-1: columns k..m extend B*V to a basis.
    return SubspaceBasis(m, snf.u_inv.cols_at(list(range(k, m))))


def coordinates_in(basis: SubspaceBasis, vectors: Matrix):
    """Coordinates of ``vectors`` in ``basis``, or ``None`` if outside the span."""
    return solve_matrix(basis.vectors, vectors)


def spans_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """Whether two bases span the same subspace (submodule, over Z)."""
    if a.ambient_dim != b.ambient_dim:
        raise ShapeMismatch("ambient dimensions differ")
    if a.dim != b.dim:
        return False
    return coordinates_in(a, b.vectors) is not None and coordinates_in(b, a.vectors) is not None


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
