"""Fraction-free bottom pivots over Z against a ``Fraction`` reference.

Over Z, :func:`eigenchain.linalg._bottom_pivots` eliminates fraction-free
and returns the inverse of the pivot rows only when it is integral.  The
reference below is the rational definition: rref of the reversed
transpose over Q, pivots read back bottom up, the transform transposed,
kept only when every entry is an integer.

Simplicial boundaries pivot on ±1 with alternating signs; the last tests
check :func:`eigenchain.linalg._fraction_free_rref` on them against a
``Fraction`` rref and check that a -1 pivot leaves the rows with a zero in
its column untouched.
"""

import random
import sys
from fractions import Fraction

import pytest

from eigenchain import ZZ, Matrix, det
from eigenchain.errors import ValidationError
from eigenchain.linalg import _bottom_pivots, _fraction_free_rref
from eigenchain.simplicial import simplicial_to_chain

from test_golden_simplicial import CORPUS as SIMPLICIAL
from test_linalg import leibniz


def reference_rref(a: Matrix):
    """``_fraction_free_rref(a)`` by a ``Fraction`` rref, and the pivot values it divided by.

    The signed minor is the product of the pivot values times the parity
    of the row swaps; the transform is kept at full row rank when every
    entry is an integer.
    """
    m, n = a.rows, a.cols
    work = [[Fraction(v) for v in row] for row in a.data]
    trans = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    pivots, values, minor = [], [], Fraction(1)
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if work[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            work[r], work[p] = work[p], work[r]
            trans[r], trans[p] = trans[p], trans[r]
            minor = -minor
        piv = work[r][c]
        values.append(piv)
        minor *= piv
        work[r] = [v / piv for v in work[r]]
        trans[r] = [v / piv for v in trans[r]]
        for i in range(m):
            f = work[i][c]
            if i != r and f != 0:
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
                trans[i] = [x - f * y for x, y in zip(trans[i], trans[r])]
        pivots.append(c)
    assert minor.denominator == 1
    transform = None
    if len(pivots) == m and all(v.denominator == 1 for row in trans for v in row):
        transform = Matrix(ZZ, [[int(v) for v in row] for row in trans], cols=m)
    return (tuple(pivots), int(minor), transform), values


def _reversed_transpose(a: Matrix) -> Matrix:
    return Matrix(ZZ, [[row[j] for row in reversed(a.data)] for j in range(a.cols)], cols=a.rows)


def reference_bottom_pivots(sub: Matrix):
    """``(rows, inverse or None)`` by a ``Fraction`` rref, or ``None`` if the columns are dependent."""
    (pivots, _, transform), _ = reference_rref(_reversed_transpose(sub))
    if len(pivots) != sub.cols:
        return None
    return [sub.rows - 1 - p for p in pivots], None if transform is None else transform.transpose()


def unimodular(rng, k, steps, spread, signed=True):
    """A product of random elementary operations: determinant ±1.

    Unsigned, every multiplier is positive and no row is negated, so the
    entries only grow.
    """
    g = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(steps):
        i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
        if i == j:
            if signed:
                g[i] = [-x for x in g[i]]
        else:
            q = rng.randint(-spread, spread) if signed else rng.randint(1, spread)
            g[i] = [x + q * y for x, y in zip(g[i], g[j])]
    return g


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def with_det(rng, k, d):
    """A random ``k x k`` integer matrix of determinant ``±d``."""
    diag = [[(d if i == j == k - 1 else 1) if i == j else 0 for j in range(k)] for i in range(k)]
    return matmul(matmul(unimodular(rng, k, 3 * k, 2), diag), unimodular(rng, k, 3 * k, 2))


def check(sub: Matrix):
    expected = reference_bottom_pivots(sub)
    assert expected is not None
    rows, inverse = _bottom_pivots(sub)
    assert (rows, inverse) == expected
    if inverse is not None:
        pivot_rows = sub.submatrix(rows, range(sub.cols))
        assert inverse @ pivot_rows == Matrix.identity(ZZ, sub.cols)
    return inverse


def test_random_full_column_rank_matrices():
    rng = random.Random(61)
    integral = checked = 0
    while checked < 150:
        m = rng.randint(1, 9)
        k = rng.randint(1, m)
        if rng.random() < 0.5:
            entries = [[rng.choice((1, -1)) if rng.random() < 0.3 else 0 for _ in range(k)] for _ in range(m)]
        else:
            entries = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        sub = Matrix(ZZ, entries, cols=k)
        if reference_bottom_pivots(sub) is None:
            continue
        integral += check(sub) is not None
        checked += 1
    # Both outcomes are exercised.
    assert 20 <= integral <= 130


@pytest.mark.parametrize("d", [2, -2, 3, -3, 1, -1])
def test_pivot_blocks_of_small_determinant(d):
    rng = random.Random(67 + d)
    for k in range(1, 6):
        block = with_det(rng, k, d)
        above = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rng.randint(0, 3))]
        sub = Matrix(ZZ, above + block, cols=k)
        inverse = check(sub)
        # The bottom rows are independent, so they carry the pivots.
        assert sorted(_bottom_pivots(sub)[0]) == list(range(sub.rows - k, sub.rows))
        assert (inverse is not None) == (abs(d) == 1)


def test_entries_over_300_bits():
    rng = random.Random(71)
    for k in range(1, 5):
        big = [[rng.getrandbits(320) - (1 << 319) for _ in range(k)] for _ in range(k + 2)]
        assert check(Matrix(ZZ, big, cols=k)) is None
        # A unimodular block with huge entries: the inverse is integral and huge too.
        if k > 1:
            g = unimodular(rng, k, 100, 1 << 16, signed=False)
            assert max(abs(v) for row in g for v in row).bit_length() > 300
            assert check(Matrix(ZZ, [[0] * k] + g, cols=k)) is not None


def test_no_columns():
    assert _bottom_pivots(Matrix.zeros(ZZ, 4, 0)) == ([], Matrix.zeros(ZZ, 0, 0))
    assert reference_bottom_pivots(Matrix.zeros(ZZ, 4, 0)) == ([], Matrix.zeros(ZZ, 0, 0))


@pytest.mark.parametrize(
    "entries",
    [
        [[1, 2], [2, 4], [3, 6]],
        [[0, 1], [0, 0], [0, 5]],
        [[1, 0, 1], [0, 1, 1]],
        [[4, 6], [6, 9]],
    ],
)
def test_dependent_columns_raise(entries):
    sub = Matrix(ZZ, entries)
    assert reference_bottom_pivots(sub) is None
    with pytest.raises(ValidationError):
        _bottom_pivots(sub)


# -- unit pivots of simplicial boundaries ----------------------------------------


def simplicial_boundaries():
    for _, vertices, facets in SIMPLICIAL:
        chain, _ = simplicial_to_chain(vertices, facets, ZZ)
        yield from chain.diffs.values()


def unit_pivot_inputs():
    """Each boundary and its transpose, a set of independent columns of each, random column subsets of both, and the reversed transpose of every one.

    The reversed transpose of independent columns is the full-row-rank
    shape that ``_bottom_pivots`` eliminates.
    """
    rng = random.Random(73)
    for d in simplicial_boundaries():
        for a in (d, d.transpose()):
            (independent, _, _), _ = reference_rref(a)
            basis = a.cols_at(list(independent))
            for whole in (a, basis):
                part = whole.cols_at(sorted(rng.sample(range(whole.cols), rng.randint(1, whole.cols))))
                for sub in (whole, part):
                    yield sub
                    yield _reversed_transpose(sub)


def test_fraction_free_rref_on_unit_pivots_matches_a_fraction_rref():
    negative = integral = 0
    for a in unit_pivot_inputs():
        expected, values = reference_rref(a)
        got = _fraction_free_rref(a)
        assert got == expected
        assert type(got[1]) is int
        negative += values.count(-1)
        integral += got[2] is not None
    # The -1 pivots (piv == -prev) are common, and integral transforms are read.
    assert negative > 200 and integral > 20


def test_signed_minor_of_square_unit_blocks_is_the_determinant():
    rng = random.Random(79)
    nonsingular = 0
    for d in simplicial_boundaries():
        for _ in range(12):
            k = rng.randint(1, min(6, d.rows, d.cols))
            sub = d.cols_at(sorted(rng.sample(range(d.cols), k)))
            # Rows independent on these columns, when there are k of them.
            (rows, _, _), _ = reference_rref(sub.transpose())
            if len(rows) < k:
                rows = sorted(rng.sample(range(d.rows), k))
            rows = list(rows)
            rng.shuffle(rows)  # row swaps in the elimination
            square = sub.submatrix(rows, range(k))
            pivots, minor, _ = _fraction_free_rref(square)
            expected = leibniz(ZZ, square.data)
            assert det(square) == expected
            if len(pivots) == k:
                assert minor == expected != 0
                nonsingular += 1
    assert nonsingular > 20


def _elimination_steps(a: Matrix):
    """Run ``_fraction_free_rref(a)``; per column ``(c, prev, pivots so far, rows before, rows after)``.

    A line tracer on the function's frame reads its locals each time the
    column changes and once at the end.  Rows are kept as ``(list object,
    entries)`` pairs, so a row rewritten in place shows as changed entries
    and a replaced row as a new object.
    """
    code = _fraction_free_rref.__code__
    seen = []

    def snapshot(frame):
        loc = frame.f_locals
        rows = [(row, tuple(row)) for row in loc["work"]]
        return loc["c"], loc["prev"], len(loc["pivots"]), rows

    def local(frame, event, arg):
        column = frame.f_locals.get("c")
        if event == "return" or (event == "line" and column is not None and (not seen or column != seen[-1][0])):
            seen.append(snapshot(frame))
        return local

    def calls(frame, event, arg):
        return local if event == "call" and frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        _fraction_free_rref(a)
    finally:
        sys.settrace(previous)
    return [(*step[:4], seen[k + 1][3]) for k, step in enumerate(seen[:-1])]


def test_a_negative_unit_pivot_leaves_rows_without_its_column_alone():
    steps = untouched = 0
    for d in simplicial_boundaries():
        for a in (d, d.transpose()):
            for c, prev, r, before, after in _elimination_steps(a):
                piv = next((entries[c] for _, entries in before[r:] if entries[c]), None)
                if piv is None or piv != -prev:
                    continue
                steps += 1
                for row, entries in before:
                    if entries[c] == 0:
                        # The very list, with the same entries, somewhere (a swap may move it).
                        assert any(new is row and new_entries == entries for new, new_entries in after)
                        untouched += 1
    assert steps > 30 and untouched > 300
