"""Fraction-free bottom pivots over Z against a ``Fraction`` reference.

Over Z, :func:`eigenchain.linalg._bottom_pivots` eliminates fraction-free
and returns the inverse of the pivot rows only when it is integral.  The
reference below is the rational definition: rref of the reversed
transpose over Q, pivots read back bottom up, the transform transposed,
kept only when every entry is an integer.
"""

import random
from fractions import Fraction

import pytest

from eigenchain import ZZ, Matrix
from eigenchain.errors import ValidationError
from eigenchain.linalg import _bottom_pivots


def reference_bottom_pivots(sub: Matrix):
    """``(rows, inverse or None)`` by a ``Fraction`` rref, or ``None`` if the columns are dependent."""
    m, k = sub.rows, sub.cols
    work = [[Fraction(sub.data[m - 1 - i][j]) for i in range(m)] for j in range(k)]
    trans = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    pivots = []
    for c in range(m):
        r = len(pivots)
        if r == k:
            break
        p = next((i for i in range(r, k) if work[i][c] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        trans[r], trans[p] = trans[p], trans[r]
        inv = 1 / work[r][c]
        work[r] = [v * inv for v in work[r]]
        trans[r] = [v * inv for v in trans[r]]
        for i in range(k):
            f = work[i][c]
            if i != r and f != 0:
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
                trans[i] = [x - f * y for x, y in zip(trans[i], trans[r])]
        pivots.append(c)
    if len(pivots) != k:
        return None
    inverse = [[trans[j][i] for j in range(k)] for i in range(k)]
    if any(v.denominator != 1 for row in inverse for v in row):
        return [m - 1 - p for p in pivots], None
    return [m - 1 - p for p in pivots], Matrix(ZZ, [[int(v) for v in row] for row in inverse], cols=k)


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
