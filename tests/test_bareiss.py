"""The one fraction-free elimination loop, :func:`eigenchain.linalg._bareiss`, both ways.

Forward (rows below each pivot cleared: ranks over Q and ``det``) and
reduced (rows above cleared too, on ``[a | I]``: reductions over Q and
complement splits over Z) must find the same pivot columns and the same
signed minor, since rows above a pivot never feed a later one.  Both are
checked against a ``Fraction`` rref on seeded integer matrices with
non-unit pivots, pivots equal to minus the previous one, zero rows, and
wide and tall shapes.  ``det`` is the forward pass's signed last pivot
over every ring, denominators cleared first; it is checked against the
Leibniz sum over Z, Q and F_p, and runs no reduction of any kind.
"""

import random
from fractions import Fraction

import pytest

from eigenchain import GF, QQ, ZZ, Matrix, det, linalg
from eigenchain.linalg import _bareiss

from test_bottom_pivots import _elimination_steps, reference_rref
from test_linalg import leibniz

SHAPES = [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (2, 6), (3, 7), (6, 2), (7, 3), (0, 3), (3, 0)]

CHOSEN = [
    [[1, 1], [1, 0]],  # the second pivot is minus the first
    [[1, 1, 0], [1, 0, 1], [0, 1, 1]],  # -1 then 2: a sign-trick step, then a non-unit one
    [[2, 4, 1], [3, 5, 7], [0, 0, 0], [1, 1, 1]],  # a non-unit first pivot and a zero row
    [[0, 0, 0], [0, 0, 0]],
    [[0, 3, 6], [0, 1, 2], [0, 0, 5]],  # an empty first column, a dependent row
]


def seeded_matrices(seed: int):
    """Entries mostly in [-3, 3], with zero rows and rows that repeat a multiple of an earlier row."""
    rng = random.Random(seed)
    for rows, cols in SHAPES:
        for _ in range(8):
            grid = [[rng.choice((0, 0, 1, -1, 2, -2, 3, -3)) for _ in range(cols)] for _ in range(rows)]
            for i in range(1, rows):
                roll = rng.random()
                if roll < 0.15:
                    grid[i] = [0] * cols
                elif roll < 0.3:
                    grid[i] = [rng.choice((2, -1)) * x for x in grid[rng.randrange(i)]]
            yield Matrix(ZZ, grid, cols=cols)
    for grid in CHOSEN:
        yield Matrix(ZZ, grid, cols=len(grid[0]))


def eliminate(a: Matrix, reduced: bool):
    pivots, d, sign, work, _ = _bareiss(a, reduced)
    return pivots, sign * d, work


def count_reduced_bareiss(monkeypatch, calls):
    """Append to ``calls`` on each reduced ``_bareiss``: a reduction over Q or a complement split over Z."""
    original = linalg._bareiss

    def counted(a, reduced):
        if reduced:
            calls.append("reduced _bareiss")
        return original(a, reduced)

    monkeypatch.setattr(linalg, "_bareiss", counted)


def test_forward_and_reduced_find_the_same_pivots_and_signed_minor():
    sign_tricks = non_units = 0
    for seed in range(3):
        for a in seeded_matrices(seed):
            (pivots, minor, _), _ = reference_rref(a)
            expected = (tuple(pivots), minor)
            for reduced in (False, True):
                got_pivots, got_minor, work = eliminate(a, reduced)
                assert (got_pivots, got_minor) == expected
                # Each pivot column is cleared below its row, and above it when reduced.
                for k, c in enumerate(got_pivots):
                    assert work[k][c] != 0
                    cleared = range(a.rows) if reduced else range(k + 1, a.rows)
                    assert all(work[i][c] == 0 for i in cleared if i != k)
            for c, prev, r, before, _ in _elimination_steps(a) if a.cols else ():
                piv = next((entries[c] for _, entries in before[r:] if entries[c]), None)
                sign_tricks += piv is not None and piv == -prev
                non_units += piv is not None and abs(piv) > 1
    assert sign_tricks > 20 and non_units > 20


def test_det_over_z_is_the_leibniz_sum_and_runs_no_reduced_pass(monkeypatch):
    calls = []
    count_reduced_bareiss(monkeypatch, calls)
    nonsingular = 0
    for seed in range(3):
        for a in seeded_matrices(seed):
            if a.rows != a.cols or not a.rows:
                continue
            expected = leibniz(ZZ, a.data)
            assert det(a) == expected
            nonsingular += expected not in (0, 1, -1)
    assert nonsingular > 20
    assert calls == []


def seeded_squares(ring, seed: int):
    """Squares up to 5x5 over ``ring``, with fractions over Q and repeated and zero rows, then two with integral determinants."""
    rng = random.Random(f"{ring}-{seed}")
    for n in range(6):
        for _ in range(12):
            grid = [[rng.choice((0, 0, 1, -1, 2, -3, 5)) for _ in range(n)] for _ in range(n)]
            if ring is QQ:
                grid = [[Fraction(x, rng.choice((1, 1, 2, 3, 6))) for x in row] for row in grid]
            roll = rng.random()
            if n > 1 and roll < 0.2:
                grid[-1] = list(grid[0])
            elif n and roll < 0.3:
                grid[rng.randrange(n)] = [0] * n
            yield Matrix(ring, grid, cols=n)
    yield Matrix(ring, [[2, 1], [1, 3]])
    if ring is QQ:
        yield Matrix(ring, [[Fraction(1, 2), 1], [0, 4]])  # integral, from fractions


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), GF(5), GF(2**61 - 1)], ids=str)
def test_det_over_every_field_is_the_leibniz_sum_and_runs_no_reduction(monkeypatch, ring):
    calls = []
    for name in ("_reduce", "smith_normal_form"):
        original = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda a, _o=original, _n=name: calls.append(_n) or _o(a))
    count_reduced_bareiss(monkeypatch, calls)
    singular = nonsingular = integral = 0
    for seed in range(3):
        for a in seeded_squares(ring, seed):
            expected = leibniz(ring, a.data)
            got = det(a)
            assert got == expected
            # An integral Q value is an int, as Rationals stores it.
            assert type(got) is type(ring.normalize(got))
            integral += ring is QQ and type(got) is int and got not in (0, 1)
            singular += expected == 0
            nonsingular += expected != 0
    assert calls == []
    assert singular > 10 and nonsingular > 10
    assert ring is not QQ or integral > 5
