"""The Q value contract: an integral rational is an ``int``.

A Q value is an ``int`` or a ``Fraction``; ``normalize``, ``parse`` and
``inv`` return an ``int`` exactly when the value is integral, and equal
values are interchangeable.  The equivalence test feeds the same values as
``int`` entries and as ``Fraction`` entries (wrapped with ``Matrix._raw``,
which keeps them as given) and requires equal results that render alike.
"""

import random
from fractions import Fraction

import pytest

from eigenchain import GF, QQ, ZZ, Matrix, SubspaceBasis, det, inverse, kernel_basis, rref, solve_matrix
from eigenchain.errors import NotInvertible, ParseError
from eigenchain.linalg import complement_and_inverse

from test_kernel_equivalence import rational_matrix


@pytest.mark.parametrize("value", [2, "2/1", " 4/2 ", Fraction(6, 3), "-3", Fraction(-4, 2), 0, "0/5"])
def test_integral_values_come_back_as_int(value):
    x = QQ.normalize(value)
    assert type(x) is int
    assert x == Fraction(value.strip() if isinstance(value, str) else value)
    if isinstance(value, str):
        assert type(QQ.parse(value)) is int and QQ.parse(value) == x


@pytest.mark.parametrize("value", ["1/2", " -3/4 ", Fraction(5, 3)])
def test_non_integral_values_stay_fractions(value):
    x = QQ.normalize(value)
    assert type(x) is Fraction and x.denominator > 1
    assert QQ.normalize(x) is x


def test_inverse_of_a_unit_is_an_int():
    for u in (1, -1):
        assert type(QQ.inv(u)) is int and QQ.inv(u) == u
    assert QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(1, 3)) == 3
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(NotInvertible):
        QQ.inv(0)


def test_render_is_the_same_for_int_and_fraction():
    for v in (0, 1, -7, 10**30):
        assert QQ.render(v) == QQ.render(Fraction(v)) == str(v)
    assert QQ.render(Fraction(-5, 3)) == "-5/3"


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(5), ZZ], ids=str)
def test_booleans_are_refused_by_every_ring(ring):
    for entry in (True, False):
        with pytest.raises(ParseError, match="booleans are not integers"):
            ring.normalize(entry)
        with pytest.raises(ParseError, match="booleans are not integers"):
            Matrix(ring, [[entry]])


def _random_values(rng, rows, cols):
    """Integral values mostly, some non-integral, as ``int`` or ``Fraction``."""
    def value():
        if rng.random() < 0.4:
            return 0
        if rng.random() < 0.8:
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-5, 5), rng.randint(2, 4))

    return [[value() for _ in range(cols)] for _ in range(rows)]


def _both(rows, cols, values):
    """``values`` as canonical Q entries and as ``Fraction`` entries."""
    as_ints = Matrix(QQ, values, cols=cols)
    as_fractions = Matrix._raw(QQ, rows, cols, tuple(tuple(map(Fraction, row)) for row in values))
    return as_ints, as_fractions


def _same(x, y):
    if isinstance(x, Matrix):
        assert x == y
        assert x.render_rows() == y.render_rows()
    elif isinstance(x, SubspaceBasis):
        _same(x.vectors, y.vectors)
    elif isinstance(x, (tuple, list)):
        assert len(x) == len(y)
        for a, b in zip(x, y):
            _same(a, b)
    else:
        assert x == y
        assert QQ.render(x) == QQ.render(y)


def test_int_and_fraction_entries_give_the_same_results():
    rng = random.Random(14)
    for _ in range(40):
        m, n, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 3)
        a, fa = _both(m, n, _random_values(rng, m, n))
        b, fb = _both(m, n, _random_values(rng, m, n))
        c, fc = _both(n, k, _random_values(rng, n, k))
        rhs, frhs = _both(m, k, _random_values(rng, m, k))
        _same(a @ c, fa @ fc)
        _same(a + b, fa + fb)
        _same(a - b, fa - fb)
        _same(-a, -fa)
        for s in (0, 1, -1, 3, Fraction(-3, 2)):
            _same(a.scale(s), fa.scale(s))
        ra, rfa = rref(a), rref(fa)
        _same((ra.echelon, ra.pivots, ra.transform), (rfa.echelon, rfa.pivots, rfa.transform))
        _same(solve_matrix(a, a @ c), solve_matrix(fa, fa @ fc))
        x, fx = solve_matrix(a, rhs), solve_matrix(fa, frhs)
        assert (x is None) == (fx is None)
        if x is not None:
            _same(x, fx)
        _same(kernel_basis(a), kernel_basis(fa))
        sq, fsq = _both(m, m, _random_values(rng, m, m))
        d = det(sq)
        _same(d, det(fsq))
        if d != 0:
            _same(inverse(sq), inverse(fsq))
        sub = rref(a).transform.submatrix(range(m), range(min(m, n)))
        fsub = Matrix._raw(QQ, sub.rows, sub.cols, tuple(tuple(map(Fraction, row)) for row in sub.data))
        if rref(sub).rank == sub.cols:
            _same(complement_and_inverse(SubspaceBasis(m, sub)), complement_and_inverse(SubspaceBasis(m, fsub)))


def test_integral_data_stays_integral_through_unit_pivots():
    # A unimodular matrix eliminates with pivots ±1 after the first steps'
    # subtractions; echelon, transform and inverse hold ints only.
    a = Matrix(QQ, [[1, 2, 0], [-1, -1, 3], [0, 1, 4]])
    res = rref(a)
    assert det(a) == 1
    for m in (res.echelon, res.transform, inverse(a)):
        assert all(type(v) is int for row in m.data for v in row)


def test_rref_of_rational_entries_holds_an_int_for_every_integral_entry():
    # Inputs with integral and non-integral Fractions: the reduced form and
    # the transform come back with every integral entry an int.
    rng = random.Random(37)
    integral = fractions = 0
    for _ in range(60):
        a = rational_matrix(QQ, rng, rng.randint(1, 8), rng.randint(1, 8))
        res = rref(a)
        for m in (res.echelon, res.transform):
            entries = [v for row in m.data for v in row]
            assert not any(type(v) is Fraction and v.denominator == 1 for v in entries)
            integral += sum(1 for v in entries if type(v) is int and v not in (0, 1))
            fractions += sum(1 for v in entries if type(v) is Fraction)
    assert integral > 40 and fractions > 100
