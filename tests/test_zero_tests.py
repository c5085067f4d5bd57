"""Zero tests read the same truth value over every ring, a ``Fraction`` zero over Q included.

``Matrix.is_zero``, ``DegreeDecomposition.complement_coords`` and
``RrefResult.solve`` ask whether rows are all zero by the truth value of
each entry.  Over Q a product returns an ``int`` for every integral entry,
so non-integral rationals that cancel to zero in ``@`` give the ``int`` 0;
sums and eliminations may still leave a ``Fraction`` zero, which
``test_is_zero_with_fraction_entries`` covers.
"""

from fractions import Fraction

import pytest

from eigenchain import GF, QQ, ZZ, Matrix
from eigenchain.decompose import DegreeDecomposition
from eigenchain.linalg import SubspaceBasis, factor

RINGS = [ZZ, QQ, GF(2), GF(5)]


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_is_zero(ring):
    assert Matrix.zeros(ring, 2, 3).is_zero()
    assert Matrix.zeros(ring, 0, 3).is_zero() and Matrix.zeros(ring, 3, 0).is_zero()
    assert not Matrix(ring, [[0, 0], [0, 1]]).is_zero()
    assert not Matrix(ring, [[ring.normalize(-1)]]).is_zero()


def test_is_zero_with_fraction_entries():
    assert Matrix._raw(QQ, 1, 2, ((Fraction(0), Fraction(0, 7)),)).is_zero()
    assert not Matrix._raw(QQ, 1, 2, ((Fraction(0), Fraction(1, 7)),)).is_zero()


def _degree(ring) -> DegreeDecomposition:
    """Complement ``(1, 1)`` and image ``(0, -1)`` in ``ring^2``; ``to_block_coords`` is its own inverse."""
    to_blocks = Matrix(ring, [[1, 0], [1, -1]])
    return DegreeDecomposition(
        degree=0,
        incoming_image=SubspaceBasis(2, Matrix(ring, [[0], [-1]])),
        complement=SubspaceBasis(2, Matrix(ring, [[1], [1]])),
        to_block_coords=to_blocks,
        outgoing=factor(Matrix.zeros(ring, 0, 2)),
    )


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_complement_coords(ring):
    part = _degree(ring)
    assert part.complement_coords(Matrix(ring, [[1], [1]])) == Matrix(ring, [[1]])
    assert part.complement_coords(Matrix(ring, [[1], [0]])) is None
    assert part.complement_coords(Matrix(ring, [[0], [1]])) is None


def test_complement_coords_cancelling_to_a_fraction_zero():
    half = Fraction(1, 2)
    coords = _degree(QQ).to_block_coords @ Matrix(QQ, [[half], [half]])
    assert type(coords[1, 0]) is int and coords[1, 0] == 0
    assert _degree(QQ).complement_coords(Matrix(QQ, [[half], [half]])) == Matrix(QQ, [[half]])


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(5)], ids=str)
def test_rref_solve(ring):
    a = factor(Matrix(ring, [[1], [1]]))
    assert a.solve(Matrix(ring, [[1], [1]])) == Matrix(ring, [[1]])
    assert a.solve(Matrix(ring, [[1], [0]])) is None


def test_rref_solve_cancelling_to_a_fraction_zero():
    half = Fraction(1, 2)
    a = factor(Matrix(QQ, [[1], [2]]))
    b = Matrix(QQ, [[half], [1]])
    cancelled = (a.transform @ b)[1, 0]
    assert type(cancelled) is int and cancelled == 0
    assert a.solve(b) == Matrix(QQ, [[half]])
    assert a.solve(Matrix(QQ, [[half], [half]])) is None
