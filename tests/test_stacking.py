"""``hstack``, ``vstack`` and ``block_diag``: their refusals, and blocks with no rows or columns."""

import pytest

from eigenchain import GF, QQ, ZZ, Matrix, block_diag, hstack, vstack
from eigenchain.errors import RingMismatch, ShapeMismatch

STACKS = {"hstack": hstack, "vstack": vstack, "block_diag": block_diag}


@pytest.mark.parametrize("name", sorted(STACKS))
def test_nothing_to_stack_is_refused(name):
    with pytest.raises(ShapeMismatch) as info:
        STACKS[name]([])
    assert str(info.value) == f"{name} of nothing"


@pytest.mark.parametrize("name", sorted(STACKS))
def test_mixed_rings_are_refused(name):
    # Same shapes, so only the ring can be at fault.
    with pytest.raises(RingMismatch) as info:
        STACKS[name]([Matrix(ZZ, [[1]]), Matrix(ZZ, [[2]]), Matrix(GF(5), [[3]])])
    assert str(info.value) == f"{name} over mixed rings"


def test_generators_are_consumed_once():
    parts = (Matrix(QQ, [[k]]) for k in range(3))
    assert block_diag(parts).data == ((0, 0, 0), (0, 1, 0), (0, 0, 2))


def test_hstack_refuses_differing_row_counts():
    with pytest.raises(ShapeMismatch) as info:
        hstack([Matrix(ZZ, [[1], [2]]), Matrix(ZZ, [[3]])])
    assert str(info.value) == "hstack with differing row counts"


def test_vstack_refuses_differing_column_counts():
    with pytest.raises(ShapeMismatch) as info:
        vstack([Matrix(ZZ, [[1, 2]]), Matrix(ZZ, [[3]])])
    assert str(info.value) == "vstack with differing column counts"


def test_block_diag_places_blocks_with_no_rows_or_columns():
    a = Matrix(ZZ, [[1, 2]])
    no_rows = Matrix.zeros(ZZ, 0, 2)
    no_cols = Matrix.zeros(ZZ, 3, 0)
    d = block_diag([a, no_rows, no_cols, Matrix(ZZ, [[5]])])
    assert (d.rows, d.cols) == (5, 5)
    assert d.data == (
        (1, 2, 0, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 5),
    )
    empty = block_diag([no_rows, no_cols])
    assert (empty.rows, empty.cols) == (3, 2)
    assert empty.is_zero()
    nothing = block_diag([Matrix.zeros(ZZ, 0, 0)])
    assert (nothing.rows, nothing.cols, nothing.data) == (0, 0, ())


def test_block_diag_keeps_the_ring_and_its_zero():
    d = block_diag([Matrix(GF(5), [[7]]), Matrix.zeros(GF(5), 0, 1), Matrix(GF(5), [[-1]])])
    assert d.ring == GF(5)
    assert d.data == ((2, 0, 0), (0, 0, 4))
