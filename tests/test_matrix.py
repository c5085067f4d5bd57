"""Matrix container semantics, including zero-dimensional edges."""

import random
from fractions import Fraction

import pytest

from eigenchain import GF, QQ, ZZ, Matrix, block_diag, hstack, linalg, vstack
from eigenchain.errors import RingMismatch, ShapeMismatch


def test_construction_normalizes_entries():
    m = Matrix(GF(5), [[7, -1], [0, 12]])
    assert m.data == ((2, 4), (0, 2))
    q = Matrix(QQ, [["1/2", 2]])
    assert q.render_rows() == [["1/2", "2"]]


def test_ragged_rows_rejected():
    with pytest.raises(ShapeMismatch):
        Matrix(ZZ, [[1, 2], [3]])


def test_matmul_and_identity():
    a = Matrix(ZZ, [[1, 2], [3, 4]])
    assert Matrix.identity(ZZ, 2) @ a == a
    assert a @ Matrix.identity(ZZ, 2) == a
    b = Matrix(ZZ, [[0, 1], [1, 0]])
    assert (a @ b).data == ((2, 1), (4, 3))


def test_matmul_mod_p_reduces():
    a = Matrix(GF(2), [[1, 1], [0, 1]])
    assert (a @ a).data == ((1, 0), (0, 1))


def test_zero_dimensional_matrices_compose():
    a = Matrix.zeros(ZZ, 3, 0)
    b = Matrix.zeros(ZZ, 0, 2)
    prod = a @ b
    assert (prod.rows, prod.cols) == (3, 2)
    assert prod.is_zero()
    assert Matrix.identity(ZZ, 0) @ Matrix.zeros(ZZ, 0, 5) == Matrix.zeros(ZZ, 0, 5)


def test_ring_mixing_rejected():
    with pytest.raises(RingMismatch):
        Matrix(ZZ, [[1]]) @ Matrix(QQ, [[1]])


def test_stacking():
    a = Matrix(ZZ, [[1], [2]])
    b = Matrix(ZZ, [[3], [4]])
    assert hstack([a, b]).data == ((1, 3), (2, 4))
    assert vstack([a, b]).data == ((1,), (2,), (3,), (4,))
    d = block_diag([Matrix(ZZ, [[1]]), Matrix(ZZ, [[2, 3]])])
    assert d.data == ((1, 0, 0), (0, 2, 3))


def test_arithmetic_and_transpose():
    a = Matrix(ZZ, [[1, -2], [0, 5]])
    assert (-a).data == ((-1, 2), (0, -5))
    assert (a - a).is_zero()
    assert a.transpose().data == ((1, 0), (-2, 5))
    assert a.scale(3).data == ((3, -6), (0, 15))


def test_column_selection():
    a = Matrix(ZZ, [[1, 2, 3], [4, 5, 6]])
    assert a.col(1).data == ((2,), (5,))
    assert a.cols_at([2, 0]).data == ((3, 1), (6, 4))
    assert a.submatrix(range(1, 2), range(0, 2)).data == ((4, 5),)


RINGS = [QQ, GF(2), GF(3), ZZ]
SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (3, 4)]


def _random_entries(ring, rows, cols, rng):
    """Unreduced values: fractions over Q, integers of either sign elsewhere."""
    if ring == QQ:
        return [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)]
    return [[rng.randint(-7, 7) for _ in range(cols)] for _ in range(rows)]


def _entrywise_reference(ring, rows, cols, value):
    """The matrix whose (i, j) entry is ``value(i, j)``, normalized entry by entry."""
    return Matrix(ring, [[value(i, j) for j in range(cols)] for i in range(rows)], cols=cols)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_entrywise_arithmetic_matches_a_per_entry_reference(ring, shape):
    rows, cols = shape
    rng = random.Random(f"{ring}{shape}")
    for _ in range(5):
        a = Matrix(ring, _random_entries(ring, rows, cols, rng), cols=cols)
        b = Matrix(ring, _random_entries(ring, rows, cols, rng), cols=cols)
        assert a + b == _entrywise_reference(ring, rows, cols, lambda i, j: a[i, j] + b[i, j])
        assert a - b == _entrywise_reference(ring, rows, cols, lambda i, j: a[i, j] - b[i, j])
        assert -a == _entrywise_reference(ring, rows, cols, lambda i, j: -a[i, j])
        for c in (0, 1, -1, 5, "2" if ring != QQ else "-3/2"):
            k = ring.normalize(c)
            assert a.scale(c) == _entrywise_reference(ring, rows, cols, lambda i, j: k * a[i, j])
        for m in (a + b, a - b, -a, a.scale(5)):
            assert (m.rows, m.cols) == (rows, cols)
            # Over Q arithmetic may leave an integral Fraction; never a bool or a float.
            assert all(type(v) in ((int, Fraction) if ring == QQ else (int,)) for row in m.data for v in row)


def test_entrywise_shapes_and_rings_must_agree():
    with pytest.raises(ShapeMismatch):
        Matrix.zeros(ZZ, 2, 3) + Matrix.zeros(ZZ, 3, 2)
    with pytest.raises(ShapeMismatch):
        Matrix.zeros(ZZ, 0, 3) - Matrix.zeros(ZZ, 0, 2)
    with pytest.raises(RingMismatch):
        Matrix.zeros(ZZ, 1, 1) + Matrix.zeros(QQ, 1, 1)


def test_zeros_and_identity_hold_normalized_values():
    for ring in RINGS:
        zero, one = ring.normalize(0), ring.normalize(1)
        z = Matrix.zeros(ring, 3, 2)
        assert z.data == ((zero, zero),) * 3 and z.is_zero()
        assert Matrix.zeros(ring, 0, 4).data == () and Matrix.zeros(ring, 2, 0).data == ((), ())
        eye = Matrix.identity(ring, 3)
        assert eye.data == ((one, zero, zero), (zero, one, zero), (zero, zero, one))
        assert all(type(v) is type(zero) for row in eye.data for v in row)
        assert Matrix.identity(ring, 0).data == ()


def _has_tuple_rows(m):
    return type(m.data) is tuple and len(m.data) == m.rows and all(type(row) is tuple for row in m.data)


def _eliminations(a):
    """Every matrix an elimination of ``a`` hands out, transforms included."""
    if a.ring.is_field:
        res = linalg.rref(a)
        return [res.echelon, res.transform]
    res = linalg.smith_normal_form(a)
    unimodular = Matrix(a.ring, [[0, 1], [1, 1]])
    return [res.s, res.u, res.v, res.u_inv, linalg._fraction_free_rref(unimodular)[2]]


TUPLE_ROW_OPS = {
    "constructor": lambda a, b: [a, Matrix.column(a.ring, [1, 2])],
    "zeros": lambda a, b: [Matrix.zeros(a.ring, 2, 3), Matrix.zeros(a.ring, 2, 0)],
    "identity": lambda a, b: [Matrix.identity(a.ring, 3)],
    "arithmetic": lambda a, b: [a @ b.transpose(), a + b, a - b, -a, a.scale(2)],
    "selection": lambda a, b: [a.transpose(), Matrix.zeros(a.ring, 0, 2).transpose(), a.col(1),
                               a.cols_at([2, 0]), a.submatrix(range(1, 3), range(2))],
    "stacking": lambda a, b: [hstack([a, b]), vstack([a, b]), block_diag([a, b])],
    "eliminations": lambda a, b: _eliminations(a),
    "bases": lambda a, b: [linalg.kernel_basis(a).vectors, linalg.image_basis(a).vectors,
                           linalg.factor(a).image_coords(a), linalg.solve_matrix(a, a),
                           *linalg.complement_and_inverse(linalg.image_basis(a.transpose())),
                           linalg.inverse(b if a.ring.is_field else Matrix.identity(a.ring, 2))],
}


@pytest.mark.parametrize("ring", [QQ, GF(5), ZZ], ids=str)
@pytest.mark.parametrize("op", sorted(TUPLE_ROW_OPS))
def test_every_operation_returns_tuple_rows(ring, op):
    # Rank 2, so kernels, complements and the Smith fallback are all exercised.
    a = Matrix(ring, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    b = Matrix(ring, [[0, 1, 0], [3, 0, 0], [0, 0, 2]])
    for m in TUPLE_ROW_OPS[op](a, b):
        m = m.vectors if isinstance(m, linalg.SubspaceBasis) else m
        assert _has_tuple_rows(m)


def test_an_empty_row_list_is_the_zero_by_zero_matrix():
    m = Matrix(ZZ, [])
    assert (m.rows, m.cols, m.data) == (0, 0, ())


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Matrix(ZZ, [[1, 2]], cols=3), "declared 3 columns, rows have 2"),
        (lambda: Matrix(ZZ, [[1, 2]]).placed(3, [0, 2]), "1 rows placed at 2 positions"),
    ],
    ids=["declared-columns", "placed-positions"],
)
def test_a_shape_that_does_not_fit_is_refused(build, message):
    with pytest.raises(ShapeMismatch) as caught:
        build()
    assert (caught.type, str(caught.value)) == (ShapeMismatch, message)


def test_a_matrix_compares_unequal_to_a_number_and_shows_its_entries():
    m = Matrix(QQ, [["1/2", 0]])
    assert m.__eq__(3) is NotImplemented and m != 3
    assert repr(m) == "Matrix(Q, 1x2, [['1/2', '0']])"
