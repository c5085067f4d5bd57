"""A product with an identity returns the other factor, and identities are built directly.

``Matrix.identity`` marks the matrix it returns, so ``I @ B`` and
``B @ I`` are ``B`` itself once the ring and the shapes have been
checked; ``-I`` is built from one canonical ``-1``; and an elimination
whose log is empty hands back an identity as its transform.
"""

import random

import pytest

from eigenchain import GF, QQ, ZZ, Matrix
from eigenchain.errors import RingMismatch, ShapeMismatch
from eigenchain.linalg import rref, smith_normal_form

RINGS = [QQ, ZZ, GF(2), GF(5)]
SIZES = range(5)


def dense_identity(ring, n):
    return Matrix(ring, [[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def random_matrix(ring, rows, cols, rng):
    return Matrix(ring, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)], cols=cols)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_a_product_with_the_identity_is_the_other_factor(ring, n):
    rng = random.Random(f"{ring}-{n}")
    eye = Matrix.identity(ring, n)
    for k in range(4):
        b = random_matrix(ring, n, k, rng)
        assert eye @ b is b
        a = random_matrix(ring, k, n, rng)
        assert a @ eye is a
    assert eye @ eye is eye


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_identity_products_still_check_ring_and_shape(ring, n):
    eye = Matrix.identity(ring, n)
    other_ring = ZZ if ring != ZZ else QQ
    with pytest.raises(RingMismatch):
        eye @ Matrix.zeros(other_ring, n, 2)
    with pytest.raises(RingMismatch):
        Matrix.zeros(other_ring, 2, n) @ eye
    with pytest.raises(ShapeMismatch):
        eye @ Matrix.zeros(ring, n + 1, 2)
    with pytest.raises(ShapeMismatch):
        Matrix.zeros(ring, 2, n + 1) @ eye


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_the_identity_equals_a_dense_identity(ring, n):
    eye, dense = Matrix.identity(ring, n), dense_identity(ring, n)
    assert eye == dense and dense == eye
    assert eye.data == dense.data
    assert [list(map(type, row)) for row in eye.data] == [list(map(type, row)) for row in dense.data]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_minus_the_identity_is_the_entrywise_negation_in_canonical_form(ring, n):
    negated = -Matrix.identity(ring, n)
    assert negated == -dense_identity(ring, n)
    minus_one = ring.normalize(-1)
    if ring == GF(5):
        assert minus_one == 4
    assert negated.data == tuple(tuple(minus_one if i == j else ring.normalize(0) for j in range(n)) for i in range(n))
    assert all(ring.normalize(x) == x and type(ring.normalize(x)) is type(x) for row in negated.data for x in row)
    # -I is no identity: a product with it computes.
    b = Matrix(ring, [[1] * 2] * n, cols=2)
    assert negated @ b == -b


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_a_transform_with_an_empty_log_is_an_identity(ring, n):
    # An identity is already reduced: no elimination step, so every log is empty.
    dense = dense_identity(ring, n)
    b = Matrix(ring, [[1, 2]] * n, cols=2)
    if ring.is_field:
        res = rref(dense)
        assert res.ops == []
        transforms = [res.transform]
    else:
        res = smith_normal_form(dense)
        assert res.row_ops == [] and res.col_ops == []
        transforms = [res.u, res.u_inv, res.v]
    for t in transforms:
        assert t == dense
        assert t @ b is b
