"""A product with an identity returns the other factor, and identities are built directly.

``Matrix.identity`` marks the matrix it returns, so ``I @ B`` and
``B @ I`` are ``B`` itself once the ring and the shapes have been
checked; ``-I`` is built from one canonical ``-1``; and an rref that
moves no row, or a Smith form whose log is empty, hands back an identity
as its transform.  The mark
survives where the answer is known to be the identity: the kernel of a
zero map, the split of a basis that is the whole module, and a slice
over the full row and column ranges.  A Smith image or solve whose
invariant factors are all one multiplies by no identity it rebuilt.
"""

import random
import sys

import pytest

from eigenchain import GF, QQ, ZZ, Matrix, linalg
from eigenchain.errors import RingMismatch, ShapeMismatch
from eigenchain.certify import certify_homology_eigenvalue
from eigenchain.complexes import COCHAIN, convert_convention
from eigenchain.linalg import SubspaceBasis, complement_and_inverse, rref, smith_normal_form
from eigenchain.simplicial import simplicial_to_chain

from test_golden_simplicial import TORUS

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
    # An identity is already reduced: rref swaps, scales and subtracts nothing,
    # and a Smith form logs nothing.
    dense = dense_identity(ring, n)
    b = Matrix(ring, [[1, 2]] * n, cols=2)
    if ring.is_field:
        transforms = [rref(dense).transform]
    else:
        res = smith_normal_form(dense)
        assert res.row_ops == [] and res.col_ops == []
        transforms = [res.u, res.u_inv, res.v]
    for t in transforms:
        assert t == dense and t.marked_identity
        assert t @ b is b


def is_marked_identity(m, n):
    return m.marked_identity and m == dense_identity(m.ring, n)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_the_kernel_of_a_zero_map_is_a_marked_identity(ring, n):
    # Rank 0: the whole module is the kernel, with no elimination step to read.
    eliminate = rref if ring.is_field else smith_normal_form
    for k in range(4):
        kernel = eliminate(Matrix.zeros(ring, k, n)).kernel()
        assert kernel.ambient_dim == n
        assert is_marked_identity(kernel.vectors, n)


@pytest.fixture
def bottom_pivots(monkeypatch):
    """The bases handed to ``linalg._bottom_pivots``, in call order."""
    calls = []
    original = linalg._bottom_pivots

    def counted(sub):
        calls.append(sub)
        return original(sub)

    monkeypatch.setattr(linalg, "_bottom_pivots", counted)
    return calls


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_splitting_off_the_whole_module_keeps_the_identity(bottom_pivots, ring, n):
    eye = Matrix.identity(ring, n)
    comp, inverse = complement_and_inverse(SubspaceBasis(n, eye))
    assert (comp.ambient_dim, comp.dim) == (n, 0)
    assert inverse is eye
    assert bottom_pivots == []
    # A dense identity still takes the eliminating route, to the same values.
    dense_comp, dense_inverse = complement_and_inverse(SubspaceBasis(n, dense_identity(ring, n)))
    assert len(bottom_pivots) == (1 if n else 0)
    assert comp.vectors == dense_comp.vectors
    assert inverse == dense_inverse


def proper_slices(rows, cols):
    """Every contiguous row and column range but the full one, and each axis reversed."""

    def spans(k):
        return [range(i, j) for i in range(k + 1) for j in range(i, k + 1)] + ([range(k - 1, -1, -1)] if k > 1 else [])

    for r in spans(rows):
        for c in spans(cols):
            if (list(r), list(c)) != (list(range(rows)), list(range(cols))):
                yield r, c


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_a_full_slice_is_the_matrix_itself(ring, n):
    rng = random.Random(f"slice-{ring}-{n}")
    eye = Matrix.identity(ring, n)
    for m in (eye, random_matrix(ring, n, 3, rng), random_matrix(ring, 2, n, rng)):
        assert m.submatrix(range(m.rows), range(m.cols)) is m
        assert m.submatrix(list(range(m.rows)), list(range(m.cols))) is m
        for r, c in proper_slices(m.rows, m.cols):
            part = m.submatrix(r, c)
            assert part is not m and not part.marked_identity
            assert (part.rows, part.cols) == (len(r), len(c))
            assert [list(row) for row in part.data] == [[m[i, j] for j in c] for i in r]
    assert is_marked_identity(eye.submatrix(range(n), range(n)), n)


def test_certifying_the_torus_over_z_multiplies_by_no_rebuilt_identity_in_smith_images_or_solves(monkeypatch):
    # S[:r, :r] of unit factors, and c[:r] read off a marked identity, are identities by value only.
    unmarked = []
    original = Matrix.__matmul__

    def counted(a, b):
        caller = sys._getframe(1)
        if caller.f_globals["__name__"] == "eigenchain.linalg" and caller.f_code.co_name in ("image", "solve"):
            unmarked.extend(m for m in (a, b) if m.rows and not m.marked_identity and m == dense_identity(m.ring, m.rows))
        return original(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    chain, _ = simplicial_to_chain(7, TORUS, ZZ)
    assert certify_homology_eigenvalue(convert_convention(chain, COCHAIN)).is_eigenvalue()
    assert unmarked == []
