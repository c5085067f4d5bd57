"""Elimination, Smith normal form, solves, and basis constructions."""

import random
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest

from eigenchain import (
    GF,
    QQ,
    ZZ,
    Matrix,
    SubspaceBasis,
    complement_basis,
    det,
    hstack,
    image_basis,
    intersect,
    inverse,
    kernel_basis,
    rank,
    rref,
    smith_normal_form,
    solve_matrix,
    spans_equal,
)
from eigenchain.errors import NotAField, NotIntegerRing, NotInvertible, NotSaturated

from conftest import triangle_boundary

F2 = GF(2)


class TestRref:
    def test_identity(self):
        res = rref(Matrix.identity(QQ, 3))
        assert res.echelon == Matrix.identity(QQ, 3)
        assert res.pivots == (0, 1, 2)

    def test_triangle_boundary_has_rank_two(self):
        # Hand elimination: row2 += row1, row3 += row1+row2 clears to two pivots.
        res = rref(triangle_boundary(QQ))
        assert res.pivots == (0, 1)
        assert res.transform @ triangle_boundary(QQ) == res.echelon

    def test_zero_matrix(self):
        res = rref(Matrix.zeros(QQ, 2, 3))
        assert res.echelon.is_zero()
        assert res.pivots == ()

    def test_transform_is_invertible(self):
        rng = random.Random(5)
        for _ in range(25):
            a = Matrix(QQ, [[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)])
            res = rref(a)
            assert res.transform @ a == res.echelon
            assert len(rref(res.transform).pivots) == 3

    def test_rejects_integers(self):
        with pytest.raises(NotAField):
            rref(Matrix.identity(ZZ, 1))


class TestSmith:
    def test_one_by_one(self):
        res = smith_normal_form(Matrix(ZZ, [[2]]))
        assert res.s == Matrix(ZZ, [[2]])
        assert res.invariant_factors == (2,)

    def test_triangle_boundary(self):
        res = smith_normal_form(triangle_boundary(ZZ))
        assert res.invariant_factors == (1, 1, 0)
        assert res.u @ triangle_boundary(ZZ) @ res.v == res.s

    def test_zero_matrix_keeps_full_diagonal(self):
        # The invariant-factor list always has length min(rows, cols).
        assert smith_normal_form(Matrix.zeros(ZZ, 3, 3)).invariant_factors == (0, 0, 0)

    def test_rejects_fields(self):
        with pytest.raises(NotIntegerRing):
            smith_normal_form(Matrix.identity(QQ, 1))

    def test_algebraic_contract_on_random_matrices(self):
        rng = random.Random(17)
        for _ in range(80):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            a = Matrix(ZZ, [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
            res = smith_normal_form(a)
            assert res.u @ a @ res.v == res.s
            assert abs(det(res.u)) == 1
            assert abs(det(res.v)) == 1
            assert res.u @ res.u_inv == Matrix.identity(ZZ, rows)
            factors = res.invariant_factors
            assert all(d >= 0 for d in factors)
            for x, y in zip(factors, factors[1:]):
                if x == 0:
                    assert y == 0
                else:
                    assert y % x == 0
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert res.s.data[i][j] == 0


class TestKernelImage:
    def test_triangle_kernel_is_the_full_cycle(self):
        ker = kernel_basis(triangle_boundary(ZZ))
        assert ker.vectors == Matrix(ZZ, [[1], [1], [1]])

    def test_identity(self):
        assert kernel_basis(Matrix.identity(QQ, 2)).dim == 0
        assert image_basis(Matrix.identity(QQ, 2)).vectors == Matrix.identity(QQ, 2)

    def test_f2_projector(self):
        a = Matrix(F2, [[1, 0], [0, 0]])
        # Oracle: enumerate all four vectors of F2^2.
        vecs = [(x, y) for x in (0, 1) for y in (0, 1)]
        kernel = [v for v in vecs if ((a.data[0][0] * v[0] + a.data[0][1] * v[1]) % 2,
                                      (a.data[1][0] * v[0] + a.data[1][1] * v[1]) % 2) == (0, 0)]
        assert set(kernel) == {(0, 0), (0, 1)}
        assert kernel_basis(a).vectors == Matrix(F2, [[0], [1]])
        assert image_basis(a).vectors == Matrix(F2, [[1], [0]])

    def test_rank_nullity(self):
        rng = random.Random(23)
        for ring in (QQ, F2, ZZ):
            for _ in range(20):
                rows, cols = rng.randint(0, 4), rng.randint(0, 4)
                a = Matrix(ring, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)], cols=cols)
                assert kernel_basis(a).dim + rank(a) == cols
                for j in range(kernel_basis(a).dim):
                    assert (a @ kernel_basis(a).vectors.col(j)).is_zero()

    def test_integer_image_generates_submodule(self):
        a = Matrix(ZZ, [[2, 0], [0, 3]])
        img = image_basis(a)
        # Both generators must be reachable integrally, and conversely.
        assert solve_matrix(img.vectors, a) is not None
        assert solve_matrix(a, img.vectors) is not None


class TestSolve:
    def test_identity(self):
        b = Matrix.column(ZZ, [1, 2, 3])
        assert solve_matrix(Matrix.identity(ZZ, 3), b) == b

    def test_parity_obstruction(self):
        assert solve_matrix(Matrix(ZZ, [[2]]), Matrix.column(ZZ, [1])) is None
        assert solve_matrix(Matrix(QQ, [[2]]), Matrix.column(QQ, [1])) == Matrix.column(QQ, ["1/2"])

    def test_random_consistent_systems(self):
        rng = random.Random(41)
        for ring in (QQ, F2, ZZ):
            for _ in range(20):
                rows, cols = rng.randint(1, 4), rng.randint(1, 4)
                a = Matrix(ring, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
                x = Matrix.column(ring, [rng.randint(-3, 3) for _ in range(cols)])
                sol = solve_matrix(a, a @ x)
                assert sol is not None
                assert a @ sol == a @ x

    def test_inverse(self):
        u = Matrix(ZZ, [[2, 1], [1, 1]])
        assert u @ inverse(u) == Matrix.identity(ZZ, 2)
        with pytest.raises(NotInvertible):
            inverse(Matrix(ZZ, [[2]]))
        q = Matrix(QQ, [[2]])
        assert inverse(q) == Matrix(QQ, [["1/2"]])


class TestComplement:
    def test_first_axis_in_q3(self):
        sub = SubspaceBasis(3, Matrix(QQ, [[1], [0], [0]]))
        comp = complement_basis(sub)
        assert comp.vectors == Matrix(QQ, [[0, 0], [1, 0], [0, 1]])

    def test_circle_image_complement_is_first_vertex(self):
        # Image basis of the adapted circle boundary: rows 1 and 2.
        sub = SubspaceBasis(3, Matrix(ZZ, [[0, 0], [1, 0], [0, 1]]))
        comp = complement_basis(sub)
        assert comp.vectors == Matrix(ZZ, [[1], [0], [0]])

    def test_unsaturated_submodule_is_reported(self):
        with pytest.raises(NotSaturated) as info:
            complement_basis(SubspaceBasis(1, Matrix(ZZ, [[2]])))
        assert info.value.factors == [2]

    def test_fallback_when_no_standard_vector_completes(self):
        # span{(3,-2)} is pure but no single standard vector extends it.
        sub = SubspaceBasis(2, Matrix(ZZ, [[3], [-2]]))
        comp = complement_basis(sub)
        stacked = hstack([sub.vectors, comp.vectors])
        assert abs(det(stacked)) == 1

    def test_concatenation_is_invertible(self):
        rng = random.Random(9)
        for _ in range(25):
            cols = rng.randint(1, 3)
            a = Matrix(ZZ, [[rng.randint(-3, 3) for _ in range(cols + 1)] for _ in range(4)])
            sub = kernel_basis(a)  # kernels are always pure
            if sub.dim == 0:
                continue
            comp = complement_basis(sub)
            stacked = hstack([sub.vectors, comp.vectors])
            assert stacked.rows == stacked.cols
            assert abs(det(stacked)) == 1
        for _ in range(25):
            cols = rng.randint(1, 4)
            a = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(4)])
            sub = image_basis(a)
            comp = complement_basis(sub)
            stacked = hstack([sub.vectors, comp.vectors])
            assert len(rref(stacked).pivots) == 4


def leibniz(ring, entries):
    """The determinant as a signed sum over permutations, reduced in ``ring`` at the end."""
    n = len(entries)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        total += (-1) ** inversions * prod(entries[i][perm[i]] for i in range(n))
    return ring.normalize(total)


class TestDet:
    @pytest.mark.parametrize("ring", [QQ, ZZ, F2, GF(5)], ids=str)
    def test_agrees_with_leibniz(self, ring):
        rng = random.Random(71)
        for _ in range(120):
            n = rng.randint(1, 4)
            entries = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.2:  # a repeated row: singular over every ring
                entries[-1] = list(entries[0])
            a = Matrix(ring, entries)
            assert det(a) == leibniz(ring, a.data)

    @pytest.mark.parametrize("ring", [QQ, ZZ, GF(5)], ids=str)
    def test_signs_of_permutations(self, ring):
        # A permutation matrix has the sign of its permutation; scaling
        # one row by 2 doubles it.
        for perm in permutations(range(4)):
            entries = [[1 if j == perm[i] else 0 for j in range(4)] for i in range(4)]
            sign = leibniz(ring, entries)
            assert det(Matrix(ring, entries)) == sign
            entries[2] = [2 * v for v in entries[2]]
            assert det(Matrix(ring, entries)) == ring.normalize(2 * sign)

    @pytest.mark.parametrize("ring", [QQ, ZZ, F2, GF(5)], ids=str)
    def test_empty_matrix_has_determinant_one(self, ring):
        assert det(Matrix.identity(ring, 0)) == ring.normalize(1)

    def test_rational_entries(self):
        a = Matrix(QQ, [[Fraction(1, 2), 3], [Fraction(-2, 3), Fraction(5, 7)]])
        assert det(a) == Fraction(1, 2) * Fraction(5, 7) + 2
        assert isinstance(det(a), Fraction)


def test_rank_agrees_between_elimination_and_invariant_factors():
    # The rank of an integer matrix equals the rank of its rational lift.
    rng = random.Random(63)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        entries = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        over_z = rank(Matrix(ZZ, entries))
        over_q = len(rref(Matrix(QQ, entries)).pivots)
        assert over_z == over_q


class TestSpans:
    def test_spans_equal_and_intersect(self):
        a = SubspaceBasis(3, Matrix(QQ, [[1, 0], [0, 1], [0, 0]]))
        b = SubspaceBasis(3, Matrix(QQ, [[1, 1], [1, -1], [0, 0]]))
        assert spans_equal(a, b)
        c = SubspaceBasis(3, Matrix(QQ, [[1], [0], [0]]))
        meet = intersect(a, c)
        assert meet.dim == 1
        assert spans_equal(meet, c)

    def test_spans_of_different_dimension_differ(self):
        a = SubspaceBasis(3, Matrix(QQ, [[1, 0], [0, 1], [0, 0]]))
        b = SubspaceBasis(3, Matrix(QQ, [[1], [0], [0]]))
        assert not spans_equal(a, b)
        assert not spans_equal(b, a)

    def test_integer_span_equality_is_integral(self):
        a = SubspaceBasis(1, Matrix(ZZ, [[1]]))
        b = SubspaceBasis(1, Matrix(ZZ, [[2]]))
        assert not spans_equal(a, b)
