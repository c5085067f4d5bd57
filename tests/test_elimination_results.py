"""An elimination result answers kernels, images, image coordinates and solves itself.

``factor`` is ``rref`` over a field and ``smith_normal_form`` over Z; the
result carries its input as ``matrix``.  Its methods must agree with the
module-level ``kernel_basis``, ``image_basis`` and ``solve_matrix``.
"""

import random

import pytest

from eigenchain import GF, QQ, ZZ, Matrix, hstack
from eigenchain.linalg import (
    RrefResult,
    SnfResult,
    factor,
    image_basis,
    kernel_basis,
    rank,
    rref,
    smith_normal_form,
    solve_matrix,
)

RINGS = [QQ, GF(5), ZZ]


def random_matrix(ring, rng, rows, cols, spread=3):
    return Matrix(ring, [[rng.randint(-spread, spread) for _ in range(cols)] for _ in range(rows)], cols=cols)


def eliminate(a):
    return rref(a) if a.ring.is_field else smith_normal_form(a)


def random_cases(ring, seed, count=40):
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        yield rng, random_matrix(ring, rng, rows, cols)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_factor_is_the_elimination_itself(ring):
    for _, a in random_cases(ring, 3, 10):
        res = factor(a)
        assert isinstance(res, RrefResult if ring.is_field else SnfResult)
        assert res.matrix is a
        assert res == eliminate(a)
        assert res.rank == rank(a)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_kernel_and_image_match_the_module_functions(ring):
    for _, a in random_cases(ring, 5):
        res = eliminate(a)
        assert res.kernel() == kernel_basis(a)
        assert res.image() == image_basis(a)
        assert res.kernel().dim == a.cols - res.rank
        assert (a @ res.kernel().vectors).is_zero()


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_image_coords_solve_against_the_image(ring):
    for rng, a in random_cases(ring, 7):
        res = eliminate(a)
        v = a @ random_matrix(ring, rng, a.cols, rng.randint(0, 3))
        coords = res.image_coords(v)
        assert coords == solve_matrix(res.image().vectors, v)
        assert res.image().vectors @ coords == v


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_solve_matches_solve_matrix(ring):
    solved = unsolved = 0
    for rng, a in random_cases(ring, 11, 60):
        res = eliminate(a)
        # Right-hand sides inside the column space and arbitrary ones.
        for b in (a @ random_matrix(ring, rng, a.cols, 2), random_matrix(ring, rng, a.rows, 2)):
            x = res.solve(b)
            assert x == solve_matrix(a, b)
            if x is None:
                unsolved += 1
                if ring.is_field:
                    assert rank(hstack([a, b])) > res.rank
            else:
                solved += 1
                assert a @ x == b
    assert solved and unsolved


def test_torsion_reads_the_invariant_factors_above_one():
    a = Matrix(ZZ, [[2, 0], [0, 6]])
    assert smith_normal_form(a).torsion == (2, 6)
    assert rref(Matrix(QQ, [[2, 0], [0, 6]])).torsion == ()
    assert smith_normal_form(a).solve(Matrix(ZZ, [[1], [0]])) is None
    assert rref(Matrix(QQ, [[2, 0], [0, 6]])).solve(Matrix(QQ, [[1], [0]])) is not None
