"""Quantities read off one factorization agree with their direct computations.

The analysis of a complex reads image coordinates, block-coordinate
inverses, cycle coordinates and the lift through the transversal off
eliminations it has already run, instead of solving or inverting again.
Each of those shortcuts is checked here against the direct route.
"""

import random

import pytest

from eigenchain import GF, QQ, ZZ, Matrix, SubspaceBasis, decompose, hstack, inverse, solve_matrix
from eigenchain.errors import NotSaturated
from eigenchain.linalg import complement_and_inverse, complement_basis, factor, image_basis, kernel_basis
from eigenchain.randgen import random_complex

RINGS = [QQ, GF(5), ZZ]


def random_matrix(ring, rng, rows, cols, spread=3):
    return Matrix(ring, [[rng.randint(-spread, spread) for _ in range(cols)] for _ in range(rows)], cols=cols)


def pure_subspaces(ring, rng, count):
    """Kernels and (over fields) images of random matrices, of every size."""
    for _ in range(count):
        m = rng.randint(1, 5)
        a = random_matrix(ring, rng, rng.randint(1, 4), m)
        yield kernel_basis(a)
        if ring.is_field:
            yield image_basis(random_matrix(ring, rng, m, rng.randint(1, 4)))


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_complement_and_inverse_matches_the_direct_inverse(ring):
    rng = random.Random(41)
    for sub in pure_subspaces(ring, rng, 40):
        comp, to_blocks = complement_and_inverse(sub)
        assert comp == complement_basis(sub)
        assert to_blocks == inverse(hstack([comp.vectors, sub.vectors]))


def test_complement_and_inverse_on_the_smith_fallback():
    # span{(3,-2)} is pure but no single standard vector extends it.
    sub = SubspaceBasis(2, Matrix(ZZ, [[3], [-2]]))
    comp, to_blocks = complement_and_inverse(sub)
    assert to_blocks == inverse(hstack([comp.vectors, sub.vectors]))
    assert comp.vectors not in (Matrix(ZZ, [[1], [0]]), Matrix(ZZ, [[0], [1]]))


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_image_coords_solve_against_the_image_basis(ring):
    rng = random.Random(43)
    for _ in range(40):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        a = random_matrix(ring, rng, rows, cols)
        v = a @ random_matrix(ring, rng, cols, rng.randint(0, 3))
        fac = factor(a)
        assert fac.image_coords(v) == solve_matrix(fac.image().vectors, v)


@pytest.mark.parametrize("ring", [QQ, GF(2), ZZ], ids=str)
def test_cycle_coordinates_and_the_transversal_lift(ring):
    rng = random.Random(47)
    checked = 0
    for _ in range(30):
        f = random_complex(ring, rng, max_len=4, max_rank=4)
        try:
            dec = decompose(f)
        except NotSaturated:  # torsion over Z: no split to check
            continue
        for n in dec:
            part = dec[n]
            split = hstack([part.cycles_in_ambient, part.transversal_in_ambient, part.incoming_image.vectors])
            z = part.complement_cycles.dim
            assert part.to_cycle_coords == inverse(split).submatrix(range(z), range(f.rank(n)))
            # right_inverse is a right inverse of delta with values on the transversal.
            assert part.restricted_diff @ part.right_inverse == Matrix.identity(ring, part.restricted_diff.rows)
            assert solve_matrix(part.complement_transversal.vectors, part.right_inverse) is not None
            checked += 1
    assert checked >= 20
