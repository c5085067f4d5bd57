"""Degree decompositions, homology, and the canonical eigenmap."""

import random

import pytest

from eigenchain import (
    GF,
    QQ,
    ZZ,
    ChainComplex,
    Matrix,
    SubspaceBasis,
    canonical_alpha,
    decompose,
    homology,
    hstack,
    kernel_basis,
    rank,
    scalar_object,
    solve_matrix,
    validate_chain_map,
)
from eigenchain.errors import NotSaturated, TorsionHomology
from eigenchain.oracle import brute_homology_f2
from eigenchain.randgen import random_complex

F2 = GF(2)


class TestDecompose:
    def test_circle_pieces(self, circle):
        dec = decompose(circle)
        # Degree 0 (vertices, adapted basis): complement is [A], image the rest.
        assert dec[0].complement.vectors == Matrix(ZZ, [[1], [0], [0]])
        assert dec[0].incoming_image.vectors == Matrix(ZZ, [[0, 0], [1, 0], [0, 1]])
        # Degree -1 (edges): the cycle spans all three, transversal two edges.
        assert dec[-1].complement_cycles.vectors == Matrix(ZZ, [[1], [1], [1]])
        assert dec[-1].complement_transversal.dim == 2

    def test_zero_differential_complex(self):
        x = scalar_object(QQ, {0: 3, 1: 2})
        dec = decompose(x)
        for n in (0, 1):
            assert dec[n].complement.dim == x.rank(n)
            assert dec[n].complement_cycles.dim == x.rank(n)
            assert dec[n].complement_transversal.dim == 0
            assert dec[n].incoming_image.dim == 0

    def test_doubling_map_is_not_saturated(self):
        x = ChainComplex(ZZ, "cochain", {0: 1, 1: 1}, {0: Matrix(ZZ, [[2]])})
        with pytest.raises(NotSaturated) as info:
            decompose(x)
        assert info.value.degree == 1
        assert info.value.factors == [2]

    def test_rank_identities_hold(self):
        rng = random.Random(7)
        for ring in (QQ, F2):
            for _ in range(15):
                f = random_complex(ring, rng, max_len=4, max_rank=4)
                dec = decompose(f)
                for n in f.degrees():
                    part = dec[n]
                    assert part.complement.dim + part.incoming_image.dim == f.rank(n)
                    assert (
                        part.complement_transversal.dim + part.complement_cycles.dim
                        == part.complement.dim
                    )

    def test_kernel_splits_as_cycles_plus_image(self):
        # Concatenating the complement cycles with the image must span ker d.
        rng = random.Random(71)
        for ring in (QQ, F2):
            for _ in range(12):
                f = random_complex(ring, rng, max_len=4, max_rank=4)
                dec = decompose(f)
                for n in f.degrees():
                    part = dec[n]
                    stacked = hstack([part.cycles_in_ambient, part.incoming_image.vectors])
                    ker = kernel_basis(f.diff(n))
                    assert rank(stacked) == stacked.cols == ker.dim
                    assert solve_matrix(ker.vectors, stacked) is not None

    def test_transversal_maps_isomorphically_onto_image(self):
        rng = random.Random(55)
        for _ in range(10):
            f = random_complex(QQ, rng, max_len=4, max_rank=4)
            dec = decompose(f)
            for n in f.degrees():
                part = dec[n]
                restricted = part.restricted_diff @ part.complement_transversal.vectors
                assert restricted.rows == restricted.cols
                assert rank(restricted) == restricted.rows


class TestHomology:
    def test_circle(self, circle):
        hom = homology(circle)
        assert {n: h.betti for n, h in hom.by_degree.items()} == {-1: 1, 0: 1}
        assert not hom.torsion_by_degree()

    def test_exact_complex_is_acyclic(self):
        x = ChainComplex(QQ, "cochain", {0: 1, 1: 1}, {0: Matrix(QQ, [[1]])})
        hom = homology(x)
        assert not hom.betti_numbers() and not hom.torsion_by_degree()

    def test_f2_projector_complex(self):
        x = ChainComplex(F2, "cochain", {0: 2, 1: 2}, {0: Matrix(F2, [[1, 0], [0, 0]])})
        hom = homology(x)
        assert {n: h.betti for n, h in hom.by_degree.items()} == {0: 1, 1: 1}
        oracle = brute_homology_f2(x)
        assert oracle.ranks == {0: 1, 1: 1}

    def test_torsion_is_reported_not_raised(self):
        x = ChainComplex(ZZ, "cochain", {0: 1, 1: 1}, {0: Matrix(ZZ, [[2]])})
        hom = homology(x)
        assert hom.by_degree[1].betti == 0
        assert hom.by_degree[1].torsion == (2,)
        assert hom.by_degree[0].betti == 0

    def test_representatives_are_cycles(self):
        rng = random.Random(3)
        for ring in (QQ, ZZ):
            for _ in range(10):
                f = random_complex(ring, rng, max_len=4, max_rank=3)
                hom = homology(f)
                for n, h in hom.by_degree.items():
                    assert (f.diff(n) @ h.representatives.vectors).is_zero()

    def test_matches_brute_oracle_on_small_f2_corpus(self):
        rng = random.Random(29)
        for _ in range(60):
            f = random_complex(F2, rng, max_len=4, max_rank=3, total_cap=12)
            brute = brute_homology_f2(f).ranks
            main = {n: h.betti for n, h in homology(f).by_degree.items()}
            assert brute == main


class TestCanonicalAlpha:
    def test_circle_gives_the_worked_eigenmap(self, circle):
        lam, alpha = canonical_alpha(circle)
        assert lam.ranks == {-1: 1, 0: 1}
        assert alpha.block(-1) == Matrix(ZZ, [[1], [1], [1]])
        assert alpha.block(0) == Matrix(ZZ, [[1], [0], [0]])
        assert validate_chain_map(alpha).ok

    def test_zero_complex(self):
        lam, alpha = canonical_alpha(scalar_object(QQ, {}))
        assert lam.ranks == {}
        assert alpha.blocks == {}

    def test_f2_projector_complex(self):
        x = ChainComplex(F2, "cochain", {0: 2, 1: 2}, {0: Matrix(F2, [[1, 0], [0, 0]])})
        lam, alpha = canonical_alpha(x)
        assert lam.ranks == {0: 1, 1: 1}
        for n in (0, 1):
            block = alpha.block(n)
            assert block.cols == 1
            assert kernel_basis(block).dim == 0
            assert (x.diff(n) @ block).is_zero()

    def test_torsion_blocks_canonical_alpha(self):
        x = ChainComplex(ZZ, "cochain", {0: 1, 1: 1}, {0: Matrix(ZZ, [[2]])})
        with pytest.raises(TorsionHomology) as info:
            canonical_alpha(x)
        assert info.value.factors == [2]

    def test_image_lies_in_complement_cycles(self):
        rng = random.Random(47)
        for ring in (QQ, F2):
            for _ in range(12):
                f = random_complex(ring, rng, max_len=4, max_rank=4)
                lam, alpha = canonical_alpha(f)
                dec = decompose(f)
                for n in lam.degrees():
                    cycles = dec[n].cycles_in_ambient
                    basis = SubspaceBasis(f.rank(n), cycles)
                    assert solve_matrix(basis.vectors, alpha.block(n)) is not None
