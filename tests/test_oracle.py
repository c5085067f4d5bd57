"""The brute-force oracles themselves."""

import random

import pytest

from eigenchain import (
    GF,
    QQ,
    ZZ,
    ChainComplex,
    Matrix,
    identity_map,
    is_contractible,
    mapping_cone,
    scalar_object,
    zero_map,
    verify_homotopy,
)
from eigenchain.errors import NotAField, TooLarge
from eigenchain.oracle import brute_homology_f2, homotopy_system_solvable
from eigenchain.randgen import random_complex

from conftest import circle_pair

F2 = GF(2)


class TestBruteHomology:
    def test_zero_differential(self):
        x = scalar_object(F2, {0: 1, 1: 1})
        assert brute_homology_f2(x).ranks == {0: 1, 1: 1}

    def test_identity_differential(self):
        x = ChainComplex(F2, "cochain", {0: 1, 1: 1}, {0: Matrix(F2, [[1]])})
        assert brute_homology_f2(x).ranks == {0: 0, 1: 0}

    def test_projector(self):
        x = ChainComplex(F2, "cochain", {0: 2, 1: 2}, {0: Matrix(F2, [[1, 0], [0, 0]])})
        assert brute_homology_f2(x).ranks == {0: 1, 1: 1}

    def test_budget_guard(self):
        x = scalar_object(F2, {0: 13})
        with pytest.raises(TooLarge):
            brute_homology_f2(x)

    def test_requires_f2(self):
        with pytest.raises(NotAField):
            brute_homology_f2(scalar_object(ZZ, {0: 1}))


class TestHomotopySystem:
    def test_circle_cone_over_q_is_solvable(self):
        f, lam, alpha = circle_pair()
        # Base change to Q: same matrices, rational entries.
        fq = ChainComplex(QQ, "cochain", dict(f.ranks), {n: Matrix(QQ, m.render_rows()) for n, m in f.diffs.items()})
        lamq = scalar_object(QQ, dict(lam.ranks))
        from eigenchain import GradedMap

        alphaq = GradedMap(lamq, fq, 0, {n: Matrix(QQ, b.render_rows()) for n, b in alpha.blocks.items()})
        cone = mapping_cone(alphaq)
        z = cone.underlying
        report = homotopy_system_solvable(z, zero_map(z, z), identity_map(z))
        assert report.solvable
        assert verify_homotopy(z, zero_map(z, z), identity_map(z), report.homotopy).ok

    def test_lone_scalar_is_unsolvable(self):
        x = scalar_object(QQ, {0: 1})
        report = homotopy_system_solvable(x, zero_map(x, x), identity_map(x))
        assert not report.solvable

    def test_equal_maps_admit_the_zero_homotopy(self):
        x = ChainComplex(QQ, "cochain", {0: 2, 1: 1}, {0: Matrix(QQ, [[1, 2]])})
        f = identity_map(x)
        report = homotopy_system_solvable(x, f, f)
        assert report.solvable
        assert verify_homotopy(x, f, f, report.homotopy).ok

    def test_agrees_with_the_contractibility_criterion_over_z(self):
        # d = [2] and d = [3] are exact over Q but not over Z: no integral homotopy.
        rng = random.Random(52)
        complexes = [random_complex(ZZ, rng, max_len=4, max_rank=3, total_cap=10) for _ in range(20)]
        complexes += [ChainComplex(ZZ, "cochain", {0: 1, 1: 1}, {0: Matrix(ZZ, [[d]])}) for d in (1, 2, 3)]
        flags = set()
        for x in complexes:
            flag, _ = is_contractible(x)
            report = homotopy_system_solvable(x, zero_map(x, x), identity_map(x))
            assert flag == report.solvable
            if report.solvable:
                assert verify_homotopy(x, zero_map(x, x), identity_map(x), report.homotopy).ok
            flags.add(flag)
        assert flags == {True, False}
        assert [is_contractible(x)[0] for x in complexes[-3:]] == [True, False, False]

    def test_agrees_with_the_contractibility_criterion(self):
        rng = random.Random(51)
        for ring in (QQ, F2):
            for _ in range(20):
                x = random_complex(ring, rng, max_len=4, max_rank=3, total_cap=10)
                flag, _ = is_contractible(x)
                report = homotopy_system_solvable(x, zero_map(x, x), identity_map(x))
                assert flag == report.solvable
