"""Certificates: both verdicts, every failure reason, block analysis."""

import gc
import random
import weakref
from collections import Counter

from eigenchain import (
    GF,
    QQ,
    ZZ,
    ChainComplex,
    GradedMap,
    Matrix,
    analyze_homotopy_blocks,
    canonical_alpha,
    certify_homology_eigenvalue,
    construct_null_homotopy,
    decide_eigenvalue,
    decompose,
    identity_map,
    is_contractible,
    mapping_cone,
    scalar_object,
    verify_homotopy,
    zero_map,
)
from eigenchain.cones import Homotopy
from eigenchain.decompose import Decomposition, DegreeDecomposition
from eigenchain.oracle import homotopy_system_solvable
from eigenchain.randgen import alpha_variants, random_complex
from test_elimination_count import skeleton

F2 = GF(2)


def reverified(cert):
    z = cert.cone.underlying
    return verify_homotopy(z, zero_map(z, z), identity_map(z), cert.witness).ok


class TestDecide:
    def test_circle_pair_is_certified_with_the_worked_witness(self, circle_with_pair):
        f, lam, alpha = circle_with_pair
        cert = decide_eigenvalue(f, lam, alpha)
        assert cert.is_eigenvalue()
        assert cert.witness.block(-1) == Matrix(ZZ, [[0, 0, 0, -1]])
        assert cert.witness.block(0) == Matrix(
            ZZ, [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [0, 0, 0]]
        )
        assert reverified(cert)
        assert cert.lambda_ranks == {-1: 1, 0: 1}
        assert all(cert.alpha_injective.values())

    def test_rank_mismatch_names_the_degree(self, circle):
        lam = scalar_object(ZZ, {-1: 1, 0: 2})
        alpha = GradedMap(
            lam,
            circle,
            0,
            {-1: Matrix(ZZ, [[1], [1], [1]]), 0: Matrix(ZZ, [[1, 0], [0, 0], [0, 0]])},
        )
        cert = decide_eigenvalue(circle, lam, alpha)
        assert not cert.is_eigenvalue()
        assert cert.failure_reason.kind == "RankMismatch"
        assert cert.failure_reason.degree == 0
        assert not is_contractible(mapping_cone(alpha).underlying)[0]

    def test_failure_reason_is_the_first_of_the_failure_reasons(self, circle_with_pair):
        f, lam, alpha = circle_with_pair
        assert decide_eigenvalue(f, lam, alpha).failure_reason is None
        lam = scalar_object(ZZ, {-1: 1, 0: 1})
        cert = decide_eigenvalue(f, lam, GradedMap(lam, f, 0, {}))
        assert cert.failure_reasons
        assert cert.failure_reason is cert.failure_reasons[0]

    def test_lambda_off_the_support_of_f_is_a_rank_mismatch_there(self):
        # F is exact and has no module at degree 3, where its Betti number is zero.
        f = ChainComplex(ZZ, "cochain", {0: 1, 1: 1}, {0: Matrix(ZZ, [[1]])})
        lam = scalar_object(ZZ, {3: 1})
        cert = decide_eigenvalue(f, lam, GradedMap(lam, f, 0, {}))
        assert [(r.kind, r.degree) for r in cert.failure_reasons] == [("RankMismatch", 3)]

    def test_non_injective_map(self, circle):
        lam = scalar_object(ZZ, {-1: 1, 0: 1})
        alpha = GradedMap(lam, circle, 0, {-1: Matrix(ZZ, [[1], [1], [1]])})
        cert = decide_eigenvalue(circle, lam, alpha)
        assert not cert.is_eigenvalue()
        assert cert.failure_reason.kind == "AlphaNotInjective"
        assert cert.failure_reason.degree == 0
        assert cert.alpha_injective == {-1: True, 0: False}

    def test_boundary_valued_map_misses_the_complement(self, circle):
        lam = scalar_object(ZZ, {-1: 1, 0: 1})
        alpha = GradedMap(
            lam,
            circle,
            0,
            # Degree-0 column is the boundary [B]-[A]: a cycle outside the complement.
            {-1: Matrix(ZZ, [[1], [1], [1]]), 0: Matrix(ZZ, [[0], [1], [0]])},
        )
        cert = decide_eigenvalue(circle, lam, alpha)
        assert not cert.is_eigenvalue()
        assert cert.failure_reason.kind == "AlphaNotIntoG"
        assert cert.failure_reason.degree == 0

    def test_doubling_is_injective_but_not_spanning_over_z(self):
        f = scalar_object(ZZ, {0: 1})
        lam = scalar_object(ZZ, {0: 1})
        alpha = GradedMap(lam, f, 0, {0: Matrix(ZZ, [[2]])})
        cert = decide_eigenvalue(f, lam, alpha)
        assert not cert.is_eigenvalue()
        assert cert.failure_reason.kind == "AlphaNotSurjective"
        # The cone is the doubling map, whose homology is the 2-torsion group.
        assert not is_contractible(mapping_cone(alpha).underlying)[0]

    def test_complement_miss_with_contractible_cone_is_still_positive(self):
        # The map lands outside the chosen complement yet induces the same
        # homology classes, so the cone contracts and arbitration flips it.
        f = ChainComplex(QQ, "cochain", {0: 1, 1: 2}, {0: Matrix(QQ, [[1], [0]])})
        lam = scalar_object(QQ, {1: 1})
        alpha = GradedMap(lam, f, 0, {1: Matrix(QQ, [[1], [1]])})
        cert = decide_eigenvalue(f, lam, alpha)
        assert cert.is_eigenvalue()
        assert reverified(cert)

    def test_saturation_failure_over_z(self):
        f = ChainComplex(ZZ, "cochain", {0: 1, 1: 1}, {0: Matrix(ZZ, [[2]])})
        lam = scalar_object(ZZ, {})
        cert = decide_eigenvalue(f, lam, zero_map(lam, f))
        assert not cert.is_eigenvalue()
        assert cert.failure_reason.kind == "NotSaturated"
        assert cert.failure_reason.factors == (2,)

    def test_only_a_positive_verdict_carries_the_cone_and_its_witness(self):
        # A negative is decided from ranks and hypotheses; the cone is the
        # proof object of a positive verdict, and the witness lives on it.
        seen = set()
        for ring, seed in ((QQ, 11), (F2, 12), (GF(3), 13), (ZZ, 14)):
            rng = random.Random(seed)
            for _ in range(15):
                f = random_complex(ring, rng, max_len=4, max_rank=3, total_cap=8)
                certs = [certify_homology_eigenvalue(f)]
                certs += [decide_eigenvalue(f, lam, alpha) for _, lam, alpha in alpha_variants(f, rng)]
                for cert in certs:
                    assert (cert.cone is None) == (cert.witness is None) == (not cert.is_eigenvalue())
                    if cert.is_eigenvalue():
                        assert cert.witness.on is cert.cone.underlying
                    seen.add((ring, cert.failure_reason.kind if cert.failure_reason else None))
        assert {ring for ring, kind in seen if kind is None} == {QQ, F2, GF(3), ZZ}
        assert {ring for ring, kind in seen if kind is not None} == {QQ, F2, GF(3), ZZ}
        assert (ZZ, "Torsion") in seen


class TestCertifyHomology:
    def test_circle(self, circle):
        cert = certify_homology_eigenvalue(circle)
        assert cert.is_eigenvalue()
        assert cert.lambda_ranks == {-1: 1, 0: 1}
        assert reverified(cert)

    def test_exact_complex_has_the_zero_eigenvalue(self):
        f = ChainComplex(QQ, "cochain", {0: 1, 1: 1}, {0: Matrix(QQ, [[1]])})
        cert = certify_homology_eigenvalue(f)
        assert cert.is_eigenvalue()
        assert cert.lambda_ranks == {}

    def test_torsion_yields_a_structured_failure(self):
        f = ChainComplex(ZZ, "cochain", {0: 1, 1: 1}, {0: Matrix(ZZ, [[2]])})
        cert = certify_homology_eigenvalue(f)
        assert not cert.is_eigenvalue()
        assert cert.failure_reason.kind == "Torsion"
        assert cert.failure_reason.factors == (2,)
        assert cert.homology_torsion == {1: (2,)}

    def test_always_positive_over_fields(self):
        rng = random.Random(101)
        for ring in (QQ, F2):
            for _ in range(20):
                f = random_complex(ring, rng, max_len=5, max_rank=4)
                cert = certify_homology_eigenvalue(f)
                assert cert.is_eigenvalue()
                assert reverified(cert)


class TestBiconditional:
    def test_verdict_matches_the_linear_system_oracle(self):
        rng = random.Random(4242)
        agreements = 0
        for _ in range(25):
            f = random_complex(F2, rng, max_len=4, max_rank=3, total_cap=8)
            for tag, lam, alpha in alpha_variants(f, rng):
                cert = decide_eigenvalue(f, lam, alpha)
                cone = mapping_cone(alpha)
                oracle = homotopy_system_solvable(
                    cone.underlying,
                    zero_map(cone.underlying, cone.underlying),
                    identity_map(cone.underlying),
                )
                assert cert.is_eigenvalue() == oracle.solvable, tag
                agreements += 1
        assert agreements >= 100

    def test_integer_verdicts_match_contractibility(self):
        rng = random.Random(909)
        checked = 0
        for _ in range(15):
            f = random_complex(ZZ, rng, max_len=4, max_rank=3, total_cap=8)
            for tag, lam, alpha in alpha_variants(f, rng):
                cert = decide_eigenvalue(f, lam, alpha)
                cone = mapping_cone(alpha)
                flag, _ = is_contractible(cone.underlying)
                assert cert.is_eigenvalue() == flag, tag
                if cert.is_eigenvalue():
                    assert reverified(cert)
                checked += 1
        assert checked >= 30

    def test_failures_carry_the_smallest_degree(self):
        # Two rank mismatches: the reported one is the smaller degree.
        f = scalar_object(QQ, {0: 1, 1: 1})
        lam = scalar_object(QQ, {0: 2, 1: 2})
        alpha = GradedMap(
            lam, f, 0,
            {0: Matrix(QQ, [[1, 0]]), 1: Matrix(QQ, [[1, 0]])},
        )
        cert = decide_eigenvalue(f, lam, alpha)
        assert [r.degree for r in cert.failure_reasons] == [0, 1]
        assert cert.failure_reason.degree == 0


class TestBlockAnalysis:
    def test_circle_witness_blocks(self, circle_with_pair):
        f, lam, alpha = circle_with_pair
        cone = mapping_cone(alpha)
        dec = decompose(f)
        psi = construct_null_homotopy(cone, dec)
        analysis = analyze_homotopy_blocks(cone, psi, dec)
        assert analysis.all_equations_hold()
        assert analysis.all_conclusions_hold()
        deg = analysis.by_degree[-1]
        assert deg.rank_cycles_inside_image == 1
        assert deg.rank_transversal_outside_image == 2
        assert deg.rank_cycles_outside_image == 0
        assert deg.rank_transversal_inside_image == 0
        assert all(r.residual_is_cycle_valued for r in analysis.by_degree.values())

    def test_zero_homotopy_fails_where_the_image_is_nonzero(self, circle_with_pair):
        f, lam, alpha = circle_with_pair
        cone = mapping_cone(alpha)
        dec = decompose(f)
        analysis = analyze_homotopy_blocks(cone, Homotopy(cone.underlying, {}), dec)
        # Degree 0 of the cone carries the image block of the boundary.
        assert not analysis.by_degree[0].right_inverse_ok
        assert not analysis.all_equations_hold()

    def test_random_contraction_witnesses_satisfy_the_conclusions(self):
        rng = random.Random(808)
        checked = 0
        for _ in range(40):
            f = random_complex(QQ, rng, max_len=4, max_rank=3)
            lam, alpha = canonical_alpha(f)
            cone = mapping_cone(alpha)
            flag, psi = is_contractible(cone.underlying)
            assert flag
            dec = decompose(f)
            witness = Homotopy(cone.underlying, dict(psi.blocks))
            analysis = analyze_homotopy_blocks(cone, witness, dec)
            assert analysis.all_equations_hold()
            assert analysis.all_conclusions_hold()
            checked += 1
        assert checked == 40

    def test_witness_soundness_round_trip(self):
        rng = random.Random(66)
        for _ in range(10):
            f = random_complex(F2, rng, max_len=4, max_rank=3)
            cert = certify_homology_eigenvalue(f)
            assert cert.is_eigenvalue()
            assert reverified(cert)

    def test_each_degree_puts_alpha_in_complement_coordinates_once(self, monkeypatch):
        f = skeleton(QQ)
        cert = certify_homology_eigenvalue(f)
        assert cert.is_eigenvalue()
        dec = decompose(f)
        solved = Counter()
        original = DegreeDecomposition.complement_coords

        def counted(part, m):
            solved[part.degree] += 1
            return original(part, m)

        monkeypatch.setattr(DegreeDecomposition, "complement_coords", counted)
        analysis = analyze_homotopy_blocks(cert.cone, cert.witness, dec)
        assert analysis.all_equations_hold() and analysis.all_conclusions_hold()
        assert len(solved) == 5
        assert set(solved.values()) == {1}


def test_a_positive_certificate_holds_no_analysis(monkeypatch, circle_with_pair):
    """Every analysis made while certifying is freed; the cone keeps only its layout's image ranks."""
    built = []
    original = Decomposition.__init__

    def recorded(dec, source):
        built.append(weakref.ref(dec))
        original(dec, source)

    monkeypatch.setattr(Decomposition, "__init__", recorded)
    f, lam, alpha = circle_with_pair
    # The fast path, the canonical pair over Z and Q, and a positive arbitration over Q.
    g = ChainComplex(QQ, "cochain", {0: 1, 1: 2}, {0: Matrix(QQ, [[1], [0]])})
    mu = scalar_object(QQ, {1: 1})
    certs = [
        decide_eigenvalue(f, lam, alpha),
        certify_homology_eigenvalue(skeleton(ZZ)),
        certify_homology_eigenvalue(skeleton(QQ)),
        decide_eigenvalue(g, mu, GradedMap(mu, g, 0, {1: Matrix(QQ, [[1], [2]])})),
    ]
    assert all(cert.is_eigenvalue() for cert in certs)
    assert len(built) == 5  # the arbitration also analyzes its cone
    gc.collect()
    assert [ref() for ref in built if ref() is not None] == []
    # The layout is still there to read, and reading it analyzes nothing.
    assert all(cert.cone.layout for cert in certs)
    assert len(built) == 5
