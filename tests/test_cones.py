"""Mapping cones, explicit witnesses, and contractibility."""

import random

import pytest

from eigenchain import (
    GF,
    QQ,
    ZZ,
    ChainComplex,
    GradedMap,
    Matrix,
    canonical_alpha,
    construct_null_homotopy,
    decompose,
    identity_map,
    is_contractible,
    mapping_cone,
    scalar_object,
    validate_complex,
    verify_homotopy,
    zero_map,
)
from eigenchain import certify, cones
from eigenchain.certify import decide_eigenvalue
from eigenchain.complexes import COCHAIN, convert_convention
from eigenchain.cones import ConeLayout, Homotopy, adapted_block, check_hypotheses
from eigenchain.decompose import Decomposition
from eigenchain.errors import HypothesisFailure, NotScalarSource, RingMismatch, ValidationError
from eigenchain.formats import canonical_dumps, homotopy_to_payload
from eigenchain.randgen import alpha_variants, random_complex
from eigenchain.simplicial import simplicial_to_chain
from test_golden_analysis import RP2

F2 = GF(2)


def null_check(z, psi):
    return verify_homotopy(z, zero_map(z, z), identity_map(z), psi)


class TestMappingCone:
    def test_circle_cone_matrices(self, circle_with_pair):
        f, lam, alpha = circle_with_pair
        cone = mapping_cone(alpha)
        assert cone.underlying.ranks == {-2: 1, -1: 4, 0: 3}
        assert cone.underlying.diff(-2) == Matrix(ZZ, [[0], [1], [1], [1]])
        assert cone.underlying.diff(-1) == Matrix(
            ZZ, [[1, 0, 0, 0], [0, 1, 0, -1], [0, 0, 1, -1]]
        )
        assert validate_complex(cone.underlying).ok

    def test_cone_of_zero_map_is_the_target(self, circle):
        lam = scalar_object(ZZ, {})
        cone = mapping_cone(zero_map(lam, circle))
        assert cone.underlying == circle

    def test_cone_of_identity_scalar(self):
        lam = scalar_object(QQ, {0: 1})
        alpha = GradedMap(lam, lam, 0, {0: Matrix.identity(QQ, 1)})
        cone = mapping_cone(alpha)
        assert cone.underlying.ranks == {-1: 1, 0: 1}
        assert cone.underlying.diff(-1) == Matrix(QQ, [[1]])
        dec = decompose(lam)
        psi = construct_null_homotopy(cone, dec)
        # The single homotopy block inverts the map, negated.
        assert psi.block(0) == Matrix(QQ, [[-1]])
        assert null_check(cone.underlying, psi).ok

    def test_nonscalar_source_rejected(self, circle):
        alpha = zero_map(circle, circle)
        with pytest.raises(NotScalarSource):
            mapping_cone(alpha)

    def test_layout_sizes(self, circle_with_pair):
        f, lam, alpha = circle_with_pair
        cone = mapping_cone(alpha)
        assert (cone.layout[-1].lambda_rank, cone.layout[-1].complement_rank, cone.layout[-1].image_rank) == (1, 3, 0)
        assert (cone.layout[0].lambda_rank, cone.layout[0].complement_rank, cone.layout[0].image_rank) == (0, 1, 2)

    def test_layout_is_analyzed_once_at_construction(self, circle_with_pair, analyses, monkeypatch):
        f, lam, alpha = circle_with_pair
        cone = mapping_cone(alpha)
        assert len(analyses) == 1 and analyses[0] is f
        assert cone.layout[0] == ConeLayout(0, 1, 2)
        assert cone.layout[-1] == ConeLayout(1, 3, 0)
        assert len(analyses) == 1
        # A certificate's cone is laid out from the analysis its verdict was decided with.
        monkeypatch.setattr(certify, "Decomposition", cones.Decomposition)
        cert = decide_eigenvalue(f, lam, alpha)
        assert cert.cone == cone
        assert len(analyses) == 2 and analyses[1] is f

    def test_a_target_that_is_not_a_complex_is_refused_when_the_cone_is_built(self):
        one = Matrix(ZZ, [[1]])
        x = ChainComplex(ZZ, "cochain", {0: 1, 1: 1, 2: 1}, {0: one, 1: one})
        with pytest.raises(ValidationError, match="d∘d"):
            mapping_cone(zero_map(scalar_object(ZZ, {}), x))

    def test_adapted_differential_has_the_block_shape(self, circle_with_pair):
        f, lam, alpha = circle_with_pair
        cone = mapping_cone(alpha)
        dec = decompose(f)
        ad = adapted_block(cone, dec, cone.underlying.diff(-1), -1, 0)
        # Rows: lambda 0 | complement 1 | image 2; cols: lambda 1 | complement 3.
        assert ad.data[0][0] == 1  # alpha block lands in the complement rows
        top_row_zero = all(v == 0 for v in ad.data[0][1:])
        assert top_row_zero


class TestNullHomotopy:
    def test_circle_witness_matches_the_worked_matrices(self, circle_with_pair):
        f, lam, alpha = circle_with_pair
        cone = mapping_cone(alpha)
        dec = decompose(f)
        psi = construct_null_homotopy(cone, dec)
        assert psi.block(-1) == Matrix(ZZ, [[0, 0, 0, -1]])
        assert psi.block(0) == Matrix(
            ZZ, [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [0, 0, 0]]
        )

    def test_circle_composites(self, circle_with_pair):
        f, lam, alpha = circle_with_pair
        cone = mapping_cone(alpha)
        psi = construct_null_homotopy(cone, decompose(f))
        report = null_check(cone.underlying, psi)
        assert report.ok
        assert report.composites[-2] == Matrix(ZZ, [[-1]])
        assert report.composites[-1] == -Matrix.identity(ZZ, 4)
        assert report.composites[0] == -Matrix.identity(ZZ, 3)

    def test_rank_mismatch_is_a_hypothesis_failure(self, circle):
        lam = scalar_object(ZZ, {-1: 1, 0: 2})
        alpha = GradedMap(
            lam,
            circle,
            0,
            {-1: Matrix(ZZ, [[1], [1], [1]]), 0: Matrix(ZZ, [[1, 0], [0, 0], [0, 0]])},
        )
        cone = mapping_cone(alpha)
        with pytest.raises(HypothesisFailure):
            construct_null_homotopy(cone, decompose(circle))

    def test_forward_direction_on_random_complexes(self):
        rng = random.Random(2)
        for ring in (QQ, F2):
            for _ in range(25):
                f = random_complex(ring, rng, max_len=6, max_rank=4, total_cap=24)
                lam, alpha = canonical_alpha(f)
                cone = mapping_cone(alpha)
                psi = construct_null_homotopy(cone, decompose(f))
                assert null_check(cone.underlying, psi).ok


class TestVerifyHomotopy:
    def test_equal_maps_with_zero_homotopy(self, circle):
        f = identity_map(circle)
        assert verify_homotopy(circle, f, f, Homotopy(circle, {})).ok

    def test_sign_flip_is_caught(self, circle_with_pair):
        f, lam, alpha = circle_with_pair
        cone = mapping_cone(alpha)
        psi = construct_null_homotopy(cone, decompose(f))
        blocks = dict(psi.blocks)
        blocks[-1] = Matrix(ZZ, [[0, 0, 0, 1]])
        tampered = Homotopy(cone.underlying, blocks)
        report = null_check(cone.underlying, tampered)
        assert not report.ok
        assert report.degree == -2
        assert report.composites[-2] == Matrix(ZZ, [[1]])

    def test_opposite_sign_convention(self, circle_with_pair):
        # d(-psi) + (-psi)d = id = f - g for f = id and g = 0, the f - g branch.
        f, lam, alpha = circle_with_pair
        cone = mapping_cone(alpha)
        z, psi = cone.underlying, construct_null_homotopy(cone, decompose(f))
        negated = Homotopy(z, {n: -m for n, m in psi.blocks.items()})
        report = verify_homotopy(z, identity_map(z), zero_map(z, z), negated)
        assert report.ok
        assert report.composites == {n: -m for n, m in null_check(z, psi).composites.items()}
        assert report.composites[-1] == Matrix.identity(ZZ, 4)
        # The tampered witness of test_sign_flip_is_caught, negated, fails at the same spot.
        blocks = dict(negated.blocks)
        blocks[-1] = Matrix(ZZ, [[0, 0, 0, -1]])
        report = verify_homotopy(z, identity_map(z), zero_map(z, z), Homotopy(z, blocks))
        assert not report.ok
        assert (report.degree, report.entry) == (-2, (0, 0))
        assert report.composites[-2] == Matrix(ZZ, [[-1]])
        assert report.message == "homotopy identity fails at degree -2, entry (0, 0)"

    def test_both_conventions_agree_on_random_cones(self):
        rng = random.Random(5)
        for ring in (QQ, GF(3)):
            for _ in range(10):
                f = random_complex(ring, rng, max_len=5, max_rank=4, total_cap=16)
                cone = mapping_cone(canonical_alpha(f)[1])
                z, psi = cone.underlying, construct_null_homotopy(cone, decompose(f))
                negated = Homotopy(z, {n: -m for n, m in psi.blocks.items()})
                zero_first = null_check(z, psi)
                id_first = verify_homotopy(z, identity_map(z), zero_map(z, z), negated)
                assert zero_first.ok and id_first.ok
                assert id_first.composites == {n: -m for n, m in zero_first.composites.items()}
                # A nonzero f and g at once: f - g = 2 id - id.
                twice = GradedMap(z, z, 0, {n: Matrix.identity(ring, r).scale(2) for n, r in z.ranks.items()})
                assert verify_homotopy(z, twice, identity_map(z), negated).ok

    def test_wrong_shape_rejected(self, circle):
        with pytest.raises(ValidationError):
            Homotopy(circle, {0: Matrix.identity(ZZ, 2)})

    def test_block_over_another_ring_rejected(self, circle):
        # The right 3x3 shape from degree 0 to degree -1, but over Q.
        with pytest.raises(RingMismatch):
            Homotopy(circle, {0: Matrix.identity(QQ, 3)})

    def test_homotopy_is_a_degree_minus_one_graded_map(self, circle):
        psi = Homotopy(circle, {0: Matrix.zeros(ZZ, 3, 3)})
        assert isinstance(psi, GradedMap)
        assert psi.on is psi.source is psi.target is circle
        assert psi.degree_shift == -1
        assert psi.blocks == {}
        assert psi.block(0) == Matrix.zeros(ZZ, 3, 3)


class TestContractibility:
    def test_circle_cone_is_contractible(self, circle_with_pair):
        f, lam, alpha = circle_with_pair
        cone = mapping_cone(alpha)
        flag, psi = is_contractible(cone.underlying)
        assert flag
        assert null_check(cone.underlying, psi).ok

    def test_lone_scalar_is_not(self):
        flag, psi = is_contractible(scalar_object(ZZ, {0: 1}))
        assert not flag and psi is None

    def test_torsion_obstructs_contraction(self):
        x = ChainComplex(ZZ, "cochain", {0: 1, 1: 1}, {0: Matrix(ZZ, [[2]])})
        assert not is_contractible(x)[0]

    def test_empty_complex_contracts(self):
        flag, psi = is_contractible(scalar_object(QQ, {}))
        assert flag and psi.blocks == {}

    def test_witnesses_verify_on_random_exact_complexes(self):
        rng = random.Random(77)
        found = 0
        for _ in range(60):
            f = random_complex(QQ, rng, max_len=4, max_rank=4)
            flag, psi = is_contractible(f)
            if flag:
                found += 1
                assert null_check(f, psi).ok
        assert found >= 3  # seeded corpus is known to contain exact complexes

    def test_rank_mismatch_makes_cones_non_contractible(self):
        rng = random.Random(19)
        checked = 0
        for _ in range(20):
            f = random_complex(F2, rng, max_len=4, max_rank=3)
            pair = canonical_alpha(f)
            lam, alpha = pair
            degrees = [n for n in lam.degrees()]
            if not degrees:
                continue
            n0 = degrees[0]
            ranks = dict(lam.ranks)
            ranks[n0] += 1
            lam_bad = scalar_object(F2, ranks)
            blocks = {n: alpha.block(n) for n in lam.degrees()}
            from eigenchain import hstack

            blocks[n0] = hstack([alpha.block(n0), Matrix.zeros(F2, f.rank(n0), 1)])
            bad = GradedMap(lam_bad, f, 0, blocks)
            cone = mapping_cone(bad)
            assert not is_contractible(cone.underlying)[0]
            checked += 1
        assert checked >= 5


@pytest.fixture
def analyses(monkeypatch):
    """The complexes ``is_contractible`` analyzes exactly, in call order."""
    built = []

    class Counted(cones.Decomposition):
        def __init__(self, source):
            built.append(source)
            super().__init__(source)

    monkeypatch.setattr(cones, "Decomposition", Counted)
    return built


def one_differential(ring, d):
    return ChainComplex(ring, "cochain", {0: 1, 1: 1}, {0: Matrix(ring, [[d]])})


def rp2_with_a_vertex():
    """RP^2 over Z with H_0 = Z realized by one vertex: the cone's homology is Z/2 alone."""
    chain, _ = simplicial_to_chain(6, RP2, ZZ)
    f = convert_convention(chain, COCHAIN)
    lam = scalar_object(ZZ, {0: 1})
    vertex = Matrix(ZZ, [[1]] + [[0]] * (f.rank(0) - 1))
    return f, lam, GradedMap(lam, f, 0, {0: vertex})


class TestArbitration:
    """A failed hypothesis is arbitrated by alpha's matrix on homology; a cone is analyzed only for its witness."""

    def test_rp2_cone_is_not_contractible(self):
        f, lam, alpha = rp2_with_a_vertex()
        assert is_contractible(mapping_cone(alpha).underlying) == (False, None)
        cert = decide_eigenvalue(f, lam, alpha)
        assert cert.verdict == "NotEigenvalue"
        assert [r.kind for r in cert.failure_reasons] == ["NotSaturated"]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_prime_torsion_is_not_contractible(self, p):
        assert is_contractible(one_differential(ZZ, p)) == (False, None)

    def test_invalid_complex_raises(self, analyses):
        one = Matrix(ZZ, [[1]])
        x = ChainComplex(ZZ, "cochain", {0: 1, 1: 1, 2: 1}, {0: one, 1: one})
        with pytest.raises(ValidationError, match="d∘d"):
            is_contractible(x)
        assert analyses == [x]

    def test_a_doubled_class_off_the_complement_is_an_isomorphism_over_q_only(self, analyses):
        # H^1 = Z e2 with e1 a boundary; alpha = e1 + 2 e2 leaves the complement
        # and is twice the generator on homology: invertible over Q, not over Z.
        verdicts = {}
        for ring in (ZZ, QQ):
            f = ChainComplex(ring, "cochain", {0: 1, 1: 2}, {0: Matrix(ring, [[1], [0]])})
            lam = scalar_object(ring, {1: 1})
            alpha = GradedMap(lam, f, 0, {1: Matrix(ring, [[1], [2]])})
            cert = decide_eigenvalue(f, lam, alpha)
            assert [r.kind for r in check_hypotheses(alpha, Decomposition(f)).failures] == ["AlphaNotIntoG"]
            verdicts[ring] = cert.verdict
        assert verdicts == {ZZ: "NotEigenvalue", QQ: "Eigenvalue"}
        assert len(analyses) == 1

    def test_verdict_matches_the_contractibility_of_the_cone(self, analyses):
        seen = set()
        for ring, seed in ((ZZ, 2), (QQ, 6), (F2, 4), (GF(5), 5)):
            rng = random.Random(seed)
            for _ in range(15):
                f = random_complex(ring, rng, max_len=3, max_rank=3)
                for tag, lam, alpha in alpha_variants(f, rng):
                    analyses.clear()
                    cert = decide_eigenvalue(f, lam, alpha)
                    failures = check_hypotheses(alpha, Decomposition(f)).failures
                    arbitrated = cert.is_eigenvalue() and bool(failures)
                    # No cone is analyzed on a negative, one on a positive arbitration.
                    assert analyses == ([cert.cone.underlying] if arbitrated else [])
                    contractible, psi = is_contractible(mapping_cone(alpha).underlying)
                    assert cert.is_eigenvalue() == contractible
                    if arbitrated:
                        assert canonical_dumps(homotopy_to_payload(cert.witness, COCHAIN)) == canonical_dumps(
                            homotopy_to_payload(psi, COCHAIN)
                        )
                    if failures and failures[0].kind == "AlphaNotIntoG":
                        seen.add((ring, tag, cert.verdict))
        # Both outcomes of the homology test at an AlphaNotIntoG degree, on every ring.
        for ring in (ZZ, QQ, F2, GF(5)):
            assert (ring, "boundary_shifted", "Eigenvalue") in seen
            assert (ring, "boundary_column", "NotEigenvalue") in seen
