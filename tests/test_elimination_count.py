"""Each differential is eliminated once per call, and Z never leaves the integers.

Every elimination (``rref``, ``smith_normal_form`` and the reduced
fraction-free ``_bareiss`` behind complements over Z) is counted, in every
``eigenchain`` module that binds the function, during one public call.
The analysis of a complex factors each differential exactly once and
derives the rest of its splits from a few more eliminations per degree;
these tests keep duplicate analyses from creeping back in.  Over Z no
``Fraction`` is built at all.  A Smith transform is replayed from its
log only when something reads it, and at most once; a field reduction
builds its transform in the same pass, once per matrix.
"""

import random
import sys
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import pytest

from eigenchain import GF, QQ, ZZ, GradedMap, Matrix, linalg, scalar_object
from eigenchain.certify import certify_homology_eigenvalue, decide_eigenvalue
from eigenchain.complexes import COCHAIN, ChainComplex, convert_convention, identity_map, zero_map
from eigenchain.cones import (
    ALPHA_NOT_INJECTIVE,
    RANK_MISMATCH,
    FailureReason,
    check_hypotheses,
    construct_null_homotopy,
    mapping_cone,
    verify_homotopy,
)
from eigenchain.decompose import Decomposition, canonical_alpha, homology
from eigenchain.randgen import alpha_variants, random_complex
from eigenchain.simplicial import simplicial_to_chain
from test_golden_analysis import RP2
from test_golden_simplicial import TORUS
from test_identity_products import dense_identity

PER_DEGREE = 4
ELIMINATIONS = ("rref", "smith_normal_form", "_bareiss")


class Elimination(NamedTuple):
    name: str
    matrix: Matrix


@pytest.fixture
def eliminated(monkeypatch):
    """The matrices handed to each elimination, in call order, with the elimination's name."""
    calls = []
    modules = [m for name, m in sys.modules.items() if name == "eigenchain" or name.startswith("eigenchain.")]
    for name in ELIMINATIONS:
        original = getattr(linalg, name)

        def counted(a, *rest, _original=original, _name=name):
            # A complement split over Z is a reduced _bareiss on a Z matrix;
            # the other calls are ranks, dets and the reductions of rrefs.
            if _name != "_bareiss" or (rest == (True,) and a.ring == ZZ):
                calls.append(Elimination(_name, a))
            return _original(a, *rest)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def skeleton(ring):
    """The 2-skeleton of the 5-simplex, in cochain degrees -2, -1, 0."""
    chain, _ = simplicial_to_chain(6, [list(f) for f in combinations(range(6), 3)], ring)
    return convert_convention(chain, COCHAIN)


def times_factored(calls, d):
    return sum(1 for e in calls if e.matrix == d)


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=str)
@pytest.mark.parametrize("run", [certify_homology_eigenvalue, homology], ids=lambda fn: fn.__name__)
def test_each_differential_is_factored_once(eliminated, ring, run):
    f = skeleton(ring)
    run(f)
    assert f.diffs
    for d in f.diffs.values():
        assert times_factored(eliminated, d) == 1
    assert len(eliminated) <= PER_DEGREE * len(f.degrees())


def test_arbitration_analyzes_the_cone_once(eliminated):
    # The map misses the chosen complement, so the contractibility
    # criterion arbitrates on the cone (and finds it contractible).
    f = ChainComplex(QQ, "cochain", {0: 1, 1: 2}, {0: Matrix(QQ, [[1], [0]])})
    lam = scalar_object(QQ, {1: 1})
    alpha = GradedMap(lam, f, 0, {1: Matrix(QQ, [[1], [1]])})
    cert = decide_eigenvalue(f, lam, alpha)
    assert cert.is_eigenvalue() and cert.cone.underlying.diffs
    for d in list(f.diffs.values()) + list(cert.cone.underlying.diffs.values()):
        assert times_factored(eliminated, d) == 1


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=str)
def test_rank_mismatch_everywhere_builds_no_split(monkeypatch, ring):
    # Every degree's rank mismatches, so the verdict needs ranks only: no
    # degree of F or of the cone is split.
    splits = []
    original_split = Decomposition._split
    monkeypatch.setattr(Decomposition, "_split", lambda dec, n: splits.append(n) or original_split(dec, n))
    original = linalg.complement_and_inverse

    def counted(sub):
        splits.append(sub)
        return original(sub)

    for module in [m for name, m in sys.modules.items() if name.startswith("eigenchain")]:
        if getattr(module, "complement_and_inverse", None) is original:
            monkeypatch.setattr(module, "complement_and_inverse", counted)
    f = skeleton(ring)
    lam = scalar_object(ring, {-2: 11, -1: 1, 0: 2})  # Betti numbers 10, 0, 1, each plus one
    cert = decide_eigenvalue(f, lam, GradedMap(lam, f, 0, {}))
    assert cert.verdict == "NotEigenvalue"
    assert cert.failure_reasons == [FailureReason(RANK_MISMATCH, degree=n) for n in (-2, -1, 0)]
    assert splits == []


@pytest.fixture
def complemented(monkeypatch):
    """The subspaces handed to ``complement_and_inverse``, in call order."""
    calls = []
    original = linalg.complement_and_inverse

    def counted(sub):
        calls.append(sub)
        return original(sub)

    for module in [m for name, m in sys.modules.items() if name.startswith("eigenchain")]:
        if getattr(module, "complement_and_inverse", None) is original:
            monkeypatch.setattr(module, "complement_and_inverse", counted)
    return calls


@pytest.mark.parametrize("ring", [QQ, GF(2)], ids=str)
def test_a_field_negative_splits_no_cycles(eliminated, complemented, ring):
    # Degree 0 keeps its rank but maps to zero, so it is not injective;
    # degree -2 passes rank, injectivity and into-G.  Over a field that
    # leaves nothing to solve, so no degree's cycles are split off.
    f = skeleton(ring)
    lam, alpha = canonical_alpha(f)
    blocks = {n: b for n, b in alpha.blocks.items() if n != 0}
    pair = GradedMap(lam, f, 0, blocks)
    eliminated.clear()
    complemented.clear()
    cert = decide_eigenvalue(f, lam, pair)
    assert cert.failure_reasons == [FailureReason(ALPHA_NOT_INJECTIVE, degree=0)]
    assert cert.alpha_injective == {-2: True, 0: False}
    seen, split = list(eliminated), list(complemented)
    assert split  # degree -2 was split to its first level
    dec = Decomposition(f)
    restricted = [dec[n].restricted_diff for n in dec]
    cycles = [dec[n].complement_cycles for n in dec]
    assert not [e for e in seen if e.matrix in restricted]
    assert not [sub for sub in split if sub in cycles]


@pytest.fixture
def solved(monkeypatch):
    """The matrices of the elimination results whose ``solve`` is called, in call order."""
    calls = []
    for result in (linalg.RrefResult, linalg.SnfResult):
        original = result.solve

        def counted(self, b, _original=original):
            calls.append(self.matrix)
            return _original(self, b)

        monkeypatch.setattr(result, "solve", counted)
    return calls


SIMPLICIAL = {
    "skeleton-5-2": (6, [list(f) for f in combinations(range(6), 3)]),
    "torus": (7, TORUS),
    "sphere-3": (5, [list(f) for f in combinations(range(5), 4)]),  # the boundary of the 4-simplex
}


@pytest.mark.parametrize("name", SIMPLICIAL)
@pytest.mark.parametrize("ring", [ZZ, QQ], ids=str)
def test_certify_eliminates_no_identity_for_a_complement(monkeypatch, ring, name):
    # A complement whose every vector is a cycle has the identity as its
    # cycle basis; splitting it is known without an elimination.
    bases = []
    original = linalg._bottom_pivots
    monkeypatch.setattr(linalg, "_bottom_pivots", lambda sub: bases.append(sub) or original(sub))
    vertices, facets = SIMPLICIAL[name]
    chain, _ = simplicial_to_chain(vertices, facets, ring)
    assert certify_homology_eigenvalue(convert_convention(chain, COCHAIN)).is_eigenvalue()
    assert bases
    assert [b for b in bases if b.rows == b.cols and b == dense_identity(ring, b.rows)] == []


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=str)
def test_certify_factors_and_solves_no_eigenmap_block(eliminated, solved, ring):
    # The canonical pair's alpha_n is the cycle basis itself, so its
    # hypotheses hold by construction and its eigenmap inverse is I.
    cert = certify_homology_eigenvalue(skeleton(ring))
    assert cert.is_eigenvalue()
    blocks = cert.cone.source_alpha.blocks
    assert sorted(blocks) == [-2, 0]
    for block in blocks.values():
        assert not [e for e in eliminated if e.matrix is block]
        assert not [m for m in solved if m is block]


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=str)
def test_deciding_the_canonical_pair_solves_each_eigenmap_inverse_once(solved, ring):
    f = skeleton(ring)
    lam, alpha = canonical_alpha(f)
    cert = decide_eigenvalue(f, lam, alpha)
    assert cert.is_eigenvalue()
    blocks = cert.cone.source_alpha.blocks
    assert sorted(blocks) == [-2, 0]
    for block in blocks.values():
        assert sum(1 for m in solved if m is block) == 1


@pytest.mark.parametrize("ring", [QQ, GF(2)], ids=str)
def test_the_field_check_solves_the_eigenmap_inverse(ring):
    f = skeleton(ring)
    lam, alpha = canonical_alpha(f)
    dec = Decomposition(f)
    check = check_hypotheses(alpha, dec)
    assert check.failures == [] and sorted(check.alpha_inverse) == lam.degrees() == [-2, 0]
    for n in lam.degrees():
        assert check.alpha_inverse[n] == linalg.factor(alpha.block(n)).solve(dec.at(n).cycles_in_ambient)


@pytest.mark.parametrize("ring", [QQ, GF(2)], ids=str)
def test_a_field_check_with_a_failure_solves_nothing(solved, ring):
    f = skeleton(ring)
    lam, alpha = canonical_alpha(f)
    pair = GradedMap(lam, f, 0, {n: b for n, b in alpha.blocks.items() if n != 0})
    check = check_hypotheses(pair, Decomposition(f))
    assert check.failures == [FailureReason(ALPHA_NOT_INJECTIVE, degree=0)]
    assert check.alpha_inverse == {}
    assert not [m for m in solved if m is pair.blocks[-2]]


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2)], ids=str)
def test_the_witness_reads_the_eigenmap_inverse_off_the_check(eliminated, solved, ring):
    f = skeleton(ring)
    lam, alpha = canonical_alpha(f)
    dec = Decomposition(f)
    check = check_hypotheses(alpha, dec)
    cone = mapping_cone(alpha)
    eliminated.clear()
    solved.clear()
    psi = construct_null_homotopy(cone, dec, check)
    z = cone.underlying
    assert verify_homotopy(z, zero_map(z, z), identity_map(z), psi).ok
    for block in alpha.blocks.values():
        assert not [e for e in eliminated if e.matrix is block]
        assert not [m for m in solved if m is block]


@pytest.fixture
def replays(monkeypatch):
    """Each transform built from a Smith form's log, as (log, inverse), in call order.

    Smith forms log row operations (replayed for U, and with ``inverse``
    for U^-1) and column operations (for V); an rref logs nothing, since
    its reduction builds its transform in the same pass.  Holding the
    logs keeps their ids distinct.
    """
    calls = []
    transform = linalg._transform

    def counted(ops, ring, m, inverse=False, transposed=False):
        calls.append((ops, inverse))
        return transform(ops, ring, m, inverse, transposed)

    monkeypatch.setattr(linalg, "_transform", counted)
    return calls


@pytest.fixture
def reductions(monkeypatch):
    """The matrices handed to the field reduction ``_reduce``, in call order."""
    calls = []
    reduce = linalg._reduce
    monkeypatch.setattr(linalg, "_reduce", lambda a: calls.append(a) or reduce(a))
    return calls


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=str)
def test_rank_mismatch_everywhere_replays_no_transform(replays, ring):
    f = skeleton(ring)
    lam = scalar_object(ring, {-2: 11, -1: 1, 0: 2})  # Betti numbers 10, 0, 1, each plus one
    cert = decide_eigenvalue(f, lam, GradedMap(lam, f, 0, {}))
    assert [r.kind for r in cert.failure_reasons] == [RANK_MISMATCH] * 3
    assert replays == []


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=str)
def test_a_positive_certificate_replays_each_transform_at_most_once(replays, reductions, ring):
    cert = certify_homology_eigenvalue(skeleton(ring))
    assert cert.is_eigenvalue()
    if ring.is_field:
        # Each transform comes out of its reduction: one reduction per matrix, no replay.
        assert reductions and replays == []
        assert len({id(a) for a in reductions}) == len(reductions)
        return
    assert replays
    built = [(id(log), inverse) for log, inverse in replays]
    assert len(built) == len(set(built))


def test_torsion_representatives_reuse_the_kernel_split(eliminated):
    # H_1(RP^2; Z) = Z/2: the representatives of that degree come from the
    # kernel's split, not from a second Smith form solving against the kernel.
    chain, _ = simplicial_to_chain(6, RP2, ZZ)
    f = convert_convention(chain, COCHAIN)
    assert homology(f).torsion_by_degree() == {-1: (2,)}
    assert sum(1 for e in eliminated if e.name == "smith_normal_form") == 6


def integer_inputs():
    """(complex, [(lambda, alpha), ...]) over Z: the 2-skeleton of the 5-simplex and seeded random complexes."""
    complexes = [skeleton(ZZ)] + [random_complex(ZZ, random.Random(seed), max_len=3, max_rank=8) for seed in range(12)]
    for i, f in enumerate(complexes):
        yield f, [(lam, alpha) for _, lam, alpha in alpha_variants(f, random.Random(i))]


def test_integer_analysis_builds_no_fractions(monkeypatch):
    inputs = list(integer_inputs())
    assert sum(len(pairs) for _, pairs in inputs) >= 40
    built = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    verdicts = set()
    for f, pairs in inputs:
        verdicts.add(certify_homology_eigenvalue(f).is_eigenvalue())
        homology(f)
        for lam, alpha in pairs:
            verdicts.add(decide_eigenvalue(f, lam, alpha).is_eigenvalue())
    monkeypatch.undo()
    assert verdicts == {True, False}
    assert built == []
