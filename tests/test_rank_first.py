"""Over a field, a rank costs one fraction-free forward pass and no reduced form.

``rref`` returns with its input alone.  Its ``pivots`` come from
:func:`eigenchain.linalg._rank_profile` (denominators cleared, then a
Bareiss elimination over Q; an elimination mod p over F_p) unless the
reduction, :func:`eigenchain.linalg._reduce`, has already run; the
reduced form, its log and its transform are built the first time
something reads them.  The rank profile must find exactly the reduction's
pivots.  A verdict that fails on ranks reduces nothing, a positive
certificate reduces each differential once, and the callers that always
need the reduced form (``det``, ``inverse``, complements, kernels and
solves) run no rank pass before it.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from eigenchain import GF, QQ, GradedMap, Matrix, linalg, rref, scalar_object
from eigenchain.certify import certify_homology_eigenvalue, decide_eigenvalue
from eigenchain.complexes import COCHAIN, convert_convention
from eigenchain.cones import ALPHA_NOT_INJECTIVE, RANK_MISMATCH, FailureReason
from eigenchain.simplicial import simplicial_to_chain

FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7)]
SHAPES = [(0, 5), (5, 0), (0, 0), (1, 1), (3, 9), (9, 3), (6, 6), (8, 8)]


def random_entry(ring, rng):
    kind = rng.choices(("zero", "unit", "small", "huge", "fraction"), (6, 3, 3, 1, 2 if ring is QQ else 0))[0]
    if kind == "zero":
        return 0
    if kind == "unit":
        return rng.choice((1, -1))
    if kind == "small":
        return rng.randint(-5, 5)
    if kind == "huge":
        return rng.choice((1, -1)) * rng.randint(2**63, 2**64)
    return Fraction(rng.randint(-9, 9), rng.randint(2, 12))


def random_matrix(ring, rng, rows, cols):
    """Seeded entries with zero rows and rows that repeat a multiple of an earlier row, so ranks fall short."""
    grid = [[random_entry(ring, rng) for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        roll = rng.random()
        if roll < 0.15:
            grid[i] = [0] * cols
        elif roll < 0.35:
            k = rng.choice((2, -1, 3))
            grid[i] = [k * x for x in grid[rng.randrange(i)]]
    return Matrix(ring, grid, cols=cols)


@pytest.mark.parametrize("ring", FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_rank_profile_finds_the_reductions_pivots(ring, seed):
    rng = random.Random(f"{ring}-{seed}")
    for rows, cols in SHAPES:
        for _ in range(6):
            a = random_matrix(ring, rng, rows, cols)
            assert linalg._rank_profile(a) == linalg._reduce(a)[1]


@pytest.mark.parametrize("ring", FIELDS, ids=str)
def test_rank_profile_on_chosen_matrices(ring):
    cases = [
        [[0, 0, 0], [0, 0, 0]],  # zero
        [[0, 2, 4], [0, 1, 2], [0, 0, 3]],  # an empty first column, a dependent row
        [[1, 1], [-1, 1], [1, -1]],  # the second pivot is minus the first over Q
        [[2**64, 1], [2**64 - 1, 1], [1, 0]],
        [[Fraction(1, 2), Fraction(1, 3)], [3, 2]] if ring is QQ else [[1, 2], [2, 4]],  # rank one over Q
    ]
    for grid in cases:
        a = Matrix(ring, grid, cols=len(grid[0]))
        assert linalg._rank_profile(a) == linalg._reduce(a)[1]


@pytest.fixture
def counted(monkeypatch):
    """Calls of ``_reduce`` (by matrix), ``_rank_profile`` (by matrix) and ``_replay`` (by log), in order."""
    calls = {"reduce": [], "rank_profile": [], "replay": []}
    for name, key in (("_reduce", "reduce"), ("_rank_profile", "rank_profile"), ("_replay", "replay")):
        original = getattr(linalg, name)

        def wrapper(first, *rest, _original=original, _key=key):
            calls[_key].append(first)
            return _original(first, *rest)

        monkeypatch.setattr(linalg, name, wrapper)
    return calls


def skeleton():
    """The 2-skeleton of the 5-simplex over Q, in cochain degrees -2, -1, 0 (Betti numbers 10, 0, 1)."""
    chain, _ = simplicial_to_chain(6, [list(f) for f in combinations(range(6), 3)], QQ)
    return convert_convention(chain, COCHAIN)


def test_a_rank_mismatch_reduces_nothing(counted):
    f = skeleton()
    lam = scalar_object(QQ, {-2: 11, -1: 1, 0: 2})
    cert = decide_eigenvalue(f, lam, GradedMap(lam, f, 0, {}))
    assert [r.kind for r in cert.failure_reasons] == [RANK_MISMATCH] * 3
    assert counted["rank_profile"]
    assert counted["reduce"] == [] and counted["replay"] == []


def test_an_alpha_with_a_kernel_reduces_nothing(counted):
    f = skeleton()
    lam = scalar_object(QQ, {-2: 10, 0: 1})
    zero = {n: Matrix.zeros(QQ, f.rank(n), r) for n, r in lam.ranks.items()}
    cert = decide_eigenvalue(f, lam, GradedMap(lam, f, 0, zero))
    assert cert.failure_reasons == [FailureReason(ALPHA_NOT_INJECTIVE, degree=n) for n in (-2, 0)]
    assert counted["rank_profile"]
    assert counted["reduce"] == [] and counted["replay"] == []


def test_a_positive_certificate_reduces_each_differential_once(counted):
    f = skeleton()
    assert certify_homology_eigenvalue(f).is_eigenvalue()
    assert f.diffs
    for d in f.diffs.values():
        assert sum(1 for a in counted["reduce"] if a == d) == 1


@pytest.mark.parametrize("ring", [QQ, GF(3)], ids=str)
def test_callers_of_the_reduced_form_run_no_rank_pass(counted, ring):
    a = Matrix(ring, [[2, 1, 0], [1, 1, 1], [0, 1, 1]])
    singular = Matrix(ring, [[1, 2], [2, 4]])
    tall = Matrix(ring, [[1, 0], [1, 1], [0, 1]])
    assert linalg.det(a) != 0 and linalg.det(singular) == 0
    assert linalg.inverse(a) @ a == Matrix.identity(ring, 3)
    assert linalg._bottom_pivots(tall)[0] == [2, 1]
    assert rref(singular).kernel().dim == 1
    assert rref(a).solve(a) == Matrix.identity(ring, 3)
    assert counted["reduce"] and counted["rank_profile"] == []
