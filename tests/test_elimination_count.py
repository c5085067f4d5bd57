"""Each differential is eliminated once per call.

Every ``rref`` and ``smith_normal_form`` call is counted, in every
``eigenchain`` module that binds the function, during one public call.
The analysis of a complex factors each differential exactly once and
derives the rest of its splits from a few more eliminations per degree;
these tests keep duplicate analyses from creeping back in.
"""

import sys
from itertools import combinations

import pytest

from eigenchain import QQ, ZZ, GradedMap, Matrix, linalg, scalar_object
from eigenchain.certify import certify_homology_eigenvalue, decide_eigenvalue
from eigenchain.complexes import COCHAIN, ChainComplex, convert_convention
from eigenchain.decompose import homology
from eigenchain.simplicial import simplicial_to_chain

PER_DEGREE = 4


@pytest.fixture
def eliminated(monkeypatch):
    """The matrices handed to ``rref`` or ``smith_normal_form``, in call order."""
    calls = []
    modules = [m for name, m in sys.modules.items() if name == "eigenchain" or name.startswith("eigenchain.")]
    for name in ("rref", "smith_normal_form"):
        original = getattr(linalg, name)

        def counted(a, _original=original):
            calls.append(a)
            return _original(a)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def skeleton(ring):
    """The 2-skeleton of the 5-simplex, in cochain degrees -2, -1, 0."""
    chain, _ = simplicial_to_chain(6, [list(f) for f in combinations(range(6), 3)], ring)
    return convert_convention(chain, COCHAIN)


def times_factored(calls, d):
    return sum(1 for a in calls if a == d)


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
