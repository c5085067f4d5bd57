"""``is_contractible`` builds its witness from its own analysis, with no cone around it.

The contraction of an exact complex is the F-part of the explicit
null-homotopy of the cone of the zero map from the empty scalar object;
``is_contractible`` reads that formula directly, block by block.
"""

import random

import pytest

from eigenchain import (
    GF,
    QQ,
    ZZ,
    canonical_alpha,
    cones,
    construct_null_homotopy,
    identity_map,
    is_contractible,
    mapping_cone,
    scalar_object,
    verify_homotopy,
    zero_map,
)
from eigenchain.decompose import Decomposition
from eigenchain.errors import TorsionHomology
from eigenchain.randgen import random_complex


def exact_complexes(ring, seed, wanted=4):
    """Cones of canonical pairs of seeded random complexes: exact, with differentials."""
    rng = random.Random(seed)
    found = []
    while len(found) < wanted:
        f = random_complex(ring, rng, max_len=4, max_rank=4)
        try:
            _, alpha = canonical_alpha(f)
        except TorsionHomology:
            continue
        x = mapping_cone(alpha).underlying
        if x.diffs:
            found.append(x)
    return found


@pytest.fixture
def cone_calls(monkeypatch):
    """Calls of the cone builder and of the hypothesis checker, by name."""
    calls = []
    for name in ("_assemble_cone", "check_hypotheses"):
        original = getattr(cones, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cones, name, counted)
    return calls


def test_an_exact_complex_builds_no_cone_and_checks_no_hypotheses(cone_calls):
    (f,) = exact_complexes(QQ, 77, wanted=1)
    cone_calls.clear()
    contractible, psi = is_contractible(f)
    assert contractible and psi.blocks
    assert cone_calls == []


@pytest.mark.parametrize("ring,seed", [(QQ, 77), (GF(3), 5), (ZZ, 9)], ids=str)
def test_the_witness_is_the_zero_map_cone_construction(ring, seed):
    for f in exact_complexes(ring, seed):
        contractible, psi = is_contractible(f)
        assert contractible
        assert psi.on is f
        assert verify_homotopy(f, zero_map(f, f), identity_map(f), psi).ok
        cone = mapping_cone(zero_map(scalar_object(ring, {}), f))
        through_cone = construct_null_homotopy(cone, Decomposition(f))
        assert psi.blocks == through_cone.blocks
